import math
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from cubint.expr import (
    Box, EvalDomainError, ExpressionSyntaxError, Func, OrderCapExceeded,
    UnknownIdentifier, ZeroTestConfig, diff, eval_at, is_zero, nf_is_zero,
    parse, simplify, to_str,
)
from cubint import expr as expr_mod
from oracles import fd_partial


BOX = Box(-2.0, 2.0, -2.0, 2.0)
POS_BOX = Box(0.2, 1.8, 0.2, 1.8)


# --------------------------------------------------------------------------
# parsing

def test_parse_basic_arithmetic():
    e = parse("2*x + 3*y - 1")
    assert eval_at(e, (1.0, 2.0)) == pytest.approx(7.0)


def test_parse_precedence():
    assert eval_at(parse("2 + 3 * 4"), (0, 0)) == 14.0
    assert eval_at(parse("2 * 3 ^ 2"), (0, 0)) == 18.0
    assert eval_at(parse("-3^2"), (0, 0)) == -9.0
    assert eval_at(parse("(2 + 3) * 4"), (0, 0)) == 20.0
    assert eval_at(parse("2 - 3 - 4"), (0, 0)) == -5.0
    assert eval_at(parse("12 / 3 / 2"), (0, 0)) == 2.0


def test_parse_decimal_is_exact():
    e = parse("0.1 + 0.2")
    assert to_str(simplify(e)) == "3/10"


def test_parse_functions_and_constants():
    assert eval_at(parse("sin(pi/2)"), (0, 0)) == pytest.approx(1.0)
    assert eval_at(parse("ln(e)"), (0, 0)) == pytest.approx(1.0)
    assert eval_at(parse("sqrt(2)"), (0, 0)) == pytest.approx(math.sqrt(2))
    assert eval_at(parse("tanh(1)"), (0, 0)) == pytest.approx(math.tanh(1))


def test_parse_rational_exponents():
    assert eval_at(parse("4^(1/2)"), (0, 0)) == pytest.approx(2.0)
    assert eval_at(parse("8^(-1/3)"), (0, 0)) == pytest.approx(0.5)
    assert eval_at(parse("x^-2"), (2, 0)) == pytest.approx(0.25)
    assert eval_at(parse("x^(3/2)"), (4, 0)) == pytest.approx(8.0)


def test_parse_incomplete_input_reports_offset():
    with pytest.raises(SyntaxError) as exc:
        parse("x +")
    assert exc.value.offset == 3


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifier):
        parse("x + zeta")
    with pytest.raises(UnknownIdentifier):
        parse("foo(x)")


def test_parse_error_offsets():
    cases = {
        "x ++ y": 3,
        "(x + y": 6,
        "x + @": 4,
        "sin x": 0,   # function name without argument list, flagged at name
    }
    for text, off in cases.items():
        with pytest.raises(ExpressionSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == off, text


def test_parse_symbolic_exponent_rejected():
    with pytest.raises(ExpressionSyntaxError):
        parse("x^y")
    with pytest.raises(ExpressionSyntaxError):
        parse("x^(y)")


def test_variable_not_callable():
    with pytest.raises(ExpressionSyntaxError):
        parse("x(1)")


def test_division_by_literal_zero_rejected():
    with pytest.raises((ExpressionSyntaxError, ZeroDivisionError)):
        parse("x/0")


# --------------------------------------------------------------------------
# printing: parse(to_str(e)) is structurally equal to e

ROUND_TRIP_CASES = [
    "x + y",
    "2*x^2 - 3/2*y",
    "sin(x)*cos(y)",
    "1/(1+x^2)",
    "x^(1/2)",
    "(x+y)^3/(x-y)",
    "-x",
    "x^-2 + y",
    "2^(1/2)*x",
    "pi*e*x",
    "exp(x*y) - tanh(x/2)",
    "x/(y*(1+x))",
    "sqrt(1+x^2)",
    "-(x+y)*(x-y)",
    "1/2/x/y",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_print_parse_round_trip(text):
    e = parse(text)
    assert parse(to_str(e)) == e


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
def test_simplify_round_trip(text):
    e = simplify(parse(text))
    assert parse(to_str(e)) == e


# random expression trees for the structural round-trip property

def _exprs(depth):
    leaf = st.one_of(
        st.sampled_from(["x", "y", "pi", "e", "2", "3", "1/2", "0", "7"]).map(parse),
        st.integers(min_value=-9, max_value=9).map(lambda n: parse(str(n)) if n >= 0
                                                   else -parse(str(-n))),
    )
    if depth <= 0:
        return leaf

    sub = _exprs(depth - 1)

    def combine(args):
        op, a, b = args
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        return a

    def raise_guarded(t):
        base, n = t
        try:
            return base ** n
        except ZeroDivisionError:
            return base

    binop = st.tuples(st.sampled_from("+-*"), sub, sub).map(combine)
    powop = st.tuples(sub, st.sampled_from([2, 3, -1, -2])).map(raise_guarded)
    fn = st.tuples(st.sampled_from(["sin", "cos", "exp", "sinh", "tanh"]), sub).map(
        lambda t: Func(t[0], t[1]))
    return st.one_of(leaf, binop, powop, fn)


@given(_exprs(4))
@settings(max_examples=150, deadline=None)
def test_round_trip_property(e):
    s = to_str(e)
    assert parse(s) == e
    try:
        se = simplify(e)
    except ZeroDivisionError:
        # e.g. 1/sin(0): an everywhere-undefined input, discovered during
        # normalization; nothing to round-trip
        return
    assert parse(to_str(se)) == se


# --------------------------------------------------------------------------
# differentiation against the finite-difference oracle

DIFF_CASES = [
    "sin(x)*exp(y)",
    "ln(1+x^2+y^2)",
    "x^3/(1+y^2)",
    "sqrt(1+x^2)",
    "tan(x/2)*tanh(y)",
    "1/(x+y+3)",
    "x^(3/2)*y",
    "exp(x*y)*cos(x-y)",
    "cosh(x)*sinh(y) - x^4*y^2/7",
    "ln(2+sin(x))*y",
]


@pytest.mark.parametrize("text", DIFF_CASES)
@pytest.mark.parametrize("var", ["x", "y"])
def test_diff_matches_finite_differences(text, var):
    e = parse(text)
    de = diff(e, var)
    rng = random.Random(971)
    pts = [(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5)) for _ in range(32)]
    for pt in pts:
        want = fd_partial(lambda a, b: eval_at(e, (a, b)), pt[0], pt[1], var)
        got = eval_at(de, pt)
        assert abs(got - want) <= 1e-6 * (1 + abs(want)), (text, var, pt)


def test_diff_linearity_and_leibniz():
    f = parse("sin(x)*y")
    g = parse("x^2 + ln(1+y^2)")
    s = simplify(diff(f * g, "x") - (diff(f, "x") * g + f * diff(g, "x")))
    assert to_str(s) == "0"
    s = simplify(diff(f + g, "y") - diff(f, "y") - diff(g, "y"))
    assert to_str(s) == "0"


def test_mixed_partials_commute():
    e = parse("exp(x*y)*sin(x+2*y)/(1+x^2)")
    a = diff(diff(e, "x"), "y")
    b = diff(diff(e, "y"), "x")
    assert to_str(simplify(a - b)) == "0"


def test_derivative_order_cap():
    e = parse("ln(1+x^2)")
    for _ in range(8):
        e = diff(e, "x")
    with pytest.raises(OrderCapExceeded):
        diff(e, "x")


def test_zero_derivative_keeps_order_ledger_clean():
    # an order-8 chain that lands on exact zero must not raise the order
    # of the zero seen by unrelated later computations
    e = parse("x^7")
    for _ in range(8):
        e = diff(e, "x")
    assert nf_is_zero(e)
    z = simplify(parse("0"))
    for _ in range(3):
        z = diff(z, "x")
    assert nf_is_zero(z)


def test_diff_chain_leaves_no_order_in_shared_nodes():
    # sin and cos derivatives come from a cache; a long chain must not
    # leave its order in cached nodes that a fresh chain gets back
    for _ in range(2):
        e = parse("sin(x)")
        for _ in range(8):
            e = diff(e, "x")
    assert diff(parse("sin(x)"), "x")._dord == 1


def _nodes(e):
    yield e
    for kid in (getattr(e, "terms", ()) + getattr(e, "factors", ())
                + tuple(getattr(e, k) for k in ("base", "arg")
                        if hasattr(e, k))):
        yield from _nodes(kid)


def test_diff_leaves_its_input_at_order_zero():
    e = parse("x^2/2 + y")
    diff(e, "x")
    assert all(n._dord == 0 for n in _nodes(e))


# --------------------------------------------------------------------------
# simplify

def test_simplify_is_idempotent():
    for text in DIFF_CASES + ROUND_TRIP_CASES:
        e = simplify(parse(text))
        assert simplify(e) == e


def test_simplify_soundness_numeric():
    rng = random.Random(5)
    for text in DIFF_CASES:
        e = parse(text)
        s = simplify(e)
        for _ in range(16):
            pt = (rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
            v1 = eval_at(e, pt)
            v2 = eval_at(s, pt)
            assert abs(v1 - v2) <= 1e-10 * (1 + abs(v1)), text


def test_simplify_cancels_polynomial_identity():
    e = parse("(x+y)^2 - x^2 - 2*x*y - y^2")
    assert to_str(simplify(e)) == "0"


def test_simplify_rational_cancellation_note():
    assert to_str(simplify(parse("(x^2-1)/(x-1)"))) == "1 + x"


def test_simplify_keeps_denominators_factored():
    e = parse("1/((1+x^2)*(2+y^2))")
    s = to_str(simplify(e))
    assert "1 + x^2" in s and "2 + y^2" in s


def test_simplify_sqrt_of_perfect_square():
    assert to_str(simplify(parse("sqrt(x^2)"))) == "x"
    assert to_str(simplify(parse("sqrt(4*x^2*y^4)"))) == "2*x*y^2"
    assert to_str(simplify(parse("sqrt(x^2+2*x+1)"))) == "1 + x"
    assert to_str(simplify(parse("sqrt((1+x^2)^2)"))) == "1 + x^2"


def test_simplify_exp_ln_folds():
    assert to_str(simplify(parse("ln(exp(x^2))"))) == "x^2"
    assert to_str(simplify(parse("exp(ln(1+x^2))"))) == "1 + x^2"
    assert to_str(simplify(parse("exp(x)*exp(y)"))) == "exp(x + y)"
    assert to_str(simplify(parse("exp(x)*exp(-x)"))) == "1"


def test_simplify_does_not_claim_unprovable_zero():
    # sin^2+cos^2-1 is not in the rational normal form's equational theory
    e = simplify(parse("sin(x)^2 + cos(x)^2 - 1"))
    assert to_str(e) != "0"


# --------------------------------------------------------------------------
# evaluation

def test_eval_domain_errors():
    with pytest.raises(EvalDomainError):
        eval_at(parse("1/x"), (0.0, 1.0))
    with pytest.raises(EvalDomainError):
        eval_at(parse("ln(x)"), (-1.0, 0.0))
    with pytest.raises(EvalDomainError):
        eval_at(parse("sqrt(x)"), (-4.0, 0.0))
    with pytest.raises(EvalDomainError):
        eval_at(parse("x^(1/2)"), (-4.0, 0.0))
    with pytest.raises(EvalDomainError):
        eval_at(parse("exp(x)"), (1e6, 0.0))  # overflow -> domain error


def test_eval_matches_math_module():
    pts = [(0.3, 0.8), (1.2, -0.4), (-1.5, 0.9)]
    e = parse("sin(x)*cosh(y) + exp(x-y)/3")
    for (a, b) in pts:
        want = math.sin(a) * math.cosh(b) + math.exp(a - b) / 3
        assert eval_at(e, (a, b)) == pytest.approx(want, rel=1e-14)


# --------------------------------------------------------------------------
# tri-state zero test

def test_is_zero_on_structural_zero():
    v = is_zero(parse("x*y - y*x"), BOX)
    assert v.is_zero and v.method == "symbolic"


def test_is_zero_numeric_identity():
    # sanctioned numeric path: identity beyond the rational normal form
    v = is_zero(parse("sin(x)^2 + cos(x)^2 - 1"), BOX)
    assert v.is_zero
    assert v.method == "probed"


def test_is_zero_nonzero_with_witness():
    v = is_zero(parse("x"), BOX)
    assert v.is_nonzero
    assert BOX.contains(v.witness)
    assert abs(v.value) > 1e-6
    # |x| is maximized near the domain edge
    assert abs(v.witness[0]) > 1.0


def test_is_zero_deterministic_for_fixed_seed():
    cfg = ZeroTestConfig().with_seed(12345)
    e = parse("x^2 - y")
    v1 = is_zero(e, BOX, cfg)
    v2 = is_zero(parse("x^2 - y"), BOX, cfg)
    assert v1.kind == v2.kind == "nonzero"
    assert v1.witness == v2.witness
    assert v1.value == v2.value


def test_is_zero_survives_eval_failures():
    # ln(y) fails on a quarter of the box; nonzero where defined
    v = is_zero(parse("ln(y)"), Box(0.5, 2.0, -0.5, 1.5))
    assert v.is_nonzero


def test_is_zero_unknown_on_mostly_singular():
    # undefined on the whole box: too many evaluation failures
    v = is_zero(parse("sqrt(-1-x^2)"), BOX)
    assert v.is_unknown


def test_is_zero_scale_aware():
    # huge cancellation: (x+1e8)^2 - x^2 - 2e8 x - 1e16 is identically 0;
    # naive float evaluation leaves ~1e0 noise, the relative-scale tolerance
    # must absorb it
    e = parse("(x+100000000)^2 - x^2 - 200000000*x - 10000000000000000")
    v = is_zero(e, BOX)
    assert v.is_zero


def test_zero_test_budget_charges_only_its_own_thread(monkeypatch):
    # a worker's symbolic confirmation exhausts its term budget and blocks
    # inside it; a simplify on the main thread meanwhile must not be
    # charged against that budget
    inside, release = threading.Event(), threading.Event()
    charge = expr_mod._charge
    verdicts = []

    def blocking_charge(cost):
        if threading.current_thread() is worker and not inside.is_set():
            try:
                charge(10 ** 12)
            except expr_mod._BudgetExceeded:
                pass
            inside.set()
            release.wait(30)
        charge(cost)

    monkeypatch.setattr(expr_mod, "_charge", blocking_charge)
    worker = threading.Thread(target=lambda: verdicts.append(
        is_zero(parse("(x+1)^2 - x^2 - 2*x - 1"), BOX)))
    worker.start()
    try:
        assert inside.wait(30)
        s = simplify(parse("(1+x)^3*(2+y)^2"))
    finally:
        release.set()
        worker.join(30)
    assert not worker.is_alive()
    assert verdicts[0].is_zero
    assert s == simplify(parse("(1+x)^3*(2+y)^2"))


def test_is_zero_small_but_nonzero_function():
    v = is_zero(parse("1/1000000*x"), BOX, ZeroTestConfig())
    assert v.is_nonzero


@given(st.sampled_from(DIFF_CASES), st.sampled_from(["x", "y"]))
@settings(max_examples=20, deadline=None)
def test_derivative_difference_of_routes_is_zero(text, var):
    # d/dv applied before vs after simplify must agree identically
    e = parse(text)
    a = diff(e, var)
    b = diff(simplify(e), var)
    assert is_zero(a - b, POS_BOX).is_zero
