import copy
import dis
import functools
import gc
import math
import operator
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cubint.expr import (
    FUNCTIONS, Add, Box, Const, EvalDomainError, ExpressionSyntaxError, Func,
    Mul, Pow, Rat, UnknownIdentifier, Var, ZeroTestConfig,
    compile_float, diff, eval_at, is_zero, nf_diff, nf_is_zero,
    nf_to_expr, parse, simplify, to_nf, to_str,
)
from cubint import (Codifferential, InvariantEngine, expr as expr_mod,
                    isothermal_metric)
from oracles import (compile_float_reference, fd_partial, m_mul_reference, nf_add_reference,
                     nf_diff_reference, p_div_exact_reference, p_div_reference,
                     p_leading_reference, p_mul_reference, tree_eval, unpack)


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


def test_atoms_are_one_node_per_name():
    x = Var("x")
    assert x is expr_mod.X and parse("x") is x and parse("x + 1").terms[1] is x
    pi = Const("pi")
    assert parse("pi") is pi and parse("2*pi").factors[1] is pi
    for atom in (x, Var("y"), pi, Const("e")):
        assert pickle.loads(pickle.dumps(atom)) is atom
        assert copy.copy(atom) is atom and copy.deepcopy(atom) is atom
    # a tree built again from a pickle or a deep copy shares its atoms
    e = parse("x*y^2 + sin(x)")
    for e2 in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
        assert e2 == e and e2 is not e
        assert e2.terms[1].factors[0] is x
    # identity is equality: no Python-level __eq__ or __hash__ left
    for cls in (Var, Const):
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls)
    assert Var("x") != Var("y") and Var("x") != Const("e")
    with pytest.raises(ValueError, match="^unknown variable 'z'$"):
        Var("z")
    with pytest.raises(ValueError, match="^unknown constant 'tau'$"):
        Const("tau")


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
    # radicals whose polynomial has a negative leading coefficient
    "1/sqrt(1-x^2)",
    "y/(x*(1-x^2)^(1/2))",
    "1/sqrt(-x^2 - 1 + y)",
    "(1/3)^(1/2)*x",
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


def test_high_order_derivatives():
    # the derivative order has no cap: twelve x-derivatives close the
    # cycle of sin and reduce x^12 to 12!
    e, p = parse("sin(x)"), parse("x^12")
    for _ in range(12):
        e, p = diff(e, "x"), diff(p, "x")
    assert e == simplify(parse("sin(x)"))
    assert to_str(p) == "479001600"


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


# --------------------------------------------------------------------------
# simplify

def test_simplify_is_idempotent():
    # a simplified expression carries its normal form, so simplify(e) == e
    # holds trivially; the printed form has to be normalized afresh
    for text in DIFF_CASES + ROUND_TRIP_CASES:
        e = simplify(parse(text))
        assert simplify(parse(to_str(e))) == e, text


def _nf_exprs(depth):
    """Random rational and radical expressions: rational leaves of both
    signs, quotients, integer and fractional powers, functions."""
    leaf = st.sampled_from(["x", "y", "2", "1/3", "-1", "-3", "pi", "e"]).map(parse)
    if depth <= 0:
        return leaf
    sub = _nf_exprs(depth - 1)

    def combine(args):
        op, a, b = args
        try:
            return {"+": operator.add, "-": operator.sub,
                    "*": operator.mul, "/": operator.truediv}[op](a, b)
        except ZeroDivisionError:
            return a

    def raise_guarded(t):
        base, n = t
        try:
            return base ** n
        except ZeroDivisionError:
            return base

    binop = st.tuples(st.sampled_from("+-*/"), sub, sub).map(combine)
    powop = st.tuples(sub, st.sampled_from(
        [Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(1, 3), 2, -1])
    ).map(raise_guarded)
    fn = st.tuples(st.sampled_from(["sqrt", "exp", "sin", "ln"]), sub).map(
        lambda t: Func(t[0], t[1]))
    return st.one_of(leaf, binop, powop, fn)


@given(_nf_exprs(3))
@settings(max_examples=200, deadline=None)
@example(parse("1/sqrt(1-x^2)"))
@example(parse("y/(x*(1-x^2)^(1/2))"))
@example(parse("1/sqrt(-x^2 - 1 + y)"))
@example(parse("(1/3)^(1/2)"))
@example(parse("exp(-1)"))
@example(parse("(3/2 + x^2 + 3*y^2)^-3*x/5"))
@example(parse("sqrt(2)*x/6 + exp(y/2 - 1)/4 - 3/4*y^(1/3)"))
@example(parse("exp(2 + ln(x))"))
@example(parse("(x*(1/3)^(1/3))^(3/2)"))
def test_normal_form_round_trips(e):
    # simplify and diff store the normal form on the expression they
    # rebuild from it; that is sound only if normalizing the rebuilt
    # expression afresh gives the same normal form
    try:
        nf = to_nf(e)
    except (ZeroDivisionError, EvalDomainError):
        return
    again = to_nf(parse(to_str(nf_to_expr(nf))))
    assert again.num == nf.num and again.den == nf.den
    assert again.content == nf.content
    _assert_content_form(nf)


def _nfs(exprs):
    """The normal forms of exprs, leaving out those that fail to normalize."""
    out = []
    for e in exprs:
        try:
            out.append(to_nf(e))
        except (ZeroDivisionError, EvalDomainError):
            pass
    return out


def _assert_same_nf(got, want):
    assert (got.content, got.num, got.den) == (want.content, want.num, want.den)


@given(st.lists(_nf_exprs(3), min_size=2, max_size=5))
@settings(max_examples=150, deadline=None)
def test_sum_matches_pairwise_reference(exprs):
    nfs = _nfs(exprs)
    got = expr_mod.nf_sum(nfs)
    _assert_same_nf(got, functools.reduce(nf_add_reference, nfs, expr_mod._NF_ZERO))
    _assert_content_form(got)


@given(st.lists(_nf_exprs(3), min_size=2, max_size=5))
@settings(max_examples=60, deadline=None)
# the quotient rule over two compound denominator bases, one of them a
# radical's: B/b_i of each is the other
@example([parse("1/(1 + x^2)"), parse("y/sqrt(2 + x - y^2)")])
def test_derivative_matches_reference(exprs):
    nfs = _nfs(exprs)
    for nf in nfs + [expr_mod.nf_sum(nfs)]:
        for var in ("x", "y"):
            got = expr_mod._nf_diff(nf, var, {})
            _assert_same_nf(got, nf_diff_reference(nf, var))
            _assert_content_form(got)


def _assert_content_form(nf):
    """A normal form is a positive Fraction content times a polynomial with
    coprime int coefficients."""
    if nf.is_zero():
        return
    assert type(nf.content) is Fraction and nf.content > 0
    assert all(type(c) is int for c in nf.num.values())
    assert math.gcd(*nf.num.values()) == 1


@pytest.mark.parametrize("text", [
    # a rational constant in an exp argument is a power of e
    "exp(x + 1) - e*exp(x)",
    "exp(x - 1/2)*exp(y + 1/2) - exp(x + y)",
    "exp(2 + x^2)/exp(x^2) - e^2",
    "ln(exp(x + 1)) - x - 1",
    "ln(exp(x - 1)) - x + 1",
    "ln(exp(-1)) + 1",
    # exp(ln(u)) is u once the constant term is split off: in a whole
    # argument (any u) and in a product of exp atoms (a one-term u)
    "exp(1 + ln(x)) - e*x",
    "exp(ln(x) + y)*exp(-y) - x",
    "exp(-1 + ln(1 + x^2)) - (1 + x^2)/e",
    # the radicand of a rational root is an integer
    "(1/3)^(1/2) - 3^(-1/2)",
    "(2/3)^(1/2) - 6^(1/2)/3",
    "(1/2)^(1/2) - 2^(1/2)/2",
    "(5/7)^(1/2)*(7/5)^(1/2) - 1",
    # 48 = 2^3*6: n-th powers are not pulled out of the radicand
    "(3/4)^(1/3) - 48^(1/3)/4",
    # a radicand whose root is rational after exponents multiply
    "(x*9^(1/3))^(3/2) - 3*x^(3/2)",
])
def test_one_value_has_one_normal_form(text):
    assert nf_is_zero(parse(text))


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
    assert to_str(simplify(parse("exp(1 + x)"))) == "e*exp(x)"
    assert to_str(simplify(parse("exp(x - 1)"))) == "exp(x)/e"


def test_simplify_does_not_claim_unprovable_zero():
    # sin^2+cos^2-1 is not in the rational normal form's equational theory
    e = simplify(parse("sin(x)^2 + cos(x)^2 - 1"))
    assert to_str(e) != "0"


# --------------------------------------------------------------------------
# integer products and exact division against the former Fraction loops

_RADICAL = expr_mod._PolyBase(expr_mod._freeze(expr_mod.to_nf(parse("1 + x^2")).num))
_PLAIN_BASES = (Var("x"), Var("y"), Func("sin", Var("x")), _RADICAL)
# exp atoms and rational bases fold under _m_build, so their products are
# not vector adds
_FOLDING_BASES = (Var("x"), Func("exp", Var("x")), Func("exp", Var("y")),
                  expr_mod._RatPow(Fraction(2)), expr_mod._RatPow(Fraction(1, 3)))
_EXPONENTS = [Fraction(n, d) for n, d in
              ((-2, 1), (-1, 1), (-1, 2), (1, 2), (1, 1), (2, 1), (3, 1), (3, 2))]
_POSITIVE = [e for e in _EXPONENTS if e > 0]
_COEFFS = [Fraction(n, d) for n, d in ((1, 1), (-1, 1), (2, 1), (-3, 2), (1, 3), (5, 7))]


def _polys(bases, max_terms=5, exponents=_EXPONENTS):
    mono = st.lists(st.tuples(st.sampled_from(bases), st.sampled_from(exponents)),
                    max_size=3)

    def build(terms):
        p = {}
        for pairs, c in terms:
            cm, m = expr_mod._m_build(pairs)
            expr_mod._p_add_into(p, {m: c * cm})
        return p

    return st.lists(st.tuples(mono, st.sampled_from(_COEFFS)),
                     min_size=1, max_size=max_terms).map(build)


def _primitive_polys(bases, max_terms=5, exponents=_EXPONENTS):
    """Nonzero polynomials with coprime int coefficients, as the kernel
    keeps normal-form numerators and the integer form of each compound
    base."""
    return _polys(bases, max_terms, exponents).filter(bool).map(
        lambda p: expr_mod._primitive(expr_mod._UNIT, p)[1])


def _integral_polys(bases, max_terms=5, exponents=_EXPONENTS):
    """Polynomials with int coefficients, not all primitive."""
    return st.one_of(st.just({}), st.tuples(
        _primitive_polys(bases, max_terms, exponents),
        st.sampled_from([1, -1, 2, -6, 15]),
    ).map(lambda t: {m: c * t[1] for m, c in t[0].items()}))


def _fractions(p):
    return {m: Fraction(c) for m, c in p.items()}


def _same_division(p, q):
    got = expr_mod._p_div_exact(p, q)
    assert unpack(got) == unpack(p_div_exact_reference(p, q))
    assert got == p_div_reference(_fractions(p), _fractions(q))
    return got


def _poly(text):
    return expr_mod.to_nf(parse(text)).num


# (x + y^3)/x: the leading term in graded-lex order is y^3/x, so the
# division succeeds; in plain lex order it would be 1, which x does not divide
_X_PLUS_Y3 = _poly("x + y^3")
_X_PLUS_Y3_OVER_X = expr_mod._p_mul(
    _X_PLUS_Y3, {expr_mod._m_build([(Var("x"), -1)])[1]: 1})


def _product_and_factor(q_text, s_text):
    """(q*s, q) for the numerators of two parsed polynomials."""
    q = _poly(q_text)
    return expr_mod._p_mul(q, _poly(s_text)), q


@given(_polys(_PLAIN_BASES + _FOLDING_BASES, 6).filter(bool))
@settings(max_examples=300, deadline=None)
# one total degree: x, first in _skey order, decides for x^2
@example(_poly("y^2 + x*y + x^2"))
# x^(1/2) against a radical base of the same degree, and y^3/x, of the
# larger total degree though one exponent is negative
@example(_poly("(1 + x^2)^(1/2) + x^(1/2)"))
@example(_X_PLUS_Y3_OVER_X)
def test_leading_term_matches_reference(p):
    assert expr_mod._p_leading(p) == p_leading_reference(p)


@given(_integral_polys(_PLAIN_BASES + _FOLDING_BASES, 4),
       _integral_polys(_PLAIN_BASES + _FOLDING_BASES, 4))
@settings(max_examples=300, deadline=None)
# 2^(1/2)*2^(1/2) = 2 and, on a base built as _RatPow(1/3),
# (1/3)^(1/2)*(1/3)^(1/2) = 1/3 fold into the coefficient;
# exp(x)*exp(-x) = 1 merges two monomials
@example(_poly("x + 2^(1/2)"), _poly("2^(1/2) - x"))
@example({expr_mod._m_build([(_FOLDING_BASES[4], Fraction(1, 2))])[1]: 3,
          expr_mod._m_build([(Var("y"), 1)])[1]: 1},
         {expr_mod._m_build([(_FOLDING_BASES[4], Fraction(1, 2))])[1]: 1})
@example(_poly("exp(x) + y"), _poly("exp(-x) - 1"))
def test_product_matches_reference(p, q):
    got = expr_mod._p_mul(p, q)
    assert got == p_mul_reference(p, q)
    # only a product that folds leaves the integers
    if not any(map(expr_mod._folds, {b for r in (p, q) for m in r
                                     for (b, _) in unpack(m)})):
        assert all(type(c) is int for c in got.values())


@given(_primitive_polys(_PLAIN_BASES, 4), _primitive_polys(_PLAIN_BASES, 4))
@settings(max_examples=200, deadline=None)
def test_product_of_primitive_polynomials_is_primitive(p, q):
    # Gauss's lemma, on which nf_mul relies to skip the content
    assert math.gcd(*expr_mod._p_mul(p, q).values()) == 1


@given(_integral_polys(_PLAIN_BASES), _primitive_polys(_PLAIN_BASES))
@settings(max_examples=300, deadline=None)
@example(_X_PLUS_Y3_OVER_X, _X_PLUS_Y3)
# lc(q) = 2 does not divide lc(p) = 3: the integer loop stops at once
@example(_poly("3*x^2 + 2*y"), _poly("2*x + 1"))
@example(_poly("6*x^2 + 3*x + 4*x*y + 2*y"), _poly("2*x + 1"))
# exact quotients that the integer pre-check must leave to long division:
# q vanishes at the point t of _p_eval_int; Laurent monomials; fractional
# powers of x and of a compound base; a function and a constant base.  A
# pre-check that took rational or float values at t would reject the
# Laurent ones (here and the first example) and x^(1/2)
@example(*_product_and_factor(
    f"{expr_mod._Y_AT}*x - {expr_mod._X_AT}*y", "x + y"))
@example(expr_mod._p_mul(_poly("x + 2"), _X_PLUS_Y3_OVER_X), _X_PLUS_Y3_OVER_X)
@example(*_product_and_factor("x^(1/2) + y", "x + 2"))
@example(*_product_and_factor("(1 + x^2)^(1/2) + x", "x + 2"))
@example(*_product_and_factor("sin(x) + 2*x", "pi + y"))
def test_division_matches_reference(p, q):
    _same_division(p, q)


def test_division_rejects_by_one_integer_evaluation(monkeypatch):
    # q(t) = 1009 + 4006 does not divide p(t) at t = (1009, 2003), so no
    # graded-lex key is built
    calls = []
    real = expr_mod._glex_key

    def counted(bases):
        calls.append(bases)
        return real(bases)
    monkeypatch.setattr(expr_mod, "_glex_key", counted)
    p, q = _poly("x^2 + 3*y + 1"), _poly("x + 2*y")
    assert p_div_reference(_fractions(p), _fractions(q)) is None
    assert expr_mod._p_div_exact(p, q) is None
    assert calls == []
    # a quotient that exists is still found
    assert expr_mod._p_div_exact(expr_mod._p_mul(p, q), q) == p


@given(st.dictionaries(st.tuples(st.integers(0, 130), st.integers(0, 130)),
                       st.integers(-50, 50).filter(bool), max_size=6))
@settings(max_examples=100, deadline=None)
@example({(63, 64): 3, (64, 63): -2, (0, 65): 1, (200, 0): 7})
def test_p_eval_int_is_the_value_at_its_point(terms):
    # the sum of c * 1009^i * 2003^j, on exponents below and above the
    # size of the power tables
    p = {expr_mod._m_build([(Var("x"), i), (Var("y"), j)])[1]: c
         for (i, j), c in terms.items()}
    want = sum(c * 1009 ** i * 2003 ** j for (i, j), c in terms.items())
    assert expr_mod._p_eval_int(p) == want
    # no int value with a Fraction coefficient or a negative exponent
    assert expr_mod._p_eval_int({**p, 0: Fraction(1, 2)}) is None
    inv_y = expr_mod._m_build([(Var("y"), -1)])[1]
    assert expr_mod._p_eval_int({**p, inv_y: 1}) is None


@given(_primitive_polys(_PLAIN_BASES, 4),
       _integral_polys(_PLAIN_BASES, 4, _POSITIVE).filter(bool))
@settings(max_examples=200, deadline=None)
def test_division_of_exact_products(q, s):
    # with no negative exponent in s, lead(q) divides lead(q*s) at every step
    assert _same_division(expr_mod._p_mul(q, s), q) == s


@given(_integral_polys(_PLAIN_BASES, 1).filter(bool),
       _primitive_polys(_PLAIN_BASES).filter(lambda q: len(q) > 1))
@settings(max_examples=100, deadline=None)
def test_division_of_one_term(p, q):
    assert _same_division(p, q) is None


def test_division_stops_at_guard():
    # (1 - x^-n)/(1 - 1/x) = 1 + 1/x + ... + x^-(n-1) takes n steps, and
    # the guard allows 4*(2 + 2) + 64 = 80 of them
    def one_minus(n):
        return {0: 1, expr_mod._m_build([(Var("x"), -n)])[1]: -1}

    assert len(_same_division(one_minus(80), one_minus(1))) == 80
    assert _same_division(one_minus(81), one_minus(1)) is None


@given(_integral_polys(_FOLDING_BASES), _primitive_polys(_FOLDING_BASES))
@settings(max_examples=200, deadline=None)
def test_division_with_folding_bases(p, q):
    _same_division(p, q)


@given(_primitive_polys(_FOLDING_BASES, 3), _primitive_polys(_FOLDING_BASES, 3))
@settings(max_examples=100, deadline=None)
# 2^(1/2)*2^(1/2) = 2 and exp(x)*exp(-x) = 1: no vector adds
@example(_poly("x + 2^(1/2)"), _poly("2^(1/2) - x"))
@example(_poly("exp(x) + y"), _poly("exp(-x)"))
def test_division_of_exact_products_with_folding_bases(q, s):
    # a fold may leave the product rational; the tuple loop takes that
    _same_division(expr_mod._p_mul(q, s), q)


# --------------------------------------------------------------------------
# monomial products against the former product

def _monos():
    pairs = st.lists(st.tuples(st.sampled_from(_PLAIN_BASES + _FOLDING_BASES),
                               st.sampled_from(_EXPONENTS)), max_size=4)
    return pairs.map(lambda ps: expr_mod._m_build(ps)[1])


def _integral_exponents_are_ints(mono):
    return all(type(e) is int for (_, e) in unpack(mono)
               if e.denominator == 1)


@given(_monos(), _monos())
@settings(max_examples=400, deadline=None)
@example(expr_mod._m_build([(_RADICAL, Fraction(1, 2))])[1],
         expr_mod._m_build([(_RADICAL, Fraction(-1, 2)), (Var("x"), 1)])[1])
@example(expr_mod._m_build([(Func("exp", Var("x")), 1)])[1],
         expr_mod._m_build([(Func("exp", Var("y")), 1)])[1])
def test_monomial_product_matches_reference(m1, m2):
    got = expr_mod._m_mul(m1, m2)
    assert got == m_mul_reference(m1, m2)
    assert _integral_exponents_are_ints(got[1])


# --------------------------------------------------------------------------
# packed keys of monomials in x and y

def _assert_packed_where_packable(p):
    """Every key of p that is x^i*y^j with int i and j is an int."""
    bad = [m for m in p if type(m) is not int and all(
        b in (Var("x"), Var("y")) and type(e) is int for b, e in m)]
    assert not bad, bad


_SIN_X = Func("sin", Var("x"))


@given(_monos(), _monos())
@settings(max_examples=300, deadline=None)
# sin(x)*x times x/sin(x): the other base cancels, and x^2 is an int
@example(expr_mod._m_build([(_SIN_X, 1), (Var("x"), 1)])[1],
         expr_mod._m_build([(_SIN_X, -1), (Var("x"), 1)])[1])
def test_monomial_products_of_x_and_y_are_packed(m1, m2):
    _assert_packed_where_packable(
        {m1: 1, m2: 1, expr_mod._m_mul(m1, m2)[1]: 1})
    _assert_packed_where_packable(expr_mod._p_mul({m1: 1}, {m2: 1}))


@given(_nf_exprs(3))
@settings(max_examples=150, deadline=None)
@example(parse("sin(x)*x*(x/sin(x))"))
@example(parse("(x*(1 + y^2) + sin(x))/(x*sin(x))"))
@example(parse("y/(x^2*(1 + x^2)^(1/2))"))
def test_normal_forms_and_derivatives_keep_packed_keys(e):
    # to_nf reaches _mk_nf, whose lifting and cancelling build keys too
    try:
        nf = to_nf(e)
        nfs = [nf, nf_diff(nf, "x"), nf_diff(nf, "y")]
    except (ZeroDivisionError, EvalDomainError):
        return
    for a in nfs:
        _assert_packed_where_packable(a.num)


_FIELD = 1 << expr_mod._T


@given(*[st.integers(-_FIELD // 2 + 1, _FIELD // 2 - 1)] * 4)
@settings(max_examples=300, deadline=None)
@example(_FIELD // 2 - 1, 0, _FIELD // 2 - 1, 1 - _FIELD // 2)
def test_packed_keys_add_and_compare_as_exponents(i1, j1, i2, j2):
    x, y = Var("x"), Var("y")
    k1 = expr_mod._m_build([(x, i1), (y, j1)])[1]
    k2 = expr_mod._m_build([(x, i2), (y, j2)])[1]
    assert unpack(k1 + k2) == unpack(
        expr_mod._m_build([(x, i1 + i2), (y, j1 + j2)])[1])
    # graded-lex order: total degree, then the exponent of x
    assert (k1 < k2) == ((i1 + j1, i1) < (i2 + j2, i2))


def test_exponents_up_to_the_field_bound():
    assert to_str(simplify(parse("x^300000*y^-7"))) == "x^300000/y^7"
    top = _FIELD - 1
    (m,) = to_nf(parse(f"x^{top}*y^{top}")).num
    assert unpack(m) == ((Var("x"), top), (Var("y"), top))
    # an exponent at the bound, however reached, raises a typed error
    # instead of carrying into the next field of the key
    for text in (f"x^{top + 1}", f"x^{top}*x", f"(x^{top}*y)^2",
                 f"(x*y^{top // 2 + 1})^2", f"x^{2 ** 100}*y", f"x^{2 ** 40}"):
        with pytest.raises(expr_mod.ExponentRangeError):
            to_nf(parse(text))
    # a denominator keeps its exponents as pairs
    assert to_str(simplify(parse(f"x^-{2 ** 40}"))) == f"1/x^{2 ** 40}"


def _nf_exponents(nf, seen):
    """Every exponent of nf's monomials, of the monomials of each compound
    base they reach, and of the normal forms of function arguments."""
    monos = list(nf.num)
    if nf.den:
        monos.append(nf.den)
    while monos:
        for (b, e) in unpack(monos.pop()):
            yield e
            if b in seen:
                continue
            seen.add(b)
            if type(b) is expr_mod._PolyBase:
                monos.extend(m for (m, _) in b.fp)
            elif type(b) is Func:
                yield from _nf_exponents(to_nf(b.arg), seen)


def test_integral_exponents_are_ints():
    rep = InvariantEngine(isothermal_metric("1 + x^2"),
                          Codifferential.isothermal(("0", "-1")),
                          BOX).report()
    exprs = [parse(t) for t in ROUND_TRIP_CASES]
    exprs += [*rep.phi, *rep.dee, *rep.gee, *(rep.kay or ())]
    for name, e in rep.star.items():
        exprs += list(e or ()) if name == "Kstar" else [e]
    exprs += rep.dforms.values()
    seen = set()
    exponents = [e for x in exprs for e in _nf_exponents(to_nf(x), seen)]
    assert len(exponents) > 50
    bad = [e for e in exponents if type(e) is not int and e.denominator == 1]
    assert not bad, bad[:5]


def test_plain_products_build_no_monomial(monkeypatch):
    # x, y, sin(x) and a radical do not fold, so their products are merges
    polys = [_poly(t) for t in ("x + y^2/3", "sin(x)*y - 1",
                                "(1 + x^2)^(1/2)*x + y^(3/2)", "x^-1 + y")]
    fold = [(_poly("exp(x)"), _poly("exp(-x)"), {0: 1}),
            (_poly("2^(1/2)"), _poly("2^(1/2)"), {0: 2})]
    calls = []
    real = expr_mod._m_build

    def counted(pairs):
        calls.append(pairs)
        return real(pairs)
    monkeypatch.setattr(expr_mod, "_m_build", counted)
    products = [expr_mod._p_mul(p, q) for p in polys for q in polys]
    assert calls == []
    assert all(products)
    for p, q, want in fold:
        assert expr_mod._p_mul(p, q) == want
    assert calls


# --------------------------------------------------------------------------
# exact roots of integers beyond a float's range and precision

@pytest.mark.parametrize("text", [
    "sqrt(12157665459056928802^2) - 12157665459056928802",
    "(100000000000000000001^3)^(1/3) - 100000000000000000001",
])
def test_exact_root_above_float_precision(text):
    assert nf_is_zero(parse(text))


def test_exact_root_above_float_range():
    assert to_str(simplify(parse("(10^400)^(1/2)*x"))) == "1" + "0" * 200 + "*x"


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
    with pytest.raises(EvalDomainError):
        eval_at(parse("ln(-1)"), (0.0, 0.0))
    with pytest.raises(EvalDomainError):
        eval_at(parse("exp(1000*x)"), (1.0, 0.0))
    # x*10^200*10^200 overflows to inf although 1/(...) comes out 0.0
    inf_under_finite = Pow(Mul((Var("x"), Rat(10 ** 200), Rat(10 ** 200))),
                           Fraction(-1))
    with pytest.raises(EvalDomainError):
        eval_at(inf_under_finite, (1.0, 0.0))
    # a rational too large for a float fails at every evaluation
    for text in ("10^400", "x + 10^400"):
        e = parse(text)
        for _ in range(2):
            with pytest.raises(EvalDomainError):
                eval_at(e, (1.0, 0.0))


def test_eval_matches_math_module():
    pts = [(0.3, 0.8), (1.2, -0.4), (-1.5, 0.9)]
    e = parse("sin(x)*cosh(y) + exp(x-y)/3")
    for (a, b) in pts:
        want = math.sin(a) * math.cosh(b) + math.exp(a - b) / 3
        assert eval_at(e, (a, b)) == pytest.approx(want, rel=1e-14)


# random trees over + * ^ and the functions, built from the node classes so
# that operand order is kept as drawn; some reuse a subtree as the same
# object, some as a structurally equal copy

def _eval_exprs(depth):
    leaf = st.one_of(
        st.sampled_from([Var("x"), Var("y"), Const("pi"), Const("e")]),
        st.fractions(min_value=-5, max_value=5, max_denominator=7).map(Rat),
    )
    if depth <= 0:
        return leaf
    sub = _eval_exprs(depth - 1)
    ops = st.lists(sub, min_size=2, max_size=4)
    exps = st.sampled_from([Fraction(n) for n in (2, 3, -1, -2)]
                           + [Fraction(1, 2), Fraction(-1, 2),
                              Fraction(3, 2), Fraction(1, 3)])

    def shared(t):
        a, b, deep = t
        a2 = copy.deepcopy(a) if deep else a
        return Add((Mul((a, b)), a2, Pow(a, Fraction(2))))

    return st.one_of(
        leaf,
        ops.map(Add),
        ops.map(Mul),
        st.tuples(sub, exps).map(lambda t: Pow(*t)),
        st.tuples(st.sampled_from(FUNCTIONS), sub).map(lambda t: Func(*t)),
        st.tuples(sub, sub, st.booleans()).map(shared),
    )


def _walked(e, pt):
    try:
        return tree_eval(e, pt[0], pt[1])
    except EvalDomainError:
        return "EvalDomainError"


def _compiled(e, pt):
    try:
        return eval_at(e, pt)
    except EvalDomainError:
        return "EvalDomainError"


_COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                    st.floats(min_value=-3.0, max_value=3.0))


@given(_eval_exprs(3), st.lists(st.tuples(_COORDS, _COORDS), min_size=1,
                                max_size=4),
       st.lists(_eval_exprs(2), max_size=2))
@settings(max_examples=300, deadline=None)
# signed zeros: 0.0 + (-0.0) + (-0.0) is 0.0, (-0.0) + (-0.0) is -0.0
@example(e=Add((Mul((Rat(-1), Var("x"))),) * 2), pts=[(0.0, 0.0)], others=[])
def test_eval_scaled_matches_tree_walk_bitwise(e, pts, others):
    # several roots in one function, the last sharing every other's nodes
    roots = (e, *others, Add((e, *others)))
    many = compile_float(*roots)
    for pt in pts:
        want = repr(_walked(e, pt))
        assert repr(_compiled(e, pt)) == want
        assert repr(_compiled(e, pt)) == want   # the cached evaluator
        singles = [_compiled(r, pt) for r in roots]
        try:
            got = many(*pt)
        except EvalDomainError:
            got = "EvalDomainError"
        if "EvalDomainError" in singles:
            assert got == "EvalDomainError"
        else:
            assert repr(got) == repr(tuple(singles))


def _outcome(f, pt):
    try:
        return repr(f(*pt))
    except EvalDomainError as exc:
        return f"EvalDomainError({exc})"


_EXTREMES = st.one_of(_COORDS, st.sampled_from(
    [math.inf, -math.inf, math.nan, 1e200, -1e200]))


@given(_eval_exprs(3), st.lists(_eval_exprs(2), max_size=2),
       st.lists(st.tuples(_EXTREMES, _EXTREMES), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
# an inf operand hidden by a function or a negative power
@example(e=parse("exp(-x)"), others=[], pts=[(math.inf, 0.0)])
@example(e=parse("x^(-1)"), others=[], pts=[(math.inf, 0.0)])
@example(e=parse("tanh(x)"), others=[], pts=[(math.inf, 0.0)])
@example(e=parse("y + x^(-1/2)"), others=[], pts=[(math.inf, math.nan)])
def test_finiteness_check_rejects_what_every_node_check_rejects(e, others,
                                                               pts):
    # the check reads the roots and the operands of functions and of
    # powers with exponent <= 0; the reference reads every node, and
    # returns their values T after the roots'
    roots = (e, *others)
    got, want = compile_float(*roots), compile_float_reference(*roots)
    for pt in pts:
        assert _outcome(got, pt) == _outcome(
            lambda x, y: want(x, y)[:-1], pt)


@pytest.mark.parametrize("text", ["exp(-x)", "x^(-1)", "tanh(x)"])
def test_non_finite_operand_hidden_by_parent_raises(text):
    for compiled in (compile_float, compile_float_reference):
        with pytest.raises(EvalDomainError) as exc:
            compiled(parse(text))(math.inf, 0.0)
        assert str(exc.value) == "non-finite value"


def test_generated_code_has_no_no_op_operation():
    # one pole check for the three negative powers of x; no 1.0 * head
    f = compile_float(parse("1/x + 1/x^2 + 1/x^3"))
    raises = [i.argval for i in dis.get_instructions(f)]
    # the pole check, the two exception handlers and the finiteness check
    assert raises.count("EvalDomainError") == 4
    g = compile_float(parse("x*y*sin(x)"))
    assert 1.0 not in g.__code__.co_consts
    assert math.copysign(1.0, g(0.5, -0.0)[0]) == -1.0


def test_compile_float_leaves_no_reference_cycle():
    # a cycle would keep every compiled node alive until the cyclic
    # collector runs, and so raise the peak memory of long runs
    e = parse("sin(x)*y + x^2/(1 + y^2)")
    roots = (e, diff(e, "x"))
    gc.disable()
    try:
        gc.collect()
        compile_float(*roots)(0.5, 0.25)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_first_evaluation_from_two_threads_agrees():
    e = parse("sin(x)/(1+x^2+y^2)^(3/2) + ln(2+y)*exp(x*y) - x^7*y^5/11")
    pt = (0.3, -0.7)
    barrier = threading.Barrier(2)
    got = []

    def first_eval():
        barrier.wait(30)
        got.append(eval_at(e, pt))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=first_eval) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    want = tree_eval(e, pt[0], pt[1])
    assert got == [want, want]
    assert eval_at(e, pt) == want


def test_long_sum_evaluates():
    # one Add of 3000 operands: a single chained expression that long is
    # deeper than the Python compiler recurses
    e = Add(tuple(Mul((Rat(k), Var("x"))) for k in range(1, 3001)))
    assert eval_at(e, (0.1, 0.0)) == tree_eval(e, 0.1, 0.0)


def test_evaluated_expression_pickles():
    e = parse("1/(1+x^2)")
    v = eval_at(e, (0.5, 0.0))
    e2 = pickle.loads(pickle.dumps(e))
    assert e2 == e
    assert eval_at(e2, (0.5, 0.0)) == v == 0.8


# --------------------------------------------------------------------------
# one derivative per normal form and variable, one normalization per factor

def test_diff_repeat_takes_no_derivative_again(monkeypatch):
    e = parse("sin(x)*y^2 + x/(1 + y^2)")
    dx = diff(e, "x")
    calls = []
    real = expr_mod._nf_diff

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(expr_mod, "_nf_diff", counted)
    # the derivative is kept on the normal form, so a repeated call, an
    # equal tree that shares it, or the normal form itself takes no
    # derivative again
    assert diff(e, Var("x")) == dx
    assert calls == []
    dy = diff(e, "y")
    assert calls and diff(e, "y") == dy and dx != dy
    n = len(calls)
    assert diff(simplify(e), "x") == dx
    assert nf_diff(to_nf(e), "y") is to_nf(dy)
    assert len(calls) == n
    fresh = parse("sin(x)*y^2 + x/(1 + y^2)")
    assert (dx, dy) == (diff(fresh, "x"), diff(fresh, "y"))


def test_first_diff_from_two_threads_agrees():
    text = "sin(x)/(1+x^2+y^2)^(3/2) + ln(2+y)*exp(x*y) - x^7*y^5/11"
    e = parse(text)
    barrier = threading.Barrier(2)
    got = []

    def first_diff():
        barrier.wait(30)
        got.append(diff(e, "x"))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=first_diff) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    want = diff(parse(text), "x")
    assert got == [want, want]
    assert diff(e, "x") == want


def test_differentiated_expression_pickles():
    # the normal forms cached on the nodes hold the atoms x and y as dict
    # keys, and x's holds x itself: the caches are not pickled
    e = parse("x*y^2/(1 + x^2)")
    dx = diff(e, "x")
    for node in (e, dx, simplify(e), parse("x")):
        to_nf(node)
        assert pickle.loads(pickle.dumps(node)) == node
    e2 = pickle.loads(pickle.dumps(e))
    assert diff(e2, "x") == dx and diff(e2, "y") == diff(e, "y")
    assert eval_at(diff(e2, "x"), (0.5, 0.25)) == eval_at(dx, (0.5, 0.25))


def test_diff_leaves_no_reference_cycle():
    # the derivative kept on a normal form must not lead back to it, nor a
    # node's cached normal form to the node, or every normalized node
    # would wait for the cyclic collector
    e = parse("sin(x)*y + x^2/(1 + y^2)")
    gc.disable()
    try:
        gc.collect()
        diff(e, "x")
        diff(diff(e, "x"), "y")
        assert gc.collect() == 0
        to_nf(parse("x"))
        assert gc.collect() == 0
        simplify(parse("exp(x*y)"))
        assert gc.collect() == 0
        diff(simplify(parse("exp(x*y)")), "x")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_diff_multiplies_by_no_one(monkeypatch):
    # b' = 1 for b the variable, and a quotient with one live compound
    # denominator base: neither is a product with one
    real = expr_mod.nf_mul

    def no_one(a, b):
        assert a is not expr_mod._NF_ONE and b is not expr_mod._NF_ONE
        return real(a, b)
    e = parse("x^2*y + 1/(1 + x^2)")
    monkeypatch.setattr(expr_mod, "nf_mul", no_one)
    got = to_nf(diff(e, "x"))
    monkeypatch.undo()
    _assert_same_nf(got, nf_diff_reference(to_nf(e), "x"))


def test_product_normalizes_once_per_factor_after_the_first(monkeypatch):
    # factors whose own normal forms need no normalization: a product of
    # k of them is k - 1 normalizations, none of them a product with one
    def factors():
        return [Rat(3), Var("x"), Var("y"), Func("sin", Var("x")), Const("pi")]
    calls = []
    real = expr_mod._mk_nf

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(expr_mod, "_mk_nf", counted)
    to_nf(Mul(factors()))
    assert len(calls) == 4
    calls.clear()
    # an integer power of a product: k powers and k - 1 products
    to_nf(Pow(Mul(factors()), Fraction(2)))
    assert len(calls) == 9


def test_compound_base_expression_built_once():
    ((b, _),) = to_nf(parse("x/(1 + x^2)")).den
    assert expr_mod._base_expr(b) is expr_mod._base_expr(b)
    assert expr_mod._base_expr(b) == parse("1 + x^2")


# --------------------------------------------------------------------------
# tri-state zero test

def test_is_zero_on_structural_zero():
    v = is_zero(parse("x*y - y*x"), BOX)
    assert v.is_zero and v.method == "symbolic"


def test_is_zero_numeric_identity():
    # an identity beyond the normal form: no evaluation proves it, and
    # every enclosure holds 0
    v = is_zero(parse("sin(x)^2 + cos(x)^2 - 1"), BOX)
    assert v.is_unknown


def test_is_zero_nonzero_with_witness():
    # rational: the first probe point, on the 1/1024 grid, is the witness,
    # and the value is exact there
    v = is_zero(parse("x"), BOX)
    assert v.is_nonzero and v.method == "exact"
    assert BOX.contains(v.witness)
    assert v.witness[0] * 1024 == int(v.witness[0] * 1024)
    assert v.value == v.witness[0] != 0
    # not rational: the first grid point is the witness, where the
    # enclosure excludes 0, however small the value
    for text, c in (("e*x", math.e), ("e*x/10^12", math.e / 10 ** 12)):
        v = is_zero(parse(text), BOX)
        assert v.is_nonzero and v.method == "enclosure"
        assert BOX.contains(v.witness)
        assert v.witness[0] * 1024 == int(v.witness[0] * 1024)
        assert v.value == pytest.approx(c * v.witness[0], rel=1e-15)


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
    # undefined on the whole box: no point proves a value
    v = is_zero(parse("sqrt(-1-x^2)"), BOX)
    assert v.is_unknown


def test_is_zero_scale_aware():
    # huge cancellation: (x+1e8)^2 - x^2 - 2e8 x - 1e16 is identically 0,
    # and so is its normal form; naive float evaluation leaves ~1e0 noise
    e = parse("(x+100000000)^2 - x^2 - 200000000*x - 10000000000000000")
    v = is_zero(e, BOX)
    assert v.is_zero


def test_zero_test_budget_charges_only_its_own_thread(monkeypatch):
    # a worker's normalization exhausts its term budget and blocks
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
    assert repr(verdicts[0]) == "Unknown(over the term budget)"
    assert s == simplify(parse("(1+x)^3*(2+y)^2"))


def test_zero_test_config_rejects_no_seeds():
    # with no seed no probe point can be drawn
    with pytest.raises(ValueError):
        ZeroTestConfig(seeds=())


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
