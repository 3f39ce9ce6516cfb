"""The one evaluator of normal forms, and the zero tests that read it: a
rational normal form is decided on its exact value, any other on proved
enclosures, and only a zero normal form is Zero."""

import math
import operator
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cubint.exact import nf_at
from cubint.expr import (X, Y, Box, Const, EvalDomainError, Func, Pow, Rat,
                         ZeroTestConfig, eval_at, is_zero, nf_is_zero, parse,
                         to_nf)
from oracles import tree_eval, unpack

BOX = Box(-2.0, 2.0, -2.0, 2.0)


def _rational_exprs(depth):
    """Random rational functions of x and y: sums, products, quotients and
    integer powers over rational leaves of both signs."""
    leaf = st.one_of(
        st.sampled_from(["x", "y", "1", "-1", "2", "1/3", "-5/7"]).map(parse),
        st.fractions(-5, 5, max_denominator=7).map(lambda v: parse(str(v))))
    if depth <= 0:
        return leaf
    sub = _rational_exprs(depth - 1)

    def combine(args):
        op, a, b = args
        try:
            return {"+": operator.add, "-": operator.sub,
                    "*": operator.mul, "/": operator.truediv}[op](a, b)
        except ZeroDivisionError:
            return a

    def power(t):
        base, n = t
        try:
            return Pow(base, Fraction(n))
        except ZeroDivisionError:
            return base

    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(combine),
        st.tuples(sub, st.sampled_from([2, 3, -1, -2])).map(power))


def _nf_value_reference(nf, x, y):
    """content * num / den of nf at (x, y), term by term in Fractions, the
    compound denominator bases from their own rational coefficients."""
    def poly(items):
        s = Fraction(0)
        for m, c in items:
            t = Fraction(c)
            for b, e in unpack(m):
                t *= (x if b is X else y) ** e
            s += t
        return s
    d = Fraction(1)
    for b, e in nf.den:
        d *= (x if b is X else y if b is Y else poly(b.fp)) ** e
    return nf.content * poly(nf.num.items()) / d


_POINTS = st.fractions(-3, 3, max_denominator=50)


@given(_rational_exprs(3), _POINTS, _POINTS)
@settings(max_examples=200, deadline=None)
@example(parse("(x^2 + y)/(3*(1 + x^2)*y)"), Fraction(1, 2), Fraction(2))
def test_exact_value_matches_reference(e, x, y):
    try:
        nf = to_nf(e)
    except ZeroDivisionError:
        return
    try:
        want = _nf_value_reference(nf, x, y)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            nf_at(nf, x, y)
        return
    got = nf_at(nf, x, y)
    assert got == want and type(got) is Fraction
    acc = [0.0]
    try:
        v = tree_eval(e, float(x), float(y), acc)
    except EvalDomainError:
        return
    scale = acc[0]
    # the tree need not be the normal form's shape, so its float value
    # holds to rounding on the size of its nodes
    assert abs(v - float(want)) <= 1e-9 * scale


@pytest.mark.parametrize("text", [
    "exp(x)", "pi*x", "x + e", "sqrt(1 + x^2)", "x^(1/2)", "1/(1 + exp(y))",
    "sin(x)/(1 + x^2)", "2^(1/2)*x"])
def test_exact_value_rejects_other_bases(text):
    # no exact value: an enclosure (lo, hi) of the value, even where the
    # value is rational (x^(1/2) at x = 1)
    got = nf_at(to_nf(parse(text)), 1, 2)
    assert type(got) is tuple
    lo, hi = got
    assert lo <= hi < lo + Fraction(1, 10 ** 30)
    assert abs(Fraction(eval_at(parse(text), (1.0, 2.0))) - lo) < 1e-12


def test_exact_value_at_a_pole_raises():
    with pytest.raises(ZeroDivisionError):
        nf_at(to_nf(parse("y/(x - 1)")), 1, 2)
    assert nf_at(to_nf(parse("y/(x - 1)")), 3, Fraction(1, 2)) == Fraction(1, 4)


# boxes of every width, down to far below the 1/1024 grid
_BOXES = st.builds(
    lambda x0, w, y0, h: Box(x0, x0 + w, y0, y0 + h),
    st.floats(-3.0, 3.0), st.floats(1e-6, 4.0),
    st.floats(-3.0, 3.0), st.floats(1e-6, 4.0))


@given(_rational_exprs(3), _BOXES, st.integers(1, 16),
       st.lists(st.integers(0, 2 ** 32), min_size=1, max_size=3))
@settings(max_examples=200, deadline=None)
@example(parse("x - x"), BOX, 4, [1])
@example(parse("x"), Box(-1e-4, 1e-4, 0.0, 1.0), 16, [1])
# the witness is the box's tiny lower end, where 1/x^2 exceeds the floats
@example(parse("1/x^2"), Box(4e-291, 4e-291 + 1e-6, 0.0, 1.0), 1, [0])
def test_rational_zero_test_is_exact(e, box, n_probes, seeds):
    try:
        nf = to_nf(pickle.loads(pickle.dumps(e)))
    except ZeroDivisionError:
        return
    v = is_zero(e, box, ZeroTestConfig(n_probes, seeds))
    assert v.is_zero == nf.is_zero()
    if v.is_zero:
        assert v.method == "symbolic"
    if not v.is_nonzero:
        return
    assert v.method == "exact"
    assert box.contains(v.witness)
    exact = nf_at(nf, *map(Fraction, v.witness))
    assert exact != 0
    # beyond the float range the value is an infinity of the exact sign
    try:
        assert v.value == float(exact)
    except OverflowError:
        assert v.value == (math.inf if exact > 0 else -math.inf)
    acc = [0.0]
    try:
        f = tree_eval(e, *v.witness, acc)
    except EvalDomainError:
        return
    assert abs(f - v.value) <= 1e-9 * acc[0]


def test_zero_test_below_the_grid_is_unknown_not_zero():
    # every probe point of this box rounds to x = 0, a zero of x
    v = is_zero(parse("x"), Box(-1e-4, 1e-4, 0.0, 1.0))
    assert v.is_unknown
    assert "vanishes at all 64" in v.reason
    # a box narrower than the grid keeps its witnesses inside it
    box = Box(0.1, 0.1 + 1e-4, 0.3, 0.3 + 1e-4)
    v = is_zero(parse("x - y"), box)
    assert v.is_nonzero and box.contains(v.witness)


def test_zero_test_beyond_the_float_range():
    # the exact value overflows a float: NonZero, its value an infinity
    v = is_zero(parse("10^400*x"), BOX)
    assert v.is_nonzero and v.method == "exact"
    assert math.isinf(v.value) and (v.value > 0) == (v.witness[0] > 0)
    with pytest.raises(EvalDomainError):
        eval_at(parse("10^400*x"), v.witness)


# 40-digit values of each atom kind, from an independent 60-digit
# evaluation (mpmath); arguments as large as |x| >= 10 test the reduction
# of sin and cos
ATOMS = [
    ("sin(x)", "1/3", "3.271946967961522441733440852676206060643e-1"),
    ("sin(x)", "-7/5", "-9.854497299884601806594745788060975173563e-1"),
    ("sin(x)", "25/2", "-6.632189735120068892940981986345942727351e-2"),
    ("sin(x)", "-1000/7", "9.96362210699743508387341255312638065249e-1"),
    ("cos(x)", "1/3", "9.449569463147376643882840076758806078459e-1"),
    ("cos(x)", "-7/5", "1.699671429002409386167480352036498029282e-1"),
    ("cos(x)", "25/2", "9.97798279178580663802566202824547525377e-1"),
    ("cos(x)", "-1000/7", "-8.521939385797063160444993687697072759972e-2"),
    ("tan(x)", "1/3", "3.462535495105754910385435656097407745957e-1"),
    ("tan(x)", "-7/5", "-5.797883715482889643707720243603699045994"),
    ("tan(x)", "25/2", "-6.646824186327419610199266949441387194391e-2"),
    ("tan(x)", "-1000/7", "-1.169173078560395122403098520305944486561e+1"),
    ("exp(x)", "1/3", "1.395612425086089528628125319602586837598"),
    ("exp(x)", "-7/5", "2.465969639416064769398612398337676330643e-1"),
    ("exp(x)", "25/2", "2.683372865208744569564796737871504027258e+5"),
    ("exp(x)", "-25/2", "3.726653172078670992924851475950426180337e-6"),
    ("ln(x)", "1/3", "-1.098612288668109691395245236922525704647"),
    ("ln(x)", "25/2", "2.525728644308255439784286544994198710976"),
    ("ln(x)", "1000/7", "4.961845129926823746948621620609912893166"),
    ("sinh(x)", "1/3", "3.395405572561501391012606113386035850724e-1"),
    ("sinh(x)", "-7/5", "-1.904301501451534055142123827697426309552"),
    ("sinh(x)", "25/2", "1.341686432585739018922005013971127756249e+5"),
    ("sinh(x)", "-25/2", "-1.341686432585739018922005013971127756249e+5"),
    ("cosh(x)", "1/3", "1.056071867829939389526864708263983252526"),
    ("cosh(x)", "-7/5", "2.150898465393140532081985067531193942616"),
    ("cosh(x)", "25/2", "1.341686432623005550642791723900376271009e+5"),
    ("tanh(x)", "1/3", "3.215127375316343447194062224252064660053e-1"),
    ("tanh(x)", "-7/5", "-8.853516482022625075834176520255739294557e-1"),
    ("tanh(x)", "25/2", "9.999999999722241122704577087802638987905e-1"),
    ("tanh(x)", "-25/2", "-9.999999999722241122704577087802638987905e-1"),
    ("sqrt(x)", "1/3", "5.773502691896257645091487805019574556476e-1"),
    ("sqrt(x)", "25/2", "3.535533905932737622004221810524245196424"),
    ("sqrt(x)", "1000/7", "1.195228609334393639968817179693124984847e+1"),
    ("pi", "0", "3.141592653589793238462643383279502884197"),
    ("e", "0", "2.718281828459045235360287471352662497757"),
    ("2^(1/3)", "0", "1.25992104989487316476721060727822835057"),
]


@pytest.mark.parametrize("text, x, want", ATOMS)
def test_enclosure_holds_the_reference_value(text, x, want):
    lo, hi = nf_at(to_nf(parse(text)), Fraction(x), 0)
    # the reference is rounded in its 40th digit
    d = Decimal(want)
    ulp = Fraction(10) ** (d.adjusted() - 39)
    ref = Fraction(d)
    assert lo <= ref + ulp and ref - ulp <= hi
    # and the enclosure is tight: 2^-128 steps, not float rounding
    assert hi - lo < Fraction(1, 10 ** 30) * max(1, abs(ref))


# function, radical and constant atoms over small polynomials in x and y;
# sums, products and quotients of them, and identities that the normal
# form does not see
_POLYS = st.sampled_from(["x", "y", "x*y", "1 + x^2", "x - y/3", "2*y + 1/5",
                          "1 + x^2 + y^2"]).map(parse)
_ATOMS = st.one_of(
    st.builds(Func, st.sampled_from(["exp", "sin", "cos"]), _POLYS),
    st.builds(Pow, _POLYS, st.sampled_from(
        [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)])),
    st.sampled_from([Const("pi"), Const("e"), parse("2^(1/2)")]),
    _POLYS.map(lambda u: parse("sin(u)^2 + cos(u)^2 - 1".replace(
        "u", "(%s)" % u))),
    st.fractions(-3, 3, max_denominator=5).map(Rat))


def _combined(depth):
    if depth <= 0:
        return _ATOMS

    def combine(args):
        op, a, b = args
        try:
            return {"+": operator.add, "-": operator.sub,
                    "*": operator.mul, "/": operator.truediv}[op](a, b)
        except ZeroDivisionError:
            return a
    sub = _combined(depth - 1)
    return st.one_of(sub, st.tuples(st.sampled_from("+-*/"), sub, sub)
                     .map(combine))


@given(_combined(2))
@settings(max_examples=150, deadline=None)
@example(parse("sin(x)^2 + cos(x)^2 - 1"))
@example(parse("e*x/10^12"))
@example(parse("2^(1/2)*3^(1/2) - 6^(1/2)"))
def test_zero_only_from_a_zero_normal_form(e):
    box = Box(0.1, 1.5, -1.0, 1.0)
    try:
        nf = to_nf(pickle.loads(pickle.dumps(e)))
    except (ZeroDivisionError, EvalDomainError):
        return
    v = is_zero(e, box)
    assert v.is_zero == nf_is_zero(e) == nf.is_zero()
    if not v.is_nonzero:
        return
    got = nf_at(nf, *map(Fraction, v.witness))
    if type(got) is tuple:
        assert v.method == "enclosure"
        lo, hi = got
        assert lo > 0 or hi < 0
    else:
        assert v.method == "exact" and got != 0
    acc = [0.0]
    try:
        f = tree_eval(e, *v.witness, acc)
    except EvalDomainError:
        return
    assert abs(f - v.value) <= 1e-9 * max(acc[0], abs(v.value))
