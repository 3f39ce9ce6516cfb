"""Exact evaluation of rational normal forms, and the zero tests that read
them: a rational normal form is decided exactly, never probed in floats."""

import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cubint.exact import NotRationalError, nf_at
from cubint.expr import (X, Y, Box, EvalDomainError, Pow, ZeroTestConfig,
                         eval_at, eval_scaled, is_zero, parse, to_nf)
from oracles import unpack

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
    try:
        v, scale = eval_scaled(e, (float(x), float(y)))
    except EvalDomainError:
        return
    # the tree need not be the normal form's shape, so its float value
    # holds to rounding on the size of its nodes
    assert abs(v - float(want)) <= 1e-9 * scale


@pytest.mark.parametrize("text", [
    "exp(x)", "pi*x", "x + e", "sqrt(1 + x^2)", "x^(1/2)", "1/(1 + exp(y))",
    "sin(x)/(1 + x^2)", "2^(1/2)*x"])
def test_exact_value_rejects_other_bases(text):
    with pytest.raises(NotRationalError):
        nf_at(to_nf(parse(text)), 1, 2)


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
def test_rational_zero_test_is_exact(e, box, n_probes, seeds):
    try:
        nf = to_nf(pickle.loads(pickle.dumps(e)))
    except ZeroDivisionError:
        return
    v = is_zero(e, box, ZeroTestConfig(n_probes, seeds))
    assert repr(v) != "Zero(probed)"
    assert v.is_zero == nf.is_zero()
    if v.is_zero:
        assert v.method == "symbolic"
    if not v.is_nonzero:
        return
    assert v.method == "exact"
    assert box.contains(v.witness)
    exact = nf_at(nf, *map(Fraction, v.witness))
    assert exact != 0 and v.value == float(exact)
    try:
        f, scale = eval_scaled(e, v.witness)
    except EvalDomainError:
        return
    assert abs(f - v.value) <= 1e-9 * scale


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
