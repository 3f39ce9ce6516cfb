import random

import pytest
from hypothesis import given, settings, strategies as st

from cubint.cnum import (
    CExpr, Z, ZBAR, c_one, is_holomorphic, parse_complex, wirtinger_z,
    wirtinger_zbar,
)
from cubint.expr import Box, parse, simplify, to_str


BOX = Box(-1.5, 1.5, -1.5, 1.5)


def _cstr(c):
    s = c.simplified()
    return (to_str(s.re), to_str(s.im))


def test_arithmetic_matches_python_complex():
    rng = random.Random(31)
    a = parse_complex("x^2 - y", "x*y + 1")
    b = parse_complex("sin(x)", "cos(y)")
    for _ in range(10):
        pt = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        za, zb = a.eval_at(pt), b.eval_at(pt)
        assert (a + b).eval_at(pt) == pytest.approx(za + zb)
        assert (a - b).eval_at(pt) == pytest.approx(za - zb)
        assert (a * b).eval_at(pt) == pytest.approx(za * zb)
        assert (a / b).eval_at(pt) == pytest.approx(za / zb)
        assert a.conj().eval_at(pt) == pytest.approx(za.conjugate())
        assert (a ** 3).eval_at(pt) == pytest.approx(za ** 3)


def test_powers_of_z():
    z3 = Z() ** 3
    want_re = simplify(parse("x^3 - 3*x*y^2"))
    want_im = simplify(parse("3*x^2*y - y^3"))
    s = z3.simplified()
    assert s.re == want_re and s.im == want_im


def test_division_rationalizes():
    q = c_one() / Z()
    # 1/z = zbar/|z|^2
    assert _cstr(q * Z()) != None  # noqa: E711 - just must not raise
    pt = (0.7, -0.4)
    assert q.eval_at(pt) == pytest.approx(1 / complex(0.7, -0.4))


def test_division_by_symbolic_zero_rejected():
    z = CExpr(parse("x - x"), parse("y - y"))
    with pytest.raises(ZeroDivisionError):
        c_one() / z


def test_wirtinger_z_on_powers():
    # d/dz z^n = n z^(n-1), d/dzbar z^n = 0
    for n in (1, 2, 3, 4):
        zn = Z() ** n
        dz = wirtinger_z(zn)
        want = (n * (Z() ** (n - 1))).simplified()
        assert _cstr(dz) == _cstr(want), n
        dzb = wirtinger_zbar(zn)
        assert _cstr(dzb) == ("0", "0"), n


def test_wirtinger_zbar_on_antiholomorphic():
    zb = ZBAR()
    assert _cstr(wirtinger_zbar(zb)) == ("1", "0")
    assert _cstr(wirtinger_z(zb)) == ("0", "0")


def test_wirtinger_on_modulus_squared():
    # |z|^2 = z zbar: d/dz -> zbar, d/dzbar -> z
    m = CExpr(parse("x^2 + y^2"), parse("0"))
    assert _cstr(wirtinger_z(m)) == ("x", "-y")
    assert _cstr(wirtinger_zbar(m)) == ("x", "y")


def test_wirtinger_product_rule():
    a = parse_complex("x^2 - y^2", "2*x*y")
    b = parse_complex("sin(x)*cosh(y)", "cos(x)*sinh(y)")
    lhs = wirtinger_z(a * b)
    rhs = wirtinger_z(a) * b + a * wirtinger_z(b)
    assert (lhs - rhs).is_zero(BOX).is_zero


def test_complex_step_oracle():
    # numeric Wirtinger: dz f ~ (f(z+h) - f(z-h))/(2h) along real h plus
    # -i/2 * d/dy; check against the symbolic operator on a mixed function
    f = parse_complex("exp(x)*cos(y) + x*y", "x^2 - y")
    df = wirtinger_z(f)
    h = 1e-6
    rng = random.Random(9)
    for _ in range(8):
        x0, y0 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        fx = (f.eval_at((x0 + h, y0)) - f.eval_at((x0 - h, y0))) / (2 * h)
        fy = (f.eval_at((x0, y0 + h)) - f.eval_at((x0, y0 - h))) / (2 * h)
        want = 0.5 * (fx - 1j * fy)
        got = df.eval_at((x0, y0))
        assert got == pytest.approx(want, rel=1e-5, abs=1e-7)


def test_is_holomorphic_examples():
    # exp(z) = exp(x)cos(y) + i exp(x)sin(y)
    ez = parse_complex("exp(x)*cos(y)", "exp(x)*sin(y)")
    assert is_holomorphic(ez, BOX).is_zero
    assert is_holomorphic(Z() ** 3, BOX).is_zero
    v = is_holomorphic(ZBAR(), BOX)
    assert v.is_nonzero
    m = CExpr(parse("x^2 + y^2"), parse("0"))
    assert is_holomorphic(m, BOX).is_nonzero


@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4),
       st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_holomorphic_polynomials_pass_cr(n, m, cr, ci):
    # c1 z^n + c2 z^m is holomorphic for any complex constants
    c = CExpr(parse(str(cr)), parse(str(ci)))
    p = c * (Z() ** n) + (Z() ** m) * CExpr(parse(str(ci)), parse(str(cr)))
    assert not is_holomorphic(p, BOX).is_nonzero


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_mixed_z_zbar_fails_cr(n, m):
    p = (Z() ** n) * (ZBAR() ** m)
    assert is_holomorphic(p, BOX).is_nonzero
