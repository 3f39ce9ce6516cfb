import csv
import os
import random

import pytest

from cubint import verify
from hypothesis import given, settings, strategies as st

from cubint import expr
from cubint.expr import (Box, EvalDomainError, Rat, nf_is_zero, parse,
                         simplify, to_str)
from cubint.geometry import general_metric, isothermal_metric, null_metric
from cubint.verify import (
    MomentumPoly, bracket_FH, bracket_certificate, canonical_bracket,
    canonical_bracket_FH, certificate_all_zero, conservation_report,
    hamiltonian_poly, homogeneous_components, integrate_geodesic,
)
from oracles import (canonical_bracket_reference, momentum_poly_reference,
                     poisson_bracket_canonical, rk4_reference)


BOX = Box(-0.9, 0.9, -0.9, 0.9)


# --------------------------------------------------------------------------
# momentum polynomial algebra

def test_momentum_poly_product():
    a = MomentumPoly({(1, 0): parse("1"), (0, 1): parse("1")})   # px + py
    b = MomentumPoly({(1, 0): parse("1"), (0, 1): parse("-1")})  # px - py
    p = a * b
    assert set(p.coeffs) == {(2, 0), (0, 2)}
    assert to_str(p.coeffs[(2, 0)]) == "1"
    assert to_str(p.coeffs[(0, 2)]) == "-1"


def test_momentum_poly_drops_zero_coefficients():
    p = MomentumPoly({(1, 1): parse("x - x"), (2, 0): parse("y")})
    assert set(p.coeffs) == {(2, 0)}
    q = p - p
    assert q.is_trivial()


def test_homogeneous_components():
    p = MomentumPoly({(3, 0): parse("1"), (1, 2): parse("x"),
                      (1, 0): parse("y"), (0, 0): parse("2")})
    comps = homogeneous_components(p)
    assert set(comps) == {0, 1, 3}
    assert set(comps[3].coeffs) == {(3, 0), (1, 2)}
    assert set(comps[1].coeffs) == {(1, 0)}


# --------------------------------------------------------------------------
# canonical bracket against the finite-difference oracle

def _poly_fn(p):
    return momentum_poly_reference(p)


def test_bracket_matches_fd_oracle():
    f = MomentumPoly({(3, 0): parse("sin(x)*y"), (1, 1): parse("x^2"),
                      (0, 1): parse("y")})
    h = MomentumPoly({(2, 0): parse("1+x^2"), (0, 2): parse("1/(1+y^2)"),
                      (0, 0): parse("x*y")})
    br = canonical_bracket(f, h)
    fb, hb, brb = _poly_fn(f), _poly_fn(h), _poly_fn(br)
    rng = random.Random(4)
    for _ in range(12):
        x, y = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
        px, py = rng.uniform(-1, 1), rng.uniform(-1, 1)
        want = poisson_bracket_canonical(fb, hb, x, y, px, py)
        got = brb(x, y, px, py)
        assert abs(got - want) <= 1e-7 * (1 + abs(want))


def test_bracket_antisymmetry_and_h_self():
    m = isothermal_metric("1+x^2+y^2")
    h = hamiltonian_poly(m)
    f = MomentumPoly({(2, 0): parse("x"), (1, 1): parse("y^2")})
    a = canonical_bracket(f, h)
    b = canonical_bracket(h, f)
    assert (a + b).is_trivial()
    assert canonical_bracket(h, h).is_trivial()


def test_bracket_leibniz():
    f = MomentumPoly({(1, 0): parse("x")})
    g = MomentumPoly({(0, 1): parse("y")})
    h = MomentumPoly({(2, 0): parse("1+x^2"), (0, 2): parse("1")})
    lhs = canonical_bracket(f * g, h)
    rhs = canonical_bracket(f, h) * g + f * canonical_bracket(g, h)
    assert (lhs - rhs).is_trivial()


# --------------------------------------------------------------------------
# canonical bracket on normal forms against the tree algebra it replaced

_COEF = st.sampled_from(["1", "-1", "1/2", "-1/3", "2/3", "3"])
_TERM = st.tuples(_COEF, st.sampled_from(["1", "x", "y", "x*y", "x^2", "y^2"]))
_CUBIC_KEYS = ((3, 0), (2, 1), (1, 2), (0, 3))


def _lane_metric(lane, c):
    lam = "1 + (%s)*x^2 + (%s)*y^2 + (%s)*x" % tuple(c[:3])
    if lane == "iso":
        return isothermal_metric(lam)
    if lane == "null":
        return null_metric(lam)
    return general_metric(lam, "(%s)*x*y" % c[3], "2 + (%s)*y^2" % c[4])


@pytest.mark.parametrize("lane", ["iso", "null", "general"])
@given(st.lists(_COEF, min_size=5, max_size=5),
       st.lists(_TERM, min_size=14, max_size=14), st.booleans())
@settings(max_examples=8, deadline=None)
def test_canonical_bracket_matches_tree_reference(lane, c, terms, cubic):
    m = _lane_metric(lane, c)
    keys = _CUBIC_KEYS if cubic else _CUBIC_KEYS + ((1, 1), (0, 1), (0, 0))
    f = {k: parse("(%s)*%s + (%s)*%s" % (*terms[2 * n], *terms[2 * n + 1]))
         for n, k in enumerate(keys)}
    i11, i12, i22 = m.inv
    h = {(2, 0): Rat(1, 2) * i11, (1, 1): i12, (0, 2): Rat(1, 2) * i22}
    got = canonical_bracket_FH(m, MomentumPoly(f)).coeffs
    want = canonical_bracket_reference(f, h)
    for k in set(got) | set(want):
        assert nf_is_zero(got.get(k, Rat(0)) - want.get(k, Rat(0))), k


@pytest.mark.parametrize("metric", [
    lambda: isothermal_metric("1 + x^2 + y^2/2"),
    lambda: general_metric("1 + x^2", "x*y/4", "2 + y^2"),
], ids=["iso", "general"])
def test_canonical_bracket_builds_one_tree_per_coefficient(monkeypatch, metric):
    # each coefficient is one nf_sum of normal-form products; no tree is
    # built for a derivative, a product or a partial sum
    h = hamiltonian_poly(metric())
    f = MomentumPoly({(3, 0): parse("x"), (2, 1): parse("y^2"),
                      (0, 3): parse("1 + x*y")})
    real = expr.nf_to_expr
    built = []

    def counted(nf):
        built.append(nf)
        return real(nf)
    monkeypatch.setattr(expr, "nf_to_expr", counted)
    monkeypatch.setattr(verify, "nf_to_expr", counted, raising=False)
    br = canonical_bracket(f, h)
    assert len(br.coeffs) == 5
    assert len(built) == 5


# --------------------------------------------------------------------------
# geodesic-flow first integrals: symbolic certificates

def test_flat_momenta_are_integrals():
    m = isothermal_metric("1")
    for f in (MomentumPoly({(1, 0): parse("1")}),
              MomentumPoly({(0, 3): parse("1")}),
              MomentumPoly({(2, 1): parse("1")})):
        assert bracket_FH(m, f).is_trivial()


def test_sphere_rotational_momentum_is_integral():
    # L = x py - y px generates rotations of the round sphere
    m = isothermal_metric("4/(1+x^2+y^2)^2")
    L = MomentumPoly({(0, 1): parse("x"), (1, 0): parse("-y")})
    br = bracket_FH(m, L)
    for k, c in br.coeffs.items():
        assert nf_is_zero(c), (k, to_str(c))


def test_killing_cubic_certificate():
    # lambda independent of y conserves py, hence py^3
    m = isothermal_metric("1+x^2")
    f = MomentumPoly({(0, 3): parse("1")})
    cert = bracket_certificate(m, f, BOX)
    assert certificate_all_zero(cert)
    assert bracket_FH(m, f).is_trivial()


def test_nonintegral_has_nonzero_certificate():
    m = isothermal_metric("1+x^2+y^4")
    f = MomentumPoly({(3, 0): parse("1")})
    cert = bracket_certificate(m, f, Box(0.2, 1.0, 0.2, 1.0))
    assert not certificate_all_zero(cert)
    assert any(v.is_nonzero for v in cert.values())


def test_null_metric_momentum_integral():
    # g = lambda(x) dx dy: H = 2 px py / lambda depends only on x, so py
    # and py^3 are conserved
    m = null_metric("1+x^2")
    h = hamiltonian_poly(m)
    assert to_str(simplify(h.coeffs[(1, 1)] - parse("2/(1+x^2)"))) == "0"
    f = MomentumPoly({(0, 3): parse("1")})
    assert bracket_FH(m, f).is_trivial()


# --------------------------------------------------------------------------
# structured first-order bracket route vs the canonical oracle

def _rand_quad(rng):
    parts = [f"{rng.randint(-3, 3)}*{mon}"
             for mon in ("1", "x", "y", "x*y", "x^2", "y^2")]
    return parse(" + ".join(parts))


def _rand_cubic(rng):
    return MomentumPoly({(3, 0): _rand_quad(rng), (2, 1): _rand_quad(rng),
                         (1, 2): _rand_quad(rng), (0, 3): _rand_quad(rng)})


def test_structured_iso_matches_canonical():
    rng = random.Random(21)
    for _ in range(4):
        lam = simplify(parse("1 + (x^2+y^2)/3") + _rand_quad(rng) * Rat(1, 9))
        m = isothermal_metric(lam)
        f = _rand_cubic(rng)
        d = bracket_FH(m, f) - canonical_bracket_FH(m, f)
        for k, c in d.coeffs.items():
            assert nf_is_zero(c), (k, to_str(c))


def test_structured_null_matches_canonical():
    rng = random.Random(22)
    for _ in range(4):
        lam = simplify(parse("2 + x^2/4") + _rand_quad(rng) * Rat(1, 5))
        m = null_metric(lam)
        f = _rand_cubic(rng)
        d = bracket_FH(m, f) - canonical_bracket_FH(m, f)
        for k, c in d.coeffs.items():
            assert nf_is_zero(c), (k, to_str(c))


def test_bracket_FH_falls_back_for_noncubic_and_general_charts():
    m = isothermal_metric("1+x^2")
    f = MomentumPoly({(1, 0): parse("y"), (0, 1): parse("-x")})
    assert (bracket_FH(m, f) - canonical_bracket_FH(m, f)).is_trivial()
    g = general_metric("1+x^2", "x*y/4", "2+y^2")
    f3 = MomentumPoly({(3, 0): parse("x"), (0, 3): parse("y")})
    assert (bracket_FH(g, f3) - canonical_bracket_FH(g, f3)).is_trivial()


def test_bracket_FH_accepts_symmetric_tensor():
    from cubint.tensorcoords import SymTensor3
    m = isothermal_metric("1+x^2")
    t = SymTensor3((parse("0"), parse("0"), parse("0"), parse("1")))
    assert bracket_FH(m, t).is_trivial()
    assert bracket_FH(m, t) == bracket_FH(m, t.to_momentum_poly())


# --------------------------------------------------------------------------
# RK4 geodesic flow

@pytest.mark.parametrize("metric, state", [
    (isothermal_metric("4/(1+x^2+y^2)^2"), (0.1, 0.2, 0.3, -0.1)),
    (general_metric("1 + x^2", "0", "1 + x^2"), (0.1, 0.2, 0.3, -0.1)),
    (isothermal_metric("1 + x^2 + y^2"), (0.1, 0.2, 0.3, -0.1)),
    (isothermal_metric("1 + x^2"), (0.1, 0.2, 0.3, -0.1)),
    (null_metric("1 + x^2"), (0.1, 0.2, 0.3, -0.1)),
    (isothermal_metric("1/y^2"), (0.1, 1.2, 0.3, -0.1)),
    (isothermal_metric("1"), (0.1, 0.2, 0.3, -0.1)),
], ids=["sphere", "general-1+x^2", "iso-1+x^2+y^2", "iso-1+x^2",
        "null-1+x^2", "iso-1/y^2", "flat"])
def test_geodesic_matches_closure_rk4_bitwise(metric, state):
    # the right-hand side runs on compiled straight-line code and the
    # step on scalar state; the reference evaluates each coefficient by a
    # walk of closures and steps on tuples
    got = integrate_geodesic(metric, state, 1e-3, 300)
    want = rk4_reference(metric, state, 1e-3, 300)
    assert [tuple(map(repr, p)) for p in got] == \
        [tuple(map(repr, p)) for p in want]


def test_geodesic_aborts_on_non_finite_state():
    # flat: every coefficient evaluates, but the first step overflows
    with pytest.raises(EvalDomainError) as exc:
        integrate_geodesic(isothermal_metric("1"), (0.0, 0.0, 1e308, 0.0),
                           10.0, 3)
    assert str(exc.value) == "non-finite state at t = 10"


def test_geodesic_aborts_on_non_finite_hidden_by_exp():
    # x*y overflows to inf at the start, and exp(-inf) = 0 is finite
    with pytest.raises(EvalDomainError) as exc:
        integrate_geodesic(isothermal_metric("1 + exp(-x*y)"),
                           (1e200, 1e200, 0.1, 0), 1e-3, 3)
    assert str(exc.value) == "non-finite value near t = 0"


def test_flat_geodesics_are_straight_lines():
    m = isothermal_metric("1")
    traj = integrate_geodesic(m, (0.0, 0.0, 0.3, -0.2), 1e-2, 100)
    t, x, y, px, py = traj[-1]
    assert t == pytest.approx(1.0)
    assert x == pytest.approx(0.3, abs=1e-12)
    assert y == pytest.approx(-0.2, abs=1e-12)
    assert px == pytest.approx(0.3, abs=1e-14)
    assert py == pytest.approx(-0.2, abs=1e-14)


def test_sphere_energy_conservation_short_run():
    m = isothermal_metric("4/(1+x^2+y^2)^2")
    traj = integrate_geodesic(m, (0.1, 0.2, 0.3, -0.1), 1e-3, 2000)
    rep = conservation_report(m, traj)
    assert rep["H_drift"] < 1e-9
    assert rep["steps"] == 2000


def test_sphere_rotational_momentum_conserved_numerically():
    m = isothermal_metric("4/(1+x^2+y^2)^2")
    L = MomentumPoly({(0, 1): parse("x"), (1, 0): parse("-y")})
    traj = integrate_geodesic(m, (0.1, 0.2, 0.3, -0.1), 1e-3, 2000)
    rep = conservation_report(m, traj, L)
    assert rep["F_drift"] < 1e-9


def test_rk4_is_fourth_order_under_step_halving():
    m = isothermal_metric("4/(1+x^2+y^2)^2")
    state = (0.1, 0.2, 0.45, -0.3)

    def drift(dt, steps):
        traj = integrate_geodesic(m, state, dt, steps)
        return conservation_report(m, traj)["H_drift"]

    e1 = drift(0.02, 500)
    e2 = drift(0.01, 1000)
    assert e1 > 0 and e2 > 0
    factor = e1 / e2
    assert 8.0 <= factor <= 32.0, factor


def test_export_csv(tmp_path):
    m = isothermal_metric("1+x^2")
    f = MomentumPoly({(0, 3): parse("1")})
    traj = integrate_geodesic(m, (0.0, 0.1, 0.2, 0.3), 1e-2, 10)
    path = tmp_path / "traj.csv"
    conservation_report(m, traj, f, csv_path=path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "px", "py", "H", "F"]
    assert len(rows) == 12
    # F column is py^3
    for r in rows[1:]:
        py = float(r[4])
        assert float(r[6]) == pytest.approx(py ** 3, rel=1e-12)


@pytest.mark.parametrize("metric, f", [
    (isothermal_metric("4/(1+x^2+y^2)^2"),
     MomentumPoly({(0, 1): parse("x"), (1, 0): parse("-y")})),
    (general_metric("1 + x^2", "0", "1 + x^2"),
     MomentumPoly({(0, 3): parse("1")})),
    # mixed monomials, where c*px^i*py^j and c*(px^i*py^j) can differ
    (general_metric("2 + x^2", "x*y/4", "2 + y^2"),
     MomentumPoly({(3, 0): parse("y/3"), (2, 1): parse("1 + x"),
                   (1, 2): parse("x*y/7"), (0, 3): parse("5/3")})),
], ids=["sphere-L", "general-1+x^2-py^3", "general-mixed"])
def test_conservation_report_csv_matches_reference(tmp_path, metric, f):
    # H and F come from one compiled function and one evaluation per
    # point; each must still be the per-polynomial sum, bit for bit
    traj = integrate_geodesic(metric, (0.1, 0.2, 0.3, -0.1), 1e-3, 300)
    path = tmp_path / "traj.csv"
    summary = conservation_report(metric, traj, f, csv_path=path)
    assert summary == conservation_report(metric, traj, f)
    h_ref = momentum_poly_reference(hamiltonian_poly(metric))
    f_ref = momentum_poly_reference(f)
    # the csv module's default dialect ends every line with \r\n, which
    # csv.reader and splitlines() both hide
    raw = path.read_bytes().decode()
    lines = raw.split("\r\n")
    assert lines[0] == "t,x,y,px,py,H,F" and lines[-1] == ""
    assert len(lines) == len(traj) + 2 and "\n" not in "".join(lines)
    no_f = tmp_path / "no-f.csv"
    assert conservation_report(metric, traj, csv_path=no_f) == \
        conservation_report(metric, traj)
    raw_no_f = no_f.read_bytes().decode()
    assert raw_no_f.startswith("t,x,y,px,py,H,F\r\n")
    rows_no_f = raw_no_f.split("\r\n")[1:-1]
    assert len(rows_no_f) == len(traj)
    for r, line in zip(rows_no_f, lines[1:]):
        # the same row up to the empty F field
        assert r + "\r\n" == line.rsplit(",", 1)[0] + ",\r\n"
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "x", "y", "px", "py", "H", "F"]
    assert len(rows) == len(traj) + 1
    for r, (t, x, y, px, py) in zip(rows[1:], traj):
        assert r[:5] == [f"{t:.10g}", f"{x:.16g}", f"{y:.16g}",
                         f"{px:.16g}", f"{py:.16g}"]
        assert r[5] == f"{h_ref(x, y, px, py):.16g}"
        assert r[6] == f"{f_ref(x, y, px, py):.16g}"
    hs = [h_ref(*p[1:]) for p in traj]
    fs = [f_ref(*p[1:]) for p in traj]
    assert summary == {
        "steps": len(traj) - 1,
        "H0": hs[0], "H_drift": max(abs(v - hs[0]) for v in hs),
        "F0": fs[0], "F_drift": max(abs(v - fs[0]) for v in fs)}


def test_conservation_report_removes_only_a_regular_file(monkeypatch):
    # F's coefficient ln(x) fails once the flow reaches x <= 0; the partial
    # output goes, but a device given as the path must be left alone
    m = isothermal_metric("1")
    f = MomentumPoly({(0, 3): parse("ln(x)")})
    traj = integrate_geodesic(m, (0.05, 0.0, -1.0, 0.0), 1e-2, 100)
    removed = []
    monkeypatch.setattr(verify.os, "remove", removed.append)
    with pytest.raises(EvalDomainError, match="ln of non-positive value"):
        conservation_report(m, traj, f, csv_path=os.devnull)
    assert removed == []


def test_conservation_report_momentum_overflow(tmp_path):
    # flat: the flow stays finite, but px^2 in H overflows as it is summed
    m = isothermal_metric("1")
    traj = integrate_geodesic(m, (0.0, 0.0, 1e200, 0.0), 0.1, 3)
    path = tmp_path / "t.csv"
    with pytest.raises(EvalDomainError, match="^float overflow$"):
        conservation_report(m, traj, csv_path=path)
    assert not path.exists()
