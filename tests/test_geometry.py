import random

import pytest

from cubint.cnum import CExpr, parse_complex
from cubint.expr import (Box, Rat, diff, eval_at, is_zero, nf_is_zero,
                         nf_mul, nf_neg, nf_recip, nf_to_expr, parse, simplify,
                         to_nf, to_str)
from cubint.geometry import (
    ChartMismatch, Section, christoffel, complex_structure, gauss_curvature,
    general_metric, grad_half_square, grad_pairing, isothermal_metric,
    laplacian, nabla01, nabla10, null_metric, poisson_g,
)
from oracles import fd_gauss_curvature


BOX = Box(-0.9, 0.9, -0.9, 0.9)
POS_BOX = Box(0.3, 1.2, 0.3, 1.2)


def _zero(e, box=BOX):
    return is_zero(e, box).is_zero


# --------------------------------------------------------------------------
# curvature: exact values on reference metrics

def test_flat_plane_curvature_is_exactly_zero():
    m = isothermal_metric("1")
    assert to_str(gauss_curvature(m)) == "0"


def test_round_sphere_curvature_is_exactly_one():
    m = isothermal_metric("4/(1+x^2+y^2)^2")
    assert to_str(gauss_curvature(m)) == "1"


def test_hyperbolic_general_chart_curvature():
    m = general_metric("1", "0", "exp(2*x)")
    assert to_str(gauss_curvature(m)) == "-1"


def test_iso_factor_1_plus_x2_curvature():
    m = isothermal_metric("1+x^2")
    want = parse("(x^2-1)/(1+x^2)^3")
    assert nf_is_zero(gauss_curvature(m) - want)


def test_null_lane_curvature_pinned_value():
    # g = dx dy / (y + x^2)^2 has lane curvature exactly 4x
    m = null_metric("1/(y+x^2)^2")
    assert to_str(gauss_curvature(m)) == "4*x"


def test_null_lane_vs_classical_factor():
    # lane curvature = -(classical Gauss curvature)/2 in the null chart
    m = null_metric("2 + x^2 + y^2")
    lane = gauss_curvature(m)
    classical = None
    # classical K from the generic Christoffel route on the same components
    m_gen = general_metric("0", to_str(simplify(parse("(2+x^2+y^2)/2"))), "0")
    classical = gauss_curvature(m_gen)
    assert nf_is_zero(simplify(lane + Rat(1, 2) * classical))


@pytest.mark.parametrize("lam", ["4/(1+x^2+y^2)^2", "1+x^2", "exp(x+y/2)"])
def test_iso_curvature_matches_fd_oracle(lam):
    m = isothermal_metric(lam)
    r = gauss_curvature(m)
    f = lambda a, b: eval_at(m.lam, (a, b))
    rng = random.Random(77)
    for _ in range(16):
        pt = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        want = fd_gauss_curvature(f, lambda a, b: 0.0, f, pt[0], pt[1])
        got = eval_at(r, pt)
        assert abs(got - want) <= 1e-6 * (1 + abs(want)), (lam, pt)


def test_general_curvature_matches_fd_oracle():
    m = general_metric("1+y^2", "x*y/4", "1+x^2")
    r = gauss_curvature(m)
    g11 = lambda a, b: 1 + b * b
    g12 = lambda a, b: a * b / 4
    g22 = lambda a, b: 1 + a * a
    rng = random.Random(13)
    for _ in range(16):
        pt = (rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
        want = fd_gauss_curvature(g11, g12, g22, pt[0], pt[1])
        got = eval_at(r, pt)
        assert abs(got - want) <= 1e-6 * (1 + abs(want)), pt


# --------------------------------------------------------------------------
# Christoffel symbols

def test_christoffel_symmetric_in_lower_indices():
    m = general_metric("1+y^2", "x*y/4", "1+x^2")
    gam = christoffel(m)
    for i in range(2):
        assert gam[(i, 0, 1)] == gam[(i, 1, 0)]


def test_christoffel_metric_compatibility():
    # nabla g = 0:  d_k g_ij - Gamma^l_{ki} g_lj - Gamma^l_{kj} g_il = 0
    m = general_metric("1+y^2", "x*y/4", "1+x^2")
    gam = christoffel(m)
    g = ((m.g11, m.g12), (m.g12, m.g22))
    vs = ("x", "y")
    for i in range(2):
        for j in range(2):
            for k in range(2):
                e = diff(g[i][j], vs[k])
                for l in range(2):
                    e = e - gam[(l, k, i)] * g[l][j] - gam[(l, k, j)] * g[i][l]
                assert nf_is_zero(e), (i, j, k)


def test_log_lambda_builds_no_tree(monkeypatch):
    # u = ln(lambda) is read through its normal form only: after the
    # metric normalizes its components, u, its gradient and the curvature
    # call simplify no more
    import cubint.geometry as geo
    calls = []
    real = geo.simplify
    monkeypatch.setattr(geo, "simplify", lambda e: calls.append(e) or real(e))
    for make in (isothermal_metric, null_metric):
        calls.clear()
        m = make("1 + x^2 + y^2/3")
        built = len(calls)
        m.log_lam
        gauss_curvature(m)
        m._u_grad(True)
        m._u_grad(False)
        assert len(calls) == built


def test_christoffel_isothermal_closed_form():
    # for g = lambda (dx^2+dy^2): Gamma^1_{11} = u_x/2, Gamma^1_{22} = -u_x/2,
    # Gamma^1_{12} = u_y/2 with u = ln lambda (and x<->y symmetrically)
    m = isothermal_metric("1+x^2+y^4/3")
    gam = christoffel(m)
    u = nf_to_expr(m.log_lam)
    ux, uy = diff(u, "x"), diff(u, "y")
    half = Rat(1, 2)
    assert nf_is_zero(gam[(0, 0, 0)] - half * ux)
    assert nf_is_zero(gam[(0, 1, 1)] + half * ux)
    assert nf_is_zero(gam[(0, 0, 1)] - half * uy)
    assert nf_is_zero(gam[(1, 1, 1)] - half * uy)
    assert nf_is_zero(gam[(1, 0, 0)] + half * uy)
    assert nf_is_zero(gam[(1, 0, 1)] - half * ux)


# --------------------------------------------------------------------------
# volume density and the perfect-square collapse

def test_mu_iso_and_null():
    m = isothermal_metric("1+x^2")
    assert m.mu == m.lam
    n = null_metric("2/(1+x^2)")
    assert nf_is_zero(n.mu - parse("1/(1+x^2)"))


def test_mu_perfect_square_collapses():
    m = general_metric("1", "0", "(x^2+y/x)^2")
    w = simplify(parse("x^2+y/x"))
    assert m.mu == w


def test_mu_non_square_stays_radical():
    m = general_metric("1", "0", "1+x^2")
    s = to_str(m.mu)
    assert "(1/2)" in s  # an honest half power survives


def test_inverse_of_a_square_det_carries_mus_base_squared():
    # the metric of Theorem 1.2: det = (2/3 x^2 + y/x)^2, so mu is
    # (2/3)(x^3 + 3/2 y)/x, and g^22 = 1/det keeps mu's one compound base
    # with exponent 2, not det expanded as a base of its own
    m = general_metric("1", "0", "(2/3*x^2 + y/x)^2")
    i22 = to_nf(m.inv[2])
    (mu_base, _), = nf_recip(to_nf(parse("x^3 + 3/2*y"))).den
    assert i22.den == ((mu_base, 2),)


def test_inverse_of_a_non_square_det_is_the_reciprocal_of_det():
    # (1/mu)^2 of a radical mu gives nf_recip(det) field for field
    m = general_metric("1 + x^2", "x*y/3", "2 + y^2")
    r = nf_recip(to_nf(m.det))
    want = (nf_mul(to_nf(m.g22), r), nf_neg(nf_mul(to_nf(m.g12), r)),
            nf_mul(to_nf(m.g11), r))
    for got, w in zip(m.inv, want):
        got = to_nf(got)
        assert (got.content, got.num, got.den) == (w.content, w.num, w.den)


# --------------------------------------------------------------------------
# scalar operators

def test_laplacian_iso_closed_form():
    m = isothermal_metric("1+x^2+y^2")
    f = parse("sin(x)*y + x^2")
    lhs = laplacian(m, f)
    rhs = simplify((diff(diff(f, "x"), "x") + diff(diff(f, "y"), "y")) / m.lam)
    assert nf_is_zero(lhs - rhs)


def test_laplacian_null_closed_form():
    m = null_metric("1+x^2+y^2")
    f = parse("x^2*y + cos(y)")
    lhs = laplacian(m, f)
    rhs = simplify(4 * diff(diff(f, "x"), "y") / m.lam)
    assert nf_is_zero(lhs - rhs)


def test_grad_half_square_closed_forms():
    m = isothermal_metric("2+x^2")
    f = parse("x*y")
    lhs = grad_half_square(m, f)
    rhs = simplify(parse("(y^2 + x^2)/(2*(2+x^2))"))
    assert nf_is_zero(lhs - rhs)
    n = null_metric("2+x^2")
    lhs = grad_half_square(n, f)
    rhs = simplify(parse("2*x*y/(2+x^2)"))
    assert nf_is_zero(lhs - rhs)


def test_grad_pairing_symmetry_and_bilinearity():
    m = general_metric("1+y^2", "x*y/4", "1+x^2")
    f, h, k = parse("x^2+y"), parse("sin(x)"), parse("y^3")
    assert nf_is_zero(grad_pairing(m, f, h) - grad_pairing(m, h, f))
    lhs = grad_pairing(m, f + k, h)
    rhs = grad_pairing(m, f, h) + grad_pairing(m, k, h)
    assert nf_is_zero(lhs - rhs)


def test_poisson_antisymmetry_and_leibniz():
    m = isothermal_metric("1+x^2/2")
    f, g, h = parse("x^2*y"), parse("sin(y)+x"), parse("x*y")
    assert nf_is_zero(poisson_g(m, f, g) + poisson_g(m, g, f))
    lhs = poisson_g(m, f * g, h)
    rhs = f * poisson_g(m, g, h) + g * poisson_g(m, f, h)
    assert nf_is_zero(simplify(lhs - rhs))


# --------------------------------------------------------------------------
# complex structure

def test_complex_structure_iso_is_standard_rotation():
    m = isothermal_metric("3+x^4")
    j = complex_structure(m)
    assert to_str(j[0][0]) == "0" and to_str(j[1][1]) == "0"
    assert to_str(j[0][1]) == "-1" and to_str(j[1][0]) == "1"


def test_complex_structure_squares_to_minus_id_riemannian():
    m = general_metric("1+y^2", "x*y/4", "1+x^2")
    j = complex_structure(m)
    # J^2 must equal -Id up to the radical in mu squaring away
    for a in range(2):
        for b in range(2):
            s = simplify(j[a][0] * j[0][b] + j[a][1] * j[1][b])
            want = Rat(-1) if a == b else Rat(0)
            assert nf_is_zero(s - want), (a, b, to_str(s))


def test_complex_structure_squares_to_plus_id_null():
    m = null_metric("1+x^2+y^2")
    j = complex_structure(m)
    assert to_str(j[0][0]) == "1" and to_str(j[1][1]) == "-1"
    assert to_str(j[0][1]) == "0" and to_str(j[1][0]) == "0"


# --------------------------------------------------------------------------
# weighted sections

def test_section_chart_enforcement():
    iso = isothermal_metric("1+x^2")
    nul = null_metric("1+x^2")
    gen = general_metric("1", "0", "1+x^2")
    with pytest.raises(ChartMismatch):
        Section(parse("x"), (1, 0), iso)        # real value in iso lane
    with pytest.raises(ChartMismatch):
        Section(parse_complex("x", "y"), (1, 0), nul)
    with pytest.raises(ChartMismatch):
        Section(parse("x"), (1, 0), gen)


def test_section_weight_bookkeeping():
    iso = isothermal_metric("1+x^2")
    s = Section(parse_complex("x*y", "x-y"), (2, 1), iso)
    assert nabla10(s).weight == (3, 1)
    assert nabla01(s).weight == (2, 2)
    n = null_metric("1+y^2")
    t = Section(parse("x^2*y"), (-3, 0), n)
    assert nabla10(t).weight == (-2, 0)


def test_nabla_reduces_to_plain_derivative_at_weight_zero():
    iso = isothermal_metric("1+x^2+y^2")
    f = parse_complex("x^2*y", "x - y^3")
    s = Section(f, (0, 0), iso)
    from cubint.cnum import wirtinger_z
    d = nabla10(s)
    w = wirtinger_z(f)
    assert (d.value - w).is_zero(BOX).is_zero


def test_codifferential_weighted_derivative_coefficient():
    # at weight (-3, 0) the first-direction derivative is a_z + 3 u_z a
    iso = isothermal_metric("1+x^2")
    a = parse_complex("x^2 - y^2", "2*x*y")
    s = Section(a, (-3, 0), iso)
    d = nabla10(s)
    from cubint.cnum import wirtinger_z
    u_z = wirtinger_z(CExpr.from_real(nf_to_expr(iso.log_lam)))
    want = wirtinger_z(a) + CExpr.from_real(Rat(3)) * u_z * a
    assert (d.value - want).is_zero(BOX).is_zero


WEIGHTS = [(0, 0), (1, 0), (2, 1), (3, 0), (0, 2)]


@pytest.mark.parametrize("weight", WEIGHTS)
def test_commutator_identity_iso(weight):
    # nabla01 nabla10 - nabla10 nabla01 = ((p-q)/2) R lambda on weight (p,q)
    rng = random.Random(sum(weight) * 7 + 3)
    m = isothermal_metric("4/(1+x^2+y^2)^2")
    r = gauss_curvature(m)
    coeffs = [rng.randint(-4, 4) for _ in range(8)]
    val = parse_complex(
        f"{coeffs[0]} + {coeffs[1]}*x + {coeffs[2]}*y + {coeffs[3]}*x*y",
        f"{coeffs[4]} + {coeffs[5]}*x + {coeffs[6]}*y^2 + {coeffs[7]}*x^2")
    s = Section(val, weight, m)
    p, q = weight
    lhs = nabla01(nabla10(s)).value - nabla10(nabla01(s)).value
    want = CExpr.from_real(simplify(Rat(p - q, 2) * r * m.lam)) * val
    assert (lhs - want).is_zero(BOX).is_zero, weight


@pytest.mark.parametrize("weight", WEIGHTS)
def test_commutator_identity_null(weight):
    # null lane: the commutator coefficient is (q-p) u_xy = (q-p) R lambda
    rng = random.Random(sum(weight) * 11 + 5)
    m = null_metric("1/(y+x^2)^2")
    r = gauss_curvature(m)
    coeffs = [rng.randint(-4, 4) for _ in range(4)]
    val = parse(f"{coeffs[0]} + {coeffs[1]}*x + {coeffs[2]}*y + {coeffs[3]}*x*y")
    s = Section(val, weight, m)
    p, q = weight
    lhs = nabla01(nabla10(s)).value - nabla10(nabla01(s)).value
    want = simplify(Rat(q - p) * r * m.lam * val)
    assert is_zero(simplify(lhs - want), POS_BOX).is_zero, weight
