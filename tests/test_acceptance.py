"""Acceptance gate: the ten headline guarantees, one test (and one
pass/fail line under -v) per criterion, with the stated tolerances and
runtime budgets asserted inside the tests themselves."""

import math
import random
import time

from cubint.cnum import CExpr, parse_complex
from cubint.decision import decide
from cubint.expr import (Box, DEFAULT_CFG, Rat, eval_at, is_zero,
                         nf_is_zero, parse, simplify)
from cubint.geometry import (Section, gauss_curvature, general_metric,
                             isothermal_metric, nabla01, nabla10, null_metric)
from cubint.invariants import Codifferential, InvariantEngine
from cubint.pseudo import decide_pseudo
from cubint.tensorcoords import (SymTensor3, a_hat_from_complex,
                                 holo_residual, principle_residual, split_AB)
from cubint.verify import (MomentumPoly, bracket_FH, canonical_bracket_FH,
                           certificate_all_zero, conservation_report,
                           integrate_geodesic)

from oracles import fd_gauss_curvature

BOX = Box(-1.0, 1.0, -1.0, 1.0)
POS_BOX = Box(0.2, 1.0, 0.2, 1.0)

KILLING_PATH = ["Input g and A", "Is phi0 constant?", "Is phi2 == 0?",
                "D-form test", "Is phi*2 == 0?", "D*-form test"]


def _rand_quad(rng):
    parts = [f"{rng.randint(-3, 3)}*{mon}"
             for mon in ("1", "x", "y", "x*y", "x^2", "y^2")]
    return parse(" + ".join(parts))


def _rand_cubic(rng):
    return MomentumPoly({(3, 0): _rand_quad(rng), (2, 1): _rand_quad(rng),
                         (1, 2): _rand_quad(rng), (0, 3): _rand_quad(rng)})


def test_criterion_01_curvature_correctness():
    t0 = time.monotonic()
    # closed-form values
    assert nf_is_zero(gauss_curvature(isothermal_metric("1")))
    sphere = isothermal_metric("4/(1 + x^2 + y^2)^2")
    assert nf_is_zero(simplify(gauss_curvature(sphere) - parse("1")))
    hyper = general_metric("1", "0", "exp(2*x)")
    assert nf_is_zero(simplify(gauss_curvature(hyper) + parse("1")))
    # symbolic vs finite-difference at 16 random points
    rng = random.Random(1601)
    r_sym = gauss_curvature(sphere)
    s11 = lambda x, y: 4.0 / (1 + x * x + y * y) ** 2
    h11 = lambda x, y: 1.0
    h12 = lambda x, y: 0.0
    h22 = lambda x, y: math.exp(2 * x)
    r_hyp = gauss_curvature(hyper)
    for _ in range(16):
        x = rng.uniform(-0.6, 0.6)
        y = rng.uniform(-0.6, 0.6)
        assert abs(eval_at(r_sym, (x, y))
                   - fd_gauss_curvature(s11, h12, s11, x, y)) <= 1e-6
        assert abs(eval_at(r_hyp, (x, y))
                   - fd_gauss_curvature(h11, h12, h22, x, y)) <= 1e-6
    assert time.monotonic() - t0 < 5.0


def test_criterion_02_weighted_commutator_identity():
    t0 = time.monotonic()
    weights = [(0, 0), (1, 0), (2, 1), (3, 0), (0, 2)]
    iso = isothermal_metric("4/(1 + x^2 + y^2)^2")
    r_iso = gauss_curvature(iso)
    nul = null_metric("1/(y + x^2)^2")
    r_nul = gauss_curvature(nul)
    rng = random.Random(202)
    for p, q in weights:
        val = parse_complex(
            " + ".join(f"{rng.randint(-4, 4)}*{m}"
                       for m in ("1", "x", "y", "x*y")),
            " + ".join(f"{rng.randint(-4, 4)}*{m}"
                       for m in ("1", "x", "y^2", "x^2")))
        s = Section(val, (p, q), iso)
        lhs = nabla01(nabla10(s)).value - nabla10(nabla01(s)).value
        want = CExpr.from_real(simplify(Rat(p - q, 2) * r_iso * iso.lam)) * val
        assert (lhs - want).is_zero(BOX).is_zero, ("iso", p, q)

        nval = parse(" + ".join(f"{rng.randint(-4, 4)}*{m}"
                                for m in ("1", "x", "y", "x*y")))
        ns = Section(nval, (p, q), nul)
        nlhs = nabla01(nabla10(ns)).value - nabla10(nabla01(ns)).value
        nwant = simplify(Rat(q - p) * r_nul * nul.lam * nval)
        assert is_zero(simplify(nlhs - nwant), POS_BOX).is_zero, ("null", p, q)
    assert time.monotonic() - t0 < 30.0


def test_criterion_03_bracket_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(303)
    n_fixtures = 0
    for i in range(10):
        lam = simplify(parse("1 + (x^2 + y^2)/3") + _rand_quad(rng) * Rat(1, 9))
        m = isothermal_metric(lam)
        f = _rand_cubic(rng)
        d = bracket_FH(m, f) - canonical_bracket_FH(m, f)
        for k, c in d.coeffs.items():
            assert is_zero(c, BOX, DEFAULT_CFG).is_zero, ("iso", i, k)
        n_fixtures += 1
    for i in range(10):
        lam = simplify(parse("2 + x^2/4") + _rand_quad(rng) * Rat(1, 5))
        m = null_metric(lam)
        f = _rand_cubic(rng)
        d = bracket_FH(m, f) - canonical_bracket_FH(m, f)
        for k, c in d.coeffs.items():
            assert is_zero(c, BOX, DEFAULT_CFG).is_zero, ("null", i, k)
        n_fixtures += 1
    assert n_fixtures >= 20
    assert time.monotonic() - t0 < 60.0


def _route_reports(lam_text, re_text, im_text):
    lam = parse(lam_text)
    a = parse_complex(re_text, im_text)
    iso = InvariantEngine(isothermal_metric(lam),
                          Codifferential.isothermal(a), BOX)
    gen = InvariantEngine(general_metric(lam, "0", lam),
                          Codifferential.general(a_hat_from_complex(a)), BOX)
    return iso.report(), gen.report()


def test_criterion_04_chart_consistency_master():
    t0 = time.monotonic()
    fixtures = [
        ("1", "x^2 - y^2", "2*x*y"),              # flat, a = z^2
        ("1 + x^2", "0", "-1"),                   # Killing, a = -i
        ("4/(1 + x^2 + y^2)^2", "0", "0"),        # sphere, trivial pair
        ("1 + x^2 + y^2/2", "1", "0"),            # generic curvature, a = 1
        ("2 + x", "x", "y"),                      # linear lambda, a = z
    ]
    for lam_text, re_text, im_text in fixtures:
        ri, rg = _route_reports(lam_text, re_text, im_text)
        pairs = []
        pairs += list(zip(["phi0", "phi1", "phi2", "phi3"], ri.phi, rg.phi))
        pairs += list(zip(["D0", "D1", "D2", "D3"], ri.dee, rg.dee))
        pairs += list(zip(["G0", "G1", "G2", "G3"], ri.gee, rg.gee))
        for name in ("phistar1", "phistar2", "phistar3",
                     "Dstar1", "Dstar2", "Dstar3", "Gstar2", "Gstar3"):
            pairs.append((name, ri.star[name], rg.star[name]))
        for name in ("Dx", "Dy", "Dstarx", "Dstary"):
            pairs.append((name, ri.dforms[name], rg.dforms[name]))
        for name, ei, eg in pairs:
            # exact: the normal form of the difference, with no term
            # budget (some general-lane differences exceed is_zero's)
            assert nf_is_zero(ei - eg), (lam_text, name)
        for name, ki, kg in (("K", ri.kay, rg.kay),
                             ("K*", ri.star["Kstar"], rg.star["Kstar"])):
            assert (ki is None) == (kg is None), (lam_text, name)
            if ki is not None:
                for ci, cg in zip(ki, kg):
                    assert nf_is_zero(ci - cg), (lam_text, name)
    assert time.monotonic() - t0 < 120.0


def test_criterion_05_necessity_suite_killing_fixture():
    eng = InvariantEngine(isothermal_metric("1 + x^2"),
                          Codifferential.isothermal(("0", "-1")), BOX)
    for name, e in (("G2", eng.gee2), ("G3", eng.gee3),
                    ("G*2", eng.geestar2), ("G*3", eng.geestar3),
                    ("Dx", eng.dform_x), ("D*x", eng.dformstar_x)):
        assert is_zero(e, BOX, DEFAULT_CFG).is_zero, name
    v = decide(eng.metric, eng.codiff, BOX, DEFAULT_CFG)
    assert v.status == "CompatibleKilling"
    assert v.path() == KILLING_PATH
    # ground truth: py^3 really is a first integral of this metric
    ground = bracket_FH(eng.metric, MomentumPoly({(0, 3): parse("1")}))
    assert ground.is_trivial()


def test_criterion_06_soundness_contract():
    trivial = Codifferential.isothermal(("0", "0"))
    outcomes = [
        decide(isothermal_metric("1 + x^2 + y^4"), trivial,
               POS_BOX, DEFAULT_CFG),
        decide(general_metric("1", "0", "(x^2 + y/x)^2"),
               Codifferential.general(SymTensor3((parse("0"),) * 4)),
               Box(1.0, 2.0, 0.5, 1.5), DEFAULT_CFG),
        decide_pseudo(null_metric("1 + x^2 + y^2"),
                      Codifferential.null_pair("0", "0"), BOX, DEFAULT_CFG),
    ]
    vias = {v.via for v in outcomes}
    assert "Thm1.1" in vias and "Thm1.2" in vias
    for v in outcomes:
        assert v.status == "CompatibleWithFormula", v
        assert v.certificate is not None
        assert certificate_all_zero(v.certificate), v


def test_criterion_07_refutation_witness():
    m = isothermal_metric("1 + x^2 + y^4")
    c = Codifferential.isothermal(("1", "0"))
    v = decide(m, c, POS_BOX, DEFAULT_CFG)
    assert v.status == "Incompatible"
    assert v.failed in ("G2", "G3")
    eng = InvariantEngine(m, c, POS_BOX, DEFAULT_CFG)
    obstruction = {"G2": eng.gee2, "G3": eng.gee3}[v.failed]
    assert abs(eval_at(obstruction, v.witness)) > 1e-6


def test_criterion_08_pseudo_riemannian_obstruction():
    m = null_metric("1/(y + x^2)^2")
    assert nf_is_zero(simplify(gauss_curvature(m) - parse("4*x")))
    eng = InvariantEngine(m, Codifferential.null_pair("1", "1"), POS_BOX)
    assert is_zero(eng.phi1, POS_BOX, DEFAULT_CFG).is_zero
    v = decide_pseudo(m, Codifferential.null_pair("1", "1"),
                      POS_BOX, DEFAULT_CFG)
    assert v.status == "Incompatible"
    assert "Prop. 6.7" in v.failed
    w = decide_pseudo(null_metric("1 + x^2"),
                      Codifferential.null_pair("0", "1"), BOX, DEFAULT_CFG)
    assert w.is_compatible
    assert w.certificate is not None
    assert certificate_all_zero(w.certificate)


def test_criterion_09_projector_and_residual_round_trip():
    m = isothermal_metric("1 + x^2 + y^2/2")
    rng = random.Random(909)

    def rand_tensor():
        def comp():
            return simplify(Rat(rng.randint(-3, 3))
                            + Rat(rng.randint(-2, 2)) * parse("x")
                            + Rat(rng.randint(-2, 2)) * parse("y"))
        return SymTensor3((comp(), comp(), comp(), comp()))

    for _ in range(20):
        f = rand_tensor()
        a_hat, b_hat = split_AB(m, f)
        for comp in (a_hat + b_hat - f).c:
            assert is_zero(comp, BOX, DEFAULT_CFG).is_zero
        a2, b2 = split_AB(m, a_hat)
        for comp in (a2 - a_hat).c + b2.c:
            assert is_zero(comp, BOX, DEFAULT_CFG).is_zero

    # Cauchy-Riemann agreement on isothermal fixtures
    for lam_text, re_text, im_text, holo in (
            ("1 + x^2 + y^2/2", "x^2 - y^2", "2*x*y", True),
            ("4/(1 + x^2 + y^2)^2", "x", "y", True),
            ("1", "x", "-y", False)):
        met = isothermal_metric(lam_text)
        a = parse_complex(re_text, im_text)
        res = holo_residual(met, a_hat_from_complex(a))
        if holo:
            for comp in res.c:
                assert is_zero(comp, BOX, DEFAULT_CFG).is_zero
        else:
            assert any(is_zero(comp, BOX, DEFAULT_CFG).is_nonzero
                       for comp in res.c)

    # potential-equation residual matches the complex-route residual
    lam = parse("1 + x^2 + y^2/2")
    met = isothermal_metric(lam)
    k = gauss_curvature(met)
    a = parse_complex("x^2 - y + 1", "x*y - 2")
    s_k = Section(CExpr(k, parse("0")), (0, 0), met)
    kzbzb = nabla01(nabla01(s_k)).value
    az = nabla10(Section(a, (-3, 0), met)).value
    complex_res = (kzbzb
                   + CExpr(parse("0"), simplify(lam * lam)) * az).simplified()
    p = principle_residual(met, k, a_hat_from_complex(a))
    assert is_zero(simplify(p[0][0] - Rat(2) * complex_res.re),
                   BOX, DEFAULT_CFG).is_zero
    assert is_zero(simplify(p[0][1] - Rat(2) * complex_res.im),
                   BOX, DEFAULT_CFG).is_zero


def test_criterion_10_geodesic_conservation():
    t0 = time.monotonic()
    sphere = isothermal_metric("4/(1 + x^2 + y^2)^2")
    traj = integrate_geodesic(sphere, (0.1, -0.2, 0.4, 0.3), 1e-3, 10_000)
    rep = conservation_report(sphere, traj)
    assert rep["H_drift"] < 1e-8

    killing = isothermal_metric("1 + x^2")
    f = MomentumPoly({(0, 3): parse("1")})
    traj = integrate_geodesic(killing, (0.1, 0.0, 0.3, 0.2), 1e-3, 10_000)
    rep = conservation_report(killing, traj, f)
    assert rep["F_drift"] < 1e-8

    # fourth-order convergence: halving dt cuts the drift ~16x
    coarse = conservation_report(
        sphere, integrate_geodesic(sphere, (0.1, -0.2, 0.4, 0.3), 0.02, 500))
    fine = conservation_report(
        sphere, integrate_geodesic(sphere, (0.1, -0.2, 0.4, 0.3), 0.01, 1000))
    factor = coarse["H_drift"] / fine["H_drift"]
    assert 8.0 <= factor <= 32.0, factor
    assert time.monotonic() - t0 < 30.0
