from fractions import Fraction

import pytest

from cubint import expr
from cubint.decision import (
    CONST_CURVATURE_NOTE, KILLING_NOTE, _combine, _dform_test, decide,
)
from cubint.exact import nf_at
from cubint.expr import Box, ZeroVerdict, as_expr, is_zero, parse, to_nf
from cubint.geometry import ChartMismatch, general_metric, isothermal_metric, null_metric
from cubint.invariants import Codifferential, HolomorphicityViolated, InvariantEngine
from cubint.pseudo import decide_pseudo
from cubint.tensorcoords import SymTensor3
from cubint.verify import certificate_all_zero

BOX02 = Box(0.2, 1.0, 0.2, 1.0)

KILLING_PATH = ["Input g and A", "Is phi0 constant?", "Is phi2 == 0?",
                "D-form test", "Is phi*2 == 0?", "D*-form test"]


# --------------------------------------------------------------------------
# terminal verdicts, one per flowchart exit

def test_flat_metric_constant_curvature_branch():
    v = decide(isothermal_metric("1"), Codifferential.isothermal(("1", "0")))
    assert v.status == "CompatibleConstCurvature"
    assert v.is_compatible and not v.is_incompatible
    assert v.note == CONST_CURVATURE_NOTE
    assert v.path() == ["Input g and A", "Is phi0 constant?", "Is D0 == 0?"]


def test_sphere_with_bad_codifferential_fails_at_d0():
    v = decide(isothermal_metric("4/(1+x^2+y^2)^2"),
               Codifferential.isothermal(("x^2 - y^2", "2*x*y")))
    assert v.status == "Incompatible"
    assert v.failed == "D0"
    assert v.witness is not None and abs(v.witness_value) > 1e-6
    assert v.path() == ["Input g and A", "Is phi0 constant?", "Is D0 == 0?"]


def test_trivial_codifferential_generic_metric_thm11():
    v = decide(isothermal_metric("1+x^2+y^4"),
               Codifferential.isothermal(("0", "0")), BOX02)
    assert v.status == "CompatibleWithFormula"
    assert v.via == "Thm1.1"
    assert v.f is not None and v.f.is_trivial()
    assert v.certificate is not None and certificate_all_zero(v.certificate)
    assert v.path() == ["Input g and A", "Is phi0 constant?",
                        "Is phi2 == 0?", "Are G2 and G3 == 0?",
                        "Certificate {F, H} == 0"]


def test_killing_surface_compatible_killing():
    v = decide(isothermal_metric("1+x^2"),
               Codifferential.isothermal(("0", "-1")))
    assert v.status == "CompatibleKilling"
    assert v.note == KILLING_NOTE
    assert v.path() == KILLING_PATH


def test_generic_incompatible_with_reevaluable_witness():
    v = decide(isothermal_metric("1+x^2+y^4"),
               Codifferential.isothermal(("1", "0")), BOX02)
    assert v.status == "Incompatible"
    assert v.failed in ("G2", "G3")
    x, y = v.witness
    assert 0.2 <= x <= 1.0 and 0.2 <= y <= 1.0
    assert abs(v.witness_value) > 1e-6


def test_star_branch_thm12():
    # curvature depends on x only (so phi2 == 0 identically) but its
    # Laplacian picks up y-dependence, reopening the bracket upstairs
    m = general_metric("1", "0", "(x^2 + y/x)^2")
    box = Box(1.0, 2.0, 0.5, 1.5)
    v = decide(m, Codifferential.general(SymTensor3((as_expr(0),) * 4)), box)
    assert v.status == "CompatibleWithFormula"
    assert v.via == "Thm1.2"
    assert v.f is not None and v.f.is_trivial()
    assert certificate_all_zero(v.certificate)
    assert v.path() == ["Input g and A", "Is phi0 constant?",
                        "Is phi2 == 0?", "D-form test", "Is phi*2 == 0?",
                        "Are G*2 and G*3 == 0?", "Certificate {F, H} == 0"]


# --------------------------------------------------------------------------
# input gates

def test_split_signature_rejected():
    with pytest.raises(ChartMismatch):
        decide(null_metric("1+x^2"), Codifferential.null_pair("1", "0"))


def test_nonholomorphic_codifferential_rejected():
    with pytest.raises(HolomorphicityViolated):
        decide(isothermal_metric("1+x^2"),
               Codifferential.isothermal(("x", "-y")))


# --------------------------------------------------------------------------
# determinism and the formula-agreement remark

def test_verdict_is_deterministic():
    args = (isothermal_metric("4/(1+x^2+y^2)^2"),
            Codifferential.isothermal(("x^2 - y^2", "2*x*y")))
    a, b = decide(*args), decide(*args)
    assert a.status == b.status
    assert a.witness == b.witness
    assert a.path() == b.path()


def test_both_formula_routes_agree_when_both_brackets_nondegenerate():
    # with A = 0 the K and K* covectors both vanish, so the two explicit
    # formulas must produce the same (zero) tensor
    box = Box(-1.0, 1.0, -1.0, 1.0)
    eng = InvariantEngine(isothermal_metric("1 + x^2 + y^2/2"),
                          Codifferential.isothermal(("0", "0")), box)
    assert is_zero(eng.phi2, box).is_nonzero
    assert is_zero(eng.phistar2, box).is_nonzero
    f1 = eng.f_tensor(eng.kay)
    f2 = eng.f_tensor(eng.kaystar)
    assert f1.is_trivial() and f2.is_trivial()


# --------------------------------------------------------------------------
# helper semantics: verdict conjunction and the 1-form selection rule

def test_combine_conjunction():
    z = ZeroVerdict.zero()
    nz = ZeroVerdict.nonzero((0.1, 0.2), 3.5, "exact")
    unk = ZeroVerdict.unknown("band")
    assert _combine(z, nz).is_nonzero
    assert _combine(unk, nz).is_nonzero
    assert _combine(z, unk).is_unknown
    assert _combine(z, z).method == "symbolic"
    assert _combine().is_zero


def test_dform_selection_single_candidate():
    box = Box(-1.0, 1.0, -1.0, 1.0)
    zs = lambda e: is_zero(e, box)
    nzx = ZeroVerdict.nonzero((0.5, 0.5), 1.0, "exact")
    zy = ZeroVerdict.zero()
    # only Dx consulted; it vanishes -> walk continues (None)
    trace = []
    out = _dform_test(trace, zs, nzx, zy,
                      ("Dx", parse("0")), ("Dy", parse("1")), "D-form test")
    assert out is None
    assert trace[-1].box == "D-form test" and trace[-1].verdict.is_zero
    # only Dx consulted; it is nonzero -> Incompatible
    trace = []
    out = _dform_test(trace, zs, nzx, zy,
                      ("Dx", parse("1")), ("Dy", parse("0")), "D-form test")
    assert out is not None and out.status == "Incompatible"
    assert out.failed == "Dx"


def test_dform_selection_both_candidates_must_agree():
    box = Box(-1.0, 1.0, -1.0, 1.0)
    zs = lambda e: is_zero(e, box)
    nz = ZeroVerdict.nonzero((0.5, 0.5), 1.0, "exact")
    # agreement: both zero -> continue
    trace = []
    out = _dform_test(trace, zs, nz, nz,
                      ("Dx", parse("0")), ("Dy", parse("x - x")),
                      "D-form test")
    assert out is None
    # disagreement: zero vs nonzero -> Undetermined
    trace = []
    out = _dform_test(trace, zs, nz, nz,
                      ("Dx", parse("0")), ("Dy", parse("1")), "D-form test")
    assert out is not None and out.status == "Undetermined"
    # no candidate at all -> Undetermined
    trace = []
    unk = ZeroVerdict.unknown("band")
    out = _dform_test(trace, zs, unk, unk,
                      ("Dx", parse("0")), ("Dy", parse("0")), "D-form test")
    assert out is not None and out.status == "Undetermined"


def test_trace_steps_carry_verdicts():
    v = decide(isothermal_metric("1+x^2"),
               Codifferential.isothermal(("0", "-1")))
    assert v.trace[0].box == "Input g and A" and v.trace[0].verdict is None
    for step in v.trace[1:]:
        assert step.verdict is not None


def test_concurrent_decisions_match_serial_ones():
    # decide keeps no state between calls outside its arguments, so
    # threads switching every 0.1 ms reach the verdicts of a serial run
    import sys
    import threading
    pairs = [("1 + x^2", ("0", "-1")), ("1 + x^2 + y^2/2", ("0", "0")),
             ("4/(1 + x^2 + y^2)^2", ("x^2 - y^2", "2*x*y"))] * 2

    def run(lam, a):
        v = decide(isothermal_metric(lam), Codifferential.isothermal(a))
        return v.status, v.path(), v.witness

    got, errors = {}, []

    def worker(i):
        try:
            got[i] = run(*pairs[i])
        except Exception as exc:  # reported below with the verdicts
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(pairs))]
    # x and y are one node each, shared by every thread: the threads race
    # to build the compiled function that the atoms keep
    from cubint.expr import X, Y
    for atom in (X, Y):
        atom._fn = None
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [got[i] for i in range(len(pairs))] == [run(*p) for p in pairs]


# --------------------------------------------------------------------------
# zero tests on rational normal forms are exact: pairs that float probes
# once decided wrongly (a nonzero invariant under the tolerance) or left
# Undetermined (probes in the tolerance band)

BOX11 = Box(-1.0, 1.0, -1.0, 1.0)


def test_small_nonzero_obstruction_is_incompatible():
    m = isothermal_metric("2 + x/3 + y^2/5")
    c = Codifferential.isothermal(("1", "0"))
    v = decide(m, c, BOX11)
    # G2 is tested first, and it does not vanish
    assert v.status == "Incompatible" and v.failed == "G2"
    assert v.trace[-1].verdict.method == "exact"
    # the witness is proved by exact evaluation of the failed invariant
    eng = InvariantEngine(m, c, BOX11)
    exact = nf_at(to_nf(eng.gee2), *map(Fraction, v.witness))
    assert exact != 0 and float(exact) == v.witness_value


@pytest.mark.parametrize("lam, status", [
    ("2 + x/3 + y^2/5", "Incompatible"),
    ("4 + x^2 + y^2/4", "CompatibleWithFormula"),
])
def test_rational_pair_is_decided_without_float_code(monkeypatch, lam,
                                                      status):
    # every zero test of a rational normal form is exact, and the walk
    # orders no test by a float value, so no float code is compiled
    calls = []
    compile_float = expr.compile_float

    def counting(*roots, **kw):
        calls.append(roots)
        return compile_float(*roots, **kw)

    monkeypatch.setattr(expr, "compile_float", counting)
    v = decide(isothermal_metric(lam), Codifferential.isothermal(("1", "0")),
               BOX11)
    assert v.status == status
    if v.is_compatible:
        assert certificate_all_zero(v.certificate)
    assert calls == []


def test_decide_differentiates_each_tree_once(monkeypatch):
    # the constant-curvature box and the G brackets read one pair of
    # gradient trees per invariant, which the engine keeps
    import importlib
    calls = []
    for name in ("decision", "invariants", "pseudo", "verify"):
        mod = importlib.import_module("cubint." + name)
        if hasattr(mod, "diff"):
            real = mod.diff

            def counted(e, v, real=real):
                calls.append((e, v))
                return real(e, v)
            monkeypatch.setattr(mod, "diff", counted)
    v = decide(isothermal_metric("2 + x/3 + y^2/5"),
               Codifferential.isothermal(("1", "0")), BOX11)
    assert v.status == "Incompatible" and v.failed == "G2"
    assert calls and len(set(calls)) == len(calls)


@pytest.mark.parametrize("decider, metric, codiff", [
    (decide, isothermal_metric("4 + x^2 + y^2/4"),
     Codifferential.isothermal(("1", "0"))),
    (decide_pseudo, null_metric("1 + x^2/2 + 2*y^2"),
     Codifferential.null_pair("0", "0")),
])
def test_banded_phi2_decides_with_formula(decider, metric, codiff):
    v = decider(metric, codiff, BOX11)
    assert v.status == "CompatibleWithFormula"
    assert certificate_all_zero(v.certificate)


def test_large_coefficient_metric_is_not_constant_curvature():
    v = decide(isothermal_metric("1 + 10^200*x^2"),
               Codifferential.isothermal(("0", "-1")), BOX11)
    assert v.status == "CompatibleKilling"
    assert v.path() == KILLING_PATH


def _assert_incompatible_at_g2_by_enclosure(lam):
    m = isothermal_metric(lam)
    c = Codifferential.isothermal(("1", "0"))
    v = decide(m, c, BOX11)
    assert v.status == "Incompatible" and v.failed == "G2"
    assert v.trace[-1].verdict.method == "enclosure"
    # the witness is proved by an enclosure that excludes 0
    lo, hi = nf_at(to_nf(InvariantEngine(m, c, BOX11).gee2),
                   *map(Fraction, v.witness))
    assert lo > 0 or hi < 0
    assert float((lo + hi) / 2) == v.witness_value


def test_nonzero_obstruction_with_exp_atom_is_not_zero():
    # G2 and G3 of this pair are nonzero (|G2| from 1.4e-11 to 2.6e-9 at
    # four points, by 60-digit evaluation), far below the largest node of
    # their trees, which a float threshold once scaled by
    _assert_incompatible_at_g2_by_enclosure("2 + exp(x*y)")


def test_nonzero_obstruction_with_cos_atoms_is_not_zero():
    # G2 of this pair runs from 1.1e-18 to -2.8e-9 at four points (60-digit
    # evaluation); its normal form has hundreds of terms over a power of
    # the conformal factor
    _assert_incompatible_at_g2_by_enclosure("2 + cos(x)*cos(y)")
