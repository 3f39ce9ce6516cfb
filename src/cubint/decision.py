"""The compatibility decision for one (metric, codifferential) pair.

A cubic first integral of the geodesic flow exists for a given metric and
cubic codifferential exactly when a chain of curvature-differential
conditions holds.  `decide` walks that chain with tri-state zero tests,
never guessing: every branching condition that comes back Unknown aborts
the walk with an Undetermined verdict naming the ambiguous box.

Where a closed formula applies (the generic bracket-nondegenerate
branches), the candidate tensor F is assembled explicitly and certified
by the independent canonical-bracket route before the verdict is issued;
a certificate that fails to come back all-Zero downgrades the claim to
Undetermined rather than asserting compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .expr import (Box, DEFAULT_CFG, Expr, ZeroTestConfig, ZeroVerdict,
                   _combine, is_zero)
from .geometry import ChartMismatch, Metric
from .invariants import (Codifferential, DEFAULT_DOMAIN, DegenerateBracket,
                         InvariantEngine)
from .tensorcoords import SymTensor3
from .verify import bracket_certificate

__all__ = ["Verdict", "TraceStep", "decide",
           "CONST_CURVATURE_NOTE", "KILLING_NOTE"]

CONST_CURVATURE_NOTE = ("10-dim family exists iff D₀=0; 3-parameter family "
                        "per Prop. 3.1; construction not produced")
KILLING_NOTE = "verdict per Prop. 4.2; construction not produced"


@dataclass
class TraceStep:
    """One flowchart box together with the zero-test outcome that chose
    the outgoing edge (None for boxes that are not conditions)."""
    box: str
    verdict: Optional[ZeroVerdict]


@dataclass
class Verdict:
    """Outcome of the decision walk.

    status is one of CompatibleWithFormula / CompatibleConstCurvature /
    CompatibleKilling / Incompatible / Undetermined; the remaining fields
    are populated according to the status (the formula statuses carry the
    tensor F, the branch it came from and its bracket certificate;
    Incompatible carries the failed condition and its witness)."""
    status: str
    trace: List[TraceStep]
    f: Optional[SymTensor3] = None
    via: Optional[str] = None
    note: Optional[str] = None
    failed: Optional[str] = None
    witness: Optional[Tuple[float, float]] = None
    witness_value: Optional[float] = None
    reason: Optional[str] = None
    certificate: Optional[Dict[Tuple[int, int], ZeroVerdict]] = None

    @property
    def is_compatible(self) -> bool:
        return self.status.startswith("Compatible")

    @property
    def is_incompatible(self) -> bool:
        return self.status == "Incompatible"

    def path(self) -> List[str]:
        return [s.box for s in self.trace]

    def __repr__(self):
        bits = [self.status]
        if self.via:
            bits.append("via %s" % self.via)
        if self.failed:
            bits.append("failed %s at %s" % (self.failed, self.witness))
        if self.reason:
            bits.append(self.reason)
        return "Verdict(%s)" % ", ".join(bits)


def _undetermined(trace, reason, **extra) -> Verdict:
    return Verdict("Undetermined", trace, reason=reason, **extra)


def _incompatible(trace, name, v: ZeroVerdict) -> Verdict:
    return Verdict("Incompatible", trace, failed=name,
                   witness=v.witness, witness_value=v.value)


def _formula_branch(eng: InvariantEngine, trace, zs, domain, cfg,
                    gees, kay_getter: Callable, via: str) -> Verdict:
    """Common tail of the two explicit-formula branches: test the pair of
    obstruction scalars, assemble F, certify it.

    The pair is tested in the paper's order, G2 before G3 (G*2 before
    G*3), and the first NonZero ends the walk Incompatible."""
    label = "Are %s and %s == 0?" % (gees[0][0], gees[1][0])
    named = []
    for name, e in gees:
        v = zs(e)
        named.append((name, v))
        if v.is_nonzero:
            trace.append(TraceStep(label, v))
            return _incompatible(trace, name, v)
    trace.append(TraceStep(label, _combine(*[v for _, v in named])))
    for name, v in named:
        if v.is_unknown:
            return _undetermined(trace, label)
    try:
        kay = kay_getter()
    except DegenerateBracket as exc:
        return _undetermined(trace, str(exc))
    f = eng.f_tensor(kay)
    cert = bracket_certificate(eng.metric, f.to_momentum_poly(), domain, cfg)
    cv = _combine(*cert.values())
    trace.append(TraceStep("Certificate {F, H} == 0", cv))
    if cv.is_zero:
        return Verdict("CompatibleWithFormula", trace, f=f, via=via,
                       certificate=cert)
    return _undetermined(trace, "certificate failed", f=f, via=via,
                         certificate=cert)


def _dform_test(trace, zs, vx: ZeroVerdict, vy: ZeroVerdict,
                pair_x, pair_y, label: str) -> Optional[Verdict]:
    """Degenerate-bracket 1-form test.  The form whose phi0-derivative is
    certified NonZero is consulted; when both qualify their verdicts must
    agree.  Returns None when the walk may continue (forms vanish)."""
    cands = []
    if vx.is_nonzero:
        cands.append(pair_x)
    if vy.is_nonzero:
        cands.append(pair_y)
    if not cands:
        u = ZeroVerdict.unknown("no coordinate with a NonZero phi0-derivative")
        trace.append(TraceStep(label, u))
        return _undetermined(trace, label)
    named = [(name, zs(e)) for name, e in cands]
    kinds = {v.kind for _, v in named}
    if "unknown" in kinds or len(kinds) > 1:
        u = ZeroVerdict.unknown("1-form verdicts ambiguous: %s"
                                % {n: v.kind for n, v in named})
        trace.append(TraceStep(label, u))
        return _undetermined(trace, label)
    name, v = named[0]
    trace.append(TraceStep(label, _combine(*[w for _, w in named])))
    if v.is_nonzero:
        return _incompatible(trace, name, v)
    return None


def decide(metric: Metric, codiff: Codifferential,
           domain: Box = DEFAULT_DOMAIN,
           cfg: ZeroTestConfig = DEFAULT_CFG) -> Verdict:
    """Walk the decision flowchart for a Riemannian-signature pair.

    Raises HolomorphicityViolated for an inadmissible codifferential and
    ChartMismatch for split-signature metrics (those are decided by the
    translated machinery in the pseudo module)."""
    if metric.signature == -1:
        raise ChartMismatch(
            "split-signature metrics are decided by decide_pseudo")
    eng = InvariantEngine(metric, codiff, domain, cfg)
    eng.check_holomorphic()
    return _decision_walk(eng, domain, cfg, phi1_guard=False)


def _decision_walk(eng: InvariantEngine, domain: Box, cfg: ZeroTestConfig,
                   phi1_guard: bool) -> Verdict:
    """The flowchart body shared by the Riemannian and split-signature
    deciders.  phi1_guard inserts the extra box that rules out the
    nonconstant-curvature null-gradient class before any bracket test."""

    def zs(e: Expr) -> ZeroVerdict:
        return is_zero(e, domain, cfg)

    trace: List[TraceStep] = [TraceStep("Input g and A", None)]

    # (i) constant curvature short-circuit; the G brackets read the same
    # gradient trees of phi0
    vx, vy = map(zs, eng._gradient("phi0"))
    const_v = _combine(vx, vy)
    trace.append(TraceStep("Is phi0 constant?", const_v))
    if const_v.is_unknown:
        return _undetermined(trace, "Is phi0 constant?")
    if const_v.is_zero:
        v0 = zs(eng.dee0)
        trace.append(TraceStep("Is D0 == 0?", v0))
        if v0.is_zero:
            return Verdict("CompatibleConstCurvature", trace,
                           note=CONST_CURVATURE_NOTE)
        if v0.is_nonzero:
            return _incompatible(trace, "D0", v0)
        return _undetermined(trace, "Is D0 == 0?")

    if phi1_guard:
        # curvature already known nonconstant here, so a vanishing
        # curvature-gradient modulus kills the pair outright
        v1 = zs(eng.phi1)
        trace.append(TraceStep("Is phi1 == 0?", v1))
        if v1.is_unknown:
            return _undetermined(trace, "Is phi1 == 0?")
        if v1.is_zero:
            return Verdict("Incompatible", trace,
                           failed="Prop. 6.7: phi1 == 0 with nonconstant "
                                  "curvature",
                           reason="Prop. qub-phi1")

    # (ii)/(iii) split on the phi-bracket
    v2 = zs(eng.phi2)
    trace.append(TraceStep("Is phi2 == 0?", v2))
    if v2.is_unknown:
        return _undetermined(trace, "Is phi2 == 0?")
    if v2.is_nonzero:
        return _formula_branch(eng, trace, zs, domain, cfg,
                               (("G2", eng.gee2), ("G3", eng.gee3)),
                               lambda: eng.kay, "Thm1.1")

    out = _dform_test(trace, zs, vx, vy,
                      ("Dx", eng.dform_x), ("Dy", eng.dform_y),
                      "D-form test")
    if out is not None:
        return out

    # (iv)/(v) split on the star bracket
    vs2 = zs(eng.phistar2)
    trace.append(TraceStep("Is phi*2 == 0?", vs2))
    if vs2.is_unknown:
        return _undetermined(trace, "Is phi*2 == 0?")
    if vs2.is_nonzero:
        return _formula_branch(eng, trace, zs, domain, cfg,
                               (("G*2", eng.geestar2),
                                ("G*3", eng.geestar3)),
                               lambda: eng.kaystar, "Thm1.2")

    out = _dform_test(trace, zs, vx, vy,
                      ("D*x", eng.dformstar_x), ("D*y", eng.dformstar_y),
                      "D*-form test")
    if out is not None:
        return out
    return Verdict("CompatibleKilling", trace, note=KILLING_NOTE)
