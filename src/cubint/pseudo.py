"""Split-signature (null-chart) compatibility machinery.

For metrics written as lam(x, y) dx dy the two null coordinates play the
roles that z and zbar play in the Riemannian development, and every
invariant translates verbatim once the single holomorphic coefficient is
replaced by a quasi-holomorphic pair (a1 depending on x only, a2 on y
only).  This module packages the translated lane end to end: the
admissibility check for the pair, the five translated first-order
bracket coefficients, the decision walk with its one extra obstruction
(a vanishing curvature-gradient modulus away from constant curvature is
fatal), and the local normal form for the metrics realising that
degenerate situation.
"""

from __future__ import annotations

from typing import Tuple

from .decision import TraceStep, Verdict, _decision_walk
from .expr import (Box, DEFAULT_CFG, Expr, Rat, ZeroTestConfig, ZeroVerdict,
                   _combine, as_expr, diff, is_zero, nf_diff, parse, to_nf)
from .geometry import ChartMismatch, Metric, null_metric
from .invariants import Codifferential, DEFAULT_DOMAIN, InvariantEngine
from .verify import MomentumPoly, _structured_null, bracket_certificate

__all__ = ["quasi_holo_check", "bracket_FH_null", "decide_pseudo",
           "normal_form_metric"]

# the five quartic coefficients of {F, H}, highest px-power first
QUARTIC_ORDER = ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4))


def _as_null_codiff(codiff) -> Codifferential:
    if isinstance(codiff, Codifferential):
        if codiff.variant != "null":
            raise ChartMismatch(
                "the split-signature lane takes a null-pair codifferential")
        return codiff
    if isinstance(codiff, tuple) and len(codiff) == 2:
        return Codifferential.null_pair(*codiff)
    raise TypeError("expected a null-pair Codifferential or an (a1, a2) pair")


def quasi_holo_check(codiff, metric: Metric = None,
                     domain: Box = DEFAULT_DOMAIN,
                     cfg: ZeroTestConfig = DEFAULT_CFG
                     ) -> Tuple[ZeroVerdict, ZeroVerdict]:
    """Admissibility of a null-chart pair (a1, a2).

    The pair stands in for a holomorphic coefficient, so a1 may depend on
    x only and a2 on y only; the two returned verdicts are the zero tests
    of da1/dy and da2/dx.  Either coming back NonZero means the pair is
    inadmissible and its witness locates the violation."""
    if metric is not None and metric.kind != "null":
        raise ChartMismatch("quasi-holomorphicity lives on null charts")
    c = _as_null_codiff(codiff)
    return (is_zero(diff(c.a1, "y"), domain, cfg),
            is_zero(diff(c.a2, "x"), domain, cfg))


def _cubic_poly(f) -> MomentumPoly:
    """Coerce the candidate F into a momentum-cubic MomentumPoly.

    Accepts a MomentumPoly, anything with to_momentum_poly (the symmetric
    tensor), or a bare 4-tuple of coefficients (A1, B1, B2, A2) for
    A1 px^3 + B1 px^2 py + B2 px py^2 + A2 py^3."""
    if isinstance(f, tuple) and len(f) == 4:
        conv = lambda v: parse(v) if isinstance(v, str) else as_expr(v)
        a1, b1, b2, a2 = (conv(v) for v in f)
        return MomentumPoly({(3, 0): a1, (2, 1): b1, (1, 2): b2, (0, 3): a2})
    if not isinstance(f, MomentumPoly):
        f = f.to_momentum_poly()
    if any(i + j != 3 for (i, j) in f.coeffs):
        raise ValueError("bracket_FH_null expects a momentum-cubic F")
    return f


def bracket_FH_null(f, metric: Metric) -> Tuple[Expr, ...]:
    """The five quartic coefficients of {F, H} on a null chart.

    With F = A1 px^3 + B1 px^2 py + B2 px py^2 + A2 py^3 and H the
    geodesic Hamiltonian of lam dx dy, the bracket is quartic in the
    momenta and each coefficient is first-order in (A1, B1, B2, A2) and
    lam.  Returned in the order px^4, px^3 py, px^2 py^2, px py^3, py^4;
    F is a first integral exactly when all five vanish."""
    if metric.kind != "null":
        raise ChartMismatch("bracket_FH_null takes a null-chart metric")
    br = _structured_null(metric, _cubic_poly(f))
    z = as_expr(0)
    return tuple(br.coeffs.get(k, z) for k in QUARTIC_ORDER)


def decide_pseudo(metric: Metric, codiff,
                  domain: Box = DEFAULT_DOMAIN,
                  cfg: ZeroTestConfig = DEFAULT_CFG) -> Verdict:
    """Decision walk for a split-signature pair.

    The flowchart is the Riemannian one run on the translated invariants,
    with one extra box right after the constant-curvature test: when the
    curvature is nonconstant but |grad R|^2 == 0 the pair is incompatible
    outright (the verdict cites Prop. 6.7), before any bracket splitting
    is attempted.  A walk that ends in the constant-curvature family
    additionally certifies the naive candidate F built from the pair
    itself and attaches the certificate when it passes.

    Raises HolomorphicityViolated when the pair fails quasi_holo_check
    and ChartMismatch for non-null metrics."""
    if metric.kind != "null":
        raise ChartMismatch(
            "decide_pseudo takes a null-chart metric; Riemannian pairs go "
            "through decide")
    c = _as_null_codiff(codiff)
    eng = InvariantEngine(metric, c, domain, cfg)
    eng.check_holomorphic()
    v = _decision_walk(eng, domain, cfg, phi1_guard=True)
    if v.status == "CompatibleConstCurvature":
        f = c.a_hat_for()
        cert = bracket_certificate(metric, f.to_momentum_poly(), domain, cfg)
        cv = _combine(*cert.values())
        if cv.is_zero:
            v.trace.append(TraceStep("Certificate {F, H} == 0", cv))
            v.f = f
            v.certificate = cert
    return v


def normal_form_metric(f) -> Metric:
    """The null metric lam = 1/(y + f(x))^2 for a profile f of x alone.

    Away from constant curvature, every split-signature metric with
    |grad R|^2 == 0 is locally of this shape, and its curvature is read
    straight off the profile: R = 2 df/dx."""
    prof = parse(f) if isinstance(f, str) else as_expr(f)
    if not nf_diff(to_nf(prof), "y").is_zero():
        raise ValueError("normal-form profile must be a function of x only")
    base = parse("y") + prof
    return null_metric(Rat(1) / (base * base))
