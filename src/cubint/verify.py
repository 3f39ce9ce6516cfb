"""Independent verification layer.

Two deliberately separate ways to check a claimed first integral F of the
geodesic flow of g:

* symbolically: the canonical Poisson bracket {F, H} computed coefficient
  by coefficient on momentum polynomials, with a tri-state zero certificate
  per coefficient (this route knows nothing about weighted sections or
  chart lanes — it is the oracle the structured machinery is tested
  against);
* numerically: fixed-step RK4 integration of the geodesic equations with
  drift reports for H and F.
"""

from __future__ import annotations

import contextlib
import math
import os
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .cnum import _c_mul, _wirtinger
from .expr import (
    Box, EvalDomainError, Expr, ZeroTestConfig, ZeroVerdict, as_expr,
    _NF_ZERO, compile_float, diff, is_zero, nf_diff, nf_mul, nf_neg, nf_recip,
    nf_scale, nf_sum, nf_to_expr, to_nf, to_str, DEFAULT_CFG,
)
from .geometry import HALF, Metric

__all__ = [
    "MomentumPoly", "hamiltonian_poly", "canonical_bracket",
    "canonical_bracket_FH", "bracket_FH", "homogeneous_components",
    "bracket_certificate", "certificate_all_zero",
    "integrate_geodesic", "conservation_report",
]


class MomentumPoly:
    """A polynomial in the momenta (px, py) with Expr coefficients,
    stored as {(i, j): coefficient of px^i py^j}.

    Each coefficient is the tree of a nonzero normal form (NF) and carries
    it; the algebra combines the NFs, with one nf_sum and one tree per
    coefficient of its result (_poly)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[Tuple[int, int], Expr]] = None):
        self.coeffs = _poly(((int(k[0]), int(k[1])), to_nf(as_expr(v)))
                            for k, v in (coeffs or {}).items()).coeffs

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "MomentumPoly") -> "MomentumPoly":
        return _poly((k, to_nf(v)) for p in (self, other)
                     for k, v in p.coeffs.items())

    def __sub__(self, other: "MomentumPoly") -> "MomentumPoly":
        return _poly([*((k, to_nf(v)) for k, v in self.coeffs.items()),
                      *((k, nf_neg(to_nf(v))) for k, v in other.coeffs.items())])

    def __mul__(self, other: "MomentumPoly") -> "MomentumPoly":
        return _poly(((i1 + i2, j1 + j2), nf_mul(to_nf(c1), to_nf(c2)))
                     for (i1, j1), c1 in self.coeffs.items()
                     for (i2, j2), c2 in other.coeffs.items())

    def is_trivial(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, MomentumPoly) and other.coeffs == self.coeffs

    def __repr__(self):
        if not self.coeffs:
            return "MomentumPoly(0)"
        bits = []
        for (i, j) in sorted(self.coeffs, key=lambda k: (-(k[0] + k[1]), -k[0])):
            mon = "*".join(([f"px^{i}"] if i else []) + ([f"py^{j}"] if j else []))
            bits.append(f"({to_str(self.coeffs[(i, j)])})" + (f"*{mon}" if mon else ""))
        return "MomentumPoly(" + " + ".join(bits) + ")"


def _poly(terms) -> MomentumPoly:
    """The MomentumPoly of (key, NF) pairs: one nf_sum of the normal forms
    at each key, zero sums dropped, one tree per remaining key."""
    sums: Dict[Tuple[int, int], list] = {}
    for k, a in terms:
        sums.setdefault(k, []).append(a)
    p = object.__new__(MomentumPoly)
    p.coeffs = {}
    for k, nfs in sums.items():
        s = nf_sum(nfs)
        if not s.is_zero():
            p.coeffs[k] = nf_to_expr(s)
    return p


def hamiltonian_poly(metric: Metric) -> MomentumPoly:
    """H = (1/2) g^{ij} p_i p_j as a momentum polynomial."""
    i11, i12, i22 = (to_nf(c) for c in metric.inv)
    return _poly((((2, 0), nf_scale(i11, HALF)), ((1, 1), i12),
                  ((0, 2), nf_scale(i22, HALF))))


def canonical_bracket(f: MomentumPoly, h: MomentumPoly) -> MomentumPoly:
    """{f, h} = sum_i (df/dx^i dh/dp_i - df/dp_i dh/dx^i).

    Terms c1 px^i1 py^j1 of f and c2 px^i2 py^j2 of h give
    (i2 dc1/dx c2 - i1 c1 dc2/dx) px^(i1+i2-1) py^(j1+j2) and the like
    term in y; each coefficient of the result is one nf_sum of these
    products."""
    fs = [(k, to_nf(c)) for k, c in f.coeffs.items()]
    hs = [(k, to_nf(c)) for k, c in h.coeffs.items()]
    terms = []
    for (i1, j1), c1 in fs:
        for (i2, j2), c2 in hs:
            for v, n1, n2, k in (("x", i1, i2, (i1 + i2 - 1, j1 + j2)),
                                 ("y", j1, j2, (i1 + i2, j1 + j2 - 1))):
                if n2:
                    terms.append((k, nf_scale(nf_mul(nf_diff(c1, v), c2), n2)))
                if n1:
                    terms.append((k, nf_scale(nf_mul(c1, nf_diff(c2, v)), -n1)))
    return _poly(terms)


def canonical_bracket_FH(metric: Metric, f: MomentumPoly) -> MomentumPoly:
    """Canonical bracket of f with the geodesic Hamiltonian of the metric."""
    return canonical_bracket(f, hamiltonian_poly(metric))


def _pq_monomials(i: int, j: int) -> Dict[Tuple[int, int], Tuple[Fraction, Fraction]]:
    """Expand p^i pbar^j, with p = (px - i py)/2, into real momentum
    monomials: {(m, n): (Re coeff, Im coeff)} of px^m py^n."""
    acc = {(0, 0): (Fraction(1), Fraction(0))}

    def times_linear(table, sign):
        # multiply by (px + sign * i * py)
        out: Dict[Tuple[int, int], Tuple[Fraction, Fraction]] = {}
        for (m, n), (re, im) in table.items():
            r, s = out.get((m + 1, n), (Fraction(0), Fraction(0)))
            out[(m + 1, n)] = (r + re, s + im)
            r, s = out.get((m, n + 1), (Fraction(0), Fraction(0)))
            out[(m, n + 1)] = (r - sign * im, s + sign * re)
        return out

    for _ in range(i):
        acc = times_linear(acc, -1)
    for _ in range(j):
        acc = times_linear(acc, +1)
    scale = Fraction(1, 2 ** (i + j))
    return {k: (re * scale, im * scale) for k, (re, im) in acc.items()}


def _cubic_nfs(f: MomentumPoly):
    """The normal forms of f's px^3, px^2 py, px py^2, py^3 coefficients."""
    return [to_nf(f.coeffs[k]) if k in f.coeffs else _NF_ZERO
            for k in ((3, 0), (2, 1), (1, 2), (0, 3))]


def _structured_iso(metric: Metric, f: MomentumPoly) -> MomentumPoly:
    """Weighted-calculus form of {F, H} for an isothermal metric.

    The cubic F = Re(a p^3 + b p^2 pbar) brackets to
    (2 / lam^2) Re(p^4 lam a_zbar + p^3 pbar (b lam_zbar + 3 a lam_z
    + lam b_zbar + lam a_z) + p^2 pbar^2 (2 b lam_z + lam b_z)),
    with the complex values as (re, im) pairs of normal forms.
    """
    f30, f21, f12, f03 = _cubic_nfs(f)
    a = (nf_scale(nf_sum([f30, nf_neg(f12)]), 2),
         nf_scale(nf_sum([f21, nf_neg(f03)]), 2))
    b = (nf_sum([nf_scale(f30, 6), nf_scale(f12, 2)]),
         nf_sum([nf_scale(f21, 2), nf_scale(f03, 6)]))
    lam = (to_nf(metric.lam), _NF_ZERO)
    lam_z, lam_zb = _wirtinger(lam, -1), _wirtinger(lam, 1)
    r = nf_recip(lam[0])
    pref = nf_scale(nf_mul(r, r), 2)
    terms = []
    # (i, j, w, c): the term w c p^i pbar^j inside Re(...)
    for i, j, w, (re, im) in (
            (4, 0, 1, _c_mul(lam, _wirtinger(a, 1))),
            (3, 1, 1, _c_mul(b, lam_zb)), (3, 1, 3, _c_mul(a, lam_z)),
            (3, 1, 1, _c_mul(lam, _wirtinger(b, 1))),
            (3, 1, 1, _c_mul(lam, _wirtinger(a, -1))),
            (2, 2, 2, _c_mul(b, lam_z)), (2, 2, 1, _c_mul(lam, _wirtinger(b, -1)))):
        re, im = nf_mul(pref, re), nf_mul(pref, im)
        for mono, (re_w, im_w) in _pq_monomials(i, j).items():
            terms += [(mono, nf_scale(re, w * re_w)),
                      (mono, nf_scale(im, -w * im_w))]
    return _poly(terms)


def _structured_null(metric: Metric, f: MomentumPoly) -> MomentumPoly:
    """Translated form of {F, H} for a null metric: with
    F = A1 px^3 + A2 py^3 + (B1 px + B2 py) px py, the five quartic
    coefficients are first derivatives of (A1, A2, B1, B2) and lam."""
    a1, b1, b2, a2 = _cubic_nfs(f)
    lam = to_nf(metric.lam)
    lx, ly = nf_diff(lam, "x"), nf_diff(lam, "y")
    inv1 = nf_scale(nf_recip(lam), 2)
    inv2 = nf_mul(inv1, nf_recip(lam))

    def mid(p, q, np, nq):
        # inv2 * (lam (p_x + q_y) + np p lam_x + nq q lam_y)
        return nf_mul(inv2, nf_sum([
            nf_mul(lam, nf_sum([nf_diff(p, "x"), nf_diff(q, "y")])),
            nf_scale(nf_mul(p, lx), np), nf_scale(nf_mul(q, ly), nq)]))
    return _poly((((4, 0), nf_mul(inv1, nf_diff(a1, "y"))),
                  ((3, 1), mid(a1, b1, 3, 1)),
                  ((2, 2), mid(b1, b2, 2, 2)),
                  ((1, 3), mid(b2, a2, 1, 3)),
                  ((0, 4), nf_mul(inv1, nf_diff(a2, "x")))))


def bracket_FH(metric: Metric, f) -> MomentumPoly:
    """{F, H} for a cubic F, via the chart-adapted structured route.

    Isothermal and null metrics use the first-order structured formulas
    (validated against canonical_bracket_FH, which remains the oracle);
    general metrics and non-cubic polynomials fall back to the canonical
    route.  `f` may be a MomentumPoly or any object with
    to_momentum_poly() (a symmetric 3-tensor).
    """
    if not isinstance(f, MomentumPoly):
        f = f.to_momentum_poly()
    cubic = all(i + j == 3 for (i, j) in f.coeffs)
    if cubic and metric.kind == "iso":
        return _structured_iso(metric, f)
    if cubic and metric.kind == "null":
        return _structured_null(metric, f)
    return canonical_bracket_FH(metric, f)


def homogeneous_components(p: MomentumPoly) -> Dict[int, MomentumPoly]:
    out: Dict[int, Dict[Tuple[int, int], Expr]] = {}
    for (i, j), c in p.coeffs.items():
        out.setdefault(i + j, {})[(i, j)] = c
    return {d: MomentumPoly(cs) for d, cs in sorted(out.items())}


def bracket_certificate(metric: Metric, f: MomentumPoly, domain: Box,
                        cfg: ZeroTestConfig = DEFAULT_CFG
                        ) -> Dict[Tuple[int, int], ZeroVerdict]:
    """Tri-state zero verdict for every momentum coefficient of {f, H}.

    Certification deliberately runs the canonical route, independent of
    the structured formulas used to construct candidate integrals.
    An empty dict means the bracket is the zero polynomial on the nose.
    """
    br = canonical_bracket_FH(metric, f)
    return {k: is_zero(v, domain, cfg) for k, v in sorted(br.coeffs.items())}


def certificate_all_zero(cert: Dict[Tuple[int, int], ZeroVerdict]) -> bool:
    return all(v.is_zero for v in cert.values())


# --------------------------------------------------------------------------
# numeric side: RK4 geodesic flow on expr's compiled float code

def integrate_geodesic(metric: Metric, state0, dt: float, steps: int):
    """Fixed-step RK4 for Hamilton's equations of H = (1/2) g^{ij} p_i p_j.

    state0 = (x, y, px, py); returns the list of (t, x, y, px, py).
    Raises EvalDomainError when a step fails to evaluate or leaves a
    non-finite state (the trajectory left the metric's domain).
    """
    inv = metric.inv
    # g^{11}, g^{12}, g^{22}, their x-derivatives, their y-derivatives
    rhs = compile_float(*inv, *(diff(c, v) for v in ("x", "y") for c in inv),
                        returns="({0} * px + {1} * py, {1} * px + {2} * py,"
                        " -(0.5 * {3} * px * px + {4} * px * py"
                        " + 0.5 * {5} * py * py),"
                        " -(0.5 * {6} * px * px + {7} * px * py"
                        " + 0.5 * {8} * py * py))")
    x, y, px, py = (float(v) for v in state0)
    out = [(0.0, x, y, px, py)]
    t = 0.0
    h = 0.5 * dt
    h6 = dt / 6.0
    isfinite = math.isfinite
    for _ in range(steps):
        try:
            ax, ay, apx, apy = rhs(x, y, px, py)
            bx, by, bpx, bpy = rhs(x + h * ax, y + h * ay,
                                   px + h * apx, py + h * apy)
            cx, cy, cpx, cpy = rhs(x + h * bx, y + h * by,
                                   px + h * bpx, py + h * bpy)
            dx, dy, dpx, dpy = rhs(x + dt * cx, y + dt * cy,
                                   px + dt * cpx, py + dt * cpy)
        except EvalDomainError as exc:
            raise EvalDomainError("%s near t = %g" % (exc, t)) from None
        # float arithmetic raises nothing here: an overflow gives inf,
        # which the finiteness check below reports
        x += h6 * (ax + 2 * bx + 2 * cx + dx)
        y += h6 * (ay + 2 * by + 2 * cy + dy)
        px += h6 * (apx + 2 * bpx + 2 * cpx + dpx)
        py += h6 * (apy + 2 * bpy + 2 * cpy + dpy)
        t += dt
        if not (isfinite(x) and isfinite(y)
                and isfinite(px) and isfinite(py)):
            raise EvalDomainError("non-finite state at t = %g" % t)
        out.append((t, x, y, px, py))
    return out


def conservation_report(metric: Metric, trajectory,
                        f: Optional[MomentumPoly] = None,
                        csv_path=None) -> dict:
    """Max absolute drift of H (and of F, when given) along a trajectory.

    H and F are evaluated once per point, by one compiled function that
    returns both sums.  With csv_path, the trajectory is also written
    there as CSV with columns t,x,y,px,py,H,F (F empty without f), in the
    csv module's default dialect, one row per point as it is computed.
    When H or F fails to evaluate or overflows, an EvalDomainError is
    raised and the partial file is removed if it is a regular file."""
    h = hamiltonian_poly(metric)
    f_coeffs = f.coeffs if f is not None else {}
    # c * px ** i * py ** j per monomial, each sum from 0.0 in
    # monomial order
    terms = ["{%d} * px ** %d * py ** %d" % (k, i, j)
             for k, (i, j) in enumerate([*h.coeffs, *f_coeffs])]
    n_h = len(h.coeffs)
    h_and_f = compile_float(
        *h.coeffs.values(), *f_coeffs.values(),
        returns="(%s, %s)" % (" + ".join(["0.0", *terms[:n_h]]),
                              " + ".join(["0.0", *terms[n_h:]])))
    # the csv module's default dialect: no quoting needed, \r\n line ends;
    # without f the F field is empty ("%.0s" prints no character of it)
    row = ("%.10g,%.16g,%.16g,%.16g,%.16g,%.16g,"
           + ("%.16g\r\n" if f is not None else "%.0s\r\n"))
    h0 = f0 = None
    h_drift = f_drift = 0.0
    with (open(csv_path, "w", newline="") if csv_path is not None
          else contextlib.nullcontext()) as fh:
        write = None
        if fh is not None:
            write = fh.write
            write("t,x,y,px,py,H,F\r\n")
        for (t, x, y, px, py) in trajectory:
            try:
                hv, fv = h_and_f(x, y, px, py)
            except EvalDomainError:
                if fh is not None:
                    fh.close()
                    # only the partial rows go: never a device like /dev/null
                    if os.path.isfile(csv_path):
                        os.remove(csv_path)
                raise
            if h0 is None:
                h0, f0 = hv, fv
            d = abs(hv - h0)
            if d > h_drift:
                h_drift = d
            d = abs(fv - f0)
            if d > f_drift:
                f_drift = d
            if write is not None:
                write(row % (t, x, y, px, py, hv, fv))
    out = {"steps": len(trajectory) - 1, "H0": h0, "H_drift": h_drift}
    if f is not None:
        out["F0"] = f0
        out["F_drift"] = f_drift
    return out
