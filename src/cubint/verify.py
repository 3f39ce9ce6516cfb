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

from .cnum import CExpr, wirtinger_z, wirtinger_zbar
from .expr import (
    Box, EvalDomainError, Expr, Rat, ZeroTestConfig, ZeroVerdict, as_expr,
    compile_float, diff, is_zero, nf_is_zero, simplify, to_str, DEFAULT_CFG,
)
from .geometry import Metric

__all__ = [
    "MomentumPoly", "hamiltonian_poly", "canonical_bracket",
    "canonical_bracket_FH", "bracket_FH", "homogeneous_components",
    "bracket_certificate", "certificate_all_zero",
    "integrate_geodesic", "conservation_report",
]


class MomentumPoly:
    """A polynomial in the momenta (px, py) with Expr coefficients,
    stored as {(i, j): coefficient of px^i py^j}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Dict[Tuple[int, int], Expr]] = None):
        cl: Dict[Tuple[int, int], Expr] = {}
        for k, v in (coeffs or {}).items():
            e = simplify(as_expr(v))
            if not nf_is_zero(e):
                cl[(int(k[0]), int(k[1]))] = e
        self.coeffs = cl

    # -- algebra -------------------------------------------------------
    def __add__(self, other: "MomentumPoly") -> "MomentumPoly":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return MomentumPoly(out)

    def __sub__(self, other: "MomentumPoly") -> "MomentumPoly":
        return self + other.scaled(Rat(-1))

    def __mul__(self, other: "MomentumPoly") -> "MomentumPoly":
        out: Dict[Tuple[int, int], Expr] = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                t = c1 * c2
                out[k] = out[k] + t if k in out else t
        return MomentumPoly(out)

    def scaled(self, c) -> "MomentumPoly":
        c = as_expr(c)
        return MomentumPoly({k: c * v for k, v in self.coeffs.items()})

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

    # -- calculus ------------------------------------------------------
    def d_base(self, var: str) -> "MomentumPoly":
        """Derivative in a base variable x or y (acts on coefficients)."""
        return MomentumPoly({k: diff(v, var) for k, v in self.coeffs.items()})

    def d_momentum(self, which: str) -> "MomentumPoly":
        """Derivative in px or py (shifts momentum exponents)."""
        out: Dict[Tuple[int, int], Expr] = {}
        for (i, j), c in self.coeffs.items():
            if which == "px" and i > 0:
                out[(i - 1, j)] = Rat(i) * c
            elif which == "py" and j > 0:
                out[(i, j - 1)] = Rat(j) * c
        return MomentumPoly(out)


def hamiltonian_poly(metric: Metric) -> MomentumPoly:
    """H = (1/2) g^{ij} p_i p_j as a momentum polynomial."""
    i11, i12, i22 = metric.inv
    return MomentumPoly({(2, 0): Rat(1, 2) * i11,
                         (1, 1): i12,
                         (0, 2): Rat(1, 2) * i22})


def canonical_bracket(f: MomentumPoly, h: MomentumPoly) -> MomentumPoly:
    """{f, h} = sum_i (df/dx^i dh/dp_i - df/dp_i dh/dx^i)."""
    out = MomentumPoly({})
    for (base, mom) in (("x", "px"), ("y", "py")):
        out = out + f.d_base(base) * h.d_momentum(mom)
        out = out - f.d_momentum(mom) * h.d_base(base)
    return out


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


def _real_part_poly(terms) -> MomentumPoly:
    """Re(sum c * p^i pbar^j) for complex coefficients c as a MomentumPoly."""
    out: Dict[Tuple[int, int], Expr] = {}
    for c, i, j in terms:
        for mono, (re_w, im_w) in _pq_monomials(i, j).items():
            piece = (Rat(re_w.numerator, re_w.denominator) * c.re
                     - Rat(im_w.numerator, im_w.denominator) * c.im)
            out[mono] = out.get(mono, as_expr(0)) + piece
    return MomentumPoly(out)


def _structured_iso(metric: Metric, f: MomentumPoly) -> MomentumPoly:
    """Weighted-calculus form of {F, H} for an isothermal metric.

    The cubic F = Re(a p^3 + b p^2 pbar) brackets to
    (2 / lam^2) Re(p^4 lam a_zbar + p^3 pbar (b lam_zbar + 3 a lam_z
    + lam b_zbar + lam a_z) + p^2 pbar^2 (2 b lam_z + lam b_z)).
    """
    z = as_expr(0)
    f30 = f.coeffs.get((3, 0), z)
    f21 = f.coeffs.get((2, 1), z)
    f12 = f.coeffs.get((1, 2), z)
    f03 = f.coeffs.get((0, 3), z)
    a = CExpr(simplify(Rat(2) * (f30 - f12)), simplify(Rat(2) * (f21 - f03)))
    b = CExpr(simplify(Rat(6) * f30 + Rat(2) * f12),
              simplify(Rat(2) * f21 + Rat(6) * f03))
    lam = CExpr(metric.lam, z)
    lam_z = wirtinger_z(lam)
    lam_zb = wirtinger_zbar(lam)
    c4 = lam * wirtinger_zbar(a)
    c3 = (b * lam_zb + a * Rat(3) * lam_z
          + lam * wirtinger_zbar(b) + lam * wirtinger_z(a))
    c2 = b * Rat(2) * lam_z + lam * wirtinger_z(b)
    quartic = _real_part_poly(((c4, 4, 0), (c3, 3, 1), (c2, 2, 2)))
    pref = simplify(Rat(2) / (metric.lam * metric.lam))
    return quartic.scaled(pref)


def _structured_null(metric: Metric, f: MomentumPoly) -> MomentumPoly:
    """Translated form of {F, H} for a null metric: with
    F = A1 px^3 + A2 py^3 + (B1 px + B2 py) px py, the five quartic
    coefficients are first derivatives of (A1, A2, B1, B2) and lam."""
    z = as_expr(0)
    a1 = f.coeffs.get((3, 0), z)
    b1 = f.coeffs.get((2, 1), z)
    b2 = f.coeffs.get((1, 2), z)
    a2 = f.coeffs.get((0, 3), z)
    lam = metric.lam
    lx, ly = diff(lam, "x"), diff(lam, "y")
    inv1 = simplify(Rat(2) / lam)
    inv2 = simplify(Rat(2) / (lam * lam))
    out = {
        (4, 0): inv1 * diff(a1, "y"),
        (3, 1): inv2 * (lam * diff(a1, "x") + lam * diff(b1, "y")
                        + Rat(3) * a1 * lx + b1 * ly),
        (2, 2): inv2 * (lam * diff(b1, "x") + lam * diff(b2, "y")
                        + Rat(2) * b1 * lx + Rat(2) * b2 * ly),
        (1, 3): inv2 * (lam * diff(b2, "x") + lam * diff(a2, "y")
                        + b2 * lx + Rat(3) * a2 * ly),
        (0, 4): inv1 * diff(a2, "x"),
    }
    return MomentumPoly(out)


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
