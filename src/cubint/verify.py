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

import csv
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Tuple

from .expr import (
    Box, Const, Add, EvalDomainError, Expr, Func, Mul, Pow, Rat, Var,
    ZeroTestConfig, ZeroVerdict, as_expr, diff, eval_at, is_zero, nf_is_zero,
    simplify, to_str, DEFAULT_CFG,
)
from .geometry import Metric

__all__ = [
    "MomentumPoly", "hamiltonian_poly", "canonical_bracket",
    "canonical_bracket_FH", "bracket_FH", "homogeneous_components",
    "bracket_certificate", "certificate_all_zero",
    "compile_expr", "compile_momentum_poly", "integrate_geodesic",
    "conservation_report", "export_csv",
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
            mon = "*".join((["px"] * 0) + ([f"px^{i}"] if i else []) + ([f"py^{j}"] if j else []))
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

    def eval_coeffs(self, point) -> Dict[Tuple[int, int], float]:
        return {k: eval_at(v, point) for k, v in self.coeffs.items()}

    def degree(self) -> int:
        return max((i + j for (i, j) in self.coeffs), default=0)


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
    return MomentumPoly({k: simplify(v) for k, v in out.items()})


def _structured_iso(metric: Metric, f: MomentumPoly) -> MomentumPoly:
    """Weighted-calculus form of {F, H} for an isothermal metric.

    The cubic F = Re(a p^3 + b p^2 pbar) brackets to
    (2 / lam^2) Re(p^4 lam a_zbar + p^3 pbar (b lam_zbar + 3 a lam_z
    + lam b_zbar + lam a_z) + p^2 pbar^2 (2 b lam_z + lam b_z)).
    """
    from .cnum import CExpr, wirtinger_z, wirtinger_zbar
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
    return MomentumPoly({k: simplify(v) for k, v in out.items()})


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
# numeric side: closure compilation and RK4 geodesic flow

_FUNC_IMPL = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
    "ln": math.log, "sqrt": math.sqrt,
}


def compile_expr(e: Expr) -> Callable[[float, float], float]:
    """Compile an expression tree into a float closure f(x, y)."""
    t = type(e)
    if t is Rat:
        v = float(e.val)
        return lambda x, y: v
    if t is Var:
        if e.name == "x":
            return lambda x, y: x
        return lambda x, y: y
    if t is Const:
        v = math.pi if e.name == "pi" else math.e
        return lambda x, y: v
    if t is Add:
        fs = tuple(compile_expr(s) for s in e.terms)

        def _add(x, y, fs=fs):
            s = 0.0
            for f in fs:
                s += f(x, y)
            return s
        return _add
    if t is Mul:
        fs = tuple(compile_expr(s) for s in e.factors)

        def _mul(x, y, fs=fs):
            s = 1.0
            for f in fs:
                s *= f(x, y)
            return s
        return _mul
    if t is Pow:
        bf = compile_expr(e.base)
        if e.exp.denominator == 1:
            n = int(e.exp)
            return lambda x, y: bf(x, y) ** n
        ex = float(e.exp)
        return lambda x, y: bf(x, y) ** ex
    if t is Func:
        g = _FUNC_IMPL[e.name]
        af = compile_expr(e.arg)
        return lambda x, y: g(af(x, y))
    raise TypeError(f"cannot compile {e!r}")


def compile_momentum_poly(p: MomentumPoly) -> Callable[[float, float, float, float], float]:
    terms = tuple((i, j, compile_expr(c)) for (i, j), c in p.coeffs.items())

    def _eval(x, y, px, py, terms=terms):
        s = 0.0
        for i, j, cf in terms:
            s += cf(x, y) * (px ** i) * (py ** j)
        return s
    return _eval


def integrate_geodesic(metric: Metric, state0, dt: float, steps: int):
    """Fixed-step RK4 for Hamilton's equations of H = (1/2) g^{ij} p_i p_j.

    state0 = (x, y, px, py); returns the list of (t, x, y, px, py).
    Raises EvalDomainError when a step fails to evaluate or leaves a
    non-finite or non-real state (the trajectory left the metric's domain).
    """
    i11, i12, i22 = metric.inv
    c11, c12, c22 = compile_expr(i11), compile_expr(i12), compile_expr(i22)
    d11x, d12x, d22x = (compile_expr(simplify(diff(c, "x"))) for c in (i11, i12, i22))
    d11y, d12y, d22y = (compile_expr(simplify(diff(c, "y"))) for c in (i11, i12, i22))

    def rhs(s):
        x, y, px, py = s
        dx = c11(x, y) * px + c12(x, y) * py
        dy = c12(x, y) * px + c22(x, y) * py
        dpx = -(0.5 * d11x(x, y) * px * px + d12x(x, y) * px * py
                + 0.5 * d22x(x, y) * py * py)
        dpy = -(0.5 * d11y(x, y) * px * px + d12y(x, y) * px * py
                + 0.5 * d22y(x, y) * py * py)
        return (dx, dy, dpx, dpy)

    out = [(0.0,) + tuple(float(v) for v in state0)]
    s = tuple(float(v) for v in state0)
    t = 0.0
    try:
        for _ in range(steps):
            k1 = rhs(s)
            k2 = rhs(tuple(si + 0.5 * dt * k for si, k in zip(s, k1)))
            k3 = rhs(tuple(si + 0.5 * dt * k for si, k in zip(s, k2)))
            k4 = rhs(tuple(si + dt * k for si, k in zip(s, k3)))
            s = tuple(si + dt / 6.0 * (a + 2 * b + 2 * c + d)
                      for si, a, b, c, d in zip(s, k1, k2, k3, k4))
            t += dt
            if not all(map(math.isfinite, s)):
                raise EvalDomainError("non-finite state at t = %g" % t)
            out.append((t,) + s)
    except (ArithmeticError, ValueError, TypeError) as exc:
        # math domain errors, overflow and poles; a fractional power of a
        # negative base makes a value complex, and math functions (the
        # finiteness check too) reject it with TypeError
        raise EvalDomainError("%s near t = %g" % (exc, t)) from None
    return out


def conservation_report(metric: Metric, trajectory,
                        f: Optional[MomentumPoly] = None) -> dict:
    """Max absolute drift of H (and of F, when given) along a trajectory."""
    h_fn = compile_momentum_poly(hamiltonian_poly(metric))
    f_fn = compile_momentum_poly(f) if f is not None else None
    h0 = None
    f0 = None
    h_drift = 0.0
    f_drift = 0.0
    for (t, x, y, px, py) in trajectory:
        h = h_fn(x, y, px, py)
        if h0 is None:
            h0 = h
        h_drift = max(h_drift, abs(h - h0))
        if f_fn is not None:
            fv = f_fn(x, y, px, py)
            if f0 is None:
                f0 = fv
            f_drift = max(f_drift, abs(fv - f0))
    out = {"steps": len(trajectory) - 1, "H0": h0, "H_drift": h_drift}
    if f_fn is not None:
        out["F0"] = f0
        out["F_drift"] = f_drift
    return out


def export_csv(path, metric: Metric, trajectory,
               f: Optional[MomentumPoly] = None):
    """Write the trajectory as CSV with columns t,x,y,px,py,H,F."""
    h_fn = compile_momentum_poly(hamiltonian_poly(metric))
    f_fn = compile_momentum_poly(f) if f is not None else None
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "x", "y", "px", "py", "H", "F"])
        for (t, x, y, px, py) in trajectory:
            h = h_fn(x, y, px, py)
            fv = f_fn(x, y, px, py) if f_fn is not None else ""
            w.writerow([f"{t:.10g}", f"{x:.16g}", f"{y:.16g}",
                        f"{px:.16g}", f"{py:.16g}", f"{h:.16g}",
                        f"{fv:.16g}" if fv != "" else ""])
