"""Independent oracle for the benchmark's output checks.

Written with sympy and scipy only; nothing here imports cubint.  It
recomputes, from the same input strings the program receives:

* the curvature ladder phi0, phi1, phi2, phi*1, phi*2 of a metric, exactly,
  at rational points (lane conventions as in the program: isothermal and
  general charts use the Gauss curvature, null charts lam dx dy use
  (ln lam)_xy / lam);
* the canonical Poisson bracket {F, H} of a cubic integral candidate and the
  (3,0) part of F, for comparison with the input codifferential;
* geodesic endpoints with scipy's DOP853 at tight tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import sympy as sp
from scipy.integrate import solve_ivp

X, Y = sp.symbols("x y", real=True)
PX, PY, P, Q = sp.symbols("px py p q")
_LOCALS = {"x": X, "y": Y, "ln": sp.log, "exp": sp.exp, "sqrt": sp.sqrt,
           "sin": sp.sin, "cos": sp.cos, "tan": sp.tan, "sinh": sp.sinh,
           "cosh": sp.cosh, "tanh": sp.tanh, "pi": sp.pi, "e": sp.E}

@lru_cache(maxsize=None)
def to_sym(text: str) -> sp.Expr:
    """Parse a cubint expression string (`^` for powers) into sympy."""
    return sp.sympify(text.replace("^", "**"), locals=_LOCALS, rational=True)


class Chart:
    """A metric in one of the three lanes, as sympy expressions."""

    def __init__(self, lane: str, comps):
        self.lane = lane
        if lane == "iso":
            lam = to_sym(comps[0])
            g = (lam, sp.Integer(0), lam)
        elif lane == "null":
            lam = to_sym(comps[0])
            g = (sp.Integer(0), lam / 2, sp.Integer(0))
        elif lane == "general":
            g = tuple(to_sym(c) for c in comps)
            lam = None
        else:
            raise ValueError("unknown lane %r" % lane)
        self.lam = lam
        self.g = g
        g11, g12, g22 = g
        det = g11 * g22 - g12 * g12
        self.inv = (g22 / det, -g12 / det, g11 / det)
        # volume density sqrt|det g|, positive on the working boxes
        self.mu = (lam if lane == "iso" else lam / 2 if lane == "null"
                   else sp.sqrt(det))

    # -- scalar operators ------------------------------------------------
    def pairing(self, f, h):
        i11, i12, i22 = self.inv
        fx, fy, hx, hy = f.diff(X), f.diff(Y), h.diff(X), h.diff(Y)
        return i11 * fx * hx + i12 * (fx * hy + fy * hx) + i22 * fy * hy

    def poisson(self, f, h):
        return (f.diff(X) * h.diff(Y) - f.diff(Y) * h.diff(X)) / self.mu

    def laplacian(self, f):
        i11, i12, i22 = self.inv
        fx, fy = f.diff(X), f.diff(Y)
        return (sp.diff(self.mu * (i11 * fx + i12 * fy), X)
                + sp.diff(self.mu * (i12 * fx + i22 * fy), Y)) / self.mu

    def curvature(self):
        if self.lane == "iso":
            u = sp.log(self.lam)
            return -(u.diff(X, 2) + u.diff(Y, 2)) / (2 * self.lam)
        if self.lane == "null":
            return sp.log(self.lam).diff(X, Y) / self.lam
        return _gauss_curvature(self.g)

    def ladder(self):
        """phi0, its gradient, phi1, phi2, phi*1, phi*2 (unsimplified),
        each built on first use."""
        return Ladder(self)

    def hamiltonian(self):
        i11, i12, i22 = self.inv
        return (i11 * PX ** 2 + 2 * i12 * PX * PY + i22 * PY ** 2) / 2


class Ladder:
    """The curvature ladder of a chart as a lazily filled mapping."""

    def __init__(self, chart: Chart):
        self.chart = chart
        self._memo = {}

    def __getitem__(self, name):
        if name not in self._memo:
            self._memo[name] = self._build(name)
        return self._memo[name]

    def _build(self, name):
        ch = self.chart
        if name == "phi0":
            return ch.curvature()
        if name in ("phi0_x", "phi0_y"):
            return self["phi0"].diff(X if name == "phi0_x" else Y)
        if name == "phi1":
            return ch.pairing(self["phi0"], self["phi0"]) / 2
        if name == "phi2":
            return ch.poisson(self["phi0"], self["phi1"])
        if name == "phistar1":
            return ch.laplacian(self["phi0"])
        if name == "phistar2":
            return ch.poisson(self["phi0"], self["phistar1"])
        raise KeyError(name)


def _gauss_curvature(g):
    """Gauss curvature of g11 dx^2 + 2 g12 dx dy + g22 dy^2 (Brioschi)."""
    E, F, G = g
    Ex, Ey, Fx, Fy, Gx, Gy = (E.diff(X), E.diff(Y), F.diff(X), F.diff(Y),
                              G.diff(X), G.diff(Y))
    m1 = sp.Matrix([[-E.diff(Y, 2) / 2 + Fx.diff(Y) - G.diff(X, 2) / 2,
                     Ex / 2, Fx - Ey / 2],
                    [Fy - Gx / 2, E, F],
                    [Gy / 2, F, G]])
    m2 = sp.Matrix([[0, Ey / 2, Gx / 2],
                    [Ey / 2, E, F],
                    [Gx / 2, F, G]])
    return (m1.det() - m2.det()) / (E * G - F * F) ** 2


# -------------------------------------------------------------- evaluation

def rational(v) -> sp.Rational:
    """The exact rational value of a float or Fraction."""
    f = Fraction(v)
    return sp.Rational(f.numerator, f.denominator)


def value(expr, point):
    """Exact value of expr at a point with rational (or float) coordinates."""
    out = expr.xreplace({X: rational(point[0]), Y: rational(point[1])})
    return out if out.is_Rational else sp.nsimplify(sp.simplify(out))


def is_exact_zero(expr) -> bool:
    """Identically-zero test for an expression in x, y (symbolic)."""
    expr = sp.together(sp.expand(expr))
    num, _ = sp.fraction(expr)
    return sp.simplify(sp.expand(num)) == 0


# ----------------------------------------------------------- cubic integrals

_MONOS = ((3, 0), (2, 1), (1, 2), (0, 3))
_MULT = (1, 3, 3, 1)


def momentum_form(comps):
    """F^{ijk} p_i p_j p_k from the four tensor components F111..F222."""
    return sum(m * to_sym(c) * PX ** i * PY ** j
               for c, (i, j), m in zip(comps, _MONOS, _MULT))


def bracket_coefficients(chart: Chart, comps):
    """Coefficients of the canonical bracket {F, H}, a quartic in px, py."""
    f = momentum_form(comps)
    h = chart.hamiltonian()
    br = (f.diff(X) * h.diff(PX) - f.diff(PX) * h.diff(X)
          + f.diff(Y) * h.diff(PY) - f.diff(PY) * h.diff(Y))
    poly = sp.Poly(sp.expand(br), PX, PY)
    return poly.coeffs() if not poly.is_zero else []


def bracket_vanishes(chart: Chart, comps) -> bool:
    return all(is_exact_zero(c) for c in bracket_coefficients(chart, comps))


def leading_part(lane: str, comps):
    """The (3,0) part of F against the input codifferential's encoding:
    the complex coefficient a with A-hat = 2 Re(a p^3), p = (px - i py)/2,
    for conformally flat charts; the pair (F111, F222) for null charts."""
    if lane == "null":
        return (to_sym(comps[0]), to_sym(comps[3]))
    f = momentum_form(comps)
    f = sp.expand(f.subs({PX: P + Q, PY: sp.I * (P - Q)}, simultaneous=True))
    return sp.Poly(f, P, Q).coeff_monomial(P ** 3)


def leading_part_matches(lane: str, comps, codiff) -> bool:
    """codiff is (a_re, a_im) for conformal charts, (a1, a2) for null."""
    got = leading_part(lane, comps)
    if lane == "null":
        return all(is_exact_zero(g - to_sym(w)) for g, w in zip(got, codiff))
    want = to_sym(codiff[0]) + sp.I * to_sym(codiff[1])
    d = sp.expand(got - want)
    return is_exact_zero(sp.re(d)) and is_exact_zero(sp.im(d))


# ------------------------------------------------------------ geodesic flow

def geodesic_endpoint(chart: Chart, state0, t_end: float):
    """(x, y, px, py) at t_end from DOP853 with rtol = atol = 1e-12."""
    i11, i12, i22 = chart.inv
    fns = [sp.lambdify((X, Y), e, "math")
           for e in (i11, i12, i22, i11.diff(X), i12.diff(X), i22.diff(X),
                     i11.diff(Y), i12.diff(Y), i22.diff(Y))]
    c11, c12, c22, a11, a12, a22, b11, b12, b22 = fns

    def rhs(_t, s):
        x, y, px, py = s
        return (c11(x, y) * px + c12(x, y) * py,
                c12(x, y) * px + c22(x, y) * py,
                -(0.5 * a11(x, y) * px * px + a12(x, y) * px * py
                  + 0.5 * a22(x, y) * py * py),
                -(0.5 * b11(x, y) * px * px + b12(x, y) * px * py
                  + 0.5 * b22(x, y) * py * py))

    sol = solve_ivp(rhs, (0.0, t_end), list(state0), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError("DOP853 failed: %s" % sol.message)
    return tuple(float(v) for v in sol.y[:, -1])


def close(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))
