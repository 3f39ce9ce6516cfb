"""Two-dimensional metrics in the three chart lanes and the differential
operators the invariant chains are built from.

Chart lanes:

* isothermal   g = lambda (dx^2 + dy^2), lambda > 0 on the working box;
  complex-weighted machinery (Wirtinger derivatives of section pairs);
* null         g = lambda dx dy, the light-cone chart of a signature (1,1)
  metric; the weighted machinery is real and acts with plain d/dx, d/dy;
* general      g = g11 dx^2 + 2 g12 dx dy + g22 dy^2 with arbitrary
  components; everything runs through Christoffel symbols and real tensor
  coordinates instead of weights.

The scalar curvature exposed here is the lane curvature used by the
invariant chains: in the isothermal lane it is the classical Gauss
curvature; in the null lane it is the light-cone-normalized curvature
(ln lambda)_xy / lambda, which differs from the classical Gauss curvature
of the same metric by the factor -1/2.  The two conventions are never mixed:
each decision pipeline consumes the curvature of its own lane.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Union

from .cnum import CExpr, wirtinger_z, wirtinger_zbar
from .expr import (
    Expr, Func, Rat, as_expr, diff, parse, simplify, to_str,
)

__all__ = [
    "Metric", "isothermal_metric", "null_metric", "general_metric",
    "ChartMismatch", "Section", "nabla10", "nabla01",
    "christoffel", "gauss_curvature", "grad_pairing", "grad_half_square",
    "poisson_g", "laplacian", "complex_structure",
]

HALF = Fraction(1, 2)


class ChartMismatch(Exception):
    """Operation applied to a section/metric in the wrong chart lane."""


class Metric:
    """A 2-D metric with cached derived quantities.

    Use the three factory functions instead of this constructor.
    """

    def __init__(self, kind: str, g11: Expr, g12: Expr, g22: Expr,
                 lam: Optional[Expr] = None, signature: int = 1):
        if kind not in ("iso", "null", "general"):
            raise ValueError(f"unknown chart kind {kind!r}")
        if signature not in (1, -1):
            raise ValueError("signature must be +1 (Riemannian) or -1 (split)")
        self.kind = kind
        self.g11 = simplify(g11)
        self.g12 = simplify(g12)
        self.g22 = simplify(g22)
        self.lam = simplify(lam) if lam is not None else None
        self.signature = signature
        self._cache: dict = {}

    # -- scalar invariants of the component matrix ---------------------
    @property
    def det(self) -> Expr:
        if "det" not in self._cache:
            self._cache["det"] = simplify(self.g11 * self.g22 - self.g12 * self.g12)
        return self._cache["det"]

    @property
    def mu(self) -> Expr:
        """Positive volume density sqrt(|det g|); exact in the iso/null
        lanes, a symbolic square root (collapsed when a perfect square)
        in the general lane."""
        if "mu" not in self._cache:
            if self.kind == "iso":
                m = self.lam
            elif self.kind == "null":
                m = simplify(HALF * self.lam)
            else:
                m = simplify(Func("sqrt", simplify(Rat(self.signature) * self.det)))
            self._cache["mu"] = m
        return self._cache["mu"]

    @property
    def inv(self):
        """Inverse components (g^11, g^12, g^22)."""
        if "inv" not in self._cache:
            if self.kind == "iso":
                i11 = simplify(Rat(1) / self.lam)
                comps = (i11, Rat(0), i11)
            elif self.kind == "null":
                comps = (Rat(0), simplify(Rat(2) / self.lam), Rat(0))
            else:
                d = self.det
                comps = (simplify(self.g22 / d),
                         simplify(-self.g12 / d),
                         simplify(self.g11 / d))
            self._cache["inv"] = comps
        return self._cache["inv"]

    # -- conformal-factor helpers (iso / null lanes) -------------------
    @property
    def log_lam(self) -> Expr:
        if self.lam is None:
            raise ChartMismatch("metric has no conformal factor in this chart")
        if "u" not in self._cache:
            self._cache["u"] = simplify(Func("ln", self.lam))
        return self._cache["u"]

    @property
    def u_z(self) -> CExpr:
        """d/dz of ln lambda (isothermal lane)."""
        if self.kind != "iso":
            raise ChartMismatch("u_z is an isothermal-lane quantity")
        if "u_z" not in self._cache:
            self._cache["u_z"] = wirtinger_z(CExpr.from_real(self.log_lam)).simplified()
        return self._cache["u_z"]

    @property
    def u_zbar(self) -> CExpr:
        if self.kind != "iso":
            raise ChartMismatch("u_zbar is an isothermal-lane quantity")
        if "u_zb" not in self._cache:
            self._cache["u_zb"] = wirtinger_zbar(CExpr.from_real(self.log_lam)).simplified()
        return self._cache["u_zb"]

    @property
    def u_x(self) -> Expr:
        if "u_x" not in self._cache:
            self._cache["u_x"] = simplify(diff(self.log_lam, "x"))
        return self._cache["u_x"]

    @property
    def u_y(self) -> Expr:
        if "u_y" not in self._cache:
            self._cache["u_y"] = simplify(diff(self.log_lam, "y"))
        return self._cache["u_y"]

    def __repr__(self):
        if self.kind == "iso":
            return f"Metric(iso, lambda = {to_str(self.lam)})"
        if self.kind == "null":
            return f"Metric(null, lambda = {to_str(self.lam)})"
        return (f"Metric(general, g11 = {to_str(self.g11)}, "
                f"g12 = {to_str(self.g12)}, g22 = {to_str(self.g22)})")


def isothermal_metric(lam: Union[Expr, str]) -> Metric:
    lam = parse(lam) if isinstance(lam, str) else as_expr(lam)
    return Metric("iso", lam, Rat(0), lam, lam=lam, signature=1)


def null_metric(lam: Union[Expr, str]) -> Metric:
    """g = lambda dx dy (components g12 = g21 = lambda/2)."""
    lam = parse(lam) if isinstance(lam, str) else as_expr(lam)
    return Metric("null", Rat(0), simplify(HALF * lam), Rat(0), lam=lam,
                  signature=-1)


def general_metric(g11: Union[Expr, str], g12: Union[Expr, str],
                   g22: Union[Expr, str], signature: int = 1) -> Metric:
    conv = lambda v: parse(v) if isinstance(v, str) else as_expr(v)
    return Metric("general", conv(g11), conv(g12), conv(g22),
                  signature=signature)


# --------------------------------------------------------------------------
# Christoffel symbols and curvature

def christoffel(metric: Metric) -> dict:
    """Gamma^i_{jk} as a dict keyed by (i, j, k), 0-based, symmetric in jk."""
    key = "christoffel"
    if key in metric._cache:
        return metric._cache[key]
    g = ((metric.g11, metric.g12), (metric.g12, metric.g22))
    i11, i12, i22 = metric.inv
    ginv = ((i11, i12), (i12, i22))
    vs = ("x", "y")
    dg = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                dg[(i, j, k)] = diff(g[i][j], vs[k])
    gam = {}
    for i in range(2):
        for j in range(2):
            for k in range(2):
                s = as_expr(0)
                for l in range(2):
                    s = s + ginv[i][l] * (dg[(l, j, k)] + dg[(l, k, j)] - dg[(j, k, l)])
                gam[(i, j, k)] = simplify(HALF * s)
    metric._cache[key] = gam
    return gam


def _classical_curvature(metric: Metric) -> Expr:
    """K = R_1212 / det via the Christoffel route (any chart)."""
    gam = christoffel(metric)
    vs = ("x", "y")

    def dgam(i, j, k, wrt):
        return diff(gam[(i, j, k)], vs[wrt])

    def riem_up(i, j, k, l):
        # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma terms
        s = dgam(i, l, j, k) - dgam(i, k, j, l)
        for m in range(2):
            s = s + gam[(i, k, m)] * gam[(m, l, j)] - gam[(i, l, m)] * gam[(m, k, j)]
        return s

    r1212 = metric.g11 * riem_up(0, 1, 0, 1) + metric.g12 * riem_up(1, 1, 0, 1)
    return simplify(r1212 / metric.det)


def gauss_curvature(metric: Metric) -> Expr:
    """Lane curvature (see module docstring for the null-lane convention)."""
    if "R" in metric._cache:
        return metric._cache["R"]
    if metric.kind == "iso":
        u = metric.log_lam
        flat_lap = diff(diff(u, "x"), "x") + diff(diff(u, "y"), "y")
        r = simplify(-HALF * flat_lap / metric.lam)
    elif metric.kind == "null":
        u = metric.log_lam
        r = simplify(diff(diff(u, "x"), "y") / metric.lam)
    else:
        r = _classical_curvature(metric)
    metric._cache["R"] = r
    return r


# --------------------------------------------------------------------------
# first-order scalar operators

def grad_pairing(metric: Metric, f: Expr, h: Expr) -> Expr:
    """<grad f, grad h> = g^{ij} f_i h_j."""
    i11, i12, i22 = metric.inv
    fx, fy = diff(f, "x"), diff(f, "y")
    hx, hy = diff(h, "x"), diff(h, "y")
    return simplify(i11 * fx * hx + i12 * (fx * hy + fy * hx) + i22 * fy * hy)


def grad_half_square(metric: Metric, f: Expr) -> Expr:
    """Half the squared gradient, (1/2) g^{ij} f_i f_j."""
    return simplify(HALF * grad_pairing(metric, f, f))


def poisson_g(metric: Metric, f: Expr, h: Expr) -> Expr:
    """Poisson bracket of functions on the surface induced by the volume
    form mu dx^dy: {f, h} = (f_x h_y - f_y h_x) / mu."""
    fx, fy = diff(f, "x"), diff(f, "y")
    hx, hy = diff(h, "x"), diff(h, "y")
    return simplify((fx * hy - fy * hx) / metric.mu)


def laplacian(metric: Metric, f: Expr) -> Expr:
    """Laplace-Beltrami operator (1/mu) d_i (mu g^{ij} d_j f)."""
    i11, i12, i22 = metric.inv
    mu = metric.mu
    fx, fy = diff(f, "x"), diff(f, "y")
    flux_x = simplify(mu * (i11 * fx + i12 * fy))
    flux_y = simplify(mu * (i12 * fx + i22 * fy))
    return simplify((diff(flux_x, "x") + diff(flux_y, "y")) / mu)


def complex_structure(metric: Metric):
    """The endomorphism J^i_j = g^{ik} omega_{jk} (omega_{12} = mu) as a
    row-major 2x2 tuple.

    J^2 = -Id for Riemannian signature, +Id for split signature.
    """
    i11, i12, i22 = metric.inv
    w = metric.mu
    return ((simplify(i12 * w), simplify(-(i11 * w))),
            (simplify(i22 * w), simplify(-(i12 * w))))


# --------------------------------------------------------------------------
# weighted sections (iso and null lanes)

class Section:
    """A section of the (p, q)-weighted line bundle over the surface.

    In the isothermal lane the value is a CExpr; in the null lane the two
    weights refer to the x- and y-directions and the value is a real Expr.
    Negative weights are codifferential directions: a 3-codifferential is
    a section of weight (-3, 0).
    """

    __slots__ = ("value", "weight", "metric")

    def __init__(self, value, weight, metric: Metric):
        p, q = weight
        if metric.kind == "iso":
            if not isinstance(value, CExpr):
                raise ChartMismatch("isothermal sections carry CExpr values")
        elif metric.kind == "null":
            if not isinstance(value, Expr):
                raise ChartMismatch("null-lane sections carry real Expr values")
        else:
            raise ChartMismatch(
                "weighted sections live in the isothermal or null lanes")
        self.value = value
        self.weight = (int(p), int(q))
        self.metric = metric

    def __repr__(self):
        return f"Section(weight={self.weight}, value={self.value!r})"


def nabla10(s: Section) -> Section:
    """Weighted derivative in the first direction: weight (p, q) -> (p+1, q).

    Isothermal lane: nabla s = s_z - p u_z s;  null lane: s_x - p u_x s,
    with u = ln lambda.
    """
    p, q = s.weight
    m = s.metric
    if m.kind == "iso":
        v = wirtinger_z(s.value) - CExpr.from_real(Rat(p)) * m.u_z * s.value
        return Section(v.simplified(), (p + 1, q), m)
    v = simplify(diff(s.value, "x") - Rat(p) * m.u_x * s.value)
    return Section(v, (p + 1, q), m)


def nabla01(s: Section) -> Section:
    """Weighted derivative in the second direction: (p, q) -> (p, q+1).

    Isothermal lane: s_zbar - q u_zbar s;  null lane: s_y - q u_y s.
    """
    p, q = s.weight
    m = s.metric
    if m.kind == "iso":
        v = wirtinger_zbar(s.value) - CExpr.from_real(Rat(q)) * m.u_zbar * s.value
        return Section(v.simplified(), (p, q + 1), m)
    v = simplify(diff(s.value, "y") - Rat(q) * m.u_y * s.value)
    return Section(v, (p, q + 1), m)
