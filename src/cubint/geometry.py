"""Two-dimensional metrics in the three chart lanes and the differential
operators the invariant chains are built from.

Chart lanes:

* isothermal   g = lambda (dx^2 + dy^2), lambda > 0 on the working box;
  complex-weighted machinery (Wirtinger derivatives of section pairs);
* null         g = lambda dx dy, the light-cone chart of a signature (1,1)
  metric; the weighted machinery is real and acts with plain d/dx, d/dy;
* general      g = g11 dx^2 + 2 g12 dx dy + g22 dy^2 with arbitrary
  components of a Riemannian metric; everything runs through Christoffel
  symbols and real tensor coordinates instead of weights.

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

from .cnum import CExpr, _c_mul, _wirtinger
from .expr import (
    NF, _NF_ZERO, Expr, Rat, _func_nf, as_expr, nf_diff, nf_mul, nf_neg,
    nf_pow, nf_recip, nf_scale, nf_sum, nf_to_expr, parse, simplify, to_nf,
    to_str,
)

__all__ = [
    "Metric", "isothermal_metric", "null_metric", "general_metric",
    "ChartMismatch", "Section", "nabla10", "nabla01",
    "christoffel", "gauss_curvature", "grad_pairing", "grad_half_square",
    "poisson_g", "laplacian", "complex_structure",
]

HALF = Fraction(1, 2)

# The formulas below combine normal forms (NF): one nf_sum per sum, one
# nf_mul per product and nf_diff per derivative.  A public function builds
# one tree, of its result.


class ChartMismatch(Exception):
    """Operation applied to a section/metric in the wrong chart lane."""


class Metric:
    """A 2-D metric with cached derived quantities.

    Use the three factory functions instead of this constructor.
    """

    def __init__(self, kind: str, g11: Expr, g12: Expr, g22: Expr,
                 lam: Optional[Expr] = None):
        if kind not in ("iso", "null", "general"):
            raise ValueError(f"unknown chart kind {kind!r}")
        self.kind = kind
        # one tree per distinct component (isothermal_metric passes lambda 3x)
        distinct = {id(g): g for g in (g11, g12, g22, lam) if g is not None}
        trees = {k: simplify(g) for k, g in distinct.items()}
        self.g11, self.g12, self.g22 = (trees[id(g)] for g in (g11, g12, g22))
        self.lam = trees.get(id(lam))
        # the null lane is the split-signature (1,1) chart
        self.signature = -1 if kind == "null" else 1
        self._cache: dict = {}

    # -- scalar invariants of the component matrix ---------------------
    @property
    def det(self) -> Expr:
        if "det" not in self._cache:
            g11, g12, g22 = (to_nf(g) for g in (self.g11, self.g12, self.g22))
            self._cache["det"] = nf_to_expr(_cross(g11, g22, g12, g12))
        return self._cache["det"]

    @property
    def mu(self) -> Expr:
        """Positive volume density sqrt(|det g|); exact in the iso/null
        lanes, a symbolic square root of det g (collapsed when a perfect
        square) in the general lane, which is Riemannian."""
        if "mu" not in self._cache:
            if self.kind == "iso":
                m = self.lam
            elif self.kind == "null":
                m = nf_to_expr(nf_scale(to_nf(self.lam), HALF))
            else:
                m = nf_to_expr(nf_pow(to_nf(self.det), HALF))
            self._cache["mu"] = m
        return self._cache["mu"]

    @property
    def inv(self):
        """Inverse components (g^11, g^12, g^22)."""
        if "inv" not in self._cache:
            if self.kind == "iso":
                i11 = nf_to_expr(nf_recip(to_nf(self.lam)))
                comps = (i11, Rat(0), i11)
            elif self.kind == "null":
                comps = (Rat(0), nf_to_expr(nf_scale(nf_recip(to_nf(self.lam)), 2)),
                         Rat(0))
            else:
                r = self._inv_det()
                comps = (nf_to_expr(nf_mul(to_nf(self.g22), r)),
                         nf_to_expr(nf_neg(nf_mul(to_nf(self.g12), r))),
                         nf_to_expr(nf_mul(to_nf(self.g11), r)))
            self._cache["inv"] = comps
        return self._cache["inv"]

    def _inv_mu(self) -> NF:
        """1/mu."""
        if "1/mu" not in self._cache:
            self._cache["1/mu"] = nf_recip(to_nf(self.mu))
        return self._cache["1/mu"]

    def _inv_det(self) -> NF:
        """1/det as (1/mu)^2 (isothermal and general lanes, det = mu^2):
        where det is a perfect square, its denominator is mu's base
        squared, not det expanded as one base, so a conformal general
        metric gets the isothermal denominators."""
        if "1/det" not in self._cache:
            w = self._inv_mu()
            self._cache["1/det"] = nf_mul(w, w)
        return self._cache["1/det"]

    def _j(self):
        """The complex structure J (see complex_structure) as a row-major
        2x2 of normal forms."""
        if "J" not in self._cache:
            w = to_nf(self.mu)
            i11, i12, i22 = (nf_mul(to_nf(c), w) for c in self.inv)
            self._cache["J"] = ((i12, nf_neg(i11)), (i22, nf_neg(i12)))
        return self._cache["J"]

    # -- conformal-factor helpers (iso / null lanes) -------------------
    @property
    def log_lam(self) -> NF:
        """The normal form of u = ln lambda."""
        if self.lam is None:
            raise ChartMismatch("metric has no conformal factor in this chart")
        if "u" not in self._cache:
            self._cache["u"] = _func_nf("ln", to_nf(self.lam))
        return self._cache["u"]

    def _u_grad(self, first: bool):
        """The normal form of u_z (u_zbar unless first) in the isothermal
        lane, of u_x (u_y) in the null lane, with u = ln lambda."""
        key = ("du", first)
        if key not in self._cache:
            u = self.log_lam
            if self.kind == "iso":
                out = _wirtinger((u, _NF_ZERO), -1 if first else 1)
            else:
                out = nf_diff(u, "x" if first else "y")
            self._cache[key] = out
        return self._cache[key]

    def __repr__(self):
        if self.kind == "iso":
            return f"Metric(iso, lambda = {to_str(self.lam)})"
        if self.kind == "null":
            return f"Metric(null, lambda = {to_str(self.lam)})"
        return (f"Metric(general, g11 = {to_str(self.g11)}, "
                f"g12 = {to_str(self.g12)}, g22 = {to_str(self.g22)})")


def isothermal_metric(lam: Union[Expr, str]) -> Metric:
    lam = parse(lam) if isinstance(lam, str) else as_expr(lam)
    return Metric("iso", lam, Rat(0), lam, lam=lam)


def null_metric(lam: Union[Expr, str]) -> Metric:
    """g = lambda dx dy (components g12 = g21 = lambda/2)."""
    lam = parse(lam) if isinstance(lam, str) else as_expr(lam)
    return Metric("null", Rat(0), nf_to_expr(nf_scale(to_nf(lam), HALF)),
                  Rat(0), lam=lam)


def general_metric(g11: Union[Expr, str], g12: Union[Expr, str],
                   g22: Union[Expr, str]) -> Metric:
    conv = lambda v: parse(v) if isinstance(v, str) else as_expr(v)
    return Metric("general", conv(g11), conv(g12), conv(g22))


# --------------------------------------------------------------------------
# Christoffel symbols and curvature

def _cross(a: NF, b: NF, c: NF, d: NF) -> NF:
    """a*b - c*d."""
    return nf_sum([nf_mul(a, b), nf_neg(nf_mul(c, d))])


def christoffel(metric: Metric) -> dict:
    """Gamma^i_{jk} as a dict keyed by (i, j, k), 0-based, symmetric in jk."""
    key = "christoffel"
    if key in metric._cache:
        return metric._cache[key]
    g = [[to_nf(c) for c in row] for row in
         ((metric.g11, metric.g12), (metric.g12, metric.g22))]
    i11, i12, i22 = (to_nf(c) for c in metric.inv)
    ginv = ((i11, i12), (i12, i22))
    dg = {(i, j, k): nf_diff(g[i][j], v) for i in range(2) for j in range(2)
          for k, v in enumerate(("x", "y"))}
    gam = {}
    for i in range(2):
        for (j, k) in ((0, 0), (0, 1), (1, 1)):
            s = nf_sum([nf_mul(ginv[i][l], nf_sum([
                dg[(l, j, k)], dg[(l, k, j)], nf_neg(dg[(j, k, l)])]))
                for l in range(2)])
            gam[(i, j, k)] = gam[(i, k, j)] = nf_to_expr(nf_scale(s, HALF))
    metric._cache[key] = gam
    return gam


def _classical_curvature(metric: Metric) -> NF:
    """K = R_1212 / det via the Christoffel route (a Riemannian chart,
    where det = mu^2)."""
    gam = {k: to_nf(v) for k, v in christoffel(metric).items()}
    vs = ("x", "y")

    def riem_up(i, j, k, l):
        # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj} + Gamma terms
        terms = [nf_diff(gam[(i, l, j)], vs[k]),
                 nf_neg(nf_diff(gam[(i, k, j)], vs[l]))]
        for m in range(2):
            terms.append(_cross(gam[(i, k, m)], gam[(m, l, j)],
                                gam[(i, l, m)], gam[(m, k, j)]))
        return nf_sum(terms)

    r1212 = nf_sum([nf_mul(to_nf(metric.g11), riem_up(0, 1, 0, 1)),
                    nf_mul(to_nf(metric.g12), riem_up(1, 1, 0, 1))])
    return nf_mul(r1212, metric._inv_det())


def gauss_curvature(metric: Metric) -> Expr:
    """Lane curvature (see module docstring for the null-lane convention)."""
    if "R" in metric._cache:
        return metric._cache["R"]
    if metric.kind == "general":
        r = _classical_curvature(metric)
    else:
        ux, uy = _grad(metric.log_lam)
        if metric.kind == "iso":
            flat_lap = nf_sum([nf_diff(ux, "x"), nf_diff(uy, "y")])
            r = nf_scale(flat_lap, -HALF)
        else:
            r = nf_diff(ux, "y")
        r = nf_mul(r, nf_recip(to_nf(metric.lam)))
    metric._cache["R"] = r = nf_to_expr(r)
    return r


# --------------------------------------------------------------------------
# first-order scalar operators

def _grad(f: NF):
    return nf_diff(f, "x"), nf_diff(f, "y")


def _pairing(metric: Metric, fg, hg) -> NF:
    """g^{ij} f_i h_j from the gradients fg and hg."""
    (fx, fy), (hx, hy) = fg, hg
    i11, i12, i22 = (to_nf(c) for c in metric.inv)
    if metric.kind == "iso":
        return nf_mul(i11, nf_sum([nf_mul(fx, hx), nf_mul(fy, hy)]))
    mixed = nf_mul(i12, nf_sum([nf_mul(fx, hy), nf_mul(fy, hx)]))
    if metric.kind == "null":
        return mixed
    return nf_sum([nf_mul(i11, nf_mul(fx, hx)), mixed,
                   nf_mul(i22, nf_mul(fy, hy))])


def _bracket(metric: Metric, fg, hg) -> NF:
    """{f, h} from the gradients fg and hg."""
    (fx, fy), (hx, hy) = fg, hg
    return nf_mul(_cross(fx, hy, fy, hx), metric._inv_mu())


def _laplacian(metric: Metric, f: NF) -> NF:
    fx, fy = _grad(f)
    if metric.kind == "iso":
        # mu g^{ij} is the identity
        div = [nf_diff(fx, "x"), nf_diff(fy, "y")]
    elif metric.kind == "null":
        # mu g^{12} = 1 and mu g^{11} = mu g^{22} = 0
        div = [nf_diff(fy, "x"), nf_diff(fx, "y")]
    else:
        mu = to_nf(metric.mu)
        i11, i12, i22 = (to_nf(c) for c in metric.inv)
        flux_x = nf_mul(mu, nf_sum([nf_mul(i11, fx), nf_mul(i12, fy)]))
        flux_y = nf_mul(mu, nf_sum([nf_mul(i12, fx), nf_mul(i22, fy)]))
        div = [nf_diff(flux_x, "x"), nf_diff(flux_y, "y")]
    return nf_mul(nf_sum(div), metric._inv_mu())


def grad_pairing(metric: Metric, f: Expr, h: Expr) -> Expr:
    """<grad f, grad h> = g^{ij} f_i h_j."""
    return nf_to_expr(_pairing(metric, _grad(to_nf(f)), _grad(to_nf(h))))


def grad_half_square(metric: Metric, f: Expr) -> Expr:
    """Half the squared gradient, (1/2) g^{ij} f_i f_j."""
    fg = _grad(to_nf(f))
    return nf_to_expr(nf_scale(_pairing(metric, fg, fg), HALF))


def poisson_g(metric: Metric, f: Expr, h: Expr) -> Expr:
    """Poisson bracket of functions on the surface induced by the volume
    form mu dx^dy: {f, h} = (f_x h_y - f_y h_x) / mu."""
    return nf_to_expr(_bracket(metric, _grad(to_nf(f)), _grad(to_nf(h))))


def laplacian(metric: Metric, f: Expr) -> Expr:
    """Laplace-Beltrami operator (1/mu) d_i (mu g^{ij} d_j f)."""
    return nf_to_expr(_laplacian(metric, to_nf(f)))


def complex_structure(metric: Metric):
    """The endomorphism J^i_j = g^{ik} omega_{jk} (omega_{12} = mu) as a
    row-major 2x2 tuple.

    J^2 = -Id for Riemannian signature, +Id for split signature.
    """
    return tuple(tuple(map(nf_to_expr, row)) for row in metric._j())


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


def _nabla(m: Metric, v, p: int, first: bool):
    """The value of the weighted derivative of a section of weight p in
    the direction it names (first: (p, q) -> (p+1, q); else p is q):
    v_z - p u_z v (isothermal lane, v a pair of normal forms (re, im);
    v_zbar - q u_zbar v in the second direction) or v_x - p u_x v (null
    lane, v_y - q u_y v)."""
    du = m._u_grad(first)
    if m.kind == "iso":
        w = _wirtinger(v, -1 if first else 1)
        if not p:
            return w
        uv = _c_mul(du, v)
        return tuple(nf_sum([a, nf_scale(b, -p)]) for a, b in zip(w, uv))
    dv = nf_diff(v, "x" if first else "y")
    return nf_sum([dv, nf_scale(nf_mul(du, v), -p)]) if p else dv


def _section_nabla(s: Section, first: bool) -> Section:
    p, q = s.weight
    m = s.metric
    if m.kind == "iso":
        v = _nabla(m, (to_nf(s.value.re), to_nf(s.value.im)),
                   p if first else q, first)
        v = CExpr(*map(nf_to_expr, v))
    else:
        v = nf_to_expr(_nabla(m, to_nf(s.value), p if first else q, first))
    return Section(v, (p + 1, q) if first else (p, q + 1), m)


def nabla10(s: Section) -> Section:
    """Weighted derivative in the first direction: weight (p, q) -> (p+1, q).

    Isothermal lane: nabla s = s_z - p u_z s;  null lane: s_x - p u_x s,
    with u = ln lambda.
    """
    return _section_nabla(s, True)


def nabla01(s: Section) -> Section:
    """Weighted derivative in the second direction: (p, q) -> (p, q+1).

    Isothermal lane: s_zbar - q u_zbar s;  null lane: s_y - q u_y s.
    """
    return _section_nabla(s, False)
