"""Curvature-differential invariants of a (metric, codifferential) pair.

Everything the compatibility decision consumes is computed here:

* the curvature chain phi0..phi3 (curvature, half-square of its gradient,
  their Poisson bracket, and the half-square of the gradient of phi1);
* the codifferential chain D0..D3 obtained by repeatedly pairing with
  gradients of the phi's;
* the obstruction combinations G0..G3;
* the covector K and the candidate integral tensor F = A-hat + B-hat;
* the star family (phi1 replaced by the Laplacian of the curvature) with
  its own D*, G*, K*;
* the 1-form combinations Dx, Dy, D*x, D*y used when the phi-bracket
  degenerates.

Three input lanes produce identical scalars on overlapping charts:
isothermal metrics take a complex coefficient a (the codifferential is
a * dz^3 read through the weighted calculus), null metrics take the real
pair (a1, a2), and any metric accepts the chart-free tensor A-hat with
covariant index formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .expr import (_NF_ZERO, Box, DEFAULT_CFG, Expr, ZeroTestConfig, as_expr,
                   diff, is_zero, nf_is_zero, nf_mul, nf_neg, nf_recip,
                   nf_scale, nf_sum, nf_to_expr, parse, simplify, to_nf)
from .cnum import (CExpr, _c_mul, _nfs, _wirtinger, parse_complex,
                   wirtinger_zbar)
from .geometry import (ChartMismatch, Metric, _bracket, _cross, _grad,
                       _laplacian, _nabla, _pairing, gauss_curvature,
                       grad_half_square, laplacian, poisson_g)
from .tensorcoords import (SymTensor3, _cov_deriv3, _div3, _holo_residual,
                           a_hat_from_complex, div1, div2)

__all__ = [
    "Codifferential", "InvariantReport", "InvariantEngine",
    "HolomorphicityViolated", "DegenerateBracket", "DEFAULT_DOMAIN",
]

DEFAULT_DOMAIN = Box(-1.0, 1.0, -1.0, 1.0)


class HolomorphicityViolated(ValueError):
    """The codifferential fails its holomorphicity requirement."""


class DegenerateBracket(ValueError):
    """phi2 (or phi*2) is not certified NonZero where its inverse is needed."""


class Codifferential:
    """A cubic codifferential in one of three chart-adapted encodings."""

    __slots__ = ("variant", "a", "a1", "a2", "a_hat")

    def __init__(self, variant, a=None, a1=None, a2=None, a_hat=None):
        self.variant = variant
        self.a = a
        self.a1 = a1
        self.a2 = a2
        self.a_hat = a_hat

    @classmethod
    def isothermal(cls, a) -> "Codifferential":
        if isinstance(a, tuple):
            a = parse_complex(*a)
        elif isinstance(a, str):
            a = parse_complex(a)
        if not isinstance(a, CExpr):
            raise TypeError("isothermal codifferential takes a complex coefficient")
        return cls("iso", a=a)

    @classmethod
    def null_pair(cls, a1, a2) -> "Codifferential":
        conv = lambda v: parse(v) if isinstance(v, str) else as_expr(v)
        return cls("null", a1=simplify(conv(a1)), a2=simplify(conv(a2)))

    @classmethod
    def general(cls, a_hat: SymTensor3) -> "Codifferential":
        if not isinstance(a_hat, SymTensor3):
            raise TypeError("general codifferential takes a SymTensor3")
        return cls("general", a_hat=a_hat)

    def is_trivial(self) -> bool:
        if self.variant == "iso":
            return nf_is_zero(self.a.re) and nf_is_zero(self.a.im)
        if self.variant == "null":
            return nf_is_zero(self.a1) and nf_is_zero(self.a2)
        return self.a_hat.is_trivial()

    def a_hat_for(self) -> SymTensor3:
        """The tensor representation A-hat, in the chart of the metric the
        encoding belongs to."""
        if self.variant == "iso":
            return a_hat_from_complex(self.a)
        if self.variant == "null":
            return SymTensor3((to_nf(self.a1), _NF_ZERO, _NF_ZERO,
                               to_nf(self.a2)))
        return self.a_hat

    def __repr__(self):
        return "Codifferential(%s)" % self.variant


@dataclass
class InvariantReport:
    """All invariants of one (metric, codifferential) pair, with the
    formula each entry instantiates recorded under the same key in tags."""
    phi: List[Expr]
    dee: List[Expr]
    gee: List[Expr]
    kay: Optional[Tuple[Expr, Expr]]
    star: Dict[str, object]
    dforms: Dict[str, Expr]
    tags: Dict[str, str] = field(default_factory=dict)


_TAGS = {
    "phi0": "phi0 = R (Gauss curvature)",
    "phi1": "phi1 = |grad R|^2 / 2",
    "phi2": "phi2 = {phi0, phi1}",
    "phi3": "phi3 = |grad phi1|^2 / 2",
    "D0": "D0 = 4 Re A_;zzz  (= 4 A-hat^{ijk}_{;ijk})",
    "D1": "D1 = <grad D0, grad R> - 4 Re(A_;z (R_;z)^2)",
    "D2": "D2 = {D0, phi1} - {D1, phi0}",
    "D3": "D3 = <grad D1, grad phi1> - 4 Re(A_;z (phi1_;z)^2)",
    "G0": "G0 = {phi1,phi2} D3 + {phi2,phi3} D1 + {phi3,phi1} D2",
    "G1": "G1 = {phi0,phi2} D3 + {phi2,phi3} D0 + {phi3,phi0} D2",
    "G2": "G2 = {phi0,phi1} D3 + {phi1,phi3} D0 + {phi3,phi0} D1",
    "G3": "G3 = {phi0,phi1} D2 + {phi1,phi2} D0 + {phi2,phi0} D1",
    "K": "K_i = ((phi0)_i D1 - D0 (phi1)_i) / phi2",
    "phistar1": "phi*1 = Laplacian R",
    "phistar2": "phi*2 = {phi0, phi*1}",
    "phistar3": "phi*3 = |grad phi*1|^2 / 2",
    "Dstar1": "D*1 = Laplacian D0 - 2 Re((A_;z R_;z)_;z)",
    "Dstar2": "D*2 = {D0, phi*1} - {D*1, phi0}",
    "Dstar3": "D*3 = <grad D*1, grad phi*1> - 4 Re(A_;z (phi*1_;z)^2)",
    "Gstar2": "G*2 = {phi0,phi*1} D*3 + {phi*1,phi*3} D0 + {phi*3,phi0} D*1",
    "Gstar3": "G*3 = {phi0,phi*1} D*2 + {phi*1,phi*2} D0 + {phi*2,phi0} D*1",
    "Kstar": "K*_i = ((phi0)_i D*1 - D0 (phi*1)_i) / phi*2",
    "Dx": "Dx = (phi0)_x D1 - (phi1)_x D0",
    "Dy": "Dy = (phi0)_y D1 - (phi1)_y D0",
    "Dstarx": "D*x = (phi0)_x D*1 - (phi*1)_x D0",
    "Dstary": "D*y = (phi0)_y D*1 - (phi*1)_y D0",
}


# --------------------------------------------------------------------------
# formulas the engine applies to more than one family of invariants

def _gee(eng: "InvariantEngine", fa, fb, fc, da, db, dc) -> Expr:
    """{fa,fb} dc + {fb,fc} da + {fc,fa} db over the invariants of eng
    that the arguments name.

    Each D-multiplier is read first, and a term whose D is identically
    zero is dropped before the gradients of its phi's are fetched, so a
    phi that only such terms read is never built.  The brackets are
    formed from the engine's gradient trees, which the G's share, and the
    surviving combination is left an unnormalized tree: the first zero
    test of it normalizes it.  Normalizing it here instead, for every G of
    a report, made the set-up of bench/run.py's invariant-grid, which
    builds its reports before any timed round, about 40 % slower."""
    om = eng.metric.mu
    terms = []
    for (f1, f2, d) in ((fa, fb, dc), (fb, fc, da), (fc, fa, db)):
        d = getattr(eng, d)
        if nf_is_zero(d):
            continue
        (f1x, f1y), (f2x, f2y) = eng._gradient(f1), eng._gradient(f2)
        terms.append((f1x * f2y - f1y * f2x) / om * d)
    if not terms:
        return as_expr(0)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def _kay(phi0: Expr, dee0: Expr, phi1_like: Expr, dee1_like: Expr,
         denom: Expr, denom_name: str, domain: Box,
         cfg: ZeroTestConfig) -> Tuple[Expr, Expr]:
    """K_i = ((phi0)_i D1 - D0 (phi1)_i) / phi2, or its star variant;
    raises DegenerateBracket unless denom is certified NonZero."""
    v = is_zero(denom, domain, cfg)
    if v.kind != "nonzero":
        raise DegenerateBracket(
            "%s is %s on the sampled domain; covector undefined"
            % (denom_name, v.kind))
    num = _dform(phi0, dee0, phi1_like, dee1_like)
    if any(n.num for n in num):
        r = nf_recip(to_nf(denom))
        num = [nf_mul(n, r) for n in num]
    return tuple(map(nf_to_expr, num))


def _dform(phi0: Expr, dee0: Expr, phi1_like: Expr, dee1_like: Expr):
    """The normal forms of (phi0)_i D1 - D0 (phi1)_i for i = x, y, or of
    their star variant."""
    d0, d1 = to_nf(dee0), to_nf(dee1_like)
    return tuple(_cross(a, d1, b, d0) for a, b in
                 zip(_grad(to_nf(phi0)), _grad(to_nf(phi1_like))))


def _formula(key: str, fn, *names):
    """An InvariantEngine property: fn of the metric and the invariants
    named, built once."""
    return property(lambda eng: eng._get(key, lambda: fn(
        eng.metric, *(getattr(eng, n) for n in names))))


def _obstruction(key: str, *names):
    """An InvariantEngine property: the G of the invariants named, built
    once."""
    return property(lambda eng: eng._get(key, lambda: _gee(eng, *names)))


class InvariantEngine:
    """Lazy, memoized invariant computation for one (metric, codifferential).

    The codifferential's holomorphicity requirement is checked on first
    use of any D-type quantity; a certified violation raises
    HolomorphicityViolated.
    """

    def __init__(self, metric: Metric, codiff: Codifferential,
                 domain: Box = DEFAULT_DOMAIN,
                 cfg: ZeroTestConfig = DEFAULT_CFG):
        if codiff.variant == "iso" and metric.kind != "iso":
            raise ChartMismatch("complex coefficient requires an isothermal metric")
        if codiff.variant == "null" and metric.kind != "null":
            raise ChartMismatch("null pair requires a null metric")
        self.metric = metric
        self.codiff = codiff
        self.domain = domain
        self.cfg = cfg
        self._memo: Dict[str, object] = {}
        self._holo_checked = False

    # -- plumbing ----------------------------------------------------------

    def _get(self, key, builder):
        if key not in self._memo:
            self._memo[key] = builder()
        return self._memo[key]

    def _gradient(self, name: str) -> Tuple[Expr, Expr]:
        """(d/dx, d/dy) of the invariant named, as trees built once: the
        G brackets and the flowchart's constant-curvature box share them."""
        def build():
            f = getattr(self, name)
            return diff(f, "x"), diff(f, "y")
        return self._get(("grad", name), build)

    def _is_zero(self, e: Expr):
        return is_zero(e, self.domain, self.cfg)

    def check_holomorphic(self) -> None:
        """Raise HolomorphicityViolated on a certified violation."""
        if self._holo_checked:
            return
        c = self.codiff
        if c.variant == "iso":
            res = wirtinger_zbar(c.a)
            for part, name in ((res.re, "Re"), (res.im, "Im")):
                v = self._is_zero(part)
                if v.kind == "nonzero":
                    raise HolomorphicityViolated(
                        "d/dzbar of the coefficient has %s = %s at %s"
                        % (name, v.value, v.witness))
        elif c.variant == "null":
            for d, name in ((diff(c.a1, "y"), "a1_y"), (diff(c.a2, "x"), "a2_x")):
                v = self._is_zero(d)
                if v.kind == "nonzero":
                    raise HolomorphicityViolated(
                        "quasi-holomorphicity fails: %s = %s at %s"
                        % (name, v.value, v.witness))
        else:
            res = _holo_residual(self.metric, self._nabla_a_hat())
            for comp in res.c:
                v = self._is_zero(comp)
                if v.kind == "nonzero":
                    raise HolomorphicityViolated(
                        "holomorphy residual component = %s at %s"
                        % (v.value, v.witness))
        self._holo_checked = True

    # -- curvature chain ---------------------------------------------------

    phi0 = _formula("phi0", gauss_curvature)
    phi1 = _formula("phi1", grad_half_square, "phi0")
    phi2 = _formula("phi2", poisson_g, "phi0", "phi1")
    phi3 = _formula("phi3", grad_half_square, "phi1")
    phistar1 = _formula("phistar1", laplacian, "phi0")
    phistar2 = _formula("phistar2", poisson_g, "phi0", "phistar1")
    phistar3 = _formula("phistar3", grad_half_square, "phistar1")

    # -- codifferential derivative helpers, one per lane -------------------

    def _iso_az(self):
        # weighted derivative (weight (-2, 0)) of the calculus coefficient
        # a_cal = 2a, as a pair of normal forms
        return self._get("iso_az", lambda: _nabla(
            self.metric, tuple(nf_scale(v, 2) for v in _nfs(self.codiff.a)),
            -3, True))

    def _null_parts(self):
        # a1_x (weight (-2, 0)) and a2_y (weight (0, -2)), as normal forms
        def build():
            c, m = self.codiff, self.metric
            return (_nabla(m, to_nf(c.a1), -3, True),
                    _nabla(m, to_nf(c.a2), -3, False))
        return self._get("null_parts", build)

    def _nabla_a_hat(self):
        # nabla A-hat for the general lane, as normal forms: read by the
        # holomorphy check and by Div A-hat
        return self._get("nabla_a_hat",
                         lambda: _cov_deriv3(self.metric, self.codiff.a_hat))

    def _w_tensor(self):
        # (Div A-hat)^{jk} for the general lane
        return self._get("w_tensor", lambda: _div3(self._nabla_a_hat()))

    def _pair_drop(self, dee: Expr, f: Expr) -> Expr:
        """<grad dee, grad f> minus the codifferential quadratic term
        4 Re(A_;z (f_;z)^2) in the matching lane."""
        fg = _grad(to_nf(f))
        lead = _pairing(self.metric, _grad(to_nf(dee)), fg)
        c = self.codiff
        if c.variant == "iso":
            fz = _wirtinger((to_nf(f), _NF_ZERO), -1)
            terms = [nf_scale(_c_mul(_c_mul(self._iso_az(), fz), fz)[0], -4)]
        elif c.variant == "null":
            terms = [nf_scale(nf_mul(nf_mul(a, g), g), -2)
                     for a, g in zip(self._null_parts(), fg)]
        else:
            w = [[to_nf(v) for v in row] for row in self._w_tensor()]
            terms = [nf_scale(nf_mul(nf_mul(w[i][j], fg[i]), fg[j]), -4)
                     for i in range(2) for j in range(2)]
        return nf_to_expr(nf_sum([lead] + terms))

    # -- D family ----------------------------------------------------------

    @property
    def dee0(self) -> Expr:
        def build():
            self.check_holomorphic()
            c, m = self.codiff, self.metric
            if c.variant == "iso":
                azzz = _nabla(m, _nabla(m, self._iso_az(), -2, True), -1, True)
                return nf_to_expr(nf_scale(azzz[0], 4))
            if c.variant == "null":
                a1x, a2y = self._null_parts()
                a1xxx = _nabla(m, _nabla(m, a1x, -2, True), -1, True)
                a2yyy = _nabla(m, _nabla(m, a2y, -2, False), -1, False)
                return nf_to_expr(nf_scale(nf_sum([a1xxx, a2yyy]), 2))
            v = div2(m, self._w_tensor())
            return nf_to_expr(nf_scale(to_nf(div1(m, v)), 4))
        return self._get("D0", build)

    @property
    def dee1(self) -> Expr:
        return self._get("D1", lambda: self._pair_drop(self.dee0, self.phi0))

    def _bracket_diff(self, f: Expr, dee: Expr) -> Expr:
        """{D0, f} - {dee, phi0}: D2 for f = phi1, D*2 for f = phi*1."""
        m, phi0 = self.metric, _grad(to_nf(self.phi0))
        return nf_to_expr(nf_sum([
            _bracket(m, _grad(to_nf(self.dee0)), _grad(to_nf(f))),
            nf_neg(_bracket(m, _grad(to_nf(dee)), phi0))]))

    @property
    def dee2(self) -> Expr:
        return self._get("D2", lambda: self._bracket_diff(self.phi1, self.dee1))

    @property
    def dee3(self) -> Expr:
        return self._get("D3", lambda: self._pair_drop(self.dee1, self.phi1))

    @property
    def deestar1(self) -> Expr:
        def build():
            self.check_holomorphic()
            c, m = self.codiff, self.metric
            lead = _laplacian(m, to_nf(self.dee0))
            r = to_nf(self.phi0)
            if c.variant == "iso":
                rz = _wirtinger((r, _NF_ZERO), -1)
                w = _nabla(m, _c_mul(self._iso_az(), rz), -1, True)
                terms = [nf_scale(w[0], -2)]
            elif c.variant == "null":
                terms = [nf_neg(_nabla(m, nf_mul(a, g), -1, first))
                         for a, g, first in zip(self._null_parts(), _grad(r),
                                                 (True, False))]
            else:
                w2 = [[to_nf(v) for v in row] for row in self._w_tensor()]
                rx, ry = _grad(r)
                v = tuple(nf_to_expr(nf_sum([nf_mul(w2[j][0], rx),
                                             nf_mul(w2[j][1], ry)]))
                          for j in range(2))
                terms = [nf_scale(to_nf(div1(m, v)), -2)]
            return nf_to_expr(nf_sum([lead] + terms))
        return self._get("Dstar1", build)

    @property
    def deestar2(self) -> Expr:
        return self._get("Dstar2",
                         lambda: self._bracket_diff(self.phistar1, self.deestar1))

    @property
    def deestar3(self) -> Expr:
        return self._get("Dstar3",
                         lambda: self._pair_drop(self.deestar1, self.phistar1))

    # -- G combinations: {fa,fb} dc + {fb,fc} da + {fc,fa} db

    gee0 = _obstruction("G0", "phi1", "phi2", "phi3", "dee1", "dee2", "dee3")
    gee1 = _obstruction("G1", "phi0", "phi2", "phi3", "dee0", "dee2", "dee3")
    gee2 = _obstruction("G2", "phi0", "phi1", "phi3", "dee0", "dee1", "dee3")
    gee3 = _obstruction("G3", "phi0", "phi1", "phi2", "dee0", "dee1", "dee2")
    geestar2 = _obstruction("Gstar2", "phi0", "phistar1", "phistar3",
                            "dee0", "deestar1", "deestar3")
    geestar3 = _obstruction("Gstar3", "phi0", "phistar1", "phistar2",
                            "dee0", "deestar1", "deestar2")

    # -- K covector, B-hat, candidate F ------------------------------------

    @property
    def kay(self) -> Tuple[Expr, Expr]:
        return self._get("K", lambda: _kay(
            self.phi0, self.dee0, self.phi1, self.dee1, self.phi2, "phi2",
            self.domain, self.cfg))

    @property
    def kaystar(self) -> Tuple[Expr, Expr]:
        return self._get("Kstar", lambda: _kay(
            self.phi0, self.dee0, self.phistar1, self.deestar1,
            self.phistar2, "phi*2", self.domain, self.cfg))

    def b_hat(self, kay: Tuple[Expr, Expr]) -> SymTensor3:
        """B-hat^{ijk} = (1/24)(g^{ij}g^{kl} + g^{ik}g^{jl} + g^{jk}g^{il})
        (K J)_l with the 1-form action (K J)_l = K_m J^m_l."""
        m = self.metric
        i11, i12, i22 = (to_nf(c) for c in m.inv)
        ginv = ((i11, i12), (i12, i22))
        jmat = m._j()
        k = [to_nf(c) for c in kay]
        jk = [nf_sum([nf_mul(k[0], jmat[0][l]), nf_mul(k[1], jmat[1][l])])
              for l in range(2)]

        def comp(i, j, k):
            return nf_scale(nf_sum([nf_mul(nf_sum([
                nf_mul(ginv[i][j], ginv[k][l]), nf_mul(ginv[i][k], ginv[j][l]),
                nf_mul(ginv[j][k], ginv[i][l])]), jk[l]) for l in range(2)]),
                Fraction(1, 24))

        return SymTensor3((comp(0, 0, 0), comp(0, 0, 1),
                           comp(0, 1, 1), comp(1, 1, 1)))

    def b_field(self) -> CExpr:
        """Isothermal-lane complex b with B = b * dz^2 dzbar:
        b = (K2 - i K1) / lambda^2."""
        if self.metric.kind != "iso":
            raise ChartMismatch("b_field is defined in the isothermal lane")
        k1, k2 = self.kay
        r = self.metric._inv_det()
        return CExpr(nf_to_expr(nf_mul(to_nf(k2), r)),
                     nf_to_expr(nf_neg(nf_mul(to_nf(k1), r))))

    def f_tensor(self, kay: Optional[Tuple[Expr, Expr]] = None) -> SymTensor3:
        """Candidate integral F = A-hat + B-hat(kay); kay defaults to the
        phi-family covector."""
        if kay is None:
            kay = self.kay
        a_hat = self.codiff.a_hat_for()
        return a_hat + self.b_hat(kay)

    # -- 1-forms for the degenerate branch ---------------------------------

    def _dforms(self, star: bool):
        """(D_x, D_y), or (D*_x, D*_y) for star, as trees."""
        return self._get(("dforms", star), lambda: tuple(map(nf_to_expr, _dform(
            self.phi0, self.dee0, *((self.phistar1, self.deestar1) if star
                                    else (self.phi1, self.dee1))))))

    dform_x = property(lambda self: self._dforms(False)[0])
    dform_y = property(lambda self: self._dforms(False)[1])
    dformstar_x = property(lambda self: self._dforms(True)[0])
    dformstar_y = property(lambda self: self._dforms(True)[1])

    # -- assembled report --------------------------------------------------

    def report(self) -> InvariantReport:
        phi = [self.phi0, self.phi1, self.phi2, self.phi3]
        dee = [self.dee0, self.dee1, self.dee2, self.dee3]
        gee = [self.gee0, self.gee1, self.gee2, self.gee3]
        try:
            kay = self.kay
        except DegenerateBracket:
            kay = None
        star = {
            "phistar1": self.phistar1, "phistar2": self.phistar2,
            "phistar3": self.phistar3,
            "Dstar1": self.deestar1, "Dstar2": self.deestar2,
            "Dstar3": self.deestar3,
            "Gstar2": self.geestar2, "Gstar3": self.geestar3,
        }
        try:
            star["Kstar"] = self.kaystar
        except DegenerateBracket:
            star["Kstar"] = None
        dfm = {"Dx": self.dform_x, "Dy": self.dform_y,
               "Dstarx": self.dformstar_x, "Dstary": self.dformstar_y}
        return InvariantReport(phi=phi, dee=dee, gee=gee, kay=kay,
                               star=star, dforms=dfm, tags=dict(_TAGS))
