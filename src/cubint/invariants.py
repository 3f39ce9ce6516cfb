"""Curvature-differential invariants of a (metric, codifferential) pair.

Everything the compatibility decision consumes is computed here:

* the curvature chain phi0..phi3 (curvature, half-square of its gradient,
  their Poisson bracket, and the half-square of the gradient of phi1);
* the codifferential chain D0..D3 obtained by repeatedly pairing with
  gradients of the phi's;
* the obstruction combinations G0..G3 (and determinant forms of G2, G3);
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
from typing import Dict, List, Optional, Tuple

from .expr import (Box, DEFAULT_CFG, Expr, Rat, ZeroTestConfig, as_expr, diff,
                   is_zero, nf_is_zero, parse, simplify)
from .cnum import CExpr, parse_complex, wirtinger_z, wirtinger_zbar
from .geometry import (ChartMismatch, Metric, Section, complex_structure,
                       gauss_curvature, grad_half_square, grad_pairing,
                       laplacian, nabla01, nabla10, poisson_g)
from .tensorcoords import (SymTensor3, a_hat_from_complex, div1, div2, div3,
                           holo_residual)

__all__ = [
    "Codifferential", "InvariantReport", "InvariantEngine",
    "HolomorphicityViolated", "DegenerateBracket",
    "phi_family", "dee_family", "gee_family", "gee_det_forms",
    "kay_covector", "f_tensor", "star_family", "dforms",
    "DEFAULT_DOMAIN",
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

    def a_hat_for(self, metric: Metric) -> SymTensor3:
        """The tensor representation in the chart of `metric`."""
        if self.variant == "iso":
            return a_hat_from_complex(self.a)
        if self.variant == "null":
            return SymTensor3((self.a1, as_expr(0), as_expr(0), self.a2))
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
# formulas shared by the engine and the functional wrappers

def _gee(metric: Metric, fa, fb, fc, da, db, dc) -> Expr:
    """{fa,fb} dc + {fb,fc} da + {fc,fa} db.

    Terms with an identically-zero D-multiplier are dropped before the
    bracket is ever formed, and the surviving combination is left
    unnormalized: expanding these products over a common denominator
    is the single most expensive simplification in the whole chain,
    and the zero tests downstream neither need nor reward it."""
    om = metric.omega12
    terms = []
    for (f1, f2, d) in ((fa, fb, dc), (fb, fc, da), (fc, fa, db)):
        if nf_is_zero(d):
            continue
        br = (diff(f1, "x") * diff(f2, "y")
              - diff(f1, "y") * diff(f2, "x")) / om
        terms.append(br * d)
    if not terms:
        return as_expr(0)
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def _det_form(metric: Metric, rows) -> Expr:
    """(1/omega12) det[[f_x, f_y, D] per row] for rows of (f, D)."""
    m = [[diff(f, "x"), diff(f, "y"), d] for (f, d) in rows]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return simplify(det / metric.omega12)


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
    out = []
    for var in ("x", "y"):
        num = diff(phi0, var) * dee1_like - dee0 * diff(phi1_like, var)
        out.append(simplify(num / denom))
    return tuple(out)


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
            res = holo_residual(self.metric, c.a_hat)
            for comp in res.c:
                v = self._is_zero(comp)
                if v.kind == "nonzero":
                    raise HolomorphicityViolated(
                        "holomorphy residual component = %s at %s"
                        % (v.value, v.witness))
        self._holo_checked = True

    # -- curvature chain ---------------------------------------------------

    @property
    def phi0(self) -> Expr:
        return self._get("phi0", lambda: gauss_curvature(self.metric))

    @property
    def phi1(self) -> Expr:
        return self._get("phi1",
                         lambda: grad_half_square(self.metric, self.phi0))

    @property
    def phi2(self) -> Expr:
        return self._get("phi2",
                         lambda: poisson_g(self.metric, self.phi0, self.phi1))

    @property
    def phi3(self) -> Expr:
        return self._get("phi3",
                         lambda: grad_half_square(self.metric, self.phi1))

    @property
    def phistar1(self) -> Expr:
        return self._get("phistar1", lambda: laplacian(self.metric, self.phi0))

    @property
    def phistar2(self) -> Expr:
        return self._get("phistar2",
                         lambda: poisson_g(self.metric, self.phi0, self.phistar1))

    @property
    def phistar3(self) -> Expr:
        return self._get("phistar3",
                         lambda: grad_half_square(self.metric, self.phistar1))

    # -- codifferential derivative helpers, one per lane -------------------

    def _iso_az(self):
        # weighted derivative of the calculus coefficient a_cal = 2a
        def build():
            a_cal = self.codiff.a * Rat(2)
            return nabla10(Section(a_cal, (-3, 0), self.metric))
        return self._get("iso_az", build)

    def _null_parts(self):
        def build():
            s1 = Section(self.codiff.a1, (-3, 0), self.metric)
            s2 = Section(self.codiff.a2, (0, -3), self.metric)
            return nabla10(s1), nabla01(s2)
        return self._get("null_parts", build)

    def _w_tensor(self):
        # (Div A-hat)^{jk} for the general lane
        return self._get("w_tensor",
                         lambda: div3(self.metric, self.codiff.a_hat))

    def _pair_drop(self, dee: Expr, f: Expr) -> Expr:
        """<grad dee, grad f> minus the codifferential quadratic term
        4 Re(A_;z (f_;z)^2) in the matching lane."""
        lead = grad_pairing(self.metric, dee, f)
        c = self.codiff
        if c.variant == "iso":
            az = self._iso_az().value
            fz = wirtinger_z(CExpr(f, as_expr(0)))
            term = (az * fz * fz).re
            return simplify(lead - Rat(4) * term)
        if c.variant == "null":
            a1x, a2y = self._null_parts()
            term = (a1x.value * diff(f, "x") ** 2
                    + a2y.value * diff(f, "y") ** 2)
            return simplify(lead - Rat(2) * term)
        w = self._w_tensor()
        fx, fy = diff(f, "x"), diff(f, "y")
        grads = (fx, fy)
        term = as_expr(0)
        for i in range(2):
            for j in range(2):
                term = term + w[i][j] * grads[i] * grads[j]
        return simplify(lead - Rat(4) * term)

    # -- D family ----------------------------------------------------------

    @property
    def dee0(self) -> Expr:
        def build():
            self.check_holomorphic()
            c = self.codiff
            if c.variant == "iso":
                a_cal = c.a * Rat(2)
                s = Section(a_cal, (-3, 0), self.metric)
                azzz = nabla10(nabla10(nabla10(s))).value
                return simplify(Rat(4) * azzz.re)
            if c.variant == "null":
                s1 = Section(c.a1, (-3, 0), self.metric)
                s2 = Section(c.a2, (0, -3), self.metric)
                a1xxx = nabla10(nabla10(nabla10(s1))).value
                a2yyy = nabla01(nabla01(nabla01(s2))).value
                return simplify(Rat(2) * (a1xxx + a2yyy))
            w2 = div3(self.metric, c.a_hat)
            v = div2(self.metric, w2)
            return simplify(Rat(4) * div1(self.metric, v))
        return self._get("D0", build)

    @property
    def dee1(self) -> Expr:
        return self._get("D1", lambda: self._pair_drop(self.dee0, self.phi0))

    @property
    def dee2(self) -> Expr:
        def build():
            return simplify(poisson_g(self.metric, self.dee0, self.phi1)
                            - poisson_g(self.metric, self.dee1, self.phi0))
        return self._get("D2", build)

    @property
    def dee3(self) -> Expr:
        return self._get("D3", lambda: self._pair_drop(self.dee1, self.phi1))

    @property
    def deestar1(self) -> Expr:
        def build():
            self.check_holomorphic()
            c = self.codiff
            lead = laplacian(self.metric, self.dee0)
            if c.variant == "iso":
                az = self._iso_az()          # weight (-2, 0)
                rz = wirtinger_z(CExpr(self.phi0, as_expr(0)))
                prod = Section(az.value * rz, (-1, 0), self.metric)
                w = nabla10(prod).value
                return simplify(lead - Rat(2) * w.re)
            if c.variant == "null":
                a1x, a2y = self._null_parts()
                p1 = Section(simplify(a1x.value * diff(self.phi0, "x")),
                             (-1, 0), self.metric)
                p2 = Section(simplify(a2y.value * diff(self.phi0, "y")),
                             (0, -1), self.metric)
                return simplify(lead - nabla10(p1).value - nabla01(p2).value)
            w2 = self._w_tensor()
            v = tuple(
                simplify(w2[j][0] * diff(self.phi0, "x")
                         + w2[j][1] * diff(self.phi0, "y"))
                for j in range(2))
            return simplify(lead - Rat(2) * div1(self.metric, v))
        return self._get("Dstar1", build)

    @property
    def deestar2(self) -> Expr:
        def build():
            return simplify(poisson_g(self.metric, self.dee0, self.phistar1)
                            - poisson_g(self.metric, self.deestar1, self.phi0))
        return self._get("Dstar2", build)

    @property
    def deestar3(self) -> Expr:
        return self._get("Dstar3",
                         lambda: self._pair_drop(self.deestar1, self.phistar1))

    # -- G combinations ----------------------------------------------------

    @property
    def gee0(self) -> Expr:
        return self._get("G0", lambda: _gee(
            self.metric, self.phi1, self.phi2, self.phi3,
            self.dee1, self.dee2, self.dee3))

    @property
    def gee1(self) -> Expr:
        return self._get("G1", lambda: _gee(
            self.metric, self.phi0, self.phi2, self.phi3,
            self.dee0, self.dee2, self.dee3))

    @property
    def gee2(self) -> Expr:
        return self._get("G2", lambda: _gee(
            self.metric, self.phi0, self.phi1, self.phi3,
            self.dee0, self.dee1, self.dee3))

    @property
    def gee3(self) -> Expr:
        return self._get("G3", lambda: _gee(
            self.metric, self.phi0, self.phi1, self.phi2,
            self.dee0, self.dee1, self.dee2))

    @property
    def geestar2(self) -> Expr:
        return self._get("Gstar2", lambda: _gee(
            self.metric, self.phi0, self.phistar1, self.phistar3,
            self.dee0, self.deestar1, self.deestar3))

    @property
    def geestar3(self) -> Expr:
        return self._get("Gstar3", lambda: _gee(
            self.metric, self.phi0, self.phistar1, self.phistar2,
            self.dee0, self.deestar1, self.deestar2))

    @property
    def gee2_det(self) -> Expr:
        return self._get("G2det", lambda: _det_form(
            self.metric, ((self.phi0, self.dee0), (self.phi1, self.dee1),
                          (self.phi3, self.dee3))))

    @property
    def gee3_det(self) -> Expr:
        return self._get("G3det", lambda: _det_form(
            self.metric, ((self.phi0, self.dee0), (self.phi1, self.dee1),
                          (self.phi2, self.dee2))))

    @property
    def geestar2_det(self) -> Expr:
        return self._get("Gstar2det", lambda: _det_form(
            self.metric, ((self.phi0, self.dee0), (self.phistar1, self.deestar1),
                          (self.phistar3, self.deestar3))))

    @property
    def geestar3_det(self) -> Expr:
        return self._get("Gstar3det", lambda: _det_form(
            self.metric, ((self.phi0, self.dee0), (self.phistar1, self.deestar1),
                          (self.phistar2, self.deestar2))))

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
        i11, i12, i22 = m.inv
        ginv = ((i11, i12), (i12, i22))
        jmat = complex_structure(m)
        jk = tuple(
            simplify(kay[0] * jmat[0][l] + kay[1] * jmat[1][l])
            for l in range(2))
        f24 = Rat(1, 24)

        def comp(i, j, k):
            s = as_expr(0)
            for l in range(2):
                s = s + (ginv[i][j] * ginv[k][l] + ginv[i][k] * ginv[j][l]
                         + ginv[j][k] * ginv[i][l]) * jk[l]
            return simplify(f24 * s)

        return SymTensor3((comp(0, 0, 0), comp(0, 0, 1),
                           comp(0, 1, 1), comp(1, 1, 1)))

    def b_field(self) -> CExpr:
        """Isothermal-lane complex b with B = b * dz^2 dzbar:
        b = (K2 - i K1) / lambda^2."""
        if self.metric.kind != "iso":
            raise ChartMismatch("b_field is defined in the isothermal lane")
        k1, k2 = self.kay
        lam2 = simplify(self.metric.lam * self.metric.lam)
        return CExpr(simplify(k2 / lam2), simplify(Rat(-1) * k1 / lam2))

    def f_tensor(self, kay: Optional[Tuple[Expr, Expr]] = None) -> SymTensor3:
        """Candidate integral F = A-hat + B-hat(kay); kay defaults to the
        phi-family covector."""
        if kay is None:
            kay = self.kay
        a_hat = self.codiff.a_hat_for(self.metric)
        return a_hat + self.b_hat(kay)

    # -- 1-forms for the degenerate branch ---------------------------------

    @property
    def dform_x(self) -> Expr:
        return self._get("Dx", lambda: simplify(
            diff(self.phi0, "x") * self.dee1
            - diff(self.phi1, "x") * self.dee0))

    @property
    def dform_y(self) -> Expr:
        return self._get("Dy", lambda: simplify(
            diff(self.phi0, "y") * self.dee1
            - diff(self.phi1, "y") * self.dee0))

    @property
    def dformstar_x(self) -> Expr:
        return self._get("Dstarx", lambda: simplify(
            diff(self.phi0, "x") * self.deestar1
            - diff(self.phistar1, "x") * self.dee0))

    @property
    def dformstar_y(self) -> Expr:
        return self._get("Dstary", lambda: simplify(
            diff(self.phi0, "y") * self.deestar1
            - diff(self.phistar1, "y") * self.dee0))

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


# --------------------------------------------------------------------------
# functional wrappers

def phi_family(metric: Metric) -> List[Expr]:
    eng = InvariantEngine(metric, Codifferential.general(
        SymTensor3((as_expr(0),) * 4)))
    return [eng.phi0, eng.phi1, eng.phi2, eng.phi3]


def dee_family(metric: Metric, codiff: Codifferential,
               domain: Box = DEFAULT_DOMAIN,
               cfg: ZeroTestConfig = DEFAULT_CFG) -> List[Expr]:
    eng = InvariantEngine(metric, codiff, domain, cfg)
    return [eng.dee0, eng.dee1, eng.dee2, eng.dee3]


def gee_family(metric: Metric, phi: List[Expr], dee: List[Expr]) -> List[Expr]:
    return [
        _gee(metric, phi[1], phi[2], phi[3], dee[1], dee[2], dee[3]),
        _gee(metric, phi[0], phi[2], phi[3], dee[0], dee[2], dee[3]),
        _gee(metric, phi[0], phi[1], phi[3], dee[0], dee[1], dee[3]),
        _gee(metric, phi[0], phi[1], phi[2], dee[0], dee[1], dee[2]),
    ]


def gee_det_forms(metric: Metric, phi: List[Expr],
                  dee: List[Expr]) -> Tuple[Expr, Expr]:
    """Determinant forms of G2 and G3 (rows (phi_i, D_i); third rows
    (phi3, D3) and (phi2, D2) respectively), divided by omega12."""
    g2 = _det_form(metric, ((phi[0], dee[0]), (phi[1], dee[1]),
                            (phi[3], dee[3])))
    g3 = _det_form(metric, ((phi[0], dee[0]), (phi[1], dee[1]),
                            (phi[2], dee[2])))
    return g2, g3


def kay_covector(metric: Metric, phi: List[Expr], dee: List[Expr],
                 domain: Box = DEFAULT_DOMAIN,
                 cfg: ZeroTestConfig = DEFAULT_CFG) -> Tuple[Expr, Expr]:
    return _kay(phi[0], dee[0], phi[1], dee[1], phi[2], "phi2", domain, cfg)


def f_tensor(metric: Metric, codiff: Codifferential,
             kay: Tuple[Expr, Expr]) -> SymTensor3:
    eng = InvariantEngine(metric, codiff)
    return eng.f_tensor(kay)


def star_family(metric: Metric, codiff: Codifferential,
                domain: Box = DEFAULT_DOMAIN,
                cfg: ZeroTestConfig = DEFAULT_CFG) -> Dict[str, object]:
    eng = InvariantEngine(metric, codiff, domain, cfg)
    rep = eng.report()
    return rep.star


def dforms(metric: Metric, codiff: Codifferential,
           domain: Box = DEFAULT_DOMAIN,
           cfg: ZeroTestConfig = DEFAULT_CFG) -> Dict[str, Expr]:
    eng = InvariantEngine(metric, codiff, domain, cfg)
    return {"Dx": eng.dform_x, "Dy": eng.dform_y,
            "Dstarx": eng.dformstar_x, "Dstary": eng.dformstar_y}
