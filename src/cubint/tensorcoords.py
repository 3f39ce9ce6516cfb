"""Symmetric contravariant tensors in real chart coordinates.

The cubic-integral machinery needs, in any chart:

* symmetric 3-tensors F^{ijk} (the momentum representation of a cubic
  integral) and symmetric 4-tensors (residuals of holomorphy tests);
* the splitting of a symmetric 3-tensor into its "holomorphic-part"
  component A-hat and the complementary component B-hat, using only the
  complex structure J of the metric (no complex coordinates);
* covariant derivatives and divergences taken with Christoffel symbols.

2-D symmetric tensors are stored by their independent components: the
rank + 1 values T[0...0], T[0...01], ..., T[1...1], so component n is
the one with n indices equal to 1.  Index gymnastics run on dense
2 x ... x 2 nested lists of any rank that hold normal forms: each J
contraction, symmetrization and covariant derivative combines them with
nf_sum, nf_mul and nf_diff, and a public result builds one tree per
component of the result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Tuple

from .expr import (NF, _NF_ZERO, Expr, Rat, as_expr, nf_diff, nf_is_zero,
                   nf_mul, nf_neg, nf_scale, nf_sum, nf_to_expr, simplify,
                   to_nf, to_str)
from .cnum import CExpr
from .geometry import Metric, christoffel
from .verify import MomentumPoly

__all__ = [
    "SymTensor3", "SymTensor4", "sym3_from_momentum_poly", "a_hat_from_complex",
    "split_AB", "imag_part", "cov_deriv3", "div3", "div2", "div1",
    "holo_residual", "principle_residual",
]

_VS = ("x", "y")


# --------------------------------------------------------------------------
# dense arrays of any rank

def _dense(rank: int, entry):
    """Nested 2 x ... x 2 list (rank levels) holding entry(idx) at idx."""
    d = [entry(idx) for idx in itertools.product(range(2), repeat=rank)]
    for _ in range(rank):
        d = [d[i:i + 2] for i in range(0, len(d), 2)]
    return d[0]


def _at(d, idx):
    for i in idx:
        d = d[i]
    return d


def _apply_j_slot(d, j, slot: int, rank: int):
    """Contract J^new_old into one contravariant slot of a dense array of
    normal forms; j is J as a 2x2 of normal forms."""
    def entry(idx):
        return nf_sum([nf_mul(j[idx[slot]][m],
                              _at(d, idx[:slot] + (m,) + idx[slot + 1:]))
                       for m in range(2)])
    return _dense(rank, entry)


def _symmetrize(rank: int, *arrays):
    """The rank + 1 components, as normal forms, of the average over every
    slot order of the sum of dense arrays.  The pattern with n ones has
    C(rank, n) distinct arrangements, each reached by n! (rank - n)! of
    the rank! slot orders, so component n sums each arrangement once and
    scales by 1 / C(rank, n)."""
    comps = []
    for n in range(rank + 1):
        idxs = [tuple(int(k in ones) for k in range(rank))
                for ones in itertools.combinations(range(rank), n)]
        comps.append(nf_scale(nf_sum([_at(d, idx) for d in arrays
                                      for idx in idxs]),
                              Fraction(1, len(idxs))))
    return comps


# --------------------------------------------------------------------------
# symmetric tensors by independent components

class _SymTensor:
    """Fully symmetric contravariant tensor of rank `rank`.  A component
    given as a normal form becomes its tree; any other is normalized."""

    __slots__ = ("c",)
    rank: int

    def __init__(self, comps: Iterable):
        c = tuple(nf_to_expr(v) if type(v) is NF else simplify(as_expr(v))
                  for v in comps)
        if len(c) != self.rank + 1:
            raise ValueError("%s takes %d components"
                             % (type(self).__name__, self.rank + 1))
        self.c = c

    def __getitem__(self, idx) -> Expr:
        if len(idx) != self.rank:
            raise ValueError("%s takes %d indices"
                             % (type(self).__name__, self.rank))
        return self.c[sum(idx)]

    def dense(self):
        return _dense(self.rank, self.__getitem__)

    def __add__(self, other):
        return type(self)(a + b for a, b in zip(self.c, other.c))

    def __sub__(self, other):
        return type(self)(a - b for a, b in zip(self.c, other.c))

    def is_trivial(self) -> bool:
        return all(nf_is_zero(a) for a in self.c)

    def __eq__(self, other):
        return isinstance(other, type(self)) and other.c == self.c

    def __repr__(self):
        return (type(self).__name__ + "("
                + ", ".join(to_str(a) for a in self.c) + ")")


class SymTensor3(_SymTensor):
    """Fully symmetric contravariant 3-tensor, components (111, 112, 122, 222)."""

    __slots__ = ()
    rank = 3

    def to_momentum_poly(self) -> MomentumPoly:
        """F^{ijk} p_i p_j p_k as a cubic momentum polynomial."""
        return MomentumPoly({
            (3, 0): self.c[0],
            (2, 1): Rat(3) * self.c[1],
            (1, 2): Rat(3) * self.c[2],
            (0, 3): self.c[3],
        })


class SymTensor4(_SymTensor):
    """Fully symmetric 4-tensor, components (1111, 1112, 1122, 1222, 2222)."""

    __slots__ = ()
    rank = 4


def sym3_from_momentum_poly(p: MomentumPoly) -> SymTensor3:
    """Inverse of SymTensor3.to_momentum_poly; p must be homogeneous cubic."""
    for (i, j) in p.coeffs:
        if i + j != 3:
            raise ValueError("momentum polynomial is not homogeneous cubic")
    z = Rat(0)
    third = Rat(1, 3)
    return SymTensor3((
        p.coeffs.get((3, 0), z),
        third * p.coeffs.get((2, 1), z),
        third * p.coeffs.get((1, 2), z),
        p.coeffs.get((0, 3), z),
    ))


def a_hat_from_complex(a: CExpr) -> SymTensor3:
    """Isothermal-lane dictionary: the A-hat tensor whose momentum form is
    Re(conj-paired cubic) for the complex codifferential coefficient a."""
    re, im, q = to_nf(a.re), to_nf(a.im), Fraction(1, 4)
    return SymTensor3((nf_scale(re, q), nf_scale(im, q),
                       nf_scale(re, -q), nf_scale(im, -q)))


def _nf_dense(t: _SymTensor):
    """t as a dense array of the normal forms of its components."""
    return _dense(t.rank, lambda idx: to_nf(t[idx]))


def split_AB(metric: Metric, f: SymTensor3) -> Tuple[SymTensor3, SymTensor3]:
    """Split F = A-hat + B-hat using the complex structure J.

    A-hat is the projection onto the "third-codifferential" subspace:
    A = (F - F(J.,J.,.) - F(J.,.,J.) - F(.,J.,J.)) / 4, applied through
    the contravariant slots and symmetrized; B-hat is the complement
    F - A-hat.  F is symmetric, so the three double contractions are slot
    orders of one another and symmetrize alike:
    A = (F - 3 sym F(J.,J.,.)) / 4.
    """
    j = metric._j()
    t01 = _apply_j_slot(_apply_j_slot(_nf_dense(f), j, 0, 3), j, 1, 3)
    a_hat = SymTensor3(
        nf_scale(nf_sum([to_nf(c), nf_scale(s, -3)]), Fraction(1, 4))
        for c, s in zip(f.c, _symmetrize(3, t01)))
    return a_hat, f - a_hat


def imag_part(metric: Metric, a_hat: SymTensor3) -> SymTensor3:
    """The tensor counterpart of multiplying the complex coefficient by i:
    (1/3)(A^{ljk} J_l^i + A^{ilk} J_l^j + A^{ijl} J_l^k).  A-hat is
    symmetric, so the three terms are slot orders of one another and the
    result is the symmetrization of the first."""
    t0 = _apply_j_slot(_nf_dense(a_hat), metric._j(), 0, 3)
    return SymTensor3(_symmetrize(3, t0))


# --------------------------------------------------------------------------
# covariant derivatives (Levi-Civita connection)

def _gamma(metric: Metric) -> dict:
    """The Christoffel symbols as normal forms."""
    return {k: to_nf(v) for k, v in christoffel(metric).items()}


def _cov_deriv3(metric: Metric, t: SymTensor3):
    """nabla_l T^{ijk} as a dense array [l][i][j][k] of normal forms.  It
    is symmetric in ijk, so each of its 8 distinct entries is built once
    and shared."""
    gam = _gamma(metric)
    d = _nf_dense(t)
    built = {}

    def entry(lijk):
        l, i, j, k = lijk
        key = (l, i + j + k)
        if key not in built:
            terms = [nf_diff(d[i][j][k], _VS[l])]
            for m in range(2):
                terms += [nf_mul(gam[(i, l, m)], d[m][j][k]),
                          nf_mul(gam[(j, l, m)], d[i][m][k]),
                          nf_mul(gam[(k, l, m)], d[i][j][m])]
            built[key] = nf_sum(terms)
        return built[key]
    return _dense(4, entry)


def cov_deriv3(metric: Metric, t: SymTensor3):
    """nabla_l T^{ijk}: dense array indexed [l][i][j][k], one tree per
    distinct entry, shared by its index orders."""
    nt = _cov_deriv3(metric, t)
    trees = [[nf_to_expr(_at(nt, (l,) + (0,) * (3 - n) + (1,) * n))
              for n in range(4)] for l in range(2)]
    return _dense(4, lambda lijk: trees[lijk[0]][sum(lijk[1:])])


def _div3(nt):
    """Div T from nabla T, the dense array of normal forms of _cov_deriv3."""
    w = [nf_to_expr(nf_sum([nt[i][i][j][k] for i in range(2)]))
         for (j, k) in ((0, 0), (0, 1), (1, 1))]
    return ((w[0], w[1]), (w[1], w[2]))


def div3(metric: Metric, t: SymTensor3):
    """(Div T)^{jk} = nabla_i T^{ijk}: symmetric 2x2 as ((w11, w12), (w12, w22))."""
    return _div3(_cov_deriv3(metric, t))


def div2(metric: Metric, s2):
    """(Div S)^k = nabla_j S^{jk} for a symmetric 2-tensor ((s11,s12),(s12,s22))."""
    gam = _gamma(metric)
    s = [[to_nf(v) for v in row] for row in s2]
    return tuple(nf_to_expr(nf_sum(
        [nf_diff(s[j][k], _VS[j]) for j in range(2)]
        + [nf_mul(gam[(j, j, m)], s[m][k]) for j in range(2) for m in range(2)]
        + [nf_mul(gam[(k, j, m)], s[j][m]) for j in range(2) for m in range(2)]))
        for k in range(2))


def div1(metric: Metric, v) -> Expr:
    """nabla_i V^i for a vector (v1, v2)."""
    gam = _gamma(metric)
    v = [to_nf(c) for c in v]
    return nf_to_expr(nf_sum([nf_diff(v[i], _VS[i]) for i in range(2)]
                             + [nf_mul(gam[(i, i, m)], v[m])
                                for i in range(2) for m in range(2)]))


# --------------------------------------------------------------------------
# residuals of the two structure equations, in real coordinates

def _holo_residual(metric: Metric, nt) -> SymTensor4:
    """holo_residual from nabla A-hat, the dense array of normal forms of
    _cov_deriv3."""
    i11, i12, i22 = (to_nf(c) for c in metric.inv)
    ginv = ((i11, i12), (i12, i22))
    built = {}

    def raised(ijkl):
        # the derivative index raised: T^{ijk;l} = g^{lm} nabla_m T^{ijk},
        # symmetric in ijk like nt
        key = (sum(ijkl[:3]), ijkl[3])
        if key not in built:
            built[key] = nf_sum([nf_mul(ginv[ijkl[3]][m],
                                        _at(nt, (m,) + ijkl[:3]))
                                 for m in range(2)])
        return built[key]
    up = _dense(4, raised)
    j = metric._j()
    jd = up
    for slot in range(4):
        jd = _apply_j_slot(jd, j, slot, 4)
    return SymTensor4(_symmetrize(4, up, jd))


def holo_residual(metric: Metric, a_hat: SymTensor3) -> SymTensor4:
    """Real-chart Cauchy-Riemann residual of the A-hat tensor.

    Zero iff the complex codifferential coefficient encoded by A-hat is
    holomorphic.  Built as avgsym(nabla A^{ijk;l}) + avgsym(JJJJ nabla A)
    with the derivative slot raised by the metric.
    """
    return _holo_residual(metric, _cov_deriv3(metric, a_hat))


def principle_residual(metric: Metric, k_potential: Expr,
                       a_hat: SymTensor3):
    """Real-chart residual of the potential equation coupling K to Div A-hat.

    Returns a symmetric trace-free 2x2 (lower-index) tuple: the J-anti-
    invariant part of the second covariant derivative of the scalar
    potential, (1/2) K_{;kl} (delta - JJ), minus twice the
    lowered-and-rotated divergence of A-hat.  Zero iff K solves the
    complex potential equation; in the isothermal lane the two
    independent components are exactly (2 Re, 2 Im) of
    K_{;zbar zbar} + i lambda^2 a_{;z}, with a the complex coefficient
    a_hat_from_complex consumes.

    The normalization is pinned by exact solutions: for lambda = 1,
    a = z/2, K = -x*y the reconstructed cubic (y/2) px^2 py - (x/2) px py^2
    is canonically conserved and this residual vanishes identically.
    """
    gam = _gamma(metric)
    jmat = metric._j()
    k_nf = to_nf(k_potential)
    dk = [nf_diff(k_nf, v) for v in _VS]
    # second covariant derivative of the scalar potential
    kdd = [[nf_sum([nf_diff(dk[l], _VS[k])]
                   + [nf_neg(nf_mul(gam[(m, k, l)], dk[m])) for m in range(2)])
            for l in range(2)] for k in range(2)]
    w = [[to_nf(c) for c in row] for row in div3(metric, a_hat)]
    g = [[to_nf(c) for c in row]
         for row in ((metric.g11, metric.g12), (metric.g12, metric.g22))]
    om = to_nf(metric.mu)
    omega = ((_NF_ZERO, om), (nf_neg(om), _NF_ZERO))

    def entry(i, j):
        # (1/2)(K_;ij - J^k_i J^l_j K_;kl) - 2 (g_ki om_jl + g_kj om_il) w^kl
        terms = [nf_scale(kdd[i][j], Fraction(1, 2))]
        for k, l in itertools.product(range(2), repeat=2):
            terms += [nf_scale(nf_mul(nf_mul(jmat[k][i], jmat[l][j]),
                                      kdd[k][l]), Fraction(-1, 2)),
                      nf_scale(nf_mul(nf_sum([nf_mul(g[k][i], omega[j][l]),
                                              nf_mul(g[k][j], omega[i][l])]),
                                      w[k][l]), -2)]
        return nf_to_expr(nf_sum(terms))
    return ((entry(0, 0), entry(0, 1)), (entry(1, 0), entry(1, 1)))
