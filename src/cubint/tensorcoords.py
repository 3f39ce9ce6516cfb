"""Symmetric contravariant tensors in real chart coordinates.

The cubic-integral machinery needs, in any chart:

* symmetric 3-tensors F^{ijk} (the momentum representation of a cubic
  integral) and symmetric 4-tensors (residuals of holomorphy tests);
* the splitting of a symmetric 3-tensor into its "holomorphic-part"
  component A-hat and the complementary component B-hat, using only the
  complex structure J of the metric (no complex coordinates);
* covariant derivatives and divergences taken with Christoffel symbols.

2-D symmetric tensors are stored by their independent components:
(T111, T112, T122, T222) for rank 3 and the five analogous entries for
rank 4, with dense 2x2x2(x2) scratch arrays for index gymnastics.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from .expr import Expr, Rat, as_expr, diff, nf_is_zero, simplify, to_str
from .cnum import CExpr
from .geometry import Metric, christoffel, complex_structure
from .verify import MomentumPoly

__all__ = [
    "SymTensor3", "SymTensor4", "sym3_from_momentum_poly", "a_hat_from_complex",
    "split_AB", "imag_part", "cov_deriv3", "div3", "div2", "div1",
    "holo_residual", "principle_residual",
]

_VS = ("x", "y")


class SymTensor3:
    """Fully symmetric contravariant 3-tensor, components (111, 112, 122, 222)."""

    __slots__ = ("c",)

    def __init__(self, comps: Iterable):
        c = tuple(simplify(as_expr(v)) for v in comps)
        if len(c) != 4:
            raise ValueError("SymTensor3 takes 4 components")
        self.c = c

    def __getitem__(self, ijk) -> Expr:
        i, j, k = sorted(ijk)
        return self.c[i + j + k]

    def dense(self):
        d = [[[None, None] for _ in range(2)] for _ in range(2)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    d[i][j][k] = self[(i, j, k)]
        return d

    def __add__(self, other: "SymTensor3") -> "SymTensor3":
        return SymTensor3(a + b for a, b in zip(self.c, other.c))

    def __sub__(self, other: "SymTensor3") -> "SymTensor3":
        return SymTensor3(a - b for a, b in zip(self.c, other.c))

    def is_trivial(self) -> bool:
        return all(nf_is_zero(a) for a in self.c)

    def __eq__(self, other):
        return isinstance(other, SymTensor3) and other.c == self.c

    def __repr__(self):
        return ("SymTensor3(" + ", ".join(to_str(a) for a in self.c) + ")")

    def to_momentum_poly(self) -> MomentumPoly:
        """F^{ijk} p_i p_j p_k as a cubic momentum polynomial."""
        return MomentumPoly({
            (3, 0): self.c[0],
            (2, 1): Rat(3) * self.c[1],
            (1, 2): Rat(3) * self.c[2],
            (0, 3): self.c[3],
        })


class SymTensor4:
    """Fully symmetric 4-tensor, components (1111, 1112, 1122, 1222, 2222)."""

    __slots__ = ("c",)

    def __init__(self, comps: Iterable):
        c = tuple(simplify(as_expr(v)) for v in comps)
        if len(c) != 5:
            raise ValueError("SymTensor4 takes 5 components")
        self.c = c

    def __getitem__(self, ijkl) -> Expr:
        return self.c[sum(sorted(ijkl))]

    def __sub__(self, other: "SymTensor4") -> "SymTensor4":
        return SymTensor4(a - b for a, b in zip(self.c, other.c))

    def is_trivial(self) -> bool:
        return all(nf_is_zero(a) for a in self.c)

    def __repr__(self):
        return ("SymTensor4(" + ", ".join(to_str(a) for a in self.c) + ")")


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
    q = Rat(1, 4)
    return SymTensor3((q * a.re, q * a.im, -(q * a.re), -(q * a.im)))


# --------------------------------------------------------------------------
# dense helpers

def _dense_sym3(d) -> SymTensor3:
    """Symmetrize a dense 2x2x2 array (average over the 6 slot orders)."""
    sixth = Rat(1, 6)

    def avg(i, j, k):
        s = (d[i][j][k] + d[i][k][j] + d[j][i][k]
             + d[j][k][i] + d[k][i][j] + d[k][j][i])
        return simplify(sixth * s)

    return SymTensor3((avg(0, 0, 0), avg(0, 0, 1), avg(0, 1, 1), avg(1, 1, 1)))


def _apply_j_slot(d, j, slot):
    """Contract J^new_old into one contravariant slot of a dense 3-array."""
    out = [[[None, None] for _ in range(2)] for _ in range(2)]
    for a in range(2):
        for b in range(2):
            for c in range(2):
                idx = (a, b, c)
                s = as_expr(0)
                for m in range(2):
                    src = list(idx)
                    src[slot] = m
                    s = s + j[idx[slot]][m] * d[src[0]][src[1]][src[2]]
                out[a][b][c] = s
    return out


def split_AB(metric: Metric, f: SymTensor3) -> Tuple[SymTensor3, SymTensor3]:
    """Split F = A-hat + B-hat using the complex structure J.

    A-hat is the projection onto the "third-codifferential" subspace:
    A = (F - F(J.,J.,.) - F(J.,.,J.) - F(.,J.,J.)) / 4, applied through
    the contravariant slots; B-hat is the complement F - A-hat.
    """
    j = complex_structure(metric)
    d = f.dense()
    jj_sum = None
    for (s1, s2) in ((0, 1), (0, 2), (1, 2)):
        t = _apply_j_slot(_apply_j_slot(d, j, s1), j, s2)
        if jj_sum is None:
            jj_sum = t
        else:
            jj_sum = [[[jj_sum[a][b][c] + t[a][b][c] for c in range(2)]
                       for b in range(2)] for a in range(2)]
    quarter = Rat(1, 4)
    a_dense = [[[quarter * (d[a][b][c] - jj_sum[a][b][c]) for c in range(2)]
                for b in range(2)] for a in range(2)]
    a_hat = _dense_sym3(a_dense)
    b_hat = f - a_hat
    return a_hat, SymTensor3(simplify(v) for v in b_hat.c)


def imag_part(metric: Metric, a_hat: SymTensor3) -> SymTensor3:
    """The tensor counterpart of multiplying the complex coefficient by i:
    (1/3)(A^{ljk} J_l^i + A^{ilk} J_l^j + A^{ijl} J_l^k)."""
    j = complex_structure(metric)
    d = a_hat.dense()
    acc = None
    for slot in range(3):
        t = _apply_j_slot(d, j, slot)
        if acc is None:
            acc = t
        else:
            acc = [[[acc[a][b][c] + t[a][b][c] for c in range(2)]
                    for b in range(2)] for a in range(2)]
    third = Rat(1, 3)
    return _dense_sym3([[[third * acc[a][b][c] for c in range(2)]
                         for b in range(2)] for a in range(2)])


# --------------------------------------------------------------------------
# covariant derivatives (Levi-Civita connection)

def cov_deriv3(metric: Metric, t: SymTensor3):
    """nabla_l T^{ijk}: dense array indexed [l][i][j][k]."""
    gam = christoffel(metric)
    d = t.dense()
    out = [[[[None, None] for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for l in range(2):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    s = diff(d[i][j][k], _VS[l])
                    for m in range(2):
                        s = (s + gam[(i, l, m)] * d[m][j][k]
                             + gam[(j, l, m)] * d[i][m][k]
                             + gam[(k, l, m)] * d[i][j][m])
                    out[l][i][j][k] = simplify(s)
    return out


def div3(metric: Metric, t: SymTensor3):
    """(Div T)^{jk} = nabla_i T^{ijk}: symmetric 2x2 as ((w11, w12), (w12, w22))."""
    nt = cov_deriv3(metric, t)
    w = {}
    for j in range(2):
        for k in range(2):
            s = as_expr(0)
            for i in range(2):
                s = s + nt[i][i][j][k]
            w[(j, k)] = simplify(s)
    return ((w[(0, 0)], w[(0, 1)]), (w[(0, 1)], w[(1, 1)]))


def div2(metric: Metric, s2):
    """(Div S)^k = nabla_j S^{jk} for a symmetric 2-tensor ((s11,s12),(s12,s22))."""
    gam = christoffel(metric)
    out = []
    for k in range(2):
        acc = as_expr(0)
        for j in range(2):
            acc = acc + diff(s2[j][k], _VS[j])
            for m in range(2):
                acc = acc + gam[(j, j, m)] * s2[m][k] + gam[(k, j, m)] * s2[j][m]
        out.append(simplify(acc))
    return tuple(out)


def div1(metric: Metric, v) -> Expr:
    """nabla_i V^i for a vector (v1, v2)."""
    gam = christoffel(metric)
    acc = as_expr(0)
    for i in range(2):
        acc = acc + diff(v[i], _VS[i])
        for m in range(2):
            acc = acc + gam[(i, i, m)] * v[m]
    return simplify(acc)


# --------------------------------------------------------------------------
# residuals of the two structure equations, in real coordinates

def _avgsym4(d4) -> SymTensor4:
    """Full symmetrization of a dense 4-array over its 24 slot orders."""
    import itertools
    f24 = Rat(1, 24)
    comps = []
    for target in ((0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1), (0, 1, 1, 1),
                   (1, 1, 1, 1)):
        s = as_expr(0)
        for perm in itertools.permutations(range(4)):
            idx = tuple(target[p] for p in perm)
            s = s + d4[idx[0]][idx[1]][idx[2]][idx[3]]
        comps.append(simplify(f24 * s))
    return SymTensor4(comps)


def _apply_j_slot4(d, j, slot):
    out = [[[[None, None] for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for idx0 in range(2):
        for idx1 in range(2):
            for idx2 in range(2):
                for idx3 in range(2):
                    idx = (idx0, idx1, idx2, idx3)
                    s = as_expr(0)
                    for m in range(2):
                        src = list(idx)
                        src[slot] = m
                        s = s + j[idx[slot]][m] * d[src[0]][src[1]][src[2]][src[3]]
                    out[idx0][idx1][idx2][idx3] = s
    return out


def holo_residual(metric: Metric, a_hat: SymTensor3) -> SymTensor4:
    """Real-chart Cauchy-Riemann residual of the A-hat tensor.

    Zero iff the complex codifferential coefficient encoded by A-hat is
    holomorphic.  Built as avgsym(nabla A^{ijk;l}) + avgsym(JJJJ nabla A)
    with the derivative slot raised by the metric.
    """
    nt = cov_deriv3(metric, a_hat)
    i11, i12, i22 = metric.inv
    ginv = ((i11, i12), (i12, i22))
    # raise the derivative index: T^{ijk;l} = g^{lm} nabla_m T^{ijk}
    up = [[[[None, None] for _ in range(2)] for _ in range(2)] for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    s = as_expr(0)
                    for m in range(2):
                        s = s + ginv[l][m] * nt[m][i][j][k]
                    up[i][j][k][l] = simplify(s)
    jmat = complex_structure(metric)
    jd = up
    for slot in range(4):
        jd = _apply_j_slot4(jd, jmat, slot)
    total = [[[[up[a][b][c][d4] + jd[a][b][c][d4] for d4 in range(2)]
               for c in range(2)] for b in range(2)] for a in range(2)]
    return _avgsym4(total)


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
    gam = christoffel(metric)
    jmat = complex_structure(metric)
    dk = [diff(k_potential, v) for v in _VS]
    # second covariant derivative of the scalar potential
    kdd = [[None, None], [None, None]]
    for k in range(2):
        for l in range(2):
            s = diff(dk[l], _VS[k])
            for m in range(2):
                s = s - gam[(m, k, l)] * dk[m]
            kdd[k][l] = simplify(s)
    half = Rat(1, 2)
    term1 = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            s = kdd[i][j]
            for k in range(2):
                for l in range(2):
                    s = s - jmat[k][i] * jmat[l][j] * kdd[k][l]
            term1[i][j] = simplify(half * s)
    w = div3(metric, a_hat)
    g = ((metric.g11, metric.g12), (metric.g12, metric.g22))
    om = metric.omega12
    omega = ((as_expr(0), om), (simplify(-om), as_expr(0)))
    two = Rat(2)
    term2 = [[None, None], [None, None]]
    for i in range(2):
        for j in range(2):
            s = as_expr(0)
            for k in range(2):
                for l in range(2):
                    s = (s - two * (g[k][i] * omega[j][l]
                                    + g[k][j] * omega[i][l]) * w[k][l])
            term2[i][j] = simplify(s)
    out = [[simplify(term1[i][j] + term2[i][j]) for j in range(2)]
           for i in range(2)]
    return ((out[0][0], out[0][1]), (out[1][0], out[1][1]))
