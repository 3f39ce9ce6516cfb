"""Complex-valued expressions as explicit (re, im) pairs of real scalars.

The engine never introduces a complex literal type: a complex quantity is a
pair of real expressions in the chart variables, and the Wirtinger operators
d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2 act componentwise.
Holomorphy is then a pair of tri-state zero tests on d/dzbar.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .expr import (
    Box, Expr, Rat, Var, ZeroTestConfig, ZeroVerdict, _combine, as_expr,
    diff, eval_at, is_zero, nf_is_zero, parse, simplify, to_str, DEFAULT_CFG,
)

__all__ = [
    "CExpr", "Z", "ZBAR", "I", "c_zero", "c_one",
    "wirtinger_z", "wirtinger_zbar", "is_holomorphic", "parse_complex",
]

Scalar = Union[Expr, int, Fraction]


class CExpr:
    """An immutable complex scalar c = re + i*im with Expr components."""

    __slots__ = ("re", "im")

    def __init__(self, re: Scalar, im: Scalar = 0):
        self.re = as_expr(re)
        self.im = as_expr(im)

    # -- constructors --------------------------------------------------
    @classmethod
    def from_real(cls, e: Scalar) -> "CExpr":
        return cls(as_expr(e), Rat(0))

    # -- structure -----------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, CExpr) and other.re == self.re
                and other.im == self.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"({to_str(self.re)}) + i*({to_str(self.im)})"

    # -- algebra -------------------------------------------------------
    def __add__(self, other):
        o = _coerce(other)
        return CExpr(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        return CExpr(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        o = _coerce(other)
        return CExpr(self.re * o.re - self.im * o.im,
                     self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __neg__(self):
        return CExpr(-self.re, -self.im)

    def conj(self) -> "CExpr":
        return CExpr(self.re, -self.im)

    def modulus_sq(self) -> Expr:
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        o = _coerce(other)
        m = simplify(o.modulus_sq())
        if nf_is_zero(m):
            raise ZeroDivisionError(
                "division by a complex expression that is symbolically zero")
        num = self * o.conj()
        return CExpr(simplify(num.re / m), simplify(num.im / m))

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int) -> "CExpr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("CExpr powers are non-negative integers")
        out = c_one()
        b = self
        while n:
            if n & 1:
                out = out * b
            n >>= 1
            if n:
                b = b * b
        return out

    # -- calculus / analysis -------------------------------------------
    def simplified(self) -> "CExpr":
        return CExpr(simplify(self.re), simplify(self.im))

    def eval_at(self, point) -> complex:
        return complex(eval_at(self.re, point), eval_at(self.im, point))

    def diff(self, var) -> "CExpr":
        return CExpr(diff(self.re, var), diff(self.im, var))

    def is_zero(self, domain: Box, cfg: ZeroTestConfig = DEFAULT_CFG) -> ZeroVerdict:
        """Tri-state zero test of both components jointly; the imaginary
        part is not tested once the real part is NonZero."""
        vr = is_zero(self.re, domain, cfg)
        if vr.is_nonzero:
            return vr
        return _combine(vr, is_zero(self.im, domain, cfg))


def _coerce(v) -> CExpr:
    if isinstance(v, CExpr):
        return v
    if isinstance(v, (Expr, int, Fraction)):
        return CExpr.from_real(v)
    raise TypeError(f"cannot coerce {v!r} to CExpr")


def c_zero() -> CExpr:
    return CExpr(Rat(0), Rat(0))


def c_one() -> CExpr:
    return CExpr(Rat(1), Rat(0))


def I() -> CExpr:  # noqa: E743 - the imaginary unit
    return CExpr(Rat(0), Rat(1))


def Z() -> CExpr:
    """The complex chart coordinate z = x + i*y."""
    return CExpr(Var("x"), Var("y"))


def ZBAR() -> CExpr:
    return CExpr(Var("x"), -Var("y"))


def wirtinger_z(c: CExpr) -> CExpr:
    """d/dz = (d/dx - i d/dy)/2 applied componentwise."""
    fx = c.diff("x")
    fy = c.diff("y")
    half = Fraction(1, 2)
    return CExpr(simplify(half * (fx.re + fy.im)),
                 simplify(half * (fx.im - fy.re)))


def wirtinger_zbar(c: CExpr) -> CExpr:
    """d/dzbar = (d/dx + i d/dy)/2 applied componentwise."""
    fx = c.diff("x")
    fy = c.diff("y")
    half = Fraction(1, 2)
    return CExpr(simplify(half * (fx.re - fy.im)),
                 simplify(half * (fx.im + fy.re)))


def is_holomorphic(c: CExpr, domain: Box,
                   cfg: ZeroTestConfig = DEFAULT_CFG) -> ZeroVerdict:
    """Tri-state Cauchy-Riemann test: does d/dzbar of c vanish on the box?"""
    return wirtinger_zbar(c).is_zero(domain, cfg)


def parse_complex(re_text: str, im_text: str = "0") -> CExpr:
    return CExpr(parse(re_text), parse(im_text))
