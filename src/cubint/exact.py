"""Exact evaluation of normal forms that are rational functions of x and y.

A normal form is rational in x and y when its numerator monomials are
products of x and y with non-negative integer exponents, and each base of
its denominator is x, y or a compound polynomial of that kind.  Such a form
has an exact value at every rational point off its poles, and `nf_at`
computes it in integers and `Fraction`s.  Any other base (a named constant,
a function application, a radical) raises `NotRationalError`.

`rational_verdict` is the zero test of a nonzero rational normal form.  A
nonzero polynomial vanishes only on a null set (Schwartz, J. ACM 27(4),
1980; Zippel, EUROSAM 1979), so the first probe point nearly always serves
as an exact NonZero witness, and no float probe runs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .expr import (_MASK, _OUT, _S, X, Y, Box, NF, ZeroTestConfig,
                   ZeroVerdict, _m_pairs, _PolyBase, _pb_prim)

__all__ = ["NotRationalError", "nf_at", "rational_verdict"]

# probe points are rounded to this grid, so their exact values stay small
_GRID = 1024


class NotRationalError(TypeError):
    """A normal form that is not a rational function of x and y."""


def _poly_at(p: dict, x: Fraction, y: Fraction):
    """The polynomial p at (x, y), exactly: one integer sum over the common
    denominator of the terms, then one division."""
    terms = []
    for m, c in p.items():
        # a packed key with no negative exponent sets no bit of _OUT
        if type(m) is not int or m & _OUT:
            raise NotRationalError(
                f"monomial {_m_pairs(m)!r} is not x^i*y^j with i, j >= 0")
        terms.append((c, m >> _S & _MASK, m & _MASK))
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    dx = max((t[1] for t in terms), default=0)
    dy = max((t[2] for t in terms), default=0)
    s = sum(c * xn ** i * xd ** (dx - i) * yn ** j * yd ** (dy - j)
            for c, i, j in terms)
    return Fraction(s, xd ** dx * yd ** dy) if s else s


def nf_at(nf: NF, x, y) -> Fraction:
    """The exact value of nf at the rational point (x, y); x and y are ints
    or Fractions.  Raises NotRationalError when nf is not rational in x and
    y, and ZeroDivisionError at a pole."""
    x, y = Fraction(x), Fraction(y)
    c = nf.content
    d = 1
    for b, e in nf.den:
        if type(e) is not int:
            raise NotRationalError(f"exponent {e} in the denominator")
        if b is X:
            v = x
        elif b is Y:
            v = y
        elif type(b) is _PolyBase:
            # the content of a compound base folds into c
            bc, bp = _pb_prim(b)
            c = c / bc ** e
            v = _poly_at(bp, x, y)
        else:
            raise NotRationalError(f"denominator base {b!r}")
        d *= v ** e
    return c * _poly_at(nf.num, x, y) / d


def _grid_point(rng: random.Random, domain: Box):
    """A probe point rounded to the 1/_GRID grid and clamped to the box."""
    pt = []
    for v, lo, hi in zip(domain.sample(rng), (domain.x_min, domain.y_min),
                         (domain.x_max, domain.y_max)):
        v = Fraction(round(v * _GRID), _GRID)
        pt.append(Fraction(lo) if v < lo else Fraction(hi) if v > hi else v)
    return pt


def rational_verdict(nf: NF, domain: Box, cfg: ZeroTestConfig):
    """Zero test of a nonzero normal form; None when nf is not rational in
    x and y.

    The witness is the first of cfg.n_probes points, drawn from
    cfg.seeds[0] as the float probes are and put on the 1/1024 grid in the
    box, where the exact denominator and numerator are both nonzero; its
    value is c*num/den rounded to a float.  When no point serves, the
    verdict is Unknown, never Zero."""
    rng = random.Random(cfg.seeds[0])
    for _ in range(cfg.n_probes):
        x, y = _grid_point(rng, domain)
        try:
            v = nf_at(nf, x, y)
        except NotRationalError:
            return None
        except ZeroDivisionError:
            continue
        if v:
            # beyond the float range the value is an infinity of v's sign
            try:
                val = float(v)
            except OverflowError:
                val = math.inf if v > 0 else -math.inf
            return ZeroVerdict.nonzero((float(x), float(y)), val, "exact")
    return ZeroVerdict.unknown(
        f"numerator or denominator vanishes at all {cfg.n_probes} exact "
        f"probe points")
