"""The value of a normal form at a rational point, and the zero test that
reads it.

`nf_at` is the one evaluator of a normal form.  A form that is rational in
x and y (numerator monomials x^i*y^j with i, j >= 0; denominator bases x,
y or compound polynomials of that kind) has an exact value at every
rational point off its poles, computed in integers and one `Fraction`
division.  Any other form gets a proved enclosure: interval arithmetic on
integers that count units of 2^-128, every bound rounded outward (Moore,
Interval Analysis, 1966; Tucker, Validated Numerics, 2011).  Its atoms:
- exp and ln from `decimal`, whose exp and ln are correctly rounded, each
  result widened by one unit in its last place; sinh, cosh and tanh from
  exp;
- sin and cos from one Taylor series with an explicit bound on its
  remainder and rounding, after reduction by a multiple of pi/2; tan is
  their quotient;
- radicals and fractional powers from exact integer roots (`_iroot`);
- pi from a literal bracket, e as exp(1).

`nf_verdict` is the zero test of a nonzero normal form.  A nonzero
polynomial vanishes only on a null set (Schwartz, J. ACM 27(4), 1980;
Zippel, EUROSAM 1979), so the first probe point nearly always serves as an
exact NonZero witness of a rational form.  An enclosure proves NonZero
when it excludes 0, and never proves Zero: zero-equivalence of such
expressions is undecidable (Richardson, J. Symb. Logic 33(4), 1968).
"""

from __future__ import annotations

import math
import random
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction

from .expr import (_MASK, _OUT, _S, X, Y, Box, Const, EvalDomainError, NF,
                   ZeroTestConfig, ZeroVerdict, _iroot, _m_pairs, _PolyBase,
                   _RatPow, _pb_prim, to_nf)

__all__ = ["nf_at", "nf_verdict"]

# probe points are rounded to this grid, so their exact values stay small
_GRID = 1024


class _NotRational(Exception):
    """A normal form that is not a rational function of x and y."""


def _poly_at(p: dict, x: Fraction, y: Fraction):
    """The polynomial p at (x, y), exactly: one integer sum over the common
    denominator of the terms, then one division."""
    terms = []
    for m, c in p.items():
        # a packed key with no negative exponent sets no bit of _OUT
        if type(m) is not int or m & _OUT:
            raise _NotRational
        terms.append((c, m >> _S & _MASK, m & _MASK))
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    dx = max((t[1] for t in terms), default=0)
    dy = max((t[2] for t in terms), default=0)
    s = sum(c * xn ** i * xd ** (dx - i) * yn ** j * yd ** (dy - j)
            for c, i, j in terms)
    return Fraction(s, xd ** dx * yd ** dy) if s else s


def _exact_at(nf: NF, x: Fraction, y: Fraction) -> Fraction:
    c = nf.content
    d = 1
    for b, e in nf.den:
        if type(e) is not int:
            raise _NotRational
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
            raise _NotRational
        d *= v ** e
    return c * _poly_at(nf.num, x, y) / d


def nf_at(nf: NF, x, y):
    """The value of nf at the rational point (x, y); x and y are ints or
    Fractions.

    It is exact, a Fraction, when nf is rational in x and y, and otherwise
    an enclosure (lo, hi) of Fractions with lo <= value <= hi.  Raises
    ZeroDivisionError at a pole, or where the enclosure of a divisor holds
    0, and EvalDomainError where an atom is undefined or not proved
    defined: ln, or a fractional power, of a value not proved positive,
    or an exp argument beyond +-4096."""
    x, y = Fraction(x), Fraction(y)
    try:
        return _exact_at(nf, x, y)
    except _NotRational:
        return _enclose(nf, {X: _fx(x), Y: _fx(y)})


# ---- enclosures ------------------------------------------------------------
#
# An interval is a pair (lo, hi) of ints, the values lo/2^_P and hi/2^_P.
# Each operation rounds lo down and hi up, so the pair encloses every value
# that the exact operation takes on its operands' intervals.

def _cdiv(n: int, d: int) -> int:
    """The ceiling of n/d."""
    return -(-n // d)


_P = 128
_ONE = 1 << _P
_UNIT_IV = (_ONE, _ONE)
# decimal digits of exp and ln: more than the 39 that 2^-128 needs
_DIGITS = 50
_TWO_P = Decimal(_ONE)
# the largest |argument| of exp: exp(4096) has about 5 900 bits
_EXP_MAX = 4096
# pi to 100 digits: _PI_D / 10^100 < pi < (_PI_D + 1) / 10^100
_PI_D = int("31415926535897932384626433832795028841971693993751"
            "05820974944592307816406286208998628034825342117067"
            "9")
_PI_SCALE = 10 ** 100
_PI = ((_PI_D << _P) // _PI_SCALE, _cdiv(_PI_D + 1 << _P, _PI_SCALE))
# the sine and cosine series run on units of 2^-_W, and on pi/2 there
_W = 2 * _P
_HALF_PI = ((_PI_D << _W - 1) // _PI_SCALE,
            _cdiv(_PI_D + 1 << _W - 1, _PI_SCALE))


def _fx(v: Fraction):
    """The interval of the rational v."""
    n, d = v.numerator, v.denominator
    return (n << _P) // d, _cdiv(n << _P, d)


def _mul(a, b):
    (a0, a1), (b0, b1) = a, b
    if a0 >= 0 and b0 >= 0:
        lo, hi = a0 * b0, a1 * b1
    else:
        ps = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
        lo, hi = min(ps), max(ps)
    return lo >> _P, -(-hi >> _P)


def _half(lo: int, hi: int):
    return lo >> 1, -(-hi >> 1)


def _ipow(a, n: int):
    """a^n for n >= 1: the power is monotone on each side of 0."""
    a0, a1 = a
    if n % 2 == 0 and a0 < 0:
        a0, a1 = (-a1, -a0) if a1 <= 0 else (0, max(-a0, a1))
    s = _P * (n - 1)
    return a0 ** n >> s, -(-a1 ** n >> s)


def _quotient(a, b):
    """a/b, rounded outward once."""
    if b[0] <= 0 <= b[1]:
        raise ZeroDivisionError("the enclosure of a divisor holds 0")
    ns = [n << _P for n in a]
    return (min(n // d for n in ns for d in b),
            max(_cdiv(n, d) for n in ns for d in b))


def _power(a, e):
    """a^e for an int or Fraction exponent e != 0."""
    if type(e) is int:
        p = _ipow(a, abs(e))
        return p if e > 0 else _quotient(_UNIT_IV, p)
    if a[0] < 0:
        raise EvalDomainError("fractional power of a value not proved "
                              "non-negative")
    t0, t1 = _ipow(a, abs(e.numerator))
    q = e.denominator
    s = _P * (q - 1)
    r = (_iroot(t0 << s, q), _iroot(t1 << s, q) + 1)
    return r if e > 0 else _quotient(_UNIT_IV, r)


def _monotone(f, a):
    """An increasing, correctly rounded decimal function f (Decimal.exp,
    Decimal.ln) over a: the end points are rounded outward into decimals,
    and the neighbours of f's results bracket the exact values."""
    ctx = Context(prec=_DIGITS)
    lo = Context(prec=_DIGITS, rounding=ROUND_FLOOR).divide(Decimal(a[0]),
                                                            _TWO_P)
    hi = Context(prec=_DIGITS, rounding=ROUND_CEILING).divide(Decimal(a[1]),
                                                              _TWO_P)
    return (_fx(Fraction(ctx.next_minus(f(lo, ctx))))[0],
            _fx(Fraction(ctx.next_plus(f(hi, ctx))))[1])


def _exp(a):
    if max(-a[0], a[1]) > _EXP_MAX << _P:
        raise EvalDomainError(f"exp argument beyond +-{_EXP_MAX}")
    return _monotone(Decimal.exp, a)


def _ln(a):
    if a[0] <= 0:
        raise EvalDomainError("ln of a value not proved positive")
    return _monotone(Decimal.ln, a)


def _sinh_cosh(a):
    (e0, e1), (f0, f1) = _exp(a), _exp((-a[1], -a[0]))
    return _half(e0 - f1, e1 - f0), _half(e0 + f0, e1 + f1)


def _sincos(a):
    """(sin, cos) over a: one Taylor series at r, the lower end of a minus
    the nearest multiple k*pi/2, turned by the quadrant of k.  Both
    functions are 1-Lipschitz, so the width of a, and that of r from the
    bracket of pi, widen the result."""
    t = a[0] << _W - _P
    h0, h1 = _HALF_PI
    k = (2 * t + h0) // (2 * h0)
    r0, r1 = sorted((t - k * h0, t - k * h1))
    if max(-r0, r1) > 1 << _W:
        # k is too large for the bracket of pi
        return (-_ONE, _ONE), (-_ONE, _ONE)
    # |r| <= 1: the terms |r|^n/n!, each rounded down twice, are off by at
    # most 2n units; when one rounds to 0 the rest sum to at most 4n, so
    # the series is off by at most n^2 + 3n units
    ar = abs(r0)
    sums = [0, 0, 0, 0]     # the terms of degree 0, 1, 2 and 3 mod 4
    term, n = 1 << _W, 0
    while term:
        sums[n & 3] += term
        n += 1
        term = (term * ar >> _W) // n
    c = sums[0] - sums[2]
    s = sums[1] - sums[3] if r0 >= 0 else sums[3] - sums[1]
    err = (n + 2) ** 2 + (r1 - r0) + (a[1] - a[0] << _W - _P)
    out = []
    for v in ((s, c), (c, -s), (-s, -c), (-c, s))[k % 4]:
        lo, hi = v - err >> _W - _P, -(-(v + err) >> _W - _P)
        out.append((max(lo, -_ONE), min(hi, _ONE)))
    return out


_FUNCS = {
    "exp": _exp,
    "ln": _ln,
    "sin": lambda a: _sincos(a)[0],
    "cos": lambda a: _sincos(a)[1],
    "tan": lambda a: _quotient(*_sincos(a)),
    "sinh": lambda a: _sinh_cosh(a)[0],
    "cosh": lambda a: _sinh_cosh(a)[1],
    "tanh": lambda a: _quotient(*_sinh_cosh(a)),
}


def _atom(b, memo: dict):
    """The interval of base b; memo holds those of x, y and every base and
    power met so far at this point."""
    v = memo.get(b)
    if v is None:
        t = type(b)
        if t is _RatPow:
            v = _fx(b.val)
        elif t is _PolyBase:
            bc, bp = _pb_prim(b)
            n, d = bc.numerator, bc.denominator
            p0, p1 = _poly(bp, memo)
            v = (n * p0 // d, _cdiv(n * p1, d))
        elif t is Const:
            v = _PI if b.name == "pi" else _exp(_UNIT_IV)
        else:
            lo, hi = _enclose(to_nf(b.arg), memo)
            v = _FUNCS[b.name]((_fx(lo)[0], _fx(hi)[1]))
        memo[b] = v
    return v


def _poly(p: dict, memo: dict):
    """The interval of a polynomial with int coefficients."""
    lo = hi = 0
    for m, c in p.items():
        mv = _UNIT_IV
        for be in _m_pairs(m):
            pv = memo.get(be)
            if pv is None:
                pv = memo[be] = _power(_atom(be[0], memo), be[1])
            mv = _mul(mv, pv)
        if c > 0:
            lo += c * mv[0]
            hi += c * mv[1]
        else:
            lo += c * mv[1]
            hi += c * mv[0]
    return lo, hi


def _enclose(nf: NF, memo: dict):
    """An enclosure (lo, hi) of nf in Fractions: the content, which is
    positive, times the quotient of the intervals of numerator and
    denominator, taken exactly."""
    n0, n1 = _poly(nf.num, memo)
    d = _UNIT_IV
    for b, e in nf.den:
        d = _mul(d, _power(_atom(b, memo), e))
    d0, d1 = d
    if d0 <= 0 <= d1:
        raise ZeroDivisionError("the enclosure of the denominator holds 0")
    qs = (Fraction(n0, d0), Fraction(n0, d1), Fraction(n1, d0),
          Fraction(n1, d1))
    c = nf.content
    return c * min(qs), c * max(qs)


# ---- the zero test ---------------------------------------------------------

def _grid_point(rng: random.Random, domain: Box):
    """A probe point rounded to the 1/_GRID grid and clamped to the box."""
    pt = []
    for v, lo, hi in zip(domain.sample(rng), (domain.x_min, domain.y_min),
                         (domain.x_max, domain.y_max)):
        v = Fraction(round(v * _GRID), _GRID)
        pt.append(Fraction(lo) if v < lo else Fraction(hi) if v > hi else v)
    return pt


def nf_verdict(nf: NF, domain: Box, cfg: ZeroTestConfig) -> ZeroVerdict:
    """Zero test of a nonzero normal form.

    The witness is the first of cfg.n_probes points, drawn from
    cfg.seeds[0] and put on the 1/1024 grid in the box, where the value
    of nf (nf_at) excludes 0: method "exact" when that value is exact,
    "enclosure" when it is an enclosure.  The value reported is the exact
    value, or the midpoint of the enclosure, rounded to a float.  A point
    at a pole, or where an atom is not proved defined, is passed over.
    When no point serves, the verdict is Unknown, never Zero."""
    rng = random.Random(cfg.seeds[0])
    enclosed = False
    for _ in range(cfg.n_probes):
        x, y = _grid_point(rng, domain)
        try:
            v = nf_at(nf, x, y)
        except ZeroDivisionError:
            continue
        except EvalDomainError:
            enclosed = True
            continue
        if type(v) is tuple:
            enclosed = True
            lo, hi = v
            if lo <= 0 <= hi:
                continue
            v, method = (lo + hi) / 2, "enclosure"
        elif v:
            method = "exact"
        else:
            continue
        # beyond the float range the value is an infinity of v's sign
        try:
            val = float(v)
        except OverflowError:
            val = math.inf if v > 0 else -math.inf
        return ZeroVerdict.nonzero((float(x), float(y)), val, method)
    if enclosed:
        return ZeroVerdict.unknown(
            f"no enclosure excludes 0 at the {cfg.n_probes} probe points")
    return ZeroVerdict.unknown(
        f"numerator or denominator vanishes at all {cfg.n_probes} exact "
        f"probe points")
