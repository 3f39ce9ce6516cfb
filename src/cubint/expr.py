"""Scalar symbolic expression kernel over the chart variables x and y.

Everything downstream (Wirtinger calculus, curvature, the invariant chains)
reduces to four operations on immutable expression trees: parse, diff,
simplify, eval_at — plus a tri-state identically-zero test that replaces
exact "== 0" decisions by symbolic normalization and seeded numeric probing.

The canonical form is a rational function over a multiplicative kernel of
atoms: variables, named constants (pi, e), and applications of the fixed
elementary functions.  Numerators are polynomials (rational coefficients,
arbitrary precision) in those atoms; denominators are monomials whose bases
may be irreducible-as-found compound polynomials.  Keeping denominators
factored is what keeps seventh-order derivative chains of ln(lambda) from
blowing up under the quotient rule.
"""

from __future__ import annotations

import copy
import math
import random
from contextvars import ContextVar
from fractions import Fraction
from typing import Callable, Iterable, Optional, Union

__all__ = [
    "Expr", "Rat", "Const", "Var", "Add", "Mul", "Pow", "Func",
    "X", "Y", "ZERO", "ONE",
    "parse", "to_str", "diff", "simplify",
    "eval_at", "eval_scaled", "is_zero", "nf_is_zero",
    "Box", "ZeroTestConfig", "ZeroVerdict",
    "ExprError", "ExpressionSyntaxError", "UnknownIdentifier",
    "EvalDomainError", "OrderCapExceeded",
    "FUNCTIONS", "ORDER_CAP", "as_expr",
]

ORDER_CAP = 8

FUNCTIONS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "sinh", "cosh", "tanh")
_CONST_NAMES = ("pi", "e")
_VAR_NAMES = ("x", "y")


# --------------------------------------------------------------------------
# errors

class ExprError(Exception):
    pass


class ExpressionSyntaxError(SyntaxError):
    """Malformed expression text; carries the 0-based byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifier(ExpressionSyntaxError):
    """Identifier outside the fixed variable/function/constant vocabulary."""


class EvalDomainError(ExprError):
    """Evaluation hit a pole, ln of a non-positive value, sqrt of a negative
    value, or a non-finite intermediate; samplers treat this as 'resample'."""


class OrderCapExceeded(ExprError):
    """Cumulative derivative order of an expression exceeded ORDER_CAP."""


# --------------------------------------------------------------------------
# AST

def _frac(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise TypeError(f"not a rational: {v!r}")


class Expr:
    """Immutable expression node.  Structural equality, cached hash.

    _dord is the cumulative derivative order used to produce the value
    (metadata, excluded from equality, fixed when the node is built); _nf
    caches the normal form.
    """

    __slots__ = ("_hash", "_dord", "_nf", "_skey")

    def _init_meta(self, dord: int = 0):
        self._hash = None
        self._dord = dord
        self._nf = None
        self._skey = None

    # -- operators -----------------------------------------------------
    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __truediv__(self, other):
        return div(self, as_expr(other))

    def __rtruediv__(self, other):
        return div(as_expr(other), self)

    def __pow__(self, e):
        return pw(self, _frac(e))

    def __neg__(self):
        return neg(self)

    def __pos__(self):
        return self

    def __str__(self):
        return to_str(self)

    def __repr__(self):
        return to_str(self)


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return Rat(Fraction(v))
    raise TypeError(f"cannot coerce {v!r} to Expr")


class Rat(Expr):
    __slots__ = ("val",)

    def __init__(self, val, den=None):
        self.val = _frac(val) if den is None else Fraction(val, den)
        self._init_meta()

    def __eq__(self, other):
        return type(other) is Rat and other.val == self.val

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("R", self.val))
        return self._hash


class Const(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in _CONST_NAMES:
            raise ValueError(f"unknown constant {name!r}")
        self.name = name
        self._init_meta()

    def __eq__(self, other):
        return type(other) is Const and other.name == self.name

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("C", self.name))
        return self._hash


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in _VAR_NAMES:
            raise ValueError(f"unknown variable {name!r}")
        self.name = name
        self._init_meta()

    def __eq__(self, other):
        return type(other) is Var and other.name == self.name

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("V", self.name))
        return self._hash


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        # not for public use: construct through add()
        self.terms = tuple(terms)
        self._init_meta(max((t._dord for t in self.terms), default=0))

    def __eq__(self, other):
        return type(other) is Add and other.terms == self.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("A",) + tuple(hash(t) for t in self.terms))
        return self._hash


class Mul(Expr):
    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = tuple(factors)
        self._init_meta(max((t._dord for t in self.factors), default=0))

    def __eq__(self, other):
        return type(other) is Mul and other.factors == self.factors

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("M",) + tuple(hash(t) for t in self.factors))
        return self._hash


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Fraction):
        self.base = base
        self.exp = _frac(exp)
        self._init_meta(base._dord)

    def __eq__(self, other):
        return type(other) is Pow and other.exp == self.exp and other.base == self.base

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("P", hash(self.base), self.exp))
        return self._hash


class Func(Expr):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expr):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")
        self.name = name
        self.arg = arg
        self._init_meta(arg._dord)

    def __eq__(self, other):
        return type(other) is Func and other.name == self.name and other.arg == self.arg

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("F", self.name, hash(self.arg)))
        return self._hash


X = Var("x")
Y = Var("y")
ZERO = Rat(0)
ONE = Rat(1)
_E = Const("e")
_PI = Const("pi")


# --------------------------------------------------------------------------
# structural total order (for canonical ordering of commutative operands)

def _skey(e) -> tuple:
    k = e._skey if isinstance(e, Expr) else getattr(e, "_skey", None)
    if k is not None:
        return k
    t = type(e)
    if t is Rat:
        k = (0, e.val.numerator, e.val.denominator)
    elif t is Const:
        k = (1, e.name)
    elif t is Var:
        k = (2, e.name)
    elif t is _RatPow:
        k = (3, e.val.numerator, e.val.denominator)
    elif t is Func:
        k = (4, e.name, _skey(e.arg))
    elif t is Pow:
        k = (5, _skey(e.base), e.exp.numerator, e.exp.denominator)
    elif t is _PolyBase:
        k = (6, tuple((_mono_skey(m), c.numerator, c.denominator) for (m, c) in e.fp))
    elif t is Mul:
        k = (7, len(e.factors), tuple(_skey(f) for f in e.factors))
    elif t is Add:
        k = (8, len(e.terms), tuple(_skey(t2) for t2 in e.terms))
    else:
        raise TypeError(f"no sort key for {e!r}")
    try:
        e._skey = k
    except AttributeError:
        pass
    return k


def _mono_skey(m) -> tuple:
    return tuple((_skey(b), ex.numerator, ex.denominator) for (b, ex) in m)


# --------------------------------------------------------------------------
# smart constructors (canonical ordering + exact constant handling; no
# algebraic rewriting beyond that — full normalization lives in simplify)

def add(*terms: Expr) -> Expr:
    flat = []
    const = Fraction(0)
    for t in terms:
        if isinstance(t, Add):
            for s in t.terms:
                if isinstance(s, Rat):
                    const += s.val
                else:
                    flat.append(s)
        elif isinstance(t, Rat):
            const += t.val
        else:
            flat.append(t)
    flat.sort(key=_skey)
    if const != 0 or not flat:
        flat.insert(0, Rat(const))
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def mul(*factors: Expr) -> Expr:
    flat = []
    coeff = Fraction(1)
    for f in factors:
        if isinstance(f, Mul):
            for s in f.factors:
                if isinstance(s, Rat):
                    coeff *= s.val
                else:
                    flat.append(s)
        elif isinstance(f, Rat):
            coeff *= f.val
        else:
            flat.append(f)
    if coeff == 0:
        return ZERO
    flat.sort(key=_skey)
    if coeff != 1 or not flat:
        flat.insert(0, Rat(coeff))
    if len(flat) == 1:
        return flat[0]
    return Mul(flat)


def neg(e: Expr) -> Expr:
    return mul(Rat(-1), e)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Rat):
        if b.val == 0:
            raise ZeroDivisionError("division by literal zero")
        return mul(a, Rat(1 / b.val))
    return mul(a, pw(b, Fraction(-1)))


def pw(base: Expr, e) -> Expr:
    e = _frac(e)
    if e == 1:
        return base
    if isinstance(base, Rat) and e.denominator == 1:
        if base.val == 0 and e < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Rat(base.val ** int(e))
    if e == 0:
        return ONE
    if isinstance(base, Pow):
        return pw(base.base, base.exp * e)
    return Pow(base, e)


# --------------------------------------------------------------------------
# normal form
#
#   NF  = num / den
#   num = dict {mono: Fraction}, monomials with strictly positive exponents
#   den = mono with positive integer exponents (coefficient 1, folded to num)
#   mono = sorted tuple of (base, Fraction exponent)
#
# Bases are Var/Const/Func nodes (Func args canonicalized), plus the two
# internal kinds below.

class _PolyBase:
    """A compound polynomial used as a multiplicative base (e.g. a factored
    denominator (x^2+1)^k, or an unresolved radical (1+x)^(1/2))."""

    __slots__ = ("fp", "_hash", "_skey")

    def __init__(self, fp):
        self.fp = fp  # frozen poly: sorted tuple of (mono, Fraction)
        self._hash = None
        self._skey = None

    def __eq__(self, other):
        return type(other) is _PolyBase and other.fp == self.fp

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("PB", self.fp))
        return self._hash

    def __repr__(self):
        return f"_PolyBase({to_str(nf_to_expr(NF(_thaw(self.fp), ())))})"


class _RatPow:
    """A positive-or-negative rational c used as a base for a fractional
    power (e.g. 2^(1/2))."""

    __slots__ = ("val", "_hash", "_skey")

    def __init__(self, val: Fraction):
        self.val = val
        self._hash = None
        self._skey = None

    def __eq__(self, other):
        return type(other) is _RatPow and other.val == self.val

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("RP", self.val))
        return self._hash

    def __repr__(self):
        return f"_RatPow({self.val})"


class NF:
    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: tuple):
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return not self.num

    def __repr__(self):
        return f"NF({self.num!r}, {self.den!r})"


_NF_ZERO = NF({}, ())


# ---- term budget (used by is_zero's bounded symbolic confirmation) -------

class _BudgetExceeded(Exception):
    pass


# Term-products the current thread (or task) may still spend; None means
# unbounded.  A context variable, so a budget charges only its own thread.
_BUDGET_LEFT: ContextVar = ContextVar("cubint_term_budget", default=None)


def _charge(cost: int):
    left = _BUDGET_LEFT.get()
    if left is not None:
        left -= cost
        _BUDGET_LEFT.set(left)
        if left < 0:
            raise _BudgetExceeded


# ---- monomial helpers ----------------------------------------------------

def _m_build(pairs) -> tuple:
    """Merge (base, exp) pairs into a canonical monomial.

    Returns (coeff_multiplier, mono).  Folds: exp-atoms combine through
    their arguments (exp(u)^a * exp(v)^b -> exp(a*u+b*v)); integer powers
    of _RatPow bases fold into the coefficient; e^rational stays a power
    of the named constant e.
    """
    coeff = Fraction(1)
    acc: dict = {}
    exp_args = []  # list of (arg_expr, multiplier)
    for (b, e) in pairs:
        if e == 0:
            continue
        if isinstance(b, Func) and b.name == "exp":
            exp_args.append((b.arg, e))
            continue
        acc[b] = acc.get(b, Fraction(0)) + e
    if exp_args:
        total = _NF_ZERO
        for (arg, m) in exp_args:
            total = nf_add(total, nf_scale(to_nf(arg), m))
        if not total.is_zero():
            cval = _nf_const_value(total)
            if cval is not None:
                acc[_E] = acc.get(_E, Fraction(0)) + cval
            else:
                b = Func("exp", nf_to_expr(total))
                acc[b] = acc.get(b, Fraction(0)) + 1
    out = []
    for b, e in acc.items():
        if e == 0:
            continue
        if isinstance(b, _RatPow):
            k = _floor_frac(e)
            r = e - k
            if k != 0:
                coeff *= b.val ** k
            if r != 0:
                out.append((b, r))
        else:
            out.append((b, e))
    out.sort(key=lambda p: _skey(p[0]))
    return coeff, tuple(out)


def _floor_frac(e: Fraction) -> int:
    return e.numerator // e.denominator


def _nf_const_value(nf: NF) -> Optional[Fraction]:
    """Rational value of an NF if it is a bare rational constant."""
    if nf.den:
        return None
    if not nf.num:
        return Fraction(0)
    if len(nf.num) == 1:
        ((m, c),) = nf.num.items()
        if m == ():
            return c
    return None


def _m_mul(m1: tuple, m2: tuple):
    return _m_build(list(m1) + list(m2))


def _m_pow(m: tuple, e: Fraction):
    return _m_build([(b, x * e) for (b, x) in m])


def _m_total_deg(m: tuple) -> Fraction:
    return sum((e for (_, e) in m), Fraction(0))


def _m_lex_cmp(m1: tuple, m2: tuple) -> int:
    """Lex part of the graded-lex monomial order (a true monomial order):
    decides between monomials of one total degree."""
    i = j = 0
    while i < len(m1) or j < len(m2):
        if i >= len(m1):
            # m1 lacks a base m2 has -> exponent 0 vs positive-ish
            return -1 if m2[j][1] > 0 else 1
        if j >= len(m2):
            return 1 if m1[i][1] > 0 else -1
        b1, e1 = m1[i]
        b2, e2 = m2[j]
        k1, k2 = _skey(b1), _skey(b2)
        if k1 == k2:
            if e1 != e2:
                return 1 if e1 > e2 else -1
            i += 1
            j += 1
        elif k1 < k2:
            # m1 has the smaller base with nonzero exponent, m2 has 0 of it
            return 1 if e1 > 0 else -1
        else:
            return -1 if e2 > 0 else 1
    return 0


def _m_divides(m1: tuple, m2: tuple) -> bool:
    """Does m1 divide m2 (componentwise exponents <=)?"""
    d = dict(m2)
    for (b, e) in m1:
        if d.get(b, Fraction(0)) < e:
            return False
    return True


def _m_div(m2: tuple, m1: tuple):
    """m2 / m1 (exponent subtraction; may produce negative exponents)."""
    return _m_build(list(m2) + [(b, -e) for (b, e) in m1])


# ---- polynomial helpers --------------------------------------------------

def _p_add_into(p: dict, q: dict, s: Fraction = Fraction(1)):
    for m, c in q.items():
        nc = p.get(m, Fraction(0)) + c * s
        if nc == 0:
            p.pop(m, None)
        else:
            p[m] = nc


def _p_mul(p: dict, q: dict) -> dict:
    _charge(len(p) * len(q))
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            cm, m = _m_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + c1 * c2 * cm
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
    return out


def _p_scale(p: dict, s: Fraction) -> dict:
    if s == 0:
        return {}
    return {m: c * s for m, c in p.items()}


def _p_mul_mono(p: dict, mono: tuple, s: Fraction = Fraction(1)) -> dict:
    out: dict = {}
    for m, c in p.items():
        cm, nm = _m_mul(m, mono)
        nc = out.get(nm, Fraction(0)) + c * s * cm
        if nc == 0:
            out.pop(nm, None)
        else:
            out[nm] = nc
    return out


def _p_pow_int(p: dict, n: int) -> dict:
    out = {(): Fraction(1)}
    b = p
    while n:
        if n & 1:
            out = _p_mul(out, b)
        n >>= 1
        if n:
            b = _p_mul(b, b)
    return out


def _p_leading(p: dict):
    best = bd = None
    for m in p:
        d = _m_total_deg(m)
        if best is None or d > bd or (d == bd and _m_lex_cmp(m, best) > 0):
            best, bd = m, d
    return best, p[best]


def _p_content(p: dict) -> dict:
    """Per-base minimum exponent over all monomials (bases present in all)."""
    it = iter(p)
    first = next(it)
    content = dict(first)
    for m in it:
        d = dict(m)
        for b in list(content):
            if b in d:
                content[b] = min(content[b], d[b])
            else:
                del content[b]
        if not content:
            break
    return content


def _p_div_exact(p: dict, q: dict) -> Optional[dict]:
    """Exact polynomial division p/q, or None."""
    if not p:
        return {}
    qlm, qlc = _p_leading(q)
    rem = dict(p)
    quot: dict = {}
    guard = 4 * (len(p) + len(q)) + 64
    while rem:
        guard -= 1
        if guard < 0:
            return None
        rlm, rlc = _p_leading(rem)
        if not _m_divides(qlm, rlm):
            return None
        cm, tm = _m_div(rlm, qlm)
        tc = rlc / qlc * cm
        quot[tm] = quot.get(tm, Fraction(0)) + tc
        _p_add_into(rem, _p_mul_mono(q, tm, -tc))
    return quot


def _frac_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    pn, pd = c.numerator, c.denominator
    rn, rd = math.isqrt(pn), math.isqrt(pd)
    if rn * rn == pn and rd * rd == pd:
        return Fraction(rn, rd)
    return None


def _p_sqrt(p: dict) -> Optional[dict]:
    """Return q with q*q == p (graded-lex long square root), else None."""
    if not p:
        return {}
    lm, lc = _p_leading(p)
    cr = _frac_sqrt(lc)
    if cr is None:
        return None
    cm, hm = _m_pow(lm, Fraction(1, 2))
    if cm != 1:
        return None
    q = {hm: cr}
    guard = 2 * len(p) + 16
    while True:
        rem = dict(p)
        _p_add_into(rem, _p_mul(q, q), Fraction(-1))
        if not rem:
            return q
        guard -= 1
        if guard < 0:
            return None
        rlm, rlc = _p_leading(rem)
        cm, tm = _m_div(rlm, hm)
        tc = rlc / (2 * cr) * cm
        if tc == 0:
            return None
        q[tm] = q.get(tm, Fraction(0)) + tc


# ---- NF construction -----------------------------------------------------

def _p_expand_pb(p: dict) -> dict:
    """Expand integer powers of compound poly bases inside numerator
    monomials; otherwise two spellings of one value would not cancel.
    Fractional powers (radical atoms) stay opaque."""
    while True:
        need = False
        for m in p:
            for (b, e) in m:
                if type(b) is _PolyBase and e >= 1:
                    need = True
                    break
            if need:
                break
        if not need:
            return p
        out: dict = {}
        for m, c in p.items():
            poly = {(): Fraction(1)}
            rest = []
            for (b, e) in m:
                if type(b) is _PolyBase and e >= 1:
                    k = _floor_frac(e)
                    r = e - k
                    poly = _p_mul(poly, _p_pow_int(_thaw(b.fp), k))
                    if r:
                        rest.append((b, r))
                else:
                    rest.append((b, e))
            cm, rm = _m_build(rest)
            _p_add_into(out, _p_mul_mono(poly, rm, c * cm))
        p = out


def _mk_nf(num: dict, den: tuple) -> NF:
    if not num:
        return _NF_ZERO
    num = _p_expand_pb(num)
    if not num:
        return _NF_ZERO
    # resolve negative exponents inside numerator monomials
    need: dict = {}
    for m in num:
        for (b, e) in m:
            if e < 0:
                k = -_floor_frac(e)  # ceil of -e
                if k > need.get(b, 0):
                    need[b] = k
    if need:
        lift = tuple(sorted(need.items(), key=lambda p: _skey(p[0])))
        cm, lift_m = _m_build([(b, Fraction(k)) for (b, k) in lift])
        num = _p_mul_mono(num, lift_m, cm)
        cden, den = _m_mul(den, lift_m)
        # cden is 1: den bases are never exp-atoms/_RatPow
        if cden != 1:
            num = _p_scale(num, Fraction(1) / cden)
    if not den:
        return NF(num, ())
    # cancel integer monomial content against the denominator
    content = _p_content(num)
    den_d = dict(den)
    changed = False
    for b in list(den_d):
        have = content.get(b)
        if have is None:
            continue
        k = min(den_d[b], _floor_frac(have))
        if k > 0:
            den_d[b] -= k
            changed = True
            if den_d[b] == 0:
                del den_d[b]
    if changed:
        canceled = [(b, Fraction(e - den_d.get(b, 0))) for (b, e) in den if e - den_d.get(b, 0) > 0]
        cm, cmono = _m_build([(b, -e) for (b, e) in canceled])
        num = _p_mul_mono(num, cmono, cm)
    # trial division by compound denominator factors
    den_items = sorted(den_d.items(), key=lambda p: _skey(p[0]))
    out_den = []
    for (b, e) in den_items:
        if isinstance(b, _PolyBase) and len(b.fp) > 1:
            P = _thaw(b.fp)
            while e > 0:
                q = _p_div_exact(num, P)
                if q is None:
                    break
                num = q
                e -= 1
        if e > 0:
            out_den.append((b, e))
    if not num:
        return _NF_ZERO
    return NF(num, tuple(out_den))


def _thaw(fp: tuple) -> dict:
    return {m: c for (m, c) in fp}


def _freeze(p: dict) -> tuple:
    return tuple(sorted(p.items(), key=lambda it: _mono_skey(it[0])))


def nf_add(a: NF, b: NF) -> NF:
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    da, db = dict(a.den), dict(b.den)
    lcm: dict = dict(da)
    for bb, e in db.items():
        if lcm.get(bb, 0) < e:
            lcm[bb] = e
    ma = [(bb, Fraction(e - da.get(bb, 0))) for bb, e in lcm.items() if e - da.get(bb, 0) > 0]
    mb = [(bb, Fraction(e - db.get(bb, 0))) for bb, e in lcm.items() if e - db.get(bb, 0) > 0]
    ca, mam = _m_build(ma)
    cb, mbm = _m_build(mb)
    num = _p_mul_mono(a.num, mam, ca)
    _p_add_into(num, _p_mul_mono(b.num, mbm, cb))
    den = tuple(sorted(lcm.items(), key=lambda p: _skey(p[0])))
    return _mk_nf(num, den)


def nf_neg(a: NF) -> NF:
    return NF(_p_scale(a.num, Fraction(-1)), a.den)


def nf_sub(a: NF, b: NF) -> NF:
    return nf_add(a, nf_neg(b))


def nf_scale(a: NF, s: Fraction) -> NF:
    if s == 0:
        return _NF_ZERO
    return NF(_p_scale(a.num, s), a.den)


def nf_mul(a: NF, b: NF) -> NF:
    if a.is_zero() or b.is_zero():
        return _NF_ZERO
    num = _p_mul(a.num, b.num)
    c, den = _m_mul(a.den, b.den)
    if c != 1:
        num = _p_scale(num, Fraction(1) / c)
    return _mk_nf(num, den)


def nf_recip(a: NF) -> NF:
    if a.is_zero():
        raise ZeroDivisionError("reciprocal of zero expression")
    den_poly = {a.den: Fraction(1)} if a.den else {(): Fraction(1)}
    if len(a.num) == 1:
        ((m, c),) = a.num.items()
        cm, invm = _m_build([(b, -e) for (b, e) in m])
        return _mk_nf(_p_mul_mono(den_poly, invm, cm / c), ())
    # a.num = content * core with core content-free; keep core as a factored
    # denominator base, monic so equal denominators hash equal
    content = _p_content(a.num)
    inv_cm, inv_mono = _m_build([(b, -e) for b, e in content.items()])
    core = _p_mul_mono(a.num, inv_mono, inv_cm)
    _, lc = _p_leading(core)
    core_monic = _p_scale(core, 1 / lc)
    pb = _PolyBase(_freeze(core_monic))
    num = _p_mul_mono(den_poly, inv_mono, inv_cm / lc)
    return _mk_nf(num, ((pb, 1),))


def nf_pow(a: NF, e: Fraction) -> NF:
    if e == 0:
        return NF({(): Fraction(1)}, ())
    if e == 1:
        return a
    if a.is_zero():
        if e < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return _NF_ZERO
    if e.denominator == 1:
        n = int(e)
        if n > 0:
            num = _p_pow_int(a.num, n)
            c, den = _m_pow(a.den, Fraction(n))
            if c != 1:
                num = _p_scale(num, Fraction(1) / c)
            return _mk_nf(num, den)
        return nf_pow(nf_recip(a), Fraction(-n))
    k = _floor_frac(e)
    r = e - k
    out = nf_pow(a, Fraction(k)) if k != 0 else NF({(): Fraction(1)}, ())
    return nf_mul(out, _nf_frac_pow(a, r))


def _nf_frac_pow(a: NF, r: Fraction) -> NF:
    """a^r for 0 < r < 1."""
    num, den = a.num, a.den
    # denominator part: den^(-r) distributed over its bases
    parts: list = []
    for (b, e) in den:
        parts.append((b, -e * r))
    if len(num) == 1:
        ((m, c),) = num.items()
        parts.extend((b, e * r) for (b, e) in m)
        cpart = _rat_frac_pow(c, r)
        cm, mono = _m_build(parts)
        return _mk_nf(_p_mul_mono(cpart, mono, cm), ())
    if r == Fraction(1, 2):
        q = _p_sqrt(num)
        if q is not None:
            cm, mono = _m_build(parts)
            return _mk_nf(_p_mul_mono(q, mono, cm), ())
    # opaque radical over the sign-normalized primitive core:
    # num = (ccm*scale) * cmono * core_n, so num^r factors accordingly
    content = _p_content(num)
    ccm, cmono = _m_build(list(content.items()))
    inv_cm, inv_mono = _m_build([(b, -e) for b, e in content.items()])
    core = _p_mul_mono(num, inv_mono, inv_cm)
    _, lc = _p_leading(core)
    scale = abs(lc)
    core_n = _p_scale(core, 1 / scale)
    parts.extend((b, e * r) for (b, e) in cmono)
    parts.append((_PolyBase(_freeze(core_n)), r))
    cpart = _rat_frac_pow(ccm * scale, r)
    cm, mono = _m_build(parts)
    return _mk_nf(_p_mul_mono(cpart, mono, cm), ())


def _rat_frac_pow(c: Fraction, r: Fraction) -> dict:
    """c^r as a one-term polynomial ({mono: coeff})."""
    if c == 1:
        return {(): Fraction(1)}
    if c > 0:
        root = _exact_rat_root(c, r.denominator)
        if root is not None:
            return {(): root ** r.numerator}
    cm, mono = _m_build([(_RatPow(c), r)])
    return {mono: cm}


def _exact_rat_root(c: Fraction, n: int) -> Optional[Fraction]:
    def iroot(v: int) -> Optional[int]:
        if v == 0:
            return 0
        r = round(v ** (1.0 / n))
        for cand in (r - 1, r, r + 1):
            if cand >= 0 and cand ** n == v:
                return cand
        return None

    rn = iroot(c.numerator)
    rd = iroot(c.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


# ---- AST -> NF -----------------------------------------------------------

def to_nf(e: Expr) -> NF:
    if e._nf is not None:
        return e._nf
    t = type(e)
    if t is Rat:
        nf = NF({(): e.val}, ()) if e.val != 0 else _NF_ZERO
    elif t is Var or t is Const:
        nf = NF({((e, Fraction(1)),): Fraction(1)}, ())
    elif t is Add:
        nf = _NF_ZERO
        for s in e.terms:
            nf = nf_add(nf, to_nf(s))
    elif t is Mul:
        nf = NF({(): Fraction(1)}, ())
        for f in e.factors:
            nf = nf_mul(nf, to_nf(f))
    elif t is Pow:
        if isinstance(e.base, Mul) and e.exp.denominator == 1:
            # distribute integer powers over products so reciprocals keep
            # each factor as its own denominator base
            nf = NF({(): Fraction(1)}, ())
            for f in e.base.factors:
                nf = nf_mul(nf, nf_pow(to_nf(f), e.exp))
        else:
            nf = nf_pow(to_nf(e.base), e.exp)
    elif t is Func:
        nf = _func_nf(e.name, to_nf(e.arg))
    else:
        raise TypeError(f"cannot normalize {e!r}")
    e._nf = nf
    return nf


_FOLD_AT_ZERO = {
    "sin": Fraction(0), "tan": Fraction(0), "sinh": Fraction(0), "tanh": Fraction(0),
    "cos": Fraction(1), "cosh": Fraction(1),
}
_ODD_FUNCS = ("sin", "tan", "sinh", "tanh")


def _func_nf(name: str, argnf: NF) -> NF:
    if name == "sqrt":
        return nf_pow(argnf, Fraction(1, 2))
    cval = _nf_const_value(argnf)
    if name == "exp":
        if cval is not None:
            if cval == 0:
                return NF({(): Fraction(1)}, ())
            cm, mono = _m_build([(_E, cval)])
            return NF({mono: cm}, ())
        # exp(ln(u)) -> u
        inner = _pure_atom(argnf)
        if isinstance(inner, Func) and inner.name == "ln":
            return to_nf(inner.arg)
        return _atom_nf(Func("exp", nf_to_expr(argnf)))
    if name == "ln":
        if cval is not None:
            if cval == 1:
                return _NF_ZERO
            if cval <= 0:
                raise EvalDomainError(f"ln of non-positive constant {cval}")
            return _atom_nf(Func("ln", Rat(cval)))
        # ln(e^k) and ln(exp(u))
        if not argnf.den and len(argnf.num) == 1:
            ((m, c),) = argnf.num.items()
            if c == 1 and len(m) == 1:
                b, ex = m[0]
                if isinstance(b, Const) and b.name == "e":
                    return NF({(): ex}, ()) if ex != 0 else _NF_ZERO
                if isinstance(b, Func) and b.name == "exp" and ex == 1:
                    return to_nf(b.arg)
        return _atom_nf(Func("ln", nf_to_expr(argnf)))
    # trig / hyperbolic
    if cval is not None and cval == 0:
        v = _FOLD_AT_ZERO[name]
        return NF({(): v}, ()) if v != 0 else _NF_ZERO
    if not argnf.is_zero():
        lm, lc = _p_leading(argnf.num)
        if lc < 0:
            flipped = _func_nf_plain(name, nf_neg(argnf))
            if name in _ODD_FUNCS:
                return nf_neg(flipped)
            return flipped
    return _func_nf_plain(name, argnf)


def _func_nf_plain(name: str, argnf: NF) -> NF:
    return _atom_nf(Func(name, nf_to_expr(argnf)))


def _atom_nf(b) -> NF:
    return NF({((b, Fraction(1)),): Fraction(1)}, ())


def _pure_atom(nf: NF):
    """The base if nf is exactly one atom to the first power, else None."""
    if nf.den or len(nf.num) != 1:
        return None
    ((m, c),) = nf.num.items()
    if c == 1 and len(m) == 1 and m[0][1] == 1:
        return m[0][0]
    return None


# ---- NF -> AST -----------------------------------------------------------

def _base_expr(b) -> Expr:
    if isinstance(b, (Var, Const, Func)):
        return b
    if isinstance(b, _PolyBase):
        return nf_to_expr(NF(_thaw(b.fp), ()))
    if isinstance(b, _RatPow):
        return Rat(b.val)
    raise TypeError(f"unexpected base {b!r}")


def nf_to_expr(nf: NF) -> Expr:
    if nf.is_zero():
        return ZERO
    terms = sorted(nf.num.items(), key=lambda it: _mono_key_for_sort(it[0]), reverse=True)
    den_factors = [pw(_base_expr(b), Fraction(-e)) for (b, e) in nf.den]
    out_terms = []
    for (m, c) in terms:
        factors = [Rat(c)]
        for (b, e) in m:
            factors.append(pw(_base_expr(b), e))
        factors.extend(den_factors)
        out_terms.append(mul(*factors))
    e = add(*out_terms)
    if not nf.den:
        # the reconstruction is its own normal form (cheap cache hit)
        if e._nf is None:
            e._nf = nf
    return e


def _mono_key_for_sort(m: tuple):
    return (_m_total_deg(m), _mono_skey(m))


# --------------------------------------------------------------------------
# public operations

def _with_dord(e: Expr, dord: int) -> Expr:
    """e if it carries derivative order dord, else a fresh copy that does.

    Normalization hands back nodes shared with its caches and with the
    input, so the order is never written into an existing node.  The
    interned zero keeps order 0: an exact-zero result ends a chain."""
    if e is ZERO or e._dord == dord:
        return e
    out = copy.copy(e)
    out._dord = dord
    return out


def simplify(e: Expr) -> Expr:
    """Canonical rational-normal form of e (idempotent)."""
    return _with_dord(nf_to_expr(to_nf(e)), e._dord)


def diff(e: Expr, v: Union[str, Var]) -> Expr:
    """Exact partial derivative, simplified.  Raises OrderCapExceeded when
    the cumulative derivative order of the result would exceed ORDER_CAP."""
    name = v.name if isinstance(v, Var) else v
    if name not in _VAR_NAMES:
        raise ValueError(f"not a chart variable: {v!r}")
    nd = e._dord + 1
    if nd > ORDER_CAP:
        raise OrderCapExceeded(
            f"derivative order {nd} exceeds cap {ORDER_CAP}")
    return _with_dord(nf_to_expr(_nf_diff(to_nf(e), name)), nd)


def _nf_diff(a: NF, var: str) -> NF:
    if a.is_zero():
        return _NF_ZERO
    dnum = _p_diff(a.num, var)
    if not a.den:
        return dnum
    # (N/D)' = (N' - N * D'/D) / D   with D a monomial of den bases
    dlog = _NF_ZERO  # D'/D = sum k_i b_i'/b_i
    for (b, e) in a.den:
        db = _dbase(b, var)
        if db.is_zero():
            continue
        binv = nf_recip(_atom_nf(b))
        dlog = nf_add(dlog, nf_scale(nf_mul(db, binv), Fraction(e)))
    n_nf = NF(dict(a.num), ())
    total = nf_sub(dnum, nf_mul(n_nf, dlog))
    dinv = nf_recip(NF({a.den: Fraction(1)}, ()))
    return nf_mul(total, dinv)


def _p_diff(p: dict, var: str) -> NF:
    out = _NF_ZERO
    for m, c in p.items():
        for i, (b, e) in enumerate(m):
            db = _dbase(b, var)
            if db.is_zero():
                continue
            rest = list(m[:i]) + list(m[i + 1:]) + [(b, e - 1)]
            cm, rm = _m_build(rest)
            term = NF({rm: c * e * cm}, ())
            out = nf_add(out, nf_mul(term, db))
    return out


_DBASE_CACHE: dict = {}


def _dbase(b, var: str) -> NF:
    key = (b, var)
    got = _DBASE_CACHE.get(key)
    if got is not None:
        return got
    if isinstance(b, Var):
        out = NF({(): Fraction(1)}, ()) if b.name == var else _NF_ZERO
    elif isinstance(b, (Const, _RatPow)):
        out = _NF_ZERO
    elif isinstance(b, Func):
        darg = _nf_diff(to_nf(b.arg), var)
        if darg.is_zero():
            out = _NF_ZERO
        else:
            out = nf_mul(_func_outer_deriv(b), darg)
    elif isinstance(b, _PolyBase):
        out = _nf_diff(NF(_thaw(b.fp), ()), var)
    else:
        raise TypeError(f"no derivative for base {b!r}")
    _DBASE_CACHE[key] = out
    return out


def _func_outer_deriv(b: Func) -> NF:
    name, u = b.name, b.arg
    if name == "sin":
        return _atom_nf(Func("cos", u))
    if name == "cos":
        return nf_neg(_atom_nf(Func("sin", u)))
    if name == "tan":
        t = _atom_nf(Func("tan", u))
        return nf_add(NF({(): Fraction(1)}, ()), nf_mul(t, t))
    if name == "exp":
        return _atom_nf(b)
    if name == "ln":
        return nf_recip(to_nf(u))
    if name == "sinh":
        return _atom_nf(Func("cosh", u))
    if name == "cosh":
        return _atom_nf(Func("sinh", u))
    if name == "tanh":
        t = _atom_nf(Func("tanh", u))
        return nf_sub(NF({(): Fraction(1)}, ()), nf_mul(t, t))
    raise TypeError(name)


def nf_is_zero(e: Expr) -> bool:
    """Purely symbolic zero test (canonical normal form is empty)."""
    return to_nf(e).is_zero()


# --------------------------------------------------------------------------
# evaluation

_MATH_FUNCS: dict = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
}


def eval_at(e: Expr, point) -> float:
    """Double-precision evaluation at (x, y).  Raises EvalDomainError on
    poles, ln(<=0), sqrt(<0), fractional powers of negatives, or non-finite
    intermediates."""
    return _eval(e, float(point[0]), float(point[1]), None)


def eval_scaled(e: Expr, point):
    """(value, scale) where scale = max |value| over all subexpressions."""
    acc = [0.0]
    v = _eval(e, float(point[0]), float(point[1]), acc)
    return v, acc[0]


def _eval(e: Expr, x: float, y: float, acc):
    t = type(e)
    try:
        if t is Rat:
            v = float(e.val)
        elif t is Var:
            v = x if e.name == "x" else y
        elif t is Const:
            v = math.pi if e.name == "pi" else math.e
        elif t is Add:
            v = 0.0
            for s in e.terms:
                v += _eval(s, x, y, acc)
        elif t is Mul:
            v = 1.0
            for f in e.factors:
                v *= _eval(f, x, y, acc)
        elif t is Pow:
            b = _eval(e.base, x, y, acc)
            ex = e.exp
            if ex.denominator == 1:
                n = int(ex)
                if b == 0.0 and n < 0:
                    raise EvalDomainError("pole: 0 raised to negative power")
                v = b ** n
            else:
                if b < 0.0:
                    raise EvalDomainError("fractional power of negative base")
                if b == 0.0 and ex < 0:
                    raise EvalDomainError("pole: 0 raised to negative power")
                v = b ** float(ex)
        elif t is Func:
            a = _eval(e.arg, x, y, acc)
            n = e.name
            if n == "ln":
                if a <= 0.0:
                    raise EvalDomainError("ln of non-positive value")
                v = math.log(a)
            elif n == "sqrt":
                if a < 0.0:
                    raise EvalDomainError("sqrt of negative value")
                v = math.sqrt(a)
            else:
                v = _MATH_FUNCS[n](a)
        else:
            raise TypeError(f"cannot evaluate {e!r}")
    except (OverflowError, ValueError) as ex:
        raise EvalDomainError(str(ex)) from None
    if not math.isfinite(v):
        raise EvalDomainError("non-finite value")
    if acc is not None and abs(v) > acc[0]:
        acc[0] = abs(v)
    return v


# --------------------------------------------------------------------------
# tri-state zero testing

class Box:
    """Closed rectangular domain [x_min,x_max] x [y_min,y_max]."""

    __slots__ = ("x_min", "x_max", "y_min", "y_max")

    def __init__(self, x_min, x_max, y_min, y_max):
        self.x_min = float(x_min)
        self.x_max = float(x_max)
        self.y_min = float(y_min)
        self.y_max = float(y_max)
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate domain box")

    def sample(self, rng: random.Random):
        return (rng.uniform(self.x_min, self.x_max),
                rng.uniform(self.y_min, self.y_max))

    def center(self):
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def contains(self, pt) -> bool:
        return (self.x_min <= pt[0] <= self.x_max
                and self.y_min <= pt[1] <= self.y_max)

    def __repr__(self):
        return f"Box({self.x_min}, {self.x_max}, {self.y_min}, {self.y_max})"

    def __eq__(self, other):
        return (isinstance(other, Box)
                and (self.x_min, self.x_max, self.y_min, self.y_max)
                == (other.x_min, other.x_max, other.y_min, other.y_max))

    def __hash__(self):
        return hash((self.x_min, self.x_max, self.y_min, self.y_max))


# A probe counts as a NonZero witness only above this multiple of its
# threshold; values between the threshold and it are "in the band".
_STRONG_FACTOR = 10.0
# Unknown when more than this share of the probes fails to evaluate.
_MAX_FAIL_FRAC = 0.5
# Term-products the symbolic confirmation of an all-vanishing probe run
# may spend before settling for a probed Zero.
_TERM_BUDGET = 200_000


class ZeroTestConfig:
    __slots__ = ("n_probes", "seeds", "abs_tol", "rel_tol")

    def __init__(self, n_probes: int = 64, seeds=(10007, 20011, 30013),
                 abs_tol: float = 1e-9, rel_tol: float = 1e-9):
        self.n_probes = n_probes
        self.seeds = tuple(seeds)
        self.abs_tol = abs_tol
        self.rel_tol = rel_tol

    def with_seed(self, seed: int) -> "ZeroTestConfig":
        return ZeroTestConfig(self.n_probes, (seed, seed + 1, seed + 2),
                              self.abs_tol, self.rel_tol)


DEFAULT_CFG = ZeroTestConfig()


class ZeroVerdict:
    """Tri-state outcome: Zero | NonZero(witness, value) | Unknown(reason)."""

    __slots__ = ("kind", "witness", "value", "reason", "method")

    def __init__(self, kind, witness=None, value=None, reason=None, method=None):
        self.kind = kind
        self.witness = witness
        self.value = value
        self.reason = reason
        self.method = method

    @classmethod
    def zero(cls, method="probed"):
        return cls("zero", method=method)

    @classmethod
    def nonzero(cls, witness, value):
        return cls("nonzero", witness=witness, value=value)

    @classmethod
    def unknown(cls, reason):
        return cls("unknown", reason=reason)

    @property
    def is_zero(self) -> bool:
        return self.kind == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.kind == "nonzero"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __repr__(self):
        if self.kind == "zero":
            return f"Zero({self.method})"
        if self.kind == "nonzero":
            return f"NonZero(witness={self.witness}, value={self.value:g})"
        return f"Unknown({self.reason})"


def _combine(*vs: ZeroVerdict) -> ZeroVerdict:
    """Conjunction of zero-verdicts: NonZero dominates (the conjunct is
    falsified), then Unknown; all-Zero keeps the weaker method."""
    for v in vs:
        if v.is_nonzero:
            return v
    for v in vs:
        if v.is_unknown:
            return v
    if not vs:
        return ZeroVerdict.zero(method="symbolic")
    method = ("symbolic" if all(v.method == "symbolic" for v in vs)
              else "probed")
    return ZeroVerdict.zero(method=method)


def is_zero(e: Expr, domain: Box, cfg: ZeroTestConfig = DEFAULT_CFG) -> ZeroVerdict:
    """Tri-state identically-zero test on the domain box.

    Probes first (cheap, and NonZero needs no algebra), then attempts a
    budgeted symbolic confirmation so clean identities report method
    "symbolic".  A numeric-only Zero (all probes under tolerance) is a
    legitimate verdict: the kernel need not know sin^2+cos^2 = 1.
    """
    if e._nf is not None and e._nf.is_zero():
        return ZeroVerdict.zero(method="symbolic")
    if isinstance(e, Rat):
        if e.val == 0:
            return ZeroVerdict.zero(method="symbolic")
        return ZeroVerdict.nonzero(domain.center(), float(e.val))
    n_fail = 0
    n_band = 0
    best_val = 0.0
    best_pt = None
    total = cfg.n_probes * len(cfg.seeds)
    for seed in cfg.seeds:
        rng = random.Random(seed)
        for _ in range(cfg.n_probes):
            pt = domain.sample(rng)
            try:
                v, scale = eval_scaled(e, pt)
            except EvalDomainError:
                n_fail += 1
                continue
            thr = cfg.abs_tol + cfg.rel_tol * scale
            av = abs(v)
            if av <= thr:
                continue
            if av > _STRONG_FACTOR * thr:
                if av > abs(best_val):
                    best_val = v
                    best_pt = pt
            else:
                n_band += 1
    if best_pt is not None:
        return ZeroVerdict.nonzero(best_pt, best_val)
    if n_fail > _MAX_FAIL_FRAC * total:
        return ZeroVerdict.unknown(
            f"evaluation failed at {n_fail}/{total} probes")
    if n_band > 0:
        return ZeroVerdict.unknown(
            f"{n_band} probe values inside the tolerance band")
    # all probes vanish; try to upgrade to a symbolic certificate
    token = _BUDGET_LEFT.set(_TERM_BUDGET)
    try:
        if to_nf(e).is_zero():
            return ZeroVerdict.zero(method="symbolic")
    except (_BudgetExceeded, OverflowError, ZeroDivisionError):
        pass
    finally:
        _BUDGET_LEFT.reset(token)
    return ZeroVerdict.zero(method="probed")


# --------------------------------------------------------------------------
# parser

class _Tok:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _lex(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                if j >= n or not text[j].isdigit():
                    raise ExpressionSyntaxError("malformed number", j)
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    toks.append(_Tok("eof", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _lex(text)
        self.i = 0

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ExpressionSyntaxError(
                f"expected {kind!r}, found {t.text or 'end of input'!r}", t.pos)
        return self.next()

    # grammar: expr := term (('+'|'-') term)*
    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            rhs = self.parse_term()
            e = add(e, rhs) if op == "+" else add(e, neg(rhs))
        return e

    # term := unary (('*'|'/') unary)*
    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            rhs = self.parse_unary()
            if op == "*":
                e = mul(e, rhs)
            else:
                if isinstance(rhs, Rat) and rhs.val == 0:
                    raise ExpressionSyntaxError("division by literal zero",
                                                self.toks[self.i - 1].pos)
                e = div(e, rhs)
        return e

    # unary := '-' unary | power
    def parse_unary(self) -> Expr:
        if self.peek().kind == "-":
            self.next()
            return neg(self.parse_unary())
        return self.parse_power()

    # power := primary ['^' rational-exponent]
    def parse_power(self) -> Expr:
        base = self.parse_primary()
        if self.peek().kind == "^":
            self.next()
            e = self.parse_exponent()
            if isinstance(base, Rat) and base.val == 0 and e < 0:
                raise ExpressionSyntaxError("0 raised to a negative power",
                                            self.toks[self.i - 1].pos)
            return pw(base, e)
        return base

    def parse_exponent(self) -> Fraction:
        sign = 1
        t = self.peek()
        if t.kind == "-":
            self.next()
            sign = -1
            t = self.peek()
        if t.kind == "num":
            self.next()
            return sign * Fraction(t.text)
        if t.kind == "(":
            self.next()
            inner_sign = 1
            t2 = self.peek()
            if t2.kind == "-":
                self.next()
                inner_sign = -1
            numt = self.expect("num")
            val = Fraction(numt.text)
            if self.peek().kind == "/":
                self.next()
                dent = self.expect("num")
                dval = Fraction(dent.text)
                if dval == 0:
                    raise ExpressionSyntaxError("zero denominator in exponent",
                                                dent.pos)
                val = val / dval
            self.expect(")")
            return sign * inner_sign * val
        raise ExpressionSyntaxError(
            "rational exponent expected", t.pos)

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return Rat(Fraction(t.text))
        if t.kind == "ident":
            self.next()
            name = t.text
            if self.peek().kind == "(":
                if name not in FUNCTIONS:
                    if name in _VAR_NAMES or name in _CONST_NAMES:
                        raise ExpressionSyntaxError(
                            f"{name!r} is not a function", t.pos)
                    raise UnknownIdentifier(
                        f"unknown function {name!r}", t.pos)
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return Func(name, arg)
            if name in _VAR_NAMES:
                return Var(name)
            if name in _CONST_NAMES:
                return Const(name)
            if name in FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"function {name!r} used without arguments", t.pos)
            raise UnknownIdentifier(f"unknown identifier {name!r}", t.pos)
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        raise ExpressionSyntaxError(
            f"unexpected {t.text or 'end of input'!r}", t.pos)


def parse(text: str) -> Expr:
    p = _Parser(text)
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise ExpressionSyntaxError(f"unexpected trailing {t.text!r}", t.pos)
    return e


# --------------------------------------------------------------------------
# printer (emits the same grammar; parse(to_str(e)) == e structurally)

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def to_str(e: Expr) -> str:
    return _render(e, 0)


def _is_negative_term(e: Expr) -> bool:
    if isinstance(e, Rat):
        return e.val < 0
    if isinstance(e, Mul) and e.factors and isinstance(e.factors[0], Rat):
        return e.factors[0].val < 0
    return False


def _strip_sign(e: Expr) -> Expr:
    if isinstance(e, Rat):
        return Rat(-e.val)
    if isinstance(e, Mul):
        rest = (Rat(-e.factors[0].val),) + e.factors[1:]
        if rest[0].val == 1 and len(rest) > 1:
            rest = rest[1:]
        return rest[0] if len(rest) == 1 else Mul(rest)
    raise TypeError


def _render(e: Expr, ctx: int) -> str:
    t = type(e)
    if t is Rat:
        v = e.val
        s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if v < 0 and ctx >= _PREC_MUL:
            return f"({s})"
        return s
    if t is Var or t is Const:
        return e.name
    if t is Func:
        return f"{e.name}({_render(e.arg, 0)})"
    if t is Pow:
        if e.exp < 0:
            s = f"1/{pw_str_positive(e)}"
            return f"({s})" if ctx > _PREC_MUL else s
        if _prec(e.base) <= _PREC_POW:
            b = f"({_render(e.base, 0)})"
        else:
            b = _render(e.base, 0)
        ex = e.exp
        if ex.denominator == 1:
            return f"{b}^{ex.numerator}"
        return f"{b}^({ex.numerator}/{ex.denominator})"
    if t is Mul:
        coeff = None
        rest = e.factors
        if isinstance(rest[0], Rat):
            coeff = rest[0].val
            rest = rest[1:]
        num_parts = []
        den_parts = []
        for f in rest:
            if isinstance(f, Pow) and f.exp < 0:
                den_parts.append(pw_str_positive(f))
            else:
                num_parts.append(_render(f, _PREC_MUL))
        sign = ""
        if coeff is not None and coeff < 0:
            sign = "-"
            coeff = -coeff
        lead = []
        if coeff is not None:
            if coeff.denominator != 1:
                lead.append(f"{coeff.numerator}/{coeff.denominator}")
            elif coeff != 1 or not num_parts:
                lead.append(str(coeff.numerator))
        core = "*".join(lead + num_parts) if (lead or num_parts) else "1"
        s = sign + core
        for d in den_parts:
            s += f"/{d}"
        if ctx > _PREC_MUL or (sign == "-" and ctx >= _PREC_MUL):
            return f"({s})"
        return s
    if t is Add:
        parts = []
        for i, term in enumerate(e.terms):
            if i == 0:
                parts.append(_render(term, _PREC_ADD))
            elif _is_negative_term(term):
                parts.append(" - " + _render(_strip_sign(term), _PREC_ADD + 1))
            else:
                parts.append(" + " + _render(term, _PREC_ADD + 1))
        s = "".join(parts)
        if ctx > _PREC_ADD:
            return f"({s})"
        return s
    raise TypeError(f"cannot render {e!r}")


def pw_str_positive(f: Pow) -> str:
    """Render a negative-exponent power as a denominator factor."""
    b = f.base
    bs = f"({_render(b, 0)})" if _prec(b) <= _PREC_POW else _render(b, 0)
    ex = -f.exp
    if ex == 1:
        return bs
    if ex.denominator == 1:
        return f"{bs}^{ex.numerator}"
    return f"{bs}^({ex.numerator}/{ex.denominator})"


def _prec(e: Expr) -> int:
    t = type(e)
    if t is Add:
        return _PREC_ADD
    if t is Mul:
        return _PREC_MUL
    if t is Pow:
        return _PREC_POW
    if t is Rat and e.val < 0:
        return _PREC_ADD  # needs parens in most contexts
    return _PREC_ATOM
