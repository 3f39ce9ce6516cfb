"""Scalar symbolic expression kernel over the chart variables x and y.

Everything downstream (Wirtinger calculus, curvature, the invariant chains)
reduces to four operations on immutable expression trees: parse, diff,
simplify, eval_at — plus a tri-state identically-zero test that reads the
normal form: Zero when it is zero, NonZero when its value at a grid point
is proved nonzero (cubint.exact), Unknown otherwise.

The canonical form is a rational function over a multiplicative kernel of
atoms: variables, named constants (pi, e), and applications of the fixed
elementary functions.  Numerators are one rational content times a
polynomial in those atoms with coprime integer coefficients (arbitrary
precision); denominators are monomials whose bases may be
irreducible-as-found compound polynomials.  Keeping denominators factored
is what keeps seventh-order derivative chains of ln(lambda) from blowing
up under the quotient rule.
"""

from __future__ import annotations

import math
import random
from contextvars import ContextVar
from fractions import Fraction
from typing import Optional, Union

__all__ = [
    "Expr", "Rat", "Const", "Var", "Add", "Mul", "Pow", "Func",
    "X", "Y", "ZERO", "ONE",
    "parse", "to_str", "diff", "simplify",
    "eval_at", "compile_float", "is_zero", "nf_is_zero",
    "Box", "ZeroTestConfig", "ZeroVerdict",
    "ExprError", "ExpressionSyntaxError", "UnknownIdentifier",
    "EvalDomainError", "FUNCTIONS", "as_expr",
]

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


class ExponentRangeError(ExprError, OverflowError):
    """An exponent of x or y reached 2^_T (see the normal form)."""


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

    _nf caches the normal form, so that the next operation on a result
    reads it without normalizing the tree again (its derivatives are kept
    there, in NF.d); _fn caches the compiled float evaluator.
    """

    __slots__ = ("_hash", "_nf", "_skey", "_fn")

    def _init_meta(self):
        self._hash = None
        self._nf = None
        self._skey = None
        self._fn = None

    def __getstate__(self):
        # the caches are left out and built again on demand: _fn cannot be
        # pickled, and a normal form holds the tree's atoms as dict keys,
        # which unpickling would hash before the atoms' fields are set
        state = {k: getattr(self, k) for c in type(self).__mro__
                 for k in getattr(c, "__slots__", ())}
        state.update(_nf=None, _fn=None)
        return None, state

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

    def __new__(cls, name: str):
        try:
            return _CONSTS[name]
        except KeyError:
            raise ValueError(f"unknown constant {name!r}") from None

    def __reduce__(self):
        return Const, (self.name,)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        try:
            return _VARS[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def __reduce__(self):
        return Var, (self.name,)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms):
        # not for public use: construct through add()
        self.terms = tuple(terms)
        self._init_meta()

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
        self._init_meta()

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
        self._init_meta()

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
        self._init_meta()

    def __eq__(self, other):
        return type(other) is Func and other.name == self.name and other.arg == self.arg

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("F", self.name, hash(self.arg)))
        return self._hash


def _atoms(cls, names) -> dict:
    """The one node of each name, {name: node}: Var("x") is X, and a
    pickled or copied atom comes back as that node (__reduce__).  Atoms
    compare and hash by identity, in C; monomial dict keys hash and compare
    them all the time.

    Every caller and thread shares an atom's caches, and none of them can
    decide a verdict: to_nf and nf_to_expr never store an atom's _nf (it
    would hold the atom itself), and _skey and _fn (the compiled atom) hold
    the same values whoever builds them."""
    out = {}
    for name in names:
        a = object.__new__(cls)
        a.name = name
        a._init_meta()
        out[name] = a
    return out


_CONSTS = _atoms(Const, _CONST_NAMES)
_VARS = _atoms(Var, _VAR_NAMES)
X = Var("x")
Y = Var("y")
ZERO = Rat(0)
ONE = Rat(1)
_E = Const("e")


# --------------------------------------------------------------------------
# structural total order (for canonical ordering of commutative operands)

def _skey(e) -> tuple:
    """The sort key of an Expr, _PolyBase or _RatPow, kept in its _skey
    slot."""
    k = e._skey
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
    e._skey = k
    return k


def _mono_skey(m) -> tuple:
    return tuple((_skey(b), ex.numerator, ex.denominator)
                 for (b, ex) in _m_pairs(m))


# --------------------------------------------------------------------------
# smart constructors (canonical ordering + exact constant handling; no
# algebraic rewriting beyond that — full normalization lives in simplify)

def add(*terms: Expr) -> Expr:
    flat = []
    const = None  # the sum of the Rat terms; most calls have at most one
    for t in terms:
        if isinstance(t, Add):
            for s in t.terms:
                if isinstance(s, Rat):
                    const = s.val if const is None else const + s.val
                else:
                    flat.append(s)
        elif isinstance(t, Rat):
            const = t.val if const is None else const + t.val
        else:
            flat.append(t)
    if const is not None and const == 0:
        const = None
    flat.sort(key=_skey)
    if const is not None or not flat:
        flat.insert(0, Rat(0 if const is None else const))
    if len(flat) == 1:
        return flat[0]
    return Add(flat)


def mul(*factors: Expr) -> Expr:
    flat = []
    coeff = None  # the product of the Rat factors; most calls have one
    for f in factors:
        if isinstance(f, Mul):
            for s in f.factors:
                if isinstance(s, Rat):
                    coeff = s.val if coeff is None else coeff * s.val
                else:
                    flat.append(s)
        elif isinstance(f, Rat):
            coeff = f.val if coeff is None else coeff * f.val
        else:
            flat.append(f)
    if coeff is not None:
        if coeff == 0:
            return ZERO
        if coeff == 1:
            coeff = None
    flat.sort(key=_skey)
    if coeff is not None or not flat:
        flat.insert(0, Rat(1 if coeff is None else coeff))
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
#   NF  = content * num / den
#   content = positive Fraction
#   num = dict {monomial key: int}, primitive (the coefficients are
#         coprime), monomials with non-negative exponents
#   den = tuple of (base, positive int exponent), one pair per base,
#         sorted by _skey of the base (coefficient 1, folded to num)
#
# A monomial key is x^i*y^j packed into one int, (i + j) << 2*_S | i << _S
# | j with signed fields (the constant monomial is 0), when i and j are
# ints; any other monomial is a tuple of (base, exponent) pairs, one per
# base, sorted by _skey of the base, no zero exponent.  The rule is
# canonical (_m_pack; _m_pairs gives the pairs back).  Packing is additive,
# so a product of packed monomials is one add, and for fields well inside
# +-2^(_S-2) the key order is the graded-lex order of _glex_key.  Exponents
# of x and y stay below 2^_T (_m_pack and _mk_nf raise ExponentRangeError),
# so a few sums of keys cannot carry into the next field.  Output sorts by
# _skey, so the key order never reaches it.
#
# An exponent is an int when it is integral and a Fraction only when it is
# not.  An int and a Fraction of equal value compare and hash alike, so this
# changes no key, order or printed form; it keeps exponent sums cheap.
#
# Bases are Var/Const/Func nodes (Func args canonicalized), plus the two
# internal kinds below.  A base folds (_folds) when a product of its powers
# is not the sum of their exponents: exp atoms combine through their
# arguments and integer powers of a _RatPow go into the coefficient.  Only
# _m_build folds; _m_mul and _p_div_tuples hand such products to it.
#
# One content per normal form keeps the polynomial arithmetic on ints: a
# product of primitive polynomials is primitive (Gauss's lemma; the
# monomials form a torsion-free group, so it holds here), so nf_mul
# multiplies two contents and runs _p_mul on ints, and nf_scale and nf_neg
# touch the content and the signs only.  Where a fold or the expansion of
# a compound base brings in rational coefficients, _mk_nf makes the
# numerator primitive again (_primitive).  The split is unique, so equal
# normal forms have equal fields.

class _PolyBase:
    """A compound polynomial used as a multiplicative base (e.g. a factored
    denominator (x^2+1)^k, or an unresolved radical (1+x)^(1/2))."""

    __slots__ = ("fp", "_hash", "_skey", "_prim", "_expr")

    def __init__(self, fp):
        # frozen poly: sorted tuple of (mono, Fraction); the base's identity,
        # sort key and printed form
        self.fp = fp
        self._hash = None
        self._skey = None
        self._prim = None  # (content, primitive int poly) of fp, see _pb_prim
        self._expr = None  # fp as an expression, see _base_expr

    def __eq__(self, other):
        return type(other) is _PolyBase and other.fp == self.fp

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(("PB", self.fp))
        return self._hash

    def __repr__(self):
        return f"_PolyBase({to_str(_base_expr(self))})"


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
    """content * num / den; d holds the derivatives taken so far,
    {variable name: normal form} (see nf_diff)."""

    __slots__ = ("content", "num", "den", "d")

    def __init__(self, content: Fraction, num: dict, den: tuple):
        self.content = content
        self.num = num
        self.den = den
        self.d = None

    def is_zero(self) -> bool:
        return not self.num

    def __repr__(self):
        return f"NF({self.content!r}, {self.num!r}, {self.den!r})"


# the coefficient multiplier of a product in which nothing folds; callers
# test it by identity to skip the multiply
_UNIT = Fraction(1)
_NF_ZERO = NF(_UNIT, {}, ())
_NF_ONE = NF(_UNIT, {0: 1}, ())
# the field width of a packed monomial key, the bound on its exponents,
# and the bits that a negative field, or one at or above 2^_T, sets
_S, _T = 24, 20
_MASK = (1 << _S) - 1
_OUT = ((1 << _S) - (1 << _T)) * ((1 << _S) + 1)


def _nf_rat(v: Fraction) -> NF:
    """The constant v."""
    if v == 0:
        return _NF_ZERO
    return NF(v, {0: 1}, ()) if v > 0 else NF(-v, {0: -1}, ())


# ---- term budget (is_zero normalizes under one) --------------------------

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


def _int_exp(e):
    """e as an int when it is integral (the exponent invariant)."""
    return e.numerator if e.denominator == 1 else e


def _folds(b) -> bool:
    """Is a product of powers of base b not the sum of their exponents?"""
    t = type(b)
    return t is _RatPow or (t is Func and b.name == "exp")


def _m_pack(m: tuple):
    """The key of a monomial given as its sorted (base, exponent) pairs:
    the packed int when its bases are x and y with int exponents, else m."""
    d = dict(m)
    i, j = d.pop(X, 0), d.pop(Y, 0)
    if d or type(i) is not int or type(j) is not int:
        return m
    if abs(i) >> _T or abs(j) >> _T:
        raise ExponentRangeError(f"x^{i}*y^{j}: an exponent reaches 2^{_T}")
    return (i + j << 2 * _S) + (i << _S) + j


def _m_pairs(m) -> tuple:
    """The (base, exponent) pairs of monomial key m."""
    if type(m) is not int:
        return m
    h = 1 << _S - 1
    j = (m + h & _MASK) - h
    i = ((m - j >> _S) + h & _MASK) - h
    return ((X, i), (Y, j)) if i and j else ((X, i),) if i else (
        ((Y, j),) if j else ())


def _m_build(pairs) -> tuple:
    """Merge (base, exp) pairs into a canonical monomial.

    Returns (coeff_multiplier, monomial key).  Folds: exp-atoms combine through
    their arguments (exp(u)^a * exp(v)^b -> exp(a*u+b*v)); integer powers
    of _RatPow bases fold into the coefficient; e^rational stays a power
    of the named constant e.
    """
    coeff = _UNIT
    acc: dict = {}
    exp_args = []  # list of (arg_expr, multiplier)
    for (b, e) in pairs:
        if e == 0:
            continue
        if isinstance(b, Func) and b.name == "exp":
            exp_args.append((b.arg, e))
            continue
        acc[b] = acc.get(b, 0) + e
    if exp_args:
        total = nf_sum([nf_scale(to_nf(arg), m) for (arg, m) in exp_args])
        # exp(k + u) = e^k * exp(u) for the rational constant term k
        k, total = _nf_split_const(total)
        if k:
            acc[_E] = acc.get(_E, 0) + k
        u = _exp_ln_arg(total)
        if u is not None and len(u.num) == 1:
            # exp(ln(u)) = u for a one-term u; a compound u stays an atom
            ((m, c),) = u.num.items()
            coeff = u.content * c
            for b, e in _m_pairs(m) + tuple((b, -e) for (b, e) in u.den):
                acc[b] = acc.get(b, 0) + e
        elif not total.is_zero():
            b = Func("exp", nf_to_expr(total))
            acc[b] = acc.get(b, 0) + 1
    out = []
    for b, e in acc.items():
        if e == 0:
            continue
        if isinstance(b, _RatPow):
            k = math.floor(e)
            e -= k
            if k != 0:
                coeff *= b.val ** k
            if e == 0:
                continue
            # a power with a rational value, as (9^(1/3))^(3/2) = 3
            root = (_exact_rat_root(b.val, e.denominator) if b.val > 0
                    else None)
            if root is not None:
                coeff *= root ** e.numerator
                continue
        out.append((b, _int_exp(e)))
    out.sort(key=lambda p: _skey(p[0]))
    return coeff, _m_pack(tuple(out))


def _nf_const_value(nf: NF) -> Optional[Fraction]:
    """Rational value of an NF if it is a bare rational constant."""
    if nf.den or nf.num.keys() - {0}:
        return None
    return nf.content * nf.num.get(0, 0)


def _nf_split_const(nf: NF):
    """(k, nf - k) for the rational constant term k of nf; k is 0 when nf
    has a denominator."""
    if nf.den or 0 not in nf.num:
        return 0, nf
    num = dict(nf.num)
    k = nf.content * num.pop(0)
    if not num:
        return k, _NF_ZERO
    return k, NF(*_primitive(nf.content, num), ())


def _m_mul(m1, m2):
    """m1*m2 for monomial keys: (coeff_multiplier, key).

    Packed keys add.  Otherwise one merge along _skey order that adds the
    exponents of equal bases; the multiplier is _UNIT.  A product with a
    base that folds is made by _m_build instead."""
    if type(m1) is int and type(m2) is int:
        return _UNIT, m1 + m2
    m1, m2 = _m_pairs(m1), _m_pairs(m2)
    n1, n2 = len(m1), len(m2)
    out = []
    i = j = 0
    while i < n1 and j < n2:
        t1, t2 = m1[i], m2[j]
        b = t1[0]
        # every base caches its key once _skey has computed it
        k1 = b._skey or _skey(b)
        k2 = t2[0]._skey or _skey(t2[0])
        if k1 < k2:
            out.append(t1)
            i += 1
        elif k2 < k1:
            b = t2[0]
            out.append(t2)
            j += 1
        else:
            e = t1[1] + t2[1]
            if e:
                out.append((b, e if type(e) is int else _int_exp(e)))
            i += 1
            j += 1
        if _folds(b):
            return _m_build(m1 + m2)
    # the bases left in one monomial meet no base of the other, and a
    # canonical monomial has at most one exp atom: none of them folds
    out += m1[i:] + m2[j:]
    return _UNIT, _m_pack(tuple(out))


def _m_divides(m1, m2) -> bool:
    """Does m1 divide m2 (componentwise exponents <=)?"""
    d = dict(_m_pairs(m2))
    return all(d.get(b, 0) >= e for (b, e) in _m_pairs(m1))


def _m_div(m2, m1):
    """m2 / m1 (exponent subtraction; may produce negative exponents)."""
    return _m_build(list(_m_pairs(m2)) + [(b, -e) for (b, e) in _m_pairs(m1)])


# ---- polynomial helpers --------------------------------------------------

def _p_add_into(p: dict, q: dict, s: Fraction = 1):
    scaled = s != 1
    for m, c in q.items():
        if scaled:
            c = c * s
        # no coefficient is zero, so a zero sum had a term to cancel
        c += p.get(m, 0)
        if c:
            p[m] = c
        else:
            del p[m]


def _p_mul(p: dict, q: dict) -> dict:
    """p*q.  Integer coefficients stay integers unless a monomial product
    folds and brings in a rational multiplier."""
    _charge(len(p) * len(q))
    out: dict = {}
    for m1, c1 in p.items():
        packed = type(m1) is int
        for m2, c2 in q.items():
            c = c1 * c2
            if packed and type(m2) is int:
                m = m1 + m2
            else:
                cm, m = _m_mul(m1, m2)
                if cm is not _UNIT:
                    c = c * cm
            c += out.get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _p_scale(p: dict, s: Fraction) -> dict:
    """p*s for s != 0."""
    return {m: c * s for m, c in p.items()}


def _p_mul_mono(p: dict, mono: tuple, s: Fraction = 1) -> dict:
    scaled = s != 1
    out: dict = {}
    for m, c in p.items():
        cm, nm = _m_mul(m, mono)
        if scaled:
            c = c * s
        if cm is not _UNIT:
            c = c * cm
        # no coefficient is zero, so a zero sum had a term to cancel
        c += out.get(nm, 0)
        if c:
            out[nm] = c
        else:
            del out[nm]
    return out


def _p_pow_int(p: dict, n: int) -> dict:
    out = {0: 1}
    b = p
    while n:
        if n & 1:
            out = _p_mul(out, b)
        n >>= 1
        if n:
            b = _p_mul(b, b)
            # a square doubles the exponents: _m_pack raises at 2^_T,
            # before a field of a packed key overflows
            for m in b:
                if type(m) is int and m & _OUT:
                    _m_pack(_m_pairs(m))
    return out


def _xy(p: dict) -> bool:
    """Is every monomial key of p packed?"""
    return all(type(m) is int for m in p)


def _glex_key(bases):
    """The graded-lex monomial order over bases: (the bases sorted by
    _skey, key).  key(m) is (total degree, exponent vector over the sorted
    bases), so a larger key is a larger monomial: total degree first, then
    the first base whose exponents differ.  Exponents stay as the normal
    form has them (an int, a Fraction only for radicals)."""
    order = sorted(bases, key=_skey)
    idx = {b: i for i, b in enumerate(order)}
    n = len(order)

    def key(m):
        v = [0] * n
        d = 0
        for (b, e) in _m_pairs(m):
            v[idx[b]] = e
            d += e
        return d, tuple(v)
    return order, key


def _p_leading(p: dict):
    """(monomial, coefficient) of p's leading term in graded-lex order:
    the largest key when every key is packed."""
    key = None if len(p) == 1 or _xy(p) else _glex_key(
        {b for m in p for (b, _) in _m_pairs(m)})[1]
    m = max(p, key=key)
    return m, p[m]


def _p_content(p: dict) -> dict:
    """Per-base minimum exponent over all monomials (bases present in all;
    a packed p, whose exponents are not negative, gives both x and y)."""
    if _xy(p):
        return {X: min(m >> _S & _MASK for m in p),
                Y: min(m & _MASK for m in p)}
    ds = [dict(_m_pairs(m)) for m in p]
    return {b: min(d[b] for d in ds) for b in ds[0] if all(b in d for d in ds)}


def _primitive(c: Fraction, p: dict):
    """(content, q) with c*p == content*q, content > 0 and q a nonzero
    polynomial with coprime integer coefficients; p has exact rational
    coefficients."""
    vals = p.values()
    try:
        g = math.gcd(*vals)
    except TypeError:
        # a fold or an expanded base brought in rational coefficients
        d = math.lcm(*[v.denominator for v in vals])
        p = {m: v.numerator * (d // v.denominator) for m, v in p.items()}
        c = c / d
        g = math.gcd(*p.values())
    if c < 0:
        c, g = -c, -g
    if g != 1:
        p = {m: v // g for m, v in p.items()}
        c = c * abs(g)
    return c, p


def _pb_prim(b: _PolyBase):
    """(content, primitive int poly) of a compound base's fp, built once."""
    pr = b._prim
    if pr is None:
        pr = b._prim = _primitive(_UNIT, _thaw(b.fp))
    return pr


def _p_div_exact(p: dict, q: dict) -> Optional[dict]:
    """Exact polynomial division p/q, or None, for p with integer and q
    with coprime integer coefficients.

    Long division on packed keys, where the leading term has the largest
    key and a monomial product is an add.  Such a p/q is a polynomial over
    the integers when it is one at all (Gauss's lemma), so a step whose
    leading coefficient lc(q) does not divide proves that it is not one.
    Any other key (a base that folds breaks both) sends the division to
    _p_div_tuples, on monomial tuples and rational coefficients.

    The same lemma gives a pre-check: an integer quotient s takes an
    integer value s(t) = p(t)/q(t) at the integer point t of _p_eval_int,
    so q(t) not dividing p(t) proves that there is none.  Most trial
    divisions of _mk_nf fail, and this rejects them with one evaluation
    each instead of long division.
    """
    if not p:
        return {}
    if not (_xy(p) and _xy(q)):
        return _p_div_tuples(p, q)
    if len(p) == 1 and len(q) > 1:
        # graded-lex order is compatible with products, so q*s has the
        # distinct terms lead(q)*lead(s) > trail(q)*trail(s): never one term
        return None
    qt = _p_eval_int(q)
    if qt:
        pt = _p_eval_int(p)
        if pt is not None and pt % qt:
            return None
    guard = 4 * (len(p) + len(q)) + 64
    q = dict(q)
    ql = max(q)
    qlc = q.pop(ql)
    rem = dict(p)
    quot: dict = {}
    while rem:
        guard -= 1
        if guard < 0:
            return None
        lead = max(rem)
        t = lead - ql
        # t has no negative field where lead(q) divides lead(rem); a
        # Laurent rem may go below 0 where lead(q) has no exponent
        if t & _OUT and not _m_divides(ql, lead):
            return None
        tc, r = divmod(rem.pop(lead), qlc)
        if r:
            return None
        # the leading term falls at every step, so no quotient term repeats
        quot[t] = tc
        # rem -= tc*t*q; its leading term cancels exactly and was popped
        for m, c in q.items():
            m += t
            c = rem.get(m, 0) - tc * c
            if c:
                rem[m] = c
            else:
                del rem[m]
    return quot


# the point of _p_eval_int: two primes of different size, so that few
# factors that the kernel divides by vanish there or take the value +-1;
# their powers below _POW_N are read from tables built once
_X_AT, _Y_AT = 1009, 2003
_POW_N = 64
_X_POW = tuple(_X_AT ** i for i in range(_POW_N))
_Y_POW = tuple(_Y_AT ** j for j in range(_POW_N))


def _p_eval_int(p: dict) -> Optional[int]:
    """p at x = _X_AT, y = _Y_AT for a packed p, or None when that value
    need not be an integer: an exponent that is negative, or a coefficient
    that is not an int (a Fraction coefficient makes the sum a Fraction)."""
    s = 0
    for m, c in p.items():
        if m & _OUT:
            return None
        i, j = m >> _S & _MASK, m & _MASK
        s += (c * (_X_POW[i] if i < _POW_N else _X_AT ** i)
              * (_Y_POW[j] if j < _POW_N else _Y_AT ** j))
    return s if type(s) is int else None


def _p_div_tuples(p: dict, q: dict) -> Optional[dict]:
    """_p_div_exact for keys that are not all packed, such as monomials
    whose products fold (exp atoms, rational bases of radicals): the same
    long division on monomial tuples, with rational coefficients in the
    quotient."""
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
        tc = Fraction(rlc) / qlc * cm
        quot[tm] = quot.get(tm, 0) + tc
        _p_add_into(rem, _p_mul_mono(q, tm, -tc))
    return quot


def _p_sqrt(p: dict) -> Optional[dict]:
    """Return q with q*q == p (graded-lex long square root), else None."""
    if not p:
        return {}
    lm, lc = _p_leading(p)
    cr = _exact_rat_root(lc, 2) if lc > 0 else None
    if cr is None:
        return None
    cm, hm = _m_build([(b, Fraction(e, 2)) for (b, e) in _m_pairs(lm)])
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
    Fractional powers (radical atoms) stay opaque.  A base brings in its
    content, so the expansion may have rational coefficients."""
    while any(type(b) is _PolyBase and e >= 1
              for m in p if type(m) is tuple for (b, e) in m):
        out: dict = {}
        for m, c in p.items():
            poly = {0: 1}
            rest = []
            for (b, e) in _m_pairs(m):
                if type(b) is _PolyBase and e >= 1:
                    k = math.floor(e)
                    r = e - k
                    bc, bp = _pb_prim(b)
                    poly = _p_mul(poly, _p_pow_int(bp, k))
                    c = c * bc ** k
                    if r:
                        rest.append((b, r))
                else:
                    rest.append((b, e))
            cm, rm = _m_build(rest)
            _p_add_into(out, _p_mul_mono(poly, rm, c * cm))
        p = out
    return p


def _mk_nf(c: Fraction, num: dict, den) -> NF:
    """The normal form of c*num/den, for num with exact rational
    coefficients (integers but where a product folded) and den an iterable
    of (base, positive integer exponent) pairs, in which a base may repeat
    (its exponents add)."""
    if not num:
        return _NF_ZERO
    num = _p_expand_pb(num)
    if not num:
        return _NF_ZERO
    den_d: dict = {}
    for b, e in den:
        den_d[b] = den_d.get(b, 0) + e
    # resolve negative exponents inside numerator monomials; a packed key
    # sets no bit of _OUT when its exponents lie in [0, 2^_T), and _m_pack
    # raises on one at or above 2^_T
    need: dict = {}
    for m in num:
        if type(m) is int:
            if not m & _OUT:
                continue
            m = _m_pairs(m)
            _m_pack(m)
        for (b, e) in m:
            if e < 0:
                k = -math.floor(e)  # ceil of -e
                if k > need.get(b, 0):
                    need[b] = k
    if need:
        # num * b^k / (den * b^k) for every such base b; a compound b goes
        # into den monic, as nf_recip puts it there (a radical's base is
        # only normalized by |lc|), and c takes the factor lc^-k.  No base
        # that folds has a negative exponent, so b^k has multiplier 1.
        num = _p_mul_mono(num, _m_build(list(need.items()))[1])
        for b, k in need.items():
            if type(b) is _PolyBase:
                _, lc = _p_leading(_thaw(b.fp))
                if lc != 1:
                    c = c / lc ** k
                    b = _PolyBase(_freeze(_p_scale(_thaw(b.fp), 1 / lc)))
            den_d[b] = den_d.get(b, 0) + k
    c, num = _primitive(c, num)
    if not den_d:
        return NF(c, num, ())
    # cancel integer monomial content against the denominator
    mcontent = _p_content(num)
    cancel = []
    for b, e in den_d.items():
        k = min(e, math.floor(mcontent.get(b, 0)))
        if k > 0:
            den_d[b] = e - k
            cancel.append((b, -k))
    if cancel:
        # den bases never fold, so the multiplier is 1 and num stays primitive
        num = _p_mul_mono(num, _m_build(cancel)[1])
    # trial division by compound denominator factors, on the primitive
    # integer form of each
    out_den = []
    for (b, e) in sorted(den_d.items(), key=lambda p: _skey(p[0])):
        if isinstance(b, _PolyBase) and len(b.fp) > 1:
            bc, P = _pb_prim(b)
            while e > 0:
                q = _p_div_exact(num, P)
                if q is None:
                    break
                c, num = _primitive(c / bc, q)
                e -= 1
        if e > 0:
            out_den.append((b, e))
    return NF(c, num, tuple(out_den))


def _thaw(fp: tuple) -> dict:
    return {m: c for (m, c) in fp}


def _freeze(p: dict) -> tuple:
    return tuple(sorted(p.items(), key=lambda it: _mono_skey(it[0])))


def nf_sum(nfs) -> NF:
    """The normal form of a sum, normalized once: over the lcm of the
    denominators, with one content and one numerator."""
    nfs = [a for a in nfs if a.num]
    if len(nfs) < 2:
        return nfs[0] if nfs else _NF_ZERO
    lcm: dict = {}
    for a in nfs:
        for b, e in a.den:
            if lcm.get(b, 0) < e:
                lcm[b] = e
    # sum of a.content*A = g/l * sum of s_a*A with integers s_a
    g = math.gcd(*[a.content.numerator for a in nfs])
    l = math.lcm(*[a.content.denominator for a in nfs])
    num: dict = {}
    for a in nfs:
        s = a.content.numerator // g * (l // a.content.denominator)
        da = dict(a.den)
        # den bases never fold, so this monomial comes with multiplier 1
        _, m = _m_build([(b, e - da.get(b, 0)) for b, e in lcm.items()])
        _p_add_into(num, _p_mul_mono(a.num, m) if m else a.num, s)
    return _mk_nf(Fraction(g, l), num, lcm.items())


def nf_neg(a: NF) -> NF:
    return NF(a.content, _p_scale(a.num, -1), a.den)


def nf_scale(a: NF, s: Fraction) -> NF:
    if s == 0:
        return _NF_ZERO
    if s > 0:
        return NF(a.content * s, a.num, a.den)
    return NF(a.content * -s, _p_scale(a.num, -1), a.den)


def nf_mul(a: NF, b: NF) -> NF:
    if a.is_zero() or b.is_zero():
        return _NF_ZERO
    return _mk_nf(a.content * b.content, _p_mul(a.num, b.num), a.den + b.den)


def nf_recip(a: NF) -> NF:
    if a.is_zero():
        raise ZeroDivisionError("reciprocal of zero expression")
    den_poly = {_m_pack(a.den): 1}
    if len(a.num) == 1:
        ((m, c),) = a.num.items()
        cm, invm = _m_build([(b, -e) for (b, e) in _m_pairs(m)])
        return _mk_nf(cm / (a.content * c), _p_mul_mono(den_poly, invm), ())
    # a.num = mcontent * core with core free of monomial content; keep core
    # as a factored denominator base, monic so equal denominators hash equal
    mcontent = _p_content(a.num)
    inv_cm, inv_mono = _m_build([(b, -e) for b, e in mcontent.items()])
    core = _p_mul_mono(a.num, inv_mono, inv_cm)
    _, lc = _p_leading(core)
    core_monic = _p_scale(core, _UNIT / lc)
    pb = _PolyBase(_freeze(core_monic))
    return _mk_nf(inv_cm / (lc * a.content), _p_mul_mono(den_poly, inv_mono),
                  ((pb, 1),))


def nf_pow(a: NF, e: Fraction) -> NF:
    if e == 0:
        return _NF_ONE
    if e == 1:
        return a
    if a.is_zero():
        if e < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return _NF_ZERO
    if e.denominator == 1:
        n = int(e)
        if n > 0:
            return _mk_nf(a.content ** n, _p_pow_int(a.num, n),
                          ((b, e * n) for b, e in a.den))
        return nf_pow(nf_recip(a), Fraction(-n))
    k = math.floor(e)
    r = e - k
    if k == 0:
        return _nf_frac_pow(a, r)
    return nf_mul(nf_pow(a, Fraction(k)), _nf_frac_pow(a, r))


def _nf_frac_pow(a: NF, r: Fraction) -> NF:
    """a^r for 0 < r < 1."""
    num, den = a.num, a.den
    # denominator part: den^(-r) distributed over its bases
    parts: list = []
    for (b, e) in den:
        parts.append((b, -e * r))
    if len(num) == 1:
        ((m, c),) = num.items()
        parts.extend((b, e * r) for (b, e) in _m_pairs(m))
        cpart = _rat_frac_pow(a.content * c, r)
        cm, mono = _m_build(parts)
        return _mk_nf(cm, _p_mul_mono(cpart, mono), ())
    if r == Fraction(1, 2):
        # content*num is a square only if the content is one (Gauss's lemma)
        root = _exact_rat_root(a.content, 2)
        q = _p_sqrt(num) if root is not None else None
        if q is not None:
            cm, mono = _m_build(parts)
            return _mk_nf(root * cm, _p_mul_mono(q, mono), ())
    # opaque radical over the sign-normalized primitive core:
    # num = (ccm*scale) * cmono * core_n, so num^r factors accordingly
    mcontent = _p_content(num)
    ccm, cmono = _m_build(list(mcontent.items()))
    inv_cm, inv_mono = _m_build([(b, -e) for b, e in mcontent.items()])
    core = _p_mul_mono(num, inv_mono, inv_cm)
    _, lc = _p_leading(core)
    scale = abs(lc)
    core_n = _p_scale(core, _UNIT / scale)
    parts.extend((b, e * r) for (b, e) in _m_pairs(cmono))
    parts.append((_PolyBase(_freeze(core_n)), r))
    cpart = _rat_frac_pow(a.content * ccm * scale, r)
    cm, mono = _m_build(parts)
    return _mk_nf(cm, _p_mul_mono(cpart, mono), ())


def _rat_frac_pow(c: Fraction, r: Fraction) -> dict:
    """c^r as a one-term polynomial ({mono: coeff}).  The radicand is an
    integer, (p/q)^(1/n) = (p*q^(n-1))^(1/n)/q, so that one value has one
    form."""
    if c == 1:
        return {0: 1}
    if c > 0:
        root = _exact_rat_root(c, r.denominator)
        if root is not None:
            return {0: root ** r.numerator}
    q = c.denominator
    radicand = Fraction(c.numerator * q ** (r.denominator - 1))
    cm, mono = _m_build([(_RatPow(radicand), r)])
    return {mono: cm / q ** r.numerator}


def _iroot(v: int, n: int) -> int:
    """floor(v^(1/n)) for v >= 0, exact at any size: a float root
    overflows above about 1e308 and is inexact above 2^53."""
    if n == 2 or v < 2:
        return math.isqrt(v)
    # Newton's iteration from above decreases to the floor of the root
    r = 1 << -(-v.bit_length() // n)
    while True:
        s = ((n - 1) * r + v // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def _exact_rat_root(c: Fraction, n: int) -> Optional[Fraction]:
    """c^(1/n) when it is rational, for c >= 0, else None."""
    rn = _iroot(c.numerator, n)
    rd = _iroot(c.denominator, n)
    if rn ** n != c.numerator or rd ** n != c.denominator:
        return None
    return Fraction(rn, rd)


# ---- AST -> NF -----------------------------------------------------------

def to_nf(e: Expr) -> NF:
    if e._nf is not None:
        return e._nf
    t = type(e)
    if t is Var or t is Const:
        # not kept: the normal form of an atom holds the atom itself
        return _atom_nf(e)
    if t is Rat:
        nf = _nf_rat(e.val)
    elif t is Add:
        nf = nf_sum([to_nf(s) for s in e.terms])
    elif t is Mul:
        fs = e.factors
        nf = to_nf(fs[0])
        for f in fs[1:]:
            nf = nf_mul(nf, to_nf(f))
    elif t is Pow:
        if isinstance(e.base, Mul) and e.exp.denominator == 1:
            # distribute integer powers over products so reciprocals keep
            # each factor as its own denominator base
            fs = e.base.factors
            nf = nf_pow(to_nf(fs[0]), e.exp)
            for f in fs[1:]:
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
    if name == "exp":
        k, rest = _nf_split_const(argnf)
        u = _exp_ln_arg(rest)
        if u is not None and len(u.num) > 1:
            # exp(k + ln(u)) = e^k*u for a compound u, which no monomial holds
            cm, mono = _m_build([(_E, k)])
            return nf_mul(_mk_nf(cm, {mono: 1}, ()), u)
        # _m_build splits off e^k for a constant term k of the argument and
        # folds exp(ln(u)) for a one-term u; e^-k goes to the denominator,
        # as it does when parsed as e^-k
        cm, mono = _m_build([(Func("exp", nf_to_expr(argnf)), 1)])
        return _mk_nf(cm, {mono: 1}, ())
    cval = _nf_const_value(argnf)
    if name == "ln":
        if cval is not None:
            if cval == 1:
                return _NF_ZERO
            if cval <= 0:
                raise EvalDomainError(f"ln of non-positive constant {cval}")
            return _atom_nf(Func("ln", Rat(cval)))
        # ln(e^k * exp(u)) -> k + u, e^k partly in the denominator for k < 0
        if len(argnf.num) == 1:
            ((m, c),) = argnf.num.items()
            pairs = _m_pairs(m) + tuple((b, -ex) for (b, ex) in argnf.den)
            if c == 1 and argnf.content == 1 and all(
                    b == _E or (type(b) is Func and b.name == "exp")
                    for (b, _) in pairs):
                return nf_sum([_nf_rat(Fraction(ex)) if b == _E
                               else to_nf(b.arg) for (b, ex) in pairs])
        return _atom_nf(Func("ln", nf_to_expr(argnf)))
    # trig / hyperbolic
    if cval is not None and cval == 0:
        return _nf_rat(_FOLD_AT_ZERO[name])
    if not argnf.is_zero():
        lm, lc = _p_leading(argnf.num)
        if lc < 0:
            flipped = _func_nf_plain(name, nf_neg(argnf))
            if name in _ODD_FUNCS:
                return nf_neg(flipped)
            return flipped
    return _func_nf_plain(name, argnf)


def _exp_ln_arg(nf: NF) -> Optional[NF]:
    """The normal form of u if nf is exactly ln(u), else None."""
    if nf.den or len(nf.num) != 1 or nf.content != 1:
        return None
    ((m, c),) = nf.num.items()
    if c == 1 and type(m) is tuple and len(m) == 1 and m[0][1] == 1:
        b = m[0][0]
        if type(b) is Func and b.name == "ln":
            return to_nf(b.arg)
    return None


def _func_nf_plain(name: str, argnf: NF) -> NF:
    return _atom_nf(Func(name, nf_to_expr(argnf)))


def _atom_nf(b) -> NF:
    return NF(_UNIT, {_m_pack(((b, 1),)): 1}, ())


# ---- NF -> AST -----------------------------------------------------------

def _base_expr(b) -> Expr:
    if isinstance(b, (Var, Const, Func)):
        return b
    if isinstance(b, _PolyBase):
        e = b._expr
        if e is None:
            e = b._expr = nf_to_expr(NF(*_pb_prim(b), ()))
        return e
    if isinstance(b, _RatPow):
        return Rat(b.val)
    raise TypeError(f"unexpected base {b!r}")


def nf_to_expr(nf: NF) -> Expr:
    if nf.is_zero():
        return ZERO
    den_factors = [pw(_base_expr(b), Fraction(-e)) for (b, e) in nf.den]
    cn, cd = nf.content.numerator, nf.content.denominator
    out_terms = []
    for (m, c) in nf.num.items():
        factors = [Rat(c * cn, cd)]
        for (b, e) in _m_pairs(m):
            factors.append(_base_expr(b) if e == 1 else pw(_base_expr(b), e))
        factors.extend(den_factors)
        out_terms.append(mul(*factors))
    e = add(*out_terms)
    # the reconstruction is its own normal form (cheap cache hit):
    # normalizing it again gives nf back.  A bare atom is nf's own base,
    # and nf would hold it: a function keeps the normal form of an equal
    # copy, a variable or constant none.
    if e._nf is None:
        if type(e) is Func:
            e._nf = _atom_nf(Func(e.name, e.arg))
        elif type(e) is not Var and type(e) is not Const:
            e._nf = nf
    return e


# --------------------------------------------------------------------------
# public operations

def simplify(e: Expr) -> Expr:
    """Canonical rational-normal form of e (idempotent)."""
    return nf_to_expr(to_nf(e))


def diff(e: Expr, v: Union[str, Var]) -> Expr:
    """Exact partial derivative, simplified: the tree of nf_diff of e's
    normal form.  The normal form keeps its derivative, so a repeated call
    builds the tree again but differentiates nothing; a caller that reads
    one derivative tree many times keeps it (InvariantEngine._gradient)."""
    name = v.name if isinstance(v, Var) else v
    if name not in _VAR_NAMES:
        raise ValueError(f"not a chart variable: {v!r}")
    return nf_to_expr(nf_diff(to_nf(e), name))


def nf_diff(a: NF, var: str) -> NF:
    """d(a)/d(var), taken once per normal form and variable and kept in
    a.d.  Threads racing on a first call each compute an equal normal
    form; whichever is stored last is kept."""
    if a.is_zero():
        return _NF_ZERO
    d = a.d
    if d is None:
        d = a.d = {}
    out = d.get(var)
    if out is None:
        out = d[var] = _nf_diff(a, var, {})
    return out


def _nf_diff(a: NF, var: str, memo: dict) -> NF:
    """d(a)/d(var); memo holds the derivative of each base met in it."""
    if a.is_zero():
        return _NF_ZERO
    dn = nf_scale(_p_diff(a.num, var, memo), a.content)
    if not a.den:
        return dn
    # (N/D)' = (N'B - N sum e_i b_i' B/b_i) / (D*B) for D = prod b_i^e_i and
    # B the product of the b_i with b_i' != 0.  B and B/b_i have no
    # denominator, so _mk_nf divides only by those of N' and b_i' before
    # the one division by D*B.
    live = [b for (b, _) in a.den if not _dbase(b, var, memo).is_zero()]
    n = NF(a.content, a.num, ())
    terms = [nf_mul(dn, _nf_prod(live)) if live else dn]
    for (b, e) in a.den:
        if b in live:
            rest = _nf_prod([c for c in live if c is not b])
            nr = n if rest is _NF_ONE else nf_mul(n, rest)
            terms.append(nf_scale(nf_mul(nr, memo[b]), -e))
    db = tuple((b, e + 1) if b in live else (b, e) for (b, e) in a.den)
    return nf_mul(nf_sum(terms), NF(_UNIT, {0: 1}, db))


def _nf_prod(bases) -> NF:
    """The product of denominator bases, as a normal form."""
    out = _NF_ONE
    for b in bases:
        bnf = NF(*_pb_prim(b), ()) if type(b) is _PolyBase else _atom_nf(b)
        out = bnf if out is _NF_ONE else nf_mul(out, bnf)
    return out


def _p_diff(p: dict, var: str, memo: dict) -> NF:
    """d(p)/d(var) for a polynomial p: the sum over its bases b of
    (dp/db)*b'."""
    parts: dict = {}   # b -> dp/db, the monomials with b's exponent lowered
    shift = _S if var == "x" else 0
    for m, c in p.items():
        if type(m) is int:
            # x^i*y^j with i, j >= 0: the lowering is one subtraction
            e = m >> shift & _MASK
            if e:
                parts.setdefault(_VARS[var], {})[
                    m - (1 << 2 * _S) - (1 << shift)] = c * e
            continue
        for i, (b, e) in enumerate(m):
            if _dbase(b, var, memo).is_zero():
                continue
            # b does not fold: an exp atom has exponent 1, and a _RatPow a
            # zero derivative.  A negative exponent left in the monomial is
            # resolved by nf_mul's _mk_nf.
            low = ((b, e - 1),) if e != 1 else ()
            parts.setdefault(b, {})[_m_pack(m[:i] + low + m[i + 1:])] = c * e
    # b' = 1 (b is the variable) needs only _mk_nf, to lift the negative
    # exponents the lowering leaves
    return nf_sum([_mk_nf(_UNIT, dp, ()) if _dbase(b, var, memo) is _NF_ONE
                   else nf_mul(NF(_UNIT, dp, ()), memo[b])
                   for b, dp in parts.items()])


def _dbase(b, var: str, memo: dict) -> NF:
    """d(b)/d(var) for a monomial base b, memoized in memo."""
    out = memo.get(b)
    if out is not None:
        return out
    if isinstance(b, Var):
        out = _NF_ONE if b.name == var else _NF_ZERO
    elif isinstance(b, (Const, _RatPow)):
        out = _NF_ZERO
    elif isinstance(b, Func):
        darg = _nf_diff(to_nf(b.arg), var, memo)
        if darg.is_zero():
            out = _NF_ZERO
        elif darg is _NF_ONE:
            out = _func_outer_deriv(b)
        else:
            out = nf_mul(_func_outer_deriv(b), darg)
    elif isinstance(b, _PolyBase):
        out = _nf_diff(NF(*_pb_prim(b), ()), var, memo)
    else:
        raise TypeError(f"no derivative for base {b!r}")
    memo[b] = out
    return out


def _func_outer_deriv(b: Func) -> NF:
    name, u = b.name, b.arg
    if name == "sin":
        return _atom_nf(Func("cos", u))
    if name == "cos":
        return nf_neg(_atom_nf(Func("sin", u)))
    if name == "tan":
        t = _atom_nf(Func("tan", u))
        return nf_sum((_NF_ONE, nf_mul(t, t)))
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
        return nf_sum((_NF_ONE, nf_neg(nf_mul(t, t))))
    raise TypeError(name)


def nf_is_zero(e: Expr) -> bool:
    """Purely symbolic zero test (canonical normal form is empty)."""
    return to_nf(e).is_zero()


# --------------------------------------------------------------------------
# evaluation

_EVAL_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp,
    "ln": math.log, "sqrt": math.sqrt,
    "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
}
# identifiers of the functions in generated code, and what they are bound to
_EVAL_FUNC_IDENT = {name: "f_" + name for name in _EVAL_FUNCS}
_EVAL_GLOBALS = {
    "__builtins__": {}, "str": str, "float": float,
    "isfinite": math.isfinite,
    "OverflowError": OverflowError, "ValueError": ValueError,
    "EvalDomainError": EvalDomainError,
    **{_EVAL_FUNC_IDENT[n]: f for n, f in _EVAL_FUNCS.items()},
}
# operands per generated Add/Mul statement: a longer chain nests the
# compiler's syntax tree as deep as the chain is long
_EVAL_CHAIN = 64


def eval_at(e: Expr, point) -> float:
    """Double-precision evaluation at (x, y).  Raises EvalDomainError on
    poles, ln(<=0), sqrt(<0), fractional powers of negatives, or non-finite
    intermediates.

    e's compiled function is built on first use and kept on the node.
    Threads racing on a first use each build an equal function; whichever
    is stored last is kept."""
    f = e._fn
    if f is None:
        f = e._fn = compile_float(e)
    return f(float(point[0]), float(point[1]))[0]


def compile_float(*roots: Expr, returns: Optional[str] = None):
    """Straight-line function f(x, y) -> (v1, ..., vn) evaluating the
    roots.

    Structurally equal subtrees, within a root or across roots, share one
    temporary, so the DAG is evaluated, not the tree.  Every node does the
    float operation of the plain recursive walk (Add is 0.0 + a + ...,
    Mul is a * ..., in operand order; the walk's 1.0 * head of a product
    is left out, since 1.0 * a equals a bit for bit, -0.0, infinities and
    nan included), so each vi is bitwise what compiling its root alone
    gives.  Each domain check is emitted once per temporary: the code is
    straight-line, so a repeat of a check that passed cannot fail.  An
    operation that raises OverflowError gives EvalDomainError('float
    overflow').  Constants are never written into the source: they are the
    defaults of f's parameters after x and y.

    Every node's value must be finite, else EvalDomainError('non-finite
    value'); merging equal subtrees does not change that.  Finiteness is
    checked once all nodes are computed, so where a non-finite value
    reaches a domain check first, the EvalDomainError names that check.
    One test checks the roots, the bases of powers with exponent <= 0 and
    the arguments of functions, and no other node (the bound constants
    are finite).  It rejects exactly what a check of every node would:
    in IEEE arithmetic a sum or product with an inf or nan operand is inf
    or nan (inf*0 and inf - inf are nan), and so is a positive power of
    an inf or nan base.  Only a power with exponent <= 0 (inf^-1 = 0) and
    a function (exp(-inf) = 0, tanh(inf) = 1) can hide a non-finite
    operand.  So every parent of a non-finite node that is not checked is
    itself non-finite, and following parents from it reaches a root,
    which is checked.

    With returns, f takes (x, y, px, py) and returns the value of the
    source text returns, written over the roots' values {0} ... {n-1} and
    the momenta px and py.  An OverflowError there, after the finiteness
    check, also gives EvalDomainError('float overflow')."""
    lines = []
    names = {}      # node -> name holding its value
    consts = {}     # (type, value) -> name of a bound constant
    checked = {}    # names whose finiteness is read, in first-use order
    guards = set()  # domain checks emitted

    def const(v) -> str:
        key = (type(v), v)
        c = consts.get(key)
        if c is None:
            c = consts[key] = f"c{len(consts)}"
        return c

    def guard(line: str):
        # the code is straight-line: a check already passed holds later
        if line not in guards:
            guards.add(line)
            lines.append(line)

    def emit(e: Expr) -> str:
        out = names.get(e)
        if out is not None:
            return out
        t = type(e)
        if t is Var:
            out = "x" if e.name == "x" else "y"
        elif t is Const:
            out = const(math.pi if e.name == "pi" else math.e)
        elif t is Rat:
            try:
                out = const(float(e.val))
            except OverflowError:
                # raises, mapped to EvalDomainError, on every evaluation
                out = f"t{len(lines)}"
                lines.append(f"{out} = float({const(e.val)})")
        elif t is Add or t is Mul:
            ops = [emit(s) for s in (e.terms if t is Add else e.factors)]
            # 1.0 * a equals a bit for bit; 0.0 + a does not for a = -0.0
            op, head = (" + ", ["0.0"]) if t is Add else (" * ", [])
            out = f"t{len(lines)}"
            for i in range(0, max(len(ops), 1), _EVAL_CHAIN):
                chunk = head + ops[i:i + _EVAL_CHAIN]
                lines.append(f"{out} = {op.join(chunk) or '1.0'}")
                head = [out]
        elif t is Pow:
            b = emit(e.base)
            ex = e.exp
            if ex <= 0:
                checked[b] = None
            if ex.denominator == 1:
                n = int(ex)
                if n < 0:
                    guard(f"if {b} == 0.0: raise EvalDomainError("
                          "'pole: 0 raised to negative power')")
                c = const(n)
            else:
                guard(f"if {b} < 0.0: raise EvalDomainError("
                      "'fractional power of negative base')")
                if ex < 0:
                    guard(f"if {b} == 0.0: raise EvalDomainError("
                          "'pole: 0 raised to negative power')")
                c = const(float(ex))
            out = f"t{len(lines)}"
            lines.append(f"{out} = {b} ** {c}")
        elif t is Func:
            a = emit(e.arg)
            checked[a] = None
            if e.name == "ln":
                guard(f"if {a} <= 0.0: raise EvalDomainError("
                      "'ln of non-positive value')")
            elif e.name == "sqrt":
                guard(f"if {a} < 0.0: raise EvalDomainError("
                      "'sqrt of negative value')")
            out = f"t{len(lines)}"
            lines.append(f"{out} = {_EVAL_FUNC_IDENT[e.name]}({a})")
        else:
            raise TypeError(f"cannot evaluate {e!r}")
        names[e] = out
        return out

    res = [emit(r) for r in roots]
    # emit refers to itself through its closure; the cycle would keep
    # every compiled node alive (through names) until a cyclic collection
    del emit
    checked.update(dict.fromkeys(res))
    bound = set(consts.values())
    finite = " and ".join(f"isfinite({n})" for n in checked if n not in bound)
    body = [
        " try:",
        *["  " + ln for ln in lines or ["pass"]],
        " except OverflowError:",
        "  raise EvalDomainError('float overflow') from None",
        " except ValueError as ex:",
        "  raise EvalDomainError(str(ex)) from None",
        *([f" if not ({finite}):",
           "  raise EvalDomainError('non-finite value')"] if finite else []),
    ]
    if returns is None:
        params = "x, y, "
        body.append(f" return ({''.join(n + ', ' for n in res)})")
    else:
        params = "x, y, px, py, "
        body += [" try:",
                 f"  return {returns.format(*res)}",
                 " except OverflowError:",
                 "  raise EvalDomainError('float overflow') from None"]
    src = "\n".join([
        f"def f({params}{''.join(c + ', ' for c in consts.values())}):",
        *body])
    ns = {}
    exec(compile(src, "<cubint.expr evaluator>", "exec"), _EVAL_GLOBALS, ns)
    f = ns["f"]
    f.__defaults__ = tuple(v for _, v in consts)
    return f


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
        if not all(map(math.isfinite, (self.x_min, self.x_max,
                                       self.y_min, self.y_max))):
            raise ValueError("domain box bounds must be finite")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("degenerate domain box")

    def sample(self, rng: random.Random):
        return (rng.uniform(self.x_min, self.x_max),
                rng.uniform(self.y_min, self.y_max))

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


# Term-products is_zero may spend normalizing an expression that carries
# no normal form.
_TERM_BUDGET = 200_000


class ZeroTestConfig:
    """The probe points of a zero test: n_probes points drawn from
    seeds[0]; with_seed gives the configuration of another seed."""

    __slots__ = ("n_probes", "seeds")

    def __init__(self, n_probes: int = 64, seeds=(10007, 20011, 30013)):
        # with no probe point no NonZero could be found
        if n_probes < 1:
            raise ValueError(f"n_probes must be at least 1, got {n_probes}")
        seeds = tuple(seeds)
        if not seeds:
            raise ValueError("seeds must name at least one seed")
        self.n_probes = n_probes
        self.seeds = seeds

    def with_seed(self, seed: int) -> "ZeroTestConfig":
        return ZeroTestConfig(self.n_probes, (seed, seed + 1, seed + 2))


DEFAULT_CFG = ZeroTestConfig()


class ZeroVerdict:
    """Tri-state outcome: Zero | NonZero(witness, value) | Unknown(reason).
    A Zero has method "symbolic"; a NonZero "exact" or "enclosure"."""

    __slots__ = ("kind", "witness", "value", "reason", "method")

    def __init__(self, kind, witness=None, value=None, reason=None, method=None):
        self.kind = kind
        self.witness = witness
        self.value = value
        self.reason = reason
        self.method = method

    @classmethod
    def zero(cls):
        return cls("zero", method="symbolic")

    @classmethod
    def nonzero(cls, witness, value, method):
        return cls("nonzero", witness=witness, value=value, method=method)

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
    falsified), then Unknown, then Zero."""
    for v in vs:
        if v.is_nonzero:
            return v
    for v in vs:
        if v.is_unknown:
            return v
    return ZeroVerdict.zero()


def is_zero(e: Expr, domain: Box, cfg: ZeroTestConfig = DEFAULT_CFG) -> ZeroVerdict:
    """Tri-state identically-zero test on the domain box.

    Reads e's normal form, normalizing e under a term budget if it
    carries none.  A zero normal form is Zero(symbolic), and no other
    verdict is Zero.  A nonzero one is NonZero at the first probe point
    where its value, exact or a proved enclosure, excludes 0
    (exact.nf_verdict), else Unknown.  A normal form over the budget, or
    one that fails to build, is Unknown: the kernel need not know
    sin^2 + cos^2 = 1, and no evaluation proves an identity.
    """
    token = _BUDGET_LEFT.set(_TERM_BUDGET)
    try:
        nf = to_nf(e)
    except _BudgetExceeded:
        return ZeroVerdict.unknown("over the term budget")
    except (OverflowError, ZeroDivisionError, EvalDomainError) as exc:
        return ZeroVerdict.unknown(f"no normal form: {exc}")
    finally:
        _BUDGET_LEFT.reset(token)
    if nf.is_zero():
        return ZeroVerdict.zero()
    from .exact import nf_verdict
    return nf_verdict(nf, domain, cfg)


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
            s = "1/" + _power_str(e.base, -e.exp)
            return f"({s})" if ctx > _PREC_MUL else s
        return _power_str(e.base, e.exp)
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
                den_parts.append(_power_str(f.base, -f.exp))
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


def _power_str(base: Expr, ex: Fraction) -> str:
    """base^ex for ex > 0, the base alone when ex == 1 (a denominator
    factor); the base is parenthesized unless it binds tighter than ^."""
    b = f"({_render(base, 0)})" if _prec(base) <= _PREC_POW else _render(base, 0)
    if ex == 1:
        return b
    if ex.denominator == 1:
        return f"{b}^{ex.numerator}"
    return f"{b}^({ex.numerator}/{ex.denominator})"


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
    if t is Rat and e.val.denominator != 1:
        return _PREC_MUL  # printed as a quotient
    return _PREC_ATOM
