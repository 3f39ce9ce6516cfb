"""Independent numeric oracles used to freeze expected values in the tests.

Everything here is deliberately dumb: plain finite differences and plain
float arithmetic, no use of the symbolic kernel beyond point evaluation.
If the engine and these oracles agree, they agree for different reasons.
The exceptions are p_leading_reference, the kernel's former leading-term
search with its own graded-lex comparator, p_div_reference, the kernel's
former long-division loop, p_mul_reference and p_div_exact_reference, its
former polynomial product and exact division on Fraction coefficients,
m_mul_reference, its former monomial product, nf_add_reference,
nf_diff_reference and p_diff_reference, its former pairwise sum and
derivatives, which normalized every intermediate sum and product,
closure_compile with rk4_reference, the former closure compiler and RK4
driver of the geodesic flow, momentum_poly_reference, the
former per-polynomial evaluator of H and F, canonical_bracket_reference,
the canonical bracket as a tree algebra that simplified every
intermediate momentum polynomial, compile_float_reference, the
float compiler as it was when its finiteness check read every node and
it returned the tuple T of all node values, and the hand-written rank-3
and rank-4 J contractions and symmetrizations of tensorcoords
(apply_j_slot3_reference, apply_j_slot4_reference, sym3_reference,
sym4_reference), the rank-generic tree versions that replaced them and
the tensors built with them (apply_j_slot_reference,
symmetrize_reference, split_AB_reference, imag_part_reference,
holo_residual_reference), cov_deriv3_reference, the covariant derivative that
built all 16 entries, and InvariantChainReference, the invariant chain
of geometry, cnum and invariants as tree formulas that simplify every
step: each is kept as the reference for the code that replaced it.
gee_det_reference, the determinant form of the obstructions G, is the
second formula for G that the engine computed before it kept one.
unpack decodes the kernel's packed monomial keys of x and y into the
tuples of (base, exponent) pairs that the polynomial references read.
"""

import itertools
import math
from fractions import Fraction

from cubint.expr import (Add, Const, EvalDomainError, Func, Mul, Pow, Rat,
                         Var, as_expr, diff, nf_is_zero, simplify)
from cubint.expr import (NF, _EVAL_CHAIN, _EVAL_FUNC_IDENT,
                         _EVAL_GLOBALS, _NF_ONE, _NF_ZERO, _S, _UNIT,
                         _atom_nf, _folds,
                         _func_outer_deriv, _glex_key, _int_exp, _m_build,
                         _m_div, _m_divides, _mk_nf,
                         _p_add_into, _p_mul_mono, _pb_prim, _PolyBase, _skey,
                         nf_mul, nf_neg, nf_recip, nf_scale, nf_sum,
                         nf_to_expr, to_nf)
from cubint.cnum import CExpr
from cubint.geometry import _cross, _grad, christoffel, complex_structure
from cubint.tensorcoords import (SymTensor3, SymTensor4, _at, _dense,
                                 cov_deriv3, div1, div2, div3)


def fd_partial(f, x, y, var, h=1e-5):
    """Richardson-extrapolated central difference of f(x, y)."""
    if var == "x":
        d1 = (f(x + h, y) - f(x - h, y)) / (2 * h)
        d2 = (f(x + h / 2, y) - f(x - h / 2, y)) / h
    else:
        d1 = (f(x, y + h) - f(x, y - h)) / (2 * h)
        d2 = (f(x, y + h / 2) - f(x, y - h / 2)) / h
    return (4 * d2 - d1) / 3


def fd_second(f, x, y, var1, var2, h=1e-4):
    """Second partial via nested first differences."""
    def g(a, b):
        return fd_partial(f, a, b, var1, h)
    return fd_partial(g, x, y, var2, h)


def fd_gauss_curvature(g11, g12, g22, x, y, h=1e-4):
    """Gauss curvature of a 2-D metric from Christoffel symbols, all by
    finite differences:  K = R_1212 / det(g).

    The component functions g11, g12, g22 are plain callables (x, y) -> float.
    """

    def gmat(a, b):
        return ((g11(a, b), g12(a, b)), (g12(a, b), g22(a, b)))

    def ginv(a, b):
        (m11, m12), (_, m22) = gmat(a, b)
        d = m11 * m22 - m12 * m12
        return ((m22 / d, -m12 / d), (-m12 / d, m11 / d))

    comps = {(0, 0): g11, (0, 1): g12, (1, 0): g12, (1, 1): g22}

    def dg(i, j, k, a, b):
        # d g_ij / d x^k
        f = comps[(i, j)]
        return fd_partial(f, a, b, "x" if k == 0 else "y", h)

    def christoffel(a, b):
        inv = ginv(a, b)
        gam = [[[0.0, 0.0] for _ in range(2)] for _ in range(2)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    s = 0.0
                    for l in range(2):
                        s += inv[i][l] * (dg(l, j, k, a, b) + dg(l, k, j, a, b)
                                          - dg(j, k, l, a, b))
                    gam[i][j][k] = 0.5 * s
        return gam

    def dgamma(i, j, k, wrt, a, b):
        def f(aa, bb):
            return christoffel(aa, bb)[i][j][k]
        return fd_partial(f, a, b, "x" if wrt == 0 else "y", h)

    # R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
    #             + Gamma^i_{km} Gamma^m_{lj} - Gamma^i_{lm} Gamma^m_{kj}
    gam = christoffel(x, y)

    def riem_up(i, j, k, l):
        s = dgamma(i, l, j, k, x, y) - dgamma(i, k, j, l, x, y)
        for m in range(2):
            s += gam[i][k][m] * gam[m][l][j] - gam[i][l][m] * gam[m][k][j]
        return s

    (m11, m12), (_, m22) = gmat(x, y)
    det = m11 * m22 - m12 * m12
    # R_1212 = g_1m R^m_212
    r = m11 * riem_up(0, 1, 0, 1) + m12 * riem_up(1, 1, 0, 1)
    return r / det


def _fd_wirtinger(f, x, y, h):
    """f_z = (f_x - i f_y)/2 by Richardson differences; f may be complex."""
    fx = fd_partial(f, x, y, "x", h)
    fy = fd_partial(f, x, y, "y", h)
    return 0.5 * (fx - 1j * fy)


def fd_d0_iso(a, lam, x, y, h=1e-3):
    """Triple weighted z-derivative invariant of an isothermal pair:
    D0 = 4 Re nabla^3 (2 a) with nabla f = f_z - p (ln lam)_z f applied at
    weights p = -3, -2, -1.  a: (x, y) -> complex, lam: (x, y) -> float."""

    def u(xx, yy):
        return math.log(lam(xx, yy))

    def weighted(f, p):
        def out(xx, yy):
            fz = _fd_wirtinger(f, xx, yy, h)
            uz = _fd_wirtinger(u, xx, yy, h)
            return fz - p * uz * f(xx, yy)
        return out

    f = lambda xx, yy: 2.0 * a(xx, yy)
    for p in (-3, -2, -1):
        f = weighted(f, p)
    return 4.0 * f(x, y).real


def fd_d0_null(a1, a2, lam, x, y, h=1e-3):
    """Null-lane analogue: D0 = 2 (nabla_x^3 a1 + nabla_y^3 a2) with
    nabla_x f = f_x - p (ln lam)_x f at weights p = -3, -2, -1 (and the
    y-chain for a2)."""

    def u(xx, yy):
        return math.log(lam(xx, yy))

    def weighted(f, p, var):
        def out(xx, yy):
            fd = fd_partial(f, xx, yy, var, h)
            ud = fd_partial(u, xx, yy, var, h)
            return fd - p * ud * f(xx, yy)
        return out

    fa, fb = a1, a2
    for p in (-3, -2, -1):
        fa = weighted(fa, p, "x")
        fb = weighted(fb, p, "y")
    return 2.0 * (fa(x, y) + fb(x, y))


def poisson_bracket_canonical(f, h, x, y, px, py, step=1e-5):
    """{f, h} in canonical coordinates (x, y, px, py) by finite differences.
    f and h are callables (x, y, px, py) -> float."""

    def d(fun, idx):
        pt = [x, y, px, py]

        def shifted(s):
            q = list(pt)
            q[idx] += s
            return fun(*q)

        d1 = (shifted(step) - shifted(-step)) / (2 * step)
        d2 = (shifted(step / 2) - shifted(-step / 2)) / step
        return (4 * d2 - d1) / 3

    return (d(f, 0) * d(h, 2) - d(f, 2) * d(h, 0)
            + d(f, 1) * d(h, 3) - d(f, 3) * d(h, 1))


def rk4_flow(rhs, state, dt, steps):
    """Fixed-step RK4 integration of state' = rhs(state); returns the list
    of states (including the initial one)."""
    out = [tuple(state)]
    s = list(state)
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs([si + 0.5 * dt * k for si, k in zip(s, k1)])
        k3 = rhs([si + 0.5 * dt * k for si, k in zip(s, k2)])
        k4 = rhs([si + dt * k for si, k in zip(s, k3)])
        s = [si + dt / 6.0 * (a + 2 * b + 2 * c + d)
             for si, a, b, c, d in zip(s, k1, k2, k3, k4)]
        out.append(tuple(s))
    return out


_TREE_FUNCS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "exp": math.exp, "sinh": math.sinh, "cosh": math.cosh, "tanh": math.tanh,
}


def tree_eval(e, x, y, acc=None):
    """Recursive walk of the whole expression tree, shared subtrees as often
    as they occur: the value at (x, y), raising EvalDomainError where the
    kernel's evaluator must.  When acc is a one-element list, acc[0] ends
    as the largest |value| over the nodes (the kernel's scale)."""
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
                v += tree_eval(s, x, y, acc)
        elif t is Mul:
            v = 1.0
            for f in e.factors:
                v *= tree_eval(f, x, y, acc)
        elif t is Pow:
            b = tree_eval(e.base, x, y, acc)
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
            a = tree_eval(e.arg, x, y, acc)
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
                v = _TREE_FUNCS[n](a)
        else:
            raise TypeError(f"cannot evaluate {e!r}")
    except (OverflowError, ValueError) as ex:
        raise EvalDomainError(str(ex)) from None
    if not math.isfinite(v):
        raise EvalDomainError("non-finite value")
    if acc is not None and abs(v) > acc[0]:
        acc[0] = abs(v)
    return v


_CLOSURE_FUNCS = dict(_TREE_FUNCS, ln=math.log, sqrt=math.sqrt)


def closure_compile(e):
    """A float closure f(x, y) of e: a tree of closures, one per node, with
    no domain checks (a fractional power of a negative base is complex)."""
    t = type(e)
    if t is Rat:
        v = float(e.val)
        return lambda x, y: v
    if t is Var:
        if e.name == "x":
            return lambda x, y: x
        return lambda x, y: y
    if t is Const:
        v = math.pi if e.name == "pi" else math.e
        return lambda x, y: v
    if t is Add:
        fs = tuple(closure_compile(s) for s in e.terms)

        def _add(x, y, fs=fs):
            s = 0.0
            for f in fs:
                s += f(x, y)
            return s
        return _add
    if t is Mul:
        fs = tuple(closure_compile(s) for s in e.factors)

        def _mul(x, y, fs=fs):
            s = 1.0
            for f in fs:
                s *= f(x, y)
            return s
        return _mul
    if t is Pow:
        bf = closure_compile(e.base)
        if e.exp.denominator == 1:
            n = int(e.exp)
            return lambda x, y: bf(x, y) ** n
        ex = float(e.exp)
        return lambda x, y: bf(x, y) ** ex
    if t is Func:
        g = _CLOSURE_FUNCS[e.name]
        af = closure_compile(e.arg)
        return lambda x, y: g(af(x, y))
    raise TypeError(f"cannot compile {e!r}")


def rk4_reference(metric, state0, dt, steps):
    """Fixed-step RK4 for Hamilton's equations of H = (1/2) g^{ij} p_i p_j,
    each coefficient of the right-hand side a closure_compile closure:
    the list of (t, x, y, px, py)."""
    i11, i12, i22 = metric.inv
    c11, c12, c22 = (closure_compile(c) for c in (i11, i12, i22))
    d11x, d12x, d22x = (closure_compile(simplify(diff(c, "x")))
                        for c in (i11, i12, i22))
    d11y, d12y, d22y = (closure_compile(simplify(diff(c, "y")))
                        for c in (i11, i12, i22))

    def rhs(s):
        x, y, px, py = s
        dx = c11(x, y) * px + c12(x, y) * py
        dy = c12(x, y) * px + c22(x, y) * py
        dpx = -(0.5 * d11x(x, y) * px * px + d12x(x, y) * px * py
                + 0.5 * d22x(x, y) * py * py)
        dpy = -(0.5 * d11y(x, y) * px * px + d12y(x, y) * px * py
                + 0.5 * d22y(x, y) * py * py)
        return (dx, dy, dpx, dpy)

    s = tuple(float(v) for v in state0)
    out = [(0.0,) + s]
    t = 0.0
    for _ in range(steps):
        k1 = rhs(s)
        k2 = rhs(tuple(si + 0.5 * dt * k for si, k in zip(s, k1)))
        k3 = rhs(tuple(si + 0.5 * dt * k for si, k in zip(s, k2)))
        k4 = rhs(tuple(si + dt * k for si, k in zip(s, k3)))
        s = tuple(si + dt / 6.0 * (a + 2 * b + 2 * c + d)
                  for si, a, b, c, d in zip(s, k1, k2, k3, k4))
        t += dt
        out.append((t,) + s)
    return out


def _m_lex_cmp(m1, m2):
    """Lex part of the graded-lex monomial order: -1, 0 or 1 as m1 is
    below, equal to or above m2 at the first base, in _skey order, where
    their exponents differ (a base a monomial lacks has exponent 0)."""
    i = j = 0
    while i < len(m1) or j < len(m2):
        if i >= len(m1):
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
            # m1 has the smaller base, m2 has exponent 0 of it
            return 1 if e1 > 0 else -1
        else:
            return -1 if e2 > 0 else 1
    return 0


def _m_total_deg(m):
    return sum(e for (_, e) in m)


def unpack(m):
    """Monomial key m as a tuple of (base, exponent) pairs, the kernel's
    former monomial, or a polynomial {key: coefficient} with every key so
    unpacked.  A packed key, an int, is x^i*y^j as
    (i + j)*2^(2S) + i*2^S + j with signed fields of S = expr._S bits;
    it is decoded here from that formula alone, and its top field must be
    the total degree i + j."""
    if type(m) is dict:
        return {unpack(k): c for k, c in m.items()}
    if type(m) is not int:
        return m
    half, size = 1 << (_S - 1), 1 << _S
    j = (m + half) % size - half
    top = (m - j) >> _S
    i = (top + half) % size - half
    assert (top - i) >> _S == i + j, m
    return tuple((b, e) for b, e in ((Var("x"), i), (Var("y"), j)) if e)


def p_leading_reference(p):
    """(monomial, coefficient) of p's leading term in graded-lex order: the
    kernel's former search, total degree first and then _m_lex_cmp, walking
    the monomials pairwise instead of through one sort key."""
    best = bd = None
    for m in p:
        d = _m_total_deg(unpack(m))
        if best is None or d > bd or (
                d == bd and _m_lex_cmp(unpack(m), unpack(best)) > 0):
            best, bd = m, d
    return best, p[best]


def p_div_reference(p, q):
    """Exact polynomial division p/q, or None: the kernel's long division on
    monomial tuples as it was before it ran on exponent vectors, for every
    input alike.  Monomial arithmetic is the kernel's own; only the loop
    (leading term, divisibility, guard) is pinned here, and the leading
    term comes from p_leading_reference."""
    if not p:
        return {}
    qlm, qlc = p_leading_reference(q)
    rem = dict(p)
    quot = {}
    guard = 4 * (len(p) + len(q)) + 64
    while rem:
        guard -= 1
        if guard < 0:
            return None
        rlm, rlc = p_leading_reference(rem)
        if not _m_divides(qlm, rlm):
            return None
        cm, tm = _m_div(rlm, qlm)
        tc = rlc / qlc * cm
        quot[tm] = quot.get(tm, Fraction(0)) + tc
        _p_add_into(rem, _p_mul_mono(q, tm, -tc))
    return quot


def p_mul_reference(p, q):
    """p*q on Fraction coefficients: the kernel's product as it was before
    normal forms kept one content and integer coefficients (the term
    budget left out)."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            cm, m = m_mul_reference(m1, m2)
            c = Fraction(c1) * c2
            if cm is not _UNIT:
                c = c * cm
            old = out.get(m)
            if old is not None:
                c = old + c
            if c:
                out[m] = c
            elif old is not None:
                del out[m]
    return out


def p_div_exact_reference(p, q):
    """Exact polynomial division p/q, or None, on Fraction coefficients:
    the kernel's long division on exponent vectors as it was before it ran
    on integers.  Inputs with a base that folds go to p_div_reference, as
    they went to the kernel's tuple loop."""
    if not p:
        return {}
    p = {m: Fraction(c) for m, c in p.items()}
    q = {m: Fraction(c) for m, c in q.items()}
    bases = {b for m in p for (b, _) in unpack(m)}
    bases.update(b for m in q for (b, _) in unpack(m))
    if any(map(_folds, bases)):
        return p_div_reference(p, q)
    if len(p) == 1 and len(q) > 1:
        return None
    order, key = _glex_key(bases)
    qk = {key(unpack(m)): c for m, c in q.items()}
    qlk = max(qk)
    qlc = qk.pop(qlk)
    qlv = qlk[1]
    support = [i for i, e in enumerate(qlv) if e]
    rem = {key(unpack(m)): c for m, c in p.items()}
    quot = {}
    guard = 4 * (len(p) + len(q)) + 64
    while rem:
        guard -= 1
        if guard < 0:
            return None
        rlk = max(rem)
        rlv = rlk[1]
        if any(rlv[i] < qlv[i] for i in support):
            return None
        tc = rem.pop(rlk) / qlc
        td = rlk[0] - qlk[0]
        tv = tuple([r - s for r, s in zip(rlv, qlv)])
        quot[tv] = tc
        for (d, v), c in qk.items():
            nk = (d + td, tuple([a + b for a, b in zip(v, tv)]))
            nc = rem.get(nk, 0) - tc * c
            if nc == 0:
                rem.pop(nk, None)
            else:
                rem[nk] = nc
    return {tuple((order[i], _int_exp(e)) for i, e in enumerate(v) if e): c
            for v, c in quot.items()}


def m_mul_reference(m1, m2):
    """(coefficient multiplier, monomial) of m1*m2: the kernel's monomial
    product as it was before it became one merge, every pair of both
    monomials summed again by _m_build."""
    return _m_build(list(unpack(m1)) + list(unpack(m2)))


_REFERENCE_GLOBALS = dict(_EVAL_GLOBALS, all=all, map=map)


def compile_float_reference(*roots):
    """Straight-line function f(x, y) -> (v1, ..., vn, T) of the roots, as
    compile_float built it when it checked the finiteness of every node,
    T included, with all(map(isfinite, T))."""
    if not roots:
        return lambda x, y: ((),)
    lines = []
    names = {}      # node -> name holding its value
    consts = {}     # (type, value) -> name of a bound constant

    def const(v) -> str:
        key = (type(v), v)
        c = consts.get(key)
        if c is None:
            c = consts[key] = f"c{len(consts)}"
        return c

    def emit(e) -> str:
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
                out = f"t{len(lines)}"
                lines.append(f"{out} = float({const(e.val)})")
        elif t is Add or t is Mul:
            ops = [emit(s) for s in (e.terms if t is Add else e.factors)]
            op, head = (" + ", "0.0") if t is Add else (" * ", "1.0")
            out = f"t{len(lines)}"
            for i in range(0, max(len(ops), 1), _EVAL_CHAIN):
                chunk = [head] + ops[i:i + _EVAL_CHAIN]
                lines.append(f"{out} = {op.join(chunk)}")
                head = out
        elif t is Pow:
            b = emit(e.base)
            ex = e.exp
            if ex.denominator == 1:
                n = int(ex)
                if n < 0:
                    lines.append(f"if {b} == 0.0: raise EvalDomainError("
                                 "'pole: 0 raised to negative power')")
                c = const(n)
            else:
                lines.append(f"if {b} < 0.0: raise EvalDomainError("
                             "'fractional power of negative base')")
                if ex < 0:
                    lines.append(f"if {b} == 0.0: raise EvalDomainError("
                                 "'pole: 0 raised to negative power')")
                c = const(float(ex))
            out = f"t{len(lines)}"
            lines.append(f"{out} = {b} ** {c}")
        elif t is Func:
            a = emit(e.arg)
            if e.name == "ln":
                lines.append(f"if {a} <= 0.0: raise EvalDomainError("
                             "'ln of non-positive value')")
            elif e.name == "sqrt":
                lines.append(f"if {a} < 0.0: raise EvalDomainError("
                             "'sqrt of negative value')")
            out = f"t{len(lines)}"
            lines.append(f"{out} = {_EVAL_FUNC_IDENT[e.name]}({a})")
        else:
            raise TypeError(f"cannot evaluate {e!r}")
        names[e] = out
        return out

    res = ", ".join([emit(r) for r in roots])
    del emit
    values = ", ".join(dict.fromkeys(names.values()))
    src = "\n".join([
        f"def f(x, y, {''.join(c + ', ' for c in consts.values())}):",
        " try:",
        *["  " + ln for ln in lines or ["pass"]],
        " except OverflowError:",
        "  raise EvalDomainError('float overflow') from None",
        " except ValueError as ex:",
        "  raise EvalDomainError(str(ex)) from None",
        f" T = ({values},)",
        " if not all(map(isfinite, T)):",
        "  raise EvalDomainError('non-finite value')",
        f" return {res}, T",
    ])
    ns = {}
    exec(compile(src, "<compile_float_reference>", "exec"),
         _REFERENCE_GLOBALS, ns)
    f = ns["f"]
    f.__defaults__ = tuple(v for _, v in consts)
    return f


def momentum_poly_reference(p):
    """Float function f(x, y, px, py) of a MomentumPoly p: the sum
    0.0 + c * px^i * py^j over p.coeffs in order, each coefficient c a
    closure_compile closure."""
    terms = tuple((i, j, closure_compile(c)) for (i, j), c in p.coeffs.items())

    def _eval(x, y, px, py):
        s = 0.0
        for i, j, c in terms:
            s += c(x, y) * (px ** i) * (py ** j)
        return s
    return _eval


class _TreeMomentumPoly:
    """A momentum polynomial {(i, j): coefficient tree} whose algebra
    simplifies every coefficient of every result and drops the zero ones:
    MomentumPoly before it combined normal forms."""

    def __init__(self, coeffs):
        self.coeffs = {}
        for k, v in coeffs.items():
            e = simplify(as_expr(v))
            if not nf_is_zero(e):
                self.coeffs[k] = e

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out[k] + v if k in out else v
        return _TreeMomentumPoly(out)

    def __sub__(self, other):
        return self + other.scaled(Rat(-1))

    def __mul__(self, other):
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                t = c1 * c2
                out[k] = out[k] + t if k in out else t
        return _TreeMomentumPoly(out)

    def scaled(self, c):
        return _TreeMomentumPoly({k: c * v for k, v in self.coeffs.items()})

    def d_base(self, var):
        return _TreeMomentumPoly({k: diff(v, var)
                                  for k, v in self.coeffs.items()})

    def d_momentum(self, which):
        out = {}
        for (i, j), c in self.coeffs.items():
            if which == "px" and i > 0:
                out[(i - 1, j)] = Rat(i) * c
            elif which == "py" and j > 0:
                out[(i, j - 1)] = Rat(j) * c
        return _TreeMomentumPoly(out)


def canonical_bracket_reference(f, h):
    """{f, h} of two coefficient dicts {(i, j): Expr} as four pairwise
    sums of _TreeMomentumPoly products; returns the coefficient dict."""
    f, h = _TreeMomentumPoly(f), _TreeMomentumPoly(h)
    out = _TreeMomentumPoly({})
    for (base, mom) in (("x", "px"), ("y", "py")):
        out = out + f.d_base(base) * h.d_momentum(mom)
        out = out - f.d_momentum(mom) * h.d_base(base)
    return out.coeffs


def apply_j_slot3_reference(d, j, slot):
    """J^new_old contracted into one slot of a dense 2x2x2 array: the
    rank-3 copy tensorcoords had before its dense layer took any rank."""
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


def apply_j_slot4_reference(d, j, slot):
    """The former rank-4 copy of apply_j_slot3_reference."""
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


def sym3_reference(d):
    """SymTensor3 averaging a dense 2x2x2 array over its 6 slot orders,
    written out by hand (the former tensorcoords._dense_sym3)."""
    sixth = Rat(1, 6)

    def avg(i, j, k):
        s = (d[i][j][k] + d[i][k][j] + d[j][i][k]
             + d[j][k][i] + d[k][i][j] + d[k][j][i])
        return simplify(sixth * s)

    return SymTensor3((avg(0, 0, 0), avg(0, 0, 1), avg(0, 1, 1), avg(1, 1, 1)))


def sym4_reference(d4):
    """SymTensor4 averaging a dense 4-array over its 24 slot orders (the
    former tensorcoords._avgsym4)."""
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


def apply_j_slot_reference(d, j, slot: int, rank: int):
    """Contract J^new_old into one contravariant slot of a dense array:
    tensorcoords._apply_j_slot as it was when it built a tree per entry."""
    def entry(idx):
        s = as_expr(0)
        for m in range(2):
            src = idx[:slot] + (m,) + idx[slot + 1:]
            s = s + j[idx[slot]][m] * _at(d, src)
        return s
    return _dense(rank, entry)


def symmetrize_reference(d, cls):
    """The cls tensor whose component n averages a dense array over every
    slot order of the index pattern with n ones: tensorcoords._symmetrize
    as it was when it summed all rank! slot orders as one tree."""
    rank = cls.rank
    w = Rat(1, math.factorial(rank))
    comps = []
    for n in range(rank + 1):
        s = as_expr(0)
        for idx in itertools.permutations((0,) * (rank - n) + (1,) * n):
            s = s + _at(d, idx)
        comps.append(simplify(w * s))
    return cls(comps)


def split_AB_reference(metric, f):
    """tensorcoords.split_AB as it was on trees: three double J
    contractions, their 6 slot orders each, and a simplify per component."""
    j = complex_structure(metric)
    d = f.dense()
    t01, t02, t12 = (apply_j_slot_reference(
        apply_j_slot_reference(d, j, s1, 3), j, s2, 3)
        for (s1, s2) in ((0, 1), (0, 2), (1, 2)))
    quarter = Rat(1, 4)
    a_hat = symmetrize_reference(_dense(3, lambda i: quarter * (
        _at(d, i) - (_at(t01, i) + _at(t02, i) + _at(t12, i)))), SymTensor3)
    return a_hat, f - a_hat


def imag_part_reference(metric, a_hat):
    """tensorcoords.imag_part as it was on trees."""
    j = complex_structure(metric)
    d = a_hat.dense()
    t0, t1, t2 = (apply_j_slot_reference(d, j, slot, 3) for slot in range(3))
    third = Rat(1, 3)
    return symmetrize_reference(_dense(3, lambda i: third * (
        _at(t0, i) + _at(t1, i) + _at(t2, i))), SymTensor3)


def holo_residual_reference(metric, a_hat):
    """tensorcoords.holo_residual as it was on trees: the raised array as
    trees, four J contractions of trees and 24 slot orders per component."""
    nt = cov_deriv3(metric, a_hat)
    i11, i12, i22 = (to_nf(c) for c in metric.inv)
    ginv = ((i11, i12), (i12, i22))
    built = {}

    def raised(ijkl):
        # the derivative index raised: T^{ijk;l} = g^{lm} nabla_m T^{ijk},
        # symmetric in ijk like nt
        key = (sum(ijkl[:3]), ijkl[3])
        if key not in built:
            built[key] = nf_to_expr(nf_sum([
                nf_mul(ginv[ijkl[3]][m], to_nf(_at(nt, (m,) + ijkl[:3])))
                for m in range(2)]))
        return built[key]
    up = _dense(4, raised)
    jmat = complex_structure(metric)
    jd = up
    for slot in range(4):
        jd = apply_j_slot_reference(jd, jmat, slot, 4)
    return symmetrize_reference(
        _dense(4, lambda i: _at(up, i) + _at(jd, i)), SymTensor4)


def nf_add_reference(a, b):
    """a + b: the kernel's former sum of two normal forms, folded pairwise
    over a sum's terms."""
    if a.is_zero():
        return b
    if b.is_zero():
        return a
    da, db = dict(a.den), dict(b.den)
    lcm = dict(da)
    for bb, e in db.items():
        if lcm.get(bb, 0) < e:
            lcm[bb] = e
    ma = [(bb, e - da.get(bb, 0)) for bb, e in lcm.items() if e - da.get(bb, 0) > 0]
    mb = [(bb, e - db.get(bb, 0)) for bb, e in lcm.items() if e - db.get(bb, 0) > 0]
    _, mam = _m_build(ma)
    _, mbm = _m_build(mb)
    ca, cb = a.content, b.content
    g = math.gcd(ca.numerator, cb.numerator)
    l = math.lcm(ca.denominator, cb.denominator)
    sa = ca.numerator // g * (l // ca.denominator)
    sb = cb.numerator // g * (l // cb.denominator)
    num = _p_mul_mono(a.num, mam, sa)
    _p_add_into(num, _p_mul_mono(b.num, mbm, sb))
    den = tuple(sorted(lcm.items(), key=lambda p: _skey(p[0])))
    return _mk_nf(Fraction(g, l), num, den)


def nf_diff_reference(a, var):
    """d(a)/d(var): the kernel's former quotient rule,
    (N/D)' = (N' - N*D'/D)/D with D'/D = sum e_i b_i'/b_i, every step its
    own normal form."""
    if a.is_zero():
        return _NF_ZERO
    dnum = nf_scale(p_diff_reference(a.num, var), a.content)
    if not a.den:
        return dnum
    dlog = _NF_ZERO
    for (b, e) in a.den:
        db = _dbase_reference(b, var)
        if db.is_zero():
            continue
        binv = nf_recip(_atom_nf(b))
        dlog = nf_add_reference(dlog, nf_scale(nf_mul(db, binv), Fraction(e)))
    n_nf = NF(a.content, a.num, ())
    total = nf_add_reference(dnum, nf_neg(nf_mul(n_nf, dlog)))
    return nf_mul(total, nf_recip(NF(_UNIT, {_m_build(a.den)[1]: 1}, ())))


def p_diff_reference(p, var):
    """d(p)/d(var) for a polynomial p: the kernel's former sum with one
    pairwise add per (monomial, base)."""
    out = _NF_ZERO
    for m, c in p.items():
        m = unpack(m)
        for i, (b, e) in enumerate(m):
            db = _dbase_reference(b, var)
            if db.is_zero():
                continue
            rest = list(m[:i]) + list(m[i + 1:]) + [(b, e - 1)]
            cm, rm = _m_build(rest)
            k = c * e * cm
            term = NF(abs(k), {rm: 1 if k > 0 else -1}, ())
            out = nf_add_reference(out, nf_mul(term, db))
    return out


def _dbase_reference(b, var):
    if isinstance(b, Var):
        return _NF_ONE if b.name == var else _NF_ZERO
    if isinstance(b, Const) or not isinstance(b, (Func, _PolyBase)):
        return _NF_ZERO
    if isinstance(b, _PolyBase):
        return nf_diff_reference(NF(*_pb_prim(b), ()), var)
    darg = nf_diff_reference(to_nf(b.arg), var)
    if darg.is_zero():
        return _NF_ZERO
    return nf_mul(_func_outer_deriv(b), darg)


def cov_deriv3_reference(metric, t):
    """nabla_l T^{ijk} with every one of its 16 entries built and
    simplified on its own: tensorcoords.cov_deriv3 as it was before it
    shared the entries that symmetry makes equal."""
    gam = christoffel(metric)
    d = t.dense()
    vs = ("x", "y")
    out = [[[[None, None] for _ in range(2)] for _ in range(2)]
            for _ in range(2)]
    for l, i, j, k in itertools.product(range(2), repeat=4):
        s = diff(d[i][j][k], vs[l])
        for m in range(2):
            s = (s + gam[(i, l, m)] * d[m][j][k]
                 + gam[(j, l, m)] * d[i][m][k]
                 + gam[(k, l, m)] * d[i][j][m])
        out[l][i][j][k] = simplify(s)
    return out


_HALF = Fraction(1, 2)


class InvariantChainReference:
    """The invariant chain phi0..phi3, D0..D3, phi*1..phi*3 and D*1..D*3
    of a (Metric, Codifferential) pair as geometry, cnum and invariants
    computed it before they carried normal forms: every operator builds
    an expression tree from its operands' trees and simplifies it.  The
    metric's inputs (components, lambda, kind, signature) are read from
    the Metric; everything derived from them is computed here again.
    Tensor divergences of the general lane come from tensorcoords, which
    did not change."""

    def __init__(self, metric, codiff):
        self.metric, self.codiff = metric, codiff
        m = metric
        self.det = simplify(m.g11 * m.g22 - m.g12 * m.g12)
        if m.kind == "iso":
            self.mu = m.lam
            i11 = simplify(Rat(1) / m.lam)
            self.inv = (i11, Rat(0), i11)
        elif m.kind == "null":
            self.mu = simplify(_HALF * m.lam)
            self.inv = (Rat(0), simplify(Rat(2) / m.lam), Rat(0))
        else:
            self.mu = simplify(Func("sqrt", simplify(Rat(m.signature)
                                                     * self.det)))
            # 1/det as (1/mu)^2, as the general lane builds it
            d = self.mu * self.mu
            self.inv = (simplify(m.g22 / d), simplify(-m.g12 / d),
                        simplify(m.g11 / d))
        if m.lam is not None:
            u = self.log_lam = simplify(Func("ln", m.lam))
            self.u_x = simplify(diff(u, "x"))
            self.u_y = simplify(diff(u, "y"))
            self.u_z = self.wirtinger(CExpr.from_real(u), False).simplified()
            self.u_zbar = self.wirtinger(CExpr.from_real(u), True).simplified()
        self.memo = {}

    # -- cnum and geometry ---------------------------------------------
    @staticmethod
    def wirtinger(c, bar):
        fx = CExpr(diff(c.re, "x"), diff(c.im, "x"))
        fy = CExpr(diff(c.re, "y"), diff(c.im, "y"))
        if bar:
            return CExpr(simplify(_HALF * (fx.re - fy.im)),
                         simplify(_HALF * (fx.im + fy.re)))
        return CExpr(simplify(_HALF * (fx.re + fy.im)),
                     simplify(_HALF * (fx.im - fy.re)))

    def curvature(self):
        m = self.metric
        if m.kind == "iso":
            u = self.log_lam
            flat_lap = diff(diff(u, "x"), "x") + diff(diff(u, "y"), "y")
            return simplify(-_HALF * flat_lap / m.lam)
        if m.kind == "null":
            return simplify(diff(diff(self.log_lam, "x"), "y") / m.lam)
        g = ((m.g11, m.g12), (m.g12, m.g22))
        i11, i12, i22 = self.inv
        ginv = ((i11, i12), (i12, i22))
        vs = ("x", "y")
        dg = {(i, j, k): diff(g[i][j], vs[k])
              for i, j, k in itertools.product(range(2), repeat=3)}
        gam = {}
        for i, j, k in itertools.product(range(2), repeat=3):
            s = as_expr(0)
            for l in range(2):
                s = s + ginv[i][l] * (dg[(l, j, k)] + dg[(l, k, j)]
                                      - dg[(j, k, l)])
            gam[(i, j, k)] = simplify(_HALF * s)

        def riem_up(i, j, k, l):
            s = diff(gam[(i, l, j)], vs[k]) - diff(gam[(i, k, j)], vs[l])
            for n in range(2):
                s = (s + gam[(i, k, n)] * gam[(n, l, j)]
                     - gam[(i, l, n)] * gam[(n, k, j)])
            return s

        r1212 = m.g11 * riem_up(0, 1, 0, 1) + m.g12 * riem_up(1, 1, 0, 1)
        return simplify(r1212 / (self.mu * self.mu))

    def grad_pairing(self, f, h):
        i11, i12, i22 = self.inv
        fx, fy = diff(f, "x"), diff(f, "y")
        hx, hy = diff(h, "x"), diff(h, "y")
        return simplify(i11 * fx * hx + i12 * (fx * hy + fy * hx)
                        + i22 * fy * hy)

    def grad_half_square(self, f):
        return simplify(_HALF * self.grad_pairing(f, f))

    def poisson(self, f, h):
        fx, fy = diff(f, "x"), diff(f, "y")
        hx, hy = diff(h, "x"), diff(h, "y")
        return simplify((fx * hy - fy * hx) / self.mu)

    def laplacian(self, f):
        i11, i12, i22 = self.inv
        mu = self.mu
        fx, fy = diff(f, "x"), diff(f, "y")
        flux_x = simplify(mu * (i11 * fx + i12 * fy))
        flux_y = simplify(mu * (i12 * fx + i22 * fy))
        return simplify((diff(flux_x, "x") + diff(flux_y, "y")) / mu)

    def nabla(self, v, p, first):
        """The weighted derivative of a section value v of weight p in
        the direction it names (see geometry.nabla10 and nabla01)."""
        if self.metric.kind == "iso":
            du = self.u_z if first else self.u_zbar
            w = self.wirtinger(v, not first) - CExpr.from_real(Rat(p)) * du * v
            return w.simplified()
        du = self.u_x if first else self.u_y
        return simplify(diff(v, "x" if first else "y") - Rat(p) * du * v)

    # -- invariants ----------------------------------------------------
    def get(self, key, build):
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def az(self):
        return self.get("az", lambda: self.nabla(self.codiff.a * Rat(2), -3,
                                                 True))

    def null_parts(self):
        c = self.codiff
        return self.get("null", lambda: (self.nabla(c.a1, -3, True),
                                         self.nabla(c.a2, -3, False)))

    def w_tensor(self):
        return self.get("w", lambda: div3(self.metric, self.codiff.a_hat))

    def pair_drop(self, dee, f):
        lead = self.grad_pairing(dee, f)
        c = self.codiff
        if c.variant == "iso":
            fz = self.wirtinger(CExpr(f, as_expr(0)), False)
            term = (self.az() * fz * fz).re
            return simplify(lead - Rat(4) * term)
        if c.variant == "null":
            a1x, a2y = self.null_parts()
            term = a1x * diff(f, "x") ** 2 + a2y * diff(f, "y") ** 2
            return simplify(lead - Rat(2) * term)
        w = self.w_tensor()
        grads = (diff(f, "x"), diff(f, "y"))
        term = as_expr(0)
        for i in range(2):
            for j in range(2):
                term = term + w[i][j] * grads[i] * grads[j]
        return simplify(lead - Rat(4) * term)

    def dee0(self):
        c = self.codiff
        if c.variant == "iso":
            azzz = self.nabla(self.nabla(self.az(), -2, True), -1, True)
            return simplify(Rat(4) * azzz.re)
        if c.variant == "null":
            a1x, a2y = self.null_parts()
            a1xxx = self.nabla(self.nabla(a1x, -2, True), -1, True)
            a2yyy = self.nabla(self.nabla(a2y, -2, False), -1, False)
            return simplify(Rat(2) * (a1xxx + a2yyy))
        v = div2(self.metric, self.w_tensor())
        return simplify(Rat(4) * div1(self.metric, v))

    def deestar1(self, phi0, dee0):
        c = self.codiff
        lead = self.laplacian(dee0)
        if c.variant == "iso":
            rz = self.wirtinger(CExpr(phi0, as_expr(0)), False)
            w = self.nabla(self.az() * rz, -1, True)
            return simplify(lead - Rat(2) * w.re)
        if c.variant == "null":
            a1x, a2y = self.null_parts()
            p1 = simplify(a1x * diff(phi0, "x"))
            p2 = simplify(a2y * diff(phi0, "y"))
            return simplify(lead - self.nabla(p1, -1, True)
                            - self.nabla(p2, -1, False))
        w2 = self.w_tensor()
        v = tuple(simplify(w2[j][0] * diff(phi0, "x")
                           + w2[j][1] * diff(phi0, "y")) for j in range(2))
        return simplify(lead - Rat(2) * div1(self.metric, v))

    def invariants(self):
        """{name: tree} under the InvariantEngine property names."""
        out = {}
        phi0 = out["phi0"] = self.curvature()
        phi1 = out["phi1"] = self.grad_half_square(phi0)
        out["phi2"] = self.poisson(phi0, phi1)
        out["phi3"] = self.grad_half_square(phi1)
        ps1 = out["phistar1"] = self.laplacian(phi0)
        out["phistar2"] = self.poisson(phi0, ps1)
        out["phistar3"] = self.grad_half_square(ps1)
        d0 = out["dee0"] = self.dee0()
        d1 = out["dee1"] = self.pair_drop(d0, phi0)
        out["dee2"] = simplify(self.poisson(d0, phi1) - self.poisson(d1, phi0))
        out["dee3"] = self.pair_drop(d1, phi1)
        ds1 = out["deestar1"] = self.deestar1(phi0, d0)
        out["deestar2"] = simplify(self.poisson(d0, ps1)
                                   - self.poisson(ds1, phi0))
        out["deestar3"] = self.pair_drop(ds1, ps1)
        return out


def gee_det_reference(metric, *rows):
    """G as (1/mu) det[[f_x, f_y, D] per row] for the rows f0, D0, f1, D1,
    f2, D2: expanding along the D column gives the bracket form
    {f0,f1} D2 + {f1,f2} D0 + {f2,f0} D1 term by term."""
    m = [[*_grad(to_nf(f)), to_nf(d)] for f, d in zip(rows[::2], rows[1::2])]
    det = nf_sum([nf_mul(m[0][0], _cross(m[1][1], m[2][2], m[1][2], m[2][1])),
                  nf_neg(nf_mul(m[0][1], _cross(m[1][0], m[2][2],
                                                m[1][2], m[2][0]))),
                  nf_mul(m[0][2], _cross(m[1][0], m[2][1], m[1][1], m[2][0]))])
    return nf_to_expr(nf_mul(det, metric._inv_mu()))
