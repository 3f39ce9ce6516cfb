import gc
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubint.expr import (Box, Rat, eval_at, nf_is_zero, nf_to_expr, parse,
                         simplify, to_nf, to_str)
from cubint.cnum import CExpr, is_holomorphic, parse_complex
from cubint.geometry import (Section, complex_structure, gauss_curvature,
                             general_metric, isothermal_metric, nabla01,
                             nabla10)
from cubint.verify import MomentumPoly, bracket_FH
from cubint.tensorcoords import (SymTensor3, SymTensor4, a_hat_from_complex,
                                 cov_deriv3, div1, div2, div3, holo_residual,
                                 imag_part, principle_residual, split_AB,
                                 sym3_from_momentum_poly)
from cubint.tensorcoords import _apply_j_slot, _at, _dense, _symmetrize
from oracles import (apply_j_slot3_reference, apply_j_slot4_reference,
                     cov_deriv3_reference, holo_residual_reference,
                     imag_part_reference, split_AB_reference, sym3_reference,
                     sym4_reference)

BOX = Box(-0.9, 0.9, -0.9, 0.9)


def rand_tensor(rng, affine=True):
    """Random SymTensor3 with small affine-polynomial components."""
    def comp():
        e = Rat(rng.randint(-3, 3))
        if affine:
            e = e + Rat(rng.randint(-2, 2)) * parse("x") \
                  + Rat(rng.randint(-2, 2)) * parse("y")
        return simplify(e)
    return SymTensor3((comp(), comp(), comp(), comp()))


# --------------------------------------------------------------------------
# component bookkeeping

def test_symtensor3_sorted_index_lookup():
    t = SymTensor3((parse("1"), parse("2"), parse("3"), parse("4")))
    assert to_str(t[(0, 0, 0)]) == "1"
    assert to_str(t[(0, 1, 0)]) == "2"
    assert to_str(t[(1, 0, 1)]) == "3"
    assert to_str(t[(1, 1, 1)]) == "4"
    d = t.dense()
    assert to_str(d[1][0][1]) == "3"
    assert to_str(d[0][1][1]) == "3"
    with pytest.raises(ValueError):
        t[(0, 1)]


def test_symtensor4_index_lookup():
    t = SymTensor4((parse("1"), parse("2"), parse("3"), parse("4"), parse("5")))
    assert to_str(t[(1, 0, 1, 0)]) == "3"
    assert to_str(t[(0, 0, 1, 1)]) == "3"
    assert to_str(t[(1, 1, 1, 0)]) == "4"
    assert (t - t).is_trivial()
    assert t + t == SymTensor4((2, 4, 6, 8, 10))


def test_symtensor4_any_slot_order_same_component():
    t = SymTensor4((parse("1"), parse("2"), parse("3"), parse("4"), parse("5")))
    d = t.dense()
    for idx in itertools.product(range(2), repeat=4):
        for perm in itertools.permutations(idx):
            assert t[perm] == t[tuple(sorted(idx))]
        assert _at(d, idx) == t[idx]


@pytest.mark.parametrize("idx", [(), (1,), (0, 1), (0, 0, 1), (0, 0, 1, 1, 1)])
def test_symtensor4_wrong_number_of_indices_raises(idx):
    t = SymTensor4((parse("1"), parse("2"), parse("3"), parse("4"), parse("5")))
    with pytest.raises(ValueError):
        t[idx]


# --------------------------------------------------------------------------
# the rank-generic dense layer against the hand-written rank-3/4 copies

SMALL_POLY = st.tuples(*(st.integers(-3, 3) for _ in range(3))).map(
    lambda c: simplify(Rat(c[0]) + Rat(c[1]) * parse("x")
                       + Rat(c[2]) * parse("x*y")))


@pytest.mark.parametrize("rank", [3, 4])
@settings(max_examples=15, deadline=None)
@given(entries=st.lists(SMALL_POLY, min_size=16, max_size=16),
       jm=st.lists(SMALL_POLY, min_size=4, max_size=4))
def test_dense_layer_matches_references(rank, entries, jm):
    # the layer takes and returns normal forms; the references take trees
    def entry(idx):
        return entries[sum(b << k for k, b in enumerate(idx))]
    d = _dense(rank, entry)
    d_nf = _dense(rank, lambda idx: to_nf(entry(idx)))
    j = ((jm[0], jm[1]), (jm[2], jm[3]))
    j_nf = [[to_nf(v) for v in row] for row in j]
    apply_ref, sym_ref, cls = {
        3: (apply_j_slot3_reference, sym3_reference, SymTensor3),
        4: (apply_j_slot4_reference, sym4_reference, SymTensor4)}[rank]
    for slot in range(rank):
        got = _apply_j_slot(d_nf, j_nf, slot, rank)
        want = apply_ref(d, j, slot)
        for idx in itertools.product(range(2), repeat=rank):
            assert nf_to_expr(_at(got, idx)) == simplify(_at(want, idx))
    assert cls(map(nf_to_expr, _symmetrize(rank, d_nf))).c == sym_ref(d).c


def test_dense_layer_leaves_no_reference_cycle():
    # a cycle would keep the entries alive until the cyclic collector runs
    gc.disable()
    try:
        gc.collect()
        d = _dense(4, lambda idx: to_nf(parse("x") * sum(idx)))
        j = [[to_nf(Rat(0)), to_nf(Rat(1))], [to_nf(Rat(-1)), to_nf(Rat(0))]]
        _symmetrize(4, _apply_j_slot(d, j, 2, 4))
        assert gc.collect() == 0
    finally:
        gc.enable()


# metrics of the general lane: conformal ones, whose J is rational, and one
# that is not conformal, whose J carries the radical sqrt(det)
GENERAL_METRICS = (("1 + x^2", "0", "1 + x^2"),
                   ("2 + x*y", "0", "2 + x*y"),
                   ("1 + x^2", "x*y/3", "2 + y^2"))
SMALL_TENSOR = st.lists(st.tuples(*(st.integers(-2, 2) for _ in range(3))),
                        min_size=4, max_size=4).map(lambda cs: SymTensor3(
                            Rat(a) + Rat(b) * parse("x") + Rat(c) * parse("y^2")
                            for a, b, c in cs))


@settings(max_examples=12, deadline=None)
@given(g=st.sampled_from(GENERAL_METRICS), f=SMALL_TENSOR)
def test_normal_form_tensors_match_tree_references(g, f):
    m = general_metric(*g)
    a_hat, b_hat = split_AB(m, f)
    want_a, want_b = split_AB_reference(m, f)
    assert a_hat.c == want_a.c
    assert b_hat.c == want_b.c
    assert imag_part(m, f).c == imag_part_reference(m, f).c
    assert holo_residual(m, f).c == holo_residual_reference(m, f).c


def test_momentum_poly_of_tensor():
    t = SymTensor3((parse("x"), parse("y"), parse("0"), parse("2")))
    p = t.to_momentum_poly()
    assert to_str(p.coeffs[(3, 0)]) == "x"
    assert to_str(p.coeffs[(2, 1)]) == "3*y"
    assert (1, 2) not in p.coeffs
    assert to_str(p.coeffs[(0, 3)]) == "2"


def test_sym3_from_momentum_poly_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        sym3_from_momentum_poly(MomentumPoly({(3, 0): parse("1"),
                                              (1, 0): parse("1")}))


@settings(max_examples=40, deadline=None)
@given(st.tuples(*(st.fractions(min_value=-5, max_value=5,
                                max_denominator=6) for _ in range(4))))
def test_momentum_round_trip(fracs):
    t = SymTensor3(tuple(Rat(f.numerator, f.denominator) for f in fracs))
    back = sym3_from_momentum_poly(t.to_momentum_poly())
    assert (back - t).is_trivial()


# --------------------------------------------------------------------------
# the A/B split

def test_split_py_cubed_matches_complex_dictionary():
    # F = py^3 corresponds to the complex coefficient a = -i
    m = isothermal_metric("1")
    f = sym3_from_momentum_poly(MomentumPoly({(0, 3): parse("1")}))
    a_hat, b_hat = split_AB(m, f)
    assert a_hat == a_hat_from_complex(parse_complex("0", "-1"))
    assert (a_hat + b_hat - f).is_trivial()


def test_split_pure_type_is_fixed():
    m = isothermal_metric("1 + x^2")
    a_hat = a_hat_from_complex(parse_complex("1", "0"))
    out_a, out_b = split_AB(m, a_hat)
    assert (out_a - a_hat).is_trivial()
    assert out_b.is_trivial()


def test_split_identity_and_idempotence_isothermal():
    m = isothermal_metric("1 + x^2 + y^2/2")
    rng = random.Random(90210)
    for _ in range(20):
        f = rand_tensor(rng)
        a_hat, b_hat = split_AB(m, f)
        assert (a_hat + b_hat - f).is_trivial()
        a2, b2 = split_AB(m, a_hat)
        assert (a2 - a_hat).is_trivial()
        assert b2.is_trivial()
        a3, b3 = split_AB(m, b_hat)
        assert a3.is_trivial()
        assert (b3 - b_hat).is_trivial()


def test_split_identity_general_chart_with_radical_volume():
    # det is not a perfect square here, so J carries a genuine radical;
    # the projector algebra must still collapse exactly
    m = general_metric("1 + x^2", "0", "2 + y^2")
    rng = random.Random(777)
    for _ in range(3):
        f = rand_tensor(rng)
        a_hat, b_hat = split_AB(m, f)
        assert (a_hat + b_hat - f).is_trivial()
        a2, b2 = split_AB(m, a_hat)
        assert (a2 - a_hat).is_trivial()
        assert b2.is_trivial()


# --------------------------------------------------------------------------
# multiplication by i through the tensor dictionary

@pytest.mark.parametrize("re,im", [("1", "0"), ("x", "x*y - 2"),
                                   ("x^2 - y^2", "2*x*y")])
def test_imag_part_is_multiplication_by_i(re, im):
    m = isothermal_metric("1 + x^2")
    a = parse_complex(re, im)
    i_a = CExpr(simplify(Rat(-1) * a.im), a.re)
    got = imag_part(m, a_hat_from_complex(a))
    assert (got - a_hat_from_complex(i_a)).is_trivial()


def test_imag_part_twice_negates():
    m = isothermal_metric("2 + y^2")
    a_hat = a_hat_from_complex(parse_complex("x - y", "3"))
    twice = imag_part(m, imag_part(m, a_hat))
    assert (twice + a_hat).is_trivial()


def test_imag_part_of_zero():
    m = isothermal_metric("1")
    z = SymTensor3((parse("0"),) * 4)
    assert imag_part(m, z).is_trivial()


# --------------------------------------------------------------------------
# covariant derivatives and divergences

def test_flat_divergence_chain_is_plain_partials():
    m = isothermal_metric("1")
    t = SymTensor3((parse("x^2*y"), parse("x*y"), parse("y^2"), parse("x")))
    w = div3(m, t)
    assert to_str(w[0][0]) == "x + 2*x*y"
    assert to_str(w[0][1]) == "3*y"
    assert to_str(w[1][1]) == "0"
    v = div2(m, w)
    assert to_str(v[0]) == "4 + 2*y"
    assert to_str(v[1]) == "0"
    assert nf_is_zero(div1(m, v))


def test_cov_deriv3_flat_is_partial():
    m = isothermal_metric("1")
    t = SymTensor3((parse("x^3"), parse("0"), parse("0"), parse("y")))
    nt = cov_deriv3(m, t)
    assert to_str(nt[0][0][0][0]) == "3*x^2"
    assert to_str(nt[1][1][1][1]) == "1"
    assert nf_is_zero(nt[1][0][0][0])


def test_cov_deriv3_builds_each_distinct_entry_once():
    # nabla_l T^{ijk} is symmetric in ijk: 8 distinct entries, each shared
    # by its index orders, and equal to the entry built on its own
    m = general_metric("1 + x^2", "x*y/3", "2 + y^2")
    t = SymTensor3((parse("x*y"), parse("1 + x"), parse("y^2"), parse("2")))
    nt = cov_deriv3(m, t)
    want = cov_deriv3_reference(m, t)
    for l, i, j, k in itertools.product(range(2), repeat=4):
        assert nt[l][i][j][k] is nt[l][j][i][k] is nt[l][i][k][j]
        assert nt[l][i][j][k] == want[l][i][j][k]


def test_divergence_anticommutes_with_J_for_holomorphic_a():
    # (Div A-hat)(J., J.) = -(Div A-hat)(., .) when a is holomorphic
    m = isothermal_metric("1 + x^2 + y^2/2")
    a_hat = a_hat_from_complex(parse_complex("x^2 - y^2", "2*x*y"))  # a = z^2
    w = div3(m, a_hat)
    j = complex_structure(m)
    for a_ in range(2):
        for b_ in range(2):
            rotated = parse("0")
            for mm in range(2):
                for nn in range(2):
                    rotated = rotated + j[a_][mm] * j[b_][nn] * w[mm][nn]
            assert nf_is_zero(simplify(rotated + w[a_][b_]))


# --------------------------------------------------------------------------
# holomorphy residual

@pytest.mark.parametrize("re,im", [
    ("x^2 - y^2", "2*x*y"),                      # z^2
    ("-(3*x^2*y - y^3)", "x^3 - 3*x*y^2"),       # i z^3
])
def test_holo_residual_zero_for_holomorphic(re, im):
    m = isothermal_metric("1 + x^2 + y^2/2")
    assert holo_residual(m, a_hat_from_complex(parse_complex(re, im))).is_trivial()


def test_holo_residual_constant_flat_zero():
    m = isothermal_metric("1")
    assert holo_residual(m, a_hat_from_complex(parse_complex("3", "-2"))).is_trivial()


@pytest.mark.parametrize("re,im", [("x", "-y"), ("x^2 + y^2", "0")])
def test_holo_residual_detects_cr_violation(re, im):
    m = isothermal_metric("1")
    r = holo_residual(m, a_hat_from_complex(parse_complex(re, im)))
    assert not r.is_trivial()
    assert max(abs(eval_at(c, (0.3, 0.4))) for c in r.c) > 0.1


def test_holo_residual_matches_cr_test_on_sphere():
    m = isothermal_metric("4/(1 + x^2 + y^2)^2")
    a = parse_complex("x", "y")  # a = z
    assert is_holomorphic(a, BOX).kind == "zero"
    assert holo_residual(m, a_hat_from_complex(a)).is_trivial()


def test_holo_residual_chart_independent():
    lam = parse("1 + x^2 + y^2/2")
    mi = isothermal_metric(lam)
    mg = general_metric(lam, "0", lam)
    a = parse_complex("x", "-y")  # zbar: residual is nonzero but chart-stable
    ri = holo_residual(mi, a_hat_from_complex(a))
    rg = holo_residual(mg, a_hat_from_complex(a))
    for ci, cg in zip(ri.c, rg.c):
        assert nf_is_zero(simplify(ci - cg))
    assert holo_residual(mg, a_hat_from_complex(
        parse_complex("x^2 - y^2", "2*x*y"))).is_trivial()


# --------------------------------------------------------------------------
# potential-equation residual

def test_principle_residual_trivial_cases():
    m = isothermal_metric("1 + x^2")
    zero_a = SymTensor3((parse("0"),) * 4)
    p = principle_residual(m, parse("7"), zero_a)
    assert all(nf_is_zero(p[i][j]) for i in range(2) for j in range(2))
    # flat chart, constant a, K = 0
    mflat = isothermal_metric("1")
    p2 = principle_residual(mflat, parse("0"),
                            a_hat_from_complex(parse_complex("1", "0")))
    assert all(nf_is_zero(p2[i][j]) for i in range(2) for j in range(2))


def test_principle_residual_vanishes_on_certified_integral():
    # lambda = 1, a = z/2, K = -x*y reconstructs the cubic
    # F = (y/2) px^2 py - (x/2) px py^2, which the canonical bracket certifies
    m = isothermal_metric("1")
    f = MomentumPoly({(2, 1): parse("y/2"), (1, 2): parse("-x/2")})
    assert bracket_FH(m, f).is_trivial()
    a_hat, _ = split_AB(m, sym3_from_momentum_poly(f))
    assert a_hat == a_hat_from_complex(parse_complex("x/2", "y/2"))
    p = principle_residual(m, parse("-x*y"), a_hat)
    assert all(nf_is_zero(p[i][j]) for i in range(2) for j in range(2))


def test_principle_residual_detects_unsolvable_potential():
    # constant a over a curved metric: K = 0 cannot solve the equation
    m = isothermal_metric("1 + x^2")
    p = principle_residual(m, parse("0"),
                           a_hat_from_complex(parse_complex("1", "0")))
    assert any(abs(eval_at(p[i][j], (0.5, 0.2))) > 0.1
               for i in range(2) for j in range(2))


def test_principle_residual_encodes_complex_equation():
    # residual components are exactly (2 Re, 2 Im) of
    # K_{;zbar zbar} + i lam^2 a_{;z} in the isothermal lane
    lam = parse("1 + x^2 + y^2/2")
    m = isothermal_metric(lam)
    k = gauss_curvature(m)
    a = parse_complex("x^2 - y + 1", "x*y - 2")
    s_k = Section(CExpr(k, parse("0")), (0, 0), m)
    kzbzb = nabla01(nabla01(s_k)).value
    az = nabla10(Section(a, (-3, 0), m)).value
    lam2 = simplify(lam * lam)
    r = (kzbzb + CExpr(parse("0"), lam2) * az).simplified()
    p = principle_residual(m, k, a_hat_from_complex(a))
    assert nf_is_zero(simplify(p[0][0] - Rat(2) * r.re))
    assert nf_is_zero(simplify(p[0][1] - Rat(2) * r.im))
    assert nf_is_zero(simplify(p[1][0] - Rat(2) * r.im))
    assert nf_is_zero(simplify(p[1][1] + Rat(2) * r.re))
    # symmetric and trace-free by construction
    assert nf_is_zero(simplify(p[0][0] + p[1][1]))
