import pytest
from hypothesis import given, settings, strategies as st

from cubint.cnum import CExpr, parse_complex
from cubint.expr import (
    Box, Rat, as_expr, diff, eval_at, is_zero, nf_is_zero, nf_mul, nf_neg,
    nf_recip, parse, simplify, to_nf, to_str,
)
from cubint.geometry import (
    ChartMismatch, general_metric, isothermal_metric, null_metric, poisson_g,
)
from cubint.invariants import (
    Codifferential, DegenerateBracket, HolomorphicityViolated,
    InvariantEngine,
)
from cubint.tensorcoords import SymTensor3, a_hat_from_complex
from oracles import (InvariantChainReference, fd_d0_iso, fd_d0_null,
                     gee_det_reference, unpack)

BOX = Box(-1.0, 1.0, -1.0, 1.0)


# fixtures used throughout: a surface with a Killing field (lambda depends
# on x only, codifferential constant), and a generic pair with no symmetry
def killing_engine():
    return InvariantEngine(isothermal_metric("1+x^2"),
                           Codifferential.isothermal(("0", "-1")), BOX)


def generic_engine():
    return InvariantEngine(isothermal_metric("1 + x^2 + y^2/2"),
                           Codifferential.isothermal(("x^2 - y^2", "2*x*y")),
                           BOX)


def phi_chain(metric):
    """phi0..phi3 of the metric, from an engine with a zero codifferential."""
    eng = InvariantEngine(metric, Codifferential.general(
        SymTensor3((as_expr(0),) * 4)))
    return [eng.phi0, eng.phi1, eng.phi2, eng.phi3]


# --------------------------------------------------------------------------
# codifferential encodings

def test_codifferential_factories():
    c = Codifferential.isothermal("x^2")
    assert c.variant == "iso"
    assert to_str(c.a.re) == "x^2" and to_str(c.a.im) == "0"
    c2 = Codifferential.isothermal(("x", "y"))
    assert to_str(c2.a.im) == "y"
    n = Codifferential.null_pair("x^2", "1")
    assert n.variant == "null" and to_str(n.a1) == "x^2"
    g = Codifferential.general(SymTensor3((parse("1"), parse("0"),
                                           parse("0"), parse("0"))))
    assert g.variant == "general"
    with pytest.raises(TypeError):
        Codifferential.general("not a tensor")


def test_codifferential_is_trivial():
    assert Codifferential.isothermal(("0", "0")).is_trivial()
    assert not Codifferential.isothermal(("0", "-1")).is_trivial()
    assert Codifferential.null_pair("0", "x - x").is_trivial()
    assert not Codifferential.null_pair("1", "0").is_trivial()


def test_codifferential_tensor_dictionaries():
    # a = -i encodes py^3: A-hat = (0, -1/4, 0, 1/4)
    c = Codifferential.isothermal(("0", "-1"))
    ah = c.a_hat_for()
    assert ah == a_hat_from_complex(parse_complex("0", "-1"))
    assert to_str(ah.c[1]) == "-1/4" and to_str(ah.c[0]) == "0"
    n = Codifferential.null_pair("x", "y^2")
    nh = n.a_hat_for()
    assert to_str(nh.c[0]) == "x" and to_str(nh.c[3]) == "y^2"
    assert to_str(nh.c[1]) == "0" and to_str(nh.c[2]) == "0"


def test_chart_pairing_is_strict():
    with pytest.raises(ChartMismatch):
        InvariantEngine(null_metric("2+x"), Codifferential.isothermal(("1", "0")))
    with pytest.raises(ChartMismatch):
        InvariantEngine(isothermal_metric("1+x^2"),
                        Codifferential.null_pair("1", "0"))
    # the tensor encoding is chart-free
    InvariantEngine(isothermal_metric("1+x^2"),
                    Codifferential.general(SymTensor3((as_expr(0),) * 4)))


# --------------------------------------------------------------------------
# curvature chain

def test_phi_family_flat():
    phi = phi_chain(isothermal_metric("1"))
    assert all(nf_is_zero(p) for p in phi)


def test_phi_family_sphere_constant_curvature():
    phi = phi_chain(isothermal_metric("4/(1+x^2+y^2)^2"))
    assert nf_is_zero(simplify(phi[0] - Rat(1)))
    assert all(nf_is_zero(p) for p in phi[1:])


def test_phi2_vanishes_with_killing_symmetry():
    # lambda = lambda(x): R and |grad R|^2/2 share level sets, so their
    # bracket is identically zero while neither is constant
    eng = killing_engine()
    assert not nf_is_zero(eng.phi0)
    assert not nf_is_zero(eng.phi1)
    assert nf_is_zero(eng.phi2)


def test_null_normal_form_curvature():
    eng = InvariantEngine(null_metric("1/(y+x^2)^2"),
                          Codifferential.null_pair("1", "1"), BOX)
    assert nf_is_zero(simplify(eng.phi0 - parse("4*x")))
    assert nf_is_zero(eng.phi1)
    assert nf_is_zero(eng.phi2)


# --------------------------------------------------------------------------
# D family against the finite-difference weighted-derivative oracle

def test_d0_iso_matches_fd_oracle():
    eng = generic_engine()
    d0 = eng.dee0
    a = lambda x, y: complex(x * x - y * y, 2 * x * y)
    lam = lambda x, y: 1 + x * x + y * y / 2
    for pt, frozen in (((0.3, 0.7), 32.0877300), ((0.25, -0.4), 29.7126585)):
        got = eval_at(d0, pt)
        want = fd_d0_iso(a, lam, *pt)
        assert got == pytest.approx(want, rel=1e-5)
        assert got == pytest.approx(frozen, rel=1e-5)


def test_d0_null_matches_fd_oracle():
    eng = InvariantEngine(null_metric("2 + x*y"),
                          Codifferential.null_pair("x", "y^2"), BOX)
    d0 = eng.dee0
    a1 = lambda x, y: x
    a2 = lambda x, y: y * y
    lam = lambda x, y: 2 + x * y
    for pt, frozen in (((0.3, 0.7), 3.9501064), ((0.25, -0.4), 3.3525295)):
        got = eval_at(d0, pt)
        want = fd_d0_null(a1, a2, lam, *pt)
        assert got == pytest.approx(want, rel=1e-5)
        assert got == pytest.approx(frozen, rel=1e-5)


def test_d0_killing_fixture_vanishes_identically():
    # lambda = 1+x^2, a = -i: the triple weighted derivative is purely
    # imaginary, so its real part is zero on the nose
    assert nf_is_zero(killing_engine().dee0)


@given(st.tuples(*[st.integers(-3, 3) for _ in range(8)]))
@settings(max_examples=15, deadline=None)
def test_d0_flat_picks_out_cubic_coefficient(cs):
    # flat metric: weighted derivatives reduce to plain d/dz, so for a
    # polynomial a = sum c_k z^k only the z^3 coefficient survives and
    # D0 = 4 Re (2 a)_zzz = 48 Re c3
    zc = CExpr(parse("x"), parse("y"))
    acc = CExpr(as_expr(0), as_expr(0))
    power = CExpr(as_expr(1), as_expr(0))
    for k in range(4):
        ck = CExpr(Rat(cs[2 * k]), Rat(cs[2 * k + 1]))
        acc = acc + ck * power
        power = power * zc
    eng = InvariantEngine(isothermal_metric("1"),
                          Codifferential.isothermal(acc), BOX)
    assert nf_is_zero(simplify(eng.dee0 - Rat(48 * cs[6])))


def test_d_family_trivial_when_codifferential_vanishes():
    engines = (
        InvariantEngine(isothermal_metric("4/(1+x^2+y^2)^2"),
                        Codifferential.isothermal(("0", "0")), BOX),
        InvariantEngine(null_metric("2 + x*y"),
                        Codifferential.null_pair("0", "0"), BOX),
        InvariantEngine(general_metric("1+x^2", "x*y/4", "2+y^2"),
                        Codifferential.general(SymTensor3((as_expr(0),) * 4)),
                        BOX),
    )
    for eng in engines:
        for d in (eng.dee0, eng.dee1, eng.dee2, eng.dee3,
                  eng.deestar1, eng.deestar2, eng.deestar3):
            assert nf_is_zero(d)


def test_d2_respects_bracket_antisymmetry():
    eng = generic_engine()
    other = simplify(poisson_g(eng.metric, eng.dee0, eng.phi1)
                     + poisson_g(eng.metric, eng.phi0, eng.dee1))
    assert is_zero(simplify(eng.dee2 - other), BOX).is_zero


# --------------------------------------------------------------------------
# G combinations: bracket form vs determinant form

# the rows (f, D) of each G's determinant form
_GEE_ROWS = {
    "gee0": ("phi1", "dee1", "phi2", "dee2", "phi3", "dee3"),
    "gee1": ("phi0", "dee0", "phi2", "dee2", "phi3", "dee3"),
    "gee2": ("phi0", "dee0", "phi1", "dee1", "phi3", "dee3"),
    "gee3": ("phi0", "dee0", "phi1", "dee1", "phi2", "dee2"),
    "geestar2": ("phi0", "dee0", "phistar1", "deestar1", "phistar3",
                 "deestar3"),
    "geestar3": ("phi0", "dee0", "phistar1", "deestar1", "phistar2",
                 "deestar2"),
}


def test_gee_det_forms_match_bracket_forms():
    # one pair in each lane; every G is nonzero, so that each term of
    # the bracket form counts.  The general lane builds 1/det as (1/mu)^2,
    # so its denominators are lambda's powers as in the other lanes, and
    # the two forms have equal NF fields there too
    lam, a = "1 + x^2 + y^2/2", ("x^2 - y^2", "2*x*y")
    engines = (
        generic_engine(),
        InvariantEngine(null_metric(lam),
                        Codifferential.null_pair("x^2", "y"), BOX),
        InvariantEngine(general_metric(lam, "0", lam), Codifferential.general(
            a_hat_from_complex(parse_complex(*a))), BOX),
    )
    for eng in engines:
        for name, rows in _GEE_ROWS.items():
            got = getattr(eng, name)
            want = gee_det_reference(eng.metric,
                                     *(getattr(eng, r) for r in rows))
            assert not nf_is_zero(got), (eng.metric.kind, name)
            assert nf_is_zero(simplify(got - want)), (eng.metric.kind, name)
            g, w = to_nf(got), to_nf(want)
            assert (g.content, g.num, g.den) == (w.content, w.num, w.den), \
                (eng.metric.kind, name)


def test_gee_builds_no_phi_that_only_vanishing_terms_read():
    # with a zero codifferential every D vanishes identically, so no term
    # of G2 or G*2 survives, and phi3 and phi*3 are never built
    eng = InvariantEngine(isothermal_metric("1 + x^2 + y^2/2"),
                          Codifferential.isothermal(("0", "0")), BOX)
    assert nf_is_zero(eng.gee2) and nf_is_zero(eng.geestar2)
    assert "phi3" not in eng._memo and "phistar3" not in eng._memo
    assert not nf_is_zero(eng.phi3)


def test_killing_fixture_obstructions_vanish():
    # the compatible surface-with-symmetry pair: every obstruction the
    # degenerate branch consults is identically zero
    eng = killing_engine()
    for e in (eng.gee2, eng.gee3, eng.geestar2, eng.geestar3,
              eng.dform_x, eng.dform_y, eng.dformstar_x, eng.dformstar_y):
        assert nf_is_zero(e)


# --------------------------------------------------------------------------
# K covector, b field, candidate tensor

def test_kay_division_round_trip():
    eng = generic_engine()
    k1, k2 = eng.kay
    for kc, var in ((k1, "x"), (k2, "y")):
        num = simplify(diff(eng.phi0, var) * eng.dee1
                       - eng.dee0 * diff(eng.phi1, var))
        assert nf_is_zero(simplify(kc * eng.phi2 - num))


def test_kay_raises_on_degenerate_bracket():
    eng = killing_engine()
    with pytest.raises(DegenerateBracket):
        eng.kay
    rep = eng.report()
    assert rep.kay is None
    assert rep.star["Kstar"] is None


def test_kay_covector_wrapper_raises_when_degenerate():
    # with the phi- and D-families already in hand, K is still refused on
    # a degenerate bracket, and so is the candidate F that defaults to it
    eng = killing_engine()
    for name in ("phi0", "phi1", "phi2", "dee0", "dee1"):
        getattr(eng, name)
    with pytest.raises(DegenerateBracket):
        eng.kay
    with pytest.raises(DegenerateBracket):
        eng.f_tensor()


def test_b_hat_matches_complex_b_dictionary():
    # the tensor B-hat assembled from K via the index formula must agree
    # with the complex field b = (K2 - i K1)/lambda^2 pushed through the
    # momentum dictionary Re(b p^2 pbar) -> (br/8, bi/24, br/24, bi/8)
    eng = generic_engine()
    bh = eng.b_hat(eng.kay)
    b = eng.b_field()
    assert nf_is_zero(simplify(bh.c[0] - b.re * Rat(1, 8)))
    assert nf_is_zero(simplify(bh.c[1] - b.im * Rat(1, 24)))
    assert nf_is_zero(simplify(bh.c[2] - b.re * Rat(1, 24)))
    assert nf_is_zero(simplify(bh.c[3] - b.im * Rat(1, 8)))


def test_b_field_divides_by_the_square_of_lambdas_base():
    # 1/lambda^2 is built as (1/lambda)^2: the only denominator base that b
    # adds to K's is lambda's, never lambda^2 expanded as a base of its own;
    # b = (K2 - i K1)/lambda^2
    eng = generic_engine()
    lam = to_nf(eng.metric.lam)
    (lam_base, _), = nf_recip(lam).den
    k1, k2 = eng.kay
    b = eng.b_field()
    for k, part in ((to_nf(k2), to_nf(b.re)),
                    (nf_neg(to_nf(k1)), to_nf(b.im))):
        bases = {pb for pb, _ in part.den}
        assert lam_base in bases
        assert bases <= {pb for pb, _ in k.den} | {lam_base}
        back = nf_mul(part, nf_mul(lam, lam))
        assert (back.content, back.num, back.den) == (k.content, k.num, k.den)


def test_f_tensor_is_a_hat_plus_b_hat():
    eng = generic_engine()
    f = eng.f_tensor()
    ah = eng.codiff.a_hat_for()
    bh = eng.b_hat(eng.kay)
    for i in range(4):
        assert nf_is_zero(simplify(f.c[i] - ah.c[i] - bh.c[i]))


# --------------------------------------------------------------------------
# holomorphicity gate

def test_holomorphicity_violation_iso():
    eng = InvariantEngine(isothermal_metric("1+x^2"),
                          Codifferential.isothermal(("x", "-y")), BOX)
    with pytest.raises(HolomorphicityViolated):
        eng.dee0


def test_holomorphicity_violation_null():
    eng = InvariantEngine(null_metric("2+x*y"),
                          Codifferential.null_pair("y", "1"), BOX)
    with pytest.raises(HolomorphicityViolated):
        eng.dee0


def test_holomorphicity_violation_general():
    ah = a_hat_from_complex(parse_complex("x", "-y"))
    eng = InvariantEngine(isothermal_metric("1+x^2"),
                          Codifferential.general(ah), BOX)
    with pytest.raises(HolomorphicityViolated):
        eng.deestar1


def test_holomorphic_inputs_pass_the_gate():
    generic_engine().check_holomorphic()
    killing_engine().check_holomorphic()


# --------------------------------------------------------------------------
# chart consistency: complex route vs index route on the same surface

def _route_pair(lam_text, re_text, im_text):
    iso = InvariantEngine(isothermal_metric(lam_text),
                          Codifferential.isothermal((re_text, im_text)), BOX)
    gen = InvariantEngine(
        general_metric(lam_text, "0", lam_text),
        Codifferential.general(a_hat_from_complex(parse_complex(re_text,
                                                                im_text))),
        BOX)
    return iso, gen


def test_routes_agree_killing_fixture():
    iso, gen = _route_pair("1+x^2", "0", "-1")
    for a, b in ((iso.phi0, gen.phi0), (iso.phi1, gen.phi1),
                 (iso.phi2, gen.phi2), (iso.phistar1, gen.phistar1),
                 (iso.dee0, gen.dee0), (iso.dee1, gen.dee1),
                 (iso.deestar1, gen.deestar1)):
        assert is_zero(simplify(a - b), BOX).is_zero


def test_routes_agree_generic_fixture():
    iso, gen = _route_pair("1 + x^2 + y^2/2", "x^2 - y^2", "2*x*y")
    for a, b in ((iso.phi0, gen.phi0), (iso.phi1, gen.phi1),
                 (iso.phi2, gen.phi2), (iso.phi3, gen.phi3),
                 (iso.phistar1, gen.phistar1),
                 (iso.dee0, gen.dee0), (iso.dee1, gen.dee1),
                 (iso.deestar1, gen.deestar1)):
        # exact, with no term budget: some differences exceed is_zero's
        assert nf_is_zero(a - b)


# --------------------------------------------------------------------------
# report assembly and functional wrappers

def test_report_structure_and_tags():
    rep = generic_engine().report()
    assert len(rep.phi) == 4 and len(rep.dee) == 4 and len(rep.gee) == 4
    assert rep.kay is not None
    assert set(rep.star) == {"phistar1", "phistar2", "phistar3",
                             "Dstar1", "Dstar2", "Dstar3",
                             "Gstar2", "Gstar3", "Kstar"}
    assert set(rep.dforms) == {"Dx", "Dy", "Dstarx", "Dstary"}
    for key in ("phi0", "D0", "G2", "K", "Dstar1", "Gstar3", "Dx"):
        assert key in rep.tags


def test_memoization_returns_identical_objects():
    eng = generic_engine()
    assert eng.dee0 is eng.dee0
    assert eng.phi2 is eng.phi2


def test_separately_built_engines_agree():
    # phi does not depend on the codifferential; every other invariant of
    # a second engine over the same pair equals the first engine's
    m = isothermal_metric("1 + x^2 + y^2/2")
    cd = Codifferential.isothermal(("x^2 - y^2", "2*x*y"))
    eng = InvariantEngine(m, cd, BOX)
    phi = phi_chain(m)
    assert all(nf_is_zero(simplify(a - b))
               for a, b in zip(phi, (eng.phi0, eng.phi1, eng.phi2, eng.phi3)))
    other = InvariantEngine(m, cd, BOX)
    dee = (other.dee0, other.dee1, other.dee2, other.dee3)
    assert all(nf_is_zero(simplify(a - b))
               for a, b in zip(dee, (eng.dee0, eng.dee1, eng.dee2, eng.dee3)))
    gee = (other.gee0, other.gee1, other.gee2, other.gee3)
    assert all(nf_is_zero(simplify(a - b))
               for a, b in zip(gee, (eng.gee0, eng.gee1, eng.gee2, eng.gee3)))
    k = other.kay
    ek = eng.kay
    assert nf_is_zero(simplify(k[0] - ek[0]))
    assert nf_is_zero(simplify(k[1] - ek[1]))
    ft = InvariantEngine(m, cd).f_tensor(k)
    et = eng.f_tensor()
    assert all(nf_is_zero(simplify(ft.c[i] - et.c[i])) for i in range(4))
    st_fam = other.report().star
    assert nf_is_zero(simplify(st_fam["Dstar1"] - eng.deestar1))
    dfm = other.report().dforms
    assert nf_is_zero(simplify(dfm["Dstarx"] - eng.dformstar_x))



# --------------------------------------------------------------------------
# the normal-form chain against the tree formulas it replaced

_CHAIN = ("phi0", "phi1", "phi2", "phi3", "phistar1", "phistar2", "phistar3",
          "dee0", "dee1", "dee2", "dee3", "deestar1", "deestar2", "deestar3")
_COEF = st.sampled_from(["1", "-1", "1/2", "-1/3", "2/3", "3"])


def _poly(coefs, monos):
    return " + ".join("(%s)*%s" % (c, m) for c, m in zip(coefs, monos))


def _chain_pair(lane, c):
    """A polynomial metric and codifferential in one lane, with the
    nonzero coefficients c."""
    lam = "1 + " + _poly(c[:3], ("x^2", "y^2", "x"))
    if lane == "iso":
        # a = c0 + c1 z + c2 z^2 with complex c_k, holomorphic
        p0, q0, p1, q1, p2 = c[3:]
        a = ("%s + (%s)*x - (%s)*y + (%s)*(x^2 - y^2)" % (p0, p1, q1, p2),
             "%s + (%s)*x + (%s)*y + (%s)*2*x*y" % (q0, q1, p1, p2))
        return isothermal_metric(lam), Codifferential.isothermal(a)
    if lane == "null":
        return null_metric(lam), Codifferential.null_pair(
            _poly(c[3:5], ("1", "x")), _poly(c[5:7], ("y", "y^2")))
    if lane == "general":
        # det = p^2 q^2, so that mu = p q is rational
        p, q = "(1 + (%s)*x)" % c[3], "(1 + (%s)*y)" % c[4]
        f = "(%s)" % _poly(c[5:7], ("x", "y"))
        return general_metric("%s^2 + %s^2" % (p, f), "%s*%s" % (f, q),
                              "%s^2" % q), \
            Codifferential.general(SymTensor3((as_expr(0),) * 4))
    # the general lane of a conformal metric, with the tensor of a
    # holomorphic coefficient
    a = parse_complex("%s + (%s)*x" % (c[3], c[4]), "%s + (%s)*y" % (c[5], c[4]))
    return (general_metric(lam, "0", lam),
            Codifferential.general(a_hat_from_complex(a)))


@pytest.mark.parametrize("lane", ["iso", "null", "general", "conformal"])
@given(st.lists(_COEF, min_size=8, max_size=8))
@settings(max_examples=6, deadline=None)
def test_invariant_chain_matches_tree_reference(lane, coefs):
    metric, codiff = _chain_pair(lane, coefs)
    eng = InvariantEngine(metric, codiff, BOX)
    want = InvariantChainReference(metric, codiff).invariants()
    for name in _CHAIN:
        got, ref = to_nf(getattr(eng, name)), to_nf(want[name])
        assert (got.content, unpack(got.num), got.den) == \
            (ref.content, unpack(ref.num), ref.den), name
        assert to_str(getattr(eng, name)) == to_str(want[name]), name


@pytest.mark.parametrize("lam", ["1 + x^2 + y^2/2", "4/(1 + x^2 + y^2)^2",
                                 "1 + x^2 + x^4/3"])
def test_conformal_general_chart_has_the_isothermal_normal_forms(lam):
    # the general chart g = lambda (dx^2 + dy^2) builds 1/det as (1/mu)^2,
    # so every chain invariant and K has the isothermal lane's denominators
    # and hence the same normal form, field for field
    a = ("x^2 - y^2", "2*x*y")
    iso = InvariantEngine(isothermal_metric(lam), Codifferential.isothermal(a),
                          BOX)
    gen = InvariantEngine(general_metric(lam, "0", lam), Codifferential.general(
        a_hat_from_complex(parse_complex(*a))), BOX)

    def fields(e):
        f = to_nf(e)
        return f.content, unpack(f.num), f.den

    for name in _CHAIN:
        assert fields(getattr(iso, name)) == fields(getattr(gen, name)), name
    try:
        kay = iso.kay
    except DegenerateBracket:
        # the sphere has constant curvature: no K in either chart
        with pytest.raises(DegenerateBracket):
            gen.kay
        return
    assert [fields(k) for k in kay] == [fields(k) for k in gen.kay]
