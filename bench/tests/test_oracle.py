"""The oracle against closed forms: curvature of the flat plane, the round
sphere and the hyperbolic half-plane, in every chart that can hold them."""

import pytest
import sympy as sp

import oracle


@pytest.mark.parametrize("lane, comps, k", [
    ("iso", ["1"], 0),
    ("iso", ["4/(1 + x^2 + y^2)^2"], 1),
    ("iso", ["1/y^2"], -1),
    ("general", ["1", "0", "1"], 0),
    ("general", ["4/(1 + x^2 + y^2)^2", "0", "4/(1 + x^2 + y^2)^2"], 1),
    ("general", ["1/y^2", "0", "1/y^2"], -1),
])
def test_gauss_curvature_closed_forms(lane, comps, k):
    chart = oracle.Chart(lane, comps)
    assert sp.simplify(chart.curvature() - k) == 0
    lad = chart.ladder()
    for pt in ((sp.Rational(1, 3), sp.Rational(3, 4)),
               (sp.Rational(-1, 2), sp.Rational(5, 4))):
        assert oracle.value(lad["phi0"], pt) == k
        for name in ("phi0_x", "phi0_y", "phi1", "phi2", "phistar1",
                     "phistar2"):
            assert oracle.value(lad[name], pt) == 0


def test_null_chart_normal_form_curvature():
    # lam = 1/(y + f(x))^2 has lane curvature 2 f'(x) and phi1 == 0
    lad = oracle.Chart("null", ["1/(y + x^2)^2"]).ladder()
    assert oracle.value(lad["phi0"], (0.5, 1)) == 2
    assert oracle.value(lad["phi1"], (0.5, 1)) == 0


def test_ladder_of_a_generic_metric_is_nonzero():
    lad = oracle.Chart("iso", ["2 + x/3 + y^2/5"]).ladder()
    v = oracle.value(lad["phi2"], (sp.Rational(3, 10), sp.Rational(1, 2)))
    assert v != 0 and abs(float(v) - 9.484e-7) < 1e-9


def test_bracket_and_leading_part_of_planted_integrals():
    l3 = ["-y^3", "x*y^2", "-x^2*y", "x^3"]
    assert oracle.bracket_vanishes(oracle.Chart("iso", ["1 + x^2 + y^2"]), l3)
    assert oracle.leading_part_matches(
        "iso", l3, ("3*x^2*y - y^3", "3*x*y^2 - x^3"))
    assert oracle.bracket_vanishes(oracle.Chart("iso", ["1 + x^2"]),
                                   ["0", "0", "0", "1"])
    assert not oracle.bracket_vanishes(oracle.Chart("iso", ["1 + y^2"]),
                                       ["0", "0", "0", "1"])
    assert oracle.leading_part_matches("null", ["0", "0", "0", "2"],
                                       ("0", "2"))


def test_geodesic_endpoint_on_the_flat_plane_is_a_straight_line():
    end = oracle.geodesic_endpoint(oracle.Chart("iso", ["1"]),
                                   (0.1, -0.2, 0.4, 0.3), 2.0)
    assert end == pytest.approx((0.9, 0.4, 0.4, 0.3), abs=1e-10)
