"""End-to-end CLI tests: every exit code, every subcommand, JSON schema."""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cubint
from cubint.cli import main

FLAT_TRIVIAL = """\
[metric]
kind = isothermal
lambda = 1

[codifferential]
kind = isothermal-complex
a_re = 0
a_im = 0
"""

KILLING = """\
[metric]
kind = isothermal
lambda = 1 + x^2

[codifferential]
kind = isothermal-complex
a_re = 0
a_im = -1

[domain]
seed = 99
"""

SPHERE_TRIVIAL = """\
[metric]
kind = isothermal
lambda = 4/(1 + x^2 + y^2)^2

[codifferential]
kind = isothermal-complex
a_re = 0
a_im = 0
"""

NULL_NORMAL_FORM = """\
[metric]
kind = null
lambda = 1/(y + x^2)^2

[codifferential]
kind = null-pair
a1 = 1
a2 = 1

[domain]
x_min = 0.2
x_max = 1
y_min = 0.2
y_max = 1
"""

# flat metric, a = z^3 + exp(z)/100: D0 = 48 + 2/25*cos(y)*exp(x), whose
# exp atom is decided by an enclosure
EXP_ATOM = """\
[metric]
kind = isothermal
lambda = 1

[codifferential]
kind = isothermal-complex
a_re = x^3 - 3*x*y^2 + exp(x)*cos(y)/100
a_im = 3*x^2*y - y^3 + exp(x)*sin(y)/100
"""

# flat metric, a = z^2 + (sin(x)^2 + cos(x)^2 - 1)*exp(z): D0 is 0, but its
# normal form is not, and no enclosure excludes 0 -> Unknown -> exit 2
IDENTITY = """\
[metric]
kind = isothermal
lambda = 1

[codifferential]
kind = isothermal-complex
a_re = x^2 - y^2 + (sin(x)^2 + cos(x)^2 - 1)*exp(x)*cos(y)
a_im = 2*x*y + (sin(x)^2 + cos(x)^2 - 1)*exp(x)*sin(y)
"""

GENERAL_TRIVIAL = """\
[metric]
kind = general
g11 = 1
g12 = 0
g22 = (x^2 + y/x)^2

[codifferential]
kind = general-real
a111 = 0
a112 = 0
a122 = 0
a222 = 0

[domain]
x_min = 1
x_max = 2
y_min = 0.5
y_max = 1.5
"""

PY3_INTEGRAL = """\
[integral]
F111 = 0
F112 = 0
F122 = 0
F222 = 1
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


# ----------------------------------------------------------------- cmd_check

def test_check_const_curvature_exit_0(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    code, rep = _run(capsys, ["check", man])
    assert code == 0
    assert rep["status"] == "CompatibleConstCurvature"
    assert rep["report_version"] == 1
    assert rep["seeds"] == [10007, 20011, 30013]


def test_check_killing_trace_and_seed_echo(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", KILLING)
    code, rep = _run(capsys, ["check", man])
    assert code == 0
    assert rep["status"] == "CompatibleKilling"
    boxes = [s["box"] for s in rep["trace"]]
    for expected in ("Is phi2 == 0?", "D-form test",
                     "Is phi*2 == 0?", "D*-form test"):
        assert expected in boxes
    assert rep["seeds"] == [99, 100, 101]


def test_check_incompatible_null_exit_1(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", NULL_NORMAL_FORM)
    code, rep = _run(capsys, ["check", man])
    assert code == 1
    assert rep["status"] == "Incompatible"
    assert "Prop. 6.7" in rep["failed"]
    assert rep["reason"] == "Prop. qub-phi1"


def test_check_undetermined_exit_2(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", IDENTITY)
    code, rep = _run(capsys, ["check", man])
    assert code == 2
    assert rep["status"] == "Undetermined"
    assert rep["reason"] == "Is D0 == 0?"
    assert "no enclosure excludes 0" in rep["trace"][-1]["verdict"]["reason"]


def test_check_reports_how_a_nonzero_was_found(tmp_path, capsys):
    # a rational D0 is decided on its exact value, D0 with an exp atom on
    # an enclosure
    exact = _write(tmp_path, "exact.ini", EXP_ATOM.replace(
        "exp(x)*cos(y)/100", "(x^4 - 6*x^2*y^2 + y^4)/100").replace(
        "exp(x)*sin(y)/100", "(4*x^3*y - 4*x*y^3)/100"))
    enclosed = _write(tmp_path, "enclosed.ini", EXP_ATOM)
    for man, method in ((exact, "exact"), (enclosed, "enclosure")):
        code, rep = _run(capsys, ["check", man])
        assert code == 1
        assert rep["failed"] == "D0"
        last = rep["trace"][-1]["verdict"]
        assert (last["kind"], last["method"]) == ("nonzero", method)
        assert last["value"] == rep["witness_value"]


def test_check_general_chart_formula_branch(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", GENERAL_TRIVIAL)
    code, rep = _run(capsys, ["check", man])
    assert code == 0
    assert rep["status"] == "CompatibleWithFormula"
    assert rep["via"] == "Thm1.2"
    assert set(rep["F"]) == {"F111", "F112", "F122", "F222"}
    assert all(v == "0" for v in rep["F"].values())
    assert all(v["kind"] == "zero" for v in rep["certificate"].values())


# a = z^2 over lambda = 1 + x^2 + y^2/2, in the general lane
GENERAL_Z2 = """\
[metric]
kind = general
g11 = 1 + x^2 + y^2/2
g12 = 0
g22 = 1 + x^2 + y^2/2

[codifferential]
kind = general-real
a111 = (x^2 - y^2)/4
a112 = x*y/2
a122 = (y^2 - x^2)/4
a222 = -x*y/2
"""


def test_check_general_lane_takes_nabla_a_hat_once(tmp_path, capsys,
                                                   monkeypatch):
    # the holomorphy check and Div A-hat read one nabla A-hat
    calls = []
    real = cubint.tensorcoords._cov_deriv3

    def counted(metric, t):
        calls.append(t)
        return real(metric, t)
    monkeypatch.setattr(cubint.tensorcoords, "_cov_deriv3", counted)
    monkeypatch.setattr(cubint.invariants, "_cov_deriv3", counted)
    man = _write(tmp_path, "m.ini", GENERAL_Z2)
    code, rep = _run(capsys, ["check", man])
    # G2 is built from D0 ... D3, so Div A-hat was taken
    assert (code, rep["failed"]) == (1, "G2")
    assert len(calls) == 1


def test_check_nonholomorphic_exit_64(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL.replace("a_re = 0",
                                                         "a_re = x"))
    code = main(["check", man])
    err = capsys.readouterr().err
    assert code == 64
    assert "HolomorphicityViolated" in err


def test_check_kind_mismatch_exit_64(tmp_path, capsys):
    bad = KILLING.replace("kind = isothermal-complex", "kind = null-pair")
    man = _write(tmp_path, "m.ini", bad)
    assert main(["check", man]) == 64
    assert "requires a null metric" in capsys.readouterr().err


def test_check_missing_manifest_exit_64(capsys):
    assert main(["check", "/nonexistent/path.ini"]) == 64


def test_check_bad_expression_exit_64(tmp_path, capsys):
    man = _write(tmp_path, "m.ini",
                 FLAT_TRIVIAL.replace("lambda = 1", "lambda = 1 + ("))
    assert main(["check", man]) == 64
    assert "bad expression" in capsys.readouterr().err


def test_check_radical_of_huge_integer(tmp_path, capsys):
    # (10^400)^(1/2) is the integer 10^200, a root a float cannot take
    root = _write(tmp_path, "root.ini", KILLING.replace(
        "lambda = 1 + x^2", "lambda = 1 + (10^400)^(1/2)*x^2"))
    plain = _write(tmp_path, "plain.ini", KILLING.replace(
        "lambda = 1 + x^2", "lambda = 1 + 10^200*x^2"))
    code, rep = _run(capsys, ["check", root])
    assert (code, rep) == _run(capsys, ["check", plain])


def test_check_degenerate_domain_exit_64(tmp_path, capsys):
    man = _write(tmp_path, "m.ini",
                 FLAT_TRIVIAL + "\n[domain]\nx_min = 2\nx_max = -2\n")
    assert main(["check", man]) == 64


GENERAL_DEGENERATE = """\
[metric]
kind = general
g11 = 1
g12 = 1
g22 = 1

[codifferential]
kind = general-real
a111 = 1
a112 = 0
a122 = 0
a222 = 0
"""

# pairs whose metric or codifferential has no meaning (a conformal factor
# that is zero or negative, a degenerate general metric, a division by
# zero), or that the kernel cannot hold (an exponent of x at 2^20, beyond a
# packed monomial key): normalizing them raises EvalDomainError,
# ZeroDivisionError or ExponentRangeError, an input error and not the
# "incompatible" exit 1, from every subcommand
@pytest.mark.parametrize("manifest", [
    FLAT_TRIVIAL.replace("lambda = 1", "lambda = 0"),
    FLAT_TRIVIAL.replace("lambda = 1", "lambda = x - x"),
    FLAT_TRIVIAL.replace("lambda = 1", "lambda = -1"),
    GENERAL_DEGENERATE,
    KILLING.replace("a_re = 0", "a_re = 1/(x-x)"),
    FLAT_TRIVIAL.replace("lambda = 1", "lambda = 1 + x^1048576"),
], ids=["lambda-0", "lambda-x-minus-x", "lambda-negative", "general-singular",
        "a-divides-by-zero", "exponent-beyond-packed-key"])
def test_degenerate_pair_exit_64(tmp_path, capsys, manifest):
    man = _write(tmp_path, "m.ini", manifest)
    extra = {
        "invariants": ["--symbolic"],
        "verify": ["--integral", _write(tmp_path, "f.ini", PY3_INTEGRAL)],
        "geodesic": ["--x0", "0", "--y0", "0", "--px0", "1", "--py0", "0",
                     "--steps", "3"],
    }
    for sub in ("check", "invariants", "verify", "geodesic"):
        assert main([sub, man] + extra.get(sub, [])) == 64, sub
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error:") and err.count("\n") == 1, err


# a_re = 1 on this metric is Incompatible under the default settings
INCOMPATIBLE = """\
[metric]
kind = isothermal
lambda = 1 + x^2 + y^2/2

[codifferential]
kind = isothermal-complex
a_re = 1
a_im = 0
"""


def test_check_incompatible_with_default_settings(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", INCOMPATIBLE)
    code, rep = _run(capsys, ["check", man])
    assert code == 1
    assert rep["status"] == "Incompatible"


# settings without meaning: no probe point, an infinite box, a drift
# bound that is not a number, and the thresholds abs and rel of a former
# float zero test, which no longer exist and must not be read as before
@pytest.mark.parametrize("section, setting", [
    ("domain", "samples = 0"),
    ("domain", "samples = -5"),
    ("domain", "x_min = -inf"),
    ("domain", "x_max = inf"),
    ("tolerances", "rel = inf"),
    ("tolerances", "abs = nan"),
    ("tolerances", "abs = -1e-9"),
    ("tolerances", "abs = 1e-9"),
    ("tolerances", "rel = 1e-9"),
    ("tolerances", "drift = nan"),
    ("tolerances", "drift = -1"),
])
def test_check_rejects_settings_without_meaning(tmp_path, capsys, section,
                                                setting):
    man = _write(tmp_path, "m.ini",
                 INCOMPATIBLE + "\n[%s]\n%s\n" % (section, setting))
    assert main(["check", man]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:")
    if setting.split()[0] in ("abs", "rel"):
        assert "no longer read" in err


def test_check_byte_reproducible(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", KILLING)
    main(["check", man])
    first = capsys.readouterr().out
    main(["check", man])
    second = capsys.readouterr().out
    assert first == second


# ------------------------------------------------------------ cmd_invariants

def test_invariants_at_point_sphere(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", SPHERE_TRIVIAL)
    code, rep = _run(capsys, ["invariants", man, "--at", "0,0"])
    assert code == 0
    inv = rep["invariants"]
    assert inv["phi0"] == pytest.approx(1.0)
    for name in ("phi1", "phi2", "phi3", "D0"):
        assert inv[name] == pytest.approx(0.0)
    assert rep["mode"] == "at"
    assert rep["point"] == [0.0, 0.0]
    assert rep["tags"]["phi0"].startswith("phi0")


def test_invariants_symbolic_trivial_pair(tmp_path, capsys):
    # with A = 0 the whole D/G ladder prints as literal zero
    man = _write(tmp_path, "m.ini",
                 SPHERE_TRIVIAL.replace("4/(1 + x^2 + y^2)^2",
                                        "1 + x^2 + y^2/2"))
    code, rep = _run(capsys, ["invariants", man, "--symbolic"])
    assert code == 0
    inv = rep["invariants"]
    for name in ("D0", "D1", "D2", "D3", "G0", "G1", "G2", "G3"):
        assert inv[name] == "0"
    assert inv["K"] == ["0", "0"]
    assert inv["phi0"] != "0"


GOLDEN_SYMBOLIC = """\
[metric]
kind = isothermal
lambda = {lam}

[codifferential]
kind = isothermal-complex
a_re = {a_re}
a_im = 0
"""


# every printed form byte for byte, each output written before the kernel
# change it guards
@pytest.mark.parametrize("lam, a_re, data", [
    # monic denominators such as (3/2 + x^2 + 3*y^2) and the rational
    # coefficients over them
    pytest.param("1 + 2/3*x^2 + 2*y^2", "1/2", "invariants_symbolic.json",
                 id="polynomial"),
    # a rational metric: denominators up to the 15th power
    pytest.param("1/(1 + x^2 + y^2/2)", "1",
                 "invariants_symbolic_rational.json", id="rational"),
    # a radical of a rational in the metric
    pytest.param("2 + sqrt(2)*x + y^2", "1",
                 "invariants_symbolic_radical.json", id="radical"),
    pytest.param("1 + x^2*exp(y)", "0", "invariants_symbolic_exp.json",
                 id="exp"),
])
def test_invariants_symbolic_golden(tmp_path, capsys, lam, a_re, data):
    man = _write(tmp_path, "m.ini", GOLDEN_SYMBOLIC.format(lam=lam, a_re=a_re))
    assert main(["invariants", man, "--symbolic"]) == 0
    want = (pathlib.Path(__file__).parent / "data" / data).read_text()
    assert capsys.readouterr().out == want


def test_invariants_at_negative_x(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", SPHERE_TRIVIAL)
    code, rep = _run(capsys, ["invariants", man, "--at", "-0.5,0.2"])
    assert code == 0
    assert rep["point"] == [-0.5, 0.2]
    assert _run(capsys, ["invariants", man, "--at=-0.5,0.2"])[1] == rep


def test_invariants_requires_mode_flag(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", SPHERE_TRIVIAL)
    assert main(["invariants", man]) == 64
    assert main(["invariants", man, "--at", "0,0", "--symbolic"]) == 64
    assert main(["invariants", man, "--at", "zebra"]) == 64


@pytest.mark.parametrize("point", ["nan,0.2", "0.3,inf", "-inf,0.2"])
def test_invariants_rejects_non_finite_point(tmp_path, capsys, point):
    man = _write(tmp_path, "m.ini", SPHERE_TRIVIAL)
    assert main(["invariants", man, "--at", point]) == 64
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


# ---------------------------------------------------------------- cmd_verify

def test_verify_integral_passes(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", KILLING)
    fint = _write(tmp_path, "f.ini", PY3_INTEGRAL)
    code, rep = _run(capsys, ["verify", man, "--integral", fint])
    assert code == 0
    assert rep["all_zero"] is True


def test_verify_non_integral_fails(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    fint = _write(tmp_path, "f.ini", PY3_INTEGRAL.replace("F111 = 0",
                                                          "F111 = x"))
    code, rep = _run(capsys, ["verify", man, "--integral", fint])
    assert code == 1
    assert rep["all_zero"] is False
    kinds = {v["kind"] for v in rep["certificate"].values()}
    assert "nonzero" in kinds


@pytest.mark.parametrize("what", ["manifest", "integral file"])
def test_unreadable_ini_messages(tmp_path, capsys, what):
    # both INI inputs share one reader; each message names its file kind
    good = {"manifest": _write(tmp_path, "m.ini", KILLING),
            "integral file": _write(tmp_path, "f.ini", PY3_INTEGRAL)}
    missing = str(tmp_path / "missing.ini")
    no_header = _write(tmp_path, "bad.ini", "F111 = 0\n")
    for path, want in ((missing, "cannot read %s %s: " % (what, missing)),
                       (no_header, "%s syntax: " % what)):
        files = dict(good, **{what: path})
        argv = ["verify", files["manifest"], "--integral",
                files["integral file"]]
        assert main(argv) == 64
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: " + want), err


def test_verify_integral_file_without_section(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    fint = _write(tmp_path, "f.ini", "[wrong]\nF111 = 0\n")
    assert main(["verify", man, "--integral", fint]) == 64


# -------------------------------------------------------------- cmd_geodesic

def test_geodesic_conserves_H_and_F(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", KILLING)
    fint = _write(tmp_path, "f.ini", PY3_INTEGRAL)
    csv_path = str(tmp_path / "traj.csv")
    code, rep = _run(capsys, ["geodesic", man,
                              "--x0", "0.1", "--y0", "-0.2",
                              "--px0", "0.4", "--py0", "0.3",
                              "--steps", "4000", "--dt", "0.001",
                              "--integral", fint, "--csv", csv_path])
    assert code == 0
    cons = rep["conservation"]
    assert cons["H_drift"] < 1e-8
    assert cons["F_drift"] < 1e-8
    lines = (tmp_path / "traj.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,px,py,H,F"
    assert len(lines) == 4002  # header + initial sample + 4000 steps


def test_geodesic_compiles_twice(tmp_path, capsys, monkeypatch):
    # one compile for the right-hand side of Hamilton's equations, one for
    # the coefficients of H and F together, shared by drifts and CSV rows
    calls = []
    real = cubint.expr.compile_float

    def counted(*roots, **kw):
        calls.append(len(roots))
        return real(*roots, **kw)
    monkeypatch.setattr(cubint.expr, "compile_float", counted)
    monkeypatch.setattr(cubint.verify, "compile_float", counted)
    man = _write(tmp_path, "m.ini", KILLING)
    fint = _write(tmp_path, "f.ini", PY3_INTEGRAL)
    code, _rep = _run(capsys, ["geodesic", man,
                               "--x0", "0.1", "--y0", "-0.2",
                               "--px0", "0.4", "--py0", "0.3",
                               "--steps", "20", "--integral", fint,
                               "--csv", str(tmp_path / "traj.csv")])
    assert code == 0
    # 9 = g^{ij} and their x- and y-derivatives; 3 = H's px^2 and py^2
    # coefficients (g^{12} = 0 for an isothermal metric) and F's py^3 one
    assert calls == [9, 3]


def test_geodesic_threshold_failure_exit_1(tmp_path, capsys):
    man = _write(tmp_path, "m.ini",
                 SPHERE_TRIVIAL + "\n[tolerances]\ndrift = 1e-30\n")
    code, rep = _run(capsys, ["geodesic", man,
                              "--x0", "0.1", "--y0", "0.0",
                              "--px0", "0.3", "--py0", "0.2",
                              "--steps", "200"])
    assert code == 1
    assert rep["within_tolerance"] is False


@pytest.mark.parametrize("lam, x0", [("(2 + x)^(1/2)", "-3"),
                                     ("2 + ln(x)", "-1")])
def test_geodesic_aborts_outside_metric_domain(tmp_path, capsys, lam, x0):
    # the start lies where lambda is complex (resp. ln is undefined)
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL.replace(
        "lambda = 1", "lambda = " + lam))
    code = main(["geodesic", man, "--x0=" + x0, "--y0", "0",
                 "--px0", "0.3", "--py0", "0.2", "--steps", "50"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1
    assert rep["aborted"] is True
    assert rep["conservation"] is None
    assert err.startswith("integration aborted:")
    assert "near t =" in err


def test_geodesic_aborts_where_the_integral_fails(tmp_path, capsys):
    # the flow runs on x < 0.05 - t, where F's coefficient ln(x) fails
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    fint = _write(tmp_path, "f.ini",
                  PY3_INTEGRAL.replace("F222 = 1", "F222 = ln(x)"))
    csv_path = tmp_path / "t.csv"
    code = main(["geodesic", man, "--x0", "0.05", "--y0", "0",
                 "--px0=-1", "--py0", "0", "--steps", "100", "--dt", "0.01",
                 "--integral", fint, "--csv", str(csv_path)])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1
    assert rep["aborted"] is True
    assert rep["conservation"] is None
    assert rep["within_tolerance"] is False
    assert err.startswith("integration aborted:") and "ln" in err
    assert not csv_path.exists()


@pytest.mark.parametrize("lam, where", [
    ("1 + x^2", "near t = 0"),                      # g^{11} in RK4
    ("1", "H or F fails on the trajectory"),        # px^2 in H
])
def test_geodesic_aborts_on_float_overflow(tmp_path, capsys, lam, where):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL.replace(
        "lambda = 1", "lambda = " + lam))
    code = main(["geodesic", man, "--x0", "0", "--y0", "0", "--px0", "1e200",
                 "--py0", "0", "--steps", "3", "--dt", "0.1"])
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1
    assert rep["aborted"] is True
    assert err.startswith("integration aborted:")
    assert "float overflow" in err and where in err
    assert "Numerical result" not in err


@pytest.mark.parametrize("csv_name", ["missing/t.csv", "."])
def test_geodesic_rejects_unwritable_csv_path(tmp_path, capsys, csv_name):
    # a file in a directory that does not exist, or a directory
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    code = main(["geodesic", man, "--x0", "0", "--y0", "0", "--px0", "1",
                 "--py0", "0", "--steps", "10",
                 "--csv", str(tmp_path / csv_name)])
    out, err = capsys.readouterr()
    assert code == 64
    assert out == "" and err.startswith("input error: --csv")
    assert not (tmp_path / "missing").exists()


def test_geodesic_all_zero_integral(tmp_path, capsys):
    # F has no coefficient at all, so it compiles from no expression
    man = _write(tmp_path, "m.ini", SPHERE_TRIVIAL)
    fint = _write(tmp_path, "f.ini", PY3_INTEGRAL.replace("F222 = 1",
                                                          "F222 = 0"))
    csv_path = tmp_path / "traj.csv"
    code, rep = _run(capsys, ["geodesic", man,
                              "--x0", "0.1", "--y0", "0.2",
                              "--px0", "0.3", "--py0", "0.1",
                              "--steps", "20", "--integral", fint,
                              "--csv", str(csv_path)])
    assert code == 0
    assert rep["conservation"]["F0"] == 0.0
    assert rep["conservation"]["F_drift"] == 0.0
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "t,x,y,px,py,H,F"
    assert len(rows) == 22
    assert all(r.rsplit(",", 1)[1] == "0" for r in rows[1:])


def test_geodesic_negative_start_in_exponent_notation(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    args = ["geodesic", man, "--y0", "0", "--px0", "0.3", "--py0",
            "-2e-1", "--steps", "10", "--dt", "0.1"]
    code, rep = _run(capsys, args + ["--x0", "-7.8e-05"])
    assert code == 0
    assert rep["state0"] == [-7.8e-05, 0.0, 0.3, -0.2]
    assert _run(capsys, args + ["--x0=-7.8e-05"])[1] == rep


def test_geodesic_rejects_bad_step_parameters(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    args = ["geodesic", man, "--x0", "0", "--y0", "0",
            "--px0", "1", "--py0", "0"]
    assert main(args + ["--dt", "0"]) == 64
    assert main(args + ["--steps", "-5"]) == 64


@pytest.mark.parametrize("option", ["--dt", "--x0", "--y0", "--px0", "--py0"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_geodesic_rejects_non_finite_input(tmp_path, capsys, option, value):
    # a non-finite step or start would end in a report with NaN in it,
    # which is not JSON
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    start = {"--x0": "0", "--y0": "0", "--px0": "1", "--py0": "0",
             "--dt": "0.01"}
    start[option] = value
    args = ["geodesic", man, "--steps", "10"]
    assert main(args + [k + "=" + v for k, v in start.items()]) == 64
    out, err = capsys.readouterr()
    assert out == "" and "finite" in err


# -------------------------------------------------------------- entry points

def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_usage_errors_in_a_row_agree(tmp_path, capsys):
    # the parser is built once and kept: an error leaves nothing behind
    # that changes the next call
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    errs = []
    for argv in (["frobnicate"], ["geodesic", man]) * 2:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 64
        errs.append(capsys.readouterr().err)
    assert errs[:2] == errs[2:]
    assert "invalid choice" in errs[0] and "required" in errs[1]
    assert _run(capsys, ["check", man])[0] == 0


def test_check_leaves_no_argparse_garbage(tmp_path, capsys):
    # argparse's parser, actions and formatters form reference cycles, so a
    # parser built per call would be left to the cyclic collector
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    assert _run(capsys, ["check", man])[0] == 0
    gc.collect()
    old, n = gc.get_debug(), len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert _run(capsys, ["check", man])[0] == 0
        gc.collect()
        left = [o for o in gc.garbage[n:] if type(o).__module__ == "argparse"]
    finally:
        gc.set_debug(old)
        del gc.garbage[n:]
    assert left == []


def test_module_invocation_round_trip(tmp_path):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    # the child process imports the cubint under test, installed or not
    src = os.path.dirname(os.path.dirname(cubint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    for module in ("cubint.cli", "cubint"):
        proc = subprocess.run([sys.executable, "-m", module, "check", man],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (module, proc.stderr)
        rep = json.loads(proc.stdout)
        assert rep["status"] == "CompatibleConstCurvature"
