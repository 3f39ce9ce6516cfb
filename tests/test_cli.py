"""End-to-end CLI tests: every exit code, every subcommand, JSON schema."""

import json
import os
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

# flat metric, a = z^3 + z^4/100: D0 = 48 + 1.92 x, and abs tolerance 10
# parks every probe inside the (thr, 10 thr] band -> Unknown -> exit 2
BANDED = """\
[metric]
kind = isothermal
lambda = 1

[codifferential]
kind = isothermal-complex
a_re = x^3 - 3*x*y^2 + (x^4 - 6*x^2*y^2 + y^4)/100
a_im = 3*x^2*y - y^3 + (4*x^3*y - 4*x*y^3)/100

[tolerances]
abs = 10
rel = 0
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
    man = _write(tmp_path, "m.ini", BANDED)
    code, rep = _run(capsys, ["check", man])
    assert code == 2
    assert rep["status"] == "Undetermined"
    assert rep["reason"] == "Is D0 == 0?"


def test_check_general_chart_formula_branch(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", GENERAL_TRIVIAL)
    code, rep = _run(capsys, ["check", man])
    assert code == 0
    assert rep["status"] == "CompatibleWithFormula"
    assert rep["via"] == "Thm1.2"
    assert set(rep["F"]) == {"F111", "F112", "F122", "F222"}
    assert all(v == "0" for v in rep["F"].values())
    assert all(v["kind"] == "zero" for v in rep["certificate"].values())


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


def test_check_degenerate_domain_exit_64(tmp_path, capsys):
    man = _write(tmp_path, "m.ini",
                 FLAT_TRIVIAL + "\n[domain]\nx_min = 2\nx_max = -2\n")
    assert main(["check", man]) == 64


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


def test_invariants_requires_mode_flag(tmp_path, capsys):
    man = _write(tmp_path, "m.ini", SPHERE_TRIVIAL)
    assert main(["invariants", man]) == 64
    assert main(["invariants", man, "--at", "0,0", "--symbolic"]) == 64
    assert main(["invariants", man, "--at", "zebra"]) == 64


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
    code, rep = _run(capsys, ["geodesic", man, "--x0=" + x0, "--y0", "0",
                              "--px0", "0.3", "--py0", "0.2",
                              "--steps", "50"])
    assert code == 1
    assert rep["aborted"] is True
    assert rep["conservation"] is None


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


# -------------------------------------------------------------- entry points

def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 64


def test_module_invocation_round_trip(tmp_path):
    man = _write(tmp_path, "m.ini", FLAT_TRIVIAL)
    # the child process imports the cubint under test, installed or not
    src = os.path.dirname(os.path.dirname(cubint.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "cubint.cli", "check", man],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["status"] == "CompatibleConstCurvature"
