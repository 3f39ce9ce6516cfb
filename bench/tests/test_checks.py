"""Each decide-suite check rejects a corrupted output: a flipped status, a
perturbed F, a false Zero, a bad witness and split lanes."""

import copy

import checks

ZERO = {"kind": "zero", "method": "probed"}
KILLING = dict(id="k", kind="planted", lane="iso", metric=["1 + x^2"],
               codiff=("0", "-1"), box=(-1, 1, -1, 1), expect="compatible",
               planted_F=("0", "0", "0", "1"), group="g")
KILLING_REPORT = {
    "status": "CompatibleKilling", "F": None, "witness": None,
    "trace": [{"box": "Input g and A", "verdict": None},
              {"box": "Is phi0 constant?",
               "verdict": {"kind": "nonzero", "witness": [0.5, 0.25],
                           "value": 1.0}},
              {"box": "Is phi2 == 0?", "verdict": ZERO},
              {"box": "Is phi*2 == 0?", "verdict": ZERO}]}
NULL = dict(id="n", kind="planted", lane="null", metric=["1 + x^2"],
            codiff=("0", "1"), box=(-1, 1, -1, 1), expect="compatible",
            planted_F=("0", "0", "0", "1"))
NULL_REPORT = {"status": "CompatibleConstCurvature", "witness": None,
               "trace": [{"box": "Is phi0 constant?", "verdict": ZERO}],
               "F": {"F111": "0", "F112": "0", "F122": "0", "F222": "1"}}


def run(item, rep, other_lane=None):
    return checks.check_verdict(item, rep, checks.OracleCache(), other_lane)


def test_correct_outputs_pass():
    assert run(KILLING, KILLING_REPORT) == []
    assert run(NULL, NULL_REPORT) == []
    assert checks.check_planted(KILLING) and checks.check_planted(NULL)


def test_flipped_status_fails():
    rep = dict(KILLING_REPORT, status="Incompatible")
    assert run(KILLING, rep)
    assert run(KILLING, dict(KILLING_REPORT, status="Undetermined"))


def test_perturbed_F_fails():
    rep = copy.deepcopy(NULL_REPORT)
    rep["F"]["F122"] = "x/10"
    assert any("{F, H}" in r for r in run(NULL, rep))
    rep = copy.deepcopy(NULL_REPORT)
    rep["F"]["F222"] = "2"
    assert any("(3,0)" in r for r in run(NULL, rep))


def test_false_zero_fails():
    item = dict(KILLING, metric=["2 + x/3 + y^2/5"], codiff=("1", "0"),
                expect=None, planted_F=None)
    assert any("phi2" in r for r in run(item, KILLING_REPORT))


def test_bad_incompatible_witness_fails():
    rep = {"status": "Incompatible", "trace": [], "F": None,
           "failed": "G2", "witness": [0.1, 0.2], "witness_value": 3.0}
    item = dict(KILLING, expect=None)
    assert run(item, rep, lambda *a: 3.0) == []
    assert run(item, rep, lambda *a: 0.0)
    assert run(item, rep, lambda *a: 2.5)
    assert run(item, rep, lambda *a: None)


def test_lane_disagreement_fails():
    twin = dict(KILLING, id="k-general", lane="general")
    reps = [KILLING_REPORT, dict(KILLING_REPORT, status="Incompatible")]
    assert checks.lane_disagreements([KILLING, twin], reps) == {"k",
                                                                "k-general"}
    assert not checks.lane_disagreements([KILLING, twin],
                                         [KILLING_REPORT] * 2)
