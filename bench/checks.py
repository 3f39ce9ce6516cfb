"""Checks of decide-suite verdicts against the oracle.

Each check takes one suite item (the generated input and what is known
about it) and the JSON report `cubint check` printed for it, and returns
the reasons the verdict is wrong (an empty list when it passes).  The
oracle's exact evaluations are cached per (chart, point).
"""

from __future__ import annotations

from fractions import Fraction

import oracle

# flowchart box -> ladder entries whose vanishing the box claims
ZERO_CLAIMS = {"Is phi0 constant?": ("phi0_x", "phi0_y"),
               "Is phi1 == 0?": ("phi1",), "Is phi2 == 0?": ("phi2",),
               "Is phi*2 == 0?": ("phistar2",)}


class OracleCache:
    """Symbolic ladders per chart and exact values per (chart, point)."""

    def __init__(self):
        self._ladders = {}
        self._values = {}

    def ladder(self, lane, metric):
        key = (lane, tuple(metric))
        if key not in self._ladders:
            self._ladders[key] = oracle.Chart(lane, metric).ladder()
        return self._ladders[key]

    def value(self, lane, metric, name, point):
        key = (lane, tuple(metric), name, tuple(point))
        if key not in self._values:
            self._values[key] = oracle.value(
                self.ladder(lane, metric)[name], point)
        return self._values[key]


def check_points(item, n=3):
    """n rational points inside the item's box, fixed by the item's id."""
    x0, x1, y0, y1 = (Fraction(v) for v in item["box"])
    h = sum(map(ord, item["id"]))
    return [(x0 + (x1 - x0) * Fraction((h * (i + 3)) % 13 + 1, 15),
             y0 + (y1 - y0) * Fraction((h * (i + 5)) % 11 + 2, 15))
            for i in range(n)]


def check_verdict(item, rep, cache: OracleCache, other_lane=None):
    """Reasons the verdict in `rep` is wrong for `item`.

    other_lane(item, failed, witness) recomputes a failed invariant at the
    witness through the other chart lane, or returns None where the item
    has no other lane."""
    bad = []
    status = rep.get("status")
    lane, metric = item["lane"], item["metric"]
    if status == "Undetermined":
        bad.append("Undetermined: %s" % rep.get("reason"))
    if item.get("expect") == "compatible" and not str(status).startswith(
            "Compatible"):
        bad.append("expected Compatible*, got %s" % status)
    if item.get("expect") == "incompatible" and status != "Incompatible":
        bad.append("expected Incompatible, got %s" % status)
    for step in rep.get("trace", []):
        v = step.get("verdict")
        names = ZERO_CLAIMS.get(step["box"])
        if v is None or names is None:
            continue
        if v["kind"] == "zero":
            for pt in check_points(item):
                for nm in names:
                    if cache.value(lane, metric, nm, pt) != 0:
                        bad.append("%s claimed Zero but %s(%s, %s) = %.6g"
                                   % (step["box"], nm, pt[0], pt[1],
                                      float(cache.value(lane, metric, nm,
                                                        pt))))
                        break
        elif v["kind"] == "nonzero":
            wit = v["witness"]
            if all(cache.value(lane, metric, nm, wit) == 0 for nm in names):
                bad.append("%s claimed NonZero but the oracle vanishes at %s"
                           % (step["box"], wit))
    if rep.get("F") is not None:
        comps = [rep["F"][k] for k in ("F111", "F112", "F122", "F222")]
        chart = oracle.Chart(lane, metric)
        if not oracle.bracket_vanishes(chart, comps):
            bad.append("returned F has {F, H} != 0")
        if not oracle.leading_part_matches(lane, comps, item["codiff"]):
            bad.append("returned F has the wrong (3,0) part")
    if status == "Incompatible" and rep.get("witness") is not None:
        got = other_lane(item, rep["failed"], rep["witness"]) \
            if other_lane is not None else None
        if got is None:
            bad.append("no independent recomputation for %s" % rep["failed"])
        elif not (abs(got) > 0 and abs(got - rep["witness_value"])
                  <= 1e-6 * max(abs(got), 1e-300)):
            bad.append("witness %s of %s recomputes to %r, reported %r"
                       % (rep["witness"], rep["failed"], got,
                          rep["witness_value"]))
    return bad


def check_planted(item):
    """The benchmark's own input: a planted F must be an integral whose
    (3,0) part is the item's codifferential."""
    comps = item["planted_F"]
    chart = oracle.Chart(item["lane"], item["metric"])
    return (oracle.bracket_vanishes(chart, comps)
            and oracle.leading_part_matches(item["lane"], comps,
                                            item["codiff"]))


def lane_disagreements(items, reports):
    """Ids of items whose status differs from another encoding of the
    same pair."""
    groups = {}
    for it, rep in zip(items, reports):
        if it.get("group"):
            groups.setdefault(it["group"], []).append((it["id"],
                                                       rep.get("status")))
    out = set()
    for members in groups.values():
        if len({s for _, s in members}) > 1:
            out.update(i for i, _ in members)
    return out
