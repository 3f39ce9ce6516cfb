"""cubint benchmark: one command, three workloads, outputs checked.

    python3 bench/run.py --workload decide-suite --seed 1 --seconds 5 --trace 0

Workloads (see bench/README.md for their make-up and why each exists):

* decide-suite   -- `cubint check <manifest>` in-process, one pair after
                    another, each verdict checked against the oracle;
* invariant-grid -- full invariant reports built in set-up, then timed
                    point evaluation and tri-state zero tests;
* geodesic-flow  -- `cubint geodesic ... --integral f.ini` on planted
                    (metric, integral) pairs, endpoints checked with DOP853.

The seed fixes a run's operations; every round repeats all of them, from
one thread, at least three times and until --seconds have passed.  Each
timing is scaled to the reference speed by a fixed reference workload
timed beside it, and an operation's latency is the median of its
repetitions.  Every output of every round is checked after the timed
loop.  With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 the program's modules are wrapped
(bench/tracing.py) and the object holds the per-layer metrics, while the
spans go to bench/out/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
_CPU0 = time.process_time()   # interpreter start-up, before this line

import argparse
import contextlib
import io
import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
TAIL_PERCENTILE = 80
MIN_ROUNDS = 3          # least repetitions of every operation in a run
# Every timing is reported at the reference speed: scaled by the time of
# reference_work() measured beside it, as a share of REFERENCE_S, the time
# reference_work() takes on the reference machine in its fast state.  The
# shared host's speed swings by up to 1.8x for tens of seconds at a time,
# and the program and reference_work() slow down alike (bench/README.md).
REFERENCE_S = 0.0056

# ---------------------------------------------------------------- inputs

# Seeded families: every seed gives the same metrics and the same multiset
# of codifferential scales k; the seed orders each family and pairs its
# metrics with the scales.  A round's cost then hardly depends on the seed
# (drawing coefficients freely moved it by 20-30 %).  Every (metric, k)
# combination below was decided once while writing the benchmark.
SCALES = ("1", "2", "1/2", "3")
KILLING_X = (("1", "1/3"), ("1/2", "1/3"), ("2/3", "1/5"), ("3/2", "1/5"),
             ("2", "1/3"), ("1", "1/5"))
KILLING_Y = (("2/3", "1/3"), ("3/2", "1/5"))
SPHERE = ("1", "1/2", "3/2", "2")
ROTATIONAL = ("1", "1/2", "2/3", "2")
FLAT = ("1/2", "2/3", "3/2", "2", "3")
HALF_PLANE = ("1", "1/2", "3/2", "2")
BAD_CODIFF = ("2/3", "3/2")
NULL_X = (("1/2", "1/3"), ("2", "1/5"))
NULL_Y = ("2/3", "3/2")
OBSTRUCTION = (("1/2", "1/3"), ("1", "1/5"), ("2", "1/3"))
THM12 = ("2/3", "3/2")
BOX = (-1, 1, -1, 1)
L3 = ("-(k)*y^3", "(k)*x*y^2", "-(k)*x^2*y", "(k)*x^3")
L3_A = ("(k)*(3*x^2*y - y^3)", "(k)*(3*x*y^2 - x^3)")
# the known fault: decide returns CompatibleKilling, yet phi2 != 0
FAULT_LAMBDA = "2 + x/3 + y^2/5"
# The costly pairs keep fixed metrics, so that a round's cost does not
# depend on the seed; the seed sets their codifferential scale.  The seeded
# coefficient pools of the cheap families were run exhaustively.  Left out:
# 1 + x^2/2 + 2 y^2 (and x, y swapped) is the Jacobi metric of the 1:2
# resonant oscillator, which has a genuine cubic integral, and decide_pseudo
# ends Undetermined on it with A = 0 (see CHANGES.md).
TRIVIAL_NULL = ("1 + x^2 + y^2/2", "1 + 2*x^2 + 2/3*y^2")
TRIVIAL_ISO = ("1 + x^2 + y^2/2", "1 + 3/2*x^2 + 2/3*y^2",
               "1 + 2/3*x^2 + 3/2*y^2")
GENERIC = ("1 + x^2 + y^2/2", "1 + 2/3*x^2 + 2*y^2")
# A = 0 on a metric whose normal forms dominate the decision
HEAVY_LAMBDA = "1 + x^2*y + y^2"


def _k(text, k):
    return text.replace("k", k) if k != "1" else text.replace("(k)*", "")


def decide_items(rng: random.Random):
    """The 50 pairs of a decide-suite round; every round of a run repeats
    them."""
    items, twins = [], []

    def add(kind, lane, metric, codiff, box=BOX, expect=None, planted=None):
        items.append(dict(id="d%02d-%s" % (len(items), kind),
                          kind=kind, lane=lane, metric=list(metric),
                          codiff=tuple(codiff), box=box, expect=expect,
                          planted_F=planted, group=None))

    def twin(flag):
        if flag:
            twins.append(len(items))

    def family(params):
        """(param, k) pairs of one family in a seeded order."""
        ks = [SCALES[i % len(SCALES)] for i in range(len(params))]
        return list(zip(rng.sample(params, len(params)),
                        rng.sample(ks, len(ks))))

    def planted(lane, metric, codiff, f, box=BOX):
        return add("planted", lane, metric, codiff, box, "compatible", f)

    # planted positives: Killing fields and constant-curvature isometries;
    # the first listed metric of a family also gets a general-chart twin
    for (c, q), k in family(KILLING_X):     # F = k py^3 on lam(x)
        twin((c, q) == KILLING_X[0])
        planted("iso", ["1 + %s*x^2 + %s*x^4" % (c, q)], ("0", "-" + k),
                ("0", "0", "0", k))
    for (c, q), k in family(KILLING_Y):     # F = k px^3 on lam(y)
        planted("iso", ["1 + %s*y^2 + %s*y^4" % (c, q)], (k, "0"),
                (k, "0", "0", "0"))
    for c, k in family(SPHERE):             # F = k L^3 on the sphere
        twin(c == SPHERE[0])
        planted("iso", ["4*%s/(1 + x^2 + y^2)^2" % c],
                tuple(_k(s, k) for s in L3_A), tuple(_k(s, k) for s in L3))
    for c, k in family(ROTATIONAL):         # F = k L^3 on 1 + c r^2
        planted("iso", ["1 + %s*(x^2 + y^2)" % c],
                tuple(_k(s, k) for s in L3_A), tuple(_k(s, k) for s in L3))
    for c, k in family(FLAT):               # F = k px py L on the flat plane
        planted("iso", [c], ("-(%s)*x" % k, "-(%s)*y" % k),
                ("0", "-(%s)*y/3" % k, "(%s)*x/3" % k, "0"))
    for c, k in family(HALF_PLANE):         # F = k px^3 on c/y^2
        twin(c == HALF_PLANE[0])
        planted("iso", ["%s/y^2" % c], (k, "0"), (k, "0", "0", "0"),
                box=(-1, 1, "1/2", "3/2"))
    # constant curvature with a codifferential that is not a leading part
    for c, k in family(BAD_CODIFF):
        twin(c == BAD_CODIFF[0])
        add("badcodiff", "iso", ["4*%s/(1 + x^2 + y^2)^2" % c],
            ("(%s)*(x^2 - y^2)" % k, "(%s)*2*x*y" % k),
            expect="incompatible")
    # split signature through decide_pseudo
    for (c, q), k in family(NULL_X):
        planted("null", ["1 + %s*x^2 + %s*x^4" % (c, q)], ("0", k),
                ("0", "0", "0", k))
    for c, k in family(NULL_Y):
        planted("null", ["1 + %s*y^2" % c], (k, "0"), (k, "0", "0", "0"))
    for (c, q), k in family(OBSTRUCTION):   # Prop. 6.7 normal form
        add("obstruction", "null", ["1/(y + %s*x^2 + %s*x^3)^2" % (c, q)],
            (k, k), box=("1/5", 1, "1/2", "3/2"), expect="incompatible")
    for lam in TRIVIAL_NULL:                # A = 0 on generic null metrics
        add("trivial", "null", [lam], ("0", "0"), expect="compatible")
    # trivial A = 0 on generic metrics: the Thm 1.1 / 1.2 formula branches
    for i, lam in enumerate(TRIVIAL_ISO):
        twin(i == 0)
        add("trivial", "iso", [lam], ("0", "0"), expect="compatible")
    for c, _ in family(THM12):
        add("trivial", "general", ["1", "0", "(%s*x^2 + y/x)^2" % c],
            ("0", "0"), box=(1, 2, "1/2", "3/2"), expect="compatible")
    add("heavy", "iso", [HEAVY_LAMBDA], ("0", "0"), expect="compatible")
    # generic polynomial metrics with a != 0
    for i, (lam, k) in enumerate(zip(GENERIC, rng.sample(SCALES, 2))):
        add("generic", "iso", [lam], (k, "0") if i % 2 == 0 else ("0", k))
    # general-chart re-encodings of isothermal pairs
    for src in [items[i] for i in twins]:
        grp = "g-" + src["id"]
        src["group"] = grp
        lam = src["metric"][0]
        twin = dict(src, id=src["id"] + "-general", lane="general",
                    metric=[lam, "0", lam], group=grp)
        items.append(twin)
    add("fault", "iso", [FAULT_LAMBDA], ("1", "0"))
    return items


def _num(s):
    n, _, d = str(s).partition("/")
    return float(n) / float(d or 1)


def manifest_text(item) -> str:
    lane, m, a = item["lane"], item["metric"], item["codiff"]
    if lane == "iso":
        body = ("[metric]\nkind = isothermal\nlambda = %s\n\n"
                "[codifferential]\nkind = isothermal-complex\n"
                "a_re = %s\na_im = %s\n" % (m[0], a[0], a[1]))
    elif lane == "null":
        body = ("[metric]\nkind = null\nlambda = %s\n\n"
                "[codifferential]\nkind = null-pair\na1 = %s\na2 = %s\n"
                % (m[0], a[0], a[1]))
    else:
        # A-hat of the complex coefficient a: (re, im, -re, -im) / 4
        body = ("[metric]\nkind = general\ng11 = %s\ng12 = %s\ng22 = %s\n\n"
                "[codifferential]\nkind = general-real\n"
                "a111 = (%s)/4\na112 = (%s)/4\na122 = -(%s)/4\n"
                "a222 = -(%s)/4\n" % (m[0], m[1], m[2], a[0], a[1], a[0],
                                      a[1]))
    x0, x1, y0, y1 = (_num(v) for v in item["box"])
    return body + ("\n[domain]\nx_min = %r\nx_max = %r\ny_min = %r\n"
                   "y_max = %r\n" % (x0, x1, y0, y1))


def write_file(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ------------------------------------------------------------- harness

# Every workload runs its operations in a seeded random order, so that a
# slow spell of the host does not fall on one family of them in every round.

def run_cli(cli, argv):
    """cubint's cli.main in-process with stdout captured: (code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def percentile(values, p):
    """The smallest sample with at least p % of the samples at or below it;
    for p = 80 and 50 samples, ten samples lie beyond it."""
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * p / 100) - 1)]


def reference_work():
    """A fixed pure-Python workload made of what the program itself does
    most: Fraction arithmetic in dicts keyed by exponent tuples (it squares
    a 30-term polynomial twice).  Its time tracks the host's speed."""
    r = random.Random(5)
    p = {(r.randrange(6), r.randrange(6)):
         Fraction(r.randrange(1, 9), r.randrange(1, 9)) for _ in range(30)}
    q = p
    for _ in range(2):
        out = {}
        for (a, b), c in p.items():
            for (d, e), f in q.items():
                k = (a + d, b + e)
                out[k] = out.get(k, 0) + c * f
        q = out
    return q


def reference_s():
    t = time.perf_counter()
    reference_work()
    return time.perf_counter() - t


SETUP_REFERENCE = []    # reference times taken inside a long set-up


def setup_reference():
    """Time reference_work() inside a set-up of several seconds, so that
    setup_s is scaled by the host's speed over the whole set-up; the time
    spent here is not counted as set-up."""
    SETUP_REFERENCE.append(reference_s())


def run_round(wl, note_op):
    """One pass over the workload's operations.  Returns each operation's
    wall time and that time scaled to the reference speed: multiplied by
    REFERENCE_S over the mean of the reference runs just before and just
    after it."""
    wall, scaled, outs = [], [], []
    before = reference_s()
    for op in wl.ops:
        note_op()
        t = time.perf_counter()
        raw = wl.call(op)
        dt = time.perf_counter() - t
        outs.append(wl.collect(op, raw))
        after = reference_s()
        wall.append(dt)
        scaled.append(dt * 2 * REFERENCE_S / (before + after))
        before = after
    wl.outs.append(outs)
    return wall, scaled


def per_op_median(rounds):
    """Per operation, the median of its repetitions."""
    return [statistics.median(col) for col in zip(*rounds)]


def latency_metrics(lat):
    return {"verdicts_per_s": (len(lat) / sum(lat), "1/s"),
            "verdict_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "verdict_tail_ms": (percentile(lat, TAIL_PERCENTILE) * 1e3,
                                "ms")}


_FORKED = [None]        # the function map_forked's workers call


def _call_forked(arg):
    return _FORKED[0](arg)


def map_forked(fn, args, workers=2):
    """[fn(a) for a in args] in `workers` forked processes.  Only the checks
    use it: they run after the timed loop and cost more than it on
    decide-suite.  Every worker has ended when this returns."""
    _FORKED[0] = fn
    pool = multiprocessing.get_context("fork").Pool(workers)
    try:
        out = pool.map(_call_forked, args, chunksize=1)
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return out


def import_cubint():
    """Import cubint from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import cubint
    import cubint.cli
    if not os.path.abspath(cubint.__file__).startswith(src + os.sep):
        raise SystemExit("cubint was not imported from %s" % src)
    return cubint


# ------------------------------------------------------------- decide-suite

class DecideSuite:
    def __init__(self, seed, tmp):
        self.cub = import_cubint()
        rng = random.Random(seed)
        self.items = decide_items(rng)
        rng.shuffle(self.items)
        for it in self.items:
            it["manifest"] = write_file(tmp, it["id"] + ".ini",
                                        manifest_text(it))
        self.ops = self.items
        self.outs = []          # per round, (exit code, report) per item

    def call(self, item):
        return run_cli(self.cub.cli, ["check", item["manifest"]])

    def collect(self, _item, raw):
        return raw

    def other_lane(self, item, failed, witness):
        """A failed invariant at the witness, through the other lane."""
        from cubint import (Codifferential, InvariantEngine, eval_at,
                            general_metric, isothermal_metric)
        from cubint.expr import Box
        from cubint.tensorcoords import a_hat_from_complex
        from cubint.cnum import parse_complex
        attr = {"G2": "gee2", "G3": "gee3", "G*2": "geestar2",
                "G*3": "geestar3", "D0": "dee0", "Dx": "dform_x",
                "Dy": "dform_y", "D*x": "dformstar_x",
                "D*y": "dformstar_y"}.get(failed)
        if attr is None or item["lane"] == "null":
            return None
        a = parse_complex(*item["codiff"])
        lam = item["metric"][0]
        box = Box(*(_num(v) for v in item["box"]))
        if item["lane"] == "iso":
            eng = InvariantEngine(general_metric(lam, "0", lam),
                                  Codifferential.general(
                                      a_hat_from_complex(a)), box)
        elif item["metric"][1] == "0" and item["metric"][0] == \
                item["metric"][2]:
            eng = InvariantEngine(isothermal_metric(lam),
                                  Codifferential.isothermal(a), box)
        else:
            return None
        return eval_at(getattr(eng, attr), witness)

    def check_one(self, key):
        """Reasons the report `text` of item i is wrong (an empty list when
        it passes)."""
        import checks
        i, text = key
        if self.cache is None:
            self.cache = checks.OracleCache()
        return checks.check_verdict(self.items[i], json.loads(text),
                                    self.cache, self.other_lane)

    def check(self):
        import checks
        problems = ["planted F of %s is no integral" % it["id"]
                    for it in self.items if it["planted_F"] is not None
                    and not checks.check_planted(it)]
        # every distinct (item, report) once; a repeated report repeats
        # the verdict on it
        keys = sorted({(i, text) for outs in self.outs
                       for i, (_code, text) in enumerate(outs)})
        self.cache = None
        verdicts = dict(zip(keys, map_forked(self.check_one, keys)))
        failed, faults = 0, {}
        for outs in self.outs:
            reps, bad = [], {}
            for i, (it, (_code, text)) in enumerate(zip(self.items, outs)):
                reps.append(json.loads(text))
                if verdicts[i, text]:
                    bad[it["id"]] = list(verdicts[i, text])
            for i in checks.lane_disagreements(self.items, reps):
                bad.setdefault(i, []).append("lane disagreement")
            failed += len(bad)
            for i, why in bad.items():
                faults.setdefault((i, "; ".join(why)), 0)
                faults[(i, "; ".join(why))] += 1
        kinds = {it["id"]: it for it in self.items}
        for (i, why), n in sorted(faults.items()):
            sys.stderr.write("FAILED %s %s in %d of %d rounds: %s\n"
                             % (i, kinds[i]["metric"], n, len(self.outs),
                                why))
        correct = all(kinds[i]["kind"] == "fault" for i, _ in faults)
        return failed, correct and not problems, problems


# ----------------------------------------------------------- invariant-grid

GRID_PAIR = ("1 + x^2 + y^2/2", ("1", "0"))
DIFF_NAMES = ("phi0", "D0", "K1", "K2", "phistar1", "phistar2", "Dstar1",
              "Kstar1", "Kstar2")
LADDER = ("phi0", "phi1", "phi2", "phistar1", "phistar2")


def flat_report(rep):
    out = dict(zip(("phi0", "phi1", "phi2", "phi3"), rep.phi))
    out.update(zip(("D0", "D1", "D2", "D3"), rep.dee))
    out.update(zip(("G0", "G1", "G2", "G3"), rep.gee))
    out.update(zip(("K1", "K2"), rep.kay))
    for name, e in rep.star.items():
        if name == "Kstar":
            out.update(zip(("Kstar1", "Kstar2"), e))
        else:
            out[name] = e
    out.update(rep.dforms)
    return out


class InvariantGrid:
    def __init__(self, seed, tmp):
        cub = self.cub = import_cubint()
        from cubint.expr import Box
        from cubint.tensorcoords import a_hat_from_complex
        lam, a = GRID_PAIR
        self.box = Box(*BOX)
        iso = cub.InvariantEngine(cub.isothermal_metric(lam),
                                  cub.Codifferential.isothermal(a), self.box)
        gen = cub.InvariantEngine(
            cub.general_metric(lam, "0", lam),
            cub.Codifferential.general(
                a_hat_from_complex(cub.parse_complex(*a))), self.box)
        setup_reference()
        self.lanes = {"iso": flat_report(iso.report())}
        setup_reference()
        self.lanes["general"] = flat_report(gen.report())
        rng = random.Random(seed)
        # odd multiples of 1/32: off the axes, where phi2 (the denominator
        # of K and K*) vanishes for this symmetric metric
        self.pts = [((2 * rng.randint(-16, 15) + 1) / 32,
                     (2 * rng.randint(-16, 15) + 1) / 32) for _ in range(8)]
        self.cfg = cub.ZeroTestConfig().with_seed(rng.randrange(1, 10 ** 6))
        # one operation: an invariant of one lane, evaluated on the grid and
        # zero-tested, or the zero test of an iso-minus-general difference
        self.ops = [(name, lane) for name in self.lanes["iso"]
                    for lane in ("iso", "general")]
        self.ops += [(name, "diff") for name in DIFF_NAMES]
        rng.shuffle(self.ops)
        self.outs = []

    def call(self, op):
        cub, (name, lane) = self.cub, op
        if lane == "diff":
            diff = self.lanes["iso"][name] - self.lanes["general"][name]
            return None, cub.is_zero(diff, self.box, self.cfg)
        e = self.lanes[lane][name]
        return ([cub.eval_at(e, p) for p in self.pts],
                cub.is_zero(e, self.box, self.cfg))

    def collect(self, _op, raw):
        return raw

    def check(self):
        import oracle
        lad = oracle.Chart("iso", [GRID_PAIR[0]]).ladder()
        exact = {(name, p): float(oracle.value(lad[name], p))
                 for name in LADDER for p in self.pts}
        failed, faults = 0, set()
        for outs in self.outs:
            got = dict(zip(self.ops, outs))
            for (name, lane), (vals, v) in got.items():
                bad = []
                if v.kind == "unknown":
                    bad.append("verdict Unknown")
                if lane == "diff":
                    if v.kind != "zero":
                        bad.append("iso - general is %r" % v)
                elif lane == "general":
                    for p, a, b in zip(self.pts, got[name, "iso"][0], vals):
                        if not oracle.close(a, b, 1e-7):
                            bad.append("lanes disagree at %s: %r vs %r"
                                       % (p, a, b))
                elif name in LADDER:
                    for p, a in zip(self.pts, vals):
                        if not oracle.close(a, exact[name, p], 1e-9):
                            bad.append("%s(%s) = %r, oracle %r"
                                       % (name, p, a, exact[name, p]))
                    if v.kind == "zero" or (v.kind == "nonzero" and float(
                            oracle.value(lad[name], v.witness)) == 0):
                        bad.append("verdict %r contradicts the oracle" % v)
                if bad:
                    failed += 1
                    faults.add("FAILED %s (%s): %s\n"
                               % (name, lane, "; ".join(bad)))
        for f in sorted(faults):
            sys.stderr.write(f)
        return failed, failed == 0, []


# ------------------------------------------------------------ geodesic-flow

L3_ONE = tuple(_k(s, "1") for s in L3)
GEO_PAIRS = (  # (lane, metric, F components, box for the start point)
    ("iso", ["4/(1 + x^2 + y^2)^2"], L3_ONE, (-0.5, 0.5, -0.5, 0.5)),
    ("iso", ["1 + x^2 + y^2"], L3_ONE, (-0.5, 0.5, -0.5, 0.5)),
    ("iso", ["1 + x^2"], ("0", "0", "0", "1"), (-0.5, 0.5, -0.5, 0.5)),
    ("iso", ["1"], ("0", "-y/3", "x/3", "0"), (-0.5, 0.5, -0.5, 0.5)),
    ("iso", ["1/y^2"], ("1", "0", "0", "0"), (-0.5, 0.5, 1.0, 1.5)),
    ("general", ["1 + x^2", "0", "1 + x^2"], ("0", "0", "0", "1"),
     (-0.5, 0.5, -0.5, 0.5)),
    ("null", ["1 + x^2"], ("0", "0", "0", "1"), (-0.5, 0.5, -0.5, 0.5)),
)
GEO_STEPS, GEO_DT = 1500, 1e-3
GEO_STARTS = 8           # seeded start points per pair


def reference_endpoint(op):
    """DOP853's state at the end of the geodesic of operation op."""
    import oracle
    i, s0, _argv = op
    return oracle.geodesic_endpoint(oracle.Chart(*GEO_PAIRS[i][:2]), s0,
                                    GEO_STEPS * GEO_DT)


class GeodesicFlow:
    def __init__(self, seed, tmp):
        self.cub = import_cubint()
        rng = random.Random(seed)
        self.ops = []           # (pair index, start state, argv)
        self.csv = os.path.join(tmp, "traj.csv")
        for i, (lane, metric, f, box) in enumerate(GEO_PAIRS):
            man = write_file(tmp, "geo%d.ini" % i, manifest_text(dict(
                lane=lane, metric=metric, codiff=("0", "0"), box=BOX)))
            fint = write_file(tmp, "geo%d-F.ini" % i,
                              "[integral]\nF111 = %s\nF112 = %s\nF122 = %s\n"
                              "F222 = %s\n" % tuple(f))
            for _ in range(GEO_STARTS):
                s0 = (rng.uniform(box[0], box[1]),
                      rng.uniform(box[2], box[3]),
                      rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
                # "--x0=-5e-05": a separate "-5e-05" would read as an option
                argv = ["geodesic", man, "--x0=%r" % s0[0],
                        "--y0=%r" % s0[1], "--px0=%r" % s0[2],
                        "--py0=%r" % s0[3], "--steps", str(GEO_STEPS),
                        "--dt", repr(GEO_DT), "--integral", fint,
                        "--csv", self.csv]
                self.ops.append((i, s0, argv))
        rng.shuffle(self.ops)
        self.outs = []

    def call(self, op):
        return run_cli(self.cub.cli, op[2])

    def collect(self, _op, raw):
        with open(self.csv) as fh:
            last = fh.read().rstrip("\n").rsplit("\n", 1)[-1]
        return raw + (tuple(float(v) for v in last.split(",")[1:5]),)

    def check(self):
        import oracle
        problems = ["planted F of %s is no integral" % (metric,)
                    for lane, metric, f, _box in GEO_PAIRS
                    if not oracle.bracket_vanishes(oracle.Chart(lane, metric),
                                                   f)]
        refs = map_forked(reference_endpoint, self.ops)
        failed, faults = 0, set()
        for outs in self.outs:
            for (i, s0, _argv), ref, (code, text, end) in zip(
                    self.ops, refs, outs):
                rep = json.loads(text)
                bad = []
                if code != 0 or not rep.get("within_tolerance"):
                    bad.append("drift over tolerance: %s"
                               % rep.get("conservation"))
                if not all(oracle.close(a, b, 1e-8)
                           for a, b in zip(end, ref)):
                    bad.append("endpoint %s, DOP853 %s" % (end, ref))
                if bad:
                    failed += 1
                    faults.add("FAILED geodesic %s %s: %s\n"
                               % (GEO_PAIRS[i][1], s0, "; ".join(bad)))
        for f in sorted(faults):
            sys.stderr.write(f)
        return failed, failed == 0 and not problems, problems


WORKLOADS = {"decide-suite": DecideSuite, "invariant-grid": InvariantGrid,
             "geodesic-flow": GeodesicFlow}


# ------------------------------------------------------------------- main

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        tracer = None
        if args.trace:
            sys.path.insert(0, HERE)
            import_cubint()
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        wl = WORKLOADS[args.workload](args.seed, tmp)
        setup_wall = (_CPU0 + (time.perf_counter() - _T0)
                      - sum(SETUP_REFERENCE))
        # the host's speed over the set-up: the references taken inside
        # it and the median of five taken right after it
        setup_ref = statistics.mean(SETUP_REFERENCE + [statistics.median(
            reference_s() for _ in range(5))])

        ops = [0]

        def note_op():
            if tracer is not None:
                tracer.current_op = ops[0]
            ops[0] += 1

        rounds = []
        t_start = time.perf_counter()
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - t_start < args.seconds):
            rounds.append(run_round(wl, note_op))
        attempted = sum(len(wall) for wall, _ in rounds)
        wall = per_op_median([w for w, _ in rounds])
        lat = per_op_median([s for _, s in rounds])
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        sys.path.insert(0, HERE)
        failed, correct, problems = wl.check()
        for p in problems:
            sys.stderr.write("BENCHMARK INPUT ERROR: %s\n" % p)

        speed = sum(wall) / sum(lat)
        sys.stderr.write(
            "wall clock: setup_s %.4g, %s; the host ran at %.2fx the "
            "reference time (set-up %.2fx)\n"
            % (setup_wall, ", ".join("%s %.4g" % (k, v) for k, (v, _u) in
                                     latency_metrics(wall).items()),
               speed, setup_ref / REFERENCE_S))
        if tracer is None:
            metrics = {"setup_s": (setup_wall * REFERENCE_S / setup_ref, "s"),
                       "peak_rss_mb": (peak_mb, "MB")}
            metrics.update(latency_metrics(lat))
        else:
            from tracing import unit_of
            layer = tracer.layer_metrics()
            metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
            tracer.dump(os.path.join(OUT, "trace-%s.tsv" % args.workload))
            sys.stderr.write("traced: %d spans, %d rounds, %.2f ops/s\n"
                             % (len(tracer.start), len(rounds),
                                len(lat) / sum(lat)))
        result = {"correct": bool(correct), "attempted": attempted,
                  "failed": int(failed),
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
