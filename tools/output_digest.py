"""One sha256 per output family of cubint, to show that a change which
should leave every output alone does so.

    python3 tools/output_digest.py          # one digest per family
    python3 tools/output_digest.py --list   # one digest per output

Families, each run in-process on this checkout's src/:

* check      -- `cubint check` (exit code and JSON report) on the 50
                decide-suite pairs of each of the seeds 1-3, built by
                bench/run.py's generators;
* invariants -- `cubint invariants --symbolic` and `--at=0.3,0.2` on the
                example manifest in README.md;
* geodesic   -- the 56 geodesic-flow operations of seed 5 (exit code,
                report, stderr and the raw bytes of the CSV trajectory,
                line ends included);
* geodesic-abort -- `cubint geodesic` runs that abort (exit code, report,
                stderr and whether a CSV file is left): a float overflow in
                the RK4 right-hand side and one in H, a non-finite state,
                and F failing on the trajectory with and without --csv;
* folding    -- `cubint check` and `cubint invariants --symbolic` on three
                isothermal pairs whose normal forms carry radicals of
                rationals and exp atoms, so exact division takes the
                kernel's tuple loop (_p_div_tuples) on monomials that
                fold, which no other family reaches;
* zero-tests -- every field (kind, method, reason, witness and value, each
                as its repr) of the is_zero verdict on each invariant of
                the example manifest in README.md, in the isothermal lane
                and as the same pair in the general lane, under
                DEFAULT_CFG and two of its with_seed configurations,
                so the NonZero witness selection shows for every
                invariant, not only through an Incompatible report;
* nonrational -- `cubint check` on three isothermal pairs whose
                invariants carry exp and sin atoms, so their NonZero
                verdicts come from enclosures, and every field of the
                is_zero verdict on sin(x)^2 + cos(x)^2 - 1, e*x/10^12 and
                three identities that the normal form does not see
                (Unknown, never Zero);
* tensors    -- the to_str of tensorcoords' holo_residual, split_AB,
                imag_part, div3 and principle_residual on a tensor that
                is not holomorphic over three general metrics (two
                conformal, one not, whose J carries a radical), and
                `cubint check` (exit code and stderr, with the residual's
                value and witness) on a general-lane pair whose A-hat is
                not holomorphic; the other families reach the
                general-lane residual only through all-Zero verdicts.

Temporary paths are replaced by "<tmp>" before hashing.  Compare the
printout of two checkouts; where a family differs, --list names the
outputs that differ.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run as bench  # noqa: E402  (bench/run.py: generators and import_cubint)

CHECK_SEEDS = (1, 2, 3)
GEODESIC_SEED = 5
POINT = "0.3,0.2"


def _cli(cli, argv):
    """cli.main(argv) in-process: (exit code, stdout, stderr).  An
    exception that escapes main is an output too: its type and message
    stand in for the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:
            code = "raised %s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), err.getvalue()


def _readme_manifest() -> str:
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    return re.search(r"```ini\n(.*?)```", text, re.S).group(1)


def check_outputs(cli, tmp):
    for seed in CHECK_SEEDS:
        for item in sorted(bench.DecideSuite(seed, tmp).items,
                           key=lambda it: it["id"]):
            code, out, _err = _cli(cli, ["check", item["manifest"]])
            yield "check/seed%d/%s" % (seed, item["id"]), "%s\n%s" % (code, out)


def invariants_outputs(cli, tmp):
    man = bench.write_file(tmp, "readme.ini", _readme_manifest())
    for flag in ("--symbolic", "--at=" + POINT):
        code, out, _err = _cli(cli, ["invariants", man, flag])
        yield "invariants/" + flag.lstrip("-"), "%s\n%s" % (code, out)


def geodesic_outputs(cli, tmp):
    wl = bench.GeodesicFlow(GEODESIC_SEED, tmp)
    for n, (i, _s0, argv) in enumerate(wl.ops):
        code, out, err = _cli(cli, argv)
        with open(wl.csv, newline="") as fh:
            rows = fh.read()
        os.remove(wl.csv)
        yield ("geodesic/op%02d-pair%d" % (n, i),
               "%s\n%s\n%s\n%s" % (code, out, err, rows))


# (name, lambda, options after the manifest); <F> is an integral file with
# F222 = ln(x), <csv> a path in the temporary directory
ABORTS = (
    ("rk4-overflow", "1 + x^2",
     "--x0 0 --y0 0 --px0 1e200 --py0 0 --steps 3 --dt 0.1"),
    ("H-overflow", "1", "--x0 0 --y0 0 --px0 1e200 --py0 0 --steps 3 "
     "--dt 0.1 --csv <csv>"),
    ("non-finite-state", "1",
     "--x0 0 --y0 0 --px0 1e308 --py0 0 --steps 3 --dt 10"),
    ("F-fails", "1", "--x0 0.05 --y0 0 --px0=-1 --py0 0 --steps 100 "
     "--dt 0.01 --integral <F>"),
    ("F-fails-csv", "1", "--x0 0.05 --y0 0 --px0=-1 --py0 0 --steps 100 "
     "--dt 0.01 --integral <F> --csv <csv>"),
)


def geodesic_abort_outputs(cli, tmp):
    fint = bench.write_file(tmp, "abort-F.ini", "[integral]\nF111 = 0\n"
                            "F112 = 0\nF122 = 0\nF222 = ln(x)\n")
    csv = os.path.join(tmp, "abort.csv")
    for name, lam, opts in ABORTS:
        man = bench.write_file(tmp, "abort-%s.ini" % name, bench.manifest_text(
            dict(lane="iso", metric=[lam], codiff=("0", "0"), box=bench.BOX)))
        argv = ["geodesic", man] + [
            o.replace("<F>", fint).replace("<csv>", csv) for o in opts.split()]
        code, out, err = _cli(cli, argv)
        left = os.path.exists(csv)
        if left:
            os.remove(csv)
        yield ("geodesic-abort/" + name,
               "%s\n%s\n%s\ncsv left: %s" % (code, out, err, left))


# (name, lambda, a_re) of isothermal pairs with a_im = 0
FOLDING = (
    ("radical", "1 + 2^(1/2)*x^2", "1"),
    ("exp", "1 + x^2*exp(y)", "0"),
    ("sqrt", "2 + sqrt(2)*x + y^2", "1"),
)


def folding_outputs(cli, tmp):
    for name, lam, a_re in FOLDING:
        man = bench.write_file(tmp, "folding-%s.ini" % name, bench.manifest_text(
            dict(lane="iso", metric=[lam], codiff=(a_re, "0"), box=bench.BOX)))
        for argv in (["check", man], ["invariants", man, "--symbolic"]):
            code, out, _err = _cli(cli, argv)
            yield "folding/%s/%s" % (name, argv[0]), "%s\n%s" % (code, out)


ZERO_TEST_SEEDS = (1, 2)


def _invariants(rep):
    """(name, expression) of every invariant in an InvariantReport; a
    degenerate bracket leaves K or K* out."""
    yield from zip(("phi0", "phi1", "phi2", "phi3"), rep.phi)
    yield from zip(("D0", "D1", "D2", "D3"), rep.dee)
    yield from zip(("G0", "G1", "G2", "G3"), rep.gee)
    yield from zip(("K1", "K2"), rep.kay or ())
    for name, e in rep.star.items():
        if name == "Kstar":
            yield from zip(("Kstar1", "Kstar2"), e or ())
        else:
            yield name, e
    yield from rep.dforms.items()


def zero_test_outputs(cli, tmp):
    cub = bench.import_cubint()
    from cubint.expr import DEFAULT_CFG
    man = cli.load_manifest(
        bench.write_file(tmp, "readme.ini", _readme_manifest()))
    lam = man.metric.lam
    engines = (
        ("iso", cub.InvariantEngine(man.metric, man.codiff, man.domain)),
        ("general", cub.InvariantEngine(
            cub.general_metric(lam, "0", lam),
            cub.Codifferential.general(cub.a_hat_from_complex(man.codiff.a)),
            man.domain)))
    cfgs = [("default", DEFAULT_CFG)] + [
        ("seed%d" % s, DEFAULT_CFG.with_seed(s)) for s in ZERO_TEST_SEEDS]
    for lane, eng in engines:
        for name, e in _invariants(eng.report()):
            for cname, cfg in cfgs:
                v = cub.is_zero(e, man.domain, cfg)
                yield ("zero-tests/%s/%s/%s" % (lane, name, cname),
                       repr((v.kind, v.method, v.reason, v.witness,
                             v.value)))


# (name, lambda, a_re, a_im) of isothermal pairs, and the expressions
# whose zero tests the nonrational family prints
NONRATIONAL = (
    ("exp-sum", "exp(x) + exp(y)", "1", "0"),
    ("sin", "2 + sin(x+y)", "1", "0"),
    ("exp-killing", "1 + exp(x)", "0", "-1"),
)
NONRATIONAL_ZERO_TESTS = (
    "sin(x)^2 + cos(x)^2 - 1",
    "e*x/10^12",
    "2^(1/2)*3^(1/2) - 6^(1/2)",
    "exp(1 + 1/(1+x^2)) - e*exp(1/(1+x^2))",
    "exp(ln(1 + x^2) + y)*exp(-y) - 1 - x^2",
)


def nonrational_outputs(cli, tmp):
    for name, lam, a_re, a_im in NONRATIONAL:
        man = bench.write_file(tmp, "nonrational-%s.ini" % name,
                               bench.manifest_text(dict(
                                   lane="iso", metric=[lam],
                                   codiff=(a_re, a_im), box=bench.BOX)))
        code, out, _err = _cli(cli, ["check", man])
        yield "nonrational/%s/check" % name, "%s\n%s" % (code, out)
    cub = bench.import_cubint()
    from cubint.expr import Box, parse
    box = Box(*bench.BOX)
    for text in NONRATIONAL_ZERO_TESTS:
        v = cub.is_zero(parse(text), box)
        yield ("nonrational/is_zero/%s" % text,
               repr((v.kind, v.method, v.reason, v.witness, v.value)))


# (g11, g12, g22) of the tensors family
TENSOR_METRICS = (("1 + x^2 + y^2/2", "0", "1 + x^2 + y^2/2"),
                  ("2 + x*y", "0", "2 + x*y"),
                  ("1 + x^2", "x*y/3", "2 + y^2"))
TENSOR = ("x*y", "1 + x", "y^2", "2")
POTENTIAL = "x*y - y^2/3"


def tensor_outputs(cli, tmp):
    cub = bench.import_cubint()
    from cubint.expr import parse, to_str
    from cubint import tensorcoords as tc
    f = tc.SymTensor3(parse(c) for c in TENSOR)
    for g in TENSOR_METRICS:
        m = cub.general_metric(*g)
        name = "tensors/" + ",".join(g)
        yield name + "/holo_residual", repr(tc.holo_residual(m, f))
        yield name + "/split_AB", repr(tc.split_AB(m, f))
        yield name + "/imag_part", repr(tc.imag_part(m, f))
        yield name + "/div3", repr([to_str(w) for row in tc.div3(m, f)
                                    for w in row])
        yield name + "/principle_residual", repr([
            to_str(p) for row in tc.principle_residual(m, parse(POTENTIAL), f)
            for p in row])
    g = TENSOR_METRICS[2]
    man = bench.write_file(tmp, "tensors-check.ini", bench.manifest_text(
        dict(lane="general", metric=g, codiff=("x", "-y"), box=bench.BOX)))
    code, out, err = _cli(cli, ["check", man])
    yield "tensors/check-not-holomorphic", "%s\n%s\n%s" % (code, out, err)


FAMILIES = (("check", check_outputs), ("invariants", invariants_outputs),
            ("geodesic", geodesic_outputs),
            ("geodesic-abort", geodesic_abort_outputs),
            ("folding", folding_outputs),
            ("zero-tests", zero_test_outputs), ("tensors", tensor_outputs),
            ("nonrational", nonrational_outputs))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--list", action="store_true",
                    help="also print a digest for each output")
    args = ap.parse_args(argv)
    cli = bench.import_cubint().cli
    tmp = tempfile.mkdtemp(prefix="digest-")
    try:
        for family, outputs in FAMILIES:
            total = hashlib.sha256()
            for name, text in outputs(cli, tmp):
                data = text.replace(tmp, "<tmp>").encode()
                total.update(hashlib.sha256(data).digest())
                if args.list:
                    print("%s  %s" % (hashlib.sha256(data).hexdigest(), name))
            print("%s  %s" % (total.hexdigest(), family))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
