"""Manifest-driven command-line frontend with JSON reporting.

A manifest is a sectioned INI file describing one (metric, codifferential)
pair, the probing domain and the tolerances::

    [metric]
    kind = isothermal          ; isothermal | general | null
    lambda = 1 + x^2           ; isothermal/null lanes
    ;g11 = ... g12 = ... g22 = ...   (general lane)

    [codifferential]
    kind = isothermal-complex  ; isothermal-complex | general-real | null-pair
    a_re = 0
    a_im = -1
    ;a1 = ... a2 = ...               (null-pair lane)
    ;a111 = ... a112 = ... a122 = ... a222 = ...  (general-real lane)

    [domain]
    x_min = -1
    x_max = 1
    y_min = -1
    y_max = 1
    samples = 64
    seed = 10007

    [tolerances]               ; optional
    abs = 1e-9
    rel = 1e-9
    drift = 1e-8

Subcommands: `check` (decision walk), `invariants` (report surface),
`verify` (bracket certificate for a supplied integral), `geodesic`
(RK4 flow with drift summary and optional CSV trajectory).  JSON goes to
stdout, diagnostics to stderr.  Exit codes: 0 compatible / all clear,
1 incompatible / threshold exceeded, 2 undetermined, 64 input error.
The reports are schema-versioned and byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from typing import Dict, Optional, Tuple

from .decision import Verdict, decide
from .expr import (Box, EvalDomainError, Expr, ExpressionSyntaxError,
                   OrderCapExceeded, UnknownIdentifier, ZeroTestConfig,
                   ZeroVerdict, eval_at, parse, simplify, to_str)
from .geometry import (ChartMismatch, Metric, general_metric,
                       isothermal_metric, null_metric)
from .invariants import (Codifferential, HolomorphicityViolated,
                         InvariantEngine)
from .pseudo import decide_pseudo
from .tensorcoords import SymTensor3
from .verify import (MomentumPoly, bracket_certificate, conservation_report,
                     export_csv, integrate_geodesic)

__all__ = ["main", "load_manifest", "REPORT_VERSION"]

REPORT_VERSION = 1

EXIT_COMPATIBLE = 0
EXIT_INCOMPATIBLE = 1
EXIT_UNDETERMINED = 2
EXIT_INPUT_ERROR = 64

_METRIC_KINDS = ("isothermal", "general", "null")
_CODIFF_KINDS = ("isothermal-complex", "general-real", "null-pair")
# the chart-adapted encodings pair up strictly
_KIND_PAIRING = {"isothermal-complex": "isothermal",
                 "general-real": "general",
                 "null-pair": "null"}


class ManifestError(ValueError):
    """Any defect in the manifest or the command inputs (exit 64)."""


class Manifest:
    """Parsed manifest: the pair plus probing domain and tolerances."""

    __slots__ = ("metric", "codiff", "domain", "cfg", "seed", "drift_tol",
                 "metric_kind", "codiff_kind")

    def __init__(self, metric, codiff, domain, cfg, seed, drift_tol,
                 metric_kind, codiff_kind):
        self.metric = metric
        self.codiff = codiff
        self.domain = domain
        self.cfg = cfg
        self.seed = seed
        self.drift_tol = drift_tol
        self.metric_kind = metric_kind
        self.codiff_kind = codiff_kind


def _parse_expr(section, key: str, where: str) -> Expr:
    if key not in section:
        raise ManifestError("missing key %r in [%s]" % (key, where))
    try:
        return parse(section[key])
    except (ExpressionSyntaxError, UnknownIdentifier) as exc:
        raise ManifestError("bad expression for %s.%s: %s"
                            % (where, key, exc)) from exc


def _get_float(section, key: str, default: float, where: str) -> float:
    if key not in section:
        return default
    try:
        return float(section[key])
    except ValueError as exc:
        raise ManifestError("bad number for %s.%s: %r"
                            % (where, key, section[key])) from exc


def _get_int(section, key: str, default: Optional[int], where: str):
    if key not in section:
        return default
    try:
        return int(section[key])
    except ValueError as exc:
        raise ManifestError("bad integer for %s.%s: %r"
                            % (where, key, section[key])) from exc


def load_manifest(path: str) -> Manifest:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ManifestError("cannot read manifest %s: %s" % (path, exc))
    except configparser.Error as exc:
        raise ManifestError("manifest syntax: %s" % exc)

    for name in ("metric", "codifferential"):
        if name not in cp:
            raise ManifestError("manifest needs a [%s] section" % name)

    msec = cp["metric"]
    mkind = msec.get("kind", "").strip()
    if mkind not in _METRIC_KINDS:
        raise ManifestError("metric.kind must be one of %s, got %r"
                            % ("/".join(_METRIC_KINDS), mkind))
    if mkind == "isothermal":
        metric = isothermal_metric(_parse_expr(msec, "lambda", "metric"))
    elif mkind == "null":
        metric = null_metric(_parse_expr(msec, "lambda", "metric"))
    else:
        metric = general_metric(_parse_expr(msec, "g11", "metric"),
                                _parse_expr(msec, "g12", "metric"),
                                _parse_expr(msec, "g22", "metric"))

    csec = cp["codifferential"]
    ckind = csec.get("kind", "").strip()
    if ckind not in _CODIFF_KINDS:
        raise ManifestError("codifferential.kind must be one of %s, got %r"
                            % ("/".join(_CODIFF_KINDS), ckind))
    if _KIND_PAIRING[ckind] != mkind:
        raise ManifestError(
            "codifferential kind %r requires a %s metric, got %r"
            % (ckind, _KIND_PAIRING[ckind], mkind))
    if ckind == "isothermal-complex":
        codiff = Codifferential.isothermal((csec.get("a_re", "0"),
                                            csec.get("a_im", "0")))
    elif ckind == "null-pair":
        codiff = Codifferential.null_pair(
            _parse_expr(csec, "a1", "codifferential"),
            _parse_expr(csec, "a2", "codifferential"))
    else:
        codiff = Codifferential.general(SymTensor3(tuple(
            _parse_expr(csec, k, "codifferential")
            for k in ("a111", "a112", "a122", "a222"))))

    dsec = cp["domain"] if "domain" in cp else {}
    x_min = _get_float(dsec, "x_min", -1.0, "domain")
    x_max = _get_float(dsec, "x_max", 1.0, "domain")
    y_min = _get_float(dsec, "y_min", -1.0, "domain")
    y_max = _get_float(dsec, "y_max", 1.0, "domain")
    if not (x_min < x_max and y_min < y_max):
        raise ManifestError("degenerate domain box")
    domain = Box(x_min, x_max, y_min, y_max)
    samples = _get_int(dsec, "samples", 64, "domain")
    seed = _get_int(dsec, "seed", None, "domain")

    tsec = cp["tolerances"] if "tolerances" in cp else {}
    abs_tol = _get_float(tsec, "abs", 1e-9, "tolerances")
    rel_tol = _get_float(tsec, "rel", 1e-9, "tolerances")
    drift_tol = _get_float(tsec, "drift", 1e-8, "tolerances")

    cfg = ZeroTestConfig(n_probes=samples, abs_tol=abs_tol, rel_tol=rel_tol)
    if seed is not None:
        cfg = cfg.with_seed(seed)
    return Manifest(metric, codiff, domain, cfg, seed, drift_tol,
                    mkind, ckind)


# ------------------------------------------------------------------ reporting

def _verdict_json(v: Optional[ZeroVerdict]):
    if v is None:
        return None
    out = {"kind": v.kind}
    if v.method is not None:
        out["method"] = v.method
    if v.witness is not None:
        out["witness"] = [float(v.witness[0]), float(v.witness[1])]
    if v.value is not None:
        out["value"] = float(v.value)
    if v.reason is not None:
        out["reason"] = v.reason
    return out


def _tensor_json(t: Optional[SymTensor3]):
    if t is None:
        return None
    names = ("F111", "F112", "F122", "F222")
    return {n: to_str(simplify(c)) for n, c in zip(names, t.c)}


def _certificate_json(cert):
    if cert is None:
        return None
    return {"px^%d py^%d" % k: _verdict_json(v)
            for k, v in sorted(cert.items())}


def _base_report(man: Manifest, command: str) -> dict:
    return {
        "report_version": REPORT_VERSION,
        "command": command,
        "metric_kind": man.metric_kind,
        "codifferential_kind": man.codiff_kind,
        "domain": [man.domain.x_min, man.domain.x_max,
                   man.domain.y_min, man.domain.y_max],
        "seeds": list(man.cfg.seeds),
    }


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


# ----------------------------------------------------------------- subcommands

def _verdict_exit(v: Verdict) -> int:
    if v.is_compatible:
        return EXIT_COMPATIBLE
    if v.is_incompatible:
        return EXIT_INCOMPATIBLE
    return EXIT_UNDETERMINED


def cmd_check(args) -> int:
    man = load_manifest(args.manifest)
    if man.metric.kind == "null":
        v = decide_pseudo(man.metric, man.codiff, man.domain, man.cfg)
    else:
        v = decide(man.metric, man.codiff, man.domain, man.cfg)
    code = _verdict_exit(v)
    report = _base_report(man, "check")
    report.update({
        "status": v.status,
        "exit_code": code,
        "trace": [{"box": s.box, "verdict": _verdict_json(s.verdict)}
                  for s in v.trace],
        "via": v.via,
        "note": v.note,
        "failed": v.failed,
        "witness": (None if v.witness is None
                    else [float(v.witness[0]), float(v.witness[1])]),
        "witness_value": (None if v.witness_value is None
                          else float(v.witness_value)),
        "reason": v.reason,
        "F": _tensor_json(v.f),
        "certificate": _certificate_json(v.certificate),
    })
    _emit(report)
    return code


_REPORT_KEYS = (
    ("phi", ("phi0", "phi1", "phi2", "phi3")),
    ("dee", ("D0", "D1", "D2", "D3")),
    ("gee", ("G0", "G1", "G2", "G3")),
)


def _invariant_value(e: Expr, mode: str, at: Optional[Tuple[float, float]]):
    if e is None:
        return None
    if mode == "symbolic":
        return to_str(simplify(e))
    try:
        return float(eval_at(e, at))
    except (EvalDomainError, ZeroDivisionError, OverflowError):
        return None


def cmd_invariants(args) -> int:
    if args.at is None and not args.symbolic:
        raise ManifestError("invariants needs --at X,Y or --symbolic")
    if args.at is not None and args.symbolic:
        raise ManifestError("--at and --symbolic are mutually exclusive")
    at = None
    mode = "symbolic"
    if args.at is not None:
        try:
            xs, ys = args.at.split(",")
            at = (float(xs), float(ys))
        except ValueError:
            raise ManifestError("--at wants two numbers, e.g. --at 0.3,0.7")
        mode = "at"

    man = load_manifest(args.manifest)
    eng = InvariantEngine(man.metric, man.codiff, man.domain, man.cfg)
    rep = eng.report()

    inv: Dict[str, object] = {}
    for attr, names in _REPORT_KEYS:
        for name, e in zip(names, getattr(rep, attr)):
            inv[name] = _invariant_value(e, mode, at)
    inv["K"] = (None if rep.kay is None else
                [_invariant_value(c, mode, at) for c in rep.kay])
    for name, e in rep.star.items():
        if name == "Kstar":
            inv[name] = (None if e is None else
                         [_invariant_value(c, mode, at) for c in e])
        else:
            inv[name] = _invariant_value(e, mode, at)
    for name, e in rep.dforms.items():
        inv[name] = _invariant_value(e, mode, at)

    report = _base_report(man, "invariants")
    report.update({
        "mode": mode,
        "point": None if at is None else [at[0], at[1]],
        "invariants": inv,
        "tags": rep.tags,
    })
    _emit(report)
    return EXIT_COMPATIBLE


def _load_integral(path: str) -> SymTensor3:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ManifestError("cannot read integral file %s: %s" % (path, exc))
    except configparser.Error as exc:
        raise ManifestError("integral file syntax: %s" % exc)
    if "integral" not in cp:
        raise ManifestError("integral file needs an [integral] section")
    sec = cp["integral"]
    return SymTensor3(tuple(_parse_expr(sec, k, "integral")
                            for k in ("F111", "F112", "F122", "F222")))


def cmd_verify(args) -> int:
    man = load_manifest(args.manifest)
    f = _load_integral(args.integral)
    cert = bracket_certificate(man.metric, f.to_momentum_poly(),
                               man.domain, man.cfg)
    kinds = {v.kind for v in cert.values()}
    if "nonzero" in kinds:
        code = EXIT_INCOMPATIBLE
    elif "unknown" in kinds:
        code = EXIT_UNDETERMINED
    else:
        code = EXIT_COMPATIBLE
    report = _base_report(man, "verify")
    report.update({
        "F": _tensor_json(f),
        "certificate": _certificate_json(cert),
        "all_zero": code == EXIT_COMPATIBLE,
        "exit_code": code,
    })
    _emit(report)
    return code


def cmd_geodesic(args) -> int:
    man = load_manifest(args.manifest)
    if args.dt <= 0:
        raise ManifestError("--dt must be positive")
    if args.steps <= 0:
        raise ManifestError("--steps must be positive")
    f_poly: Optional[MomentumPoly] = None
    if args.integral is not None:
        f_poly = _load_integral(args.integral).to_momentum_poly()
    state0 = (args.x0, args.y0, args.px0, args.py0)
    aborted = False
    try:
        traj = integrate_geodesic(man.metric, state0, args.dt, args.steps)
    except EvalDomainError as exc:
        sys.stderr.write("integration aborted: %s\n" % exc)
        aborted = True
        traj = []
    report = _base_report(man, "geodesic")
    report.update({
        "state0": [float(v) for v in state0],
        "dt": args.dt,
        "steps_requested": args.steps,
        "aborted": aborted,
        "drift_tolerance": man.drift_tol,
    })
    if traj:
        summary = conservation_report(man.metric, traj, f_poly)
        ok = summary["H_drift"] < man.drift_tol and (
            f_poly is None or summary["F_drift"] < man.drift_tol)
        report["conservation"] = summary
        report["within_tolerance"] = ok
        if args.csv is not None:
            export_csv(args.csv, man.metric, traj, f_poly)
            report["csv"] = args.csv
        code = EXIT_COMPATIBLE if ok else EXIT_INCOMPATIBLE
    else:
        report["conservation"] = None
        report["within_tolerance"] = False
        code = EXIT_INCOMPATIBLE
    _emit(report)
    return code


# ----------------------------------------------------------------- entry point

class _Parser(argparse.ArgumentParser):
    """argparse whose usage failures use the input-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        sys.exit(EXIT_INPUT_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="cubint",
                  description="cubic first integrals of 2-D geodesic flows")
    sub = top.add_subparsers(dest="subcommand", required=True,
                             parser_class=_Parser)

    p = sub.add_parser("check", help="run the compatibility decision")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="report the invariant surface")
    p.add_argument("manifest")
    p.add_argument("--at", metavar="X,Y",
                   help="evaluate every invariant at the point")
    p.add_argument("--symbolic", action="store_true",
                   help="print canonical expression strings instead")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify",
                       help="bracket certificate for a supplied integral")
    p.add_argument("manifest")
    p.add_argument("--integral", required=True,
                   help="INI file with [integral] F111..F222")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("geodesic", help="integrate the geodesic flow")
    p.add_argument("manifest")
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--y0", type=float, required=True)
    p.add_argument("--px0", type=float, required=True)
    p.add_argument("--py0", type=float, required=True)
    p.add_argument("--steps", type=int, default=10000)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--integral", default=None,
                   help="also track this integral's drift")
    p.add_argument("--csv", default=None,
                   help="write the trajectory to this CSV file")
    p.set_defaults(func=cmd_geodesic)
    return top


_START_OPTIONS = ("--x0", "--y0", "--px0", "--py0")


def _attach_start_values(argv):
    """Rewrite "--x0 -7.8e-05" as "--x0=-7.8e-05": argparse reads a separate
    negative value in exponent notation as an option flag."""
    out = []
    for a in argv:
        if out and out[-1] in _START_OPTIONS and a.startswith("-") \
                and _is_float(a):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_start_values(argv))
    try:
        return args.func(args)
    except ManifestError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return EXIT_INPUT_ERROR
    except (ExpressionSyntaxError, UnknownIdentifier, ChartMismatch,
            HolomorphicityViolated, OrderCapExceeded) as exc:
        sys.stderr.write("input error: %s: %s\n"
                         % (type(exc).__name__, exc))
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
