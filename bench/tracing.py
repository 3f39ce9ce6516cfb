"""Per-layer tracing of cubint from outside the package.

`Tracer.install()` wraps the public functions of every cubint module in
each namespace that holds them (a name imported with `from .expr import
...` is rebound in the importing module as well), the InvariantEngine
properties on the class, and the cli rendering helpers.  Every call
records a span (name, start, end, parent, operation id) in flat arrays;
`layer_metrics()` turns them into the per-layer counts and self times
(self time = span duration minus the duration of its child spans), and
`dump()` writes the spans out.  Only the traced run installs it.
"""

from __future__ import annotations

import time
import weakref
from array import array

_MODULES = ("expr", "cnum", "geometry", "tensorcoords", "invariants",
            "verify", "decision", "pseudo", "cli")

# (module, function names, span name)
_FUNCTIONS = (
    ("expr", ("simplify", "simplify_with_notes", "nf_is_zero"),
     "expr.simplify"),
    ("expr", ("diff",), "expr.diff"),
    ("expr", ("parse",), "expr.parse"),
    ("expr", ("is_zero",), "expr.is_zero"),
    ("expr", ("eval_at", "eval_scaled"), "expr.eval"),
    ("cnum", ("wirtinger_z", "wirtinger_zbar", "parse_complex",
              "is_holomorphic"), "cnum"),
    ("geometry", ("isothermal_metric", "null_metric", "general_metric",
                  "christoffel", "gauss_curvature", "grad_pairing",
                  "grad_half_square", "poisson_g", "laplacian",
                  "complex_structure", "nabla10", "nabla01"), "geometry"),
    ("tensorcoords", ("a_hat_from_complex", "sym3_from_momentum_poly",
                      "split_AB", "imag_part", "cov_deriv3", "div3", "div2",
                      "div1", "holo_residual", "principle_residual"),
     "tensorcoords"),
    ("decision", ("decide", "_decision_walk"), "decision"),
    ("pseudo", ("decide_pseudo", "quasi_holo_check", "bracket_FH_null",
                "normal_form_metric"), "pseudo"),
    ("verify", ("bracket_certificate",), "verify.certificate"),
    ("verify", ("canonical_bracket_FH", "bracket_FH"), "verify.bracket"),
    ("verify", ("integrate_geodesic",), "verify.rk4"),
    ("verify", ("compile_expr", "compile_momentum_poly"), "verify.compile"),
    ("verify", ("conservation_report",), "verify.conservation"),
    ("verify", ("export_csv",), "verify.csv"),
    ("cli", ("main",), "cli.main"),
    ("cli", ("load_manifest", "_load_integral"), "cli.manifest"),
    ("cli", ("_base_report", "_verdict_json", "_tensor_json",
             "_certificate_json", "_emit"), "cli.report"),
)

# InvariantEngine properties, grouped as the per-layer metrics name them
_INVARIANT_PROPS = {
    "invariants.phi": ("phi0", "phi1", "phi2", "phi3"),
    "invariants.dee": ("dee0", "dee1", "dee2", "dee3"),
    "invariants.gee": ("gee0", "gee1", "gee2", "gee3", "gee2_det",
                       "gee3_det", "geestar2_det", "geestar3_det"),
    "invariants.star": ("phistar1", "phistar2", "phistar3", "deestar1",
                        "deestar2", "deestar3", "geestar2", "geestar3",
                        "kaystar"),
    "invariants.kay": ("kay",),
    "invariants.dform": ("dform_x", "dform_y", "dformstar_x",
                         "dformstar_y"),
}
_INVARIANT_METHODS = (("f_tensor", "invariants.kay"),
                      ("b_hat", "invariants.kay"),
                      ("report", "invariants.report"),
                      ("check_holomorphic", "invariants.holo"))
_METRIC_PROPS = ("det", "mu", "omega12", "inv", "log_lam", "u_z", "u_zbar",
                 "u_x", "u_y")

PER_LAYER = (
    "expr.simplify.calls", "expr.simplify.self_s", "expr.diff.calls",
    "expr.diff.self_s", "expr.parse.self_s",
    "expr.is_zero.calls", "expr.is_zero.self_s", "expr.is_zero.zero_symbolic",
    "expr.is_zero.zero_probed", "expr.is_zero.nonzero",
    "expr.is_zero.unknown", "expr.is_zero.symbolic_ratio",
    "expr.eval.points", "expr.eval.self_s",
    "geometry.calls", "geometry.self_s",
    "cnum.self_s", "tensorcoords.self_s",
    "invariants.phi.self_s", "invariants.dee.self_s",
    "invariants.gee.self_s", "invariants.star.self_s",
    "invariants.kay.self_s", "invariants.dform.self_s",
    "invariants.built", "invariants.used_ratio", "invariants.nodes",
    "decision.self_s", "decision.boxes", "pseudo.self_s",
    "verify.certificate.calls", "verify.certificate.coeffs",
    "verify.certificate.self_s",
    "verify.rk4.steps", "verify.rk4.self_s", "verify.compile.self_s",
    "verify.conservation.self_s",
    "cli.main.calls", "cli.manifest.self_s", "cli.report.self_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def tree_size(e, memo) -> int:
    """Node count of an expression tree (shared subtrees counted per use)."""
    key = id(e)
    got = memo.get(key)
    if got is not None:
        return got
    kids = (getattr(e, "terms", None) or getattr(e, "factors", None)
            or tuple(k for k in (getattr(e, "base", None),
                                 getattr(e, "arg", None)) if k is not None))
    n = 1 + sum(tree_size(k, memo) for k in kids)
    memo[key] = n
    return n


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = [-1]
        self.counts = {"expr.is_zero.zero_symbolic": 0,
                       "expr.is_zero.zero_probed": 0,
                       "expr.is_zero.nonzero": 0, "expr.is_zero.unknown": 0,
                       "decision.boxes": 0, "verify.certificate.coeffs": 0,
                       "verify.rk4.steps": 0}
        self._built = weakref.WeakKeyDictionary()
        self._invariants = {}     # id -> expression, keeps ids unique
        self._used = set()
        self._restore = []

    # -- span recording ----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn, name, after=None):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(stack[-1])
            tr.op.append(tr.current_op)
            tr.end.append(0.0)
            stack.append(idx)
            tr.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- outcome hooks -----------------------------------------------------
    def _after_is_zero(self, args, v):
        if v.kind == "zero":
            key = ("expr.is_zero.zero_symbolic" if v.method == "symbolic"
                   else "expr.is_zero.zero_probed")
        else:
            key = "expr.is_zero." + v.kind
        self.counts[key] += 1
        if args and id(args[0]) in self._invariants:
            self._used.add(id(args[0]))

    def _after_decide(self, args, v):
        # decide and decide_pseudo never call each other
        self.counts["decision.boxes"] += len(v.trace)

    def _after_certificate(self, args, cert):
        self.counts["verify.certificate.coeffs"] += len(cert)

    def _after_rk4(self, args, traj):
        self.counts["verify.rk4.steps"] += max(len(traj) - 1, 0)

    def _property(self, prop, name, key):
        tr = self
        getter = self._wrap(prop.fget, name)

        def fget(eng):
            out = getter(eng)
            seen = tr._built.setdefault(eng, set())
            if key not in seen:
                seen.add(key)
                for e in (out if isinstance(out, tuple) else (out,)):
                    tr._invariants[id(e)] = e
            return out
        return property(fget, doc=prop.__doc__)

    # -- installation ------------------------------------------------------
    def install(self):
        import importlib
        pkg = importlib.import_module("cubint")
        mods = {m: importlib.import_module("cubint." + m) for m in _MODULES}
        spaces = [pkg] + list(mods.values())
        after = {"expr.is_zero": self._after_is_zero,
                 "verify.certificate": self._after_certificate,
                 "verify.rk4": self._after_rk4}
        for mod_name, fnames, span in _FUNCTIONS:
            for fname in fnames:
                orig = getattr(mods[mod_name], fname, None)
                if orig is None:
                    continue
                hook = after.get(span)
                if fname in ("decide", "decide_pseudo"):
                    hook = self._after_decide
                wrapped = self._wrap(orig, span, hook)
                for ns in spaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._restore.append((ns, attr, orig))
                            setattr(ns, attr, wrapped)
        eng_cls = mods["invariants"].InvariantEngine
        for span, props in _INVARIANT_PROPS.items():
            for p in props:
                orig = eng_cls.__dict__.get(p)
                if isinstance(orig, property):
                    self._restore.append((eng_cls, p, orig))
                    setattr(eng_cls, p, self._property(orig, span, p))
        for meth, span in _INVARIANT_METHODS:
            orig = eng_cls.__dict__.get(meth)
            if orig is not None:
                self._restore.append((eng_cls, meth, orig))
                setattr(eng_cls, meth, self._wrap(orig, span))
        metric_cls = mods["geometry"].Metric
        for p in _METRIC_PROPS:
            orig = metric_cls.__dict__.get(p)
            if isinstance(orig, property):
                self._restore.append((metric_cls, p, orig))
                setattr(metric_cls, p,
                        property(self._wrap(orig.fget, "geometry")))

    def uninstall(self):
        for ns, attr, orig in reversed(self._restore):
            setattr(ns, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def layer_metrics(self) -> dict:
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = {}
        calls = {}
        for i in range(n):
            nm = self.names[self.name[i]]
            self_s[nm] = self_s.get(nm, 0.0) + dur[i] - child[i]
            calls[nm] = calls.get(nm, 0) + 1
        counts = self.counts
        zeros = counts["expr.is_zero.zero_symbolic"] + \
            counts["expr.is_zero.zero_probed"]
        memo = {}
        built = len(self._invariants)
        out = {}
        for m in PER_LAYER:
            base, _, kind = m.rpartition(".")
            if kind == "self_s":
                out[m] = self_s.get(base, 0.0)
            elif kind == "calls":
                out[m] = calls.get(base, 0)
            elif m in counts:
                out[m] = counts[m]
            elif m == "expr.eval.points":
                out[m] = calls.get("expr.eval", 0)
            elif m == "expr.is_zero.symbolic_ratio":
                out[m] = (counts["expr.is_zero.zero_symbolic"] / zeros
                          if zeros else 0.0)
            elif m == "invariants.built":
                out[m] = built
            elif m == "invariants.used_ratio":
                out[m] = len(self._used) / built if built else 0.0
            elif m == "invariants.nodes":
                out[m] = sum(tree_size(e, memo)
                             for e in self._invariants.values())
            else:
                raise KeyError(m)
        return out

    def dump(self, path: str):
        """Write the spans as tab-separated lines:
        name, start, end, parent index, operation id."""
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for i in range(len(self.start)):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[self.name[i]], self.start[i], self.end[i],
                    self.parent[i], self.op[i]))
