import ast
import collections
import importlib
import pathlib
import pkgutil
import tracemalloc
from fractions import Fraction

import pytest

import cubint

# `cubint.__main__` runs the command line when imported
MODULES = sorted("cubint." + m.name for m in pkgutil.iter_modules(cubint.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    str(p.relative_to(ROOT))
    for p in [*(ROOT / "src" / "cubint").glob("*.py"),
              *(ROOT / "tests").glob("*.py"),
              *(ROOT / "tools").glob("*.py")]
    # the package's __init__ imports names to re-export them
    if p.relative_to(ROOT).as_posix() != "src/cubint/__init__.py")


def _unused_imports(tree):
    imported = {}       # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        # a quoted annotation names what it uses inside the string
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES)
def test_no_unused_imports(path):
    tree = ast.parse((ROOT / path).read_text(), path)
    assert _unused_imports(tree) == []


PACKAGE = sorted(str(p.relative_to(ROOT))
                 for p in (ROOT / "src" / "cubint").glob("*.py"))


def _empty_containers(tree):
    """Names bound at module level to an empty dict, list or set: state
    that every caller and thread in the process would share."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        empty = (isinstance(value, ast.Dict) and not value.keys
                 or isinstance(value, ast.List) and not value.elts
                 or isinstance(value, ast.Call)
                 and isinstance(value.func, ast.Name)
                 and value.func.id in ("dict", "list", "set")
                 and not value.args and not value.keywords)
        if empty:
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


@pytest.mark.parametrize("path", PACKAGE)
def test_no_shared_mutable_state(path):
    tree = ast.parse((ROOT / path).read_text(), path)
    assert _empty_containers(tree) == []


def _private_definitions(tree):
    """(name, node) for each module-level private def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _name_uses(tree):
    """Names read, attributes taken and names imported in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_no_dead_private_code():
    # a private name that nothing in the package reads outside its own
    # definition is dead code; __all__ strings do not count as a use
    trees = [ast.parse((ROOT / path).read_text(), path) for path in PACKAGE]
    uses = collections.Counter(n for t in trees for n in _name_uses(t))
    dead = [f"{path}: {name}" for path, tree in zip(PACKAGE, trees)
            for name, node in _private_definitions(tree)
            if uses[name] == list(_name_uses(node)).count(name)]
    assert dead == []


def test_generated_code_reads_every_bound_global(monkeypatch):
    # a name bound for the compiled evaluators that none of them reads is
    # dead; the corpus reaches every branch of the compiler
    from cubint import expr, verify
    from cubint.geometry import isothermal_metric
    made = []

    def kept(*roots, **kw):
        made.append(expr.compile_float(*roots, **kw))
        return made[-1]
    monkeypatch.setattr(verify, "compile_float", kept)
    m = isothermal_metric("1 + x^2")
    traj = verify.integrate_geodesic(m, (0.1, 0.2, 0.3, -0.1), 1e-3, 2)
    verify.conservation_report(
        m, traj, verify.MomentumPoly({(0, 3): expr.parse("x")}))
    assert len(made) == 2
    x = expr.Var("x")
    made.append(expr.compile_float(
        *(expr.Func(name, x) for name in expr.FUNCTIONS),
        expr.Pow(x, Fraction(-2)), expr.Pow(x, Fraction(-1, 2)),
        expr.Pow(x, Fraction(3, 2)), expr.Rat(10 ** 400)))
    read = {n for f in made for n in f.__code__.co_names}
    assert sorted(set(expr._EVAL_GLOBALS) - {"__builtins__"} - read) == []


# modules whose formulas combine normal forms (nf_sum, nf_mul, nf_diff): an
# operator tree built only to be simplified is the round trip they replaced
NF_NATIVE = ("cnum", "geometry", "invariants", "pseudo", "tensorcoords",
             "verify")


def _simplified_operator_trees(tree):
    """Lines where simplify() is called on an arithmetic expression."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name) and node.func.id == "simplify"
            and any(isinstance(a, (ast.BinOp, ast.UnaryOp))
                    for a in node.args)]


@pytest.mark.parametrize("name", NF_NATIVE)
def test_no_operator_tree_built_to_be_simplified(name):
    path = ROOT / "src" / "cubint" / (name + ".py")
    assert _simplified_operator_trees(ast.parse(path.read_text())) == []


def _params(fn):
    a = fn.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                            *filter(None, (a.vararg, a.kwarg)))]


def _unread_parameters(tree):
    """(line, function, parameter) for each parameter of a def or lambda
    that its body never reads; self, cls and _-prefixed names are exempt."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for b in body for n in ast.walk(b)
                if isinstance(n, ast.Name)}
        out += [(node.lineno, getattr(node, "name", "lambda"), p)
                for p in _params(node)
                if p not in read and p not in ("self", "cls")
                and not p.startswith("_")]
    return out


@pytest.mark.parametrize("path", PACKAGE)
def test_no_unread_parameters(path):
    tree = ast.parse((ROOT / path).read_text(), path)
    assert _unread_parameters(tree) == []


def _foreign_override(path, cls_name, name):
    """Whether method name of class cls_name, defined in path, overrides
    a base outside the package, such as argparse's ArgumentParser.error."""
    mod = importlib.import_module("cubint." + pathlib.Path(path).stem)
    cls = getattr(mod, cls_name, None)
    return cls is not None and any(
        name in vars(base) for base in cls.__mro__[1:]
        if not base.__module__.startswith("cubint"))


def test_no_unread_public_functions():
    # a public function or method whose name no file of the repository
    # reads outside its own definition is a dead entry point
    readers = [p for d in ("src", "tests", "bench", "tools")
               for p in sorted((ROOT / d).rglob("*.py"))]
    uses = collections.Counter(
        n for p in readers for n in _name_uses(ast.parse(p.read_text())))
    dead = []
    for path in PACKAGE:
        tree = ast.parse((ROOT / path).read_text(), path)
        scopes = [(None, tree)] + [(c.name, c) for c in tree.body
                                   if isinstance(c, ast.ClassDef)]
        for cls_name, scope in scopes:
            for node in scope.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")
                        and uses[node.name]
                        == list(_name_uses(node)).count(node.name)
                        and not (cls_name and _foreign_override(
                            path, cls_name, node.name))):
                    dead.append(f"{path}: {cls_name or ''}.{node.name}")
    assert dead == []


def test_compile_peak_of_each_module_stays_below_the_step():
    # CPython's parser keeps a module's tokens in an array that doubles in
    # size; expr.py at 16 384 tokens (NEWLINE, INDENT and DEDENT included)
    # takes compile()'s traced peak from about 5.7 to 6.5 MiB, and
    # decide-suite's and geodesic-flow's peak_rss_mb follow it by about
    # 0.9 MB whether or not the new code runs
    peaks = {}
    for path in PACKAGE:
        src = (ROOT / path).read_text()
        tracemalloc.start()
        try:
            compile(src, path, "exec")
            peaks[path] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert {p: v for p, v in peaks.items() if v >= 6.0} == {}
