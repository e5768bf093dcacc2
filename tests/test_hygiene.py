"""Static hygiene of the package sources: every imported name is used,
every import sits at module level, every module-level private helper and
constant has a reader, every dataclass field is read somewhere, no
module imports or reads another module's private names, the expression
compiler is the only place that runs generated code, no module has a
``global`` statement, no module calls an ODE solver of
``scipy.integrate`` (the package steps on its own DOP853), no try
statement wraps a batched flow (it never fails as a whole), no module
imports scipy (its private ``_ivp`` package included):
``scipy.integrate`` is bound only at the top of ``weight`` through
``lazy_module``, so it loads when ``quad`` first runs; ``__all__`` lists
exactly the names the package imports, and every layer the benchmark
tracer wraps exists in the package.

No linter ships with the toolchain, so these AST scans keep unused
imports, orphaned helpers and write-only fields from creeping back into
the library modules.
"""

import ast
import collections
import importlib
import importlib.util
import pathlib
import sys
import types

import pytest

import indefinite_bvp

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "indefinite_bvp"
MODULES = sorted(f for f in PACKAGE.glob("*.py") if f.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_flags_unused_names():
    src = ("from __future__ import annotations\n"
           "import math\nimport numpy as np\n"
           "from os import path, sep\n"
           "x = np.pi + len(sep)\n")
    assert unused_imports(src) == ["math", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda f: f.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def function_imports(source):
    """Line numbers of the import statements inside function bodies."""
    return sorted({node.lineno
                   for fn in ast.walk(ast.parse(source))
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_scan_flags_function_imports():
    src = ("import math\n\n"
           "def f():\n    import os\n    return os\n\n"
           "class C:\n    def m(self):\n"
           "        def inner():\n            from . import x\n"
           "            return x\n        return inner\n\n"
           "try:\n    import json\nexcept ImportError:\n    json = None\n")
    assert function_imports(src) == [4, 10]


@pytest.mark.parametrize("path", MODULES, ids=lambda f: f.name)
def test_imports_at_module_level(path):
    # a function-local import hides a module's dependencies
    assert function_imports(path.read_text(encoding="utf-8")) == []


DYNAMIC_CODE = {"eval", "exec", "compile"}


def dynamic_code_calls(source):
    """Names of the dynamic-code builtins the module calls."""
    return sorted(node.func.id for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in DYNAMIC_CODE)


def test_scan_flags_dynamic_code():
    src = "import re\nx = eval('1')\nre.compile('a')\nexec(x)\n"
    assert dynamic_code_calls(src) == ["eval", "exec"]


@pytest.mark.parametrize("path", MODULES, ids=lambda f: f.name)
def test_dynamic_code_only_in_expressions(path):
    # expressions.py compiles parsed trees; nothing else runs generated code
    calls = dynamic_code_calls(path.read_text(encoding="utf-8"))
    if path.name == "expressions.py":
        assert calls == ["compile", "eval"]
    else:
        assert calls == []


def global_statements(source):
    """Line numbers of the ``global`` statements of the module."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global)]


def test_scan_flags_global_statements():
    src = ("_x = 0\n\n"
           "def f():\n    global _x\n    _x += 1\n\n"
           "def g():\n    x = 0\n\n    def h():\n        nonlocal x\n"
           "        x += 1\n    return h\n\n"
           "class C:\n    def m(self):\n        global _x, _y\n")
    assert global_statements(src) == [4, 17]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda f: f.name)
def test_no_global_statements(path):
    # state that code rebinds belongs to an object its callers pass, not
    # to the module, where one caller's value reaches the next
    assert global_statements(path.read_text(encoding="utf-8")) == []


def _referenced_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def _defined_names(node):
    """Names a module-level statement defines: a function or class, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name)]
    return []


def orphaned_private_defs(sources):
    """``module.name`` of every module-level private function, class or
    constant (``_NAME = ...``) that nothing in ``sources`` (module name ->
    source) refers to outside its own definition."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = collections.Counter(
        _referenced_name(n) for tree in trees.values() for n in ast.walk(tree))
    orphans = []
    for mod, tree in trees.items():
        for node in tree.body:
            for name in _defined_names(node):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                own = sum(_referenced_name(n) == name for n in ast.walk(node))
                if refs[name] == own:
                    orphans.append("%s.%s" % (mod, name))
    return sorted(orphans)


def test_scan_flags_orphaned_private_defs():
    sources = {
        "a": ("def _used():\n    return 1\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n\n"
              "class _Lonely:\n    pass\n\n"
              "class _Shared:\n    pass\n\n"
              "def __getattr__(name):\n    return name\n\n"
              "def public():\n    return _used()\n"),
        "b": "from . import a\nx = a._Shared\n",
    }
    assert orphaned_private_defs(sources) == ["a._Lonely", "a._recursive"]


def test_scan_flags_orphaned_private_constants():
    sources = {
        "a": ("_USED = 3\n_LEFTOVER = 3  # no reader\n"
              "_SELF = [0]\n_SELF = _SELF + [1]\n"
              "_PAIR, _SPARE = 1, 2\n_TYPED: int = 4\n"
              "_SHARED = 5\n__version__ = '1'\nPUBLIC = 6\n"
              "def f():\n    _LOCAL = 1\n    return _USED + _PAIR\n"),
        "b": "from . import a\nx = a._SHARED\n",
    }
    assert orphaned_private_defs(sources) == [
        "a._LEFTOVER", "a._SPARE", "a._TYPED"]


def test_no_orphaned_private_defs():
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert orphaned_private_defs(sources) == []


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if _referenced_name(target) == "dataclass":
            return True
    return False


def _dumps_itself(cls):
    """True when a method of ``cls`` calls ``asdict(self)``, which reads
    every field."""
    return any(isinstance(n, ast.Call)
               and _referenced_name(n.func) == "asdict"
               and [_referenced_name(a) for a in n.args] == ["self"]
               for n in ast.walk(cls))


def write_only_fields(sources):
    """``Class.field`` of every dataclass field in ``sources`` (module name
    -> source) that no attribute load anywhere in them reads, in a class
    that does not dump itself with ``asdict(self)``."""
    trees = [ast.parse(src) for src in sources.values()]
    loaded = {n.attr for tree in trees for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for tree in trees:
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)) \
                    or _dumps_itself(cls):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name) and \
                        stmt.target.id not in loaded:
                    unread.append("%s.%s" % (cls.name, stmt.target.id))
    return sorted(unread)


def test_scan_flags_write_only_fields():
    sources = {
        "a": ("from dataclasses import dataclass, field\n\n"
              "@dataclass(frozen=True)\nclass Spec:\n"
              "    read: float\n    stored: int = 0\n"
              "    note: str = field(default='')\n\n"
              "@dataclass\nclass Rec:\n    hits: int = 0\n    tag: str = ''\n\n"
              "class Plain:\n    loose: int = 0\n\n"
              "@dataclass\nclass Dumped:\n    kept: int = 0\n"
              "    def to_dict(self):\n        return asdict(self)\n\n"
              "@dataclass\nclass Other:\n    lost: int = 0\n"
              "    def dump(self, rec):\n        return asdict(rec)\n\n"
              "def use(s, r):\n    r.hits += 1\n    r.tag = 'x'\n"
              "    return s.read\n"),
        "b": "def note_of(s):\n    return s.note\n",
    }
    # an augmented assignment stores: a counter nothing reads is unread
    # asdict(self) reads every field of its own class, no other
    assert write_only_fields(sources) == ["Other.lost", "Rec.hits",
                                          "Rec.tag", "Spec.stored"]


def test_no_write_only_fields():
    # a field that nothing reads is a setting or result nobody uses
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert write_only_fields(sources) == []


def callers_of(called, sources):
    """``module.function`` (``module.Class.method`` for a method) of every
    module-level definition in ``sources`` (module name -> source) whose
    body, nested functions included, calls the function named ``called``
    by name or as an attribute; ``module.<module>`` for a call outside
    any definition."""
    callers = set()
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            if isinstance(node, ast.ClassDef):
                scopes = [("%s.%s" % (node.name, f.name), f)
                          for f in node.body
                          if isinstance(f, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))]
            else:
                scopes = [(getattr(node, "name", "<module>"), node)]
            for name, scope in scopes:
                if any(isinstance(n, ast.Call)
                       and _referenced_name(n.func) == called
                       for n in ast.walk(scope)):
                    callers.add("%s.%s" % (mod, name))
    return sorted(callers)


def test_scan_flags_solve_ivp_callers():
    sources = {
        "a": ("from scipy import integrate as si\n"
              "from scipy.integrate import solve_ivp\n\n"
              "def direct(f):\n    return solve_ivp(f, (0, 1), [0.0])\n\n"
              "def nested(f):\n    def inner():\n"
              "        return si.solve_ivp(f, (0, 1), [0.0])\n"
              "    return inner\n\n"
              "def other(f):\n    return si.odeint(f, [0.0], [0, 1])\n\n"
              "def stepper(f):\n    return si.RK45(f, 0.0, [0.0], 1.0)\n\n"
              "class K:\n    def m(self, f):\n"
              "        return solve_ivp(f, (0, 1), [0.0])\n\n"
              "ref = solve_ivp\n"),
        "b": ("import scipy.integrate\n"
              "scipy.integrate.solve_ivp(None, (0, 1), [0.0])\n"),
    }
    assert callers_of("solve_ivp", sources) == ["a.K.m", "a.direct",
                                                "a.nested", "b.<module>"]
    assert callers_of("odeint", sources) == ["a.other"]
    assert callers_of("RK45", sources) == ["a.stepper"]


# the ODE entry points of scipy.integrate
SCIPY_ODE_SOLVERS = ("solve_ivp", "odeint", "ode", "RK23", "RK45", "DOP853",
                     "Radau", "BDF", "LSODA")


def test_solve_ivp_call_sites():
    # every flow, the Prufer angle sweep included, steps on the package's
    # own DOP853 (the float stepper or its batched twin): a call of a
    # scipy solver would be a new integrator
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert [caller for name in SCIPY_ODE_SOLVERS
            for caller in callers_of(name, sources)] == []


def test_batched_flow_call_sites():
    # one batched kernel: _batch_flow, which the Newton rounds and the
    # residual of verify_solution call, and the grid screen flow on it; a
    # third caller would be a third batched path.  One polish path: only
    # the lockstep rounds drive the Newton generator, only _polish_seeds
    # runs the rounds, so the searches and the continuation polish
    # through it, and the one gate accepts the roots of every polish and
    # of the Neumann sweep
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert callers_of("flow_rows", sources) == [
        "shooting._batch_flow", "shooting.screen_flow"]
    assert callers_of("_batch_flow", sources) == [
        "shooting._polish_lockstep", "shooting.verify_solution"]
    assert callers_of("_newton_steps", sources) == [
        "shooting._polish_lockstep"]
    assert callers_of("_polish_lockstep", sources) == [
        "shooting._polish_seeds"]
    assert callers_of("_accept", sources) == [
        "shooting._polish_seeds", "shooting.find_neumann_solutions"]


def try_statements_calling(names, sources):
    """``module:line`` of every try statement in ``sources`` (module name
    -> source) whose body, not its handlers, calls a function named in
    ``names`` by name or as an attribute."""
    # ``except*`` parses to ast.TryStar from Python 3.11 on
    kinds = (ast.Try, getattr(ast, "TryStar", ast.Try))
    hits = []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, kinds) and any(
                    isinstance(n, ast.Call)
                    and _referenced_name(n.func) in names
                    for stmt in node.body for n in ast.walk(stmt)):
                hits.append("%s:%d" % (mod, node.lineno))
    return sorted(hits)


BATCHED_FLOWS = ("flow_rows", "_batch_flow")


def test_scan_flags_try_around_batched_flows():
    sources = {
        "a": ("def screen(p):\n    while True:\n        try:\n"
              "            return flow_rows(p)\n"
              "        except DivergenceError:\n            pass\n"),
        "b": ("def polish(p):\n    try:\n        ok = 1\n"
              "    except DivergenceError:\n"
              "        return shooting._batch_flow(p)\n"),
        "c": ("try:\n    if p:\n        out = [_batch_flow(q) for q in p]\n"
              "finally:\n    pass\n"),
    }
    assert try_statements_calling(BATCHED_FLOWS, sources) == ["a:3", "c:1"]


def test_batched_flows_have_no_whole_flow_failure_path():
    # flow_rows leaves out and names every row it cannot flow, and never
    # fails as a whole, so no caller wraps a batched flow in a try
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert try_statements_calling(BATCHED_FLOWS, sources) == []


def test_one_extremum_routine():
    # one extremum path: the hump maxima and the growth functionals, the
    # package's two extremum searches, both go through brent.grid_minimum
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert callers_of("grid_minimum", sources) == [
        "integrator.max_on_interval", "nonlinearity._grid_extremum"]


PRIVATE_IVP = "scipy.integrate._ivp"


def private_ivp_imports(sources):
    """``module:line`` of every import, in ``sources`` (module name ->
    source), of scipy's private ``scipy.integrate._ivp`` package or one of
    its modules."""
    hits = []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + ["%s.%s" % (node.module, a.name)
                                               for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n == PRIVATE_IVP or n.startswith(PRIVATE_IVP + ".")
                   for n in names):
                hits.append("%s:%d" % (mod, node.lineno))
    return sorted(hits)


def test_scan_flags_private_ivp_imports():
    sources = {
        "a": ("from scipy.integrate._ivp import dop853_coefficients\n"
              "from scipy.integrate import solve_ivp\n"),
        "b": "import scipy.integrate._ivp.rk as rk\n",
        "c": "from scipy.integrate import _ivp\n",
        "d": "from scipy.integrate._ivp.common import norm\n",
    }
    assert private_ivp_imports(sources) == ["a:1", "b:1", "c:1", "d:1"]


def test_private_ivp_has_one_entry_point():
    # the steppers take scipy's DOP853 tableau from the vendored copy in
    # dop853_coefficients; nothing reaches into the private package
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert private_ivp_imports(sources) == []


LAZY_SCIPY = "scipy.integrate"


def scipy_imports(sources):
    """``module:line`` of every import statement, in ``sources`` (module
    name -> source), of scipy or one of its modules."""
    hits = []
    for mod, src in sources.items():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                hits.append("%s:%d" % (mod, node.lineno))
    return sorted(hits)


def misplaced_lazy_modules(sources):
    """``module:line`` of every call of ``lazy_module``, in ``sources``
    (module name -> source), that is not a module-level statement or does
    not name ``scipy.integrate`` by a literal."""
    hits = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        top = {id(n) for stmt in tree.body
               if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.Expr))
               for n in ast.walk(stmt)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and _referenced_name(node.func) == "lazy_module"):
                continue
            args = [a.value for a in node.args
                    if isinstance(a, ast.Constant)]
            if id(node) not in top or node.keywords or \
                    args != [LAZY_SCIPY] or len(node.args) != 1:
                hits.append("%s:%d" % (mod, node.lineno))
    return sorted(hits)


def test_scan_flags_scipy_imports():
    sources = {
        "a": ("import scipy\nimport numpy as np\n"
              "from scipy.integrate import quad\n"
              "from . import scipy_free\nfrom .lazy import lazy_module\n"),
        "b": ("import os, scipy.optimize as so\n\n"
              "def f():\n    from scipy import special\n"
              "    return special\n"),
        "c": "import scipyx\nfrom scipy_tools import x\n",
    }
    assert scipy_imports(sources) == ["a:1", "a:3", "b:1", "b:4"]


def test_no_scipy_imports():
    # scipy.integrate is bound lazily and nothing else of scipy is used:
    # importing the package and the periodic search load no scipy module
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert scipy_imports(sources) == []


def test_scan_flags_misplaced_lazy_modules():
    sources = {
        "a": ("from .lazy import lazy_module\n"
              "_sint = lazy_module('scipy.integrate')\n"
              "_opt = lazy_module('scipy.optimize')\n"
              "NAME = 'scipy.integrate'\n_dyn = lazy_module(NAME)\n"
              "_kw = lazy_module(name='scipy.integrate')\n"),
        "b": ("from . import lazy\n\n"
              "def f():\n    return lazy.lazy_module('scipy.integrate')\n\n"
              "class K:\n    mod = lazy.lazy_module('scipy.integrate')\n"),
    }
    assert misplaced_lazy_modules(sources) == ["a:3", "a:5", "a:6", "b:4",
                                               "b:7"]


def test_lazy_module_binds_scipy_integrate_at_module_level():
    # a lazy binding inside a function would hide the dependency like a
    # function-local import; the quad of weight.piecewise_quad is the one
    # scipy use, and any other module would be a new one
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert misplaced_lazy_modules(sources) == []
    assert callers_of("lazy_module", sources) == ["weight.<module>"]


PACKAGE_NAME = "indefinite_bvp"


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_cross_module_names(sources):
    """``module:line other.name`` of every private name (``_name``, not a
    dunder) of another package module that a module in ``sources``
    (module name -> source) imports, or reads as an attribute of a
    package module it imported.  Relative imports and absolute imports
    from the package count alike."""
    hits = []
    for mod, src in sources.items():
        tree = ast.parse(src)
        modules = {}   # local name -> package module it is bound to
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:
                parent = node.module
            elif node.level == 0 and node.module and \
                    node.module.split(".")[0] == PACKAGE_NAME:
                parent = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                if parent is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _is_private(alias.name):
                    hits.append("%s:%d %s.%s" % (mod, node.lineno, parent,
                                                 alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.value, ast.Name) and \
                    node.value.id in modules and _is_private(node.attr):
                hits.append("%s:%d %s.%s" % (mod, node.lineno,
                                             modules[node.value.id],
                                             node.attr))
    return sorted(hits)


def test_scan_flags_private_cross_module_names():
    sources = {
        "a": ("from .b import _hidden, public\n"
              "from . import b\nfrom . import c as cc\n"
              "x = b._helper(1) + cc._CONST + b.public + len(b.__name__)\n"
              "def _own():\n    return _own\n"),
        "b": ("import numpy as np\nfrom scipy import _lib\n"
              "z = np._NoValue\nfrom .c import public as _alias\n"),
        "c": "from indefinite_bvp.a import _thing\nimport indefinite_bvp\n",
    }
    assert private_cross_module_names(sources) == [
        "a:1 b._hidden", "a:4 b._helper", "a:4 c._CONST", "c:1 a._thing"]


def test_no_private_cross_module_names():
    # a module reaches another only through its public names: shooting
    # stitches trajectories with Trajectory.join, not with the
    # integrator's row builder
    sources = {f.stem: f.read_text(encoding="utf-8")
               for f in PACKAGE.glob("*.py")}
    assert private_cross_module_names(sources) == []


def test_all_matches_the_package_imports():
    # a stale name in __all__ breaks ``from indefinite_bvp import *``
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(indefinite_bvp.__all__) == sorted(imported)


TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"
# layers the tracer still lists after the package dropped their function
DROPPED_LAYERS = ["shooting._local_refine", "shooting._newton_polish",
                  "integrator.forcing"]


def unresolved_layers(layers):
    """Names of the traced layers whose attribute the tracer's ``install``
    would not find: a module attribute, or a class attribute for an
    ``attr`` of the form ``Class.method``."""
    missing = []
    for layer in layers:
        module = importlib.import_module(layer.module)
        owner_name, _, attr = layer.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            missing.append(layer.name)
    return missing


def test_scan_flags_unresolved_layers():
    layer = lambda name, attr: types.SimpleNamespace(
        name=name, module="indefinite_bvp.integrator", attr=attr)
    layers = [layer("fn", "integrate"), layer("gone", "_gone"),
              layer("method", "ProblemSpec.extended"),
              layer("no_method", "ProblemSpec.gone"),
              layer("no_class", "Gone.forcing")]
    assert unresolved_layers(layers) == ["gone", "no_method", "no_class"]


def test_benchmark_layers_resolve(monkeypatch):
    # a refactor that deletes a function the benchmark wraps would
    # otherwise only show up as a layer the tracer lists as absent
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # the tracer's dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    assert unresolved_layers(tracer.LAYERS) == DROPPED_LAYERS
