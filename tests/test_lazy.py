"""The deferred ``scipy.integrate`` binding: the periodic search and the
eigenvalue threshold load no heavy scipy module, and a quadrature that
loads it lazily gives the same answers as one that finds it loaded."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import indefinite_bvp
from indefinite_bvp.lazy import lazy_module

SRC = str(pathlib.Path(indefinite_bvp.__file__).resolve().parents[1])
# loaded by scipy.integrate (and scipy.optimize), not by the search
HEAVY = ("scipy.optimize", "scipy.special", "scipy.linalg")


def run_fresh(code):
    """The last stdout line of ``code`` run in a fresh interpreter that
    imports the package from this checkout, parsed as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


SEARCH = """
import json, sys
import indefinite_bvp as ib
from indefinite_bvp import shooting, subharmonic
pre = ib.get_preset("fig2", mu=7.0)
p, sc = pre.problem, pre.search
base = shooting.find_periodic_solutions(p, 1, sc)
recs = shooting.find_periodic_solutions(p, 2, sc, base=base)
levels = shooting.adaptive_levels(recs, p)
codes = sorted(shooting.classify_code(r, p, *levels) for r in recs)
periods = [subharmonic.minimal_period_multiple(r, p) for r in recs]
r_star = 10.0 * max(r.sup_norm for r in base + recs)
passed = [shooting.verify_solution(r, p, r_star=r_star, sc=sc).passed
          for r in base + recs]
# by name only: reading an attribute of the lazy module would load it
print(json.dumps({"loaded": [m for m in %r if m in sys.modules],
                  "base": len(base), "codes": [str(c) for c in codes],
                  "passed": passed, "periods": periods}))
""" % (HEAVY,)


def test_periodic_search_loads_no_heavy_scipy():
    got = run_fresh(SEARCH)
    assert got["loaded"] == []
    # the run did the whole pipeline
    assert got["base"] == 1 and len(got["codes"]) == 3
    assert sorted(got["periods"]) == [1, 2, 2] and all(got["passed"])


EIGEN = """
import json, sys
import indefinite_bvp as ib
thr = ib.ginf_threshold(ib.get_preset("fig1").problem)
print(json.dumps({"loaded": [m for m in %r if m in sys.modules],
                  "quadpack": "scipy.integrate._quadpack" in sys.modules,
                  "threshold": thr}))
""" % (HEAVY,)


def test_eigenvalue_threshold_loads_no_scipy_solver():
    # the angle sweep steps on the package's own DOP853
    got = run_fresh(EIGEN)
    assert got["loaded"] == [] and got["quadpack"] is False
    assert got["threshold"] > 0


BOUNDS = """
import json, sys
%s
import indefinite_bvp as ib
from indefinite_bvp import bounds
p = ib.get_preset("fig1").problem
before = "scipy.integrate._quadpack" in sys.modules
rep = bounds.compute_mu_star(p).to_dict()
rep.pop("provenance")
print(json.dumps({"before": before, "report": repr(rep),
                  "after": "scipy.integrate._quadpack" in sys.modules}))
"""


def test_lazy_quadrature_gives_the_report_of_an_eager_one():
    # the first quad of compute_mu_star loads scipy.integrate through the
    # lazy binding; the report must be the one of a process that imported
    # scipy.integrate before the package
    lazy = run_fresh(BOUNDS % "")
    eager = run_fresh(BOUNDS % "import scipy.integrate")
    assert lazy["before"] is False and lazy["after"] is True
    assert eager["before"] is True
    assert lazy["report"] == eager["report"]


def test_lazy_module_defers_the_module_code(tmp_path, monkeypatch):
    name = "lazy_probe_module"
    (tmp_path / (name + ".py")).write_text(
        "import pathlib\npathlib.Path(__file__).with_suffix('.ran')"
        ".write_text('')\nVALUE = 3\n", encoding="utf-8")
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, name, raising=False)
    try:
        mod = lazy_module(name)
        assert sys.modules[name] is mod
        assert not (tmp_path / (name + ".ran")).exists()
        assert lazy_module(name) is mod
        assert mod.VALUE == 3
        assert (tmp_path / (name + ".ran")).exists()
    finally:
        sys.modules.pop(name, None)


def test_lazy_module_returns_a_loaded_module():
    assert lazy_module("json") is json
    assert lazy_module("pytest") is pytest
