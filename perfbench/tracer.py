"""In-memory spans and counters around the solver's layers.

The tracer swaps module attributes of ``indefinite_bvp`` for wrappers
while it is installed and puts the originals back on ``uninstall``;
nothing under ``src/`` is edited.  Functions that other modules import by
name (``integrate``, ``flow``, ``g_eval``, ...) are replaced in every
module that binds them, so a call is traced whichever module makes it.
A layer whose attribute does not exist is listed in ``absent`` and reports
zero calls, so the benchmark keeps working after a refactor deletes a
private helper.

Spans are kept in memory as (name, start, end, parent) and turned into
metrics once the traced pipeline has finished.  The per-RHS hooks
(``forcing``, ``g_eval``, ``Expression.__call__``) only count, to keep the
tracing cost low.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "indefinite_bvp"


@dataclass(frozen=True)
class Layer:
    """One traced attribute.

    ``name`` is the metric prefix, ``module``/``attr`` locate the object
    (``attr`` may be ``Class.method``), ``spans`` is False for count-only
    hooks, ``caller`` restricts recording to calls made from that module,
    and ``hook(tracer, name, args, kwargs, result)`` records extra counts.
    A hook that cannot read its arguments (a changed signature) is listed
    in ``Tracer.hook_failed`` instead of failing the traced call.
    """

    name: str
    module: str
    attr: str
    spans: bool = True
    caller: str = None
    hook: object = None


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _screen_work(tr, name, args, kwargs, result):
    # row.steps of the fixed-step RK4 grid the arguments ask for: every
    # weight piece between breakpoints gets max(4, ceil(len * steps)) steps
    p, states, t0, t1 = (_arg(args, kwargs, i, key) for i, key in
                         enumerate(("p", "states", "t0", "t1")))
    steps_per_unit = _arg(args, kwargs, 4, "steps_per_unit")
    edges = [t0] + list(p.breakpoints_between(t0, t1)) + [t1]
    steps = sum(max(4, int(math.ceil((hi - lo) * steps_per_unit)))
                for lo, hi in zip(edges[:-1], edges[1:]))
    tr.sums[name + ".rows"] += len(states)
    tr.sums[name + ".row_steps"] += len(states) * steps


def _batch_rows(tr, name, args, kwargs, result):
    tr.sums[name + ".rows"] += len(_arg(args, kwargs, 1, "Z"))


def _polish_ok(tr, name, args, kwargs, result):
    tr.sums[name + ".ok"] += result is not None


def _solve_dim(tr, name, args, kwargs, result):
    dim = len(_arg(args, kwargs, 0, "a"))
    tr.maxes[name + ".max_dim"] = max(tr.maxes.get(name + ".max_dim", 0), dim)


def _forcing_rows(tr, name, args, kwargs, result):
    # bound method: args are (self, t, u)
    u = _arg(args, kwargs, 2, "u")
    tr.sums[name + ".rows"] += getattr(u, "size", 1)


_SH = PACKAGE + ".shooting"

LAYERS = (
    Layer("shooting.screen_flow", _SH, "screen_flow", hook=_screen_work),
    Layer("shooting._local_refine", _SH, "_local_refine"),
    Layer("shooting._newton_polish", _SH, "_newton_polish", hook=_polish_ok),
    Layer("shooting._batch_flow", _SH, "_batch_flow", hook=_batch_rows),
    Layer("shooting.linalg_solve", "numpy.linalg", "solve", caller=_SH,
          hook=_solve_dim),
    Layer("shooting._stitched_trajectory", _SH, "_stitched_trajectory"),
    Layer("shooting.verify_solution", _SH, "verify_solution"),
    Layer("shooting.find_neumann_solutions", _SH, "find_neumann_solutions"),
    Layer("shooting.winding_number", _SH, "winding_number"),
    Layer("integrator.integrate", PACKAGE + ".integrator", "integrate"),
    Layer("integrator.flow", PACKAGE + ".integrator", "flow"),
    Layer("integrator.forcing", PACKAGE + ".integrator",
          "ProblemSpec.forcing", spans=False, hook=_forcing_rows),
    Layer("nonlinearity.g_eval", PACKAGE + ".nonlinearity", "g_eval",
          spans=False),
    Layer("expressions.eval", PACKAGE + ".expressions",
          "Expression.__call__", spans=False),
    Layer("radial.find_radial_solutions", PACKAGE + ".radial",
          "find_radial_solutions"),
    Layer("bounds.compute_mu_star", PACKAGE + ".bounds", "compute_mu_star"),
    Layer("bounds.estimate_R_star", PACKAGE + ".bounds", "estimate_R_star"),
    Layer("eigen.first_eigenvalue", PACKAGE + ".eigen", "first_eigenvalue"),
    Layer("subharmonic.minimal_period_multiple", PACKAGE + ".subharmonic",
          "minimal_period_multiple"),
    Layer("weight.detect_sign_pattern", PACKAGE + ".weight",
          "detect_sign_pattern"),
    Layer("cli.problem_from_config", PACKAGE + ".cli", "problem_from_config"),
)


class Tracer:
    """Spans, counts and sums of one traced run."""

    def __init__(self, layers=LAYERS, clock=time.perf_counter):
        self.layers = layers
        self.clock = clock
        self.spans = []          # [name, start, end, parent index, nested]
        self.calls = Counter()
        self.sums = Counter()
        self.maxes = {}
        self.nested = Counter()  # (ancestor name, descendant name) -> calls
        self.absent = []
        self.hook_failed = set()
        self._stack = []
        self._active = Counter()
        self._restore = []

    # -- spans ------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        for anc in {self.spans[i][0] for i in self._stack}:
            self.nested[(anc, name)] += 1
        # a span inside a span of the same name is not added to its total
        self.spans.append([name, self.clock(), None, parent,
                           self._active[name] > 0])
        self._active[name] += 1
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx):
        span = self.spans[idx]
        span[2] = self.clock()
        self._active[span[0]] -= 1
        self._stack.pop()

    # -- install ------------------------------------------------------------

    def _wrap(self, layer, fn):
        tr = self
        name = layer.name
        hook = layer.hook
        caller = layer.caller

        if not layer.spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tr.calls[name] += 1
                if hook is not None:
                    tr._run_hook(hook, name, args, kwargs, result)
                return result
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if caller is not None and \
                    sys._getframe(1).f_globals.get("__name__") != caller:
                return fn(*args, **kwargs)
            tr.calls[name] += 1
            idx = tr.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if hook is not None:
                tr._run_hook(hook, name, args, kwargs, result)
            return result
        return spanned

    def _run_hook(self, hook, name, args, kwargs, result):
        try:
            hook(self, name, args, kwargs, result)
        except (LookupError, TypeError, AttributeError):
            self.hook_failed.add(name)

    def install(self):
        """Wrap every layer in every package module that binds it."""
        for layer in self.layers:
            module = sys.modules.get(layer.module)
            owner_name, _, attr = layer.attr.rpartition(".")
            owner = module
            if module is not None and owner_name:
                owner = getattr(module, owner_name, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(layer.name)
                continue
            original = vars(owner)[attr]
            wrapper = self._wrap(layer, original)
            if owner_name:
                targets = [owner]
            else:
                targets = [m for key, m in list(sys.modules.items())
                           if key == PACKAGE or key.startswith(PACKAGE + ".")]
                targets.append(owner)
            for target in {id(t): t for t in targets}.values():
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._restore.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._restore):
            setattr(target, key, original)
        self._restore = []

    # -- results ------------------------------------------------------------

    def totals(self):
        """Per layer name: calls, s (outermost spans) and self_s."""
        children = {}
        for idx, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append(idx)
        out = {}
        for idx, (name, start, end, _, nested) in enumerate(self.spans):
            ivs = sorted((self.spans[c][1], self.spans[c][2])
                         for c in children.get(idx, ()))
            covered, reach = 0.0, start
            for lo, hi in ivs:
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0})
            if not nested:
                rec["s"] += end - start
            rec["self_s"] += (end - start) - covered
        return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr, overhead_frac):
    """Every per-layer metric of the benchmark, by name."""
    tot = tr.totals()

    def calls(name):
        return tr.calls[name]

    def secs(name, key="s"):
        return tot.get(name, {}).get(key, 0.0)

    sf, lr = "shooting.screen_flow", "shooting._local_refine"
    npo, bf = "shooting._newton_polish", "shooting._batch_flow"
    ls, it = "shooting.linalg_solve", "integrator.integrate"
    fo = "integrator.forcing"
    m = {
        sf + ".calls": calls(sf),
        sf + ".s": secs(sf),
        sf + ".self_s": secs(sf, "self_s"),
        sf + ".row_steps": tr.sums[sf + ".row_steps"],
        sf + ".row_steps_per_s": _ratio(tr.sums[sf + ".row_steps"], secs(sf)),
        sf + ".rows_per_call": _ratio(tr.sums[sf + ".rows"], calls(sf)),
        lr + ".calls": calls(lr),
        lr + ".s": secs(lr),
        npo + ".calls": calls(npo),
        npo + ".s": secs(npo),
        npo + ".self_s": secs(npo, "self_s"),
        npo + ".ok_frac": _ratio(tr.sums[npo + ".ok"], calls(npo)),
        npo + ".flows_per_polish": _ratio(tr.nested[(npo, bf)], calls(npo)),
        npo + ".solves_per_polish": _ratio(tr.nested[(npo, ls)], calls(npo)),
        bf + ".calls": calls(bf),
        bf + ".s": secs(bf),
        bf + ".rows": tr.sums[bf + ".rows"],
        bf + ".rows_per_s": _ratio(tr.sums[bf + ".rows"], secs(bf)),
        ls + ".calls": calls(ls),
        ls + ".s": secs(ls),
        ls + ".max_dim": tr.maxes.get(ls + ".max_dim", 0),
        it + ".calls": calls(it),
        it + ".s": secs(it),
        it + ".self_s": secs(it, "self_s"),
        it + ".ms_per_call": 1e3 * _ratio(secs(it), calls(it)),
        "integrator.flow.calls": calls("integrator.flow"),
        fo + ".calls": calls(fo),
        fo + ".rows_per_call": _ratio(tr.sums[fo + ".rows"], calls(fo)),
        "nonlinearity.g_eval.calls": calls("nonlinearity.g_eval"),
        "expressions.eval.calls": calls("expressions.eval"),
    }
    for name in ("shooting._stitched_trajectory", "shooting.verify_solution",
                 "shooting.winding_number", "eigen.first_eigenvalue",
                 "subharmonic.minimal_period_multiple"):
        m[name + ".calls"] = calls(name)
        m[name + ".s"] = secs(name)
    for name in ("shooting.find_neumann_solutions",
                 "radial.find_radial_solutions", "bounds.compute_mu_star",
                 "bounds.estimate_R_star", "weight.detect_sign_pattern",
                 "cli.problem_from_config"):
        m[name + ".s"] = secs(name)
    m["trace_overhead_frac"] = overhead_frac
    return m
