"""Self-tests of the benchmark harness (not of the solver).

    python3 -m pytest perfbench -q
"""

import copy
import os
import shutil
import subprocess
import sys
import time

import signal

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from indefinite_bvp import integrator, presets, shooting  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_inputs(name):
    assert workloads.draw_inputs(name, 7) == workloads.draw_inputs(name, 7)
    assert workloads.draw_inputs(name, 7) != workloads.draw_inputs(name, 8)


@pytest.mark.parametrize("name", NAMES)
def test_every_drawable_input_has_a_reference(name):
    ref = workloads.load_reference()[name]
    wl = workloads.WORKLOADS[name]
    for seed in range(50):
        for inp in workloads.draw_inputs(name, seed):
            assert wl.key(inp) in ref


def _first_reference(name):
    key, fp = sorted(workloads.load_reference()[name].items())[0]
    return key, fp


@pytest.mark.parametrize("name", NAMES)
def test_fingerprint_check_flags_perturbed_state_and_missing_code(name):
    wl = workloads.WORKLOADS[name]
    _, ref = _first_reference(name)
    assert all(ok for _, ok in wl.expect(ref))
    assert all(ok for _, ok in workloads.compare(ref, ref))

    close = copy.deepcopy(ref)
    close["solutions"][0]["u"] += 0.1 * workloads.STATE_TOL
    assert all(ok for _, ok in workloads.compare(close, ref))

    moved = copy.deepcopy(ref)
    moved["solutions"][0]["u"] += 10 * workloads.STATE_TOL
    assert dict(workloads.compare(moved, ref))["reference solutions"] is False

    missing = copy.deepcopy(ref)
    del missing["solutions"][0]
    assert not all(ok for _, ok in wl.expect(missing))
    assert dict(workloads.compare(missing, ref))["reference solutions"] \
        is False


def test_check_without_reference_fails():
    _, fp = _first_reference("scalar-maps")
    inp = workloads.draw_inputs("scalar-maps", 0)[0]
    checks = dict(workloads.check("scalar-maps", inp, fp, {}))
    assert checks["reference present"] is False


def test_self_time_of_nested_spans():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 5.7, 6.0, 10.0])
    tr = tracer.Tracer(layers=(), clock=lambda: next(ticks))
    a = tr.open("A")          # 0
    b = tr.open("B")          # 1
    d = tr.open("D")          # 2
    tr.close(d)               # 3
    tr.close(b)               # 4
    c = tr.open("C")          # 5
    inner = tr.open("C")      # 5.5, same name nested: not added to C.s
    tr.close(inner)           # 5.7
    tr.close(c)               # 6
    tr.close(a)               # 10
    tot = tr.totals()
    assert tot["A"] == {"s": 10.0, "self_s": 6.0}
    assert tot["B"] == {"s": 3.0, "self_s": 2.0}
    assert tot["D"] == {"s": 1.0, "self_s": 1.0}
    assert tot["C"]["s"] == pytest.approx(1.0)
    assert tot["C"]["self_s"] == pytest.approx(1.0)
    assert tr.nested[("A", "D")] == 1 and tr.nested[("B", "C")] == 0


def test_absent_layer_is_reported_not_raised():
    layers = (
        tracer.Layer("shooting.gone", "indefinite_bvp.shooting",
                     "_no_such_helper"),
        tracer.Layer("nowhere.f", "indefinite_bvp.no_such_module", "f"),
        tracer.Layer("integrator.integrate", "indefinite_bvp.integrator",
                     "integrate"),
    )
    tr = tracer.Tracer(layers)
    original = integrator.integrate
    tr.install()
    try:
        # imported by name into shooting: that binding is wrapped too
        assert shooting.integrate is integrator.integrate is not original
        p = presets.get_preset("fig2").problem
        integrator.flow(p, integrator.State(0.1, 0.0), (0.0, 0.1))
    finally:
        tr.uninstall()
    assert shooting.integrate is integrator.integrate is original
    assert tr.absent == ["shooting.gone", "nowhere.f"]
    metrics = tracer.layer_metrics(tr, 0.0)
    assert metrics["integrator.integrate.calls"] == 1
    assert metrics["shooting._local_refine.calls"] == 0


def test_layer_metrics_and_workloads_match_the_benchmark_spec():
    spec = run.spec()
    names = [m["name"] for m in spec["per_layer"]]
    assert names == list(tracer.layer_metrics(tracer.Tracer(), 0.0))
    assert [w["name"] for w in spec["workloads"]] == NAMES


def test_traced_run_alternates_pairs_and_traces_one_pipeline_into_tr():
    class FakeTracer:
        def __init__(self):
            self.installs = 0

        def install(self):
            self.installs += 1

        def uninstall(self):
            pass

    wl = workloads.Workload(None, None, lambda ctx, inp: time.sleep(0.01),
                            None, None)
    tr, extra = FakeTracer(), []

    def new_tracer():
        extra.append(FakeTracer())
        return extra[-1]

    runs, overhead = run.measure_traced(wl, None, ["a"], 1.0, tr, new_tracer)
    pairs = [(runs[i]["traced"], runs[i + 1]["traced"])
             for i in range(0, len(runs), 2)]
    assert len(pairs) > 2
    assert all(p == ((False, True) if i % 2 == 0 else (True, False))
               for i, p in enumerate(pairs))
    assert tr.installs == 1 and len(extra) == len(pairs) - 1
    assert isinstance(overhead, float)


def test_run_without_package_source_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar-maps",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_hook_that_cannot_read_its_arguments_is_reported():
    tr = tracer.Tracer(layers=())
    tr._run_hook(tracer._batch_rows, "shooting._batch_flow", (), {}, None)
    assert tr.hook_failed == {"shooting._batch_flow"}


def test_trimmed_mean_cuts_both_ends():
    assert hostspeed.trimmed_mean([100.0] + [1.0] * 18 + [-100.0]) == 1.0
    assert hostspeed.trimmed_mean([2.0, 4.0]) == 3.0


def test_sampler_samples_inside_the_window_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(interval_s=0.01) as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        raw = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= hostspeed.MIN_SAMPLES
    assert 0.0 < sampler.spent_s < raw
    assert sampler.nominal(raw) == pytest.approx(
        (raw - sampler.spent_s) * hostspeed.ODE_NOMINAL_S
        / hostspeed.trimmed_mean(sampler.samples))


def test_short_window_is_topped_up_after_it_ends():
    with hostspeed.Sampler(hostspeed.python_loop, hostspeed.PYTHON_NOMINAL_S,
                           interval_s=10.0) as sampler:
        pass
    assert len(sampler.samples) == hostspeed.MIN_SAMPLES
    assert sampler.spent_s == 0.0 and sampler.factor() > 0.0
