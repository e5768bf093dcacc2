"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig2-screen --seed 1 \
        --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run sets up (timed in fresh interpreters),
then runs whole pipelines one after another (a closed loop with one
client) until the next one would end after ``--seconds``, at least one,
and reports the end-to-end metrics per pipeline.  Times are reported in
nominal seconds, scaled by the host speed sampled while they were
measured (``hostspeed``); the raw seconds are in the record.  With
``--trace 1`` it runs the first input in pairs, once untraced and once
traced, and reports the per-layer metrics.  Every pipeline's answers
are checked; the full record, with the host and the answer fingerprints,
is written to ``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread: a plain single-threaded baseline that does not
# compete with itself on a shared host.  Set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 5


def reference_loop_s():
    """Median time of hostspeed's reference loop, recorded at the start
    and the end of a run so that the host's speed shows next to the
    numbers."""
    return statistics.median(hostspeed.time_loop() for _ in range(50))


def host_record():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": os.getloadavg(),
        "reference_loop_s_start": reference_loop_s(),
    }


def probe_setup(workload, seed):
    """Raw and nominal seconds one fresh interpreter spends on import,
    build and input load."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
         str(seed)], capture_output=True, text=True, timeout=120, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def run_pipeline(wl, ctx, inp):
    """One pipeline under the host-speed sampler; ``wall_s``/``cpu_s``
    are nominal seconds, ``raw_wall_s``/``raw_cpu_s`` as measured."""
    gc.collect()
    outcome, error = None, None
    with hostspeed.Sampler() as sampler:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome = wl.run(ctx, inp)
        except Exception:  # a failed pipeline is counted, the run goes on
            error = traceback.format_exc()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    return {"input": inp, "raw_wall_s": wall, "raw_cpu_s": cpu,
            "wall_s": sampler.nominal(wall),
            "cpu_s": sampler.nominal(cpu, sampler.spent_cpu_s),
            "speed_factor": sampler.factor(),
            "speed_samples": len(sampler.samples), "outcome": outcome,
            "error": error, "traced": False}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(wl, ctx, inputs, seconds):
    """Pipelines one after another, at least one, until the next one
    would end after ``seconds``."""
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(run_pipeline(wl, ctx, inputs[len(runs) % len(inputs)]))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["raw_wall_s"] for r in runs) \
                > seconds:
            return runs


def measure_traced(wl, ctx, inputs, seconds, tr, new_tracer):
    """Pairs of pipelines on the first input, one plain and one traced,
    the order alternating from pair to pair: at least one pair, until the
    next would end after ``seconds``.  The first traced pipeline records
    into ``tr``, which already holds the traced set-up; later ones record
    into throwaway tracers, so the layer metrics cover the set-up and one
    pipeline.  Returns the runs and the median of traced over plain
    nominal wall time, minus 1."""
    runs, ratios = [], []
    start = time.perf_counter()
    while True:
        pair = {}
        order = (False, True) if len(ratios) % 2 == 0 else (True, False)
        for traced in order:
            if not traced:
                pair[traced] = run_pipeline(wl, ctx, inputs[0])
                continue
            t = tr if not ratios else new_tracer()
            t.install()
            try:
                pair[traced] = run_pipeline(wl, ctx, inputs[0])
            finally:
                t.uninstall()
            pair[traced]["traced"] = True
        runs += [pair[traced] for traced in order]
        ratios.append(pair[True]["wall_s"] / pair[False]["wall_s"])
        elapsed = time.perf_counter() - start
        if elapsed * (len(ratios) + 1) / len(ratios) > seconds:
            return runs, statistics.median(ratios) - 1.0


def check_answers(workloads, name, runs):
    """Attach each pipeline's answer checks; return (attempted, failed,
    verify flags, first fingerprint per reference key)."""
    wl = workloads.WORKLOADS[name]
    reference = workloads.load_reference()
    attempted = failed = 0
    verified, fingerprints = [], {}
    for r in runs:
        if r["error"] is not None:
            r["checks"] = {"pipeline completed": False}
        else:
            fp = r["outcome"].fingerprint
            fingerprints.setdefault(wl.key(r["input"]), fp)
            verified += r["outcome"].verified
            r["checks"] = dict(workloads.check(name, r["input"], fp,
                                               reference))
        attempted += len(r["checks"])
        failed += sum(not ok for ok in r["checks"].values())
    return attempted, failed, verified, fingerprints


def main(argv=None):
    bench = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload of BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "indefinite_bvp",
                                       "__init__.py")):
        print("perfbench: no package source at %s; run from the root of a "
              "source checkout" % SRC, file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r" % args.workload)

    host = host_record()
    setup_probes = [probe_setup(args.workload, args.seed)
                    for _ in range(SETUP_SAMPLES)]
    tr = tracer.Tracer() if args.trace else None
    if tr:
        tr.install()
    inputs, ctx = workloads.setup(args.workload, args.seed)
    if tr:
        tr.uninstall()
    wl = workloads.WORKLOADS[args.workload]
    if tr:
        runs, overhead = measure_traced(wl, ctx, inputs, args.seconds, tr,
                                        tracer.Tracer)
    else:
        runs = measure(wl, ctx, inputs, args.seconds)
    attempted, failed, verified, fingerprints = check_answers(
        workloads, args.workload, runs)

    if tr:
        values = tracer.layer_metrics(tr, overhead)
    else:
        values = {
            # nominal time per pipeline over the whole run (inverse
            # throughput)
            "wall_s": statistics.fmean(r["wall_s"] for r in runs),
            "cpu_s": statistics.fmean(r["cpu_s"] for r in runs),
            "setup_s": statistics.median(p["nominal_s"]
                                         for p in setup_probes),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "solutions": statistics.median(
                r["outcome"].solutions if r["outcome"] else 0 for r in runs),
            "verified_frac":
                sum(verified) / len(verified) if verified else 0.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in bench["per_layer" if tr else "end_to_end"]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    host["loadavg_end"] = os.getloadavg()
    host["reference_loop_s_end"] = reference_loop_s()
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "setup_probes": setup_probes, "inputs": inputs,
        "pipelines": [{k: r[k] for k in (
            "input", "traced", "wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s",
            "speed_factor", "speed_samples", "checks", "error")}
            for r in runs],
        "fingerprints": fingerprints,
        "absent_layers": tr.absent if tr else [],
        "hook_failed_layers": sorted(tr.hook_failed) if tr else [],
        "result": result,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "BENCH_%s_seed%d_trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for r in runs:
        if r["error"]:
            print(r["error"], file=sys.stderr)
    for label in ("absent_layers", "hook_failed_layers"):
        if record[label]:
            print("perfbench: %s (reported as zero): %s"
                  % (label, ", ".join(record[label])), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
