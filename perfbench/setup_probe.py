"""Time one benchmark set-up in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is the import of the package (numpy and scipy included), the build
of every problem the workload's inputs need and the load of the stored
reference answers.  The host's speed is sampled throughout with the
standard-library loop of ``hostspeed``.  Prints one JSON object:
``raw_s``, the seconds measured, and ``nominal_s``, the same in nominal
seconds.  ``run.py`` starts this several times per run and reports the
median ``nominal_s`` as ``setup_s``.
"""

import json
import os
import sys
import time

import hostspeed

# set-up lasts about a second: sample more often than a pipeline
with hostspeed.Sampler(hostspeed.python_loop, hostspeed.PYTHON_NOMINAL_S,
                       interval_s=0.01) as sampler:
    _T0 = time.perf_counter()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    import workloads  # noqa: E402

    workloads.setup(sys.argv[1], int(sys.argv[2]))
    workloads.load_reference()
    raw = time.perf_counter() - _T0
print(json.dumps({"raw_s": raw, "nominal_s": sampler.nominal(raw)}))
