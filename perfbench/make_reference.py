"""Write ``reference.json``: the answer fingerprint of every input the
workloads can draw.

    python3 perfbench/make_reference.py [workload ...]

The benchmark compares each pipeline's answers with these, so regenerate
them only for a change that is meant to change the answers, and say so.
Takes several minutes for all workloads.
"""

import json
import sys

import run  # noqa: F401  (pins the BLAS threads before numpy loads)

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402


def main(names):
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    for name in names or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]
        # seed 0 draws every input: the periodic workloads permute their
        # whole input set and scalar-maps has a single reference
        inputs = {wl.key(inp): inp for inp in workloads.draw_inputs(name, 0)}
        ctx = wl.setup(list(inputs.values()))
        entries = {}
        for key in sorted(inputs):
            fp = wl.run(ctx, inputs[key]).fingerprint
            bad = [label for label, ok in wl.expect(fp) if not ok]
            if bad:
                raise SystemExit("%s %s: expected structure missing: %s"
                                 % (name, key, bad))
            entries[key] = fp
            print(name, key, flush=True)
        reference[name] = entries
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
