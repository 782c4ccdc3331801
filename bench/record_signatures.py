"""Record the simulated-output signatures that the benchmark checks against.

    python3 bench/record_signatures.py

Run from the root of a serlink checkout.  Runs one cycle of every
workload for each of SEEDS and rewrites bench/signatures.json.
Refuses to record a seed whose operations are not ok.  Re-record only
when a change is meant to alter simulated output, and say why.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from child import SIGNATURES, import_serlink  # noqa: E402

SEEDS = range(0, 21)


def main():
    import_serlink(".")
    import workloads

    table = {}
    for name in workloads.WORKLOADS:
        workloads.warm_up(name)
        table[name] = {}
        for seed in SEEDS:
            outs = [op() for op in workloads.operations(name, seed)]
            bad = [o.detail for o in outs if not o.ok]
            if bad:
                print(f"{name} seed {seed}: not ok: {bad}", file=sys.stderr)
                return 1
            table[name][str(seed)] = [o.signature for o in outs]
            print(f"{name} seed {seed}: {len(outs)} ops ok", flush=True)
    with open(SIGNATURES, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
