"""Run one workload in this process and print its raw measurements as JSON.

    python3 bench/child.py --workload NAME --seed N --seconds S [--part I/P] [--traced]

Run from the root of a serlink checkout; serlink is imported from its
``src/``.  ``bench/run.py`` starts this in fresh processes, so every
untraced number comes from a process in which no wrapper was ever
installed.  Operations cycle through the workload's configs until the
time is up, starting at the I-th of P evenly spaced configs, so that P
processes together run every config about equally often.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SIGNATURES = os.path.join(HERE, "signatures.json")
SPANS_DIR = ".bench_out"
# Reference host speed: one reference repetition takes REF_REP_S there
# (about its median on the 2-vCPU Xeon the benchmark was written on).
REF_REP_S = 1.0e-3
REF_SHARE = 0.2
# Host-speed sample taken before the first operation, comparable to the
# REF_SHARE samples that follow each operation.
FIRST_SAMPLE_S = 0.1
_REF_ARRAY = np.linspace(-1.0, 1.0, 1 << 16)


def import_serlink(root):
    """Import serlink from ``root/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import serlink
    if not os.path.abspath(serlink.__file__).startswith(src + os.sep):
        raise ImportError(f"serlink imported from {serlink.__file__}, not {src}")
    return serlink


def judge(outcomes, configs, expected):
    """Flag each operation that failed; returns (flags, messages).

    ``configs[k]`` is the config index operation ``k`` ran.  An
    operation fails if it is not ok, raised, or departs from its stored
    signature.  Without stored signatures for the seed, each repeat of a
    config must reproduce its first run exactly.
    """
    first = {}
    flags, messages = [], []
    for k, (out, i) in enumerate(zip(outcomes, configs)):
        want = expected[i] if expected else first.setdefault(i, out.signature)
        bad = not out.ok or out.signature != want
        flags.append(bad)
        if bad:
            messages.append(f"op {k} (config {i}): ok={out.ok} signature "
                            f"{out.signature} expected {want} {out.detail}")
    return flags, messages


def reference_rep():
    """Time one repetition of a fixed mix of interpreter and numpy work.

    The host is shared: its speed drifts by up to a third within seconds
    and over minutes.  Interleaved with the operations, this kernel
    measures that speed so operation times can be scaled to a fixed one.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += (i * i) % 7
    x = np.arange(16.0)
    for _ in range(50):
        x = np.interp(x * 0.5, x, x) + 1.0
    np.where(_REF_ARRAY > 0, _REF_ARRAY, -_REF_ARRAY).cumsum()
    return time.perf_counter() - t0


def host_speed(budget_s):
    """Mean reference repetition time over at least ``budget_s`` (two reps minimum)."""
    times = [reference_rep(), reference_rep()]
    while sum(times) < budget_s:
        times.append(reference_rep())
    return sum(times) / len(times)


def measure(ops, seconds, start=0, wrap_op=None):
    """Run ``ops`` in turn from index ``start`` for at least ``seconds``.

    Returns the config index, host duration, duration scaled to the
    reference host speed, and outcome of each operation.  After each
    operation the reference kernel runs for REF_SHARE of its duration;
    an operation is scaled by the mean of the speeds measured just
    before and after it.  The first operation's "before" sample runs the
    kernel for FIRST_SAMPLE_S.  An operation that raises is recorded as a
    failed outcome and the run goes on.
    """
    from workloads import Outcome
    configs, durations, scaled, outcomes = [], [], [], []
    if wrap_op is not None:
        ops = [wrap_op(op) for op in ops]
    clock = time.perf_counter
    deadline = clock() + seconds
    before = host_speed(FIRST_SAMPLE_S)
    k = start
    while not durations or clock() < deadline:
        i = k % len(ops)
        t0 = clock()
        try:
            out = ops[i]()
        except Exception:
            out = Outcome(False, "raised", 0, traceback.format_exc(limit=3))
        d = clock() - t0
        after = host_speed(REF_SHARE * d)
        configs.append(i)
        durations.append(d)
        scaled.append(d * REF_REP_S / ((before + after) / 2))
        outcomes.append(out)
        before = after
        k += 1
    return configs, durations, scaled, outcomes


def run_workload(workload, seed, seconds, part=(0, 1), traced=False, root="."):
    serlink = import_serlink(root)
    import scipy
    import workloads

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    ops = workloads.operations(workload, seed)
    workloads.warm_up(workload)
    recorder = None
    wrap_op = None
    if traced:
        import spans
        recorder = spans.SpanRecorder()
        recorder.install()
        wrap_op = lambda op: recorder.wrap(spans.OP_SPAN, op)

    start = part[0] * len(ops) // part[1]
    configs, durations, scaled, outcomes = measure(ops, seconds, start, wrap_op)
    with open(SIGNATURES) as fh:
        expected = json.load(fh).get(workload, {}).get(str(seed))
    flags, messages = judge(outcomes, configs, expected)
    for msg in messages:
        print(f"bench: {workload} seed {seed}: FAILED {msg}", file=sys.stderr)

    result = {
        "attempted": len(durations),
        "failed": sum(flags),
        "signatures_stored": expected is not None,
        "signatures": {str(i): out.signature for i, out in zip(configs, outcomes)},
        "durations": durations,
        "scaled": scaled,
        "work": sum(o.work for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"serlink": serlink.__version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if traced:
        totals = spans.layer_totals(recorder.names, recorder.name_id,
                                    recorder.parent, recorder.start, recorder.end)
        result["layers"] = spans.layer_metrics(totals, recorder.counters,
                                               len(durations))
        os.makedirs(os.path.join(root, SPANS_DIR), exist_ok=True)
        path = os.path.join(root, SPANS_DIR, f"spans-{workload}.npz")
        recorder.save(path)
        result["spans_file"] = path
        result["spans"] = len(recorder.start)
    return result


def main(argv=None):
    sys.path.insert(0, HERE)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--part", default="0/1",
                        type=lambda s: tuple(int(x) for x in s.split("/")))
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  args.part, args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
