"""serlink benchmark: one workload per call, end-to-end or per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a serlink checkout.  Workloads: transfer_2k,
burst_64, ber_track, eye_sweep (see bench/README.md).

--trace 0 splits the measuring time over MEASURE_PROCS fresh untraced
child processes, times set-up in SETUP_PROBES more, and reports the
end-to-end metrics.  --trace 1 runs the workload untraced and then
traced, each in one child process, checks that both simulated the same
outputs, and reports the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the JSON result.  Exit code
0 on a completed run, 1 when a child fails or times out, 2 when there
is no serlink source to benchmark.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MEASURE_PROCS = 3
SETUP_PROBES = 4
# A run may take DEADLINE_PER_S x --seconds plus DEADLINE_FIXED_S; that
# covers the traced mode's two children, trace overhead, set-up probes
# and the host-speed samples.
DEADLINE_PER_S = 4.0
DEADLINE_FIXED_S = 90.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
MIN_BEYOND = 10
# Children run single-threaded, with one string-hash layout for every run.
CHILD_ENV = dict({k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS")}, PYTHONHASHSEED="0")
SRC_PACKAGE = os.path.join("src", "serlink")


class ChildFailed(Exception):
    pass


def tail_percentile(samples):
    """The highest TAIL_PERCENTILES entry with MIN_BEYOND samples beyond it.

    Returns ``(percentile, value, n, beyond)`` by the nearest-rank rule,
    or None when no listed percentile has enough samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in sorted(TAIL_PERCENTILES, reverse=True):
        rank = max(1, math.ceil(p * n / 100.0))
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return p, ordered[rank - 1], n, beyond
    return None


def run_child(args, deadline):
    """Run a bench script in a fresh single-threaded process; parse its last line."""
    env = dict(os.environ, **CHILD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting " + args[0])
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, args[0])] + args[1:],
                              stdout=subprocess.PIPE, env=env, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[0]} timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit(root):
    """The checked-out commit of ``root``, or "unknown" outside a git checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root, versions):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "serlink": versions["serlink"],
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
    }


def signatures_agree(runs):
    """Every config that more than one process ran simulated the same output."""
    seen = {}
    return all(seen.setdefault(i, sig) == sig
               for r in runs for i, sig in r["signatures"].items())


def summarise(runs):
    """Pool the operations of several child processes of one workload."""
    scaled = [d for r in runs for d in r["scaled"]]
    host = [d for r in runs for d in r["durations"]]
    work = sum(r["work"] for r in runs)
    return {
        "op_p50_s": statistics.median(scaled),
        "op_tail": tail_percentile(scaled),
        "bits_per_s": work / sum(scaled),
        "host_op_p50_s": statistics.median(host),
        "host_bits_per_s": work / sum(host),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }


def child_args(args, *extra):
    return ["child.py", "--workload", args.workload, "--seed", str(args.seed),
            *extra]


def end_to_end(args, deadline):
    runs = [run_child(child_args(args, "--seconds", str(args.seconds / MEASURE_PROCS),
                                 "--part", f"{i}/{MEASURE_PROCS}"), deadline)
            for i in range(MEASURE_PROCS)]
    probes = [run_child(["setup_probe.py"], deadline) for _ in range(SETUP_PROBES)]
    s = summarise(runs)
    setup_s = statistics.median(p["setup_s"] for p in probes)
    host_setup_s = statistics.median(p["host_setup_s"] for p in probes)
    n = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    stored = runs[0]["signatures_stored"]
    print(f"# workload {args.workload} seed {args.seed}: {n} ops in {len(runs)} "
          f"processes, {failed} failed, signatures "
          f"{'stored' if stored else 'checked by repeat'}")
    print("# times scaled to the reference host speed; raw host figures in brackets")
    print(f"op_p50_s     {s['op_p50_s']:.6f} s  [{s['host_op_p50_s']:.6f} s]")
    if s["op_tail"]:
        p, value, count, beyond = s["op_tail"]
        print(f"op_tail_s    {value:.6f} s  (p{p:g}, n={count}, {beyond} beyond)")
    else:
        print(f"op_tail_s    not reported: {n} ops leave no percentile >= p90 "
              f"with {MIN_BEYOND} samples beyond")
    print(f"bits_per_s   {s['bits_per_s']:.1f} bit/s  [{s['host_bits_per_s']:.1f} bit/s]")
    print(f"setup_s      {setup_s:.6f} s  [{host_setup_s:.6f} s]  (median of "
          f"{len(probes)} fresh processes; import "
          f"{statistics.median(p['import_s'] for p in probes):.3f} s)")
    print(f"peak_rss_mb  {s['peak_rss_mb']:.1f} MB")
    print(f"failed_frac  {failed / n:g}  ({failed}/{n})")
    metrics = {
        "op_p50_s": {"value": s["op_p50_s"], "unit": "s"},
        "bits_per_s": {"value": s["bits_per_s"], "unit": "bit/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": s["peak_rss_mb"], "unit": "MB"},
    }
    return runs, metrics, signatures_agree(runs)


def per_layer(args, deadline):
    sys.path.insert(0, HERE)
    from spans import per_layer_spec

    plain = run_child(child_args(args, "--seconds", str(args.seconds)), deadline)
    traced = run_child(child_args(args, "--seconds", str(args.seconds), "--traced"),
                       deadline)
    same = signatures_agree([plain, traced])
    if not same:
        print("bench: traced run simulated different outputs than the untraced run",
              file=sys.stderr)
    layers = dict(traced["layers"])
    layers["bench.trace_overhead"] = (summarise([traced])["op_p50_s"]
                                      / summarise([plain])["op_p50_s"])
    print(f"# workload {args.workload} seed {args.seed}: untraced {plain['attempted']} "
          f"ops, traced {traced['attempted']} ops, {traced['spans']} spans -> "
          f"{traced['spans_file']}; traced signatures "
          f"{'equal' if same else 'DIFFER from'} untraced")
    metrics = {}
    for name, unit, _ in per_layer_spec():
        metrics[name] = {"value": layers[name], "unit": unit}
        print(f"{name:36s} {layers[name]:.6g} {unit}")
    return [plain, traced], metrics, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, SRC_PACKAGE, "__init__.py")):
        print(f"bench: no {SRC_PACKAGE} here; run from the root of a serlink "
              f"checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_FIXED_S + DEADLINE_PER_S * args.seconds
    try:
        runs, metrics, consistent = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("# provenance " + json.dumps(provenance(root, runs[0]["versions"])))
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
