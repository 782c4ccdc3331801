"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import record_signatures  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

child.import_serlink(ROOT)

import workloads  # noqa: E402
from serlink import node  # noqa: E402


def test_self_time_on_nested_span_tree():
    # A[0,10] { B[1,4] { C[2,3] }  B[5,9] { B[6,7] } }
    names = ["A", "B", "C"]
    name_id = [0, 1, 2, 1, 1]
    parent = [-1, 0, 1, 0, 3]
    start = [0.0, 1.0, 2.0, 5.0, 6.0]
    end = [10.0, 4.0, 3.0, 9.0, 7.0]
    totals = spans.layer_totals(names, name_id, parent, start, end)
    assert totals["A"] == {"calls": 1, "self_s": 3.0, "incl_s": 10.0}
    # self: (3 - 1) + (4 - 1) + 1; the nested B is not counted twice inclusively
    assert totals["B"] == {"calls": 3, "self_s": 6.0, "incl_s": 7.0}
    assert totals["C"] == {"calls": 1, "self_s": 1.0, "incl_s": 1.0}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(99))) is None  # p90 leaves 9
    p, value, n, beyond = run.tail_percentile(list(range(1, 101)))
    assert (p, value, n, beyond) == (90.0, 90, 100, 10)
    p, value, n, beyond = run.tail_percentile(list(range(1, 1001)))
    assert (p, value, beyond) == (99.0, 990, 10)
    p, _, _, beyond = run.tail_percentile(list(range(400)))
    assert (p, beyond) == (95.0, 20)


def _outcome(sig, ok=True):
    return workloads.Outcome(ok, sig, 1)


def test_signature_mismatch_counts_as_failed_op():
    outs = [_outcome("a"), _outcome("b"), _outcome("a"), _outcome("x")]
    configs = [0, 1, 0, 1]
    flags, messages = child.judge(outs, configs, ["a", "b"])
    assert flags == [False, False, False, True]
    assert "expected b" in messages[0]
    # without stored signatures, a repeat must reproduce the first run
    flags, _ = child.judge(outs, configs, None)
    assert flags == [False, False, False, True]
    flags, _ = child.judge([_outcome("a", ok=False)], [0], None)
    assert flags == [True]
    # and so must the same config run in another process
    assert run.signatures_agree([{"signatures": {"0": "a", "1": "b"}},
                                 {"signatures": {"1": "b"}}])
    assert not run.signatures_agree([{"signatures": {"0": "a"}},
                                     {"signatures": {"0": "x"}}])


def test_raising_op_counts_as_failed():
    def boom():
        raise RuntimeError("simulated failure")
    configs, durations, scaled, outs = child.measure([boom], 0.0)
    assert len(durations) == len(scaled) == 1
    flags, messages = child.judge(outs, configs, None)
    assert flags == [True] and "simulated failure" in messages[0]


def test_traced_signatures_equal_untraced():
    picks = [workloads.operations("burst_64", 3)[0],
             workloads.operations("eye_sweep", 3)[3]]
    plain = [op().signature for op in picks]
    original = node.run_protocol
    recorder = spans.SpanRecorder()
    uninstall = recorder.install()
    try:
        assert node.run_protocol is not original
        traced = [recorder.wrap(spans.OP_SPAN, op)().signature for op in picks]
    finally:
        uninstall()
    assert node.run_protocol is original
    assert traced == plain

    totals = spans.layer_totals(recorder.names, recorder.name_id, recorder.parent,
                                recorder.start, recorder.end)
    op_time = totals[spans.OP_SPAN]["incl_s"]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(op_time)
    for name in ("node.scheduler", "cdr.process_batch", "control.rx_push_pair",
                 "phy.sample_bits", "phy.eye_capture", "codec.decode_flit"):
        assert totals[name]["calls"] > 0
    metrics = spans.layer_metrics(totals, recorder.counters, len(picks))
    assert 0 < metrics["control.rx_words_per_pair"] <= 1 / 20


def test_stored_signatures_match_workload_cycles():
    with open(child.SIGNATURES) as fh:
        table = json.load(fh)
    assert set(table) == set(workloads.WORKLOADS)
    seeds = [str(seed) for seed in record_signatures.SEEDS]
    for name, by_seed in table.items():
        assert sorted(by_seed, key=int) == seeds
        cycle = len(workloads.operations(name, 0))
        assert all(len(sigs) == cycle for sigs in by_seed.values())


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == spans.per_layer_spec()
    assert {m["name"] for m in bench["end_to_end"]} == {
        "op_p50_s", "bits_per_s", "setup_s", "peak_rss_mb"}


def test_refuses_to_run_without_serlink_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "burst_64",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
