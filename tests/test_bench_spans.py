"""The benchmark's span table names calls that exist and that transfers make.

``bench/spans.py`` wraps serlink's public calls by name to report time
per layer.  A rename leaves a ``TRACED_CALLS`` path dangling, and a data
plane that stops going through a wrapped method (say, a flit table that
bypasses ``TxFramer.step_cycle``) hides where its time went.  Both are
caught here, reading the span table without changing it.
"""

import importlib
import importlib.util
import pathlib
from collections import Counter

from serlink import node

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "serlink"

# the wrapped calls every simulated transfer runs per event
DATA_PLANE = ("node.scheduler", "control.tx_step_cycle", "datapath.serializer_step",
              "control.rx_push_pair", "phy.sample_bits", "phy.ensure",
              "phy.push_levels", "cdr.process_batch")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves_in_the_package():
    spans = _spans()
    for name, (module, path) in spans.TRACED_CALLS.items():
        owner = importlib.import_module(module)
        assert pathlib.Path(owner.__file__).parent == PACKAGE, name
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), name


def test_a_small_transfer_calls_every_data_plane_span():
    spans = _spans()
    recorder = spans.SpanRecorder()
    uninstall = recorder.install()
    try:
        report = node.run_protocol(node.LinkSimConfig(payload_bytes=64))
    finally:
        uninstall()
    assert report.ok
    calls = Counter(recorder.names[i] for i in recorder.name_id)
    assert [name for name in DATA_PLANE if not calls[name]] == []
