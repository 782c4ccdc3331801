"""Outside-in span tracing of serlink's public calls.

``SpanRecorder.install`` replaces named public functions and methods of
each layer with wrappers that record one span per call (name, parent,
start, end) in flat in-memory arrays, plus a few counters taken from the
call's arguments or result.  Nothing under ``src/`` changes; the
wrappers exist only in the traced benchmark process.  ``layer_totals``
turns the span tree into calls, self time and inclusive time per name,
and ``layer_metrics`` derives the per-layer metrics from those.
"""

import functools
import importlib
import time
from array import array

import numpy as np

OP_SPAN = "bench.op"

# span name -> (module, attribute path) of the public call it wraps
TRACED_CALLS = {
    "codec.encode_flit": ("serlink.codec", "encode_flit"),
    "codec.decode_flit": ("serlink.codec", "decode_flit"),
    "datapath.serializer_step": ("serlink.datapath", "Serializer.step"),
    "datapath.deserializer_push": ("serlink.datapath", "Deserializer.push"),
    "datapath.realigner_push": ("serlink.datapath", "ShiftRealigner.push"),
    "control.tx_step_cycle": ("serlink.control", "TxFramer.step_cycle"),
    "control.rx_push_pair": ("serlink.control", "RxPipeline.push_pair"),
    "cdr.recover_stream": ("serlink.cdr", "recover_stream"),
    "cdr.process_batch": ("serlink.cdr", "CdrLoop.process_batch"),
    "phy.push_levels": ("serlink.phy", "StreamingNrz.push_levels"),
    "phy.ensure": ("serlink.phy", "StreamingNrz.ensure"),
    "phy.sample_bits": ("serlink.phy", "StreamingNrz.sample_bits"),
    "phy.drive": ("serlink.phy", "drive"),
    "phy.channel_apply": ("serlink.phy", "channel_apply"),
    "phy.eye_capture": ("serlink.phy", "eye_capture"),
    "node.run_protocol": ("serlink.node", "run_protocol"),
    "node.scheduler": ("serlink.node", "Scheduler.advance"),
    "node.dma_step": ("serlink.node", "dma_step"),
    "energy.energy_trace": ("serlink.energy", "energy_trace"),
}

# span name -> (counter, amount taken from (args, result))
COUNTERS = {
    "cdr.process_batch": ("cdr.pi_steps", lambda a, r: abs(r.pi_step)),
    "phy.push_levels": ("phy.ui_rendered", lambda a, r: len(a[1])),
    "control.rx_push_pair": ("control.rx_words", lambda a, r: len(r)),
    "control.tx_step_cycle": ("control.tx_idle", lambda a, r: r is None),
    "node.dma_step": ("node.dma_moved", lambda a, r: bool(r)),
    "node.run_protocol": ("node.sim_us", lambda a, r: r.timestamps["end"] * 1e6),
}


class SpanRecorder:
    """Keeps every span of a run in memory as four flat arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys((c for c, _ in COUNTERS.values()), 0)
        self._open = [-1]

    def _name_index(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        sid = self._name_index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_ = self._open
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(sid)
            parent.append(open_[-1])
            end.append(0.0)
            open_.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, result)
            return result
        return traced

    def install(self):
        """Wrap every call in TRACED_CALLS; returns an undo function."""
        undo = []
        for name, (module, path) in TRACED_CALLS.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(name, original))
            undo.append((owner, attr, original))

        def uninstall():
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)
        return uninstall

    def save(self, path):
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 parent=np.asarray(self.parent), start=np.asarray(self.start),
                 end=np.asarray(self.end))


def layer_totals(names, name_id, parent, start, end):
    """Calls, self time and inclusive time per span name.

    Spans are in start order, so a parent precedes its children.  Self
    time is a span's duration minus the durations of its direct
    children (which cannot overlap in one thread).  Inclusive time sums
    only the outermost span of a name, so recursion is not counted twice.
    """
    ids = np.asarray(name_id, dtype=np.int64)
    par = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    nested = par >= 0
    child = np.bincount(par[nested], weights=dur[nested], minlength=len(ids))
    self_t = dur - child

    top = np.ones(len(ids), dtype=bool)
    masks = []  # names open on the path to each span, as a bitmask
    for i, (sid, p) in enumerate(zip(ids.tolist(), par.tolist())):
        above = masks[p] if p >= 0 else 0
        top[i] = not (above >> sid) & 1
        masks.append(above | (1 << sid))

    k = len(names)
    calls = np.bincount(ids, minlength=k)
    selfs = np.bincount(ids, weights=self_t, minlength=k)
    incls = np.bincount(ids[top], weights=dur[top], minlength=k)
    return {name: {"calls": int(calls[i]), "self_s": float(selfs[i]),
                   "incl_s": float(incls[i])}
            for i, name in enumerate(names)}


def _rate(work, seconds):
    return work / seconds if seconds > 0 else 0.0


# Per-layer metrics that are not a plain calls/self_s/incl_s triple.
DERIVED = (
    ("cdr.pi_steps", "count", "lower"),
    ("cdr.bits_per_s", "bit/s", "higher"),
    ("phy.ui_rendered", "UI", "lower"),
    ("phy.render_ui_per_s", "UI/s", "higher"),
    ("control.rx_words_per_pair", "ratio", "higher"),
    ("control.tx_idle_ratio", "ratio", "lower"),
    ("control.rx_bits_per_s", "bit/s", "higher"),
    ("datapath.bits_per_s", "bit/s", "higher"),
    ("codec.flits_per_s", "flit/s", "higher"),
    ("node.events_per_sim_us", "event/us", "lower"),
    ("node.events_per_s", "event/s", "higher"),
    ("node.dma_moved_ratio", "ratio", "higher"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
)


def _count_key(name):
    return f"{name}.events" if name == "node.scheduler" else f"{name}.calls"


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in TRACED_CALLS:
        spec += [(_count_key(name), "count", "lower"),
                 (f"{name}.self_s", "s", "lower"),
                 (f"{name}.incl_s", "s", "lower")]
    return spec + list(DERIVED)


def layer_metrics(totals, counters, n_ops):
    """Per-layer metric values, each per operation unless it is a ratio or rate.

    ``bench.trace_overhead`` needs the untraced run and is added by the
    caller that has both.
    """
    def t(name):
        return totals.get(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})

    values = {}
    for name in TRACED_CALLS:
        tot = t(name)
        values[_count_key(name)] = tot["calls"] / n_ops
        values[f"{name}.self_s"] = tot["self_s"] / n_ops
        values[f"{name}.incl_s"] = tot["incl_s"] / n_ops

    batch = t("cdr.process_batch")
    serdes = [t(f"datapath.{n}") for n in ("serializer_step", "deserializer_push",
                                           "realigner_push")]
    codec = [t("codec.encode_flit"), t("codec.decode_flit")]
    rx, tx = t("control.rx_push_pair"), t("control.tx_step_cycle")
    events = t("node.scheduler")["calls"]
    dma = t("node.dma_step")["calls"]
    render_s = t("phy.push_levels")["incl_s"] + t("phy.ensure")["self_s"]
    values.update({
        "cdr.pi_steps": counters["cdr.pi_steps"] / n_ops,
        "cdr.bits_per_s": _rate(8 * batch["calls"], batch["incl_s"]),
        "phy.ui_rendered": counters["phy.ui_rendered"] / n_ops,
        "phy.render_ui_per_s": _rate(counters["phy.ui_rendered"], render_s),
        "control.rx_words_per_pair": _rate(counters["control.rx_words"], rx["calls"]),
        "control.tx_idle_ratio": _rate(counters["control.tx_idle"], tx["calls"]),
        "control.rx_bits_per_s": _rate(2 * rx["calls"], rx["incl_s"]),
        "datapath.bits_per_s": _rate(2 * sum(s["calls"] for s in serdes),
                                     sum(s["incl_s"] for s in serdes)),
        "codec.flits_per_s": _rate(sum(c["calls"] for c in codec),
                                   sum(c["incl_s"] for c in codec)),
        "node.events_per_sim_us": _rate(events, counters["node.sim_us"]),
        "node.events_per_s": _rate(events, t("node.run_protocol")["incl_s"]),
        "node.dma_moved_ratio": _rate(counters["node.dma_moved"], dma),
        "bench.unattributed_s": t(OP_SPAN)["self_s"] / n_ops,
    })
    return values
