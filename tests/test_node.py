import dataclasses
import gc
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serlink import control, datapath, energy, node, phy
from serlink.codec import FLIT_BITS
from serlink.errors import AlignmentError, SimulationError, UnknownRegister
from serlink.node import (MEMORY_BYTES, DmaChannel, Fifo, LinkSimConfig, Node,
                          Scheduler, dma_step, run_protocol)


def make_node(name="n0"):
    sim = Scheduler()
    cfg = LinkSimConfig()
    return Node(name, sim, lambda *a, **k: None, cfg), sim


# -- scheduler ------------------------------------------------------------

def test_scheduler_orders_events_and_breaks_ties_fifo():
    sim = Scheduler()
    seen = []
    sim.schedule(200, lambda: seen.append("late"))
    sim.schedule(100, lambda: seen.append("a"))
    sim.schedule(100, lambda: seen.append("b"))
    sim.run()
    assert seen == ["a", "b", "late"]
    assert sim.now_ps == 200


def test_scheduler_rejects_past_events():
    sim = Scheduler()
    sim.schedule(100, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(50, lambda: None)


@settings(max_examples=100, deadline=None)
@given(times=st.lists(st.integers(0, 20), max_size=40))
def test_scheduler_dispatches_any_schedule_in_time_order_fifo_among_ties(times):
    sim = Scheduler()
    seen = []
    for i, t in enumerate(times):
        sim.schedule(t, lambda i=i: seen.append(i))
    sim.run()
    # a stable sort by time keeps insertion order among equal times
    assert seen == sorted(range(len(times)), key=times.__getitem__)


def test_scheduler_advance_returns_none_at_end():
    sim = Scheduler()
    assert sim.advance() is None
    sim.schedule(10, lambda: None)
    assert sim.advance() == 10
    assert sim.advance() is None


# -- registers ------------------------------------------------------------

def test_register_roundtrip():
    n, _ = make_node()
    n.write_register("tx_data_size", 16384)
    assert n.regs.tx_data_size == 16384
    n.write_register("cdr_n", 8)
    assert n.regs.cdr_n == 8


def test_register_unknown_name():
    n, _ = make_node()
    with pytest.raises(UnknownRegister):
        n.write_register("bogus", 1)
    assert not hasattr(n.regs, "bogus")


def test_register_alignment_checks():
    n, _ = make_node()
    with pytest.raises(AlignmentError):
        n.write_register("tx_data_size", 3)
    with pytest.raises(AlignmentError):
        n.write_register("tx_data_addr", 2)
    with pytest.raises(AlignmentError):
        n.write_register("rx_data_addr", len(n.memory))
    with pytest.raises(AlignmentError):
        n.write_register("cdr_n", 5)


def test_size_register_must_fit_in_memory_from_its_address():
    n, _ = make_node()
    with pytest.raises(AlignmentError, match="tx_data_size"):
        n.write_register("tx_data_size", MEMORY_BYTES + 4)
    n.write_register("rx_data_addr", 64)
    with pytest.raises(AlignmentError, match="rx_data_size"):
        n.write_register("rx_data_size", MEMORY_BYTES - 60)
    n.write_register("rx_data_size", MEMORY_BYTES - 64)
    assert (n.regs.tx_data_size, n.regs.rx_data_size) == (0, MEMORY_BYTES - 64)


@pytest.mark.parametrize("name", ["warm_en", "comm_en"])
def test_enable_registers_take_only_zero_or_one(name):
    # run_protocol reads t_*_warm_en/t_*_comm_en from rows whose value is
    # 1, so a write of any other non-zero value would drop those times
    rows = []
    n = Node("n0", Scheduler(), lambda *row: rows.append(row), LinkSimConfig())
    for bad in (7, -3, 2):
        with pytest.raises(AlignmentError, match=f"{name} must be 0 or 1"):
            n.write_register(name, bad)
    assert getattr(n.regs, name) == 0 and rows == []
    n.write_register(name, 1)
    n.write_register(name, 0)
    assert rows == [("n0", name, 1), ("n0", name, 0)]


@pytest.mark.parametrize("name,value", [("tx_data_size", 8.0), ("cdr_n", 4.0),
                                        ("warm_en", 1.0), ("rx_data_addr", None)])
def test_registers_take_only_integers(name, value):
    # int() used to truncate a float such as 8.0 into the register
    rows = []
    n = Node("n0", Scheduler(), lambda *row: rows.append(row), LinkSimConfig())
    with pytest.raises(AlignmentError, match=f"^{name} must be an integer, got "):
        n.write_register(name, value)
    assert n.regs == node.ConfigRegisters() and rows == []
    n.write_register("cdr_n", np.int64(8))  # any integral type passes
    n.write_register("warm_en", True)
    assert (n.regs.cdr_n, n.regs.warm_en) == (8, 1)


def test_size_write_while_its_dma_moves_is_rejected():
    n, sim = make_node()
    n.dma = DmaChannel("read", Fifo(depth=1 << 20))
    n.write_register("tx_data_size", 16)
    with pytest.raises(SimulationError, match="tx_data_size"):
        n.write_register("tx_data_size", 8)
    assert n.regs.tx_data_size == 16 and n.dma.remaining == 16
    sim.run()
    n.write_register("tx_data_size", 8)  # finished: the channel may start again
    assert n.dma.remaining == 8


def test_cdr_n_register_reaches_the_loop():
    cfg = LinkSimConfig(payload_bytes=256, cdr_n=8)
    report = run_protocol(cfg)
    assert report.ok
    assert any(sig == "cdr_n" and val == 8 for (_, n, sig, val) in report.events)


# -- DMA --------------------------------------------------------------------

def test_dma_read_moves_one_word_per_cycle():
    n, _ = make_node()
    n.memory[0:16384] = bytes(range(256)) * 64
    fifo = Fifo(depth=1 << 20)
    chan = DmaChannel("read", fifo, cursor=0, remaining=16384)
    cycles = 0
    while not chan.done:
        assert dma_step(chan, n.memory, now_ps=cycles * 20000)
        cycles += 1
    assert cycles == 4096  # 16 KB of 32-bit words at one word per cycle


def test_dma_done_channel_does_not_move():
    n, _ = make_node()
    chan = DmaChannel("read", Fifo(), cursor=0, remaining=0)
    assert not dma_step(chan, n.memory)


def test_dma_stalls_on_full_fifo_without_loss():
    n, _ = make_node()
    n.memory[0:64] = bytes(range(64))
    fifo = Fifo(depth=2)
    chan = DmaChannel("read", fifo, cursor=0, remaining=64)
    assert dma_step(chan, n.memory) and dma_step(chan, n.memory)
    assert not dma_step(chan, n.memory)  # full: stall, no data lost
    assert chan.remaining == 64 - 8
    fifo.pop(10**9)
    assert dma_step(chan, n.memory, now_ps=10**9)


def test_size_register_starts_the_channel_at_its_address():
    rows = []
    sim = Scheduler()
    n = Node("n0", sim, lambda *row, **k: rows.append(row), LinkSimConfig())
    n.memory[64:80] = bytes(range(16))
    fifo = Fifo(depth=1 << 20)
    n.dma = DmaChannel("read", fifo)
    n.write_register("rx_data_size", 16)  # the other direction's register
    assert sim.advance() is None and n.dma.remaining == 0
    n.write_register("tx_data_addr", 64)
    n.write_register("tx_data_size", 16)
    sim.run()
    # zero crossing latency: each entry's ready time is its push time
    assert fifo._entries == [(20000, 0x03020100), (40000, 0x07060504),
                             (60000, 0x0B0A0908), (80000, 0x0F0E0D0C)]
    assert rows.count(("n0", "dma_read_done", 1)) == 1
    bare, bare_sim = make_node()  # no channel: size writes start nothing
    bare.write_register("tx_data_size", 16)
    bare.write_register("rx_data_size", 16)
    assert bare_sim.advance() is None


def test_fifo_entries_respect_crossing_latency():
    fifo = Fifo(depth=4, latency_ps=40000)
    fifo.push(0, 0xAB)
    assert not fifo.ready(20000)
    assert fifo.ready(40000)
    assert fifo.pop(40000) == 0xAB


# -- protocols ----------------------------------------------------------------

def test_tx_initiated_transfer_is_byte_exact():
    report = run_protocol(LinkSimConfig(payload_bytes=1024))
    assert report.ok and report.mismatches == 0
    assert report.delivered_bytes == 1024


def test_rx_initiated_transfer_is_byte_exact():
    report = run_protocol(LinkSimConfig(payload_bytes=1024,
                                        scenario="rx_initiated"))
    assert report.ok and report.mismatches == 0


@pytest.mark.parametrize("scenario,n_bits", [("tx_initiated", 1840),
                                             ("rx_initiated", 1680)])
def test_the_stream_gets_the_serializers_bits_as_codes(monkeypatch, scenario, n_bits):
    loaded, pushed = [], []
    load, push = datapath.Serializer.load, phy.StreamingNrz.push_levels

    def recording_load(self, bits):
        load(self, bits)
        loaded.extend(bits)

    def recording_push(self, codes):
        push(self, codes)
        pushed.extend(codes)

    monkeypatch.setattr(datapath.Serializer, "load", recording_load)
    monkeypatch.setattr(phy.StreamingNrz, "push_levels", recording_push)
    report = run_protocol(LinkSimConfig(payload_bytes=64, scenario=scenario))
    assert report.ok
    sent = [code for code in pushed if code != phy.IDLE]
    assert sent == loaded
    assert len(sent) == n_bits


@pytest.mark.parametrize("scenario", ["tx_initiated", "rx_initiated"])
def test_the_wire_keeps_the_step_order(monkeypatch, scenario):
    # each flit reaches the stream when it is loaded, ahead of its pairs,
    # and each idle pair as it is stepped; the framer can go idle and load
    # the next flit within one quantum, so idles held to the quantum's end
    # would land after that flit
    stepped, pushes = [], []
    step, push = control.TxFramer.step_cycle, phy.StreamingNrz.push_levels

    def recording_step(self):
        pair = step(self)
        stepped.extend((phy.IDLE, phy.IDLE) if pair is None else pair)
        return pair

    def recording_push(self, codes):
        push(self, codes)
        pushes.append(list(codes))

    monkeypatch.setattr(control.TxFramer, "step_cycle", recording_step)
    monkeypatch.setattr(phy.StreamingNrz, "push_levels", recording_push)
    assert run_protocol(LinkSimConfig(payload_bytes=64, scenario=scenario)).ok
    pushed = [code for codes in pushes for code in codes]
    assert pushed[:len(stepped)] == stepped
    assert all(len(codes) == FLIT_BITS for codes in pushes if phy.IDLE not in codes)


@pytest.mark.parametrize("delay_s", [0.9e-6, 2e-6, 20e-6])
@pytest.mark.parametrize("scenario", ["tx_initiated", "rx_initiated"])
def test_a_transfer_completes_behind_a_long_delay(scenario, delay_s):
    # the stream learns each flit up to a flit early but renders only what
    # the RX samples, so any delay completes, even one longer than the run
    report = run_protocol(LinkSimConfig(payload_bytes=64, scenario=scenario,
                                        channel=phy.ChannelConfig(prop_delay_s=delay_s)))
    assert report.ok, report.diagnostic


def test_both_scenarios_with_frequency_offsets():
    for scenario in ("tx_initiated", "rx_initiated"):
        for offset in (0.0, 0.002, -0.002, 0.004):
            cfg = LinkSimConfig(payload_bytes=256, scenario=scenario,
                                freq_offset=offset)
            report = run_protocol(cfg)
            assert report.ok, (scenario, offset, report.diagnostic)


def test_minimum_payload_single_word():
    # 4 bytes = one data flit between the start and stop flits
    for scenario in ("tx_initiated", "rx_initiated"):
        report = run_protocol(LinkSimConfig(payload_bytes=4, scenario=scenario))
        assert report.ok and report.delivered_bytes == 4


def test_watchdog_deadline_follows_the_configured_clock():
    # a 10 MHz link clock needs ~265 us for 512 B; a deadline derived from
    # the nominal 0.8 Gbps line rate expired at ~115 us
    report = run_protocol(LinkSimConfig(payload_bytes=512, ui_s=1 / (2 * 10e6)))
    assert report.ok, report.diagnostic
    assert report.timestamps["end"] > 200e-6


@pytest.mark.parametrize("cycles", [300, 1000])
@pytest.mark.parametrize("scenario", list(node.SCENARIOS))
@pytest.mark.parametrize("payload", [4, 64])
def test_watchdog_deadline_covers_slow_programs(payload, scenario, cycles):
    # at 300 cycles a line the programs alone take about 73 us, so the
    # deadline must count them at their cost, not at a nominal 0.75 us
    report = run_protocol(LinkSimConfig(payload_bytes=payload, scenario=scenario,
                                        line_cost_cycles=cycles))
    assert report.ok, report.diagnostic


def test_expired_watchdog_reports_a_deadlock(monkeypatch):
    monkeypatch.setattr(node, "WATCHDOG_FACTOR", 0.1)
    report = run_protocol(LinkSimConfig(payload_bytes=4))
    assert not report.ok
    assert report.diagnostic == "ProtocolDeadlock: watchdog expired before completion"
    # 32 line bits, 70 cycles of timed program steps (12 lines of 3, one
    # interrupt entry of 2, the 32-cycle clock_ready wait) and 5 us of slack
    cycle_s = node.MCU_PERIOD_PS / node.PS_PER_S
    deadline_s = 0.1 * (32 * phy.UI_S + 70 * cycle_s + 5e-6)
    assert 0 < report.timestamps["end"] <= deadline_s


def test_gpio_ordering_matches_handshake():
    report = run_protocol(LinkSimConfig(payload_bytes=512))
    t_gpio0 = next(t for t, sig, v in report.gpio_edges if sig == "gpio0" and v)
    t_gpio1 = next(t for t, sig, v in report.gpio_edges if sig == "gpio1" and v)
    t_rx_warm = report.timestamps["rx_warm_en"]
    t_data = report.timestamps["first_data_bit"]
    assert t_gpio0 < t_rx_warm < t_gpio1 < t_data


def test_programming_latency_within_budget():
    for scenario in ("tx_initiated", "rx_initiated"):
        report = run_protocol(LinkSimConfig(payload_bytes=256, scenario=scenario))
        assert 0.6e-6 <= report.programming_latency_s <= 0.9e-6


def test_the_teardown_poll_stops_once_it_starts_teardown(monkeypatch):
    # at 300 cycles a line the teardown programs outlast many 200 ns polls
    polls_ps = []
    repeat = node._repeat

    def counted(sim, period_ps, fn):
        polls_ps.append(sim.now_ps)
        repeat(sim, period_ps, fn)
    monkeypatch.setattr(node, "_repeat", counted)
    report = run_protocol(LinkSimConfig(payload_bytes=64, line_cost_cycles=300))
    assert report.ok
    # the last poll is the one that found the payload in and started teardown
    assert polls_ps[-1] / node.PS_PER_S == report.timestamps["data_done"]


def test_rx_release_pin_variants():
    # default: the receiver forces the transmitter-owned pin low, which
    # the event log flags as a forced drive
    peer = run_protocol(LinkSimConfig(payload_bytes=256, scenario="rx_initiated",
                                      rx_release_pin="peer"))
    assert peer.ok
    assert any(sig == "gpio0_forced" for (_, n, sig, v) in peer.events)
    own = run_protocol(LinkSimConfig(payload_bytes=256, scenario="rx_initiated",
                                     rx_release_pin="own"))
    assert own.ok
    assert not any(sig == "gpio0_forced" for (_, n, sig, v) in own.events)
    assert any(sig == "gpio1" and v == 0 for (_, n, sig, v) in own.events)


@pytest.mark.parametrize("name,value", [("scenario", "rx"),
                                        ("rx_release_pin", "Peer")])
def test_unknown_choice_is_rejected_before_simulating(monkeypatch, name, value):
    # an unchecked pin would fall through to some release and report ok
    monkeypatch.setattr(node.Scheduler, "run",
                        lambda *a, **k: pytest.fail("simulated an unknown choice"))
    with pytest.raises(ValueError, match=f"^{name} must be "):
        run_protocol(dataclasses.replace(
            LinkSimConfig(payload_bytes=4, scenario="rx_initiated"), **{name: value}))


def test_gpio_single_driver_enforced():
    sim = Scheduler()
    cfg = LinkSimConfig()
    a = Node("a", sim, lambda *ar, **k: None, cfg)
    b = Node("b", sim, lambda *ar, **k: None, cfg)
    wire = node.GpioWire("gpio0", a, lambda *ar, **k: None)
    wire.set(1, a)
    with pytest.raises(SimulationError):
        wire.set(0, b)


def _assert_outcome_is_the_log(report, cfg):
    # the report keeps the config it ran and reads its outcome from the log
    signals = [sig for (_, _, sig, _) in report.events]
    assert report.loss_of_lock == ("loss_of_lock" in signals)
    assert report.decode_errors == signals.count("decode_error")
    assert report.config is cfg


def test_large_offset_reports_loss_of_lock():
    cfg = LinkSimConfig(payload_bytes=1024, freq_offset=0.02)
    report = run_protocol(cfg)
    assert not report.ok
    assert report.loss_of_lock
    assert "LossOfLock" in report.diagnostic
    _assert_outcome_is_the_log(report, cfg)


def test_loss_of_lock_ends_its_rx_quantum(monkeypatch):
    # the quantum that logs loss_of_lock feeds none of its pairs onward
    seen = []
    log_row, push_pair = node.EventLog.__call__, control.RxPipeline.push_pair

    def logged(self, name, signal, value):
        seen.append(signal)
        log_row(self, name, signal, value)

    def pushed(self, pair):
        seen.append("push_pair")
        return push_pair(self, pair)
    monkeypatch.setattr(node.EventLog, "__call__", logged)
    monkeypatch.setattr(control.RxPipeline, "push_pair", pushed)
    report = run_protocol(_PINNED_TRANSFERS["loss_of_lock"][0])
    assert report.loss_of_lock and "push_pair" in seen
    assert seen[seen.index("loss_of_lock"):] == ["loss_of_lock"]


def test_decode_failure_aborts_the_transfer():
    cfg = LinkSimConfig(payload_bytes=64, seed=1,
                        channel=phy.ChannelConfig(noise_sigma_v=0.08))
    report = run_protocol(cfg)
    assert not report.ok and not report.loss_of_lock
    assert report.decode_errors == 1
    assert report.diagnostic == ("decode failure during transfer: lane 3: "
                                 "0b0010101011 is not legal at POSITIVE disparity")
    assert [sig for (_, _, sig, _) in report.events].count("decode_error") == 1
    _assert_outcome_is_the_log(report, cfg)


@pytest.mark.parametrize("channel", [phy.ChannelConfig(rj_sigma_s=10e-9)])
def test_sampling_outside_the_waveform_is_reported_not_raised(channel):
    # 10 ns of jitter samples past the rendered waveform
    report = run_protocol(LinkSimConfig(payload_bytes=256, channel=channel))
    assert not report.ok and not report.loss_of_lock
    assert report.diagnostic.startswith("OutOfRange: ")


@pytest.mark.parametrize("cfg,watchdog,diagnostic", [
    (LinkSimConfig(payload_bytes=64), node.WATCHDOG_FACTOR, ""),
    (LinkSimConfig(payload_bytes=64, scenario="rx_initiated", rx_release_pin="peer"),
     node.WATCHDOG_FACTOR, ""),
    (LinkSimConfig(payload_bytes=64, scenario="rx_initiated", rx_release_pin="own"),
     node.WATCHDOG_FACTOR, ""),
    (LinkSimConfig(payload_bytes=1024, freq_offset=0.02), node.WATCHDOG_FACTOR,
     "LossOfLock: "),
    (LinkSimConfig(payload_bytes=64, seed=1, channel=phy.ChannelConfig(noise_sigma_v=0.08)),
     node.WATCHDOG_FACTOR, "decode failure during transfer: "),
    (LinkSimConfig(payload_bytes=256, channel=phy.ChannelConfig(rj_sigma_s=10e-9)),
     node.WATCHDOG_FACTOR, "OutOfRange: "),
    (LinkSimConfig(payload_bytes=4), 0.1, "ProtocolDeadlock: "),
], ids=["tx_initiated", "rx_peer_release", "rx_own_release", "loss_of_lock",
        "decode_failure", "out_of_waveform", "watchdog"])
def test_a_returned_transfer_leaves_no_reference_cycles(monkeypatch, cfg, watchdog,
                                                        diagnostic):
    # reference counting alone frees the simulation (scheduler, nodes and
    # their memories, the streamed waveform) when run_protocol returns, so
    # a sweep of transfers holds one simulation at a time
    monkeypatch.setattr(node, "WATCHDOG_FACTOR", watchdog)
    gc.collect()
    gc.disable()
    try:
        report = run_protocol(cfg)
    finally:
        gc.enable()
    assert report.ok == (not diagnostic) and report.diagnostic.startswith(diagnostic)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        found = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert found == 0, f"{found} objects left in reference cycles: {kinds}"


@pytest.mark.parametrize("payload", [0, 6, MEMORY_BYTES + 4])
def test_payload_outside_node_memory_is_rejected_before_simulating(payload):
    # the config itself rejects a payload that does not fit node memory
    with pytest.raises(ValueError, match="^payload_bytes must be "):
        run_protocol(LinkSimConfig(payload_bytes=payload))


def test_transfer_report_is_deterministic():
    a = run_protocol(LinkSimConfig(payload_bytes=512, seed=5))
    b = run_protocol(LinkSimConfig(payload_bytes=512, seed=5))
    assert a.to_text() == b.to_text()
    assert a.events_csv() == b.events_csv()
    c = run_protocol(LinkSimConfig(payload_bytes=512, seed=6))
    assert c.events_csv() != a.events_csv() or c.to_text() != a.to_text()


# sha256 of to_text() + events_csv(); any change to event order or time,
# report text or energy moves a digest, so a refactor of the transfer
# lifecycle must leave all four as they are
_PINNED_TRANSFERS = {
    "tx_256": (
        LinkSimConfig(payload_bytes=256),
        "78f9100075e1d9bd766fba2b2503d0f2a685e0d095ff2a744cca455945b2a1ed"),
    "rx_256_own_pin_offset": (
        LinkSimConfig(payload_bytes=256, scenario="rx_initiated",
                      rx_release_pin="own", freq_offset=0.002),
        "0c7b506e94e1c7497f949248e419fcf696bc3f7ee247acd3557042580b18059b"),
    "noisy_jittered_5cm": (
        LinkSimConfig(payload_bytes=256, channel=phy.ChannelConfig(
            trace_length_cm=5.0, noise_sigma_v=0.05, rj_sigma_s=10e-12)),
        "2302744d7d0ff79923a6a5214abab95e1c507d83eff396ca1b0cb16d1a7e2a87"),
    "loss_of_lock": (
        LinkSimConfig(payload_bytes=1024, freq_offset=0.02),
        "24bc37ab5c77edf7797338130f3841da28b200c3b4753bfeea6e377cfc35f881"),
    "tx_256_odd_alignment": (  # shift_used: a "shift 1" row
        LinkSimConfig(payload_bytes=256, freq_offset=0.002),
        "f27ef163a7a5a3792cbf1bbe991deec73792839acde1892f626b63fb9197e180"),
    "decode_failure": (  # a decode_error row ends the transfer
        LinkSimConfig(payload_bytes=64, seed=1,
                      channel=phy.ChannelConfig(noise_sigma_v=0.08)),
        "b95fe3fdd460768e4ae32e8118657535c94a56f9c327c0527d5939f316aec92b"),
    "rx_256_peer_release": (  # the forced gpio0 release
        LinkSimConfig(payload_bytes=256, scenario="rx_initiated"),
        "bb9f5f6f5926cd80b6096800dceebc0b6a23f3dc37d619f5d251f562ecfd9035"),
}


def test_transfer_outputs_are_pinned():
    moved = []
    for name, (cfg, digest) in _PINNED_TRANSFERS.items():
        report = run_protocol(cfg)
        text = report.to_text() + report.events_csv()
        if hashlib.sha256(text.encode()).hexdigest() != digest:
            moved.append(name)
    assert moved == []


def test_shift_path_exercised_by_some_offset():
    # an equal mix of alignments is not guaranteed, but across the offsets
    # used here both capture parities must appear
    shifts = set()
    for offset in (0.0, 0.002, -0.002, 0.004):
        rep = run_protocol(LinkSimConfig(payload_bytes=256, freq_offset=offset))
        assert rep.ok
        shifts.add(rep.shift_used)
    assert shifts == {True, False}


def test_serdes_never_stalls_dma():
    # 0.8 Gbps line rate < 1.6 Gbps DMA rate: the TX FIFO refills between
    # flit pops, so the framer never sees valid drop mid-frame and the
    # whole payload travels in a single start/stop frame
    report = run_protocol(LinkSimConfig(payload_bytes=2048))
    assert report.ok
    stops = [1 for (_, n, sig, v) in report.events if sig == "stop_detected"]
    assert len(stops) == 1


def test_event_energy_integration_matches_phase_model():
    # integrate the real event log and compare against a closed-form sum
    # over the same phase boundaries (the wire itself runs 40 coded bits
    # per 32 payload bits, so the active span exceeds payload/line_rate)
    payload = 4096
    report = run_protocol(LinkSimConfig(payload_bytes=payload))
    p = energy.DEFAULT_PROFILE
    t = report.timestamps
    ev = {sig: tt for (tt, n, sig, v) in report.events
          if sig in ("start_detected", "stop_detected")}
    idle0 = p.p_idle_w * t["tx_warm_en"]
    tx_only = ((p.tx_analog_w + p.tx_digital_active_w + 2 * p.digital_standby_w)
               * (t["rx_warm_en"] - t["tx_warm_en"]))
    warm1 = p.p_warm_w * (ev["start_detected"] - t["rx_warm_en"])
    active = p.p_active_w * (ev["stop_detected"] - ev["start_detected"])
    warm2 = p.p_warm_w * (t["end"] - ev["stop_detected"])
    expect = idle0 + tx_only + warm1 + active + warm2 + 2 * p.pg_overhead_j
    assert report.energy_j == pytest.approx(expect, rel=0.02)
    # and the active wire time reflects the 10b/8b coding overhead
    wire_span = ev["stop_detected"] - ev["start_detected"]
    assert wire_span == pytest.approx(payload * 8 * (40 / 32) / 0.8e9, rel=0.02)


@pytest.mark.parametrize("scenario", ["tx_initiated", "rx_initiated"])
@pytest.mark.parametrize("payload", [1024, 4096])
def test_timeline_matches_the_duty_cycle_model_at_the_coded_rate(payload, scenario):
    # an oracle that shares no code with the node: the duty-cycle model at
    # zero idle time, with the wire's 32 payload bits per 40 coded bits
    report = run_protocol(LinkSimConfig(payload_bytes=payload, scenario=scenario))
    assert report.ok
    bits = payload * 8
    t = report.timestamps
    p = energy.DEFAULT_PROFILE
    coded = dataclasses.replace(p, line_rate=p.line_rate * 32 / 40)
    bw = energy.bw_max(coded, payload)
    model = energy.duty_cycle_energy(coded, energy.DutyCycleConfig(bw, payload))
    assert bits / (t["end"] - t["tx_warm_en"]) == pytest.approx(bw, rel=0.015)
    assert report.energy_j / bits == pytest.approx(model.energy_per_bit_pj * 1e-12,
                                                   rel=0.015)
