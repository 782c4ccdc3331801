"""Two-chip link simulation: registers, DMA, GPIO handshake, scheduler.

Each node models one chip: Table-style configuration registers, a flat
on-chip memory, one uDMA channel moving one 32-bit word per 50 MHz cycle
through a clock-domain-crossing FIFO (the TX node reads memory into its
FIFO, the RX node writes its FIFO to memory), and two GPIO pins used by
the synchronization protocols.  Software configures the DMA only through
the registers: writing the channel's size register starts it at its
address register.  A shared deterministic event scheduler (integer
picosecond timestamps, FIFO order among equal times) drives both nodes
plus the serial link data plane.

Protocols are scripted step lists, not an ISA simulation: every program
line costs a fixed number of 50 MHz cycles and the summed line and
interrupt-entry time is reported as the programming latency.
"""

from __future__ import annotations

import functools
import heapq
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from . import cdr, control, energy, phy
from .errors import (NON_NEGATIVE, TRUE_OR_FALSE, AlignmentError, CodecError,
                     OutOfRange, SimulationError, UnknownRegister, check_fields)

PS_PER_S = 1e12
MEMORY_BYTES = 1 << 17  # 128 KiB on-chip memory per node
MCU_PERIOD_PS = 20000      # 50 MHz
FIFO_DEPTH = 4
CDC_SLOW_CYCLES = 2        # clock-domain crossing latency, slow-clock cycles
DECODER_LATENCY_SLOW = 1   # slow-clock cycles from decoded word to RX FIFO
IRQ_ENTRY_CYCLES = 2
CDR_WARMUP_CYCLES = round(cdr.CDR_SETTLE_S * PS_PER_S) // MCU_PERIOD_PS  # 32
WATCHDOG_FACTOR = 10.0     # deadline, in multiples of the expected transfer time


def s_to_ps(t_s):
    return int(round(t_s * PS_PER_S))


class Scheduler:
    """Deterministic event queue: non-decreasing time, FIFO among ties."""

    def __init__(self):
        self._heap = []
        self._seq = 0
        self.now_ps = 0

    @property
    def now_s(self):
        return self.now_ps / PS_PER_S

    def schedule(self, t_ps, fn):
        if t_ps < self.now_ps:
            raise SimulationError(f"event at {t_ps} ps is in the past (now {self.now_ps})")
        heapq.heappush(self._heap, (t_ps, self._seq, fn))
        self._seq += 1

    def advance(self):
        """Dispatch the next event; returns its time or None at end."""
        if not self._heap:
            return None
        t, _, fn = heapq.heappop(self._heap)
        self.now_ps = t
        fn()
        return t

    def run(self, until_ps=float("inf"), stop=lambda: False):
        """Dispatch events up to ``until_ps`` while ``stop()`` is false."""
        heap, advance = self._heap, self.advance
        while heap and heap[0][0] <= until_ps and not stop():
            advance()


class Fifo:
    """Bounded word queue with a crossing latency before entries turn ready."""

    def __init__(self, depth=FIFO_DEPTH, latency_ps=0):
        self.depth = depth
        self.latency_ps = latency_ps
        self._entries = []

    def can_push(self):
        return len(self._entries) < self.depth

    def push(self, now_ps, value):
        if not self.can_push():
            raise SimulationError("FIFO overflow")
        self._entries.append((now_ps + self.latency_ps, value))

    def ready(self, now_ps):
        return bool(self._entries) and self._entries[0][0] <= now_ps

    def pop(self, now_ps):
        if not self.ready(now_ps):
            raise SimulationError("FIFO pop with no ready entry")
        return self._entries.pop(0)[1]


class GpioWire:
    """One board wire; exactly one owning driver unless explicitly forced."""

    def __init__(self, name, owner, log):
        self.name = name
        self.owner = owner
        self.level = 0
        self._log = log

    def set(self, level, node, force=False):
        if node is not self.owner and not force:
            raise SimulationError(f"{node.name} does not drive {self.name}")
        level = int(bool(level))
        if level != self.level:
            self.level = level
            self._log(node.name, self.name, level)
            if node is not self.owner:  # flag the forced drive in its own row
                self._log(node.name, f"{self.name}_forced", 1)


@dataclass
class ConfigRegisters:
    tx_data_addr: int = 0
    rx_data_addr: int = 0
    tx_data_size: int = 0
    rx_data_size: int = 0
    warm_en: int = 0
    comm_en: int = 0
    cdr_n: int = 4


REGISTER_NAMES = frozenset(f.name for f in fields(ConfigRegisters))
_DMA_SIZE = {"read": "tx_data_size", "write": "rx_data_size"}  # starts the channel


@dataclass
class DmaChannel:
    direction: str              # "read": memory -> FIFO, "write": FIFO -> memory
    fifo: Fifo
    cursor: int = 0
    remaining: int = 0

    @property
    def done(self):
        return self.remaining == 0


def dma_step(channel: DmaChannel, memory, now_ps=0):
    """Move one 32-bit word if the channel can progress; returns True if moved."""
    if channel.remaining <= 0:
        return False
    if channel.direction == "read":
        if not channel.fifo.can_push():
            return False
        word = int.from_bytes(memory[channel.cursor:channel.cursor + 4], "little")
        channel.fifo.push(now_ps, word)
    else:
        if not channel.fifo.ready(now_ps):
            return False
        word = channel.fifo.pop(now_ps)
        memory[channel.cursor:channel.cursor + 4] = int(word).to_bytes(4, "little")
    channel.cursor += 4
    channel.remaining -= 4
    return True


class Node:
    """One chip: memory, registers, its DMA channel and its program driver."""

    def __init__(self, name, sim: Scheduler, log, config):
        self.name = name
        self.sim = sim
        self.log = log
        self.config = config
        self.memory = bytearray(MEMORY_BYTES)
        self.regs = ConfigRegisters()
        self.program_cycles = 0
        self.on_register_write = None  # hook(name, value) after validation
        self.dma = None  # one DmaChannel: "read" on the TX node, "write" on the RX

    def write_register(self, name, value):
        if name not in REGISTER_NAMES:
            raise UnknownRegister(name)
        if not isinstance(value, numbers.Integral):
            raise AlignmentError(f"{name} must be an integer, got {value!r}")
        starts = self.dma is not None and name == _DMA_SIZE[self.dma.direction]
        if name.endswith("_size"):
            addr = getattr(self.regs, name.replace("_size", "_addr"))
            if value % 4 or not 0 <= value <= len(self.memory) - addr:
                raise AlignmentError(f"{name} must be a non-negative multiple of 4 "
                                     "that fits in memory from its address register")
            if starts and not self.dma.done:
                raise SimulationError(f"{name} written while its DMA is still moving")
        elif name.endswith("_addr"):
            if value % 4 or not 0 <= value < len(self.memory):
                raise AlignmentError(f"{name} must be word aligned and in memory")
        elif name == "cdr_n":
            text, test = cdr.LINK_RULES["cdr_n"]
            if not test(value):
                raise AlignmentError(f"cdr_n must be {text}")
        elif name in ("warm_en", "comm_en") and value not in (0, 1):
            raise AlignmentError(f"{name} must be 0 or 1, got {value!r}")
        setattr(self.regs, name, int(value))
        self.log(self.name, name, int(value))
        if starts and value:  # a tick is pending exactly while words remain
            self.dma.cursor, self.dma.remaining = addr, int(value)
            self.sim.schedule(self.sim.now_ps + MCU_PERIOD_PS, self._dma_tick)
        if self.on_register_write is not None:
            self.on_register_write(name, int(value))

    def _dma_tick(self):
        dma_step(self.dma, self.memory, self.sim.now_ps)
        if self.dma.done:
            self.log(self.name, f"dma_{self.dma.direction}_done", 1)
        else:
            self.sim.schedule(self.sim.now_ps + MCU_PERIOD_PS, self._dma_tick)

    # -- scripted program driver ------------------------------------------

    def run_program(self, steps, on_done=None):
        """Execute a step list: ("line", label, fn), ("irq", label),
        ("wait", label, predicate), ("wait_cycles", label, n).  A wait polls
        its predicate once per MCU period; every other step waits its cycles
        (the line cost, IRQ_ENTRY_CYCLES or n), a line then runs its fn, and
        line and irq cycles count toward the programming latency."""

        self._advance(steps, 0, on_done)

    def _advance(self, steps, i, on_done):
        # a method, not a closure that calls itself, so a program leaves no
        # reference cycle once its last event has run
        if i == len(steps):
            if on_done is not None:
                on_done()
            return
        kind, _, *arg = steps[i]
        nxt = i + 1
        if kind == "wait":
            if arg[0]():
                return self._advance(steps, nxt, on_done)
            cycles, nxt = 1, i  # poll again one MCU period later
        else:
            cycles = self.step_cycles(steps[i])
            if kind != "wait_cycles":
                self.program_cycles += cycles

        def fire():
            if kind == "line":
                arg[0]()
            self._advance(steps, nxt, on_done)
        self.sim.schedule(self.sim.now_ps + cycles * MCU_PERIOD_PS, fire)

    def step_cycles(self, step):
        """The MCU cycles ``run_program`` spends on a step other than a wait."""
        kind, _, *arg = step
        if kind == "wait_cycles":
            return arg[0]
        if kind == "line":
            return self.config.line_cost_cycles
        if kind == "irq":
            return IRQ_ENTRY_CYCLES
        raise SimulationError(f"unknown program step {kind!r}")


class EventLog:
    """Chronological (time, node, signal, value) rows shared by everything."""

    def __init__(self, sim):
        self.sim = sim
        self.rows = []

    def __call__(self, node, signal_name, value):
        self.rows.append((self.sim.now_s, node, signal_name, value))


# rx_digital/tx_digital state while a side's warm_en is set
_DIGITAL_ON = {"tx": "active", "rx": "warm"}


class LinkEngine:
    """The serial data plane between the two nodes.

    The TX side steps the framer four fast-clock cycles (eight bits)
    per slow-clock quantum; the framer puts every driver code on the
    streamed channel waveform itself, in step order.  The RX side, once
    warmed up, runs one CDR batch per quantum (lagging two quanta so the
    waveform frontier always covers its sampling instants), sampled with
    the stream's own jitter, and feeds the recovered pairs through the
    receive pipeline into the RX FIFO.
    """

    def __init__(self, sim, cfg: LinkSimConfig, tx: Node, rx: Node, log: EventLog):
        self.sim = sim
        self.cfg = cfg
        self._rx_regs = rx.regs  # not the RX node: its register hook holds this engine
        self.log = log
        self.aborted = None

        self._cdc_ps = s_to_ps(CDC_SLOW_CYCLES * cfg.slow_cycle_s)
        tx_fifo = Fifo(latency_ps=self._cdc_ps)
        self.rx_fifo = Fifo(latency_ps=self._cdc_ps + s_to_ps(
            DECODER_LATENCY_SLOW * cfg.slow_cycle_s))
        tx.dma = DmaChannel("read", tx_fifo)
        rx.dma = DmaChannel("write", self.rx_fifo)

        self.stream = phy.StreamingNrz(cfg.channel, tx_ui_s=cfg.tx_ui_s,
                                       seed=cfg.seed)
        # the framer's word source and handshake read the FIFO and the clock,
        # not this engine, so the framer holds no reference back to it
        self.framer = control.TxFramer(lambda: tx_fifo.pop(sim.now_ps),
                                       lambda: tx_fifo.ready(sim.now_ps),
                                       self.stream.push_levels)
        self.pipeline = control.RxPipeline(functools.partial(log, "rx"))
        self.loop = None
        self._watch_lock = False  # LossOfLock is armed by the RX comm_en write
        self.first_data_bit_s = None
        self._tx_quanta = 0
        self._prev_tx_state = control.TxState.IDLE

        tx.on_register_write = functools.partial(self._enable_write, "tx", self.framer)
        rx.on_register_write = functools.partial(self._enable_write, "rx", self.pipeline)
        sim.schedule(0, self._tx_quantum)

    # -- handshake plumbing ----------------------------------------------

    def _enable_write(self, side, target, name, value):
        """Hand a warm_en/comm_en write to ``target`` (the TX framer or the
        RX pipeline) past the clock-domain crossing."""
        if name not in ("warm_en", "comm_en"):
            return

        def apply():
            setattr(target, name, bool(value))
            if name == "warm_en":
                self.log(side, f"{side}_analog", int(bool(value)))
                self.log(side, f"{side}_digital",
                         _DIGITAL_ON[side] if value else "standby")
            if side == "rx" and value:
                if name == "warm_en":
                    self._activate_rx()
                else:
                    self._watch_lock = True
        self.sim.schedule(self.sim.now_ps + self._cdc_ps, apply)

    # -- TX data plane ------------------------------------------------------

    def _tx_quantum(self):
        for _ in range(cdr.BATCH_BITS // 2):
            self.framer.step_cycle()
        state = self.framer.state
        if state is not self._prev_tx_state:
            self.log("tx", "tx_state", state.value)
            if state is control.TxState.DATA_COMM and self.first_data_bit_s is None:
                self.first_data_bit_s = self._tx_quanta * cdr.BATCH_BITS * self.cfg.tx_ui_s
            self._prev_tx_state = state
        self._tx_quanta += 1
        self.sim.schedule(s_to_ps(self._tx_quanta * cdr.BATCH_BITS * self.cfg.tx_ui_s),
                          self._tx_quantum)

    # -- RX data plane ------------------------------------------------------

    def _activate_rx(self):
        anchor_s = self.sim.now_s
        self.loop = cdr.CdrLoop(
            self.stream, ui_s=self.cfg.ui_s, n=self._rx_regs.cdr_n,
            initial_phase_ui=self.cfg.initial_phase_ui,
            include_boundary=self.cfg.include_boundary_pd, t_start_s=anchor_s)
        self._schedule_rx_quantum(anchor_s + self.cfg.slow_cycle_s)

    def _schedule_rx_quantum(self, batch_end_s):
        # run two quanta behind the recovered sampling instants so the
        # transmit side has always pushed the waveform being sampled
        t = batch_end_s + 2 * self.cfg.slow_cycle_s
        self.sim.schedule(max(s_to_ps(t), self.sim.now_ps), self._rx_quantum)

    def _rx_quantum(self):
        try:
            rec = self.loop.process_batch()
        except OutOfRange as exc:
            self.aborted = f"OutOfRange: {exc}"
            return
        if any(rec.slips) and self._watch_lock:
            self.log("rx", "loss_of_lock", 1)
            self.aborted = "LossOfLock: phase error exceeded 0.5 UI during transfer"
            return

        bits = rec.data_bits
        pipeline = self.pipeline
        for pair in zip(bits[0::2], bits[1::2]):  # (even, odd) comparator pairs
            try:
                words = pipeline.push_pair(pair)
            except CodecError as exc:
                self.log("rx", "decode_error", str(exc))
                self.aborted = f"decode failure during transfer: {exc}"
                return
            for word in words:
                self.rx_fifo.push(self.sim.now_ps, word)
        self._schedule_rx_quantum(rec.t_end_s[-1] + self.cfg.slow_cycle_s)


@dataclass
class TransferReport:
    config: LinkSimConfig
    ok: bool
    delivered_bytes: int
    mismatches: int
    loss_of_lock: bool
    decode_errors: int
    diagnostic: str
    shift_used: bool
    programming_latency_s: float
    timestamps: dict
    gpio_edges: list
    events: list
    energy_j: float

    def to_text(self):
        lines = [
            f"scenario: {self.config.scenario}",
            f"ok: {self.ok}",
            f"delivered_bytes: {self.delivered_bytes}",
            f"expected_bytes: {self.config.payload_bytes}",
            f"mismatches: {self.mismatches}",
            f"loss_of_lock: {self.loss_of_lock}",
            f"decode_errors: {self.decode_errors}",
            f"diagnostic: {self.diagnostic}",
            f"shift_used: {self.shift_used}",
            f"programming_latency_us: {self.programming_latency_s * 1e6:.6f}",
            f"energy_uj: {self.energy_j * 1e6:.6f}",
            f"seed: {self.config.seed}",
        ]
        for key in sorted(self.timestamps):
            lines.append(f"t_{key}_us: {self.timestamps[key] * 1e6:.6f}")
        return "\n".join(lines) + "\n"

    def events_csv(self):
        out = ["time_ns,node,signal,value"]
        for t, node, sig, val in self.events:
            clean = str(val).replace(",", ";").replace("\n", " ")
            out.append(f"{t * 1e9:.3f},{node},{sig},{clean}")
        return "\n".join(out) + "\n"


def _dma_setups(cfg, tx, rx, payload):
    """The uDMA programming lines both protocols run on each side."""

    def setup_tx_dma():
        tx.write_register("tx_data_addr", 0)
        tx.write_register("tx_data_size", len(payload))

    def setup_rx_dma():
        rx.write_register("rx_data_addr", 0)
        rx.write_register("rx_data_size", len(payload))
        rx.write_register("cdr_n", cfg.cdr_n)

    return setup_tx_dma, setup_rx_dma


def _tx_initiated_programs(cfg, tx, rx, wires, payload):
    gpio0, gpio1 = wires
    setup_tx_dma, setup_rx_dma = _dma_setups(cfg, tx, rx, payload)

    def prepare_payload():
        tx.memory[0:len(payload)] = payload

    tx_steps = [
        ("line", "setup_gpio0_dir", lambda: None),
        ("line", "prepare_payload", prepare_payload),
        ("line", "setup_udma", setup_tx_dma),
        ("line", "warm_en", lambda: tx.write_register("warm_en", 1)),
        ("line", "gpio0_assert", lambda: gpio0.set(1, tx)),
        ("wait", "gpio1_high", lambda: gpio1.level == 1),
        ("line", "comm_en", lambda: tx.write_register("comm_en", 1)),
    ]
    rx_steps = [
        ("line", "setup_gpio1_dir", lambda: None),
        ("wait", "irq_gpio0", lambda: gpio0.level == 1),
        ("irq", "gpio0_irq"),
        ("line", "prepare_buffer", lambda: None),
        ("line", "setup_udma", setup_rx_dma),
        ("line", "warm_en", lambda: rx.write_register("warm_en", 1)),
        ("wait_cycles", "clock_ready", CDR_WARMUP_CYCLES),
        ("line", "comm_en", lambda: rx.write_register("comm_en", 1)),
        ("line", "gpio1_assert", lambda: gpio1.set(1, rx)),
    ]
    return tx_steps, rx_steps


def _rx_initiated_programs(cfg, tx, rx, wires, payload):
    gpio0, gpio1 = wires
    setup_tx_dma, setup_rx_dma = _dma_setups(cfg, tx, rx, payload)
    tx.memory[0:len(payload)] = payload  # the payload already resides at the TX
    negate = functools.partial(RELEASE_PINS[cfg.rx_release_pin], rx, gpio0, gpio1)

    rx_steps = [
        ("line", "setup_gpio1_dir", lambda: None),
        ("line", "prepare_buffer", lambda: None),
        ("line", "setup_udma", setup_rx_dma),
        ("line", "warm_en", lambda: rx.write_register("warm_en", 1)),
        ("line", "gpio1_assert", lambda: gpio1.set(1, rx)),
        ("wait", "gpio0_high", lambda: gpio0.level == 1),
        ("wait_cycles", "clock_ready", CDR_WARMUP_CYCLES),
        ("line", "comm_en", lambda: rx.write_register("comm_en", 1)),
        ("line", "gpio_negate", negate),
    ]
    tx_steps = [
        ("line", "setup_gpio0_dir", lambda: None),
        ("wait", "irq_gpio1", lambda: gpio1.level == 1),
        ("irq", "gpio1_irq"),
        ("line", "setup_udma", setup_tx_dma),
        ("line", "warm_en", lambda: tx.write_register("warm_en", 1)),
        ("line", "gpio0_assert", lambda: gpio0.set(1, tx)),
        ("wait", "handshake_release",
         lambda: not (gpio0.level == 1 and gpio1.level == 1)),
        ("line", "comm_en", lambda: tx.write_register("comm_en", 1)),
    ]
    return tx_steps, rx_steps


# Each scenario's program builder, (cfg, tx, rx, wires, payload) -> (TX
# steps, RX steps).  The first of this table and the next is the default.
SCENARIOS = {"tx_initiated": _tx_initiated_programs,
             "rx_initiated": _rx_initiated_programs}
# How the receiver-initiated RX breaks the transmitter's both-pins-high wait:
# force the transmitter-owned pin low across the wire (logged as a forced
# drive), or negate its own pin.
RELEASE_PINS = {"peer": lambda rx, gpio0, gpio1: gpio0.set(0, rx, force=True),
                "own": lambda rx, gpio0, gpio1: gpio1.set(0, rx)}


@dataclass(frozen=True)
class LinkSimConfig:
    """Full parameterization of a two-node transfer simulation."""

    channel: phy.ChannelConfig = field(default_factory=phy.ChannelConfig)
    scenario: str = next(iter(SCENARIOS))
    payload_bytes: int = energy.BUFFER_BYTES
    freq_offset: float = 0.0             # TX serdes clock vs RX, fractional
    cdr_n: int = 4
    initial_phase_ui: float = 0.25
    include_boundary_pd: bool = True
    seed: int = 1
    ui_s: float = phy.UI_S
    line_cost_cycles: int = 3
    rx_release_pin: str = next(iter(RELEASE_PINS))

    # each field's (rule text, test).  An empty payload would wait for the
    # watchdog, which scales with the line cost; at most 1000 cycles (20 us
    # a line) keeps a 4 B transfer to about 0.26 ms simulated
    RULES = cdr.LINK_RULES | {
        "channel": ("a phy.ChannelConfig", lambda v: isinstance(v, phy.ChannelConfig)),
        "scenario": (" or ".join(SCENARIOS), lambda v: v in SCENARIOS),
        "payload_bytes": (f"a positive multiple of 4 no larger than the {MEMORY_BYTES}-byte "
                          "node memory", lambda v: 0 < v <= MEMORY_BYTES and v % 4 == 0),
        "include_boundary_pd": TRUE_OR_FALSE,
        "seed": NON_NEGATIVE,
        "line_cost_cycles": ("in [0, 1000]", lambda v: 0 <= v <= 1000),
        "rx_release_pin": (" or ".join(RELEASE_PINS), lambda v: v in RELEASE_PINS)}

    def __post_init__(self):
        check_fields(self)

    @property
    def slow_cycle_s(self):
        return cdr.BATCH_BITS * self.ui_s  # Clk/4 period: one CDR batch

    @property
    def tx_ui_s(self):
        return cdr.tx_ui_for(self.ui_s, self.freq_offset)


def _repeat(sim, period_ps, fn):
    """Call ``fn`` now and every ``period_ps`` after until it returns true.
    Unlike a closure that reschedules itself by name, this leaves no
    reference cycle once the queue is dropped."""
    if not fn():
        sim.schedule(sim.now_ps + period_ps, functools.partial(_repeat, sim, period_ps, fn))


def run_protocol(cfg: LinkSimConfig) -> TransferReport:
    """Run one complete transfer between two simulated chips; every failure
    is reported, not raised."""
    sim = Scheduler()
    log = EventLog(sim)
    tx = Node("tx", sim, log, cfg)
    rx = Node("rx", sim, log, cfg)
    rng = np.random.default_rng([cfg.seed, 0xDA])
    payload = bytes(rng.integers(0, 256, cfg.payload_bytes, dtype=np.uint8))

    gpio0 = GpioWire("gpio0", tx, log)
    gpio1 = GpioWire("gpio1", rx, log)
    engine = LinkEngine(sim, cfg, tx, rx, log)

    tx_steps, rx_steps = SCENARIOS[cfg.scenario](cfg, tx, rx, (gpio0, gpio1), payload)

    finished = {}  # each node whose setup program has ended: its cycles then
    tx.run_program(tx_steps, on_done=lambda: finished.update({tx: tx.program_cycles}))
    rx.run_program(rx_steps, on_done=lambda: finished.update({rx: rx.program_cycles}))
    timestamps = {}

    def transfer_complete():
        return (len(finished) == 2 and rx.dma.done
                and engine.framer.state is control.TxState.IDLE
                and not engine.framer.warm_en)

    def teardown_poll():
        # once the RX program has run, its DMA has written the payload and
        # a frame has ended, both nodes switch the link off and the poll stops
        if not (rx in finished and rx.dma.done and engine.pipeline.frames_received >= 1):
            return False
        timestamps["data_done"] = sim.now_s
        for side in (tx, rx):
            side.run_program([
                ("line", f"{reg}_off", functools.partial(side.write_register, reg, 0))
                for reg in ("comm_en", "warm_en")])
        return True

    sim.schedule(0, functools.partial(_repeat, sim, 10 * MCU_PERIOD_PS, teardown_poll))

    # the payload's line time, both setup programs' timed steps at the
    # cycles run_program charges, and 5 us of slack
    program_cycles = sum(side.step_cycles(step)
                         for side, steps in ((tx, tx_steps), (rx, rx_steps))
                         for step in steps if step[0] != "wait")
    expected_s = (cfg.payload_bytes * 8 * cfg.ui_s
                  + program_cycles * MCU_PERIOD_PS / PS_PER_S + 5e-6)
    sim.run(until_ps=s_to_ps(WATCHDOG_FACTOR * expected_s),
            stop=lambda: engine.aborted is not None or transfer_complete())
    # the run is never resumed; its queued events hold the engine and the
    # nodes, so dropping them lets the simulation go when this call returns
    sim._heap.clear()

    delivered = rx.dma.cursor
    received = bytes(rx.memory[0:cfg.payload_bytes])
    mismatches = sum(a != b for a, b in zip(payload, received))

    diagnostic = ""
    if engine.aborted:
        diagnostic = engine.aborted
    elif not transfer_complete():
        diagnostic = "ProtocolDeadlock: watchdog expired before completion"
    elif mismatches:
        diagnostic = f"DataMismatch: {mismatches} bytes differ"

    for t, node_name, sig, val in log.rows:
        if sig == "start_detected":
            timestamps.setdefault(sig, t)
        elif sig in ("warm_en", "comm_en") and val == 1:
            timestamps.setdefault(f"{node_name}_{sig}", t)
    if engine.first_data_bit_s is not None:
        timestamps["first_data_bit"] = engine.first_data_bit_s
    timestamps["end"] = sim.now_s

    gpio_edges = [(t, sig, val) for (t, node_name, sig, val) in log.rows
                  if sig in ("gpio0", "gpio1")]
    energy_j = energy.energy_trace([(t, sig, val) for t, _, sig, val in log.rows],
                                   energy.DEFAULT_PROFILE, sim.now_s)
    return TransferReport(
        config=cfg,
        ok=not diagnostic,
        delivered_bytes=delivered,
        mismatches=mismatches,
        # logged by the LossOfLock abort, which ends the run in its RX quantum
        loss_of_lock=any(sig == "loss_of_lock" for _, _, sig, _ in log.rows),
        decode_errors=sum(sig == "decode_error" for _, _, sig, _ in log.rows),
        diagnostic=diagnostic,
        shift_used=engine.pipeline.detector.shift,
        # each setup program's cycles when it ended, or at the end of the run
        programming_latency_s=sum(finished.get(side, side.program_cycles)
                                  for side in (tx, rx)) * MCU_PERIOD_PS / PS_PER_S,
        timestamps=timestamps,
        gpio_edges=gpio_edges,
        events=log.rows,
        energy_j=energy_j,
    )
