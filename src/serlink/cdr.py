"""Clock-data recovery: bang-bang phase detection, loop filter, interpolator.

Eight data samples per batch are compared against eight quadrature edge
samples by parallel early/late detectors (seven in-batch plus one across
the batch boundary).  Early-minus-late counts accumulate; every N
batches the truncated quotient accumulator/N steps a 32-position phase
interpolator whose resolution is 1/32 of the 2-UI clock period, and the
remainder is carried.  With N=4 the filter output updates every 16
fast-clock cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import phy
from .errors import TRUE_OR_FALSE, check

PI_CODES = 32
PI_STEP_UI = Fraction(1, 16)   # one interpolator step, in UI (1/32 of 2 UI)
BATCH_BITS = 8
VALID_DIVIDERS = (1, 2, 4, 8, 16, 32, 64, 128)

CDR_SETTLE_S = 0.64e-6  # worst-case loop settling: 16 steps * 16 fast cycles * 2.5 ns
# the rules recover_stream and CdrState share with node.LinkSimConfig's
# fields of these names
LINK_RULES = {
    "freq_offset": ("in (-1, 1]", lambda v: -1 < v <= 1),
    "initial_phase_ui": ("in [0, 2)", lambda v: 0 <= v < 2),
    "ui_s": phy.UI_RULE,
    "cdr_n": (f"one of {VALID_DIVIDERS}", lambda v: v in VALID_DIVIDERS),
}


def tx_ui_for(ui_s, freq_offset):
    """The transmitter's unit interval when its serdes clock runs
    ``freq_offset`` (fractional) fast against the receiver's ``ui_s``."""
    return ui_s / (1.0 + freq_offset)


class PdDecision(enum.Enum):
    EARLY = 1
    LATE = -1
    NONE = 0


def alexander_pd(d_prev, edge, d_cur) -> PdDecision:
    """Single bang-bang decision from two data samples and the edge sample."""
    if d_prev == d_cur:
        return PdDecision.NONE
    return PdDecision.EARLY if edge == d_prev else PdDecision.LATE


def pd_batch(data, edge, last_bit_prev_batch, include_boundary=True):
    """Early-minus-late sum of one 8-bit batch; |sum| <= 8."""
    total = 0
    # without the boundary detector the first data bit decides nothing
    prev = last_bit_prev_batch if include_boundary else data[0]
    for d, e in zip(data, edge):
        if d != prev:
            total += 1 if e == prev else -1
        prev = d
    return total


# The accumulator register clamps like the hardware's would; a 5-bit
# magnitude keeps the realized slew at 4 steps per evaluation with N=4
# (0.0078 UI/UI, above the 0.004 UI/UI demanded by a 0.4% offset) while
# bounding the correction quantum that sets the tracking limit cycle.
ACC_LIMIT = 16


@dataclass
class CdrState:
    pi_code: int = 0
    accumulator: int = 0
    n: int = 4
    batch_count: int = 0

    def __post_init__(self):
        check("n", "int", LINK_RULES["cdr_n"], self.n)


def loop_filter_update(state: CdrState, batch_sum):
    """Accumulate one batch; returns the pi step (0 between evaluations)."""
    state.accumulator = max(-ACC_LIMIT, min(ACC_LIMIT, state.accumulator + batch_sum))
    state.batch_count += 1
    if state.batch_count % state.n:
        return 0
    acc = state.accumulator
    step = abs(acc) // state.n * (1 if acc >= 0 else -1)  # truncate toward zero
    state.accumulator -= step * state.n
    return step


def pi_apply(state: CdrState, pi_step):
    """Advance the interpolator code, modulo its 32 positions."""
    state.pi_code = (state.pi_code + pi_step) % PI_CODES
    return state


def slew_capacity_ui_per_ui(n=4, detectors=7):
    """Worst-case phase correction rate the loop can sustain, in UI per UI.

    Conservative: `detectors` counts per evaluation, one evaluation per
    8*n UI, each step weighted at 1/32 UI.
    """
    return Fraction(detectors, PI_CODES * BATCH_BITS * n)


def offset_drift_ui_per_ui(freq_offset):
    """Phase drift demanded by a TX/RX fractional frequency offset."""
    return abs(Fraction(freq_offset).limit_denominator(10**9))


# One call samples at most one render chunk of RX UI, so a block fits in
# the stream's retained window (phy._STREAM_KEEP says why) at any offset.
MAX_BLOCK_BATCHES = phy.STREAM_CHUNK_BITS // BATCH_BITS


# Lock is declared after LOCK_BATCHES consecutive batches whose last
# data sample sits within LOCK_TOL_UI (one interpolator step) of a bit
# center; it dates from the end of the batch before them (or the start).
LOCK_BATCHES = 64
LOCK_TOL_UI = float(PI_STEP_UI)


class CdrLoop:
    """Closed-loop sampler: recovers bit timing from a streamed waveform.

    Owns the RX sampling grid.  Data sample ``k`` lands at
    ``(k + 0.5) * ui + phi`` where ``phi`` starts at the initial phase
    offset and moves by 1/16 UI per interpolator step; edge samples sit
    half a UI earlier.  ``process_batch`` consumes 8 UI per batch and
    observes the loop for whichever driver calls it: ``slips`` totals the
    data samples that skipped or repeated a bit (phase error through
    0.5 UI), ``first_slip_s`` is the end of the first batch with one, and
    ``lock_time_s`` is the start of the first LOCK_BATCHES locked batches.
    """

    def __init__(self, stream: phy.StreamingNrz, ui_s=phy.UI_S, n=4,
                 initial_phase_ui=0.0, include_boundary=True, t_start_s=0.0):
        self.stream = stream
        self.ui_s = ui_s
        self.state = CdrState(n=n)
        self.include_boundary = include_boundary
        self.phi_s = initial_phase_ui * ui_s
        self._half_ui_s = 0.5 * ui_s
        self._t0 = t_start_s
        self._last_bit = 0
        self._last_index = None  # transmitted bit index of the last data sample
        self.pi_steps_applied = 0
        self.slips = 0
        self.first_slip_s = None
        self.lock_time_s = None
        self._streak = 0
        self._streak_start_s = t_start_s

    def process_batch(self, count=1, lookahead=False):
        """Sample ``count`` consecutive 8-bit batches and run the loop;
        ValueError unless ``count`` is an integer >= 1.

        The phase only moves at a filter evaluation, so one call never
        goes past the next one (nor past MAX_BLOCK_BATCHES batches); the
        record says how many batches it covered.  With ``lookahead`` only
        the first batch is required, and the rest are sampled only while
        the stream can decide them from the waveform it has already
        rendered (``phy.StreamingNrz.sample_bits``): the call renders,
        draws and raises as a call for one batch would, and each batch it
        covers is the one a later call would give.  One sampling call
        per call, then one pass of Python scalars per batch.
        """
        # not errors.check: this runs once per RX quantum
        if not (isinstance(count, (int, np.integer)) and count >= 1):
            raise ValueError(f"count must be an integer, >= 1, got {count!r}")
        state = self.state
        first = state.batch_count * BATCH_BITS  # index of this call's first data sample
        count = min(count, state.n - state.batch_count % state.n, MAX_BLOCK_BATCHES)
        t0, ui_s, phi_s, half = self._t0, self.ui_s, self.phi_s, self._half_ui_s
        n_data = count * BATCH_BITS
        t_data = [t0 + (k + 0.5) * ui_s + phi_s for k in range(first, first + n_data)]
        # per batch, edges (half a UI earlier) before data: the stream's
        # jitter draws then come in the same order whatever the count
        times = []
        for lo in range(0, n_data, BATCH_BITS):
            batch = t_data[lo:lo + BATCH_BITS]
            times += [t - half for t in batch]
            times += batch
        stream = self.stream
        bits = stream.sample_bits(times, 2 * BATCH_BITS if lookahead else None).tolist()
        n_data = len(bits) // 2  # the batches the stream decided
        del t_data[n_data:]

        tx_ui, delay = stream.tx_ui_s, stream.reference_delay_s
        # the transmitted bit each data sample lands on: round() is half
        # to even, like np.rint
        ms = [round((t - delay) / tx_ui - 0.5) for t in t_data]
        include_boundary, last_bit = self.include_boundary, self._last_bit
        prev = self._last_index  # None until the loop's first batch is done
        data_bits, t_ends, errs, batch_slips = [], [], [], []
        for lo in range(0, n_data, BATCH_BITS):
            edge = bits[2 * lo:2 * lo + BATCH_BITS]
            data = bits[2 * lo + BATCH_BITS:2 * lo + 2 * BATCH_BITS]
            step = loop_filter_update(  # only the last batch can step
                state, pd_batch(data, edge, last_bit, include_boundary))
            last_bit = data[-1]
            end = lo + BATCH_BITS - 1
            t_end = t_data[end]
            err = ((t_end - delay) / tx_ui - 0.5) - ms[end]
            slips = 0  # the loop's first batch has no slip reference yet
            if prev is not None:
                for m in ms[lo:end + 1]:
                    slips += m - prev != 1
                    prev = m
            prev = ms[end]
            data_bits += data
            t_ends.append(t_end)
            errs.append(err)
            batch_slips.append(slips)
            self.slips += slips
            if slips and self.first_slip_s is None:
                self.first_slip_s = t_end
            if abs(err) <= LOCK_TOL_UI:
                self._streak += 1
                if self._streak == LOCK_BATCHES and self.lock_time_s is None:
                    self.lock_time_s = self._streak_start_s
            else:
                self._streak = 0
                self._streak_start_s = t_end
        self._last_bit, self._last_index = last_bit, prev
        if step:
            pi_apply(state, step)
            self.phi_s += step * float(PI_STEP_UI) * self.ui_s
            self.pi_steps_applied += abs(step)
        return BatchRecord(data_bits=data_bits, bit_indices=ms, t_end_s=t_ends,
                           err_ui=errs, slips=batch_slips, pi_step=step,
                           pi_code=state.pi_code)


@dataclass
class BatchRecord:
    """One ``process_batch`` call: consecutive batches under one phase."""

    data_bits: list
    bit_indices: list  # transmitted bit index of each data sample
    # per batch: its last data sample's time and phase error, and the data
    # samples that skipped or repeated a transmitted bit
    t_end_s: list
    err_ui: list
    slips: list
    pi_step: int  # the step this call applied, after its last batch
    pi_code: int  # interpolator code after that step


@dataclass
class RecoveryResult:
    bits: np.ndarray           # recovered data bits
    bit_indices: np.ndarray    # transmitted bit index each sample landed on
    lock_time_s: float | None
    slips: int
    first_slip_s: float | None
    pi_steps: int
    trace: list = field(default_factory=list)  # (time_ns, pi_code, err_ui)

    def errors_against(self, tx_bits):
        """Bit errors vs. the transmitted stream at the sampled indices."""
        tx = np.asarray(tx_bits)
        ok = (self.bit_indices >= 0) & (self.bit_indices < len(tx))
        return int(np.count_nonzero(self.bits[ok] != tx[self.bit_indices[ok]]))


def recover_stream(tx_bits, cfg: phy.ChannelConfig, n_bits, n=4,
                   freq_offset=0.0, initial_phase_ui=0.0, ui_s=phy.UI_S,
                   seed=0, include_boundary=True, keep_trace=True):
    """Run the closed CDR loop over a transmitted bit sequence.

    ``tx_bits`` is a 1-D sequence of 0s and 1s, each its own driver code,
    queued on the stream at once, and the loop recovers ``n_bits // 8``
    whole batches, ``n_bits`` an integer >= BATCH_BITS; ValueError
    otherwise, or for a link argument outside LINK_RULES, an
    ``include_boundary`` or ``keep_trace`` that is not True or False, or
    a ``seed`` that the stream rejects (phy.StreamingNrz).  Lock, slips
    and steps are the loop's own observations (CdrLoop).  OutOfRange
    once sampling passes the last bit of ``tx_bits`` but one.
    """
    for name, value in (("freq_offset", freq_offset),
                        ("initial_phase_ui", initial_phase_ui), ("ui_s", ui_s)):
        check(name, "float", LINK_RULES[name], value)
    for name, value in (("include_boundary", include_boundary), ("keep_trace", keep_trace)):
        check(name, "bool", TRUE_OR_FALSE, value)
    check("n_bits", "int", (f">= {BATCH_BITS}", lambda v: v >= BATCH_BITS), n_bits)
    tx_bits = phy.check_bits("tx_bits", tx_bits)
    stream = phy.StreamingNrz(cfg, tx_ui_s=tx_ui_for(ui_s, freq_offset), seed=seed)
    stream.push_levels(tx_bits.astype(np.uint8).tobytes())
    loop = CdrLoop(stream, ui_s=ui_s, n=n, initial_phase_ui=initial_phase_ui,
                   include_boundary=include_boundary)

    n_batches = n_bits // BATCH_BITS
    bits = np.empty(n_batches * BATCH_BITS, dtype=np.int8)
    indices = np.empty(n_batches * BATCH_BITS, dtype=np.int64)
    trace = []

    k = 0
    while k < n_batches:
        rec = loop.process_batch(n_batches - k)
        count = len(rec.t_end_s)
        bits[k * BATCH_BITS:(k + count) * BATCH_BITS] = rec.data_bits
        indices[k * BATCH_BITS:(k + count) * BATCH_BITS] = rec.bit_indices
        k += count
        if keep_trace:
            # batches before the evaluation sampled under the previous code
            codes = [(rec.pi_code - rec.pi_step) % PI_CODES] * (count - 1) + [rec.pi_code]
            trace += ((t_end * 1e9, code, err)
                      for t_end, code, err in zip(rec.t_end_s, codes, rec.err_ui))

    return RecoveryResult(bits=bits, bit_indices=indices, lock_time_s=loop.lock_time_s,
                          slips=loop.slips, first_slip_s=loop.first_slip_s,
                          pi_steps=loop.pi_steps_applied, trace=trace)
