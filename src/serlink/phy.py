"""Behavioral analog layer: driver, channel, comparator sampling, eyes.

The differential driver is an ideal NRZ trapezoid with a configurable
rise time.  It takes driver codes: a bit is its own code (0 sends
-swing/2, 1 sends +swing/2) and ``IDLE`` (2) is the 0 V idle level.
Only the bit table turns codes into volts: both renderers gather each
bit's samples from its row for the (previous, current, next) codes.
The channel is a pure delay plus one stage, ``_Channel``: a first-order
low-pass whose pole is derived from the trace length by a two-point
calibration map, plus additive Gaussian noise, carrying its state from
one block of samples to the next.  ``drive`` returns only bit-table
rows.  One loop, ``_filter_rows``, gathers rows a block at a time into
its caller's output and filters them there, in place, for both paths:
``channel_apply`` takes only ``drive``'s rows and fills the whole
filtered waveform (eye folding needs it whole), so the driven waveform
is never held whole beside it, and ``StreamingNrz`` fills its window a
chunk at a time through the one stage it keeps.
Comparators return the sign of the sampled differential voltage, at
instants the stream jitters itself; an eye folds at its waveform's UI.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

from .errors import NON_NEGATIVE, InsufficientSpan, OutOfRange, check, check_fields


def ui_for_clock(mhz):
    """The unit interval of a DDR serdes clock of ``mhz`` MHz: half its period."""
    return 1.0 / (2.0 * mhz * 1e6)


def check_bits(name, bits):
    """``bits`` as an array; ValueError naming ``name`` unless 1-D 0s and 1s."""
    bits = np.asarray(bits)
    if bits.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {bits.shape}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError(f"{name} must hold only 0s and 1s")
    return bits


LINE_RATE = 0.8e9          # bits/s at DDR with the nominal 400 MHz clock
UI_S = 1.0 / LINE_RATE     # 1.25 ns unit interval
# the DDR serdes clock's bounds in MHz: a UI of at least 50 ps, so an
# 8-UI quantum spans many ticks of the event scheduler's 1 ps grid, and
# at most 0.5 us, so the 50 MHz MCU polls at most 25 times per UI and a
# slow run stays short
CLOCK_MHZ = (1, 10000)
_UI_BOUNDS = tuple(ui_for_clock(mhz) for mhz in reversed(CLOCK_MHZ))
UI_RULE = ("in [{:g}, {:g}]".format(*_UI_BOUNDS),
           lambda v: _UI_BOUNDS[0] <= v <= _UI_BOUNDS[1])
IDLE = 2                   # the 0 V idle level's driver code; a bit is its own code
_CODES = {code: code for code in (0, 1, IDLE)}  # push_levels's lookup
SAMPLES_PER_UI = 32
DEFAULT_EYE_UIS = 150
EYE_MIN_UIS = 4            # two 2-UI traces are the fewest that can show an opening
EYE_VOLT_BINS = 64
STREAM_CHUNK_BITS = 256    # most bits a stream renders at once
_EYE_BLOCK_TRACES = 2048   # 2-UI traces eye_capture folds per pass
_NOISE_BLOCK = 1 << 16     # samples _filter_rows renders and filters per block
_JITTER_BLOCK = 4096       # comparator jitter draws a stream makes at once
# samples a stream retains: four chunks.  Rendered only as sampling needs
# it, the window spans one sampling call of one chunk of RX UI (two of TX
# at the largest frequency offset), one chunk rendered past it and a
# chunk of margin for jitter, whatever the delay
_STREAM_KEEP = STREAM_CHUNK_BITS * SAMPLES_PER_UI * 4
_STREAM_BUFFER = 2 * _STREAM_KEEP  # a stream's sample buffer; holds the window

# Two-point calibration of the trace-length -> pole map: (length in cm,
# time constant in s).  Each constant is the root, by brentq to 1e-15 s,
# of the eye height of 480 seeded random bits at a 0.44 V swing, folded
# over 400 UI, minus its target: 0.418 V at 2 cm and 0.386 V at 5 cm.
# A test re-derives both and checks them bitwise.
_CAL_TAUS = ((2.0, float.fromhex("0x1.6268400faad5ep-32")),
             (5.0, float.fromhex("0x1.d4a8e5620ff0fp-32")))


@dataclass(frozen=True)
class ChannelConfig:
    swing: float = 0.44            # differential swing, volts (levels +/- swing/2)
    trace_length_cm: float = 2.0
    prop_delay_s: float = 0.0
    noise_sigma_v: float = 0.0
    rj_sigma_s: float = 0.0        # random jitter on sampling instants
    rise_time_ui: float = 0.1

    # swing and noise in volts, each at most 1000: far past any CMOS link,
    # and small enough that every rendered sample (a level of swing/2 plus
    # a noise draw of many sigma) and an eye's voltage span stay finite;
    # a 1e308 noise sigma overflows the draw to inf, and no eye bins exist
    RULES = {"swing": ("in (0, 1000]", lambda v: 0 < v <= 1000),
             "trace_length_cm": NON_NEGATIVE,
             "prop_delay_s": NON_NEGATIVE,
             "noise_sigma_v": ("in [0, 1000]", lambda v: 0 <= v <= 1000),
             "rj_sigma_s": NON_NEGATIVE,
             "rise_time_ui": ("in [0, 1]", lambda v: 0 <= v <= 1)}

    def __post_init__(self):
        check_fields(self)

    def pole_hz(self):
        return pole_for_length(self.trace_length_cm)


@dataclass
class Waveform:
    """Differential voltage on a regular sub-UI grid of a ``ui_s`` link."""

    ui_s: float
    dt_s: float
    samples: np.ndarray


def _render_trapezoid(levels, spu, rise_ui, prev_level, next_level):
    """NRZ trapezoid on the sample grid; ramps centered on bit boundaries."""
    levels = np.asarray(levels, dtype=float)
    n = len(levels)
    out = np.repeat(levels, spu)
    if rise_ui <= 0 or n == 0:
        return out
    half = rise_ui / 2.0
    offs = np.arange(spu) / float(spu)  # sample offset within each bit, in UI
    # the fraction of the step reached by each sample still ramping from
    # the previous level, and by each ramping toward the next level
    lead = offs[offs < half] / rise_ui + 0.5
    tail = (offs[offs > 1.0 - half] - 1.0) / rise_ui + 0.5
    bits = out.reshape(n, spu)
    if len(lead):
        prevs = np.concatenate(([prev_level], levels[:-1]))
        bits[:, :len(lead)] = prevs[:, None] + (levels - prevs)[:, None] * lead
    if len(tail):
        nexts = np.concatenate((levels[1:], [next_level]))
        bits[:, spu - len(tail):] = levels[:, None] + (nexts - levels)[:, None] * tail
    return out


def driver_levels(swing):
    """The driver's levels by code: bit 0 sends -swing/2, bit 1 +swing/2,
    and IDLE 0 V."""
    return (-swing / 2.0, swing / 2.0, 0.0)


@functools.lru_cache(maxsize=None)
def _bit_table(swing, rise_ui):
    """One bit's samples for every code triple: row 9*prev + 3*cur + next
    renders the level of code ``cur`` between those of ``prev`` and
    ``next``.  Each row is ``_render_trapezoid`` of its one level, whose
    samples depend only on that triple, so gathering rows equals
    rendering the whole sequence, bit for bit.  Shared, so read-only."""
    levels = driver_levels(swing)
    table = np.array([_render_trapezoid([cur], SAMPLES_PER_UI, rise_ui, prev, nxt)
                      for prev in levels for cur in levels for nxt in levels])
    table.flags.writeable = False
    return table


def _table_rows(codes):
    """The bit-table row of each of ``codes[1:-1]``, between its neighbours
    in ``codes``; codes are 0..2, so ``uint8`` codes give ``uint8`` rows."""
    return 9 * codes[:-2] + 3 * codes[1:-1] + codes[2:]


class _DrivenWaveform:
    """What ``drive`` returns: its bit-table rows, one ``uint8`` per UI.
    Only ``channel_apply`` renders them, through ``_filter_rows``, so a
    filtered eye never holds the driven waveform whole."""

    def __init__(self, ui_s, table, rows):
        self.ui_s, self.dt_s = ui_s, ui_s / SAMPLES_PER_UI
        self._table, self._rows = table, rows


def drive(bits, cfg: ChannelConfig, ui_s=UI_S):
    """The TX output for a 1-D sequence of 0s and 1s (one bit per UI,
    DDR), as its bit-table rows, for ``channel_apply``; ``ui_s`` must
    satisfy UI_RULE.  ValueError otherwise."""
    check("ui_s", "float", UI_RULE, ui_s)
    codes = (check_bits("bits", bits) > 0).view(np.uint8)
    # the first and last bits are their own outer neighbours
    codes = np.concatenate((codes[:1], codes, codes[-1:]))
    return _DrivenWaveform(ui_s, _bit_table(cfg.swing, cfg.rise_time_ui), _table_rows(codes))


class _Channel:
    """First-order low-pass plus additive Gaussian noise, block by block.

    The filter starts settled at its first input sample; its state and
    the noise generator carry over from one ``apply`` to the next.  No
    pole (a 0 cm trace) means no filtering, and a zero sigma no noise.
    """

    def __init__(self, pole_hz, dt_s, noise_sigma_v=0.0, rng=None):
        self._alpha = (None if pole_hz is None
                       else 1.0 - math.exp(-2.0 * math.pi * pole_hz * dt_s))
        self._zi = None
        self._sigma = noise_sigma_v
        self._rng = rng

    def apply(self, block):
        """Filter ``block``, a non-empty 1-D float array, and add noise to
        it, in place."""
        alpha = self._alpha
        if alpha is not None:
            if self._zi is None:
                self._zi = np.array([(1.0 - alpha) * block[0]])
            block[:], self._zi = signal.lfilter([alpha], [1.0, alpha - 1.0], block,
                                                zi=self._zi)
        if self._sigma > 0:
            block += self._rng.normal(0.0, self._sigma, len(block))


def _filter_rows(stage, table, rows, out):
    """Gather bit-table ``rows`` into ``out``, which holds
    ``SAMPLES_PER_UI`` samples per row, and run ``stage`` over it in
    place, ``_NOISE_BLOCK`` samples at a time: the stage carries its
    filter state and noise generator from block to block, so that equals
    one pass over every row, bit for bit."""
    grid = out.view()
    grid.shape = (len(rows), SAMPLES_PER_UI)  # a view: raises unless out fits rows
    per_block = _NOISE_BLOCK // SAMPLES_PER_UI
    for lo in range(0, len(rows), per_block):
        # rows are 0..26, so "clip" never clips; "raise" would gather
        # through a temporary block
        table.take(rows[lo:lo + per_block], axis=0, out=grid[lo:lo + per_block],
                   mode="clip")
        stage.apply(out[lo * SAMPLES_PER_UI:(lo + per_block) * SAMPLES_PER_UI])


def channel_apply(w: _DrivenWaveform, cfg: ChannelConfig, rng=None):
    """Low-pass and add noise to the waveform ``drive`` returns, drawing
    from ``rng`` (a ``np.random.Generator``, seeded 0 if None); TypeError
    for anything else.  Identity when the trace length is 0.  The output
    is allocated once and filled in place by ``_filter_rows``."""
    if not isinstance(w, _DrivenWaveform):
        raise TypeError(f"channel_apply takes the waveform drive returns, got {type(w).__name__}")
    if rng is None:
        rng = np.random.default_rng(0)
    elif not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator or None, got {type(rng).__name__}")
    out = np.empty(len(w._rows) * SAMPLES_PER_UI)
    _filter_rows(_Channel(cfg.pole_hz(), w.dt_s, cfg.noise_sigma_v, rng), w._table, w._rows, out)
    return Waveform(w.ui_s, w.dt_s, out)


@dataclass
class EyeDiagram:
    counts: np.ndarray       # phase_bin x voltage_bin histogram
    phase_edges: np.ndarray  # UI, over a 2-UI window
    volt_edges: np.ndarray
    eye_height_v: float
    eye_width_ui: float
    best_phase_ui: float


def eye_capture(w: Waveform, n_ui=DEFAULT_EYE_UIS):
    """Fold a waveform modulo 2 of its own UIs and measure the eye opening.

    ``w`` must be a ``Waveform``, such as ``channel_apply`` returns, else
    TypeError.  Height is the vertical opening (smallest high sample
    minus largest low sample) at the best phase; width is the contiguous
    phase span around it where the opening stays within 0.1% of the
    best.  ``w.dt_s`` must be finite and > 0, ``w.ui_s`` finite, at
    least the sample period (UI_RULE's 50 ps floor serves the event
    scheduler only) and a whole number of them to within rounding,
    ``w.samples`` a 1-D array of finite real numbers spanning a finite
    range, and ``n_ui`` an integer >= ``EYE_MIN_UIS``, else ValueError.
    The first ``n_ui // 2`` two-UI traces are folded, so an odd ``n_ui``
    folds one UI fewer than it names.

    The voltage range is the waveform's, at least 1e-12 V wide, or
    wider where that cannot hold 64 finite bins.  The folded
    ``(traces, 2*spu)`` matrix is walked in blocks of
    ``_EYE_BLOCK_TRACES`` traces through preallocated scratch.  Column c
    holds every sample of phase c/spu: the openings come from masked
    min and max down the columns, and the counts from one ``bincount``
    per block over (phase bin, volt bin) pairs.  Both bins follow
    numpy's histogram rules (right edges exclusive except the last), so
    the counts and edges equal ``np.histogram2d`` of the folded samples
    over [0, 2] UI and that voltage range.
    """
    if not isinstance(w, Waveform):
        raise TypeError(f"eye_capture takes a phy.Waveform, got {type(w).__name__}")
    check("dt_s", "float", ("> 0", lambda v: v > 0), w.dt_s)
    check("ui_s", "float", (f">= the sample period {w.dt_s:g}", lambda v: v >= w.dt_s),
          w.ui_s)
    ratio = w.ui_s / w.dt_s  # inf if dt_s is subnormal
    spu = round(ratio) if math.isfinite(ratio) else 0
    if not math.isclose(ratio, spu, rel_tol=1e-9):  # drive's ui_s / 32 is within rounding
        raise ValueError(f"ui_s must be a whole number of sample periods dt_s, got "
                         f"ui_s / dt_s = {ratio!r}")
    samples = w.samples
    if not (isinstance(samples, np.ndarray) and samples.ndim == 1
            and samples.dtype.kind in "iuf"):
        what = (f"shape {samples.shape} of {samples.dtype}" if isinstance(samples, np.ndarray)
                else type(samples).__name__)
        raise ValueError(f"samples must be a 1-D array of real numbers, got {what}")
    samples = np.asarray(samples, dtype=float)  # integers fold as their floats
    check("n_ui", "int", (f">= {EYE_MIN_UIS}", lambda v: v >= EYE_MIN_UIS), n_ui)
    span_ui = (len(samples) - 1) / spu
    if span_ui < n_ui:
        raise InsufficientSpan(f"waveform spans {span_ui:.1f} UI, need {n_ui}")
    window = 2 * spu
    n_traces = n_ui // 2
    folded = samples[:n_traces * window].reshape(n_traces, window)

    pe = np.linspace(0.0, 2.0, window + 1)
    vmin, top = float(samples.min()), float(samples.max())
    if not -math.inf < vmin <= top < math.inf:  # NaN fails every comparison
        raise ValueError(f"samples must be finite, got {vmin} to {top}")
    if not math.isfinite(top - vmin):
        raise ValueError(f"samples must span a finite range, got {vmin} to {top}")
    vmax = max(top, vmin + 1e-12)
    try:
        ve = np.histogram_bin_edges([], EYE_VOLT_BINS, (vmin, vmax))
    except ValueError:
        # from 128 V up, the 1e-12 V floor holds too few doubles for 64
        # finite bins: widen it to four doubles of the level a bin, which
        # rounding cannot merge even where the range crosses a power of 2;
        # within that of the largest double, widen it down from the top
        wide = 4 * EYE_VOLT_BINS * math.ulp(max(abs(vmin), abs(vmax)))
        vmin, vmax = (vmin, vmin + wide) if vmin + wide < math.inf else (top - wide, top)
        ve = np.histogram_bin_edges([], EYE_VOLT_BINS, (vmin, vmax))
    pbin = np.searchsorted(pe, np.arange(window) / spu, side="right") - 1
    norm = EYE_VOLT_BINS / (ve[-1] - ve[0])
    # a position in bins misses the sample's place among the rounded
    # edges by a few doubles of the largest level (times norm) plus its
    # own rounding; one farther than slack from an integer lies in the
    # bin it truncates to
    slack = 16 * math.ulp(max(abs(ve[0]), abs(ve[-1]))) * norm + 1e-9
    hi = np.full(window, np.inf)
    lo = np.full(window, -np.inf)
    counts = np.zeros(window * EYE_VOLT_BINS, dtype=np.intp)
    first_bin = pbin * EYE_VOLT_BINS  # each column's (phase, volt 0) bin
    # per-block scratch, filled in place
    rows = min(n_traces, _EYE_BLOCK_TRACES)
    pos = np.empty((rows, window))
    vbin = np.empty((rows, window), np.intp)
    mask = np.empty((rows, window), bool)
    for start in range(0, n_traces, _EYE_BLOCK_TRACES):
        v = folded[start:start + _EYE_BLOCK_TRACES]
        p, b, m = pos[:len(v)], vbin[:len(v)], mask[:len(v)]
        np.greater(v, 0, out=m)  # a trace sitting at 0 V pierces the opening
        np.minimum(hi, np.min(v, axis=0, where=m, initial=np.inf), out=hi)
        np.logical_not(m, out=m)
        np.maximum(lo, np.max(v, axis=0, where=m, initial=-np.inf), out=lo)
        # the volt bin is the integer part of the position, clipped so
        # that vmin and vmax sit mid-bin; only a position within slack
        # of an integer is checked against the edges, as np.histogram does
        np.subtract(v, ve[0], out=p)
        p *= norm
        np.clip(p, 0.5, EYE_VOLT_BINS - 0.5, out=p)
        b[...] = p  # truncates
        p -= b  # the fractional part
        np.logical_or(p < slack, p > 1 - slack, out=m)
        near = np.flatnonzero(m)
        nv, nb = v.reshape(-1)[near], b.reshape(-1)[near]
        nb -= nv < ve[nb]
        nb += (nv >= ve[nb + 1]) & (nb < EYE_VOLT_BINS - 1)
        b.reshape(-1)[near] = nb
        b += first_bin
        counts += np.bincount(b.reshape(-1), minlength=len(counts))
    openings = np.where((hi < np.inf) & (lo > -np.inf), hi - lo, -np.inf)
    best = int(np.argmax(openings))
    height = float(max(openings[best], 0.0))

    # width: the circular run of near-best opening around the best phase,
    # its leading Trues (the best phase on) plus its trailing ones
    width = 0
    if height > 0:
        ok = np.roll(openings >= 0.999 * height, -best)  # the best phase first
        width = window if ok.all() else int(np.argmin(ok) + np.argmin(ok[::-1]))
    counts = counts.reshape(window, EYE_VOLT_BINS).astype(float)
    return EyeDiagram(counts, pe, ve, height, width / spu, best / spu)


@functools.lru_cache(maxsize=None)
def pole_for_length(length_cm):
    """Trace length -> low-pass pole, from the two-point calibration map.

    Log-log interpolation between the calibrated anchors, extrapolated
    beyond them; zero length means no filtering at all.
    """
    if length_cm <= 0:
        return None
    (l1, tau1), (l2, tau2) = _CAL_TAUS
    slope = (math.log(tau2) - math.log(tau1)) / (math.log(l2) - math.log(l1))
    tau = math.exp(math.log(tau1) + slope * (math.log(length_cm) - math.log(l1)))
    return 1.0 / (2.0 * math.pi * tau)


@functools.lru_cache(maxsize=None)
def _sample_positions():
    """0, 1, 2, ... as floats over a stream's retained window, for np.interp;
    built on first use, so code that never streams does not hold it."""
    return np.arange(_STREAM_KEEP, dtype=float)


class _DrawsAhead:
    """``rng.normal(0, sigma)`` draws, made ``_JITTER_BLOCK`` at a time and
    used in order: ``Generator.normal`` does not depend on call sizes, so
    they equal the same draws made call by call."""

    def __init__(self, rng, sigma):
        self._rng, self._sigma = rng, sigma
        self._draws, self._next = np.empty(0), 0

    def ahead(self, n):
        """The next ``n`` draws, not yet used."""
        short = self._next + n - len(self._draws)
        if short > 0:
            more = self._rng.normal(0.0, self._sigma, -(-short // _JITTER_BLOCK) * _JITTER_BLOCK)
            self._draws, self._next = np.concatenate((self._draws[self._next:], more)), 0
        return self._draws[self._next:self._next + n]

    def use(self, n):
        """Mark the next ``n`` draws used."""
        self._next += n


class StreamingNrz:
    """Chunk-rendered TX waveform for long closed-loop runs.

    Driver codes are pushed, one per bit period: the bit itself, or IDLE
    while the driver is idle.  ``push_levels``, the one way in, only
    queues them, a byte each (``cdr.recover_stream`` pushes its whole 1-D
    0/1 sequence at once).  ``ensure`` alone renders, a chunk at a time
    when a sample needs it, so the window follows the sampling whatever
    the delay.  ``sample_bits`` decides at arbitrary times within the
    window, jittered by the stream's own generator, on the delayed,
    filtered, noisy waveform that ``_voltage`` interpolates there; given
    a batch size, it also decides ahead the batches the window already
    holds.  One pending code is always held back so boundary ramps see
    their next level.

    The window, the newest ``_STREAM_KEEP`` samples, starts at the
    integer index rendered minus kept, so its time is exact however the
    codes were chunked.  It is a view into one ``_STREAM_BUFFER``-sample
    buffer; it moves to the front, in place, only when a chunk won't fit.
    """

    def __init__(self, cfg: ChannelConfig, tx_ui_s=UI_S, seed=0):
        # not UI_RULE: a frequency offset may move the TX UI outside it
        check("tx_ui_s", "float", ("> 0", lambda v: v > 0), tx_ui_s)
        check("seed", "int", NON_NEGATIVE, seed)
        self.cfg = cfg
        self.tx_ui_s = tx_ui_s
        self.dt_s = tx_ui_s / SAMPLES_PER_UI
        pole = cfg.pole_hz()
        self._channel = _Channel(pole, self.dt_s, cfg.noise_sigma_v,
                                 np.random.default_rng([seed, 0xC0]))
        self._jitter = np.random.default_rng([seed, 0xCD])  # the comparators' clock
        self._rj = (_DrawsAhead(self._jitter, cfg.rj_sigma_s) if cfg.rj_sigma_s > 0
                    else None)
        # where transmitted bit centers effectively sit at the receiver:
        # propagation delay plus the low-pass transition delay (a
        # first-order step crosses zero ln2 time constants after the edge)
        group = math.log(2.0) / (2.0 * math.pi * pole) if pole is not None else 0.0
        self.reference_delay_s = cfg.prop_delay_s + group
        self._table = _bit_table(cfg.swing, cfg.rise_time_ui)
        self._pending = bytearray()  # codes not yet rendered
        self._prev_code = IDLE    # the line starts idle
        self._nbits = 0           # bits rendered
        self._buf = np.empty(_STREAM_BUFFER)
        self._end = 0             # the window ends at _buf[_end]

    def push_levels(self, codes):
        """Queue driver codes for rendering: 0 or 1 sends that bit and IDLE
        the 0 V idle level.  Any other value raises ValueError, and then
        nothing is queued."""
        try:
            self._pending += bytes(map(_CODES.__getitem__, codes))
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"driver codes must be 0, 1 or IDLE ({IDLE})") from None

    def _window(self):
        """The index of the window's first sample, and its samples."""
        rendered = self._nbits * SAMPLES_PER_UI
        kept = min(rendered, _STREAM_KEEP)
        return rendered - kept, self._buf[self._end - kept:self._end]

    def _render(self, take):
        """Render the first ``take`` pending codes into the window."""
        pending = self._pending
        codes = np.frombuffer(bytes((self._prev_code,)) + pending[:take + 1], np.uint8)
        self._prev_code = pending[take - 1]
        del pending[:take]
        buf, end, kept = self._buf, self._end, len(self._window()[1])
        n = take * SAMPLES_PER_UI  # at most one _filter_rows block
        if end + n > len(buf):  # full: move the window to the front
            buf[:kept] = buf[end - kept:end]
            end = kept
        _filter_rows(self._channel, self._table, _table_rows(codes), buf[end:end + n])
        self._end = end + n
        self._nbits += take

    @property
    def frontier_s(self):
        """Latest time (post-delay) the waveform is valid for."""
        return (self._nbits * self.tx_ui_s - self.dt_s) + self.cfg.prop_delay_s

    def ensure(self, t_s):
        """Render pushed codes, a chunk at a time, until ``t_s`` is covered;
        OutOfRange once that needs the held-back last code or a later one."""
        while self.frontier_s <= t_s:
            if len(self._pending) <= 1:
                raise OutOfRange(f"waveform not rendered up to {t_s * 1e9:.3f} ns")
            self._render(min(STREAM_CHUNK_BITS, len(self._pending) - 1))

    def _voltage(self, times, jitter=None, batch=None):
        """Linear interpolation of the rendered samples, by np.interp, at
        ``times``, each moved by its draw from ``jitter`` (a ``_DrawsAhead``)
        if one is given.

        ``times`` must be a 1-D sequence of finite values, and ``batch``
        None or an integer >= 1 dividing its length, else ValueError.
        A time before the first sample ever rendered reads that (settled)
        sample, and one at or past the last rendered sample reads that
        one; a time before samples already dropped raises OutOfRange.

        With a ``batch`` size, only the first ``batch`` times are required:
        the rest, whole batches, are the tail.  Once the required times are
        rendered, the tail's batches are read in order while every position
        in one (its index into the window) is a number, >= 0 once samples
        have been dropped, and below the window's last sample.  So the tail
        renders nothing, raises nothing and reads only final samples, as a
        later call for it would.  Only a call that returns uses draws,
        those of the times it reads.
        """
        times = np.array(times, dtype=float)  # a copy, worked in place
        if times.ndim != 1:
            raise ValueError(f"times must be a 1-D sequence, got shape {times.shape}")
        # not errors.check: this runs once per RX quantum
        if batch is not None and not (isinstance(batch, (int, np.integer)) and batch >= 1
                                      and len(times) % batch == 0):
            raise ValueError(f"batch must be an integer >= 1 dividing the {len(times)} times,"
                             f" got {batch!r}")
        if not times.size:
            return times
        if jitter is not None:
            times += jitter.ahead(len(times))
        # one sort finds both extremes (a NaN last) faster than min() and max()
        ends = times[:batch].copy()
        ends.sort()
        t_min, t_max = float(ends[0]), float(ends[-1])
        if not (t_min > -math.inf and t_max < math.inf):
            raise ValueError(f"times must be finite, got {t_min} to {t_max}")
        delay, dt = self.cfg.prop_delay_s, self.dt_s
        # sample 0 sits at the propagation delay: render at least it
        self.ensure(max(t_max, delay))
        first, window = self._window()
        g = first * dt
        # the sample position is monotone in the time, so the earliest
        # time gives the earliest position by the same operations
        if first and (t_min - delay - g) / dt < 0:  # samples have been dropped
            raise OutOfRange("sample time before retained waveform window")
        if delay:  # t - 0.0 is t
            times -= delay
        times -= g
        times /= dt  # now positions
        if batch is not None and batch < len(times):  # the tail
            tail = times[batch:]
            ok = tail < len(window) - 1  # NaN fails every comparison
            ok &= tail >= 0 if first else tail > -math.inf
            k = int(ok.argmin())  # the first position not ok, or 0 if all are
            times = times[:batch + (len(ok) if ok[k] else k - k % batch)]
        if jitter is not None:
            jitter.use(len(times))
        # before sample 0 np.interp reads it, past the last sample the last
        return np.interp(times, _sample_positions()[:len(window)], window)

    def sample_bits(self, times, batch=None):
        """Comparator decisions at ``times``, jittered if the channel sets
        ``rj_sigma_s``, from the stream's own generator in call order.

        With a ``batch`` size, only the first ``batch`` times must be
        decided; the rest, whole batches of ``batch`` times, are decided
        in order only while the window already rendered and retained
        holds every sample one reads (``_voltage``), and the decisions
        end with the last batch decided.  A batch decided ahead is
        decided as a later call for it alone would.  A call that raises
        uses no draw.
        """
        # 0 V decides 0, and interpolation roundoff near an exact
        # transition must not turn a 0 V crossing into a 1
        return (self._voltage(times, self._rj, batch) > 1e-9).view(np.int8)
