"""Behavioral analog layer: driver, channel, comparator sampling, eyes.

The differential driver is an ideal NRZ trapezoid with a configurable
rise time.  It takes driver codes: a bit is its own code (0 sends
-swing/2, 1 sends +swing/2) and ``IDLE`` (2) is the 0 V idle level.
Only the bit table turns codes into volts: both renderers gather each
bit's samples from its row for the (previous, current, next) codes.
The channel is a pure delay plus one stage, ``_Channel``: a first-order
low-pass whose pole is derived from the trace length by a two-point
calibration map, plus additive Gaussian noise, carrying its state from
one block of samples to the next.  ``channel_apply`` runs a whole
waveform (eye folding needs it whole) through a fresh stage;
``StreamingNrz`` runs each chunk through the one stage it keeps.
Comparators return the sign of the (optionally jittered) sampled
differential voltage.
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
EYE_VOLT_BINS = 64
STREAM_CHUNK_BITS = 256    # bits rendered per streamed chunk
_EYE_BLOCK_TRACES = 2048   # 2-UI traces eye_capture folds per pass
_NOISE_BLOCK = 1 << 16     # noise samples a channel draws per call, added in place
_STREAM_KEEP = STREAM_CHUNK_BITS * SAMPLES_PER_UI * 3  # samples a stream retains
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
    """Differential voltage sampled on a regular sub-UI grid."""

    t0_s: float
    dt_s: float
    samples: np.ndarray


@functools.lru_cache(maxsize=None)
def _ramps(spu, rise_ui):
    """Ramp geometry of one bit: leading and trailing sample counts and
    the fraction of the step each of those samples has reached.  Every
    render shares the cached arrays, so nothing may write to them."""
    half = rise_ui / 2.0
    offs = np.arange(spu) / float(spu)  # sample offset within each bit, in UI
    lead = offs[offs < half]            # still ramping from the previous level
    tail = offs[offs > 1.0 - half]      # ramping toward the next level
    return len(lead), lead / rise_ui + 0.5, len(tail), (tail - 1.0) / rise_ui + 0.5


def _render_trapezoid(levels, spu, rise_ui, prev_level, next_level):
    """NRZ trapezoid on the sample grid; ramps centered on bit boundaries."""
    levels = np.asarray(levels, dtype=float)
    n = len(levels)
    out = np.repeat(levels, spu)
    if rise_ui <= 0 or n == 0:
        return out
    n_lead, lead_frac, n_tail, tail_frac = _ramps(spu, rise_ui)
    bits = out.reshape(n, spu)
    if n_lead:
        prevs = np.concatenate(([prev_level], levels[:-1]))
        bits[:, :n_lead] = prevs[:, None] + (levels - prevs)[:, None] * lead_frac
    if n_tail:
        nexts = np.concatenate((levels[1:], [next_level]))
        bits[:, spu - n_tail:] = levels[:, None] + (nexts - levels)[:, None] * tail_frac
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


def _gather(table, codes):
    """Samples of ``codes[1:-1]``, each between its neighbours in ``codes``."""
    return table.take(9 * codes[:-2] + 3 * codes[1:-1] + codes[2:], axis=0).ravel()


def drive(bits, cfg: ChannelConfig, ui_s=UI_S):
    """Render the TX output for a bit sequence (one bit per UI, DDR);
    ``ui_s`` must satisfy UI_RULE, else ValueError."""
    check("ui_s", "float", UI_RULE, ui_s)
    codes = np.asarray(bits) > 0
    # the first and last bits are their own outer neighbours
    codes = np.concatenate((codes[:1], codes, codes[-1:]))
    samples = _gather(_bit_table(cfg.swing, cfg.rise_time_ui), codes)
    return Waveform(0.0, ui_s / SAMPLES_PER_UI, samples)


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

    def apply(self, samples):
        alpha = self._alpha
        if alpha is not None:
            if self._zi is None:
                self._zi = np.array([(1.0 - alpha) * samples[0]])
            samples, self._zi = signal.lfilter([alpha], [1.0, alpha - 1.0], samples,
                                               zi=self._zi)
        if self._sigma > 0:
            if alpha is None:  # unfiltered, so still the caller's samples
                samples = np.array(samples, dtype=float)
            # drawn block by block, the noise equals one draw of the whole
            # length, and no waveform-sized noise array is ever held
            for lo in range(0, len(samples), _NOISE_BLOCK):
                block = samples[lo:lo + _NOISE_BLOCK]
                block += self._rng.normal(0.0, self._sigma, len(block))
        return samples


def channel_apply(w: Waveform, cfg: ChannelConfig, rng=None):
    """Delay, low-pass and add noise; identity when the trace length is 0."""
    if rng is None:
        rng = np.random.default_rng(0)
    stage = _Channel(cfg.pole_hz(), w.dt_s, cfg.noise_sigma_v, rng)
    return Waveform(w.t0_s + cfg.prop_delay_s, w.dt_s, np.asarray(stage.apply(w.samples)))


@dataclass
class EyeDiagram:
    counts: np.ndarray       # phase_bin x voltage_bin histogram
    phase_edges: np.ndarray  # UI, over a 2-UI window
    volt_edges: np.ndarray
    eye_height_v: float
    eye_width_ui: float
    best_phase_ui: float


def eye_capture(w: Waveform, ui_s=UI_S, n_ui=DEFAULT_EYE_UIS):
    """Fold a waveform modulo 2 UI and measure the eye opening.

    Height is the vertical opening (smallest high sample minus largest
    low sample) at the best phase; width is the contiguous phase span
    around it where the opening stays within 0.1% of the best.  ``ui_s``
    must be finite and at least the sample period, else ValueError
    (UI_RULE's 50 ps floor serves the event scheduler only).

    The folded ``(traces, 2*spu)`` matrix is walked in blocks of
    ``_EYE_BLOCK_TRACES`` traces, so temporaries stay small.  Column c
    holds every sample of phase c/spu: the openings come from masked
    min and max down the columns, and the counts from one ``bincount``
    per block over (phase bin, volt bin) pairs.  Both bins follow
    numpy's histogram rules (right edges exclusive except the last), so
    the counts and edges equal ``np.histogram2d`` of the folded samples
    over [0, 2] UI and the whole waveform's voltage range.
    """
    check("ui_s", "float", (f">= the sample period {w.dt_s:g}", lambda v: v >= w.dt_s), ui_s)
    spu = int(round(ui_s / w.dt_s))
    span_ui = (len(w.samples) - 1) / spu
    if span_ui < n_ui:
        raise InsufficientSpan(f"waveform spans {span_ui:.1f} UI, need {n_ui}")
    window = 2 * spu
    n_traces = int(n_ui) // 2
    folded = w.samples[:n_traces * window].reshape(n_traces, window)

    pe = np.linspace(0.0, 2.0, window + 1)
    vmin = float(w.samples.min())
    vmax = max(float(w.samples.max()), vmin + 1e-12)
    ve = np.histogram_bin_edges([], EYE_VOLT_BINS, (vmin, vmax))
    pbin = np.searchsorted(pe, np.arange(window) / spu, side="right") - 1
    norm = EYE_VOLT_BINS / (ve[-1] - ve[0])
    hi = np.full(window, np.inf)
    lo = np.full(window, -np.inf)
    counts = np.zeros(window * EYE_VOLT_BINS, dtype=np.intp)
    for start in range(0, n_traces, _EYE_BLOCK_TRACES):
        v = folded[start:start + _EYE_BLOCK_TRACES]
        high = v > 0  # a trace sitting at 0 V pierces the opening
        np.minimum(hi, np.where(high, v, np.inf).min(axis=0), out=hi)
        np.maximum(lo, np.where(high, -np.inf, v).max(axis=0), out=lo)
        # estimate the volt bin, then correct it by one step against the edges
        vbin = ((v - ve[0]) * norm).astype(np.intp)
        np.minimum(vbin, EYE_VOLT_BINS - 1, out=vbin)
        vbin -= v < ve[vbin]
        vbin += (v >= ve[vbin + 1]) & (vbin < EYE_VOLT_BINS - 1)
        vbin += pbin * EYE_VOLT_BINS
        counts += np.bincount(vbin.ravel(), minlength=len(counts))
    openings = np.where((hi < np.inf) & (lo > -np.inf), hi - lo, -np.inf)
    best = int(np.argmax(openings))
    height = float(max(openings[best], 0.0))

    # width: run of near-best opening around the best phase, circular
    if height > 0:
        ok = openings >= 0.999 * height
        width = 1
        i = best
        while width < window and ok[(i - 1) % window]:
            i -= 1
            width += 1
        j = best
        while width < window and ok[(j + 1) % window]:
            j += 1
            width += 1
        width_ui = width / spu
    else:
        width_ui = 0.0
    counts = counts.reshape(window, EYE_VOLT_BINS).astype(float)
    return EyeDiagram(counts, pe, ve, height, width_ui, best / spu)


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


class StreamingNrz:
    """Chunk-rendered TX waveform for long closed-loop runs.

    Driver codes are pushed in bursts, one per bit period: the bit
    itself, or IDLE while the driver is idle.  ``voltage`` evaluates the
    delayed, filtered, noisy waveform at arbitrary times within the
    rendered window.  One pending code is always held back so boundary
    ramps see their next level.

    The window is a view into one buffer of ``_STREAM_BUFFER`` samples
    that each filtered chunk is appended to; only when a chunk no longer
    fits are the retained samples moved to its front, in place.
    """

    def __init__(self, cfg: ChannelConfig, tx_ui_s=UI_S, seed=0, bit_source=None):
        self.cfg = cfg
        self.tx_ui_s = tx_ui_s
        self.dt_s = tx_ui_s / SAMPLES_PER_UI
        self._bit_source = bit_source
        pole = cfg.pole_hz()
        self._channel = _Channel(pole, self.dt_s, cfg.noise_sigma_v,
                                 np.random.default_rng([seed, 0xC0]))
        # where transmitted bit centers effectively sit at the receiver:
        # propagation delay plus the low-pass transition delay (a
        # first-order step crosses zero ln2 time constants after the edge)
        group = math.log(2.0) / (2.0 * math.pi * pole) if pole is not None else 0.0
        self.reference_delay_s = cfg.prop_delay_s + group
        self._table = _bit_table(cfg.swing, cfg.rise_time_ui)
        self._pending = []        # codes not yet rendered
        self._prev_code = IDLE    # the line starts idle
        self._nbits = 0           # bits fully rendered
        self._frontier_s = -self.dt_s + cfg.prop_delay_s  # as 0 bits rendered
        self._grid_t0 = 0.0       # time of rendered sample 0 (pre-delay)
        self._buf = np.empty(_STREAM_BUFFER)
        self._end = 0             # the window is _buf[_end - len(_tail):_end]
        self._tail = self._buf[:0]  # rendered samples kept for interpolation

    def push_bits(self, bits):
        self.push_levels((np.asarray(bits) > 0).view(np.int8).tolist())

    def push_levels(self, codes):
        """Queue driver codes for rendering: 0 or 1 sends that bit and IDLE
        the 0 V idle level.  Any other value raises ValueError, and then
        nothing is queued."""
        try:
            codes = list(map(_CODES.__getitem__, codes))
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise ValueError(f"driver codes must be 0, 1 or IDLE ({IDLE})") from None
        self._pending += codes
        while len(self._pending) > STREAM_CHUNK_BITS:
            self._render(STREAM_CHUNK_BITS)

    def _render(self, take):
        """Render the first ``take`` pending codes into the window."""
        pending = self._pending
        # codes are 0..2, so even a row index (at most 26) fits in a byte
        codes = np.frombuffer(bytes([self._prev_code] + pending[:take + 1]), np.uint8)
        self._prev_code = pending[take - 1]
        del pending[:take]
        raw = self._channel.apply(_gather(self._table, codes))
        self._nbits += take
        self._frontier_s = (self._nbits * self.tx_ui_s - self.dt_s) + self.cfg.prop_delay_s
        buf, end, kept = self._buf, self._end, len(self._tail)
        n = len(raw)
        if end + n > len(buf):  # full: move the window to the front
            buf[:kept] = buf[end - kept:end]
            end = kept
        buf[end:end + n] = raw
        end += n
        kept += n
        if kept > _STREAM_KEEP:
            drop = kept - _STREAM_KEEP
            kept = _STREAM_KEEP
            self._grid_t0 += drop * self.dt_s
        self._end = end
        self._tail = buf[end - kept:end]

    @property
    def frontier_s(self):
        """Latest time (post-delay) the waveform is valid for."""
        return self._frontier_s

    def ensure(self, t_s):
        """Render forward (draining pending codes, then the bit source)."""
        while self.frontier_s <= t_s:
            if len(self._pending) > 1:
                self._render(min(STREAM_CHUNK_BITS, len(self._pending) - 1))
            elif self._bit_source is not None:
                self.push_bits(self._bit_source(STREAM_CHUNK_BITS))
            else:
                raise OutOfRange(f"waveform not rendered up to {t_s * 1e9:.3f} ns")

    def voltage(self, times):
        """Linear interpolation of the rendered samples, by np.interp.

        A time before the first sample ever rendered reads that (settled)
        sample, and one at or past the last rendered sample reads that
        one; a time before samples already dropped raises OutOfRange.
        """
        times = np.array(times, dtype=float)  # a copy, worked in place
        delay, dt = self.cfg.prop_delay_s, self.dt_s
        # one sort finds both extremes faster than min() and max()
        ends = times.copy()
        ends.sort()
        t_min, t_max = float(ends[0]), float(ends[-1])
        # sample 0 sits at the propagation delay: render at least it
        self.ensure(max(t_max, delay))
        g, tail = self._grid_t0, self._tail
        # the sample position is monotone in the time, so the earliest
        # time gives the earliest position by the same operations
        if g > 0 and (t_min - delay - g) / dt < 0:  # samples have been dropped
            raise OutOfRange("sample time before retained waveform window")
        if delay:  # t - 0.0 is t
            times -= delay
        times -= g
        times /= dt
        # before sample 0 np.interp reads it, past the last sample the last
        return np.interp(times, _sample_positions()[:len(tail)], tail)

    def sample_bits(self, times, rng=None):
        """Comparator decisions at the given times (with jitter if set)."""
        if rng is not None and self.cfg.rj_sigma_s > 0:
            times = np.add(times, rng.normal(0.0, self.cfg.rj_sigma_s, len(times)))
        # 0 V decides 0, and interpolation roundoff near an exact
        # transition must not turn a 0 V crossing into a 1
        return (self.voltage(times) > 1e-9).view(np.int8)
