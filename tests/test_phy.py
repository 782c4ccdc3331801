import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from serlink import phy
from serlink.errors import InsufficientSpan, OutOfRange
from serlink.phy import (ChannelConfig, StreamingNrz, UI_S, channel_apply,
                         drive, eye_capture, pole_for_length)

CLEAN = ChannelConfig(trace_length_cm=0.0)


# -- driver ---------------------------------------------------------------

def test_constant_ones_drive_flat_half_swing():
    # differential levels sit at +/- swing/2 so the ideal eye opening
    # equals the configured swing
    w = drive([1] * 32, CLEAN)
    assert np.allclose(w.samples, 0.22)
    w = drive([0] * 32, CLEAN)
    assert np.allclose(w.samples, -0.22)


def test_alternating_bits_square_wave():
    w = drive([1, 0] * 64, CLEAN)
    spu = round(UI_S / w.dt_s)
    centers = w.samples[spu // 2::spu]
    assert np.allclose(centers[0::2], 0.22)
    assert np.allclose(centers[1::2], -0.22)
    # fundamental at half the bit rate (DDR pattern of a 400 MHz clock)
    spectrum = np.abs(np.fft.rfft(w.samples))
    freqs = np.fft.rfftfreq(len(w.samples), w.dt_s)
    assert freqs[np.argmax(spectrum[1:]) + 1] == pytest.approx(0.4e9, rel=0.02)


def test_single_one_is_a_single_ui_pulse():
    bits = [0] * 8 + [1] + [0] * 8
    w = drive(bits, CLEAN)
    spu = round(UI_S / w.dt_s)
    centers = w.samples[spu // 2::spu]
    assert centers[8] == pytest.approx(0.22)
    assert np.allclose(np.delete(centers, 8), -0.22)
    above = np.count_nonzero(w.samples > 0)
    assert abs(above - spu) <= spu * CLEAN.rise_time_ui


def test_ramps_cross_zero_at_bit_boundaries():
    w = drive([0, 1, 0, 1], CLEAN)
    spu = round(UI_S / w.dt_s)
    assert w.samples[spu] == 0.0
    assert w.samples[2 * spu] == 0.0


@st.composite
def _level_runs(draw):
    """Driver codes 0/1/IDLE (-swing/2, +swing/2, 0 V) in runs, so idle
    stretches and repeated levels both occur."""
    runs = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 6)),
                         min_size=1, max_size=40))
    return [code for code, length in runs for _ in range(length)]


@settings(max_examples=150, deadline=None)
@given(codes=_level_runs(), prev=st.integers(0, 2), nxt=st.integers(0, 2),
       rise=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
       swing=st.sampled_from((0.44, 0.3, 1.0, 0.0123, 2.5)))
def test_table_render_is_the_trapezoid_bitwise(codes, prev, nxt, rise, swing):
    alphabet = phy.driver_levels(swing)
    levels = [alphabet[c] for c in codes]
    want = phy._render_trapezoid(levels, phy.SAMPLES_PER_UI, rise,
                                 alphabet[prev], alphabet[nxt])
    got = phy._gather(phy._bit_table(swing, rise), np.array([prev] + codes + [nxt]))
    assert got.tobytes() == want.tobytes()
    # drive: a bit is its own code, the ends are their own neighbours
    bits = [c for c in codes if c != phy.IDLE] or [1]
    drv = [alphabet[b] for b in bits]
    want = phy._render_trapezoid(drv, phy.SAMPLES_PER_UI, rise, drv[0], drv[-1])
    got = drive(bits, ChannelConfig(swing=swing, rise_time_ui=rise)).samples
    assert got.tobytes() == want.tobytes()


# -- channel ---------------------------------------------------------------

def test_zero_trace_is_identity_up_to_delay():
    cfg = ChannelConfig(trace_length_cm=0.0, prop_delay_s=100e-12)
    w = drive([1, 0, 0, 1, 1, 0] * 8, cfg)
    out = channel_apply(w, cfg)
    assert np.array_equal(out.samples, w.samples)
    assert out.t0_s == pytest.approx(100e-12)


def test_channel_filter_is_linear():
    cfg = ChannelConfig(trace_length_cm=3.0)
    rng = np.random.default_rng(51)
    w = drive(rng.integers(0, 2, 64), cfg)
    once = channel_apply(w, cfg).samples
    scaled = channel_apply(phy.Waveform(w.t0_s, w.dt_s, 2.5 * w.samples), cfg).samples
    assert np.allclose(scaled, 2.5 * once)


@settings(max_examples=12, deadline=None)
@given(length=st.sampled_from((0.0, 2.0)),
       n=st.sampled_from([k * phy._NOISE_BLOCK + d for k in (1, 2) for d in (-1, 0, 1)]),
       seed=st.integers(0, 3))
def test_channel_noise_in_blocks_equals_one_draw(length, n, seed):
    # in-place block draws give the filtered samples plus one whole-length
    # draw, bitwise, and never write to the caller's samples
    cfg = ChannelConfig(trace_length_cm=length)
    samples = np.random.default_rng(seed).uniform(-0.22, 0.22, n)
    before = samples.copy()
    dt_s = UI_S / phy.SAMPLES_PER_UI
    got = phy._Channel(cfg.pole_hz(), dt_s, 0.02,
                       np.random.default_rng([seed, 1])).apply(samples)
    clean = phy._Channel(cfg.pole_hz(), dt_s).apply(samples)
    want = clean + np.random.default_rng([seed, 1]).normal(0.0, 0.02, n)
    assert got.tobytes() == want.tobytes()
    assert samples.tobytes() == before.tobytes()


def test_calibrated_eye_heights_hit_targets():
    rng = np.random.default_rng(52)
    bits = rng.integers(0, 2, 220)
    for length, target in ((2.0, 0.418), (5.0, 0.386)):
        cfg = ChannelConfig(trace_length_cm=length)
        eye = eye_capture(channel_apply(drive(bits, cfg), cfg), n_ui=150)
        assert eye.eye_height_v == pytest.approx(target, rel=0.05)


def test_eye_height_monotone_in_trace_length_and_noise():
    rng = np.random.default_rng(53)
    bits = rng.integers(0, 2, 220)
    heights = []
    for length in (0.0, 1.0, 2.0, 5.0, 8.0):
        cfg = ChannelConfig(trace_length_cm=length)
        eye = eye_capture(channel_apply(drive(bits, cfg), cfg), n_ui=150)
        heights.append(eye.eye_height_v)
    assert all(a >= b - 1e-12 for a, b in zip(heights, heights[1:]))

    noisy_heights = []
    for sigma in (0.0, 0.005, 0.02, 0.05):
        cfg = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=sigma)
        wave = channel_apply(drive(bits, cfg), cfg, rng=np.random.default_rng(7))
        noisy_heights.append(eye_capture(wave, n_ui=150).eye_height_v)
    assert all(a >= b - 1e-12 for a, b in zip(noisy_heights, noisy_heights[1:]))


def test_pole_map_monotone_and_open_circuit_at_zero():
    assert pole_for_length(0.0) is None
    p2, p3, p5 = pole_for_length(2.0), pole_for_length(3.0), pole_for_length(5.0)
    assert p2 > p3 > p5 > 0


def _calibration_eye_height(tau_s):
    rng = np.random.default_rng(20210906)
    bits = rng.integers(0, 2, 480)
    w = drive(bits, ChannelConfig(swing=0.44))
    w.samples = phy._Channel(1.0 / (2.0 * math.pi * tau_s), w.dt_s).apply(w.samples)
    return eye_capture(w, n_ui=400).eye_height_v


def test_calibrated_time_constants_are_rederived_bitwise():
    # the stored constants are the brentq roots of the calibration eye
    for (length, tau), target in zip(phy._CAL_TAUS, (0.418, 0.386)):
        root = optimize.brentq(lambda t: _calibration_eye_height(t) - target,
                               1e-12, 2e-9, xtol=1e-15)
        assert root.hex() == tau.hex(), length


def test_pole_map_values_are_pinned():
    # the calibration runs eye_capture inside brentq: any drift in the
    # eye's openings or binning would move these poles
    got = [repr(pole_for_length(cm)) for cm in (1.0, 2.0, 5.0, 8.0)]
    assert got == ["609984735.8170421", "493761687.0394415",
                   "373389672.3739702", "323529755.7718112"]


# -- comparator ---------------------------------------------------------------

def test_sample_sign_decisions():
    stream = StreamingNrz(CLEAN)
    stream.push_levels([phy.IDLE] * 40 + [1] * 40 + [0] * 300)
    times = np.array([10.5, 60.5, 100.5]) * UI_S
    # 0 V (the idle driver) decides 0, like a negative level
    assert stream.sample_bits(times).tolist() == [0, 1, 0]


def test_noisy_single_bit_decisions_match_gaussian_tail():
    # comparator error rate at half-swing noise follows the erfc oracle
    cfg = ChannelConfig(trace_length_cm=0.0, noise_sigma_v=0.22)
    bits = np.tile([1, 0], 8000)
    wave = channel_apply(drive(bits, cfg), cfg, rng=np.random.default_rng(54))
    spu = round(UI_S / wave.dt_s)
    centers = wave.samples[spu // 2::spu]
    decided = centers > 0
    errors = np.count_nonzero(decided != bits.astype(bool))
    ber = errors / len(bits)
    expect = 0.5 * math.erfc((0.22 / 0.22) / math.sqrt(2))  # Q(1)
    assert ber == pytest.approx(expect, rel=0.15)
    assert ber > 1e-2


# -- eye capture ---------------------------------------------------------------

def test_ideal_eye_height_and_width():
    rng = np.random.default_rng(55)
    bits = rng.integers(0, 2, 220)
    eye = eye_capture(drive(bits, CLEAN), n_ui=150)
    assert eye.eye_height_v == pytest.approx(0.44, abs=1e-9)
    spu = phy.SAMPLES_PER_UI
    assert eye.eye_width_ui == pytest.approx(1.0 - CLEAN.rise_time_ui, abs=2 / spu)


def test_filtered_eye_strictly_smaller_than_swing():
    rng = np.random.default_rng(56)
    bits = rng.integers(0, 2, 220)
    cfg = ChannelConfig(trace_length_cm=5.0)
    eye = eye_capture(channel_apply(drive(bits, cfg), cfg), n_ui=150)
    assert eye.eye_height_v < 0.44


def test_eye_requires_enough_span():
    with pytest.raises(InsufficientSpan):
        eye_capture(drive([1, 0] * 20, CLEAN), n_ui=150)


@pytest.mark.parametrize("ui_s", [0.0, float("nan"), -1.25e-9, 1.0])
def test_drive_and_eye_capture_reject_a_bad_ui(ui_s):
    with pytest.raises(ValueError, match=r"ui_s must be finite, in \[5e-11, 5e-07\]"):
        drive([1, 0] * 100, CLEAN, ui_s=ui_s)
    wave = drive([1, 0] * 100, CLEAN)
    if ui_s > wave.dt_s:  # a valid fold period, but the waveform is too short
        with pytest.raises(InsufficientSpan):
            eye_capture(wave, ui_s=ui_s)
    else:
        with pytest.raises(ValueError, match="ui_s must be finite, >= the sample period"):
            eye_capture(wave, ui_s=ui_s)


def test_eye_counts_matrix_shape():
    rng = np.random.default_rng(57)
    eye = eye_capture(drive(rng.integers(0, 2, 220), CLEAN), n_ui=150)
    assert eye.counts.shape == (2 * phy.SAMPLES_PER_UI, 64)
    assert eye.counts.sum() == 75 * 2 * phy.SAMPLES_PER_UI


def _reference_eye(w, ui_s, n_ui):
    """eye_capture as a per-column loop and np.histogram2d."""
    spu = int(round(ui_s / w.dt_s))
    window = 2 * spu
    n_traces = int(n_ui) // 2
    folded = w.samples[:n_traces * window].reshape(n_traces, window)
    openings = np.full(window, -np.inf)
    for col in range(window):
        v = folded[:, col]
        hi = v[v > 0]
        lo = v[v <= 0]
        if len(hi) and len(lo):
            openings[col] = hi.min() - lo.max()
    best = int(np.argmax(openings))
    height = float(max(openings[best], 0.0))
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
    phases = (np.arange(n_traces * window) % window) / spu
    vmin = float(w.samples.min())
    vmax = max(float(w.samples.max()), vmin + 1e-12)
    counts, pe, ve = np.histogram2d(phases, w.samples[:n_traces * window],
                                    bins=[window, phy.EYE_VOLT_BINS],
                                    range=[[0.0, 2.0], [vmin, vmax]])
    return phy.EyeDiagram(counts, pe, ve, height, width_ui, best / spu)


_BLOCK_UI = 2 * phy._EYE_BLOCK_TRACES


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), spu=st.sampled_from([2, 3, 7, 32, 33]),
       n_ui=st.one_of(st.integers(1, 41), st.integers(_BLOCK_UI + 1, _BLOCK_UI + 9)),
       extra=st.integers(1, 70), flat=st.booleans(), tail_extremes=st.booleans())
@example(seed=1, spu=32, n_ui=_BLOCK_UI + 3, extra=5, flat=False, tail_extremes=True)
@example(seed=2, spu=7, n_ui=151, extra=1, flat=True, tail_extremes=False)
@example(seed=4, spu=3, n_ui=6, extra=2, flat=True, tail_extremes=False)  # 3e4 V
@example(seed=3, spu=33, n_ui=9, extra=40, flat=False, tail_extremes=True)
def test_eye_capture_equals_column_loop_and_histogram2d(seed, spu, n_ui, extra, flat,
                                                        tail_extremes):
    rng = np.random.default_rng(seed)
    n = n_ui * spu + extra  # eye_capture needs at least n_ui * spu + 1 samples
    if flat:
        # 3e4 V is too large for vmin + 1e-12 to widen the range
        samples = np.full(n, rng.choice([0.0, 0.22, -0.22, rng.uniform(-1, 1), 3e4]))
    else:
        vmin = rng.uniform(-1.0, 0.5)
        vmax = vmin + rng.choice([rng.uniform(0.01, 1.0), 1e-12])
        # exact 0 V, the volt edges (vmax among them) and their neighbours
        # one ulp away, among random values
        edges = np.linspace(vmin, vmax, phy.EYE_VOLT_BINS + 1)
        pool = np.concatenate((edges, np.nextafter(edges[1:], -np.inf),
                               np.nextafter(edges[:-1], np.inf)))
        if vmin <= 0.0 <= vmax:
            pool = np.append(pool, 0.0)
        samples = rng.uniform(vmin, vmax, n)
        pick = rng.random(n) < 0.3
        samples[pick] = rng.choice(pool, np.count_nonzero(pick))
        # the extremes may sit past the folded span and still set the range
        folded_end = (n_ui // 2) * 2 * spu
        spots = rng.integers(folded_end if tail_extremes else 0, n, 2)
        samples[spots] = vmin, vmax
    dt_s = 1e-11
    wave = phy.Waveform(0.0, dt_s, samples)
    ui_s = spu * dt_s
    got = eye_capture(wave, ui_s=ui_s, n_ui=n_ui)
    want = _reference_eye(wave, ui_s, n_ui)
    assert got.counts.dtype == want.counts.dtype
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.phase_edges.tobytes() == want.phase_edges.tobytes()
    assert got.volt_edges.tobytes() == want.volt_edges.tobytes()
    assert (repr(got.eye_height_v), repr(got.eye_width_ui), repr(got.best_phase_ui)) == \
        (repr(want.eye_height_v), repr(want.eye_width_ui), repr(want.best_phase_ui))


# -- streaming renderer ---------------------------------------------------------

def test_streaming_matches_batch_rendering():
    rng = np.random.default_rng(58)
    bits = rng.integers(0, 2, 700)
    cfg = ChannelConfig(trace_length_cm=2.0)
    whole = channel_apply(drive(bits, cfg), cfg)
    stream = StreamingNrz(cfg)
    stream.push_bits(bits)
    # the streamed line starts from idle (0 V); skip the startup settling
    times = np.arange(1000, 60000) * (UI_S / 100)
    got = stream.voltage(times)
    want = np.interp(times / whole.dt_s, np.arange(len(whole.samples)), whole.samples)
    assert np.allclose(got, want, atol=1e-9)


def test_streaming_idle_levels_render_as_zero():
    stream = StreamingNrz(CLEAN)
    stream.push_levels([phy.IDLE] * 40 + [1] * 300)
    v = stream.voltage(np.array([10 * UI_S]))
    assert v[0] == 0.0


def test_streaming_guards_unrendered_span():
    stream = StreamingNrz(CLEAN)
    stream.push_bits([1, 0] * 8)
    with pytest.raises(OutOfRange):
        stream.voltage(np.array([1.0]))


def test_streaming_voltage_is_np_interp_bitwise():
    cfg = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.01, prop_delay_s=0.3e-9)
    stream = StreamingNrz(cfg, seed=3)
    stream.push_bits(np.random.default_rng(59).integers(0, 2, 3000))
    tail, last = stream._tail, len(stream._tail) - 1
    picks = np.concatenate((np.arange(last + 1),
                            np.random.default_rng(60).uniform(0, last, 100_000)))
    times = cfg.prop_delay_s + stream._grid_t0 + picks * stream.dt_s
    rel = (times - cfg.prop_delay_s - stream._grid_t0) / stream.dt_s
    times, rel = times[rel >= 0], rel[rel >= 0]  # roundoff below sample 0
    got = stream.voltage(times)
    assert stream._tail is tail  # sampling rendered nothing more
    assert rel.min() < 1e-9 and rel.max() > last - 1e-9  # first and last sample
    want = np.interp(rel, np.arange(last + 1), tail)
    assert got.tobytes() == want.tobytes()


def test_streaming_time_before_first_sample_reads_it_settled():
    # jitter can put a sample before the line's first rendered sample
    cfg = ChannelConfig(trace_length_cm=2.0, prop_delay_s=0.5e-9)
    stream = StreamingNrz(cfg)
    stream.push_levels([1] * 600)
    v = stream.voltage(np.array([-3e-12, 0.0, cfg.prop_delay_s]))
    assert v.tolist() == [stream._tail[0]] * 3
    # once samples are dropped, an earlier time is out of the window
    stream.push_levels([1] * 2000)
    stream.ensure(1500 * UI_S)
    with pytest.raises(OutOfRange):
        stream.voltage(np.array([0.0]))


def _np_interp_reference(stream, codes, seed, times):
    """What ``stream.voltage(times)`` must return, or None where it must
    raise OutOfRange, read from the stream after the call.

    The waveform is rendered in one piece from the codes the stream has
    rendered and sampled with np.interp, under the stream's rules: it
    renders until its frontier passes every time (and sample 0); a time
    before sample 0 reads it settled, unless samples have been dropped;
    a time at or past the last rendered sample reads that sample.
    """
    cfg = stream.cfg
    times = np.asarray(times, dtype=float)
    if stream.frontier_s <= max(times.max(), cfg.prop_delay_s):
        return None  # the levels ran out before the frontier got there
    n = stream._nbits
    levels = np.take(phy.driver_levels(cfg.swing), codes)
    raw = phy._render_trapezoid(levels[:n], phy.SAMPLES_PER_UI, cfg.rise_time_ui,
                                0.0, levels[n])
    whole = phy._Channel(cfg.pole_hz(), stream.dt_s, cfg.noise_sigma_v,
                         np.random.default_rng([seed, 0xC0])).apply(raw)
    kept = whole[len(whole) - len(stream._tail):]
    assert stream._tail.tobytes() == kept.tobytes()  # the window is the newest samples
    rel = (times - cfg.prop_delay_s - stream._grid_t0) / stream.dt_s
    if len(kept) < len(whole) and rel.min() < 0:
        return None
    return np.interp(rel, np.arange(len(kept)), kept)


@settings(max_examples=60, deadline=None)
@given(length=st.sampled_from((0.0, 2.0, 5.0)), delay=st.sampled_from((0.0, 0.3e-9)),
       noisy=st.booleans(), seed=st.integers(0, 3), n_levels=st.integers(2, 1400),
       picks=st.lists(st.one_of(st.floats(0.0, 1.0),
                                st.sampled_from(("first", "before", "last"))),
                      min_size=1, max_size=64),
       span_ui=st.sampled_from((None, 700)), as_array=st.booleans())
@example(length=2.0, delay=0.0, noisy=False, seed=0, n_levels=41,
         picks=["last", 0.5, "before"], span_ui=None, as_array=False)  # the last sample
@example(length=5.0, delay=0.3e-9, noisy=True, seed=1, n_levels=1400,
         picks=[1.0, "first"], span_ui=None, as_array=True)  # sample 0 already dropped
@example(length=2.0, delay=0.3e-9, noisy=False, seed=2, n_levels=1400,
         picks=[0.0, 0.3, 1.0], span_ui=700, as_array=False)  # within a moved window
def test_streamed_sampling_matches_np_interp_reference(length, delay, noisy, seed, n_levels,
                                                       picks, span_ui, as_array):
    # unsorted times over the renderable span (from 2 UI before it, or
    # over its last span_ui UI, which the stream retains) and at its
    # ends; the comparator's times are jittered on top
    cfg = ChannelConfig(trace_length_cm=length, prop_delay_s=delay,
                        noise_sigma_v=0.01 if noisy else 0.0,
                        rj_sigma_s=5e-12 if noisy else 0.0)
    codes = np.random.default_rng([seed, 1]).choice([0, 1, phy.IDLE], n_levels)
    dt = UI_S / phy.SAMPLES_PER_UI
    end = np.nextafter(((n_levels - 1) * UI_S - dt) + delay, -np.inf)
    edges = {"first": delay, "before": delay - 3e-12, "last": end}
    start = -2 * UI_S if span_ui is None else end - span_ui * UI_S
    times = [edges[p] if isinstance(p, str) else start + p * (end - start) for p in picks]
    if as_array:
        times = np.array(times)

    def run(call):
        stream = StreamingNrz(cfg, seed=seed)
        stream.push_levels(codes)
        try:
            return stream, call(stream)
        except OutOfRange:
            return stream, None

    stream, got = run(lambda s: s.voltage(times))
    want = _np_interp_reference(stream, codes, seed, times)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tobytes() == want.tobytes()

    stream, got = run(lambda s: s.sample_bits(times, np.random.default_rng(seed)))
    jittered = np.asarray(times, dtype=float)
    if noisy:
        jittered = jittered + np.random.default_rng(seed).normal(0.0, cfg.rj_sigma_s,
                                                                 len(times))
    want = _np_interp_reference(stream, codes, seed, jittered)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.dtype == np.int8
        assert got.tobytes() == (want > 1e-9).astype(np.int8).tobytes()


def test_window_compaction_keeps_the_newest_samples_bitwise():
    # uneven bursts drive the window through several in-place moves to
    # the front of the stream's buffer, rendering as ensure does
    cfg = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.01, prop_delay_s=0.3e-9)
    codes = np.random.default_rng(61).choice([0, 1, phy.IDLE], 4200)
    levels = np.take(phy.driver_levels(cfg.swing), codes)
    stream = StreamingNrz(cfg, seed=5)
    buf = stream._buf
    raw = phy._render_trapezoid(levels[:-1], phy.SAMPLES_PER_UI, cfg.rise_time_ui,
                                0.0, levels[-1])
    whole = phy._Channel(cfg.pole_hz(), stream.dt_s, cfg.noise_sigma_v,
                         np.random.default_rng([5, 0xC0])).apply(raw)
    takes = []
    render = stream._render

    def recording_render(take):
        takes.append(take)
        render(take)

    stream._render = recording_render
    spu, keep = phy.SAMPLES_PER_UI, phy._STREAM_KEEP
    pushed = 0
    bursts = itertools.cycle((1, 7, 255, 256, 257))
    while pushed < len(codes):
        burst = codes[pushed:pushed + next(bursts)]
        pushed += len(burst)
        stream.push_levels(burst.tolist() if pushed % 2 else burst)
        stream.ensure((pushed - 2) * UI_S + cfg.prop_delay_s)  # all but one level
        assert stream._nbits == pushed - 1
        end = stream._nbits * spu
        assert stream._tail.tobytes() == whole[max(end - keep, 0):end].tobytes()
        grid_t0, kept = 0.0, 0  # the window's drops, summed chunk by chunk
        for take in takes:
            kept += take * spu
            if kept > keep:
                grid_t0 += (kept - keep) * stream.dt_s
                kept = keep
        assert stream._grid_t0 == grid_t0
    assert sum(takes) * spu > 2 * len(buf)  # the window moved to the front thrice or more
    assert stream._buf is buf and np.shares_memory(stream._tail, buf)


def test_off_alphabet_levels_raise_and_render_nothing():
    stream = StreamingNrz(CLEAN)
    stream.push_levels([1] * 300)
    state = (stream._nbits, list(stream._pending), stream._tail.tobytes())
    for bad in ([1, 3], [0, -1], [0.5], [float("nan")], [1, None], [1, [0]],
                np.array([1] * 300 + [3])):
        with pytest.raises(ValueError, match=r"0, 1 or IDLE \(2\)"):
            stream.push_levels(bad)
        assert (stream._nbits, list(stream._pending), stream._tail.tobytes()) == state
