import array
import dataclasses
import itertools
import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from serlink import phy
from serlink.errors import InsufficientSpan, OutOfRange
from serlink.phy import (ChannelConfig, StreamingNrz, UI_S, channel_apply,
                         drive, eye_capture, pole_for_length)

CLEAN = ChannelConfig(trace_length_cm=0.0)


def _driven(bits, cfg=CLEAN, **kwargs):
    """What ``drive`` sends for ``bits``, read through a 0 cm noiseless
    channel, which passes it bit for bit."""
    cfg = dataclasses.replace(cfg, trace_length_cm=0.0, noise_sigma_v=0.0)
    return channel_apply(drive(bits, cfg, **kwargs), cfg)


def _sent(bits, cfg):
    """What ``drive`` sends for ``bits``, rendered in one piece by the
    trapezoid renderer that the bit table is built from."""
    levels = np.take(phy.driver_levels(cfg.swing), bits)
    return phy._render_trapezoid(levels, phy.SAMPLES_PER_UI, cfg.rise_time_ui,
                                 levels[0], levels[-1])


# -- driver ---------------------------------------------------------------

def test_constant_ones_drive_flat_half_swing():
    # differential levels sit at +/- swing/2 so the ideal eye opening
    # equals the configured swing
    w = _driven([1] * 32)
    assert np.allclose(w.samples, 0.22)
    w = _driven([0] * 32)
    assert np.allclose(w.samples, -0.22)


def test_alternating_bits_square_wave():
    w = _driven([1, 0] * 64)
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
    w = _driven(bits)
    spu = round(UI_S / w.dt_s)
    centers = w.samples[spu // 2::spu]
    assert centers[8] == pytest.approx(0.22)
    assert np.allclose(np.delete(centers, 8), -0.22)
    above = np.count_nonzero(w.samples > 0)
    assert abs(above - spu) <= spu * CLEAN.rise_time_ui


def test_ramps_cross_zero_at_bit_boundaries():
    w = _driven([0, 1, 0, 1])
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
    rows = phy._table_rows(np.array([prev] + codes + [nxt]))
    got = np.empty(len(rows) * phy.SAMPLES_PER_UI)
    idle = phy._Channel(None, UI_S / phy.SAMPLES_PER_UI)  # no filter, no noise
    phy._filter_rows(idle, phy._bit_table(swing, rise), rows, got)
    assert got.tobytes() == want.tobytes()
    # drive: a bit is its own code, the ends are their own neighbours
    bits = [c for c in codes if c != phy.IDLE] or [1]
    drv = [alphabet[b] for b in bits]
    want = phy._render_trapezoid(drv, phy.SAMPLES_PER_UI, rise, drv[0], drv[-1])
    got = _driven(bits, ChannelConfig(swing=swing, rise_time_ui=rise)).samples
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bits,message", [
    pytest.param([[1, 0], [0, 1]], r"^bits must be 1-D, got shape \(2, 2\)", id="2-D"),
    pytest.param([0, 2], r"^bits must hold only 0s and 1s", id="two"),
    pytest.param([1, np.nan], r"^bits must hold only 0s and 1s", id="nan"),
    pytest.param([0.5, 1], r"^bits must hold only 0s and 1s", id="half")])
def test_drive_takes_only_a_1d_bit_sequence(bits, message):
    # a 2-D list used to render flattened, a 2 as a 1 and a NaN as a 0
    with pytest.raises(ValueError, match=message):
        drive(bits, CLEAN)


# -- channel ---------------------------------------------------------------

def test_zero_trace_is_identity():
    # the driver's output, bit for bit, whatever the delay
    cfg = ChannelConfig(trace_length_cm=0.0, prop_delay_s=100e-12)
    bits = [1, 0, 0, 1, 1, 0] * 8
    out = channel_apply(drive(bits, cfg), cfg)
    assert out.samples.tobytes() == _sent(bits, cfg).tobytes()


def test_channel_filter_is_linear():
    bits = np.random.default_rng(51).integers(0, 2, 64)
    once, scaled = (channel_apply(drive(bits, cfg), cfg).samples
                    for cfg in (ChannelConfig(trace_length_cm=3.0, swing=swing)
                                for swing in (0.44, 1.1)))
    assert np.allclose(scaled, 2.5 * once)


@settings(max_examples=12, deadline=None)
@given(length=st.sampled_from((0.0, 2.0)),
       n=st.sampled_from([k * phy._NOISE_BLOCK + d for k in (1, 2) for d in (-1, 0, 1)]),
       seed=st.integers(0, 3))
def test_channel_noise_in_blocks_equals_one_draw(length, n, seed):
    # noise added in place gives the filtered samples plus one
    # whole-length draw, bitwise
    cfg = ChannelConfig(trace_length_cm=length)
    samples = np.random.default_rng(seed).uniform(-0.22, 0.22, n)
    dt_s = UI_S / phy.SAMPLES_PER_UI
    got, clean = samples.copy(), samples.copy()
    phy._Channel(cfg.pole_hz(), dt_s, 0.02, np.random.default_rng([seed, 1])).apply(got)
    phy._Channel(cfg.pole_hz(), dt_s).apply(clean)
    want = clean + np.random.default_rng([seed, 1]).normal(0.0, 0.02, n)
    assert got.tobytes() == want.tobytes()


_BLOCK_UIS = phy._NOISE_BLOCK // phy.SAMPLES_PER_UI


@pytest.mark.parametrize("length", [0.0, 2.0])
@pytest.mark.parametrize("noise", [0.0, 0.02])
@pytest.mark.parametrize("n_ui", [k * _BLOCK_UIS + d for k in (1, 2) for d in (-1, 0, 1)])
def test_channel_apply_in_blocks_equals_one_pass(length, noise, n_ui):
    # a driven waveform fills the output block by block, equal to one
    # stage run over the whole waveform with the same generator
    cfg = ChannelConfig(trace_length_cm=length, noise_sigma_v=noise)
    bits = np.random.default_rng(n_ui).integers(0, 2, n_ui)
    driven = drive(bits, cfg)
    want = _sent(bits, cfg)
    phy._Channel(cfg.pole_hz(), driven.dt_s, noise, np.random.default_rng(9)).apply(want)
    got = channel_apply(driven, cfg, rng=np.random.default_rng(9))
    assert (got.ui_s, got.dt_s) == (driven.ui_s, driven.dt_s)
    assert got.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("rng", [5, np.random.RandomState(0), "0"])
def test_channel_apply_rejects_a_bad_rng(noise, rng):
    # a noisy channel used to fail with a bare AttributeError on .normal,
    # and a noiseless one ignored the bad generator
    cfg = ChannelConfig(noise_sigma_v=noise)
    with pytest.raises(TypeError, match=r"^rng must be a numpy Generator or None, got "):
        channel_apply(drive([1, 0] * 8, cfg), cfg, rng=rng)


def test_channel_apply_without_a_generator_draws_from_seed_0():
    cfg = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.01)
    driven = drive(np.random.default_rng(300).integers(0, 2, 300), cfg)
    got = channel_apply(driven, cfg)
    want = channel_apply(driven, cfg, rng=np.random.default_rng(0))
    assert got.samples.tobytes() == want.samples.tobytes()


def test_a_driven_waveform_is_its_rows():
    # one byte per UI and no samples: channel_apply, the one way to them,
    # takes nothing else, and renders them bit for bit at 0 cm
    cfg = ChannelConfig(trace_length_cm=2.0)
    bits = np.random.default_rng(64).integers(0, 2, _BLOCK_UIS + 5)
    driven = drive(bits, cfg)
    assert driven._rows.dtype == np.uint8 and len(driven._rows) == len(bits)
    assert not hasattr(driven, "samples")
    whole = _sent(bits, cfg)
    with pytest.raises(TypeError, match="^channel_apply takes the waveform drive returns, "
                                        "got Waveform$"):
        channel_apply(phy.Waveform(driven.ui_s, driven.dt_s, whole), cfg)
    assert _driven(bits, cfg).samples.tobytes() == whole.tobytes()


@pytest.mark.parametrize("wave", [
    pytest.param(drive([1, 0] * 100, CLEAN), id="driven"),
    pytest.param(np.zeros(6400), id="array"), pytest.param(None, id="none")])
def test_eye_capture_takes_only_a_waveform(wave):
    # a driven waveform used to be rendered whole on each read and folded
    with pytest.raises(TypeError, match=r"^eye_capture takes a phy\.Waveform, got "):
        eye_capture(wave)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eye_capture_names_samples_not_finite(bad):
    # these used to raise numpy's "supplied range of [nan, nan] is not finite"
    wave = _driven([1, 0] * 100)
    wave.samples[77] = bad
    with pytest.raises(ValueError, match=r"^samples must be finite, got "):
        eye_capture(wave)


def test_noisy_eye_waveform_is_built_without_a_second_waveform():
    # the driven waveform is rendered a block at a time into the filtered
    # output, so the peak is that output plus a few blocks (it was twice
    # the output when drive rendered every sample first)
    cfg = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.02)
    bits = np.random.default_rng(65).integers(0, 2, 100_000)
    tracemalloc.start()
    try:
        wave = channel_apply(drive(bits, cfg), cfg, np.random.default_rng(66))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wave.samples.nbytes == 100_000 * phy.SAMPLES_PER_UI * 8
    assert peak <= 1.25 * wave.samples.nbytes


def test_a_clean_eye_is_gathered_straight_into_its_output():
    # each block of rows is gathered into the output and stays there: a
    # noiseless 0 cm 10^5-UI eye allocated 1,042 KB beyond its output
    # when each block was rendered apart and copied in
    bits = np.random.default_rng(69).integers(0, 2, 100_000)
    driven = drive(bits, CLEAN)
    tracemalloc.start()
    try:
        wave = channel_apply(driven, CLEAN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - wave.samples.nbytes <= 64 * 1024


@pytest.mark.parametrize("length", [0.0, 2.0])
@pytest.mark.parametrize("noise", [0.0, 0.01])
def test_empty_inputs_give_empty_results(length, noise):
    cfg = ChannelConfig(trace_length_cm=length, noise_sigma_v=noise, rj_sigma_s=3e-12)
    assert channel_apply(drive([], cfg), cfg).samples.size == 0
    stream = StreamingNrz(cfg)
    assert stream._voltage([]).size == 0
    assert stream.sample_bits([]).size == 0
    assert stream._nbits == 0


def test_calibrated_eye_heights_hit_targets():
    rng = np.random.default_rng(52)
    bits = rng.integers(0, 2, 220)
    for length, target in ((2.0, 0.418), (5.0, 0.386)):
        cfg = ChannelConfig(trace_length_cm=length)
        eye = eye_capture(channel_apply(drive(bits, cfg), cfg), n_ui=150)
        assert eye.eye_height_v == pytest.approx(target, rel=0.05)


@pytest.mark.parametrize("length", [0.0, 2.0, 5.0])
@settings(max_examples=10, deadline=None)
@given(noise=st.sampled_from((0.0, 0.01)), k=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_scaling_the_samples_by_a_power_of_two_scales_only_the_volts(length, noise, k,
                                                                     seed):
    # 2^k scales every sample, bin edge and opening exactly, so the eye's
    # counts, width and best phase stay and its volts scale by 2^k
    cfg = ChannelConfig(trace_length_cm=length, noise_sigma_v=noise)
    bits = np.random.default_rng(seed).integers(0, 2, 1100)
    wave = channel_apply(drive(bits, cfg), cfg, rng=np.random.default_rng(seed + 1))
    eye = eye_capture(wave, n_ui=1000)
    scaled = eye_capture(dataclasses.replace(wave, samples=wave.samples * 2**k), n_ui=1000)
    assert np.array_equal(scaled.counts, eye.counts)
    assert np.array_equal(scaled.phase_edges, eye.phase_edges)
    assert (scaled.eye_width_ui, scaled.best_phase_ui) == (eye.eye_width_ui,
                                                           eye.best_phase_ui)
    assert np.array_equal(scaled.volt_edges, eye.volt_edges * 2**k)
    assert scaled.eye_height_v == eye.eye_height_v * 2**k


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
    stage = phy._Channel(1.0 / (2.0 * math.pi * tau_s), w.dt_s)
    samples = np.empty(len(bits) * phy.SAMPLES_PER_UI)
    phy._filter_rows(stage, w._table, w._rows, samples)
    return eye_capture(phy.Waveform(w.ui_s, w.dt_s, samples), n_ui=400).eye_height_v


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

@pytest.mark.parametrize("seed", [0, 7])
def test_sample_bits_draws_the_comparators_own_jitter(seed):
    # a jittered channel jitters every call, from the stream's own
    # generator, in call order
    cfg = ChannelConfig(trace_length_cm=2.0, rj_sigma_s=0.2 * UI_S)
    codes = np.random.default_rng([seed, 2]).integers(0, 2, 400).tolist()
    times = np.random.default_rng([seed, 3]).uniform(20, 300, (2, 150)) * UI_S
    stream = StreamingNrz(cfg, seed=seed)
    stream.push_levels(codes)
    got = [stream.sample_bits(t).tobytes() for t in times]
    ref = StreamingNrz(cfg, seed=seed)
    ref.push_levels(codes)
    jitter = np.random.default_rng([seed, 0xCD]).normal(0.0, cfg.rj_sigma_s, times.shape)
    want = [(ref._voltage(t) > 1e-9).astype(np.int8).tobytes() for t in times + jitter]
    assert got == want


@pytest.mark.parametrize("seed", [-1, 1.5, np.nan])
def test_stream_rejects_a_bad_seed(seed):
    with pytest.raises(ValueError, match=r"^seed must be an integer, >= 0, got "):
        StreamingNrz(CLEAN, seed=seed)


@pytest.mark.parametrize("times", [
    pytest.param(1e-9, id="scalar"), pytest.param([[1e-9, 2e-9]], id="2-D"),
    pytest.param([np.nan], id="nan"), pytest.param([2e-9, np.nan, 1e-9], id="nan-among"),
    pytest.param([1e-9, -np.inf], id="-inf"), pytest.param([np.inf], id="inf")])
@pytest.mark.parametrize("rendered", [False, True])
@pytest.mark.parametrize("rj_sigma_s", [0.0, 3e-12])
def test_times_must_be_a_1d_sequence_of_finite_values(times, rendered, rj_sigma_s):
    # a scalar used to raise numpy's AxisError, a 2-D input a TypeError; a
    # NaN decided 0 once anything was rendered, and -inf read sample 0
    stream = StreamingNrz(ChannelConfig(rj_sigma_s=rj_sigma_s))
    stream.push_levels([1, 0] * 300)
    if rendered:
        stream._voltage([10 * UI_S])
    for call in (stream._voltage, stream.sample_bits):
        with pytest.raises(ValueError, match=r"^times must be (a 1-D sequence|finite), got "):
            call(times)


_SIXTEEN = np.linspace(20, 30, 16) * UI_S  # rendered on the first call


def _bad_batch(times, batch):
    """A sample call with a ``batch`` that does not fit ``times``."""
    return pytest.param((times, batch, ValueError,
                         rf"^batch must be an integer >= 1 dividing the {len(times)} times, "
                         rf"got {batch}$"), id=f"{len(times)}-times-at-{batch}")


@pytest.mark.parametrize("bad", [
    [1e-9, np.nan], [[1e-9, 2e-9]], 1e-9, [np.inf],
    # the rest are (times, batch, the error, its message)
    *(_bad_batch(_SIXTEEN, batch) for batch in (0, -4, 2.5, 5)),
    _bad_batch(np.linspace(20, 30, 21) * UI_S, 16),
    pytest.param(([20 * UI_S, 500 * UI_S], None, OutOfRange, "^waveform not rendered up to "),
                 id="past-the-pushed-codes")])
def test_a_rejected_sample_call_draws_no_jitter(bad):
    # the jitter used to be drawn before the times were checked, and the
    # draws of a call's required times used before its batch was checked
    # or those times rendered, so a rejected call moved every later
    # decision of the stream; a bad batch also raised IndexError,
    # TypeError or numpy's reshape messages
    times, batch, error, match = bad if isinstance(bad, tuple) else (
        bad, None, ValueError, r"^times must be (a 1-D sequence|finite)")
    cfg = ChannelConfig(trace_length_cm=2.0, rj_sigma_s=0.2 * UI_S)
    codes = np.random.default_rng(67).integers(0, 2, 400).tolist()
    later = np.random.default_rng(68).uniform(20, 300, 100) * UI_S
    decided, ahead = [], []
    for reject_first in (True, False):
        stream = StreamingNrz(cfg, seed=4)
        stream.push_levels(codes)
        if reject_first:
            with pytest.raises(error, match=match):
                stream.sample_bits(times, batch)
        decided.append(stream.sample_bits(later).tobytes())
        ahead.append(stream._rj.ahead(64).tobytes())
    assert decided[0] == decided[1]
    assert ahead[0] == ahead[1]


@pytest.mark.parametrize("rj_sigma_s", [0.0, 0.2 * UI_S])
def test_sample_bits_checks_its_times_once(rj_sigma_s, monkeypatch):
    # a jittered call used to convert, copy and sort its times twice:
    # once before the jitter draw and again inside voltage; each call now
    # peeks at its draws once and uses them once
    calls = []
    for name in ("ahead", "use"):
        def counted(self, n, name=name, method=getattr(phy._DrawsAhead, name)):
            calls.append(name)
            return method(self, n)
        monkeypatch.setattr(phy._DrawsAhead, name, counted)
    stream = StreamingNrz(ChannelConfig(rj_sigma_s=rj_sigma_s))
    stream.push_levels([1, 0] * 300)
    for n in (1, 16, 64):
        stream.sample_bits(np.linspace(20, 200, n) * UI_S)
    assert calls == (["ahead", "use"] * 3 if rj_sigma_s else [])


def test_an_unjittered_sample_call_draws_nothing():
    # sample_bits hands the shared sampling body the channel's rj_sigma_s
    # either way, so only its choice of generator keeps a 0 s channel
    # from drawing
    stream = StreamingNrz(ChannelConfig(trace_length_cm=2.0))
    stream.push_levels([1, 0] * 300)
    before = stream._jitter.bit_generator.state
    stream.sample_bits(np.linspace(20, 200, 64) * UI_S)
    assert stream._jitter.bit_generator.state == before


# -- the tail: batches decided ahead of need ------------------------------------

@pytest.mark.parametrize("seed", [0, 5])
def test_jitter_drawn_ahead_is_the_generators_draws_in_order(seed):
    # Generator.normal does not depend on call sizes, so draws made a
    # block at a time and used in uneven runs are the call-by-call draws
    sigma = 3e-12
    draws = phy._DrawsAhead(np.random.default_rng([seed, 0xCD]), sigma)
    used = []
    for n in (1, 16, 3, phy._JITTER_BLOCK - 5, 300, 2 * phy._JITTER_BLOCK + 7, 64):
        ahead = draws.ahead(n + 9).copy()  # a look past what is used changes nothing
        used.append(draws.ahead(n).copy())
        assert ahead[:n].tobytes() == used[-1].tobytes()
        draws.use(n)
    want = np.random.default_rng([seed, 0xCD]).normal(0.0, sigma, sum(map(len, used)))
    assert np.concatenate(used).tobytes() == want.tobytes()


_TAIL_CFG = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.01, rj_sigma_s=0.05 * UI_S)


def _tail_stream(seed=4):
    stream = StreamingNrz(_TAIL_CFG, seed=seed)
    stream.push_levels(np.random.default_rng([seed, 1]).integers(0, 2, 4000).tolist())
    return stream


@pytest.mark.parametrize("seed", [0, 9])
def test_sampling_with_tails_uses_the_jitter_in_order(seed):
    # uneven calls, with and without tails, some decided whole and some in
    # part: each decision reads the waveform at its time plus the next
    # unused draw of the comparators' generator
    stream, ref = _tail_stream(seed), _tail_stream(seed)
    jitter = np.random.default_rng([seed, 0xCD]).normal(0.0, _TAIL_CFG.rj_sigma_s, 20_000)
    rng = np.random.default_rng([seed, 2])
    used, start, cut = 0, 20.0, 0
    for batch, tail in [(16, 0), (5, 3), (16, 4), (1, 0), (16, 40), (7, 2), (300, None),
                        (16, 8)] * 3:
        n = batch * (1 + (tail or 0))
        times = (start + np.arange(n) * 0.5 + rng.uniform(-0.2, 0.2, n)) * UI_S
        got = stream.sample_bits(times, batch if tail is not None else None)
        k = len(got)
        assert k % batch == 0 and batch <= k <= n
        cut += k < n
        want = ref._voltage(times[:k] + jitter[used:used + k]) > 1e-9
        assert got.tobytes() == want.astype(np.int8).tobytes()
        assert stream._nbits == ref._nbits
        used += k
        start += k * 0.5
    assert cut  # some tails went past the rendered waveform


def test_a_decided_tail_is_what_later_plain_calls_decide():
    stream, twin = _tail_stream(), _tail_stream()
    times = (400 + np.arange(6 * 16) * 0.5) * UI_S
    got = stream.sample_bits(times, 16)
    assert len(got) == len(times)  # every batch already rendered
    want = [twin.sample_bits(times[lo:lo + 16]) for lo in range(0, len(times), 16)]
    assert got.tobytes() == np.concatenate(want).tobytes()
    assert (stream._nbits, stream._window()[0]) == (twin._nbits, twin._window()[0])


@pytest.mark.parametrize("where", ["unrendered", "dropped", "not_finite"])
def test_a_tail_not_decided_renders_raises_and_draws_nothing(where):
    # the first tail batch needs a render, reads samples already dropped or
    # is not finite: neither it nor the rendered batch after it is decided,
    # and the stream is left as a call without the tail leaves it
    stream, twin = _tail_stream(), _tail_stream()
    for s in (stream, twin):
        s.sample_bits(np.linspace(1500, 1516, 16) * UI_S)  # drops samples
    first = twin._window()[0] * twin.dt_s
    assert first > 0 and twin.frontier_s < 1600 * UI_S
    required = np.linspace(1504, 1508, 16) * UI_S
    bad = {"unrendered": twin.frontier_s + np.linspace(0, 8, 16) * UI_S,
           "dropped": first - np.linspace(8, 0, 16) * UI_S,
           "not_finite": np.where(np.arange(16) == 3, np.nan, required)}[where]
    got = stream.sample_bits(np.concatenate((required, bad, required)), 16)
    assert got.tobytes() == twin.sample_bits(required).tobytes()
    assert stream._nbits == twin._nbits and stream._pending == twin._pending
    assert stream._window()[1].tobytes() == twin._window()[1].tobytes()
    later = np.linspace(1510, 1700, 64) * UI_S
    assert stream.sample_bits(later).tobytes() == twin.sample_bits(later).tobytes()
    assert stream._rj.ahead(64).tobytes() == twin._rj.ahead(64).tobytes()


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
    eye = eye_capture(_driven(bits), n_ui=150)
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
        eye_capture(_driven([1, 0] * 20), n_ui=150)


@pytest.mark.parametrize("ui_s", [0.0, float("nan"), -1.25e-9, 1.0])
def test_drive_and_eye_capture_reject_a_bad_ui(ui_s):
    with pytest.raises(ValueError, match=r"ui_s must be finite, in \[5e-11, 5e-07\]"):
        drive([1, 0] * 100, CLEAN, ui_s=ui_s)
    driven = _driven([1, 0] * 100)
    wave = phy.Waveform(ui_s, driven.dt_s, driven.samples)
    if ui_s > wave.dt_s:  # a valid fold period, but the waveform is too short
        with pytest.raises(InsufficientSpan):
            eye_capture(wave)
    else:
        with pytest.raises(ValueError, match="ui_s must be finite, >= the sample period"):
            eye_capture(wave)


@pytest.mark.parametrize("n_ui", [float("nan"), -4, 2.5, 1, 2, 3])
def test_eye_capture_rejects_a_bad_span(n_ui):
    # -4 and 1 used to return an all-zero eye, 2 and 3 an eye of height
    # and width 0, and nan fail inside numpy
    with pytest.raises(ValueError, match=r"^n_ui must be an integer, >= 4, got "):
        eye_capture(_driven([1, 0] * 100), n_ui=n_ui)


@pytest.mark.parametrize("ui_s", [phy.ui_for_clock(300), 1e-9])
def test_eye_capture_folds_at_the_waveforms_own_ui(ui_s):
    # folded at the default 1.25 ns UI, a 2 cm eye driven at 1 ns read
    # 0.278 V instead of its 0.394 V
    cfg = ChannelConfig(trace_length_cm=2.0)
    bits = np.random.default_rng(58).integers(0, 2, 220)
    wave = channel_apply(drive(bits, cfg, ui_s=ui_s), cfg)
    assert wave.ui_s == ui_s
    got = eye_capture(wave, n_ui=150)
    want = _reference_eye(wave, ui_s, 150)
    assert got.counts.tobytes() == want.counts.tobytes()
    assert (got.eye_height_v, got.eye_width_ui, got.best_phase_ui) == \
        (want.eye_height_v, want.eye_width_ui, want.best_phase_ui)


def test_eye_counts_matrix_shape():
    rng = np.random.default_rng(57)
    eye = eye_capture(_driven(rng.integers(0, 2, 220)), n_ui=150)
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
       n_ui=st.one_of(st.integers(4, 41), st.integers(_BLOCK_UI + 1, _BLOCK_UI + 9)),
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
    ui_s = spu * dt_s
    wave = phy.Waveform(ui_s, dt_s, samples)
    got = eye_capture(wave, n_ui=n_ui)
    want = _reference_eye(wave, ui_s, n_ui)
    assert got.counts.dtype == want.counts.dtype
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.phase_edges.tobytes() == want.phase_edges.tobytes()
    assert got.volt_edges.tobytes() == want.volt_edges.tobytes()
    assert (repr(got.eye_height_v), repr(got.eye_width_ui), repr(got.best_phase_ui)) == \
        (repr(want.eye_height_v), repr(want.eye_width_ui), repr(want.best_phase_ui))


@pytest.mark.parametrize("swing,floor_holds", [(0.44, True), (128.0, True),
                                               (256.0, False), (1000.0, False)])
def test_a_flat_eye_at_any_level_has_64_finite_bins(swing, floor_holds):
    # from a 128 V level up, the range's 1e-12 V floor holds too few
    # doubles for 64 bins, and numpy raised "Too many bins for data range"
    cfg = ChannelConfig(swing=swing, trace_length_cm=0.0)
    eye = eye_capture(channel_apply(drive([1] * 200, cfg), cfg), 150)
    level = swing / 2
    assert (eye.eye_height_v, eye.eye_width_ui) == (0.0, 0.0)
    ve = eye.volt_edges
    if floor_holds:  # an eye that worked keeps its edges
        want = np.histogram_bin_edges([], phy.EYE_VOLT_BINS, (level, level + 1e-12))
        assert ve.tobytes() == want.tobytes()
    else:
        assert ve[0] == level and ve[-1] > level + 1e-12
    assert np.isfinite(ve).all() and (np.diff(ve) > 0).all()
    assert eye.counts[:, 0].sum() == eye.counts.sum() == 75 * 2 * phy.SAMPLES_PER_UI


@pytest.mark.parametrize("level", [sys.float_info.max, np.nextafter(sys.float_info.max, 0),
                                   -sys.float_info.max])
def test_a_flat_eye_at_the_largest_double_has_64_finite_bins(level):
    # the widened range floor overflowed at the largest double (np.spacing
    # of it is inf, and so is the sum above it): numpy warned, then raised
    eye = eye_capture(phy.Waveform(UI_S, UI_S / 32, np.full(6401, level)), 200)
    ve = eye.volt_edges
    assert np.isfinite(ve).all() and (np.diff(ve) > 0).all()
    assert level in (ve[0], ve[-1])
    assert (eye.eye_height_v, eye.eye_width_ui) == (0.0, 0.0)
    side = 0 if ve[0] == level else -1  # the last bin holds its right edge
    assert eye.counts[:, side].sum() == eye.counts.sum() == 6400


@pytest.mark.parametrize("change,message", [
    pytest.param(dict(dt_s=0.0), r"^dt_s must be finite, > 0, got 0\.0$", id="dt_zero"),
    pytest.param(dict(dt_s=-UI_S / 32), r"^dt_s must be finite, > 0, got -", id="dt_negative"),
    pytest.param(dict(dt_s=math.nan), r"^dt_s must be finite, > 0, got nan$", id="dt_nan"),
    pytest.param(dict(dt_s=UI_S / 32.5), r"^ui_s must be a whole number of sample periods "
                 r"dt_s, got ui_s / dt_s = 32\.5$", id="ui_not_whole"),
    pytest.param(dict(samples=np.zeros((200, 32))),
                 r"^samples must be a 1-D array of real numbers, got shape \(200, 32\) of "
                 r"float64$", id="samples_2d"),
    pytest.param(dict(samples=[0.0] * 6400),
                 r"^samples must be a 1-D array of real numbers, got list$", id="samples_list"),
    pytest.param(dict(samples=np.zeros(6400, complex)),
                 r"^samples must be a 1-D array of real numbers, got shape \(6400,\) of "
                 r"complex128$", id="samples_complex")])
def test_eye_capture_checks_a_hand_built_waveform(change, message):
    # a zero dt_s raised ZeroDivisionError, a negative one InsufficientSpan
    # ("waveform spans -200.0 UI") and a NaN one the ui_s rule; a 32.5-
    # sample UI folded at 32 samples; a 2-D array was measured by its rows
    # or failed in numpy's reshape, a list raised AttributeError, and
    # complex samples were cast to real
    wave = dataclasses.replace(_driven([1, 0] * 100), **change)
    with pytest.raises(ValueError, match=message):
        eye_capture(wave)


@pytest.mark.parametrize("ui_s", [UI_S, phy.ui_for_clock(300), 1e-9, 3.3e-10])
@pytest.mark.parametrize("spu", [2, 7, 32, 33])
def test_a_ui_within_rounding_of_whole_samples_folds_at_them(ui_s, spu):
    # 1e-9 / (1e-9 / 7) is 7.000000000000001
    eye = eye_capture(phy.Waveform(ui_s, ui_s / spu, np.zeros(9 * spu)), n_ui=8)
    assert eye.counts.shape == (2 * spu, phy.EYE_VOLT_BINS)
    assert eye.counts.sum() == 8 * spu


def test_integer_samples_fold_as_their_floats():
    levels = np.arange(6400) % 7 - 3
    got = eye_capture(phy.Waveform(UI_S, UI_S / 32, levels))
    want = eye_capture(phy.Waveform(UI_S, UI_S / 32, levels.astype(float)))
    assert got.counts.tobytes() == want.counts.tobytes()
    assert got.volt_edges.tobytes() == want.volt_edges.tobytes()
    assert (got.eye_height_v, got.eye_width_ui) == (want.eye_height_v, want.eye_width_ui)


def test_samples_must_span_a_finite_range():
    # the span overflowed to inf: numpy warned of the overflow, then
    # raised "Too many bins for data range"
    wave = _driven([1, 0] * 100)
    wave.samples[[3, 9]] = -1e308, 1e308
    with pytest.raises(ValueError, match=r"^samples must span a finite range, got "):
        eye_capture(wave)


def _ulps_around(values, lo, hi):
    """``values`` and their neighbours one ulp away, within [lo, hi]."""
    pool = np.concatenate((values, np.nextafter(values, -np.inf),
                           np.nextafter(values, np.inf)))
    return pool[(pool >= lo) & (pool <= hi)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       level=st.one_of(st.floats(-500.0, 500.0),
                       st.sampled_from([0.0, -0.22, 127.99, 128.0, 255.99, -256.0, 500.0])),
       width=st.one_of(st.just(0.0), st.integers(1, 300), st.just(1e-12),
                       st.floats(1e-12, 1e-6), st.floats(1e-6, 1000.0)),
       shape=st.sampled_from(["mixed", "flat", "extremes"]),
       spu=st.sampled_from([2, 3, 32]),
       n_traces=st.one_of(st.integers(2, 40),
                          st.integers(phy._EYE_BLOCK_TRACES + 1,
                                      2 * phy._EYE_BLOCK_TRACES + 99)),
       extra=st.integers(1, 40))
@example(seed=1, level=128.0, width=0.0, shape="flat", spu=32, n_traces=75, extra=1)
@example(seed=2, level=500.0, width=1e-12, shape="mixed", spu=3, n_traces=4101, extra=5)
@example(seed=3, level=-0.22, width=0.44, shape="extremes", spu=32, n_traces=2049, extra=3)
@example(seed=4, level=255.99, width=7, shape="mixed", spu=2, n_traces=40, extra=9)
def test_eye_bins_equal_histogram2d_at_any_level_and_range(seed, level, width, shape, spu,
                                                          n_traces, extra):
    # an integer width is that many ulps of the level; "extremes" puts
    # every sample on vmin or vmax, as a noiseless 0 cm eye nearly does
    rng = np.random.default_rng(seed)
    vmin = level
    if shape == "flat":
        vmax = vmin
    elif isinstance(width, int):
        vmax = level + width * np.spacing(abs(level) or 1.0)
    else:
        vmax = level + width
    window = 2 * spu
    n = n_traces * window + extra
    dt_s = 1e-11
    wave = phy.Waveform(spu * dt_s, dt_s, np.full(n, vmin))
    wave.samples[1] = vmax
    probe = eye_capture(wave, n_ui=4).volt_edges  # the edges of [vmin, vmax]
    if shape == "extremes":
        wave.samples[:] = rng.choice([vmin, vmax], n)
    elif shape == "mixed":
        # each edge and its neighbours one ulp away, 0 V, and random values
        pool = _ulps_around(np.append(probe, 0.0), vmin, vmax)
        wave.samples[:] = rng.uniform(vmin, vmax, n)
        pick = rng.random(n) < 0.5
        wave.samples[pick] = rng.choice(pool, np.count_nonzero(pick))
    wave.samples[rng.choice(n, 2, replace=False)] = vmin, vmax
    samples = wave.samples
    got = eye_capture(wave, n_ui=2 * n_traces)
    ve = got.volt_edges
    assert ve.tobytes() == probe.tobytes()

    # the range: [vmin, max(vmax, vmin + 1e-12)], widened only where
    # that cannot hold 64 finite bins
    top = max(vmax, vmin + 1e-12)
    if (np.diff(np.linspace(vmin, top, phy.EYE_VOLT_BINS + 1)) > 0).all():
        want = np.histogram_bin_edges([], phy.EYE_VOLT_BINS, (vmin, top))
        assert ve.tobytes() == want.tobytes()
    else:
        assert ve[0] == vmin and ve[-1] > top
        assert np.isfinite(ve).all() and (np.diff(ve) > 0).all()

    folded = samples[:n_traces * window]
    phases = (np.arange(len(folded)) % window) / spu
    counts, _, hist_ve = np.histogram2d(phases, folded, bins=[window, phy.EYE_VOLT_BINS],
                                         range=[[0.0, 2.0], [ve[0], ve[-1]]])
    assert hist_ve.tobytes() == ve.tobytes()
    assert got.counts.tobytes() == counts.tobytes()

    openings = np.full(window, -np.inf)
    for col, v in enumerate(folded.reshape(n_traces, window).T):
        if (v > 0).any() and (v <= 0).any():
            openings[col] = v[v > 0].min() - v[v <= 0].max()
    best = int(np.argmax(openings))
    assert got.eye_height_v == max(openings[best], 0.0)
    assert got.best_phase_ui == best / spu


# -- streaming renderer ---------------------------------------------------------

def test_streaming_matches_batch_rendering():
    rng = np.random.default_rng(58)
    bits = rng.integers(0, 2, 700)
    cfg = ChannelConfig(trace_length_cm=2.0)
    whole = channel_apply(drive(bits, cfg), cfg)
    stream = StreamingNrz(cfg)
    stream.push_levels(bits.tolist())
    # the streamed line starts from idle (0 V); skip the startup settling
    times = np.arange(1000, 60000) * (UI_S / 100)
    got = stream._voltage(times)
    want = np.interp(times / whole.dt_s, np.arange(len(whole.samples)), whole.samples)
    assert np.allclose(got, want, atol=1e-9)


def test_streaming_idle_levels_render_as_zero():
    stream = StreamingNrz(CLEAN)
    stream.push_levels([phy.IDLE] * 40 + [1] * 300)
    v = stream._voltage(np.array([10 * UI_S]))
    assert v[0] == 0.0


def test_streaming_guards_unrendered_span():
    stream = StreamingNrz(CLEAN)
    stream.push_levels([1, 0] * 8)
    with pytest.raises(OutOfRange):
        stream._voltage(np.array([1.0]))


def test_streaming_voltage_is_np_interp_bitwise():
    cfg = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.01, prop_delay_s=0.3e-9)
    stream = StreamingNrz(cfg, seed=3)
    stream.push_levels(np.random.default_rng(59).integers(0, 2, 3000).tolist())
    stream.ensure(2998 * UI_S + cfg.prop_delay_s)  # render all but one level
    first, tail = stream._window()
    last, nbits = len(tail) - 1, stream._nbits
    picks = np.concatenate((np.arange(last + 1),
                            np.random.default_rng(60).uniform(0, last, 100_000)))
    times = cfg.prop_delay_s + first * stream.dt_s + picks * stream.dt_s
    # the last sample sits at the frontier, where ensure renders on: an ulp short
    times = np.minimum(times, np.nextafter(stream.frontier_s, -np.inf))
    rel = (times - cfg.prop_delay_s - first * stream.dt_s) / stream.dt_s
    times, rel = times[rel >= 0], rel[rel >= 0]  # roundoff below sample 0
    got = stream._voltage(times)
    assert stream._nbits == nbits  # sampling rendered nothing more
    assert rel.min() < 1e-9 and rel.max() > last - 1e-9  # first and last sample
    want = np.interp(rel, np.arange(last + 1), tail)
    assert got.tobytes() == want.tobytes()


def test_streaming_time_before_first_sample_reads_it_settled():
    # jitter can put a sample before the line's first rendered sample
    cfg = ChannelConfig(trace_length_cm=2.0, prop_delay_s=0.5e-9)
    stream = StreamingNrz(cfg)
    stream.push_levels([1] * 600)
    v = stream._voltage(np.array([-3e-12, 0.0, cfg.prop_delay_s]))
    assert v.tolist() == [stream._window()[1][0]] * 3
    # once samples are dropped, an earlier time is out of the window
    stream.push_levels([1] * 2000)
    stream.ensure(1500 * UI_S)
    with pytest.raises(OutOfRange):
        stream._voltage(np.array([0.0]))


def _np_interp_reference(stream, codes, seed, times):
    """What ``stream._voltage(times)`` must return, or None where it must
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
    whole = phy._render_trapezoid(levels[:n], phy.SAMPLES_PER_UI, cfg.rise_time_ui,
                                  0.0, levels[n])
    phy._Channel(cfg.pole_hz(), stream.dt_s, cfg.noise_sigma_v,
                 np.random.default_rng([seed, 0xC0])).apply(whole)
    first, window = stream._window()
    kept = whole[len(whole) - len(window):]
    assert window.tobytes() == kept.tobytes()  # the window is the newest samples
    rel = (times - cfg.prop_delay_s - first * stream.dt_s) / stream.dt_s
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

    stream, got = run(lambda s: s._voltage(times))
    want = _np_interp_reference(stream, codes, seed, times)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.tobytes() == want.tobytes()

    stream, got = run(lambda s: s.sample_bits(times))
    jittered = np.asarray(times, dtype=float)
    if noisy:
        jittered = jittered + np.random.default_rng([seed, 0xCD]).normal(
            0.0, cfg.rj_sigma_s, len(times))
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
    whole = phy._render_trapezoid(levels[:-1], phy.SAMPLES_PER_UI, cfg.rise_time_ui,
                                  0.0, levels[-1])
    phy._Channel(cfg.pole_hz(), stream.dt_s, cfg.noise_sigma_v,
                 np.random.default_rng([5, 0xC0])).apply(whole)
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
        first, window = stream._window()
        assert first == max(end - keep, 0)  # the samples dropped, counted exactly
        assert window.tobytes() == whole[first:end].tobytes()
    assert sum(takes) * spu > 2 * len(buf)  # the window moved to the front thrice or more
    assert stream._buf is buf and np.shares_memory(stream._window()[1], buf)


def test_streamed_voltages_do_not_depend_on_the_chunking():
    # however the codes arrive and are rendered, the window's time origin
    # is exact, so every sampled voltage is bitwise the same
    cfg = ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.01, prop_delay_s=0.3e-9)
    codes = np.random.default_rng(62).choice([0, 1, phy.IDLE], 6000).tolist()
    times = np.sort(np.random.default_rng(63).uniform(5000, 5990, 64)) * UI_S
    sampled = set()
    for burst in (1, 7, 40, 300, 6000):
        stream = StreamingNrz(cfg, seed=6)
        for lo in range(0, len(codes), burst):
            stream.push_levels(codes[lo:lo + burst])
            stream.ensure((min(lo + burst, len(codes)) - 2) * UI_S + cfg.prop_delay_s)
        sampled.add(stream._voltage(times).tobytes())
    assert len(sampled) == 1


@pytest.mark.parametrize("tx_ui_s", [float("nan"), float("inf"), 0.0, -1e-9])
def test_streaming_rejects_a_bad_tx_ui(tx_ui_s):
    with pytest.raises(ValueError, match=r"^tx_ui_s must be finite, > 0, got "):
        StreamingNrz(CLEAN, tx_ui_s=tx_ui_s)


def test_off_alphabet_levels_raise_and_render_nothing():
    stream = StreamingNrz(CLEAN)
    stream.push_levels([1] * 300)
    state = (stream._nbits, list(stream._pending), stream._window()[1].tobytes())
    for bad in ([1, 3], [0, -1], [0.5], [float("nan")], [1, None], [1, [0]],
                np.array([1] * 300 + [3])):
        with pytest.raises(ValueError, match=r"0, 1 or IDLE \(2\)"):
            stream.push_levels(bad)
        assert (stream._nbits, list(stream._pending), stream._window()[1].tobytes()) == state


@pytest.mark.parametrize("codes", [
    [1, 0, 2, 1], (1, 0, 2, 1), b"\x01\x00\x02\x01", bytearray(b"\x01\x00\x02\x01"),
    [True, False, 2, 1], [np.int64(1), np.uint8(0), np.int32(2), np.True_],
    np.array([1, 0, 2, 1], dtype=np.int64), np.array([1, 0, 2, 1], dtype=np.uint8),
    np.array([1, 0, 2, 1], dtype=np.int16), iter([1, 0, 2, 1]),
    array.array("q", [1, 0, 2, 1])],
    ids=["list", "tuple", "bytes", "bytearray", "bools", "numpy_scalars", "int64_array",
         "uint8_array", "int16_array", "iterator", "array_q"])
def test_push_levels_takes_integer_codes_by_value(codes):
    # an int64 array pushes its four values, not its 32 bytes
    stream = StreamingNrz(CLEAN)
    stream.push_levels(codes)
    assert bytes(stream._pending) == b"\x01\x00\x02\x01"


def test_push_levels_takes_numpy_bools_by_value():
    stream = StreamingNrz(CLEAN)
    stream.push_levels(np.array([True, False, True]))
    stream.push_levels([np.False_, np.True_])
    assert bytes(stream._pending) == b"\x01\x00\x01\x00\x01"


def _push_rejected(bad):
    stream = StreamingNrz(CLEAN)
    stream.push_levels([1] * 3)
    with pytest.raises(ValueError, match=r"0, 1 or IDLE \(2\)"):
        stream.push_levels(bad)
    assert bytes(stream._pending) == b"\x01" * 3


@pytest.mark.parametrize("bad", [
    5, 0, True, np.int64(1), np.array(1),  # bytes(5) would be five zero codes
    [1, 256], [1, -1], np.array([[1, 0], [0, 1]]), "01"],
    ids=["int", "zero", "bool", "numpy_int", "array_0d", "256", "minus_1", "array_2d", "str"])
def test_push_levels_rejects_a_bare_value_and_non_codes(bad):
    _push_rejected(bad)


@pytest.mark.parametrize("bad", [
    [1.0], [1, 0.0], (np.float64(1.0),), np.array([1.0, 0.0]), [np.float32(2.0)],
    [Fraction(1)], [Decimal(1)], [1 + 0j]],
    ids=["float", "mixed", "numpy_float", "float_array", "float32", "fraction", "decimal",
         "complex"])
def test_push_levels_rejects_non_integers_it_used_to_take(bad):
    # integer-valued non-integers got in through the old dict lookup's
    # hash equality (1.0 == 1); a driver code is an integer
    _push_rejected(bad)
