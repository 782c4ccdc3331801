from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serlink import phy
from serlink.cdr import (BATCH_BITS, LOCK_BATCHES, LOCK_TOL_UI, PI_CODES,
                         PI_STEP_UI, VALID_DIVIDERS, CdrLoop, CdrState,
                         PdDecision, alexander_pd, loop_filter_update,
                         offset_drift_ui_per_ui, pd_batch, pi_apply,
                         recover_stream, slew_capacity_ui_per_ui)


# -- phase detector -----------------------------------------------------------

def test_alexander_truth_table():
    assert alexander_pd(0, 0, 1) is PdDecision.EARLY
    assert alexander_pd(0, 1, 1) is PdDecision.LATE
    assert alexander_pd(1, 0, 1) is PdDecision.NONE
    assert alexander_pd(1, 1, 1) is PdDecision.NONE
    assert alexander_pd(1, 1, 0) is PdDecision.EARLY
    assert alexander_pd(1, 0, 0) is PdDecision.LATE


def test_pd_batch_matches_per_bit_decisions():
    rng = np.random.default_rng(41)
    block = rng.integers(0, 2, (2, 200, 8))
    sums, inner = [], []
    prev = first = 1
    for data, edge in zip(*block):
        last = prev
        want = 0
        for d, e in zip(data, edge):
            want += alexander_pd(prev, e, d).value
            prev = d
        assert pd_batch(data, edge, last) == want
        sums.append(want)
        inner.append(pd_batch(data, edge, last, include_boundary=False))
    # a block of consecutive batches gives each batch's sum
    assert pd_batch(block[0], block[1], first) == sums
    assert pd_batch(block[0], block[1], first, include_boundary=False) == inner


def test_pd_batch_alternating_all_early():
    data = [0, 1, 0, 1, 0, 1, 0, 1]
    edge_prev = [1, 0, 1, 0, 1, 0, 1, 0]  # every edge equals the prior bit
    assert pd_batch(data, edge_prev, last_bit_prev_batch=1) == 8
    assert pd_batch(data, edge_prev, last_bit_prev_batch=0) == 7
    assert pd_batch(data, edge_prev, 1, include_boundary=False) == 7


def test_pd_batch_constant_data_is_silent():
    assert pd_batch([1] * 8, [0] * 8, 1) == 0


def test_pd_batch_alternating_all_late():
    data = [0, 1, 0, 1, 0, 1, 0, 1]
    edge_next = data  # every edge already equals the following bit
    assert pd_batch(data, edge_next, last_bit_prev_batch=1) == -8


# -- loop filter and interpolator --------------------------------------------

def test_loop_filter_example_sums_of_four():
    state = CdrState(n=4)
    steps = [loop_filter_update(state, 4) for _ in range(4)]
    assert steps == [0, 0, 0, 4]
    assert state.accumulator == 0


def test_loop_filter_zero_sums_never_step():
    state = CdrState(n=4)
    assert all(loop_filter_update(state, 0) == 0 for _ in range(64))


def test_loop_filter_truncates_toward_zero_and_carries_remainder():
    state = CdrState(n=4)
    for s in (3, 0, 0, 0):
        step = loop_filter_update(state, s)
    assert step == 0 and state.accumulator == 3  # 3/4 truncates to 0
    for s in (3, 0, 0, 0):
        step = loop_filter_update(state, s)
    assert step == 1 and state.accumulator == 2  # 6/4 -> 1, remainder 2
    state = CdrState(n=4)
    for s in (-3, -3, 0, 0):
        step = loop_filter_update(state, s)
    assert step == -1 and state.accumulator == -2


def test_loop_filter_accumulator_clamps_like_hardware():
    state = CdrState(n=4)
    steps = [loop_filter_update(state, 8) for _ in range(4)]
    assert steps[-1] == 4  # clamped at +/-16 -> at most 4 steps per update
    assert state.accumulator == 0


def test_evaluation_cadence_is_sixteen_fast_cycles():
    # one batch is 8 bits = 4 DDR fast-clock cycles; N=4 batches per update
    state = CdrState(n=4)
    fast_cycles_per_batch = BATCH_BITS // 2
    cycles_between_updates = []
    cycles = 0
    last_update = 0
    for _ in range(64):
        loop_filter_update(state, 1)
        cycles += fast_cycles_per_batch
        if state.batch_count % state.n == 0:
            cycles_between_updates.append(cycles - last_update)
            last_update = cycles
    assert set(cycles_between_updates) == {16}


def test_pi_code_wraps_modulo_32():
    state = CdrState(pi_code=31)
    assert pi_apply(state, 1).pi_code == 0
    state = CdrState(pi_code=0)
    assert pi_apply(state, -1).pi_code == 31


def test_pi_step_resolution_is_78_ps():
    clock_period_s = 2 * phy.UI_S  # 2.5 ns at 0.8 Gbps DDR
    assert clock_period_s / PI_CODES == pytest.approx(78.125e-12)
    assert float(PI_STEP_UI) * phy.UI_S == pytest.approx(78.125e-12)


def test_divider_validation():
    with pytest.raises(ValueError):
        CdrState(n=3)
    CdrState(n=128)


# -- slew capacity arithmetic --------------------------------------------------

def test_slew_capacity_exceeds_offset_demand_exactly():
    capacity = slew_capacity_ui_per_ui(n=4, detectors=7)
    assert capacity == Fraction(7, 1024)
    demand = offset_drift_ui_per_ui(0.004)
    assert demand == Fraction(1, 250)
    assert capacity > demand


# -- closed loop ---------------------------------------------------------------

CLEAN = phy.ChannelConfig(trace_length_cm=0.0)


def test_aligned_noiseless_training_issues_no_steps():
    bits = np.tile([1, 0], 3000)
    res = recover_stream(bits, CLEAN, n_bits=4000, initial_phase_ui=0.0)
    assert res.lock_time_s == 0.0
    assert res.pi_steps == 0
    assert res.slips == 0


def test_lock_from_half_clock_period():
    # one full clock period of initial offset is a shifted lock point
    bits = np.tile([1, 0], 3000)
    res = recover_stream(bits, CLEAN, n_bits=4000, initial_phase_ui=1.0)
    assert res.lock_time_s is not None and res.lock_time_s <= 0.64e-6


def test_lock_from_quarter_ui():
    bits = np.tile([1, 0], 3000)
    res = recover_stream(bits, CLEAN, n_bits=4000, initial_phase_ui=0.25)
    assert res.lock_time_s is not None and res.lock_time_s <= 0.64e-6
    assert res.pi_steps == 4


def test_negative_feedback_sign_over_seeds():
    # a small constant phase error on transition-rich data always drives
    # the first correction against the error
    bits = np.tile([1, 0], 2000)
    for seed in range(5):
        for phase, expect_sign in ((0.1, -1), (1.9, 1)):
            res = recover_stream(bits, CLEAN, n_bits=512,
                                 initial_phase_ui=phase, seed=seed)
            first_code = next(code for (_, code, _) in res.trace if code != 0)
            moved = first_code if first_code <= PI_CODES // 2 else first_code - PI_CODES
            assert (moved > 0) == (expect_sign > 0)


def test_tracks_offset_without_errors():
    rng = np.random.default_rng(44)
    tx = rng.integers(0, 2, 140_000).astype(np.int8)
    cfg = phy.ChannelConfig(trace_length_cm=2.0)
    for offset in (0.004, -0.004):
        res = recover_stream(tx, cfg, n_bits=120_000, freq_offset=offset,
                             initial_phase_ui=0.5, keep_trace=False)
        assert res.slips == 0
        assert res.errors_against(tx) == 0


def test_trace_is_deterministic():
    bits = np.tile([1, 0], 4000)
    cfg = phy.ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.003,
                            rj_sigma_s=2e-12)
    a = recover_stream(bits, cfg, n_bits=4000, initial_phase_ui=0.3, seed=9)
    b = recover_stream(bits, cfg, n_bits=4000, initial_phase_ui=0.3, seed=9)
    assert a.trace == b.trace
    assert np.array_equal(a.bits, b.bits)


def test_recover_stream_rejects_empty_run():
    with pytest.raises(ValueError):
        recover_stream(np.array([1, 0]), CLEAN, n_bits=0)


def recover_batch_by_batch(tx_bits, cfg, n_bits, n, freq_offset,
                           initial_phase_ui, seed, include_boundary):
    """Reference for recover_stream: one process_batch() call per batch.

    Lock and first slip come from the reference's own streak logic; the
    loop's tracker must agree with it under this driving too.
    """
    chunks = iter(tx_bits.reshape(-1, phy.STREAM_CHUNK_BITS))
    stream = phy.StreamingNrz(cfg, tx_ui_s=phy.UI_S / (1.0 + freq_offset), seed=seed,
                              bit_source=lambda count: next(chunks))
    loop = CdrLoop(stream, n=n, initial_phase_ui=initial_phase_ui,
                   include_boundary=include_boundary, seed=seed)
    bits, indices, trace = [], [], []
    lock_time = first_slip = None
    streak, streak_start, prev_t_end = 0, 0.0, 0.0
    for _ in range(n_bits // BATCH_BITS):
        rec = loop.process_batch()
        (t_end,), (err,), (slips,) = rec.t_end_s, rec.err_ui, rec.slips
        bits += rec.data_bits.tolist()
        indices += rec.bit_indices.tolist()
        trace.append((t_end * 1e9, rec.pi_code, err))
        if abs(err) <= LOCK_TOL_UI:
            if streak == 0:
                streak_start = prev_t_end
            streak += 1
            if streak == LOCK_BATCHES and lock_time is None:
                lock_time = streak_start
        else:
            streak = 0
        if slips and first_slip is None:
            first_slip = t_end
        prev_t_end = t_end
    assert (loop.lock_time_s, loop.first_slip_s) == (lock_time, first_slip)
    return (bits, indices, loop.slips, lock_time, first_slip,
            loop.pi_steps_applied, trace)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.sampled_from(VALID_DIVIDERS),
       include_boundary=st.booleans(),
       phase=st.floats(0.0, 2.0, exclude_max=True),
       offset=st.floats(-0.005, 0.005), noisy=st.booleans())
def test_block_sampling_equals_one_batch_per_call(seed, n, include_boundary,
                                                 phase, offset, noisy):
    n_bits = 2000
    tx = np.random.default_rng(seed).integers(0, 2, 64 * phy.STREAM_CHUNK_BITS,
                                              dtype=np.int8)
    cfg = (phy.ChannelConfig(trace_length_cm=5.0, noise_sigma_v=0.01,
                             rj_sigma_s=3e-12, prop_delay_s=0.4e-9)
           if noisy else phy.ChannelConfig(trace_length_cm=2.0))
    res = recover_stream(tx, cfg, n_bits=n_bits, n=n, freq_offset=offset,
                         initial_phase_ui=phase, seed=seed,
                         include_boundary=include_boundary)
    want = recover_batch_by_batch(tx, cfg, n_bits, n, offset, phase, seed,
                                  include_boundary)
    got = (res.bits.tolist(), res.bit_indices.tolist(), res.slips, res.lock_time_s,
           res.first_slip_s, res.pi_steps, res.trace)
    assert got == want
