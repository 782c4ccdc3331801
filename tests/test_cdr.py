from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from serlink import phy
from serlink.cdr import (BATCH_BITS, GRID_BATCHES, LOCK_BATCHES, LOCK_TOL_UI,
                         MAX_BLOCK_BATCHES, PI_CODES, PI_STEP_UI,
                         VALID_DIVIDERS, BatchRecord, CdrLoop, CdrState,
                         PdDecision, RecoveryResult, alexander_pd,
                         loop_filter_update, offset_drift_ui_per_ui,
                         pd_batch, pi_apply, recover_stream,
                         slew_capacity_ui_per_ui, tx_ui_for)
from serlink.errors import AlignmentError, OutOfRange
from serlink.node import LinkSimConfig, Node, Scheduler


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
    prev = 1
    for data, edge in zip(*block):
        last = prev
        want = inner = 0
        for i, (d, e) in enumerate(zip(data, edge)):
            want += alexander_pd(prev, e, d).value
            inner += alexander_pd(prev, e, d).value if i else 0
            prev = d
        assert pd_batch(data, edge, last) == want
        assert pd_batch(data, edge, last, include_boundary=False) == inner


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
    # every divider setting takes the powers of two up to 128 and nothing
    # else; the set is stated here, not read from VALID_DIVIDERS, so a
    # changed entry fails by behaviour and not only in the README's table
    node = Node("n0", Scheduler(), lambda *a, **k: None, LinkSimConfig())
    for n in (1, 2, 4, 8, 16, 32, 64, 128):
        assert CdrState(n=n).n == n
        assert LinkSimConfig(cdr_n=n).cdr_n == n
        node.write_register("cdr_n", n)
        assert node.regs.cdr_n == n
    for n in (0, 3, 17, 65, 256):
        with pytest.raises(ValueError, match=r"^n must be an integer, one of "):
            CdrState(n=n)
        with pytest.raises(ValueError, match=r"^cdr_n must be an integer, one of "):
            LinkSimConfig(cdr_n=n)
        with pytest.raises(AlignmentError, match=r"^cdr_n must be one of "):
            node.write_register("cdr_n", n)


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


def test_errors_against_counts_an_error_at_bit_index_0():
    res = RecoveryResult(bits=np.array([1, 0, 1]), bit_indices=np.array([0, 1, 2]),
                         lock_time_s=None, slips=0, first_slip_s=None, pi_steps=0)
    assert res.errors_against([0, 0, 1]) == 1


def test_trace_is_deterministic():
    bits = np.tile([1, 0], 4000)
    cfg = phy.ChannelConfig(trace_length_cm=2.0, noise_sigma_v=0.003,
                            rj_sigma_s=2e-12)
    a = recover_stream(bits, cfg, n_bits=4000, initial_phase_ui=0.3, seed=9)
    b = recover_stream(bits, cfg, n_bits=4000, initial_phase_ui=0.3, seed=9)
    assert a.trace == b.trace
    assert np.array_equal(a.bits, b.bits)


def test_recover_stream_rejects_empty_run():
    # the loop recovers whole 8-bit batches: fewer bits would recover none
    for n_bits in (0, 1, 7):
        with pytest.raises(ValueError):
            recover_stream(np.tile([1, 0], 2000), CLEAN, n_bits=n_bits)


@pytest.mark.parametrize("n_bits", [800.0, 7, np.nan, "800"])
def test_recover_stream_rejects_a_bad_bit_count_up_front(n_bits):
    with pytest.raises(ValueError, match="^n_bits must be an integer, >= 8, got "):
        recover_stream(np.tile([1, 0], 2000), CLEAN, n_bits=n_bits)


@pytest.mark.parametrize("bad", [2, 0.7, -1, np.nan])
def test_recover_stream_takes_only_bits(bad):
    # a 2 used to be sent as a 1, and 0.7 cast to 0, each then a bit error
    tx = np.tile([1.0, 0.0], 2000)
    tx[1001] = bad
    with pytest.raises(ValueError, match="^tx_bits must hold only 0s and 1s"):
        recover_stream(tx, CLEAN, n_bits=800)


def test_recover_stream_takes_a_1d_sequence():
    # each row holds valid bits; flattened, they would run on silently
    with pytest.raises(ValueError, match=r"^tx_bits must be 1-D"):
        recover_stream(np.tile([1, 0], (2, 1000)), CLEAN, n_bits=800)


def test_recover_stream_needs_only_the_bits_it_samples_plus_one():
    # the stream holds the last bit back for its successor's ramp
    cfg = phy.ChannelConfig(trace_length_cm=2.0)
    tx = np.random.default_rng(1).integers(0, 2, 513)
    res = recover_stream(tx, cfg, n_bits=512, initial_phase_ui=0.25, seed=1)
    assert len(res.bits) == 512
    assert res.errors_against(tx) == 0 and res.slips == 0
    with pytest.raises(OutOfRange):
        recover_stream(tx[:512], cfg, n_bits=512, initial_phase_ui=0.25, seed=1)


@pytest.mark.parametrize("name,value", [
    ("freq_offset", np.nan), ("freq_offset", -1.0), ("initial_phase_ui", np.nan),
    ("initial_phase_ui", 2.0), ("ui_s", 0.0), ("ui_s", np.inf)])
def test_recover_stream_rejects_a_bad_link_argument_up_front(name, value):
    # with no bits to send, a run that got past the check would raise OutOfRange
    with pytest.raises(ValueError, match=f"^{name} must be "):
        recover_stream([], CLEAN, n_bits=BATCH_BITS, **{name: value})


@pytest.mark.parametrize("name", ["include_boundary", "keep_trace"])
@pytest.mark.parametrize("value", ["no", None, 2, 0.5, 1, 0.0])
def test_recover_stream_takes_only_true_or_false_flags(name, value):
    # include_boundary="no" used to run with the boundary detector on, and
    # a 1 or a 0.0, equal to True or False, passed as one
    with pytest.raises(ValueError, match=f"^{name} must be true or false, got "):
        recover_stream([1, 0] * 100, CLEAN, n_bits=BATCH_BITS, **{name: value})


@pytest.mark.parametrize("count", [0, -3, 2.5, "1", None])
def test_process_batch_rejects_a_bad_count(count):
    # 0 and -3 used to raise UnboundLocalError on step, 2.5 a TypeError
    # from range; a rejected call samples nothing
    loops = []
    for _ in range(2):
        stream = phy.StreamingNrz(CLEAN)
        stream.push_levels([1, 0] * 200)
        loops.append(CdrLoop(stream))
    with pytest.raises(ValueError, match=r"^count must be an integer, >= 1, got "):
        loops[0].process_batch(count)
    assert loops[0].process_batch(2) == loops[1].process_batch(np.int64(2))


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_recover_stream_names_a_bad_seed(seed):
    # these used to fail inside numpy, naming no argument
    with pytest.raises(ValueError, match=r"^seed must be an integer, >= 0, got "):
        recover_stream([1, 0] * 100, CLEAN, n_bits=BATCH_BITS, seed=seed)


def recover_batch_by_batch(tx_bits, cfg, n_bits, n, freq_offset,
                           initial_phase_ui, seed, include_boundary):
    """Reference for recover_stream: one process_batch() call per batch.

    Lock and first slip come from the reference's own streak logic; the
    loop's tracker must agree with it under this driving too.
    """
    stream = phy.StreamingNrz(cfg, tx_ui_s=phy.UI_S / (1.0 + freq_offset), seed=seed)
    stream.push_levels(tx_bits.tolist())
    loop = CdrLoop(stream, n=n, initial_phase_ui=initial_phase_ui,
                   include_boundary=include_boundary)
    bits, indices, trace = [], [], []
    lock_time = first_slip = None
    streak, streak_start, prev_t_end = 0, 0.0, 0.0
    for _ in range(n_bits // BATCH_BITS):
        rec = loop.process_batch()
        (t_end,), (err,), (slips,) = rec.t_end_s, rec.err_ui, rec.slips
        bits += rec.data_bits
        indices += rec.bit_indices
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


# -- oracle: the numpy block loop that the scalar loop replaced ----------------

def numpy_pd_batch(data, edge, last_bit_prev_batch, include_boundary=True):
    """Early-minus-late sums of a ``(count, 8)`` block of batches."""
    d = np.asarray(data)
    e = np.asarray(edge)
    flat = d.ravel()
    prev = np.empty_like(flat)
    prev[0] = last_bit_prev_batch
    prev[1:] = flat[:-1]
    prev = prev.reshape(d.shape)
    contrib = np.where(e == prev, 1, -1) * (prev != d)
    if not include_boundary:
        contrib[..., 0] = 0
    return contrib.sum(axis=-1).tolist()


class NumpyBlockLoop(CdrLoop):
    """CdrLoop with the numpy block body its process_batch used to have."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._edge_then_data = np.array([[0.5 * self.ui_s], [0.0]])

    def _phase_errors(self, t_data):
        tx_ui = self.stream.tx_ui_s
        u = (t_data - self.stream.reference_delay_s) / tx_ui - 0.5
        m = np.rint(u).astype(np.int64)
        return u - m, m

    def process_batch(self, count=1):
        state = self.state
        count = min(count, state.n - state.batch_count % state.n, MAX_BLOCK_BATCHES)
        idx = state.batch_count * BATCH_BITS + np.arange(count * BATCH_BITS)
        t_data = self._t0 + (idx + 0.5) * self.ui_s + self.phi_s
        times = t_data.reshape(count, 1, BATCH_BITS) - self._edge_then_data
        bits = self.stream.sample_bits(times.ravel())
        bits = bits.reshape(count, 2, BATCH_BITS)
        edge, data = bits[:, 0], bits[:, 1]

        for batch_sum in numpy_pd_batch(data, edge, self._last_bit, self.include_boundary):
            step = loop_filter_update(state, batch_sum)
        self._last_bit = int(data[-1, -1])
        if step:
            pi_apply(state, step)
            self.phi_s += step * float(PI_STEP_UI) * self.ui_s
            self.pi_steps_applied += abs(step)
        err_ui, m = self._phase_errors(t_data)

        prev = np.empty_like(m)
        prev[0] = m[0] - 1 if self._last_index is None else self._last_index
        prev[1:] = m[:-1]
        slips = (m - prev != 1).reshape(count, BATCH_BITS).sum(axis=1)
        if self._last_index is None:
            slips[0] = 0
        self.slips += int(slips.sum())
        self._last_index = m[-1]
        last = slice(BATCH_BITS - 1, None, BATCH_BITS)
        rec = BatchRecord(data_bits=data.ravel().tolist(), bit_indices=m.tolist(),
                          t_end_s=t_data[last].tolist(), err_ui=err_ui[last].tolist(),
                          slips=slips.tolist(), pi_step=step, pi_code=state.pi_code)
        for t_end, err, batch_slips in zip(rec.t_end_s, rec.err_ui, rec.slips):
            if batch_slips and self.first_slip_s is None:
                self.first_slip_s = t_end
            if abs(err) <= LOCK_TOL_UI:
                self._streak += 1
                if self._streak == LOCK_BATCHES and self.lock_time_s is None:
                    self.lock_time_s = self._streak_start_s
            else:
                self._streak = 0
                self._streak_start_s = t_end
        return rec


def _exact(x):
    return None if x is None else float(x).hex()


def _observed(loop, rec):
    """Everything one call returned or changed, floats compared by bits."""
    return (rec.data_bits, rec.bit_indices, [_exact(t) for t in rec.t_end_s],
            [_exact(e) for e in rec.err_ui], rec.slips, rec.pi_step, rec.pi_code,
            loop.slips, loop.pi_steps_applied, _exact(loop.lock_time_s),
            _exact(loop.first_slip_s))


ORACLE_CHANNELS = {
    "clean": phy.ChannelConfig(trace_length_cm=0.0),
    "2cm": phy.ChannelConfig(trace_length_cm=2.0),
    "noisy": phy.ChannelConfig(trace_length_cm=5.0, noise_sigma_v=0.01,
                               rj_sigma_s=3e-12, prop_delay_s=0.4e-9),
}


def _driven(loop_type, tx, cfg, offset, seed, counts, n_batches, **loop_args):
    """Observations of each call over ``n_batches``, cycling through ``counts``;
    the last entry is the exception type that ended the run, if any."""
    stream = phy.StreamingNrz(cfg, tx_ui_s=phy.UI_S / (1.0 + offset), seed=seed)
    stream.push_levels(tx.tolist())
    loop = loop_type(stream, **loop_args)
    seen, done, k = [], 0, 0
    while done < n_batches:
        try:
            rec = loop.process_batch(counts[k % len(counts)])
        except OutOfRange:
            return seen + [OutOfRange]
        seen.append(_observed(loop, rec))
        done += len(rec.t_end_s)
        k += 1
    return seen


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.sampled_from(VALID_DIVIDERS),
       include_boundary=st.booleans(),
       phase=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5]),
                       st.floats(0.0, 2.0, exclude_max=True)),
       offset=st.floats(-0.005, 0.005), channel=st.sampled_from(sorted(ORACLE_CHANNELS)),
       t_start_s=st.sampled_from([0.0, 97.3e-9]),
       counts=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       tx_chunks=st.sampled_from([2, 16]))
@example(seed=3, n=4, include_boundary=True, phase=0.5, offset=0.0, channel="clean",
         t_start_s=0.0, counts=[1, 3, 40], tx_chunks=16)  # every sample on an edge
@example(seed=0, n=1, include_boundary=True, phase=0.0, offset=0.0, channel="2cm",
         t_start_s=0.0, counts=[1], tx_chunks=16)  # a step after every batch
@example(seed=5, n=128, include_boundary=False, phase=1.25, offset=0.004,
         channel="noisy", t_start_s=97.3e-9, counts=[40, 1], tx_chunks=2)  # runs out
def test_scalar_loop_matches_numpy_block_loop(seed, n, include_boundary, phase, offset,
                                              channel, t_start_s, counts, tx_chunks):
    tx = np.random.default_rng(seed).integers(
        0, 2, tx_chunks * phy.STREAM_CHUNK_BITS, dtype=np.int8)
    args = dict(tx=tx, cfg=ORACLE_CHANNELS[channel], offset=offset, seed=seed,
                counts=counts, n_batches=400, n=n, initial_phase_ui=phase,
                include_boundary=include_boundary, t_start_s=t_start_s)
    want = _driven(NumpyBlockLoop, **args)
    assert _driven(CdrLoop, **args) == want
    if tx_chunks == 2:  # 512 bits cannot feed 400 batches
        assert want[-1] is OutOfRange


# -- oracle: the comprehension-built sample instants the grid replaced ---------

class ComprehensionLoop(CdrLoop):
    """CdrLoop sampling at instants built as its process_batch built them
    before the grid: one comprehension of data instants, then per batch
    its edges (each data instant minus half a UI) before its data."""

    def _instants(self, count):
        first = self.state.batch_count * BATCH_BITS
        t0, ui_s, phi_s, half = self._t0, self.ui_s, self.phi_s, self._half_ui_s
        t_data = [t0 + (k + 0.5) * ui_s + phi_s
                  for k in range(first, first + count * BATCH_BITS)]
        times = []
        for lo in range(0, len(t_data), BATCH_BITS):
            batch = t_data[lo:lo + BATCH_BITS]
            times += [t - half for t in batch]
            times += batch
        return np.array(times).reshape(count, 2, BATCH_BITS)


def _sampled(loop_type, tx, cfg, ui_s, offset, seed, counts, lookahead, n_batches,
             **loop_args):
    """Each call's observations over ``n_batches``, cycling through
    ``counts``, and every instant the stream was asked to decide, by
    its hex; the last entry is the exception type that ended the run."""
    stream = phy.StreamingNrz(cfg, tx_ui_s=tx_ui_for(ui_s, offset), seed=seed)
    stream.push_levels(tx)
    instants = []
    sample_bits = stream.sample_bits

    def recording(times, batch=None):
        instants.append([t.hex() for t in np.asarray(times, dtype=float).tolist()])
        return sample_bits(times, batch)

    stream.sample_bits = recording
    loop = loop_type(stream, ui_s=ui_s, **loop_args)
    seen, done, k = [], 0, 0
    while done < n_batches:
        try:
            rec = loop.process_batch(counts[k % len(counts)], lookahead)
        except OutOfRange:
            return seen + [instants, OutOfRange]
        seen.append(_observed(loop, rec))
        done += len(rec.t_end_s)
        k += 1
    return seen + [instants]


GRID_RUN_BATCHES = 2 * GRID_BATCHES + 76  # past the first fill and two refills


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**16), n=st.sampled_from([1, 4, 32, 128]),
       phase=st.floats(0.0, 2.0, exclude_max=True), offset=st.floats(-0.005, 0.005),
       ui_s=st.floats(0.9 * phy.UI_S, 1.1 * phy.UI_S),
       channel=st.sampled_from(sorted(ORACLE_CHANNELS)),
       t_start_s=st.sampled_from([97.3e-9, 1234.5678e-9]),
       counts=st.permutations([1, 3, 32, 40]), lookahead=st.booleans())
@example(seed=7, n=32, phase=0.3, offset=0.004, ui_s=phy.ui_for_clock(333), channel="noisy",
         t_start_s=97.3e-9, counts=[1, 3, 32, 40], lookahead=True)
def test_grid_instants_equal_the_comprehension_built_ones(seed, n, phase, offset, ui_s,
                                                          channel, t_start_s, counts,
                                                          lookahead):
    # bit for bit: every instant handed to the stream, every record field
    # and every loop observation, across grid refills at mixed counts
    n_tx = int(GRID_RUN_BATCHES * BATCH_BITS * 1.01 + t_start_s / ui_s) + 600
    tx = np.random.default_rng(seed).integers(0, 2, n_tx, dtype=np.uint8).tobytes()
    args = dict(tx=tx, cfg=ORACLE_CHANNELS[channel], ui_s=ui_s, offset=offset, seed=seed,
                counts=counts, lookahead=lookahead, n_batches=GRID_RUN_BATCHES, n=n,
                initial_phase_ui=phase, t_start_s=t_start_s)
    want = _sampled(ComprehensionLoop, **args)
    assert want[-1] is not OutOfRange
    assert _sampled(CdrLoop, **args) == want


# -- metamorphic: volts scaled by a power of two -------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16), k=st.integers(1, 3), length_cm=st.sampled_from([2.0, 5.0]),
       noise_sigma_v=st.sampled_from([0.0, 0.01, 0.05]), rj_sigma_s=st.sampled_from([0.0, 2e-12]),
       offset=st.floats(-0.005, 0.005), phase=st.floats(0.0, 2.0, exclude_max=True))
def test_scaling_the_volts_by_a_power_of_two_decides_the_same_bits(
        seed, k, length_cm, noise_sigma_v, rj_sigma_s, offset, phase):
    # swing and noise times 2^k scale every rendered and interpolated
    # voltage exactly, so only an absolute threshold could move a decision
    tx = np.random.default_rng(seed).integers(0, 2, 4200, dtype=np.int8)
    runs = []
    for scale in (1, 2**k):
        cfg = phy.ChannelConfig(swing=0.44 * scale, trace_length_cm=length_cm,
                                noise_sigma_v=noise_sigma_v * scale, rj_sigma_s=rj_sigma_s)
        res = recover_stream(tx, cfg, n_bits=4000, freq_offset=offset, initial_phase_ui=phase,
                             seed=seed, keep_trace=False)
        runs.append((res.bits.tobytes(), res.bit_indices.tobytes(), res.slips, res.pi_steps,
                     _exact(res.lock_time_s)))
    assert runs[0] == runs[1]
