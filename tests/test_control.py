import itertools

import numpy as np
from hypothesis import example, given, settings, strategies as st

from serlink import phy
from serlink.codec import FLIT_BITS, FlitKind
from serlink.control import (RxPipeline, SequenceDetector, TxFramer, TxState,
                             tx_fsm_step)
from serlink.datapath import BitPair

START_BITS = [1, 1, 0, 1, 1, 1, 1, 1]
STOP_BITS = [1, 0, 1, 1, 1, 1, 1, 1]


# -- TX controller -----------------------------------------------------------

TX_EDGES = {
    TxState.IDLE: {TxState.IDLE, TxState.WARM_UP},
    TxState.WARM_UP: {TxState.WARM_UP, TxState.IDLE, TxState.START_HEADER},
    TxState.START_HEADER: {TxState.DATA_COMM, TxState.STOP_HEADER},
    TxState.DATA_COMM: {TxState.DATA_COMM, TxState.STOP_HEADER},
    TxState.STOP_HEADER: {TxState.IDLE},
}


def test_tx_fsm_edge_set_is_exhaustive():
    for state in TxState:
        for valid, warm, comm in itertools.product((False, True), repeat=3):
            action = tx_fsm_step(state, valid, warm, comm)
            assert action.state in TX_EDGES[state], (state, valid, warm, comm)


def test_tx_fsm_spec_transitions():
    assert tx_fsm_step(TxState.IDLE, False, True, False).state is TxState.WARM_UP
    a = tx_fsm_step(TxState.WARM_UP, True, True, True)
    assert a.state is TxState.START_HEADER and a.flit_select is FlitKind.START
    a = tx_fsm_step(TxState.DATA_COMM, False, True, True)
    assert a.state is TxState.STOP_HEADER and a.flit_select is FlitKind.STOP
    assert tx_fsm_step(TxState.STOP_HEADER, False, False, False).state is TxState.IDLE


def test_tx_fsm_outputs():
    idle = tx_fsm_step(TxState.IDLE, False, False, False)
    assert idle.flit_select is None and not idle.pop_word
    warm = tx_fsm_step(TxState.IDLE, False, True, False)
    assert warm.flit_select is FlitKind.TRAINING and not warm.pop_word
    data = tx_fsm_step(TxState.START_HEADER, True, True, True)
    assert data.flit_select is FlitKind.DATA and data.pop_word


def collect_frame_flits(words):
    """Wire flit kinds emitted for one framed transfer."""
    queue = list(words)
    framer = TxFramer(lambda: queue.pop(0), lambda: len(queue) > 0, [].extend)
    framer.warm_en = True
    framer.comm_en = True
    kinds = []
    prev = None
    for _ in range(40 + (len(words) + 4) * 20):
        framer.step_cycle()
        if framer.state is not prev:
            kinds.append(framer.state)
            prev = framer.state
    return kinds


@settings(max_examples=30, deadline=None)
@given(idle_before=st.integers(1, 7), n_words=st.integers(1, 4),
       idle_after=st.integers(1, 7))
def test_framer_wires_two_codes_per_cycle_in_step_order(idle_before, n_words,
                                                       idle_after):
    # the framer puts each idle cycle's pair on the wire as well as each
    # flit's bits, so at a flit boundary N cycles have put 2N codes there
    queue = list(range(n_words))
    codes, stepped = [], []
    framer = TxFramer(lambda: queue.pop(0), lambda: len(queue) > 0, codes.extend)

    def step(cycles):
        for _ in range(cycles):
            pair = framer.step_cycle()
            stepped.append((phy.IDLE, phy.IDLE) if pair is None else tuple(pair))

    step(idle_before)
    framer.warm_en = framer.comm_en = True
    while framer.state is not TxState.STOP_HEADER:
        step(FLIT_BITS // 2)  # one flit, loaded by its first cycle
    framer.warm_en = framer.comm_en = False
    step(idle_after)
    assert len(codes) == 2 * len(stepped)
    assert codes == [code for pair in stepped for code in pair]
    assert codes[-2 * idle_after:] == [phy.IDLE] * 2 * idle_after


def test_framer_emits_exactly_one_start_and_stop_per_frame():
    kinds = collect_frame_flits([1, 2, 3])
    assert kinds == [TxState.WARM_UP, TxState.START_HEADER, TxState.DATA_COMM,
                     TxState.STOP_HEADER, TxState.IDLE, TxState.WARM_UP]


# -- sequence detector -------------------------------------------------------

def feed_pairs(detector, bits):
    events = []
    for i in range(0, len(bits) - 1, 2):
        ev = detector.push_pair(BitPair(bits[i], bits[i + 1]))
        events.append(ev)
    return events


def test_detector_even_alignment_no_shift():
    det = SequenceDetector()
    bits = [1, 0] * 10 + START_BITS + [0, 0]
    events = feed_pairs(det, bits)
    fired = [i for i, ev in enumerate(events) if ev.start_detected]
    assert fired == [13]  # pattern completes on its fourth pair
    assert not events[13].shift
    assert det.in_data_comm


def test_detector_odd_alignment_sets_shift_after_extra_pair():
    det = SequenceDetector()
    bits = [0, 1, 1, 0, 1, 1, 1, 1, 1, 0]  # x1 10 11 11 1x
    events = feed_pairs(det, bits)
    fired = [i for i, ev in enumerate(events) if ev.start_detected]
    assert fired == [4]  # needs the extra check pair
    assert events[4].shift


def test_detector_all_zeros_never_fires():
    det = SequenceDetector()
    events = feed_pairs(det, [0] * 1000)
    assert not any(ev.start_detected for ev in events)
    assert not det.in_data_comm


def test_detector_stop_only_searched_in_data_phase():
    det = SequenceDetector()
    stop_bits = [1, 0, 1, 1, 1, 1, 1, 1]
    events = feed_pairs(det, stop_bits + [0, 0])
    assert not any(ev.stop_detected for ev in events)  # not in data phase yet
    feed_pairs(det, [0, 0] + START_BITS)
    assert det.in_data_comm
    events = feed_pairs(det, [0, 0] + stop_bits + [0, 0])
    assert any(ev.stop_detected for ev in events)
    assert not det.in_data_comm


def _find_oracle(bits):
    """Expected (pair, start?, shift) events: the first START occurrence,
    then the first STOP lying wholly after it, then START again, ..."""
    text = "".join(map(str, bits))
    markers = ("".join(map(str, START_BITS)), "".join(map(str, STOP_BITS)))
    events, pos, in_data, shift = [], 0, False, False
    while True:
        i = text.find(markers[in_data], pos)
        if i < 0:
            return events
        if not in_data:
            shift = i % 2 == 1  # started on a pair's second bit
        events.append(((i + 7) // 2, not in_data, shift))
        pos, in_data = i + 8, not in_data


@settings(max_examples=300, deadline=None)
@given(noise=st.lists(st.integers(0, 1), max_size=120),
       splices=st.lists(st.tuples(st.sampled_from((START_BITS, STOP_BITS)),
                                  st.integers(0, 10**6)), max_size=6))
def test_detector_matches_find_oracle(noise, splices):
    bits = list(noise)
    for marker, at in splices:  # splice markers in at either parity
        p = at % (len(bits) + 1)
        bits[p:p] = marker
    bits += [0] * (len(bits) % 2)
    det = SequenceDetector()
    got = []
    for k, ev in enumerate(feed_pairs(det, bits)):
        assert not (ev.start_detected and ev.stop_detected)
        if ev.start_detected or ev.stop_detected:
            got.append((k, ev.start_detected, ev.shift))
    want = _find_oracle(bits)
    assert got == want
    assert det.in_data_comm == (len(want) % 2 == 1)


# -- RX pipeline -------------------------------------------------------------

def wire_for_frame(words, *, warmup_pairs=20, shift=0):
    queue = list(words)
    framer = TxFramer(lambda: queue.pop(0), lambda: len(queue) > 0, [].extend)
    framer.warm_en = True
    framer.comm_en = True
    bits = []
    for _ in range(warmup_pairs * 2 + (len(words) + 4) * 20 + 60):
        pair = framer.step_cycle()
        bits.extend(pair if pair else (0, 0))
    return [0] * shift + bits


def test_pipeline_recovers_frames_at_both_alignments():
    rng = np.random.default_rng(32)
    words = [int(w) for w in rng.integers(0, 2**32, 64, dtype=np.uint64)]
    for shift in (0, 1):
        pipe = RxPipeline()
        pipe.warm_en = True
        pipe.comm_en = True
        wire = wire_for_frame(words, shift=shift)
        got = []
        for i in range(0, len(wire) - 1, 2):
            got.extend(pipe.push_pair(BitPair(wire[i], wire[i + 1])))
        assert got == words
        assert pipe.detector.shift == bool(shift)
        assert pipe.frames_received == 1


def test_pipeline_ignores_wire_until_armed():
    pipe = RxPipeline()
    pipe.warm_en = True  # clock recovery only; detector not yet enabled
    wire = wire_for_frame([0xABCD1234])
    got = []
    for i in range(0, len(wire) - 1, 2):
        got.extend(pipe.push_pair(BitPair(wire[i], wire[i + 1])))
    assert got == [] and pipe.frames_received == 0


def test_framing_frames_word_count_invariant():
    # N words in -> exactly one start, N data flits, one stop on the wire
    rng = np.random.default_rng(33)
    for n_words in (1, 2, 7, 33):
        words = [int(w) for w in rng.integers(0, 2**32, n_words, dtype=np.uint64)]
        pipe = RxPipeline()
        pipe.warm_en = pipe.comm_en = True
        wire = wire_for_frame(words)
        got = []
        for i in range(0, len(wire) - 1, 2):
            got.extend(pipe.push_pair(BitPair(wire[i], wire[i + 1])))
        assert got == words and pipe.frames_received == 1


def test_pipeline_receiving_follows_markers_and_comm_en():
    words = [0x01234567, 0x89ABCDEF]
    wire = wire_for_frame(words)
    pairs = [BitPair(wire[i], wire[i + 1]) for i in range(0, len(wire) - 1, 2)]

    pipe = RxPipeline()
    pipe.comm_en = True
    seen = []
    for pair in pairs:
        pipe.push_pair(pair)
        events = pipe.last_events
        if events.start_detected or events.stop_detected:
            seen.append((events.start_detected, pipe.receiving))
    assert seen == [(True, True), (False, False)]  # set at start, cleared at stop
    assert pipe.frames_received == 1

    # comm_en dropping mid-frame clears the flag and stops all capture
    pipe = RxPipeline()
    pipe.comm_en = True
    k = 0
    while not pipe.receiving:
        pipe.push_pair(pairs[k])
        k += 1
    pipe.comm_en = False
    got = []
    for pair in pairs[k:]:
        got.extend(pipe.push_pair(pair))
        assert not pipe.receiving
    assert got == [] and pipe.frames_received == 0


def test_last_events_clear_while_comm_en_is_off():
    pipe = RxPipeline()
    pipe.comm_en = True
    for i in range(0, 8, 2):
        pipe.push_pair(BitPair(START_BITS[i], START_BITS[i + 1]))
    assert pipe.last_events.start_detected
    pipe.comm_en = False
    pipe.push_pair(BitPair(1, 1))
    assert not pipe.last_events.start_detected and not pipe.last_events.stop_detected


@settings(max_examples=25, deadline=None)
@given(words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
       shift=st.sampled_from((0, 1)))
@example(words=[1, 0xB5B5B5B5, 2], shift=1)  # the training flit's wire bits
def test_any_framed_word_list_comes_back_in_one_frame(words, shift):
    # the stop marker never fires inside coded payload, at either alignment
    pipe = RxPipeline()
    pipe.warm_en = pipe.comm_en = True
    wire = wire_for_frame(words, shift=shift)
    got = []
    for i in range(0, len(wire) - 1, 2):
        got.extend(pipe.push_pair(BitPair(wire[i], wire[i + 1])))
    assert got == words and pipe.frames_received == 1
