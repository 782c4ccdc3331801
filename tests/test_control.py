import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from serlink import codec, phy
from serlink.codec import FLIT_BITS, START_BYTE, Disparity, Flit, FlitKind
from serlink.control import (TX_FLITS, RxPipeline, SequenceDetector, TxFramer,
                             TxState, tx_fsm_step)
from serlink.datapath import BitPair
from serlink.errors import InvalidCode

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
            nxt = tx_fsm_step(state, valid, warm, comm)
            assert nxt in TX_EDGES[state], (state, valid, warm, comm)


def test_tx_fsm_spec_transitions():
    assert tx_fsm_step(TxState.IDLE, False, True, False) is TxState.WARM_UP
    assert tx_fsm_step(TxState.WARM_UP, True, True, True) is TxState.START_HEADER
    assert tx_fsm_step(TxState.DATA_COMM, False, True, True) is TxState.STOP_HEADER
    assert tx_fsm_step(TxState.STOP_HEADER, False, False, False) is TxState.IDLE


def test_tx_fsm_outputs():
    # each state sends one flit kind
    assert TX_FLITS == {TxState.IDLE: None,
                        TxState.WARM_UP: FlitKind.TRAINING,
                        TxState.START_HEADER: FlitKind.START,
                        TxState.DATA_COMM: FlitKind.DATA,
                        TxState.STOP_HEADER: FlitKind.STOP}


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
    """The marker kind (or None) each pair of ``bits`` completes."""
    return [detector.push_pair(BitPair(bits[i], bits[i + 1]))
            for i in range(0, len(bits) - 1, 2)]


def test_detector_even_alignment_no_shift():
    det = SequenceDetector()
    bits = [1, 0] * 10 + START_BITS + [0, 0]
    kinds = feed_pairs(det, bits)
    assert [i for i, kind in enumerate(kinds) if kind] == [13]  # its fourth pair
    assert kinds[13] is FlitKind.START
    assert not det.shift
    assert det.in_data_comm


def test_detector_odd_alignment_sets_shift_after_extra_pair():
    det = SequenceDetector()
    bits = [0, 1, 1, 0, 1, 1, 1, 1, 1, 0]  # x1 10 11 11 1x
    kinds = feed_pairs(det, bits)
    assert kinds == [None] * 4 + [FlitKind.START]  # needs the extra check pair
    assert det.shift


def test_detector_all_zeros_never_fires():
    det = SequenceDetector()
    assert feed_pairs(det, [0] * 1000) == [None] * 500
    assert not det.in_data_comm


def test_detector_stop_only_searched_in_data_phase():
    det = SequenceDetector()
    kinds = feed_pairs(det, STOP_BITS + [0, 0])
    assert FlitKind.STOP not in kinds  # not in data phase yet
    feed_pairs(det, [0, 0] + START_BITS)
    assert det.in_data_comm
    kinds = feed_pairs(det, [0, 0] + STOP_BITS + [0, 0])
    assert kinds == [None] * 4 + [FlitKind.STOP, None]
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
    for k in range(len(bits) // 2):
        kind = det.push_pair(BitPair(bits[2 * k], bits[2 * k + 1]))
        assert kind in (None, FlitKind.START, FlitKind.STOP)
        if kind is not None:  # a stop reports the shift of its frame's start
            got.append((k, kind is FlitKind.START, det.shift))
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


def make_pipeline(warm_en=True, comm_en=True):
    """An RxPipeline and the (signal, value) rows it logs."""
    rows = []
    pipe = RxPipeline(lambda signal, value: rows.append((signal, value)))
    pipe.warm_en, pipe.comm_en = warm_en, comm_en
    return pipe, rows


def push_bits(pipe, bits):
    """Push ``bits`` as pairs; the decoded words."""
    got = []
    for i in range(0, len(bits) - 1, 2):
        got.extend(pipe.push_pair(BitPair(bits[i], bits[i + 1])))
    return got


def test_pipeline_recovers_frames_at_both_alignments():
    rng = np.random.default_rng(32)
    words = [int(w) for w in rng.integers(0, 2**32, 64, dtype=np.uint64)]
    for shift in (0, 1):
        pipe, _ = make_pipeline()
        assert push_bits(pipe, wire_for_frame(words, shift=shift)) == words
        assert pipe.detector.shift == bool(shift)
        assert pipe.frames_received == 1


def test_pipeline_ignores_wire_until_armed():
    # clock recovery only; detector not yet enabled
    pipe, rows = make_pipeline(comm_en=False)
    assert push_bits(pipe, wire_for_frame([0xABCD1234])) == []
    assert pipe.frames_received == 0 and rows == []


def test_framing_frames_word_count_invariant():
    # N words in -> exactly one start, N data flits, one stop on the wire
    rng = np.random.default_rng(33)
    for n_words in (1, 2, 7, 33):
        words = [int(w) for w in rng.integers(0, 2**32, n_words, dtype=np.uint64)]
        pipe, _ = make_pipeline()
        assert push_bits(pipe, wire_for_frame(words)) == words
        assert pipe.frames_received == 1


def test_a_marker_valued_lane_inside_a_frame_is_a_decode_failure(monkeypatch):
    # framing is the detector's: the pipeline used to drop a data flit whose
    # lane 0 is the raw start marker and deliver [1, 3] with no error
    encode_flit = codec.encode_flit

    def marked(kind, word=None, rd=Disparity.NEGATIVE):
        flit, rd = encode_flit(kind, word, rd)
        return (Flit((START_BYTE,) + flit.lanes[1:]) if word == 2 else flit), rd
    monkeypatch.setattr(codec, "encode_flit", marked)
    wire = wire_for_frame([1, 2, 3])
    monkeypatch.undo()
    pipe, _ = make_pipeline()
    with pytest.raises(InvalidCode, match="^lane 0: raw start marker inside a frame$"):
        push_bits(pipe, wire)


def test_pipeline_receiving_follows_markers_and_comm_en():
    words = [0x01234567, 0x89ABCDEF]
    wire = wire_for_frame(words)
    pairs = [BitPair(wire[i], wire[i + 1]) for i in range(0, len(wire) - 1, 2)]

    pipe, rows = make_pipeline(warm_en=False)
    seen = []
    for pair in pairs:
        logged = len(rows)
        pipe.push_pair(pair)
        seen += [(signal, pipe.receiving) for signal, _ in rows[logged:]
                 if signal in ("start_detected", "stop_detected")]
    # set at start, cleared at stop
    assert seen == [("start_detected", True), ("stop_detected", False)]
    assert pipe.frames_received == 1

    # comm_en dropping mid-frame clears the flag and stops all capture
    pipe, _ = make_pipeline(warm_en=False)
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


def test_pairs_pushed_while_comm_en_is_off_log_only_the_receiving_drop():
    # one rx_receiving 0 if a frame was being received, else nothing
    for receiving in (False, True):
        pipe, rows = make_pipeline()
        if receiving:
            push_bits(pipe, START_BITS)
            assert pipe.receiving
        rows.clear()
        pipe.comm_en = False
        push_bits(pipe, [1, 1] + STOP_BITS + START_BITS + STOP_BITS)
        assert rows == ([("rx_receiving", 0)] if receiving else [])
        assert not pipe.receiving and pipe.frames_received == 0


def test_stop_after_comm_en_returns_mid_frame_logs_no_receiving_row():
    # the detector kept its frame while comm_en was off, so a stop found
    # after comm_en returns ends it without a receiving change
    pipe, rows = make_pipeline()
    push_bits(pipe, START_BITS)
    pipe.comm_en = False
    push_bits(pipe, [0, 0])
    pipe.comm_en = True
    rows.clear()
    push_bits(pipe, STOP_BITS)
    assert rows == [("stop_detected", 1), ("rx_digital", "warm")]
    assert not pipe.receiving and pipe.frames_received == 1


@settings(max_examples=25, deadline=None)
@given(words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=12),
       shift=st.sampled_from((0, 1)), warm_en=st.booleans())
@example(words=[1, 0xB5B5B5B5, 2], shift=1, warm_en=True)  # the training flit's wire bits
def test_any_framed_word_list_comes_back_in_one_frame(words, shift, warm_en):
    # the stop marker never fires inside coded payload, at either alignment,
    # and the frame's rows are logged once each, in order
    pipe, rows = make_pipeline(warm_en=warm_en)
    assert push_bits(pipe, wire_for_frame(words, shift=shift)) == words
    assert pipe.frames_received == 1
    assert rows == [("start_detected", 1), ("shift", shift), ("rx_digital", "data"),
                    ("rx_receiving", 1), ("stop_detected", 1),
                    ("rx_digital", "warm" if warm_en else "standby"),
                    ("rx_receiving", 0)]
