"""Link controllers: TX framing FSM, RX sequence detector, RX pipeline.

The TX controller walks Idle -> Warm-up -> Start-header -> Data-comm ->
Stop-header and selects the flit the serializer sends next, once the
serializer reports the current flit done.  The RX sequence detector
keeps the last eight raw comparator bits as one byte and compares it
with the fixed start marker, then with the stop marker, at either bit
alignment, and reports the capture shift.  The RX pipeline watches the
wire only while communication is enabled and is receiving from a start
marker to the following stop marker; only then do the deserializer and
decoders run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import codec, datapath, phy
from .codec import Disparity, FlitKind


class TxState(enum.Enum):
    IDLE = "idle"
    WARM_UP = "warm_up"
    START_HEADER = "start_header"
    DATA_COMM = "data_comm"
    STOP_HEADER = "stop_header"


@dataclass(frozen=True)
class TxAction:
    state: TxState
    flit_select: FlitKind | None  # flit to load for the next period
    pop_word: bool  # consume one word from the TX FIFO


def tx_fsm_step(state, valid, warm_en, comm_en):
    """One TX controller decision at a flit boundary."""
    if state is TxState.IDLE:
        nxt = TxState.WARM_UP if warm_en else TxState.IDLE
    elif state is TxState.WARM_UP:
        if not warm_en:
            nxt = TxState.IDLE
        elif comm_en and valid:
            nxt = TxState.START_HEADER
        else:
            nxt = TxState.WARM_UP
    elif state is TxState.START_HEADER:
        nxt = TxState.DATA_COMM if valid else TxState.STOP_HEADER
    elif state is TxState.DATA_COMM:
        nxt = TxState.DATA_COMM if valid else TxState.STOP_HEADER
    else:  # STOP_HEADER
        nxt = TxState.IDLE
    return _TX_ACTIONS[nxt]


# the action that enters each state: the flit it selects, and whether
# that flit pops a word
_TX_ACTIONS = {state: TxAction(state, flit, flit is FlitKind.DATA) for state, flit in (
    (TxState.IDLE, None),
    (TxState.WARM_UP, FlitKind.TRAINING),
    (TxState.START_HEADER, FlitKind.START),
    (TxState.DATA_COMM, FlitKind.DATA),
    (TxState.STOP_HEADER, FlitKind.STOP),
)}
_IDLE_PAIR = (phy.IDLE, phy.IDLE)  # the driver's codes for one idle cycle


class TxFramer:
    """Drives the serializer from the controller FSM and a word source.

    ``step_cycle`` advances one fast-clock cycle and returns the emitted
    BitPair, or None while the line is idle.  ``word_source`` is called
    at each data-flit boundary and must return the next 32-bit word.
    ``valid_fn`` reflects the FIFO handshake (data available).
    ``wire`` takes every driver code put on the line, in step order: each
    flit's 40 bits, in send order, when the flit is loaded (before the
    first ``step_cycle`` that returns one of its pairs), and idle pairs.
    """

    def __init__(self, word_source, valid_fn, wire):
        self._word_source = word_source
        self._valid_fn = valid_fn
        self._wire = wire
        self.state = TxState.IDLE
        self.warm_en = False
        self.comm_en = False
        self.rd = Disparity.NEGATIVE
        self._serializer = datapath.Serializer()

    def _load_next_flit(self):
        action = tx_fsm_step(self.state, self._valid_fn(), self.warm_en, self.comm_en)
        self.state = action.state
        if action.flit_select is None:
            return False
        if action.state is TxState.START_HEADER:
            self.rd = Disparity.NEGATIVE  # disparity chain restarts per frame
        word = self._word_source() if action.pop_word else None
        flit, self.rd = codec.encode_flit(action.flit_select, word, self.rd)
        bits = flit.bits()
        self._serializer.load(bits)
        self._wire(bits)
        return True

    def step_cycle(self):
        """Advance one fast-clock cycle; returns a BitPair or None (idle)."""
        serializer = self._serializer
        if serializer.flit_done and not self._load_next_flit():
            self._wire(_IDLE_PAIR)
            return None
        return serializer.step()[0]


@dataclass(frozen=True)
class DetectorEvents:
    start_detected: bool = False
    stop_detected: bool = False
    shift: bool = False


_NO_EVENTS = DetectorEvents()  # shared by every pair that ends no marker


class SequenceDetector:
    """Watches raw bit pairs for the start marker, then the stop marker.

    The last eight wire bits are kept as one byte, the oldest bit lowest
    (the markers' wire order).  A marker is found when that byte equals
    START_BYTE, or STOP_BYTE while ``in_data_comm``, and all eight bits
    arrived after the search last switched marker.  A marker ending on
    the second bit of a pair was even-aligned; odd alignment completes
    one bit into the following pair (the extra check-4 step) and raises
    the shift flag.  Bits are Python ints.
    """

    def __init__(self):
        self.in_data_comm = False
        self.shift = False
        self._window = 0  # last eight wire bits, oldest in bit 0
        self._fresh = 0   # bits seen since the search last switched marker

    def push_pair(self, pair) -> DetectorEvents:
        events = _NO_EVENTS
        window, fresh = self._window, self._fresh
        # after a marker the next one needs eight fresh bits, so the
        # marker sought cannot change within a pair
        marker = codec.STOP_BYTE if self.in_data_comm else codec.START_BYTE
        for k, bit in enumerate(pair):
            window = (window >> 1) | (bit << 7)
            fresh += 1
            if fresh < 8 or window != marker:
                continue
            fresh = 0
            if self.in_data_comm:
                self.in_data_comm = False
                events = DetectorEvents(stop_detected=True, shift=self.shift)
            else:
                self.in_data_comm = True
                self.shift = k == 0  # ended on a pair's first bit: started odd
                events = DetectorEvents(start_detected=True, shift=self.shift)
        self._window, self._fresh = window, fresh
        return events


# Pairs between the end of the start marker and the first payload pair:
# one pad pair plus fifteen filler pairs, identical at both alignments.
START_SKIP_PAIRS = 16


class RxPipeline:
    """Realigner, deserializer and flit decoder behind the detector events.

    ``push_pair`` consumes one raw (even, odd) comparator pair and returns
    a tuple of decoded 32-bit words (usually empty).  ``warm_en``/``comm_en``
    are the RX enable registers as seen past the clock-domain crossing;
    only ``comm_en`` gates the wire, which is ignored while it is off.
    ``receiving`` is set at a start marker and cleared at the stop marker
    or at the first pair after ``comm_en`` drops.  Framing events are
    exposed on ``detector`` / ``last_events``; decode failures raise with
    lane index.
    """

    def __init__(self):
        self.detector = SequenceDetector()
        self._realigner = datapath.ShiftRealigner()
        self._deserializer = datapath.Deserializer()
        self.rd = Disparity.NEGATIVE
        self.warm_en = False
        self.comm_en = False
        self.receiving = False
        self._skip = 0
        self.last_events = _NO_EVENTS
        self.frames_received = 0

    def push_pair(self, pair):
        if not self.comm_en:
            self.receiving = False
            self.last_events = _NO_EVENTS
            return ()
        events = self.detector.push_pair(pair)
        self.last_events = events
        if events is not _NO_EVENTS:
            self._deserializer.reset()
            self.receiving = events.start_detected
            if events.start_detected:
                self._realigner.shift = events.shift
                self.rd = Disparity.NEGATIVE
                self._skip = START_SKIP_PAIRS
            else:
                self.frames_received += 1
            return ()
        aligned = self._realigner.push(pair)
        if not self.receiving:
            return ()
        if self._skip:
            self._skip -= 1
            return ()
        word40 = self._deserializer.push(aligned)
        if word40 is None:
            return ()
        flit = codec.Flit.from_int(word40)
        (kind, word), self.rd = codec.decode_flit(flit, self.rd)
        return (word,) if kind is FlitKind.DATA else ()
