"""Link controllers: TX framing FSM, RX sequence detector, RX pipeline.

The TX controller walks Idle -> Warm-up -> Start-header -> Data-comm ->
Stop-header; each state sends one flit kind, loaded once the serializer
reports the current flit done.  The RX sequence detector keeps the last
eight raw comparator bits as one byte, compares it with the fixed start
marker, then the stop marker, at either bit alignment, and returns the
kind of marker a pair completes.  The RX pipeline watches the wire only
while communication is enabled and is receiving from a start marker to
the following stop marker; only then do the deserializer and decoders
run.  It logs its own framing rows, as the framer wires its own codes.
"""

from __future__ import annotations

import enum

from . import codec, datapath, phy
from .codec import Disparity, FlitKind


class TxState(enum.Enum):
    IDLE = "idle"
    WARM_UP = "warm_up"
    START_HEADER = "start_header"
    DATA_COMM = "data_comm"
    STOP_HEADER = "stop_header"


def tx_fsm_step(state, valid, warm_en, comm_en):
    """One TX controller decision at a flit boundary: the next state."""
    if state is TxState.IDLE:
        return TxState.WARM_UP if warm_en else TxState.IDLE
    if state is TxState.WARM_UP:
        if not warm_en:
            return TxState.IDLE
        return TxState.START_HEADER if comm_en and valid else TxState.WARM_UP
    if state is TxState.STOP_HEADER:
        return TxState.IDLE
    # START_HEADER or DATA_COMM
    return TxState.DATA_COMM if valid else TxState.STOP_HEADER


# the flit each state sends; a data flit pops one word from the TX FIFO
TX_FLITS = {
    TxState.IDLE: None,
    TxState.WARM_UP: FlitKind.TRAINING,
    TxState.START_HEADER: FlitKind.START,
    TxState.DATA_COMM: FlitKind.DATA,
    TxState.STOP_HEADER: FlitKind.STOP,
}
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
        self.state = tx_fsm_step(self.state, self._valid_fn(), self.warm_en, self.comm_en)
        kind = TX_FLITS[self.state]
        if kind is None:
            return False
        if kind is FlitKind.START:
            self.rd = Disparity.NEGATIVE  # disparity chain restarts per frame
        word = self._word_source() if kind is FlitKind.DATA else None
        flit, self.rd = codec.encode_flit(kind, word, self.rd)
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


class SequenceDetector:
    """Watches raw bit pairs for the start marker, then the stop marker.

    The last eight wire bits are kept as one byte, the oldest bit lowest
    (the markers' wire order).  A marker is found when that byte equals
    START_BYTE, or STOP_BYTE while ``in_data_comm``, and all eight bits
    arrived after the search last switched marker.  A marker ending on
    the second bit of a pair was even-aligned; odd alignment completes
    one bit into the following pair (the extra check-4 step) and raises
    the shift flag, kept until the next start.  Bits are Python ints.
    """

    def __init__(self):
        self.in_data_comm = False
        self.shift = False
        self._window = 0  # last eight wire bits, oldest in bit 0
        self._fresh = 0   # bits seen since the search last switched marker

    def push_pair(self, pair):
        """The FlitKind (START or STOP) of the marker this pair completes,
        or None."""
        even, odd = pair
        fresh = self._fresh
        first = (self._window >> 1) | (even << 7)  # the window after each bit
        self._window = second = (first >> 1) | (odd << 7)
        marker = codec.STOP_BYTE if self.in_data_comm else codec.START_BYTE
        # a marker needs eight fresh bits, so after one the pair's other
        # bit cannot complete the next
        if fresh >= 7 and first == marker:
            self._fresh, odd_aligned = 1, True
        elif fresh >= 6 and second == marker:
            self._fresh, odd_aligned = 0, False
        else:
            self._fresh = fresh + 2
            return None
        if self.in_data_comm:
            self.in_data_comm = False
            return FlitKind.STOP
        self.in_data_comm = True
        self.shift = odd_aligned  # ended on a pair's first bit: started odd
        return FlitKind.START


# Pairs between the end of the start marker and the first payload pair:
# one pad pair plus fifteen filler pairs, identical at both alignments.
START_SKIP_PAIRS = 16


class RxPipeline:
    """Realigner, deserializer and flit decoder behind the sequence detector.

    ``push_pair`` consumes one raw (even, odd) comparator pair and returns
    a tuple of decoded 32-bit words (usually empty).  ``warm_en``/``comm_en``
    are the RX enable registers as seen past the clock-domain crossing;
    only ``comm_en`` gates the wire, which is ignored while it is off.
    ``receiving`` is set at a start marker and cleared at the stop marker
    or at the first pair after ``comm_en`` drops.  ``log(signal, value)``
    takes the framing rows: ``start_detected``, ``shift`` and
    ``rx_digital`` at a start marker, ``stop_detected`` and ``rx_digital``
    at a stop marker, and ``rx_receiving`` whenever that flag changes.
    Decode failures raise with lane index.
    """

    def __init__(self, log):
        self._log = log
        self.detector = SequenceDetector()
        self._realigner = datapath.ShiftRealigner()
        self._deserializer = datapath.Deserializer()
        self.rd = Disparity.NEGATIVE
        self.warm_en = False
        self.comm_en = False
        self.receiving = False
        self._skip = 0
        self.frames_received = 0

    def _receive(self, receiving):
        if receiving != self.receiving:
            self.receiving = receiving
            self._log("rx_receiving", int(receiving))

    def push_pair(self, pair):
        if not self.comm_en:
            self._receive(False)
            return ()
        marker = self.detector.push_pair(pair)
        if marker is not None:
            log = self._log
            self._deserializer.reset()
            if marker is FlitKind.START:
                self._realigner.shift = shift = self.detector.shift
                self.rd = Disparity.NEGATIVE
                self._skip = START_SKIP_PAIRS
                log("start_detected", 1)
                log("shift", int(shift))
                log("rx_digital", "data")
            else:
                self.frames_received += 1
                log("stop_detected", 1)
                log("rx_digital", "warm" if self.warm_en else "standby")
            self._receive(marker is FlitKind.START)
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
        word, self.rd = codec.decode_flit(word40, self.rd)
        return (word,)
