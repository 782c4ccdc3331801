"""Cycle-level 40:1 DDR serializer, 2:40 deserializer and bit-shift realigner.

The serializer emits two bits per fast-clock cycle (one per edge); a
counter walks the five 8-bit groups of the loaded 40-bit flit, so a flit
takes 20 cycles.  The deserializer mirrors this.  The realigner models
the receive timing synchronizer that swaps the even/odd pairing by one
bit when the framing was detected at odd alignment.
"""

from typing import NamedTuple

from .codec import FLIT_BITS
from .errors import Underflow

GROUP_BITS = 8
GROUPS = FLIT_BITS // GROUP_BITS  # counter wraps 0..4


class BitPair(NamedTuple):
    even: int  # rising-edge sample, transmitted first
    odd: int   # falling-edge sample


# builds a BitPair from an (even, odd) tuple, as the namedtuple's own
# __new__ does, without that Python-level call per pair
_tuple_new = tuple.__new__


class Serializer:
    """Serializes one loaded 40-bit flit, two bits per step, bit 0 first."""

    def __init__(self):
        self._bits = None
        self._pos = 0

    @property
    def flit_done(self):
        """Whether a new flit may be loaded: none yet, or all 40 bits sent."""
        return self._bits is None or self._pos == FLIT_BITS

    def load(self, bits):
        """Load the next flit (a 40-entry bit list) once the current one is done."""
        if len(bits) != FLIT_BITS:
            raise ValueError(f"flit must be {FLIT_BITS} bits")
        if not self.flit_done:
            raise ValueError("a flit is still being sent")
        self._bits = list(bits)
        self._pos = 0

    def step(self):
        """Emit one DDR pair; returns (BitPair, counter_before_emit).

        The group counter, visible to the TX controller, is bits_sent//8
        mod 5.
        """
        bits, pos = self._bits, self._pos
        if bits is None or pos == FLIT_BITS:  # as flit_done
            raise Underflow("serializer stepped with no flit loaded")
        self._pos = pos + 2
        return _tuple_new(BitPair, (bits[pos], bits[pos + 1])), (pos // GROUP_BITS) % GROUPS


class Deserializer:
    """Rebuilds 40-bit words from DDR pairs; emits one word per 20 pairs."""

    def __init__(self):
        self._word = 0  # the bits so far, bit k at weight 2**k
        self._n = 0     # how many

    def reset(self):
        self._word = self._n = 0

    def push(self, pair):
        """Consume one pair; returns the completed 40-bit word or None."""
        even, odd = pair
        n = self._n
        word = self._word + (even << n) + (odd << n + 1)  # sum(b << k) of the bits so far
        if n == FLIT_BITS - 2:
            self._word = self._n = 0
            return word
        self._word, self._n = word, n + 2
        return None


class ShiftRealigner:
    """Corrects a one-bit even/odd capture shift.

    With ``shift`` set, each output pair is (previous odd bit, current
    even bit), delaying the stream by one bit; the first output reuses
    the last bit seen before the shift was enabled (0 at reset).
    """

    def __init__(self, shift=False):
        self.shift = shift
        self._last_odd = 0

    def push(self, pair):
        """Consume one (even, odd) pair; returns the realigned BitPair."""
        even, odd = pair
        out = _tuple_new(BitPair, (self._last_odd, even) if self.shift else (even, odd))
        self._last_odd = odd
        return out
