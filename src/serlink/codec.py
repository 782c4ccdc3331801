"""8b/10b line coding and 40-bit flit framing.

Classic IBM 8b/10b coding: each byte is split into a 5-bit and a
3-bit field, mapped to 6-bit and 4-bit sub-blocks, with alternate
(complemented) sub-blocks selected by the running disparity so the
serial stream stays DC-balanced.

A flit is four byte lanes encoded into 40 wire bits.  One running
disparity is threaded through the four lanes (lane 0 first), so the
serialized stream behaves exactly like a single 8b/10b stream.  Its
running digital sum (ones minus zeros, counted from the stream's start)
stays in [-2, 4] from a NEGATIVE start and in [-4, 2] from a POSITIVE
one: 8b/10b's |RDS| <= 3, seen from a start RDS of -1 or +1.

Bit order: codes are stored as integers whose bit ``k`` is the ``k``-th
bit on the wire (sub-block ``abcdei`` first, then ``fghj``, LSB-first).
With this order, the start/stop frame headers carry the raw marker byte
as their first 8 wire bits.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

from .errors import DisparityError, InvalidCode, UnsupportedControlSymbol


class Disparity(enum.Enum):
    """Running disparity: cumulative ones-minus-zeros sign of the stream."""

    NEGATIVE = -1
    POSITIVE = 1

    def flipped(self) -> "Disparity":
        return Disparity(-self.value)


def D(x, y):
    """Byte value of data symbol Dx.y."""
    return (y << 5) | x


K = D  # control symbol Kx.y has the byte value of Dx.y


@dataclass(frozen=True)
class Symbol:
    """One 8-bit symbol plus its data/control class."""

    payload: int
    is_control: bool = False


# 5b/6b sub-blocks, negative-disparity column, wire order (first bit first).
_FIVE_SIX = [
    "100111",  # D.00
    "011101",  # D.01
    "101101",  # D.02
    "110001",  # D.03
    "110101",  # D.04
    "101001",  # D.05
    "011001",  # D.06
    "111000",  # D.07
    "111001",  # D.08
    "100101",  # D.09
    "010101",  # D.10
    "110100",  # D.11
    "001101",  # D.12
    "101100",  # D.13
    "011100",  # D.14
    "010111",  # D.15
    "011011",  # D.16
    "100011",  # D.17
    "010011",  # D.18
    "110010",  # D.19
    "001011",  # D.20
    "101010",  # D.21
    "011010",  # D.22
    "111010",  # D.23
    "110011",  # D.24
    "100110",  # D.25
    "010110",  # D.26
    "110110",  # D.27
    "001110",  # D.28
    "101110",  # D.29
    "011110",  # D.30
    "101011",  # D.31
]

# 3b/4b sub-blocks, negative-disparity column.
_THREE_FOUR = [
    "1011",  # D.x.0
    "1001",  # D.x.1
    "0101",  # D.x.2
    "1100",  # D.x.3
    "1101",  # D.x.4
    "1010",  # D.x.5
    "0110",  # D.x.6
    "1110",  # D.x.7 (primary)
]

# Alternate D.x.7 sub-block, used to break runs of five; selection rule below.
_ALT7_NEG = "0111"
_ALT7_POS = "1000"
_ALT7_AT_NEG = {17, 18, 20}
_ALT7_AT_POS = {11, 13, 14}

# Control characters, negative-disparity column; the positive column is the
# bitwise complement for every control code.
_K_CODES = {
    K(28, 0): "0011110100",
    K(28, 1): "0011111001",
    K(28, 2): "0011110101",
    K(28, 3): "0011110011",
    K(28, 4): "0011110010",
    K(28, 5): "0011111010",
    K(28, 6): "0011110110",
    K(28, 7): "0011111000",
    K(23, 7): "1110101000",
    K(27, 7): "1101101000",
    K(29, 7): "1011101000",
    K(30, 7): "0111101000",
}

SUPPORTED_CONTROL = frozenset(_K_CODES)


def _bits(s):
    return tuple(int(c) for c in s)


def _disp(bits):
    return 2 * sum(bits) - len(bits)


def _comp(bits):
    return tuple(1 - b for b in bits)


def _to_int(bits):
    return sum(b << k for k, b in enumerate(bits))


def _encode_data(byte, rd):
    x = byte & 0x1F
    y = byte >> 5

    six = _bits(_FIVE_SIX[x])
    flip6 = _disp(six) != 0 or x == 7
    c6 = six if rd is Disparity.NEGATIVE or not flip6 else _comp(six)
    rd_mid = rd.flipped() if _disp(c6) != 0 else rd

    if y == 7 and (
        (rd_mid is Disparity.NEGATIVE and x in _ALT7_AT_NEG)
        or (rd_mid is Disparity.POSITIVE and x in _ALT7_AT_POS)
    ):
        c4 = _bits(_ALT7_NEG if rd_mid is Disparity.NEGATIVE else _ALT7_POS)
    else:
        four = _bits(_THREE_FOUR[y])
        flip4 = _disp(four) != 0 or y == 3
        c4 = four if rd_mid is Disparity.NEGATIVE or not flip4 else _comp(four)
    rd_out = rd_mid.flipped() if _disp(c4) != 0 else rd_mid

    return _to_int(c6 + c4), rd_out


def _encode_control(byte, rd):
    neg = _bits(_K_CODES[byte])
    cell = neg if rd is Disparity.NEGATIVE else _comp(neg)
    rd_out = rd.flipped() if _disp(cell) != 0 else rd
    return _to_int(cell), rd_out


def _build_tables():
    encode = {}
    decode = {}
    for rd in Disparity:
        for byte in range(256):
            code, rd_out = _encode_data(byte, rd)
            encode[(byte, False, rd)] = (code, rd_out)
            decode[(code, rd)] = (Symbol(byte), rd_out)
        for byte in SUPPORTED_CONTROL:
            code, rd_out = _encode_control(byte, rd)
            encode[(byte, True, rd)] = (code, rd_out)
            if (code, rd) in decode:
                raise AssertionError("control code collides with data code")
            decode[(code, rd)] = (Symbol(byte, is_control=True), rd_out)
    return encode, decode


# Every legal input of each direction: a miss in these is the only rejection.
_ENCODE, _DECODE = _build_tables()


def _check_rd(rd):
    if not isinstance(rd, Disparity):
        raise ValueError(f"rd must be a Disparity, got {rd!r}")


def encode_symbol(sym: Symbol, rd: Disparity):
    """Encode one symbol, returning (10-bit code, updated disparity)."""
    _check_rd(rd)
    found = _ENCODE.get((sym.payload, sym.is_control, rd))
    if found is not None:
        return found
    if sym.is_control:
        raise UnsupportedControlSymbol(f"0x{sym.payload:02x} is not a supported K character")
    raise ValueError(f"data byte must be in [0, 255], got {sym.payload!r}")


def decode_symbol(code: int, rd: Disparity):
    """Decode one 10-bit code, returning (Symbol, updated disparity)."""
    _check_rd(rd)
    found = _DECODE.get((code, rd))
    if found is not None:
        return found
    if (code, rd.flipped()) in _DECODE:
        raise DisparityError(f"0b{code:010b} is not legal at {rd.name} disparity")
    raise InvalidCode(f"0b{code:010b} is not an 8b/10b code")


# Frame markers.  The start/stop headers carry these bytes raw (not 8b/10b
# encoded) as their first 8 wire bits.  They are fixed: the stop marker's
# six-bit run of ones is what encoded payload (runs of at most five) can
# never produce, so the in-frame stop search cannot false-trigger.
START_BYTE = K(27, 7)  # 0xfb -> wire bits 11011111
STOP_BYTE = K(29, 7)   # 0xfd -> wire bits 10111111

# Alternating filler code: the 8b/10b encoding of D21.5, identical at both
# disparities.  Training flits and header filler lanes use it so the clock
# recovery sees a transition on every bit.
FILLER_CODE = encode_symbol(Symbol(D(21, 5)), Disparity.NEGATIVE)[0]

LANES = 4
CODE_BITS = 10
FLIT_BITS = LANES * CODE_BITS


class FlitKind(enum.Enum):
    DATA = "data"
    START = "start"
    STOP = "stop"
    TRAINING = "training"


# Row ``code`` is that 10-bit code's wire bits, bit 0 first.
_CODE_BITS = [tuple((code >> k) & 1 for k in range(CODE_BITS))
              for code in range(1 << CODE_BITS)]


@dataclass(frozen=True)
class Flit:
    """One 40-bit frame to send: four 10-bit lane codes, lane 0 sent first.

    ``lanes`` is a tuple of four integers in [0, 0x3FF], else a ValueError.
    """

    lanes: tuple

    def __post_init__(self):
        # every flit built runs this, so one unpack and one OR, no loop:
        # the OR of four ints has no bit above bit 9 only if each is in range
        try:
            a, b, c, d = self.lanes
            bad = (a | b | c | d) >> CODE_BITS
        except (TypeError, ValueError):
            bad = True
        if bad or type(self.lanes) is not tuple:
            raise ValueError(f"lanes must be {LANES} integers in [0, 0x3FF], "
                             f"as a tuple, got {self.lanes!r}")

    def bits(self):
        a, b, c, d = self.lanes
        rows = _CODE_BITS
        return [*rows[a], *rows[b], *rows[c], *rows[d]]

    def to_int(self):
        value = 0
        for i, code in enumerate(self.lanes):
            value |= code << (CODE_BITS * i)
        return value


# The lanes of each flit kind that carries no word.  Header lane 0 is the
# raw marker byte LSB-first, padded with two zeros.
_FIXED_LANES = {
    FlitKind.START: (START_BYTE,) + (FILLER_CODE,) * 3,
    FlitKind.STOP: (STOP_BYTE,) + (FILLER_CODE,) * 3,
    FlitKind.TRAINING: (FILLER_CODE,) * LANES,
}


def encode_flit(kind: FlitKind, word=None, rd=Disparity.NEGATIVE):
    """Build one flit, returning (Flit, updated disparity).

    Data flits thread the running disparity through the four lanes; header
    and training flits are disparity-neutral and leave it unchanged.
    """
    _check_rd(rd)
    if kind is FlitKind.DATA:
        if not (isinstance(word, numbers.Integral) and 0 <= word < 1 << 32):
            raise ValueError("data flit requires a 32-bit word")
        # one table row per lane: every byte has a row at both disparities
        c0, rd = _ENCODE[word & 0xFF, False, rd]
        c1, rd = _ENCODE[word >> 8 & 0xFF, False, rd]
        c2, rd = _ENCODE[word >> 16 & 0xFF, False, rd]
        c3, rd = _ENCODE[word >> 24, False, rd]
        return Flit((c0, c1, c2, c3)), rd
    try:
        lanes = _FIXED_LANES[kind]
    except (KeyError, TypeError):
        raise ValueError(f"kind must be a FlitKind, got {kind!r}") from None
    if word is not None:
        raise ValueError(f"{kind.value} flit carries no word")
    return Flit(lanes), rd


def decode_flit(value, rd=Disparity.NEGATIVE):
    """Decode one received 40-bit word, returning (data word, updated disparity).

    Wire bit ``k`` is bit ``k`` of ``value``, an integer in [0, 2**40).
    Framing is the sequence detector's: a raw marker in lane 0 is no code,
    so it fails as InvalidCode like any other miss; errors carry the lane
    index.  A training flit is the data word 0xB5B5B5B5 on the wire.
    """
    try:
        bad = value >> FLIT_BITS
    except TypeError:
        bad = True
    if bad:
        raise ValueError(f"value must be an integer in [0, 2**40), got {value!r}")
    _check_rd(rd)
    word = 0
    for i in range(LANES):
        code = value >> CODE_BITS * i & 0x3FF
        found = _DECODE.get((code, rd))
        if found is None:  # decode_symbol raises the miss's error
            if i == 0 and code in (START_BYTE, STOP_BYTE):
                marker = "start" if code == START_BYTE else "stop"
                raise InvalidCode(f"lane 0: raw {marker} marker inside a frame")
            try:
                decode_symbol(code, rd)
            except (InvalidCode, DisparityError) as exc:
                raise type(exc)(f"lane {i}: {exc}") from None
        sym, rd = found
        if sym.is_control:
            raise InvalidCode(f"lane {i}: unexpected control symbol 0x{sym.payload:02x}")
        word |= sym.payload << (8 * i)
    return word, rd
