import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serlink.codec import Disparity, FlitKind, encode_flit, flit_bits
from serlink.datapath import (BitPair, Deserializer, Serializer,
                              ShiftRealigner)
from serlink.errors import Underflow


def random_flit_bits(rng):
    word = int(rng.integers(0, 2**32, dtype=np.uint64))
    value, _ = encode_flit(FlitKind.DATA, word, Disparity.NEGATIVE)
    return flit_bits(value)


def test_serializer_emits_flit_in_order():
    bits = [(i * 7 + 3) % 2 for i in range(40)]
    ser = Serializer()
    ser.load(bits)
    out = []
    for _ in range(20):
        pair, _ = ser.step()
        out.extend(pair)
    assert out == bits


def test_serializer_counter_tracks_groups():
    ser = Serializer()
    ser.load([0] * 40)
    for i in range(20):
        _, counter = ser.step()
        assert counter == (2 * i) // 8 % 5
    assert ser.flit_done


def test_serializer_counter_wraps_to_zero_on_next_flit():
    ser = Serializer()
    ser.load([0] * 40)
    for _ in range(20):
        ser.step()
    ser.load([1] * 40)
    pair, counter = ser.step()
    assert counter == 0 and pair == BitPair(1, 1)


def test_serializer_underflow():
    ser = Serializer()
    with pytest.raises(Underflow):
        ser.step()
    ser.load([0] * 40)
    for _ in range(20):
        ser.step()
    with pytest.raises(Underflow):
        ser.step()


def test_serializer_rejects_bad_width_and_overfill():
    ser = Serializer()
    with pytest.raises(ValueError):
        ser.load([0] * 39)
    ser.load([0] * 40)
    assert not ser.flit_done
    with pytest.raises(ValueError):
        ser.load([0] * 40)  # the loaded flit is still being sent
    for _ in range(20):
        ser.step()
    ser.load([0] * 40)


def test_deserializer_partial_input_gives_nothing():
    des = Deserializer()
    for i in range(19):
        assert des.push(BitPair(1, 0)) is None
    assert des.push(BitPair(1, 1)) == sum(1 << k for k in range(0, 40, 2)) | 1 << 39


def test_serializer_deserializer_inverse():
    rng = np.random.default_rng(21)
    ser, des = Serializer(), Deserializer()
    for _ in range(300):
        bits = random_flit_bits(rng)
        ser.load(bits)
        word = None
        for _ in range(20):
            pair, _ = ser.step()
            got = des.push(pair)
            word = got if got is not None else word
        assert word == sum(b << k for k, b in enumerate(bits))


def test_apply_shift_identity_when_disabled():
    pairs = [BitPair(1, 0), BitPair(0, 0), BitPair(1, 1)]
    realigner = ShiftRealigner(shift=False)
    assert [realigner.push(p) for p in pairs] == pairs


def test_apply_shift_matches_brute_force_realignment():
    # enumerate every 8-bit stream; shifted output k = (bit[2k-1], bit[2k])
    # with a zero pre-fill in place of bit[-1]
    for bits in itertools.product((0, 1), repeat=8):
        pairs = [BitPair(bits[i], bits[i + 1]) for i in range(0, 8, 2)]
        realigner = ShiftRealigner(shift=True)
        out = [realigner.push(p) for p in pairs]
        flat = (0,) + bits
        expect = [BitPair(flat[2 * k], flat[2 * k + 1]) for k in range(4)]
        assert out == expect


def test_shift_realigner_prefill_is_last_seen_odd_bit():
    realigner = ShiftRealigner()
    realigner.push(BitPair(0, 1))  # records odd bit 1 while still straight
    realigner.shift = True
    assert realigner.push(BitPair(0, 0)) == BitPair(1, 0)


def _recover(wire, n_words, shift=True):
    """Deserialize a pair stream through the realigner.

    With ``shift`` (a one-bit-late stream) the realigner output lags its
    input by one pair, so the first realigned pair (pre-fill plus
    channel pad) is discarded.
    """
    realigner = ShiftRealigner(shift=shift)
    des = Deserializer()
    words = []
    for k, i in enumerate(range(0, len(wire) - 1, 2)):
        out = realigner.push(BitPair(wire[i], wire[i + 1]))
        if shift and k == 0:
            continue
        word = des.push(out)
        if word is not None:
            words.append(word)
        if len(words) == n_words:
            break
    return words


def test_shifted_stream_full_inverse():
    # serializer -> one-bit-late channel -> realigner -> deserializer is
    # the identity over a continuous run of flits
    rng = np.random.default_rng(23)
    flits = [random_flit_bits(rng) for _ in range(200)]
    ser = Serializer()
    wire = [0]  # the channel delivers the stream one bit late
    for bits in flits:
        ser.load(bits)
        for _ in range(20):
            pair, _ = ser.step()
            wire.extend(pair)
    wire.extend([0, 0])
    words = _recover(wire, len(flits))
    want = [sum(b << k for k, b in enumerate(bits)) for bits in flits]
    assert words == want


@settings(max_examples=40, deadline=None)
@given(flits=st.lists(st.integers(0, 2**40 - 1), min_size=1, max_size=20),
       late=st.booleans())
def test_serdes_with_realigner_returns_every_flit_at_either_alignment(flits, late):
    # serializer -> optional one-bit-late wire -> realigner -> deserializer
    ser = Serializer()
    wire = [0] if late else []
    for value in flits:
        ser.load([(value >> k) & 1 for k in range(40)])
        for _ in range(20):
            pair, _ = ser.step()
            wire.extend(pair)
    wire.extend([0, 0])
    assert _recover(wire, len(flits), shift=late) == flits


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                     min_size=20, max_size=120),
       resets=st.sets(st.integers(0, 100), max_size=4))
def test_deserializer_matches_a_list_reference_across_resets(pairs, resets):
    # the RX pipeline resets the deserializer at every marker, mid-word too
    des, held = Deserializer(), []
    for i, pair in enumerate(pairs):
        if i in resets:
            des.reset()
            held = []
        held.extend(pair)
        want = None
        if len(held) == 40:
            want, held = sum(b << k for k, b in enumerate(held)), []
        assert des.push(BitPair(*pair)) == want
