import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from serlink import codec
from serlink.codec import (Disparity, Flit, FlitKind, Symbol, D, K,
                           decode_flit, decode_symbol, encode_flit,
                           encode_symbol)
from serlink.errors import (DisparityError, InvalidCode,
                            UnsupportedControlSymbol)

from reference_8b10b import ref_table

RD = {-1: Disparity.NEGATIVE, 1: Disparity.POSITIVE}


def popcount(code):
    return bin(code).count("1")


def test_matches_independent_reference_table():
    for (byte, is_control, rd), (want_code, want_rd) in ref_table().items():
        code, rd_out = encode_symbol(Symbol(byte, is_control), RD[rd])
        assert code == want_code, (byte, is_control, rd)
        assert rd_out == RD[want_rd]


def test_brute_force_disparity_rules():
    # every code is at most 2 bits off balance and flips rd iff unbalanced
    for rd in Disparity:
        for byte in range(256):
            code, rd_out = encode_symbol(Symbol(byte), rd)
            disp = 2 * popcount(code) - 10
            assert disp in (-2, 0, 2)
            if rd is Disparity.NEGATIVE:
                assert disp >= 0  # negative column may only raise the sum
            else:
                assert disp <= 0
            assert (rd_out != rd) == (disp != 0)


def test_roundtrip_all_bytes_both_disparities():
    for rd in Disparity:
        for byte in range(256):
            code, rd_out = encode_symbol(Symbol(byte), rd)
            sym, rd_dec = decode_symbol(code, rd)
            assert sym == Symbol(byte)
            assert rd_dec == rd_out


def test_roundtrip_control_symbols():
    for rd in Disparity:
        for byte in sorted(codec.SUPPORTED_CONTROL):
            code, rd_out = encode_symbol(Symbol(byte, True), rd)
            sym, rd_dec = decode_symbol(code, rd)
            assert sym == Symbol(byte, True)
            assert rd_dec == rd_out


def test_d0_0_cell_is_balanced():
    # The published table keeps D0.0 balanced at either entry disparity:
    # the +2 six-bit block is paired with a -2 four-bit block.
    code, rd_out = encode_symbol(Symbol(D(0, 0)), Disparity.NEGATIVE)
    assert popcount(code) == 5
    assert rd_out is Disparity.NEGATIVE


def test_k27_7_decodes_as_control():
    for rd in Disparity:
        code, _ = encode_symbol(Symbol(K(27, 7), True), rd)
        sym, _ = decode_symbol(code, rd)
        assert sym.is_control and sym.payload == K(27, 7)


def test_unsupported_control_symbol_rejected():
    with pytest.raises(UnsupportedControlSymbol):
        encode_symbol(Symbol(0x42, is_control=True), Disparity.NEGATIVE)


def test_unsupported_control_symbol_keeps_its_message():
    with pytest.raises(UnsupportedControlSymbol,
                       match="^0x42 is not a supported K character$"):
        encode_symbol(Symbol(0x42, is_control=True), Disparity.POSITIVE)


@pytest.mark.parametrize("payload", [256, -1, 300])
def test_data_symbol_outside_a_byte_is_rejected(payload):
    # masking the payload to a byte would encode Symbol(300) as byte 44
    for rd in Disparity:
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            encode_symbol(Symbol(payload), rd)


@pytest.mark.parametrize("word", [2**32, 2**32 + 5, -1, 1.5, "7"])
def test_data_flit_word_outside_32_bits_is_rejected(word):
    # 1.5 and "7" used to raise a bare TypeError from >> and <=
    with pytest.raises(ValueError, match="32-bit word"):
        encode_flit(FlitKind.DATA, word, Disparity.NEGATIVE)


def test_all_zeros_is_invalid():
    with pytest.raises(InvalidCode):
        decode_symbol(0, Disparity.NEGATIVE)


def test_disparity_error_for_wrong_column():
    # a code emitted only from the positive column is illegal at negative rd
    legal_pos_only = None
    for byte in range(256):
        neg, _ = encode_symbol(Symbol(byte), Disparity.NEGATIVE)
        pos, _ = encode_symbol(Symbol(byte), Disparity.POSITIVE)
        if neg != pos:
            legal_pos_only = pos
            break
    assert legal_pos_only is not None
    with pytest.raises(DisparityError):
        decode_symbol(legal_pos_only, Disparity.NEGATIVE)
    decode_symbol(legal_pos_only, Disparity.POSITIVE)


def test_no_code_decodes_to_two_symbols_at_same_disparity():
    seen = {}
    for rd in Disparity:
        for byte in range(256):
            code, _ = encode_symbol(Symbol(byte), rd)
            key = (code, rd)
            assert seen.setdefault(key, byte) == byte
        for byte in codec.SUPPORTED_CONTROL:
            code, _ = encode_symbol(Symbol(byte, True), rd)
            key = (code, rd)
            assert key not in seen or seen[key] == ("k", byte)
            seen[key] = ("k", byte)


def test_data_flit_roundtrip_random_words():
    rng = np.random.default_rng(11)
    rd = Disparity.NEGATIVE
    for _ in range(500):
        word = int(rng.integers(0, 2**32, dtype=np.uint64))
        flit, rd_enc = encode_flit(FlitKind.DATA, word, rd)
        decoded, rd_dec = decode_flit(flit.to_int(), rd)
        assert decoded == word
        assert rd_enc == rd_dec
        rd = rd_enc


def test_data_flit_lane_contents_for_zero_word():
    flit, _ = encode_flit(FlitKind.DATA, 0, Disparity.NEGATIVE)
    # lane 0 carries D0.0 encoded at the incoming disparity; the chained
    # disparity stays negative through the balanced cells, so all four
    # lanes carry the same code
    code, _ = encode_symbol(Symbol(0), Disparity.NEGATIVE)
    assert flit.lanes == (code,) * 4


def test_start_and_stop_flit_prefixes():
    start, _ = encode_flit(FlitKind.START)
    assert start.bits()[:8] == [1, 1, 0, 1, 1, 1, 1, 1]
    stop, _ = encode_flit(FlitKind.STOP)
    assert stop.bits()[:8] == [1, 0, 1, 1, 1, 1, 1, 1]


def test_header_flits_decode_by_kind():
    # framing is the sequence detector's: a header word reaching the decoder
    # is a raw marker in lane 0, which no code equals
    for kind in (FlitKind.START, FlitKind.STOP):
        flit, _ = encode_flit(kind)
        with pytest.raises(InvalidCode,
                           match=f"^lane 0: raw {kind.value} marker inside a frame$"):
            decode_flit(flit.to_int(), Disparity.NEGATIVE)
    # a training flit is four D21.5 lanes, the same wire bits as a data
    # word: only framing tells them apart, so it decodes as that word
    training, _ = encode_flit(FlitKind.TRAINING)
    data, _ = encode_flit(FlitKind.DATA, 0xB5B5B5B5)
    assert training.lanes == data.lanes
    assert decode_flit(training.to_int())[0] == 0xB5B5B5B5


def test_training_flit_alternates():
    flit, _ = encode_flit(FlitKind.TRAINING)
    assert flit.bits() == [1, 0] * 20
    # and equals four lanes of the D21.5 code
    code, _ = encode_symbol(Symbol(D(21, 5)), Disparity.NEGATIVE)
    assert flit.lanes == (code,) * 4


def test_data_kind_requires_word_and_headers_reject_one():
    with pytest.raises(ValueError):
        encode_flit(FlitKind.DATA, None, Disparity.NEGATIVE)
    with pytest.raises(ValueError):
        encode_flit(FlitKind.START, 0x1234, Disparity.NEGATIVE)


def test_corrupted_lane_reported_with_index():
    flit, _ = encode_flit(FlitKind.DATA, 0xA5A5A5A5, Disparity.NEGATIVE)
    lanes = list(flit.lanes)
    # find a single-bit corruption of lane 2 that leaves the code table
    corrupted = None
    for bit in range(10):
        candidate = lanes[2] ^ (1 << bit)
        if all((candidate, rd) not in codec._DECODE for rd in Disparity):
            corrupted = candidate
            break
    assert corrupted is not None
    lanes[2] = corrupted
    bad = Flit(tuple(lanes))
    with pytest.raises(InvalidCode, match="lane 2"):
        decode_flit(bad.to_int(), Disparity.NEGATIVE)


# -- table-driven flits against the per-bit and per-lane definitions ----------

def _lanes_with(code, lane, others=(0x155, 0x2AA, 0x0F0, 0x30F)):
    lanes = list(others)
    lanes[lane] = code
    return tuple(lanes)


def test_flit_bits_match_the_per_bit_definition():
    for lane in range(codec.LANES):
        for code in range(1 << codec.CODE_BITS):
            lanes = _lanes_with(code, lane)
            want = [(c >> k) & 1 for c in lanes for k in range(codec.CODE_BITS)]
            assert Flit(lanes).bits() == want, (lane, code)


def test_data_flit_encode_matches_the_per_lane_symbol_chain():
    for start in Disparity:
        for lane in range(codec.LANES):
            for byte in range(256):
                word = (0x5A3C0F96 & ~(0xFF << 8 * lane)) | byte << 8 * lane
                codes, rd = [], start
                for i in range(codec.LANES):
                    code, rd = encode_symbol(Symbol((word >> 8 * i) & 0xFF), rd)
                    codes.append(code)
                assert encode_flit(FlitKind.DATA, word, start) == (Flit(tuple(codes)), rd)


def _decode_per_lane(lanes, rd):
    """decode_flit as one decode_symbol call per lane: its outcome, or the
    type and message of the error it raises."""
    markers = {codec.START_BYTE: "start", codec.STOP_BYTE: "stop"}
    if lanes[0] in markers:
        return InvalidCode, f"lane 0: raw {markers[lanes[0]]} marker inside a frame"
    word = 0
    for i, code in enumerate(lanes):
        try:
            sym, rd = decode_symbol(code, rd)
        except (InvalidCode, DisparityError) as exc:
            return type(exc), f"lane {i}: {exc}"
        if sym.is_control:
            return InvalidCode, f"lane {i}: unexpected control symbol 0x{sym.payload:02x}"
        word |= sym.payload << (8 * i)
    return word, rd


def test_decode_flit_matches_the_per_lane_symbol_chain():
    # every 10-bit code in every lane of a 40-bit word, after lanes legal at
    # the chained disparity: data, control, marker, wrong-disparity and
    # illegal codes alike
    outcomes = set()
    for start in Disparity:
        valid, _ = encode_flit(FlitKind.DATA, 0x5A3C0F96, start)
        for lane in range(codec.LANES):
            for code in range(1 << codec.CODE_BITS):
                lanes = _lanes_with(code, lane, valid.lanes)
                want = _decode_per_lane(lanes, start)
                try:
                    got = decode_flit(Flit(lanes).to_int(), start)
                except (InvalidCode, DisparityError) as exc:
                    got = type(exc), str(exc)
                assert got == want, (start, lane, code)
                outcomes.add(want[1] if "marker" in str(want[1]) else
                              want[0] if isinstance(want[0], type) else "data")
    assert outcomes == {InvalidCode, DisparityError, "data",
                        "lane 0: raw start marker inside a frame",
                        "lane 0: raw stop marker inside a frame"}


def test_flit_int_form_round_trips():
    rng = np.random.default_rng(33)
    values = [0, 2**40 - 1] + [int(v) for v in rng.integers(0, 2**40, 2000, dtype=np.int64)]
    for value in values:
        flit = Flit(tuple(value >> 10 * i & 0x3FF for i in range(codec.LANES)))
        assert flit.to_int() == value
        assert flit.bits() == [(value >> k) & 1 for k in range(codec.FLIT_BITS)]


@pytest.mark.parametrize("lanes", [(0x400, 0, 0, 0), (-1, 0, 0, 0), (1, 2),
                                   (0, 0, 0, 0x400), (1, 2, 3, 4, 5),
                                   (1.0, 0, 0, 0), "abcd", [1, 2, 3, 4]])
def test_flit_lanes_outside_four_10_bit_codes_are_rejected(lanes):
    # 0x400 read as zeros in bits() but as lane 1's bit 0 in to_int(), -1
    # gave to_int() -1, (1, 2) made a 20-bit flit, and a list made a flit
    # unequal to its tuple form and unhashable
    with pytest.raises(ValueError, match=r"^lanes must be 4 integers in \[0, 0x3FF\]"):
        Flit(lanes)


@pytest.mark.parametrize("value", [2**40, -1, 2**41 + 3, 1.5, "7"])
def test_flit_int_outside_40_bits_is_rejected(value):
    # 2**40 used to come back as four zero lanes
    with pytest.raises(ValueError, match=r"^value must be an integer in \[0, 2\*\*40\)"):
        decode_flit(value, Disparity.NEGATIVE)


@pytest.mark.parametrize("rd", [None, -1, "NEGATIVE"])
def test_codec_rejects_an_rd_that_is_no_disparity(rd):
    # encode_flit's data path and encode_symbol blamed the byte, decode_flit
    # and decode_symbol raised AttributeError, and a header flit came back
    # with rd unchanged
    code = encode_symbol(Symbol(5), Disparity.NEGATIVE)[0]
    calls = [lambda: encode_symbol(Symbol(5), rd),
             lambda: decode_symbol(code, rd),
             lambda: encode_flit(FlitKind.DATA, 5, rd),
             lambda: encode_flit(FlitKind.START, None, rd),
             lambda: decode_flit(encode_flit(FlitKind.DATA, 5)[0].to_int(), rd)]
    for call in calls:
        with pytest.raises(ValueError, match=f"^rd must be a Disparity, got {rd!r}$"):
            call()


def test_encode_flit_rejects_a_kind_that_is_no_flit_kind():
    # the first two used to come back as training flits, the third raised
    # AttributeError; an unhashable kind misses the table by TypeError
    for args in (("start",), (None,), ("data", 5), (["start"],)):
        message = f"kind must be a FlitKind, got {args[0]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            encode_flit(*args)


def test_wire_running_sum_bounded():
    # chained lane disparity keeps every prefix of the serialized stream
    # within a 6-bit peak-to-peak band (|sum| <= 4 from an RD- start)
    rng = np.random.default_rng(12)
    rd = Disparity.NEGATIVE
    bits = []
    for _ in range(5000):
        word = int(rng.integers(0, 2**32, dtype=np.uint64))
        flit, rd = encode_flit(FlitKind.DATA, word, rd)
        bits.extend(flit.bits())
    sums = np.cumsum(np.where(np.array(bits) > 0, 1, -1))
    assert abs(sums).max() <= 4
    assert sums.max() - sums.min() <= 6


def test_stop_marker_never_appears_in_encoded_payload():
    # the stop byte has a six-bit run; coded payload never runs past five,
    # so the in-frame stop search cannot false-trigger on data
    rng = np.random.default_rng(13)
    rd = Disparity.NEGATIVE
    bits = []
    for _ in range(20000):
        word = int(rng.integers(0, 2**32, dtype=np.uint64))
        flit, rd = encode_flit(FlitKind.DATA, word, rd)
        bits.extend(flit.bits())
    stream = "".join(map(str, bits))
    assert "10111111" not in stream
    assert "111111" not in stream  # no runs of six anywhere
    # the start marker can occur inside payload; it is only searched for
    # outside the data phase (see control tests)
    assert max(len(r) for r in stream.replace("0", " ").split()) <= 5


@settings(max_examples=60, deadline=None)
@given(words=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50),
       start=st.sampled_from(list(Disparity)))
@example(words=[0xB5B5B5B5], start=Disparity.POSITIVE)  # a training flit's wire bits
def test_any_word_stream_round_trips_with_bounded_running_sum(words, start):
    flits, rd = [], start
    for word in words:
        flit, rd = encode_flit(FlitKind.DATA, word, rd)
        flits.append(flit)
    got, rd = [], start
    for flit in flits:
        word, rd = decode_flit(flit.to_int(), rd)
        got.append(word)
    assert got == words
    # 8b/10b keeps |RDS| <= 3; the stream starts at RDS -1 or +1
    low, high = (-2, 4) if start is Disparity.NEGATIVE else (-4, 2)
    rds = 0
    for flit in flits:
        for bit in flit.bits():
            rds += 1 if bit else -1
            assert low <= rds <= high
