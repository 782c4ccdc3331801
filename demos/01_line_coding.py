#!/usr/bin/env python3
"""Line coding walkthrough: symbols, flits, markers, DC balance.

Shows how bytes become DC-balanced 10-bit codes, how four lanes form a
40-bit flit with one disparity chain, and why the stop marker can never
be imitated by payload.
"""

import numpy as np

from serlink.codec import (Disparity, FlitKind, Symbol, D, K, decode_flit,
                           encode_flit, encode_symbol)


def wire_str(code, nbits=10):
    return "".join(str((code >> k) & 1) for k in range(nbits))


def main():
    print("== single symbols ==")
    for byte, label in ((0x00, "D0.0"), (D(21, 5), "D21.5"), (0xA7, "D7.5")):
        for rd in Disparity:
            code, rd_out = encode_symbol(Symbol(byte), rd)
            print(f"{label} @ {rd.name[:3]}: wire {wire_str(code)} "
                  f"(ones {bin(code).count('1')}) -> {rd_out.name[:3]}")

    print("\n== control symbols used for framing ==")
    for byte, label in ((K(27, 7), "start marker byte"),
                        (K(29, 7), "stop marker byte")):
        print(f"{label}: 0x{byte:02x} = first 8 wire bits {wire_str(byte, 8)}")

    print("\n== a data flit ==")
    flit, rd = encode_flit(FlitKind.DATA, 0xCAFE0042, Disparity.NEGATIVE)
    print("word 0xCAFE0042 ->", " ".join(wire_str(c) for c in flit.lanes))
    word40 = flit.to_int()  # the 40-bit word the receiver deserializes
    word, _ = decode_flit(word40, Disparity.NEGATIVE)
    print(f"as 40-bit word 0x{word40:010X} decodes back to 0x{word:08X}")

    print("\n== running digital sum over random payload ==")
    rng = np.random.default_rng(1)
    rd = Disparity.NEGATIVE
    bits = []
    for _ in range(2000):
        flit, rd = encode_flit(FlitKind.DATA,
                               int(rng.integers(0, 2**32, dtype=np.uint64)), rd)
        bits.extend(flit.bits())
    sums = np.cumsum(np.where(np.array(bits) > 0, 1, -1))
    stream = "".join(map(str, bits))
    runs = max(len(r) for part in (stream.split("0"), stream.split("1"))
               for r in part)
    print(f"80000 wire bits: running sum stays in "
          f"[{sums.min()}, {sums.max()}], longest run {runs}")
    print("stop marker 10111111 in payload stream:",
          "10111111" in stream, "(needs a run of six)")
    print("start marker 11011111 in payload stream:",
          "11011111" in stream, "(possible, so it is only hunted between frames)")


if __name__ == "__main__":
    main()
