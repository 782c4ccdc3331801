"""Faults on the wire: every perturbed transfer ends in a named verdict.

A wrapper of ``phy.StreamingNrz.push_levels``, the stream's one way in,
finds the frame by the start flit's 40 codes and puts one fault at a
drawn position from the frame's first code: 1 or 3 flipped bits, a
dropped code or a repeated one.  The link never sees the wrapper; it
only sees a wire that differs from what its framer sent.
"""

import time

import pytest
from hypothesis import event, example, given, settings, strategies as st

from serlink import node, phy
from serlink.codec import FLIT_BITS, FlitKind, encode_flit, flit_bits
from serlink.node import LinkSimConfig, run_protocol

START_CODES = bytes(flit_bits(encode_flit(FlitKind.START)[0]))

# every way a transfer may end other than ok
ENDINGS = ("decode failure during transfer: ", "DataMismatch: ", "ProtocolDeadlock: ",
           "LossOfLock: ", "OutOfRange: ", "RxFifoOverflow: ")

WALL_BOUND_S = 3.0  # the slowest run seen took about 0.3 s


class OneFault:
    """Rewrites the pushed codes: ``kind`` at frame position ``at``."""

    def __init__(self, kind, at):
        self.kind, self.at = kind, at
        self.flips = {"flip1": 1, "flip3": 3}.get(kind, 0)
        self.sent = bytearray()  # every code the framer pushed, unperturbed
        self.index = None        # the fault's index in ``sent``, once the frame is found

    def __call__(self, codes):
        first = len(self.sent)
        self.sent += bytes(codes)
        if self.index is None:
            found = self.sent.find(START_CODES, max(0, first - FLIT_BITS + 1))
            if found >= 0:
                self.index = found + self.at
        if self.index is None:
            return codes
        out = []
        for i, code in enumerate(self.sent[first:], first):
            offset = i - self.index
            if 0 <= offset < self.flips:
                out.append(1 - code if code != phy.IDLE else code)
            elif self.kind == "drop" and offset == 0:
                continue
            elif self.kind == "repeat" and offset == 0:
                out += [code, code]
            else:
                out.append(code)
        return out


@settings(max_examples=50, deadline=None)
@given(fault=st.sampled_from(["flip1", "flip3", "drop", "repeat"]),
       at=st.floats(0.0, 1.0, exclude_max=True),
       scenario=st.sampled_from(list(node.SCENARIOS)),
       pin=st.sampled_from(list(node.RELEASE_PINS)),
       payload=st.integers(1, 64).map(lambda words: 4 * words),
       line_cost=st.integers(0, 20), cdr_n=st.sampled_from([1, 4, 16]),
       seed=st.integers(0, 2**16))
@example(fault="flip1", at=0.0, scenario="tx_initiated", pin="peer", payload=64,
         line_cost=3, cdr_n=4, seed=1)  # the start marker's first bit
@example(fault="drop", at=0.5, scenario="rx_initiated", pin="own", payload=64,
         line_cost=0, cdr_n=16, seed=2)
@example(fault="repeat", at=0.99, scenario="tx_initiated", pin="peer", payload=4,
         line_cost=20, cdr_n=1, seed=3)  # inside the stop flit
def test_a_fault_on_the_wire_ends_in_a_named_verdict(fault, at, scenario, pin, payload,
                                                     line_cost, cdr_n, seed):
    frame_codes = FLIT_BITS * (payload // 4 + 2)  # start, data and stop flits
    inject = OneFault(fault, int(at * frame_codes))
    push = phy.StreamingNrz.push_levels
    cfg = LinkSimConfig(scenario=scenario, rx_release_pin=pin, payload_bytes=payload,
                        line_cost_cycles=line_cost, cdr_n=cdr_n, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(phy.StreamingNrz, "push_levels",
                   lambda self, codes: push(self, inject(codes)))
        began = time.perf_counter()
        report = run_protocol(cfg)
        elapsed = time.perf_counter() - began

    assert inject.index is not None, "the start flit never reached the wire"
    assert elapsed < WALL_BOUND_S, f"{elapsed:.2f} s"
    if report.ok:
        assert report.delivered_bytes == payload and report.mismatches == 0
    else:
        assert report.diagnostic.startswith(ENDINGS), report.diagnostic
    event(report.diagnostic.split(":")[0] or "ok")
