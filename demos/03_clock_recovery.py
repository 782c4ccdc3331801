#!/usr/bin/env python3
"""Clock recovery in action: acquisition and frequency-offset tracking.

The loop samples eight data bits and eight mid-bit edge bits per batch,
accumulates early-minus-late counts and nudges a 32-position phase
interpolator every N batches.  Traces land in cdr_traces.csv.
"""

import os

import numpy as np

from serlink import cdr, phy


def main():
    clean = phy.ChannelConfig(trace_length_cm=0.0)
    training = np.tile([1, 0], 6000)
    rows = ["case,time_ns,pi_code,phase_error_ui"]

    print("== acquisition from different initial phase offsets ==")
    for phase in (0.0, 0.25, 1.0):
        res = cdr.recover_stream(training, clean, n_bits=4000,
                                 initial_phase_ui=phase)
        lock = ("t=0" if res.lock_time_s == 0
                else f"{res.lock_time_s * 1e9:.0f} ns" if res.lock_time_s
                else "not declared")
        print(f"initial {phase:4.2f} UI: locked {lock}, "
              f"{res.pi_steps} interpolator steps")
        for t_ns, code, err in res.trace[:80]:
            rows.append(f"acq_{phase},{t_ns:.1f},{code},{err:.5f}")

    print("\n== tracking a 0.4% transmit/receive frequency offset ==")
    rng = np.random.default_rng(3)
    payload = rng.integers(0, 2, 140_000).astype(np.int8)
    cfg = phy.ChannelConfig(trace_length_cm=2.0)
    res = cdr.recover_stream(payload, cfg, n_bits=120_000, freq_offset=0.004,
                             initial_phase_ui=0.5)
    errs = np.array([e for (_, _, e) in res.trace])
    print(f"120k bits: slips {res.slips}, bit errors "
          f"{res.errors_against(payload)}, phase error stays in "
          f"[{errs.min():+.2f}, {errs.max():+.2f}] UI")
    print(f"interpolator walked {res.pi_steps} steps "
          f"(offset demands ~{0.004 * 120_000 * 16:.0f})")
    for t_ns, code, err in res.trace[::50]:
        rows.append(f"track_0.4%,{t_ns:.1f},{code},{err:.5f}")

    out = os.path.join(os.path.dirname(__file__), "cdr_traces.csv")
    with open(out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"\nwrote demos/{os.path.basename(out)}")  # from the repository root


if __name__ == "__main__":
    main()
