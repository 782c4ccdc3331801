#!/usr/bin/env python3
"""Eye diagrams vs trace length and noise.

Renders the driver output through the behavioral channel, folds 150 UI
and reports the vertical opening.  Writes eye_sweep.csv next to this
script for plotting.
"""

import os

import numpy as np

from serlink import phy


def eye_for(length_cm, noise_v=0.0, seed=2):
    cfg = phy.ChannelConfig(trace_length_cm=length_cm, noise_sigma_v=noise_v)
    bits = np.random.default_rng(seed).integers(0, 2, 220)
    wave = phy.channel_apply(phy.drive(bits, cfg), cfg,
                             rng=np.random.default_rng(seed + 1))
    return phy.eye_capture(wave, n_ui=150)


def main():
    print("== eye height vs trace length (0.44 V swing, noiseless) ==")
    rows = ["trace_cm,noise_mv,eye_height_v,eye_width_ui"]
    for length in (0.0, 1.0, 2.0, 3.0, 5.0, 8.0):
        eye = eye_for(length)
        print(f"{length:4.1f} cm: height {eye.eye_height_v:.3f} V, "
              f"width {eye.eye_width_ui:.3f} UI")
        rows.append(f"{length},0,{eye.eye_height_v:.6f},{eye.eye_width_ui:.6f}")
    print("calibration anchors: 2 cm -> 0.418 V, 5 cm -> 0.386 V")

    print("\n== noise closes the eye further (2 cm trace) ==")
    for noise in (0.0, 0.005, 0.02, 0.05):
        eye = eye_for(2.0, noise)
        print(f"sigma {noise * 1e3:4.1f} mV: height {eye.eye_height_v:.3f} V")
        rows.append(f"2.0,{noise * 1e3},{eye.eye_height_v:.6f},"
                    f"{eye.eye_width_ui:.6f}")

    out = os.path.join(os.path.dirname(__file__), "eye_sweep.csv")
    with open(out, "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"\nwrote demos/{os.path.basename(out)}")  # from the repository root


if __name__ == "__main__":
    main()
