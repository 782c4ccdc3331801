#!/usr/bin/env python3
"""Duty-cycled energy: buffer sizing, bandwidth targets, peripheral ratios.

The link wakes, warms up (1.39 us), streams one buffer at 0.8 Gbps,
then power-gates until the average bandwidth target is met.  Bigger
buffers amortize the wake-up cost; beyond 16 KB the gain is under 1%.
"""

from serlink import energy
from serlink.energy import DEFAULT_PROFILE


def main():
    print(f"continuous streaming: {energy.continuous_energy(DEFAULT_PROFILE):.2f} "
          f"pJ/bit at {DEFAULT_PROFILE.line_rate / 1e9:.1f} Gbps "
          f"({DEFAULT_PROFILE.p_active_w * 1e3:.2f} mW)")
    peak = energy.bw_max(DEFAULT_PROFILE, energy.BUFFER_BYTES)
    print(f"best duty-cycled average bandwidth with a "
          f"{energy.BUFFER_BYTES // 1024} KB buffer: {peak / 1e6:.0f} Mbps\n")

    print("energy per bit (pJ) vs buffer size and bandwidth target")
    print("bw\\KB " + "".join(f"{b:>8g}" for b in energy.SWEEP_BUFFERS_KB))
    sweep = energy.energy_sweep(DEFAULT_PROFILE)
    for bw in energy.SWEEP_BANDWIDTHS_MBPS:
        cells = [pj for row_bw, _, pj in sweep if row_bw == bw]
        print(f"{bw:>5} " + "".join(f"{c:8.3f}" for c in cells))

    print("\nagainst conventional peripherals (reference curves bundled):")
    rows = [
        ("single SPI at its best (50 Mbps) vs link at peak", "single_spi", peak, "best"),
        ("single SPI vs link, both at 10 Mbps", "single_spi", 10e6, "same_bw"),
        ("HyperBus vs link at peak", "hyperbus", peak, "best"),
        ("octal SPI DDR vs link at peak", "octal_spi_ddr", peak, "best"),
    ]
    for label, curve, bw, mode in rows:
        ratio = energy.compare_peripherals(DEFAULT_PROFILE, curve, bw, mode=mode)
        print(f"  {label}: {ratio:.2f}x")


if __name__ == "__main__":
    main()
