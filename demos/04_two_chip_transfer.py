#!/usr/bin/env python3
"""A complete two-chip transfer with the GPIO handshake.

Runs both synchronization protocols over the full simulated stack
(registers, DMA, FIFOs, coding, serializer, channel, clock recovery)
and prints the event timeline.
"""

from serlink import energy, node


def show(report):
    print(f"  delivered {report.delivered_bytes}/{report.config.payload_bytes} bytes, "
          f"mismatches {report.mismatches}, capture shift {report.shift_used}")
    print(f"  programming latency {report.programming_latency_s * 1e6:.2f} us, "
          f"energy {report.energy_j * 1e6:.3f} uJ")
    marks = ["tx_warm_en", "rx_warm_en", "rx_comm_en", "tx_comm_en",
             "first_data_bit", "data_done", "end"]
    for key in marks:
        if key in report.timestamps:
            print(f"  {report.timestamps[key] * 1e6:9.3f} us  {key}")
    for t, wire, level in report.gpio_edges:
        print(f"  {t * 1e6:9.3f} us  {wire} -> {level}")


def main():
    kb = energy.BUFFER_BYTES // 1024
    print(f"== transmitter-initiated, {kb} KB ==")
    report = node.run_protocol(node.LinkSimConfig(payload_bytes=energy.BUFFER_BYTES))
    show(report)

    print(f"\n== receiver-initiated, {kb} KB, 0.2% clock offset ==")
    report = node.run_protocol(node.LinkSimConfig(
        payload_bytes=energy.BUFFER_BYTES, scenario="rx_initiated", freq_offset=0.002))
    show(report)

    print("\n== pushing the offset past the tracking range ==")
    report = node.run_protocol(node.LinkSimConfig(payload_bytes=2048,
                                                  freq_offset=0.02))
    print(f"  ok={report.ok}: {report.diagnostic}")


if __name__ == "__main__":
    main()
