"""Power-state accounting and the duty-cycled energy model.

The link has three modes per side: active (data-comm), warm-up and
standby.  Duty-cycled operation fills a buffer at the full line rate,
then idles until the average bandwidth target is met; every wake-up
pays the warm-up time and the analog power-gating overhead.

All powers are in watts, times in seconds, energies in joules; the
conventional pJ/bit figure is exposed where results are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from . import cdr, phy
from .errors import CurveOutOfRange, InfeasibleBandwidth, check, check_fields

PROGRAMMING_S = 0.75e-6  # handshake programming, the rest of the warm-up budget


@dataclass(frozen=True)
class PowerProfile:
    """Measured power numbers at 1.2 V, 400 MHz plus warm-up bookkeeping."""

    rx_analog_w: float = 3.66e-3
    tx_analog_w: float = 0.695e-3
    rx_digital_data_w: float = 0.591e-3   # back-annotated simulation value
    rx_digital_warm_w: float = 0.368e-3
    tx_digital_active_w: float = 0.253e-3  # data-comm and warm-up
    digital_standby_w: float = 1e-6        # per side
    pg_overhead_j: float = 120e-12         # analog power-gate turn-on cost
    t_warm_s: float = cdr.CDR_SETTLE_S + PROGRAMMING_S  # 1.39 us
    line_rate: float = phy.LINE_RATE

    def __post_init__(self):
        check_fields(self)

    @property
    def p_active_w(self):
        """Everything on: both analog blocks plus both digital blocks."""
        return (self.rx_analog_w + self.tx_analog_w
                + self.rx_digital_data_w + self.tx_digital_active_w)

    @property
    def p_warm_w(self):
        """Warm-up: analog on, RX digital in warm-up mode, TX digital on."""
        return (self.rx_analog_w + self.tx_analog_w
                + self.rx_digital_warm_w + self.tx_digital_active_w)

    @property
    def p_idle_w(self):
        """Analog gated off, both digital sides clock-gated."""
        return 2 * self.digital_standby_w


# a zero line rate would divide by zero in continuous_energy and bw_max
PowerProfile.RULES = {f.name: ("non-negative", lambda v: v >= 0)
                      for f in fields(PowerProfile)} | {
    "line_rate": ("non-negative and non-zero", lambda v: v > 0)}
DEFAULT_PROFILE = PowerProfile()
BUFFER_BYTES = 16 * 1024   # the nominal transfer buffer
SWEEP_BANDWIDTHS_MBPS = (50, 100, 200, 400, 600)
SWEEP_BUFFERS_KB = (0.5, 1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class DutyCycleConfig:
    target_bw: float        # bits/s averaged over the whole cycle
    buffer_bytes: int

    RULES = dict.fromkeys(("target_bw", "buffer_bytes"), ("> 0", lambda v: v > 0))

    def __post_init__(self):
        check_fields(self)


# the share of the cycle by which t_idle may fall below zero from
# rounding alone: bw_max's cycle comes back a few ulps short of
# t_act + t_warm
_IDLE_ROUNDING = 1e-12


@dataclass(frozen=True)
class EnergyReport:
    t_act_s: float
    t_warm_s: float
    t_idle_s: float
    t_cycle_s: float
    energy_j: float
    energy_per_bit_pj: float


def duty_cycle_energy(profile: PowerProfile, cfg: DutyCycleConfig) -> EnergyReport:
    """Energy per bit of one duty cycle at the target average bandwidth."""
    bits = cfg.buffer_bytes * 8
    t_act = bits / profile.line_rate
    t_cycle = bits / cfg.target_bw
    t_idle = t_cycle - t_act - profile.t_warm_s
    if -_IDLE_ROUNDING * t_cycle <= t_idle < 0:  # at bw_max, short only by rounding
        t_idle = 0.0
    if t_idle < 0:
        raise InfeasibleBandwidth(
            f"{cfg.target_bw / 1e6:.1f} Mbps exceeds the sustainable bandwidth "
            f"for a {cfg.buffer_bytes} byte buffer")
    energy = (profile.p_active_w * t_act
              + profile.p_warm_w * profile.t_warm_s
              + profile.p_idle_w * t_idle
              + profile.pg_overhead_j)
    return EnergyReport(t_act, profile.t_warm_s, t_idle, t_cycle,
                        energy, energy / bits * 1e12)


def continuous_energy(profile: PowerProfile):
    """Energy per bit (pJ) streaming at the full line rate, no duty cycling."""
    return profile.p_active_w / profile.line_rate * 1e12


def bw_max(profile: PowerProfile, buffer_bytes):
    """Best sustainable average bandwidth once warm-up is amortized;
    ``buffer_bytes`` follows DutyCycleConfig's rule, else ValueError."""
    check("buffer_bytes", "int", DutyCycleConfig.RULES["buffer_bytes"], buffer_bytes)
    bits = buffer_bytes * 8
    return bits / (bits / profile.line_rate + profile.t_warm_s)


REFERENCE_CURVES = ("single_spi", "quad_spi_sdr", "quad_spi_ddr",
                    "octal_spi_sdr", "octal_spi_ddr", "hyperbus")

_CURVE_ALIASES = {"spi": "single_spi", "hyper_bus": "hyperbus"}


def reference_curve(name):
    """Load a bundled peripheral curve as (bandwidth_bps, energy_pj_per_bit)."""
    key = _CURVE_ALIASES.get(name, name)
    if key not in REFERENCE_CURVES:
        raise CurveOutOfRange(f"no reference curve named {name!r}")
    text = resources.files("serlink.data").joinpath(f"{key}.csv").read_text()
    rows = [line for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("bandwidth")]
    data = np.array([[float(v) for v in line.split(",")] for line in rows])
    return data[:, 0] * 1e6, data[:, 1]


def _interp_curve(bw_bps, energies, bw):
    if bw < bw_bps[0] or bw > bw_bps[-1]:
        raise CurveOutOfRange(
            f"{bw / 1e6:.3f} Mbps outside the reference span "
            f"[{bw_bps[0] / 1e6:.3f}, {bw_bps[-1] / 1e6:.3f}] Mbps")
    return float(np.interp(math.log10(bw), np.log10(bw_bps), energies))


def compare_peripherals(profile: PowerProfile, curve_name, bw, mode="same_bw"):
    """Reference-to-link energy ratio at a bandwidth.

    ``mode`` picks the reference operating point: ``same_bw`` reads the
    curve at ``bw``; ``best`` takes the curve's most efficient point.
    The link side always runs duty-cycled with the BUFFER_BYTES buffer.
    """
    bw_bps, energies = reference_curve(curve_name)
    if mode == "same_bw":
        ref = _interp_curve(bw_bps, energies, bw)
    elif mode == "best":
        ref = float(energies.min())
    else:
        raise ValueError("mode must be 'same_bw' or 'best'")
    ours = duty_cycle_energy(profile, DutyCycleConfig(bw, BUFFER_BYTES))
    return ref / ours.energy_per_bit_pj


def energy_sweep(profile: PowerProfile):
    """Grid of duty-cycled energies: rows of (bw_mbps, buffer_kb, pj_per_bit)."""
    rows = []
    for bw in SWEEP_BANDWIDTHS_MBPS:
        for kb in SWEEP_BUFFERS_KB:
            rep = duty_cycle_energy(
                profile, DutyCycleConfig(bw * 1e6, int(kb * 1024)))
            rows.append((bw, kb, rep.energy_per_bit_pj))
    return rows


# Signals understood by the trace integrator, with per-state powers.
_DIGITAL_POWER = {
    ("tx_digital", "standby"): "digital_standby_w",
    ("tx_digital", "active"): "tx_digital_active_w",
    ("rx_digital", "standby"): "digital_standby_w",
    ("rx_digital", "warm"): "rx_digital_warm_w",
    ("rx_digital", "data"): "rx_digital_data_w",
}


def energy_trace(events, profile: PowerProfile, t_end_s):
    """Integrate mode-transition events into joules.

    ``events`` are (time_s, signal, value) rows; signals are
    ``tx_analog``/``rx_analog`` (0 or 1) and ``tx_digital``/``rx_digital``
    (state names).  Power is piecewise constant between transitions and
    each analog turn-on adds the power-gating overhead.
    """
    state = {"tx_analog": 0, "rx_analog": 0,
             "tx_digital": "standby", "rx_digital": "standby"}

    def power():
        p = 0.0
        if state["tx_analog"]:
            p += profile.tx_analog_w
        if state["rx_analog"]:
            p += profile.rx_analog_w
        for sig in ("tx_digital", "rx_digital"):
            p += getattr(profile, _DIGITAL_POWER[(sig, state[sig])])
        return p

    total = 0.0
    t_prev = 0.0
    for t, signal_name, value in sorted(events, key=lambda e: e[0]):
        if signal_name not in state:
            continue
        if t < t_prev:
            raise ValueError("events precede the accounting window")
        total += power() * (t - t_prev)
        if signal_name.endswith("_analog") and not state[signal_name] and value:
            total += profile.pg_overhead_j
        state[signal_name] = value
        t_prev = t
    total += power() * (t_end_s - t_prev)
    return total
