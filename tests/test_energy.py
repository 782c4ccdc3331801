import dataclasses
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from serlink import energy
from serlink.energy import (DEFAULT_PROFILE, DutyCycleConfig, PowerProfile,
                            bw_max, compare_peripherals, continuous_energy,
                            duty_cycle_energy, energy_sweep, energy_trace,
                            reference_curve)
from serlink.errors import CurveOutOfRange, InfeasibleBandwidth

GRID_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "duty_energy_grid.csv")


def load_grid():
    rows = []
    with open(GRID_PATH) as fh:
        for line in fh:
            if line[0].isdigit():
                bw, kb, pj = line.split(",")
                rows.append((float(bw), float(kb), float(pj)))
    return rows


def test_profile_sums_to_headline_power():
    assert DEFAULT_PROFILE.p_active_w == pytest.approx(5.2e-3, rel=0.01)
    assert DEFAULT_PROFILE.p_warm_w == pytest.approx(4.976e-3, rel=1e-9)
    assert DEFAULT_PROFILE.p_idle_w == pytest.approx(2e-6, rel=1e-12)


def test_duty_cycle_reproduces_reference_grid():
    grid = load_grid()
    assert len(grid) == 40
    for bw_mbps, kb, want in grid:
        rep = duty_cycle_energy(DEFAULT_PROFILE,
                                DutyCycleConfig(bw_mbps * 1e6, int(kb * 1024)))
        assert rep.energy_per_bit_pj == pytest.approx(want, rel=0.005), (bw_mbps, kb)


def test_duty_cycle_spot_values():
    spots = [(50e6, 16 * 1024, 6.591147461),
             (600e6, 64 * 1024, 6.514245199),
             (50e6, 512, 8.25421875)]
    for bw, buf, want in spots:
        rep = duty_cycle_energy(DEFAULT_PROFILE, DutyCycleConfig(bw, buf))
        assert rep.energy_per_bit_pj == pytest.approx(want, rel=0.005)


def test_duty_cycle_time_budget_identity():
    rep = duty_cycle_energy(DEFAULT_PROFILE, DutyCycleConfig(50e6, 16 * 1024))
    assert rep.t_cycle_s == pytest.approx(rep.t_act_s + rep.t_warm_s + rep.t_idle_s)
    assert rep.t_act_s == pytest.approx(131072 / 0.8e9)
    assert rep.t_idle_s >= 0


def test_infeasible_bandwidth_raises():
    with pytest.raises(InfeasibleBandwidth):
        duty_cycle_energy(DEFAULT_PROFILE, DutyCycleConfig(799e6, 16 * 1024))


@settings(max_examples=300, deadline=None)
@given(words=st.integers(1, 32 * 1024), line_rate=st.sampled_from((0.8e9, 0.64e9)))
@example(words=10, line_rate=0.8e9)  # 40 B: t_idle used to round to -1e-22 s
def test_bw_max_is_feasible_and_just_above_is_not(words, line_rate):
    profile = PowerProfile(line_rate=line_rate)
    buffer_bytes = 4 * words
    peak = bw_max(profile, buffer_bytes)
    rep = duty_cycle_energy(profile, DutyCycleConfig(peak, buffer_bytes))
    assert 0.0 <= rep.t_idle_s <= 1e-12 * rep.t_cycle_s
    with pytest.raises(InfeasibleBandwidth):
        duty_cycle_energy(profile, DutyCycleConfig(peak * 1.001, buffer_bytes))


def test_continuous_energy_examples():
    assert continuous_energy(DEFAULT_PROFILE) == pytest.approx(6.5, rel=0.01)
    halved = PowerProfile(rx_analog_w=3.66e-3 / 2, tx_analog_w=0.695e-3 / 2)
    assert continuous_energy(halved) == pytest.approx(3.78, rel=0.01)
    zero = PowerProfile(rx_analog_w=0, tx_analog_w=0, rx_digital_data_w=0,
                        tx_digital_active_w=0)
    assert continuous_energy(zero) == 0


def test_bw_max_cases():
    assert bw_max(DEFAULT_PROFILE, 16 * 1024) == pytest.approx(793e6, abs=1e6)
    assert bw_max(DEFAULT_PROFILE, 1 << 30) == pytest.approx(0.8e9, rel=1e-3)
    no_warm = PowerProfile(t_warm_s=0.0)
    assert bw_max(no_warm, 4096) == 0.8e9
    for bad in (0, float("nan"), float("inf"), 0.5, -4):
        with pytest.raises(ValueError, match="buffer_bytes"):
            bw_max(DEFAULT_PROFILE, bad)


def test_diminishing_returns_in_buffer_size():
    for bw_mbps in (50, 100, 200, 400, 600):
        col = [duty_cycle_energy(DEFAULT_PROFILE,
                                 DutyCycleConfig(bw_mbps * 1e6, int(kb * 1024))
                                 ).energy_per_bit_pj
               for kb in (0.5, 1, 2, 4, 8, 16, 32, 64)]
        assert all(a > b for a, b in zip(col, col[1:]))
        gain_16_to_64 = (col[5] - col[7]) / col[5]
        assert 0 < gain_16_to_64 < 0.01


def test_headline_ratios():
    peak = bw_max(DEFAULT_PROFILE, 16 * 1024)
    best = compare_peripherals(DEFAULT_PROFILE, "single_spi", peak, mode="best")
    assert best == pytest.approx(8.46, rel=0.01)
    same = compare_peripherals(DEFAULT_PROFILE, "single_spi", 10e6, mode="same_bw")
    assert same == pytest.approx(8.61, rel=0.01)
    hyper = compare_peripherals(DEFAULT_PROFILE, "hyperbus", peak, mode="best")
    assert hyper == pytest.approx(17.4, rel=0.01)


def test_reference_curves_load_and_bounds():
    # every name the CLI's --compare accepts has a loadable curve
    for name in energy.CURVE_NAMES:
        bw, pj = reference_curve(name)
        assert len(bw) == len(pj) and np.all(np.diff(bw) > 0)
    with pytest.raises(CurveOutOfRange):
        compare_peripherals(DEFAULT_PROFILE, "single_spi", 793e6, mode="same_bw")
    with pytest.raises(CurveOutOfRange):
        reference_curve("floppy_disk")


def test_spi_is_the_only_curve_alias():
    assert reference_curve("spi")[1].tolist() == reference_curve("single_spi")[1].tolist()
    with pytest.raises(CurveOutOfRange, match="'hyper_bus'"):
        reference_curve("hyper_bus")


def test_energy_sweep_covers_default_grid():
    rows = energy_sweep(DEFAULT_PROFILE)
    assert len(rows) == 40


def synthetic_cycle_events(report):
    """One duty cycle's mode transitions matching the closed-form phases."""
    t0 = 0.0
    t1 = report.t_warm_s
    t2 = t1 + report.t_act_s
    return [
        (t0, "tx_analog", 1), (t0, "rx_analog", 1),
        (t0, "tx_digital", "active"), (t0, "rx_digital", "warm"),
        (t1, "rx_digital", "data"),
        (t2, "tx_analog", 0), (t2, "rx_analog", 0),
        (t2, "tx_digital", "standby"), (t2, "rx_digital", "standby"),
    ]


def test_trace_integration_matches_closed_form():
    rep = duty_cycle_energy(DEFAULT_PROFILE, DutyCycleConfig(50e6, 16 * 1024))
    events = synthetic_cycle_events(rep)
    joules = energy_trace(events, DEFAULT_PROFILE, rep.t_cycle_s)
    assert joules == pytest.approx(rep.energy_j, rel=0.01)


def test_trace_idle_baseline():
    assert energy_trace([], DEFAULT_PROFILE, 1.0) == pytest.approx(2e-6)


def test_trace_counts_power_up_overhead_per_edge():
    events = []
    for k in range(3):
        events.append((k * 1e-3, "rx_analog", 1))
        events.append((k * 1e-3 + 1e-6, "rx_analog", 0))
    base = energy_trace([], DEFAULT_PROFILE, 3e-3)
    total = energy_trace(events, DEFAULT_PROFILE, 3e-3)
    analog = 3 * DEFAULT_PROFILE.rx_analog_w * 1e-6
    assert total - base - analog == pytest.approx(3 * 120e-12, rel=1e-6)


def test_trace_names_an_unknown_digital_state():
    # this used to raise a bare KeyError: ('tx_digital', 'bogus')
    with pytest.raises(ValueError, match=r"^tx_digital must be one of "
                                         r"\['standby', 'active'\], got 'bogus'$"):
        energy_trace([(0.0, "tx_digital", "bogus")], DEFAULT_PROFILE, 1.0)


@pytest.mark.parametrize("signal_name", ["tx_analog", "rx_analog"])
@pytest.mark.parametrize("value", ["bogus", 2, -1, 0.5, float("nan"), None])
def test_trace_takes_only_0_or_1_for_an_analog_signal(signal_name, value):
    # any truthy value used to turn the block on, as 1 does
    with pytest.raises(ValueError, match=rf"^{signal_name} must be 0 or 1, got "):
        energy_trace([(0.0, signal_name, value)], DEFAULT_PROFILE, 1.0)
    on = energy_trace([(0.0, signal_name, 1)], DEFAULT_PROFILE, 1.0)
    assert energy_trace([(0.0, signal_name, True)], DEFAULT_PROFILE, 1.0) == on


@pytest.mark.parametrize("t_end_s", [0.5e-6, -1e-6, float("nan"), float("inf")])
def test_trace_rejects_an_end_before_the_last_event_or_not_finite(t_end_s):
    # an end before the last event used to integrate a negative span
    events = [(0.0, "rx_analog", 1), (1e-6, "rx_analog", 0)]
    with pytest.raises(ValueError, match=r"^t_end_s must be finite, >= 1e-06, the last event's"):
        energy_trace(events, DEFAULT_PROFILE, t_end_s)
    assert energy_trace(events, DEFAULT_PROFILE, 1e-6) < energy_trace(
        events, DEFAULT_PROFILE, 2e-6)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), "1e-6", None])
def test_trace_names_an_event_time_not_finite(t):
    # a NaN or inf time used to be blamed on t_end_s, and -inf reported
    # as preceding the accounting window; '1e-6' and None raised a bare
    # TypeError from sorted
    events = [(0.0, "rx_analog", 1), (t, "rx_analog", 0)]
    with pytest.raises(ValueError, match=r"^events must have finite times, got "):
        energy_trace(events, DEFAULT_PROFILE, 1e-6)


def test_profile_validation():
    with pytest.raises(ValueError):
        PowerProfile(rx_analog_w=-1e-3)
    with pytest.raises(ValueError):
        DutyCycleConfig(0, 1024)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PowerProfile)])
def test_every_profile_field_must_be_non_negative(name):
    # a negative line rate would give a negative pJ/bit
    with pytest.raises(ValueError, match="non-negative"):
        PowerProfile(**{name: -1.0})
