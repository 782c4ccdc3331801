"""Every config checks its own fields when it is built.

Each case states, independently of the models' rule tables, which values
a field accepts, how to draw values in and out of its range, and the
values at and just past each of its bounds, non-finite ones included.
Construction must raise ValueError naming the field exactly when the
value breaks the field's rule.
"""

import math

from hypothesis import given, settings, strategies as st

from serlink.energy import DutyCycleConfig, PowerProfile
from serlink.node import MEMORY_BYTES, LinkSimConfig
from serlink.phy import ChannelConfig

INF, NAN = math.inf, math.nan
NON_FINITE = [INF, -INF, NAN]
BASE = {DutyCycleConfig: {"target_bw": 100e6, "buffer_bytes": 1024}}


def _real(test):
    return lambda v: isinstance(v, (int, float)) and math.isfinite(v) and test(v)


def _int(test):
    return lambda v: isinstance(v, int) and test(v)


def _floats(lo, hi, edges):
    """Draws in [lo, hi] and of any float, and ``edges`` plus the non-finite."""
    return st.one_of(st.floats(lo, hi), st.floats()), edges + NON_FINITE


def _ints(lo, hi, edges):
    return st.one_of(st.integers(lo, hi), st.integers()), edges + [4.0, 0.5]


def _choices(*values):
    return st.sampled_from(values), list(values)


_NON_NEGATIVE = (_real(lambda v: v >= 0), *_floats(0, 1e6, [0, 0.0, -0.0, -1e-300, -1.0]))
_PROFILE_FIELDS = ("rx_analog_w", "tx_analog_w", "rx_digital_data_w", "rx_digital_warm_w",
                   "tx_digital_active_w", "digital_standby_w", "pg_overhead_j", "t_warm_s")

# (config class, field): (whether the field accepts a value, a strategy
# drawing values, and the values at and past each bound)
CASES = {
    (LinkSimConfig, "ui_s"): (
        _real(lambda v: 5e-11 <= v <= 5e-7),
        *_floats(5e-11, 5e-7, [5e-11, 5e-7, 4.9e-11, 5.1e-7, 0.0, -1.25e-9])),
    (LinkSimConfig, "freq_offset"): (
        _real(lambda v: -1 < v <= 1),
        *_floats(-0.999, 1, [1, 1.0, -1.0, -0.9999, 1.0000001, 0.0])),
    (LinkSimConfig, "initial_phase_ui"): (
        _real(lambda v: 0 <= v < 2), *_floats(0, 1.999, [0, 0.0, 2.0, 1.9999, -1e-9])),
    (LinkSimConfig, "payload_bytes"): (
        _int(lambda v: 0 < v <= MEMORY_BYTES and v % 4 == 0),
        *_ints(1, MEMORY_BYTES, [0, 4, 6, -4, MEMORY_BYTES, MEMORY_BYTES + 4])),
    (LinkSimConfig, "cdr_n"): (
        _int(lambda v: v in (1, 2, 4, 8, 16, 32, 64, 128)),
        *_ints(0, 256, [0, 1, 3, 128, 256])),
    (LinkSimConfig, "seed"): (_int(lambda v: v >= 0), *_ints(0, 2**40, [0, -1])),
    (LinkSimConfig, "line_cost_cycles"): (
        _int(lambda v: 0 <= v <= 1000), *_ints(0, 1000, [0, 1000, -1, 1001])),
    (LinkSimConfig, "scenario"): (
        lambda v: v in ("tx_initiated", "rx_initiated"),
        *_choices("tx_initiated", "rx_initiated", "rx", "TX_INITIATED", "")),
    (LinkSimConfig, "rx_release_pin"): (
        lambda v: v in ("peer", "own"), *_choices("peer", "own", "Peer", "")),
    (LinkSimConfig, "include_boundary_pd"): (
        lambda v: v in (True, False), *_choices(True, False, "true", None, 2)),
    (LinkSimConfig, "channel"): (
        lambda v: isinstance(v, ChannelConfig),
        *_choices(ChannelConfig(), {"swing": 0.44}, None)),
    (ChannelConfig, "swing"): (
        _real(lambda v: 0 < v <= 1000),
        *_floats(1e-9, 1000, [0, 0.0, -0.44, 1000, 1000.0001, 5e-324])),
    (ChannelConfig, "trace_length_cm"): _NON_NEGATIVE,
    (ChannelConfig, "prop_delay_s"): _NON_NEGATIVE,
    (ChannelConfig, "noise_sigma_v"): (
        _real(lambda v: 0 <= v <= 1000), *_floats(0, 1000, [0.0, 1000.0, -1e-9, 1000.5])),
    (ChannelConfig, "rj_sigma_s"): _NON_NEGATIVE,
    (ChannelConfig, "rise_time_ui"): (
        _real(lambda v: 0 <= v <= 1), *_floats(0, 1, [0.0, 1.0, -0.1, 1.1])),
    **{(PowerProfile, name): _NON_NEGATIVE for name in _PROFILE_FIELDS},
    (PowerProfile, "line_rate"): (
        _real(lambda v: v > 0), *_floats(1, 1e12, [0, 0.0, -1.0, 5e-324])),
    (DutyCycleConfig, "target_bw"): (
        _real(lambda v: v > 0), *_floats(1, 1e9, [0, 0.0, -1.0, 5e-324])),
    (DutyCycleConfig, "buffer_bytes"): (
        _int(lambda v: v > 0), *_ints(1, 1 << 20, [0, 1, -1])),
}


def _case_id(case):
    cls, name = case
    return f"{cls.__name__}.{name}"


def _builds(cls, name, value):
    """Whether ``cls`` accepts ``value`` for ``name``; a rejection must name it."""
    try:
        config = cls(**BASE.get(cls, {}) | {name: value})
    except ValueError as exc:
        assert str(exc).startswith(f"{name} must be "), exc
        return False
    assert getattr(config, name) is value
    return True


def test_every_field_of_every_config_has_a_case():
    for cls in (LinkSimConfig, ChannelConfig, PowerProfile, DutyCycleConfig):
        assert sorted(cls.RULES) == sorted(name for c, name in CASES if c is cls)


def test_a_config_takes_a_value_at_or_past_a_bound_exactly_when_its_rule_does():
    # the edges include the inputs that, unchecked, hang a transfer
    # (ui_s = 0), fail deep in the engine (a NaN phase or offset, a negative
    # line cost) or divide by zero (line_rate = 0)
    wrong = [(_case_id(case), value) for case, (accepts, _, edges) in CASES.items()
             for value in edges if _builds(*case, value) != accepts(value)]
    assert wrong == []


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_a_config_rejects_exactly_the_values_its_rule_breaks(data):
    case = data.draw(st.sampled_from(sorted(CASES, key=_case_id)), label="field")
    accepts, values, _ = CASES[case]
    value = data.draw(values, label="value")
    assert _builds(*case, value) == accepts(value)
