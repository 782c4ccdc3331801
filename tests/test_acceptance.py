"""Acceptance criteria, one test per criterion, each printed pass/fail.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import contextlib
import os
import time

import numpy as np
import pytest

from serlink import cdr, cli, codec, datapath, energy, node, phy

GRID_PATH = os.path.join(os.path.dirname(__file__), "data",
                         "duty_energy_grid.csv")


@contextlib.contextmanager
def criterion(number, name, budget_s):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL "
              f"({time.monotonic() - start:.1f}s)")
        raise
    elapsed = time.monotonic() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.1f}s)")
    assert elapsed < budget_s


def test_criterion_1_energy_model_fidelity():
    with criterion(1, "energy-model-fidelity", budget_s=1.0):
        profile = energy.DEFAULT_PROFILE
        rows = [line.split(",") for line in open(GRID_PATH)
                if line[0].isdigit()]
        assert len(rows) == 40
        for bw, kb, want in rows:
            rep = energy.duty_cycle_energy(
                profile,
                energy.DutyCycleConfig(float(bw) * 1e6, int(float(kb) * 1024)))
            rel = abs(rep.energy_per_bit_pj - float(want)) / float(want)
            assert rel < 0.005, (bw, kb, rel)
        spots = [(50e6, 16 * 1024, 6.591), (50e6, 512, 8.254),
                 (600e6, 64 * 1024, 6.514)]
        for bw, buf, want in spots:
            rep = energy.duty_cycle_energy(profile, energy.DutyCycleConfig(bw, buf))
            assert rep.energy_per_bit_pj == pytest.approx(want, abs=5e-3)


def test_criterion_2_headline_numbers():
    with criterion(2, "headline-numbers", budget_s=5.0):
        profile = energy.DEFAULT_PROFILE
        assert profile.line_rate == 0.8e9
        assert energy.continuous_energy(profile) == pytest.approx(6.5, rel=0.01)
        assert profile.p_active_w == pytest.approx(5.2e-3, rel=0.01)
        peak = energy.bw_max(profile, 16 * 1024)
        assert abs(peak - 793e6) <= 1e6
        assert energy.compare_peripherals(profile, "single_spi", peak,
                                          mode="best") == pytest.approx(8.46, rel=0.01)
        assert energy.compare_peripherals(profile, "single_spi", 10e6,
                                          mode="same_bw") == pytest.approx(8.61, rel=0.01)
        assert energy.compare_peripherals(profile, "hyperbus", peak,
                                          mode="best") == pytest.approx(17.4, rel=0.01)


def test_criterion_3_codec_correctness():
    with criterion(3, "codec-correctness", budget_s=10.0):
        from reference_8b10b import ref_table
        rd_map = {-1: codec.Disparity.NEGATIVE, 1: codec.Disparity.POSITIVE}
        for (byte, is_control, rd), (want_code, want_rd) in ref_table().items():
            code, rd_out = codec.encode_symbol(codec.Symbol(byte, is_control),
                                               rd_map[rd])
            assert code == want_code and rd_out == rd_map[want_rd]
            sym, rd_dec = codec.decode_symbol(code, rd_map[rd])
            assert sym == codec.Symbol(byte, is_control) and rd_dec == rd_out

        rng = np.random.default_rng(101)
        rd = codec.Disparity.NEGATIVE
        flit_ints = np.empty(100_000, dtype=np.uint64)
        words = rng.integers(0, 2**32, 100_000, dtype=np.uint64)
        for i in range(100_000):
            flit_ints[i], rd = codec.encode_flit(codec.FlitKind.DATA, int(words[i]), rd)
        bits = ((flit_ints[:, None] >> np.arange(40, dtype=np.uint64)) & 1)
        sums = np.cumsum(np.where(bits.ravel() > 0, 1, -1))
        assert abs(sums).max() <= 4
        assert sums.max() - sums.min() <= 6


def test_criterion_4_datapath_inverse():
    with criterion(4, "datapath-inverse", budget_s=10.0):
        rng = np.random.default_rng(102)
        rd = codec.Disparity.NEGATIVE
        flit_bits = []
        for _ in range(10_000):
            word = int(rng.integers(0, 2**32, dtype=np.uint64))
            value, rd = codec.encode_flit(codec.FlitKind.DATA, word, rd)
            flit_bits.append(codec.flit_bits(value))

        # straight alignment
        ser, des = datapath.Serializer(), datapath.Deserializer()
        for bits in flit_bits:
            ser.load(bits)
            word = None
            for _ in range(20):
                pair, _ = ser.step()
                got = des.push(pair)
                word = got if got is not None else word
            assert word == sum(b << k for k, b in enumerate(bits))

        # one-bit-late channel recovered through the shift realigner
        ser = datapath.Serializer()
        wire = [0]
        for bits in flit_bits:
            ser.load(bits)
            for _ in range(20):
                pair, _ = ser.step()
                wire.extend(pair)
        wire.extend([0, 0])
        realigner = datapath.ShiftRealigner(shift=True)
        des = datapath.Deserializer()
        words = []
        for k, i in enumerate(range(0, len(wire) - 1, 2)):
            out = realigner.push(datapath.BitPair(wire[i], wire[i + 1]))
            if k == 0:
                continue  # realigner output lags one pair
            got = des.push(out)
            if got is not None:
                words.append(got)
        want = [sum(b << k for k, b in enumerate(bits)) for bits in flit_bits]
        assert words[:len(want)] == want


def test_criterion_5_cdr_behavior():
    with criterion(5, "cdr-behavior", budget_s=60.0):
        # (a) filter evaluation cadence = 16 fast-clock cycles at N=4
        state = cdr.CdrState(n=4)
        evals = []
        for batch in range(1, 33):
            cdr.loop_filter_update(state, 1)
            if state.batch_count % state.n == 0:
                evals.append(batch * (cdr.BATCH_BITS // 2))
        assert np.all(np.diff([0] + evals) == 16)

        # (b) lock from the worst-case initial phase within 0.64 us
        clean = phy.ChannelConfig(trace_length_cm=0.0)
        training = np.tile([1, 0], 4000)
        for phase in (1.0, 0.25):
            res = cdr.recover_stream(training, clean, n_bits=6000,
                                     initial_phase_ui=phase)
            assert res.lock_time_s is not None
            assert res.lock_time_s <= 0.64e-6

        # (c) zero bit errors over 1e6 bits at 0.4% frequency offset
        rng = np.random.default_rng(103)
        tx = rng.integers(0, 2, 1_030_000).astype(np.int8)
        res = cdr.recover_stream(tx, phy.ChannelConfig(trace_length_cm=2.0),
                                 n_bits=1_000_000, freq_offset=0.004,
                                 initial_phase_ui=0.5, keep_trace=False)
        assert res.slips == 0
        assert res.errors_against(tx) == 0

        # (d) slew capacity arithmetic, exact
        from fractions import Fraction
        capacity = cdr.slew_capacity_ui_per_ui(n=4, detectors=7)
        assert capacity == Fraction(7, 1024)
        assert float(capacity) == pytest.approx(0.0068, abs=2e-4)
        assert capacity > cdr.offset_drift_ui_per_ui(0.004) == Fraction(1, 250)


def test_criterion_6_end_to_end_protocol():
    with criterion(6, "end-to-end-protocol", budget_s=60.0):
        for scenario in ("tx_initiated", "rx_initiated"):
            cfg = node.LinkSimConfig(payload_bytes=16 * 1024, scenario=scenario)
            report = node.run_protocol(cfg)
            assert report.ok, report.diagnostic
            assert report.delivered_bytes == 16 * 1024
            assert report.mismatches == 0
            assert 0.6e-6 <= report.programming_latency_s <= 0.9e-6
            if scenario == "tx_initiated":
                t_gpio0 = next(t for t, s, v in report.gpio_edges
                               if s == "gpio0" and v)
                t_gpio1 = next(t for t, s, v in report.gpio_edges
                               if s == "gpio1" and v)
                assert (t_gpio0 < report.timestamps["rx_warm_en"]
                        < t_gpio1 < report.timestamps["first_data_bit"])
                assert report.timestamps["tx_comm_en"] > t_gpio1


def test_criterion_7_eye_diagrams():
    with criterion(7, "eye-diagrams", budget_s=30.0):
        rng = np.random.default_rng(104)
        bits = rng.integers(0, 2, 220)
        heights = {}
        for length, target in ((2.0, 0.418), (5.0, 0.386)):
            cfg = phy.ChannelConfig(trace_length_cm=length)
            eye = phy.eye_capture(phy.channel_apply(phy.drive(bits, cfg), cfg),
                                  n_ui=150)
            heights[length] = eye.eye_height_v
            assert eye.eye_height_v == pytest.approx(target, rel=0.05)
        assert heights[5.0] < heights[2.0]

        by_length = []
        for length in (0.0, 1.0, 2.0, 5.0, 8.0):
            cfg = phy.ChannelConfig(trace_length_cm=length)
            by_length.append(phy.eye_capture(
                phy.channel_apply(phy.drive(bits, cfg), cfg), n_ui=150).eye_height_v)
        assert all(a >= b - 1e-12 for a, b in zip(by_length, by_length[1:]))

        by_noise = []
        for sigma in (0.0, 0.01, 0.03):
            cfg = phy.ChannelConfig(trace_length_cm=2.0, noise_sigma_v=sigma)
            wave = phy.channel_apply(phy.drive(bits, cfg), cfg,
                                     rng=np.random.default_rng(9))
            by_noise.append(phy.eye_capture(wave, n_ui=150).eye_height_v)
        assert all(a >= b - 1e-12 for a, b in zip(by_noise, by_noise[1:]))


def test_criterion_8_determinism(tmp_path, capsys):
    with criterion(8, "determinism", budget_s=30.0):
        cfg = node.LinkSimConfig(payload_bytes=512, seed=11,
                                 channel=phy.ChannelConfig(
                                     noise_sigma_v=0.002, rj_sigma_s=1e-12))
        a = node.run_protocol(cfg)
        b = node.run_protocol(cfg)
        assert a.to_text() == b.to_text()
        assert a.events_csv() == b.events_csv()

        scenario = tmp_path / "scenario.cfg"
        scenario.write_text("[protocol]\npayload_bytes = 512\n"
                            "[channel]\nnoise_sigma_v = 0.002\n"
                            "[run]\nseed = 2\n")
        for sub, outs in (("run", ("transfer_report.txt", "transfer_events.csv")),
                          ("eye", ("eye.csv", "eye_summary.csv")),
                          ("energy", ("energy_curves.csv",)),
                          ("lock", ("lock_trace.csv",))):
            d1, d2 = tmp_path / f"{sub}1", tmp_path / f"{sub}2"
            args = [sub, "--config", str(scenario)]
            if sub == "lock":
                args += ["--bits", "8000"]
            assert cli.main(args + ["--out", str(d1)]) == 0
            assert cli.main(args + ["--out", str(d2)]) == 0
            for name in outs:
                assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        capsys.readouterr()  # the commands' summaries: a report shows only the verdict
