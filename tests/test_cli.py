import re
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from serlink.cli import ScenarioConfig, load_config, main
from serlink.errors import ConfigError
from serlink.node import MEMORY_BYTES


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing -----------------------------------------------------------

def test_defaults_are_the_nominal_operating_point():
    cfg = ScenarioConfig()
    assert cfg.clock_mhz == 400.0
    assert cfg.ui_s == pytest.approx(1.25e-9)
    assert cfg.cdr_n == 4
    assert cfg.swing_v == 0.44
    assert cfg.trace_cm == 2.0
    assert cfg.payload_bytes == 16 * 1024


def test_config_file_overrides(tmp_path):
    path = write(tmp_path, """
[link]
cdr_n = 8
freq_offset = 0.002

[channel]
trace_cm = 5.0
noise_sigma_v = 0.001

[protocol]
payload_bytes = 4096
scenario = rx_initiated

[run]
seed = 9
""")
    cfg = load_config(path)
    assert cfg.cdr_n == 8 and cfg.freq_offset == 0.002
    assert cfg.trace_cm == 5.0 and cfg.noise_sigma_v == 0.001
    assert cfg.scenario == "rx_initiated" and cfg.payload_bytes == 4096
    assert cfg.seed == 9
    assert cfg.config_hash != "defaults"


def test_unknown_key_reports_line_number(tmp_path):
    path = write(tmp_path, "[link]\ncdr_n = 4\nwarp_factor = 9\n")
    with pytest.raises(ConfigError, match=r":3: unknown key 'warp_factor'"):
        load_config(path)


def test_unknown_section_and_syntax_errors(tmp_path):
    with pytest.raises(ConfigError, match=r":1: unknown section"):
        load_config(write(tmp_path, "[warp]\n"))
    with pytest.raises(ConfigError, match=r":2: expected key = value"):
        load_config(write(tmp_path, "[link]\ncdr_n 4\n"))
    with pytest.raises(ConfigError, match=r":1: key outside"):
        load_config(write(tmp_path, "cdr_n = 4\n"))
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(write(tmp_path, "[link]\ncdr_n = four\n"))


def test_malformed_config_exits_with_usage_code(tmp_path, capsys):
    path = write(tmp_path, "[link]\nbogus = 1\n")
    rc = main(["run", "--config", path])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-400", "nan"])
def test_clock_mhz_must_be_positive(tmp_path, capsys, value):
    path = write(tmp_path, f"[link]\nclock_mhz = {value}\n")
    with pytest.raises(ConfigError, match="clock_mhz"):
        load_config(path)
    assert main(["ber", "--config", path, "--bits", "1000"]) == 2
    assert "clock_mhz" in capsys.readouterr().err
    slowest = write(tmp_path, "[link]\nclock_mhz = 1\n")
    assert load_config(slowest).clock_mhz == 1.0


@pytest.mark.parametrize("value", [0, -4, 6, MEMORY_BYTES + 4])
def test_payload_bytes_must_be_words_that_fit_node_memory(tmp_path, capsys, value):
    path = write(tmp_path, f"[protocol]\npayload_bytes = {value}\n")
    with pytest.raises(ConfigError, match="payload_bytes"):
        load_config(path)
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    assert "payload_bytes" in capsys.readouterr().err
    largest = write(tmp_path, f"[protocol]\npayload_bytes = {MEMORY_BYTES}\n")
    assert load_config(largest).payload_bytes == MEMORY_BYTES


@pytest.mark.parametrize("section,key,value", [
    ("link", "clock_mhz", "inf"),
    ("link", "clock_mhz", "1e12"),
    ("link", "clock_mhz", "1e-300"),
    ("link", "clock_mhz", "0.5"),
    ("link", "cdr_n", "3"),
    ("link", "freq_offset", "-1"),
    ("link", "initial_phase_ui", "nan"),
    ("channel", "swing_v", "-1"),
    ("channel", "swing_v", "1e308"),
    ("channel", "noise_sigma_v", "-1"),
    ("channel", "noise_sigma_v", "1e308"),
    ("channel", "trace_cm", "-1"),
    ("channel", "rj_sigma_ps", "-1"),
    ("channel", "prop_delay_ps", "-1"),
    ("channel", "rise_time_ui", "3"),
    ("protocol", "line_cost_cycles", "-1"),
    ("run", "seed", "-1"),
])
def test_out_of_range_key_exits_with_usage_code(tmp_path, capsys, section, key, value):
    path = write(tmp_path, f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    assert main(["ber", "--config", path, "--bits", "1000"]) == 2
    assert key in capsys.readouterr().err


def test_seed_option_is_checked_like_the_seed_key(capsys):
    assert main(["ber", "--seed", "-1", "--bits", "1000"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_energy_applies_the_seed_option(tmp_path, capsys):
    assert main(["energy", "--seed", "5", "--out", str(tmp_path)]) == 0
    provenance = (tmp_path / "energy_curves.csv").read_text().splitlines()[0]
    assert provenance.endswith(" seed=5")
    assert main(["energy", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err


SCHEMA = {f.name: f.metadata for f in fields(ScenarioConfig) if "section" in f.metadata}


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(SCHEMA)),
       value=st.text(st.characters(blacklist_categories=("Cs",))))
def test_any_value_text_loads_or_raises_config_error(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(f"[{SCHEMA[key]['section']}]\n{key} = {value}\n",
                        encoding="utf-8")
        try:
            assert isinstance(load_config(str(path)), ScenarioConfig)
        except ConfigError:
            pass


def test_readme_lists_every_key_with_its_section_and_range():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `\[(\w+)\]` \| (.*?) \|", readme, re.M)
    assert {key: (section, rule) for key, section, rule in rows} == {
        key: (meta["section"], meta["rule"])
        for key, meta in SCHEMA.items()}


# -- subcommands ---------------------------------------------------------------

def test_run_small_transfer(tmp_path, capsys):
    path = write(tmp_path, "[protocol]\npayload_bytes = 512\n")
    rc = main(["run", "--config", path, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ok: True" in out and "delivered_bytes: 512" in out
    report = (tmp_path / "transfer_report.txt").read_text()
    assert report.startswith("# serlink")
    events = (tmp_path / "transfer_events.csv").read_text()
    assert events.splitlines()[1] == "time_ns,node,signal,value"


def test_run_large_offset_fails_with_loss_of_lock(tmp_path, capsys):
    path = write(tmp_path, "[link]\nfreq_offset = 0.02\n"
                           "[protocol]\npayload_bytes = 1024\n")
    rc = main(["run", "--config", path, "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "LossOfLock" in captured.out + captured.err


def test_eye_outputs(tmp_path, capsys):
    rc = main(["eye", "--out", str(tmp_path)])
    assert rc == 0
    summary = (tmp_path / "eye_summary.csv").read_text().splitlines()
    height = float(summary[2].split(",")[0])
    assert height == pytest.approx(0.418, rel=0.05)
    assert (tmp_path / "eye.csv").read_text().splitlines()[1] == \
        "phase_bin,voltage_bin,count"


def test_energy_outputs_and_comparison(tmp_path, capsys):
    rc = main(["energy", "--out", str(tmp_path), "--compare", "spi"])
    assert rc == 0
    curves = (tmp_path / "energy_curves.csv").read_text().splitlines()
    assert curves[1] == "bandwidth_mbps,buffer_kb,energy_pj_per_bit"
    assert len(curves) == 2 + 40
    ratios = (tmp_path / "energy_ratios.csv").read_text()
    best = float(ratios.splitlines()[2].split(",")[2])
    assert best == pytest.approx(8.46, rel=0.01)


def test_ber_rejects_nonpositive_bits(tmp_path, capsys):
    # each count or curve name is checked while parsing, before any output
    # or allocation: one past an upper bound would need gigabytes
    for argv in (["ber", "--bits", "0"], ["lock", "--bits", "0"],
                 ["ber", "--bits", "7"], ["lock", "--bits", "7"],
                 ["eye", "--ui", "0"], ["eye", "--ui", "1"], ["eye", "--ui", "-10"],
                 ["eye", "--ui", "1000001"], ["ber", "--bits", "40000001"],
                 ["lock", "--bits", "10000001"], ["eye", "--ui", "1000000000000"],
                 ["energy", "--compare", "bogus"]):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 2
        assert argv[1] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert peak < 1_000_000


def test_ber_that_outruns_its_input_is_a_domain_failure(tmp_path, capsys):
    # in-range jitter this large samples past the end of the transmitted bits
    path = write(tmp_path, "[channel]\nrj_sigma_ps = 1e300\n")
    assert main(["ber", "--config", path, "--bits", "1000"]) == 1
    assert "OutOfRange" in capsys.readouterr().err


def test_run_that_samples_outside_the_waveform_is_a_domain_failure(tmp_path, capsys):
    path = write(tmp_path, "[channel]\nrj_sigma_ps = 10000\n"
                           "[protocol]\npayload_bytes = 256\n")
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 1
    assert "FAILED: OutOfRange: " in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["2", "4"])
def test_ber_jitter_before_the_first_sample(tmp_path, seed):
    # the first edge sample sits at t = 0; jitter moves it before the waveform
    path = write(tmp_path, "[link]\ninitial_phase_ui = 0\n[channel]\nrj_sigma_ps = 3\n")
    assert main(["ber", "--config", path, "--bits", "2000", "--seed", seed]) == 0


def test_ber_counts_only_the_bits_it_recovered(capsys):
    # the loop recovers whole 8-bit batches, so 15 requested bits are 8
    assert main(["ber", "--bits", "15"]) == 0
    assert capsys.readouterr().out.startswith("bits=8 errors=0 ber=0.000e+00 ")
    assert main(["ber", "--bits", "16"]) == 0
    assert capsys.readouterr().out.startswith("bits=16 ")


def test_ber_small_clean_run(capsys):
    rc = main(["ber", "--bits", "20000"])
    assert rc == 0
    assert "errors=0" in capsys.readouterr().out


def test_lock_trace_output(tmp_path, capsys):
    path = write(tmp_path, "[channel]\ntrace_cm = 0.0\n"
                           "[link]\ninitial_phase_ui = 0.25\n")
    rc = main(["lock", "--config", path, "--out", str(tmp_path), "--bits", "8000"])
    assert rc == 0
    lines = (tmp_path / "lock_trace.csv").read_text().splitlines()
    assert lines[1] == "time_ns,pi_code,phase_error_ui"
    assert "lock_time=" in capsys.readouterr().out


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    path = write(tmp_path, "[protocol]\npayload_bytes = 512\n[run]\nseed = 4\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    for name in ("transfer_report.txt", "transfer_events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert main(["eye", "--config", path, "--out", str(out1)]) == 0
    assert main(["eye", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "eye.csv").read_bytes() == (out2 / "eye.csv").read_bytes()


@pytest.mark.parametrize("argv", [["run"], ["eye"], ["energy", "--compare", "spi"]])
def test_multi_file_commands_reject_a_file_out(tmp_path, capsys, argv):
    out = tmp_path / "report.txt"
    assert main(argv + ["--out", str(out)]) == 2
    assert "--out" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_single_file_commands_accept_a_file_out(tmp_path, capsys):
    assert main(["lock", "--bits", "2000", "--out", str(tmp_path / "trace.csv")]) == 0
    assert main(["energy", "--out", str(tmp_path / "curves.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves.csv", "trace.csv"]


def test_unwritable_out_exits_with_usage_code(tmp_path, capsys):
    missing = tmp_path / "missing" / "trace.csv"
    assert main(["lock", "--bits", "2000", "--out", str(missing)]) == 2
    assert "--out" in capsys.readouterr().err
    (tmp_path / "blocker").write_text("")  # a file where a directory must go
    assert main(["eye", "--out", str(tmp_path / "blocker" / "eyes")]) == 2
    assert "--out" in capsys.readouterr().err
