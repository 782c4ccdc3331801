import hashlib
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from serlink import phy
from serlink.cli import CONFIG_KEYS, load_config, main
from serlink.errors import ConfigError
from serlink.node import MEMORY_BYTES, LinkSimConfig


def write(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- config parsing -----------------------------------------------------------

def test_defaults_are_the_nominal_operating_point():
    assert load_config() == (LinkSimConfig(), "defaults")
    cfg, _ = load_config()
    assert cfg.ui_s == 1.0 / (2.0 * 400.0 * 1e6)
    assert cfg.ui_s == pytest.approx(1.25e-9)
    assert cfg.cdr_n == 4
    assert cfg.channel.swing == 0.44
    assert cfg.channel.trace_length_cm == 2.0
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
    cfg, config_hash = load_config(path)
    assert cfg.cdr_n == 8 and cfg.freq_offset == 0.002
    assert cfg.channel.trace_length_cm == 5.0 and cfg.channel.noise_sigma_v == 0.001
    assert cfg.scenario == "rx_initiated" and cfg.payload_bytes == 4096
    assert cfg.seed == 9
    assert config_hash != "defaults"


# every config key away from its default, each in its file unit
ALL_KEYS_CFG = """
[link]
clock_mhz = 300
cdr_n = 8
pd_boundary = false
freq_offset = 0.001
initial_phase_ui = 0.5

[channel]
swing_v = 0.5
trace_cm = 3.0
noise_sigma_v = 0.005
rj_sigma_ps = 3
prop_delay_ps = 40
rise_time_ui = 0.2

[protocol]
scenario = rx_initiated
payload_bytes = 512
rx_release_pin = own
line_cost_cycles = 5

[run]
seed = 7
"""


def test_every_key_sets_its_model_field_in_model_units(tmp_path):
    cfg, _ = load_config(write(tmp_path, ALL_KEYS_CFG))
    assert cfg == LinkSimConfig(
        channel=phy.ChannelConfig(swing=0.5, trace_length_cm=3.0, prop_delay_s=40e-12,
                                  noise_sigma_v=0.005, rj_sigma_s=3e-12,
                                  rise_time_ui=0.2),
        scenario="rx_initiated", payload_bytes=512, freq_offset=0.001, cdr_n=8,
        initial_phase_ui=0.5, include_boundary_pd=False, seed=7,
        ui_s=1.0 / (2.0 * 300e6), line_cost_cycles=5, rx_release_pin="own")


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


def test_a_key_given_twice_is_rejected(tmp_path, capsys):
    path = write(tmp_path, "[link]\ncdr_n = 4\n\ncdr_n = 8\n")
    with pytest.raises(ConfigError, match=r":4: cdr_n already set on line 2$"):
        load_config(path)
    # also across sections of the same name, and for identical values
    path = write(tmp_path, "[run]\nseed = 3\n[link]\ncdr_n = 4\n[run]\nseed = 3\n")
    assert main(["ber", "--config", path, "--bits", "1000"]) == 2
    assert "seed already set on line 2" in capsys.readouterr().err


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
    assert load_config(slowest)[0].ui_s == 1.0 / (2.0 * 1.0 * 1e6)


@pytest.mark.parametrize("value", [0, -4, 6, MEMORY_BYTES + 4])
def test_payload_bytes_must_be_words_that_fit_node_memory(tmp_path, capsys, value):
    path = write(tmp_path, f"[protocol]\npayload_bytes = {value}\n")
    with pytest.raises(ConfigError, match="payload_bytes"):
        load_config(path)
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    assert "payload_bytes" in capsys.readouterr().err
    largest = write(tmp_path, f"[protocol]\npayload_bytes = {MEMORY_BYTES}\n")
    assert load_config(largest)[0].payload_bytes == MEMORY_BYTES


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


def test_line_cost_is_bounded(tmp_path, capsys):
    # the watchdog deadline scales with the line cost, so an unbounded
    # cost would simulate without end
    largest = write(tmp_path, "[protocol]\nline_cost_cycles = 1000\n")
    assert load_config(largest)[0].line_cost_cycles == 1000
    path = write(tmp_path, "[protocol]\nline_cost_cycles = 1001\n")
    assert main(["run", "--config", path, "--out", str(tmp_path)]) == 2
    assert "line_cost_cycles" in capsys.readouterr().err


def test_seed_option_is_checked_like_the_seed_key(capsys):
    assert main(["ber", "--seed", "-1", "--bits", "1000"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_energy_applies_the_seed_option(tmp_path, capsys):
    assert main(["energy", "--seed", "5", "--out", str(tmp_path)]) == 0
    provenance = (tmp_path / "energy_curves.csv").read_text().splitlines()[0]
    assert provenance.endswith(" seed=5")
    assert main(["energy", "--seed", "-1", "--out", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err


@settings(max_examples=200, deadline=None)
@given(key=st.sampled_from(sorted(CONFIG_KEYS)),
       value=st.text(st.characters(blacklist_categories=("Cs",))))
def test_any_value_text_loads_or_raises_config_error(key, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(f"[{CONFIG_KEYS[key].section}]\n{key} = {value}\n",
                        encoding="utf-8")
        try:
            assert isinstance(load_config(str(path))[0], LinkSimConfig)
        except ConfigError:
            pass


# file values of each annotation, in and out of every key's range
_FILE_VALUES = {
    "float": st.one_of(st.floats(), st.floats(-2, 2), st.floats(0, 20000),
                       st.sampled_from([0.0, 1.0, 2.0, 1000.0, 10000.0, 5e-324])),
    "int": st.one_of(st.integers(), st.integers(-8, 1 << 18),
                     st.sampled_from([0, 4, 6, 128, 1000, 1001, MEMORY_BYTES + 4])),
    "bool": st.sampled_from([True, False]),
    "str": st.sampled_from(["tx_initiated", "rx_initiated", "peer", "own", "rx", "Own"]),
}


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(CONFIG_KEYS)), data=st.data())
def test_the_cli_rejects_a_value_exactly_when_the_model_does(key, data):
    spec = CONFIG_KEYS[key]
    value = data.draw(_FILE_VALUES[spec.model.__dataclass_fields__[spec.field].type])
    try:
        converted = value if spec.convert is None else spec.convert(value)
        spec.model(**{spec.field: converted})
    except (ValueError, ZeroDivisionError):  # clock_mhz = 0 has no unit interval
        converted = None
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "agree.cfg"
        path.write_text(f"[{spec.section}]\n{key} = {value}\n", encoding="utf-8")
        if converted is None:
            with pytest.raises(ConfigError, match=f": {key} must be "):
                load_config(str(path))
        else:
            cfg = load_config(str(path))[0]
            model = cfg.channel if spec.model is phy.ChannelConfig else cfg
            assert getattr(model, spec.field) == converted


def test_readme_lists_every_key_with_its_section_and_range():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| `\[(\w+)\]` \| (.*?) \|", readme, re.M)
    assert {key: (section, rule) for key, section, rule in rows} == {
        key: (spec.section, spec.rule) for key, spec in CONFIG_KEYS.items()}


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


def test_run_decode_failure_exits_with_domain_code(tmp_path, capsys):
    path = write(tmp_path, "[channel]\nnoise_sigma_v = 0.08\n"
                           "[protocol]\npayload_bytes = 64\n")
    rc = main(["run", "--config", path, "--out", str(tmp_path)])
    assert rc == 1
    assert "FAILED: decode failure during transfer: lane 3" in capsys.readouterr().err


def test_eye_outputs(tmp_path, capsys):
    rc = main(["eye", "--out", str(tmp_path)])
    assert rc == 0
    summary = (tmp_path / "eye_summary.csv").read_text().splitlines()
    height = float(summary[2].split(",")[0])
    assert height == pytest.approx(0.418, rel=0.05)
    assert (tmp_path / "eye.csv").read_text().splitlines()[1] == \
        "phase_bin,voltage_bin,count"
    assert capsys.readouterr().out.startswith("eye_height_v=")


def test_energy_outputs_and_comparison(tmp_path, capsys):
    rc = main(["energy", "--out", str(tmp_path), "--compare", "spi"])
    assert rc == 0
    curves = (tmp_path / "energy_curves.csv").read_text().splitlines()
    assert curves[1] == "bandwidth_mbps,buffer_kb,energy_pj_per_bit"
    assert len(curves) == 2 + 40
    ratios = (tmp_path / "energy_ratios.csv").read_text()
    best = float(ratios.splitlines()[2].split(",")[2])
    assert best == pytest.approx(8.46, rel=0.01)
    assert capsys.readouterr().out.startswith("continuous: ")


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
def test_ber_jitter_before_the_first_sample(tmp_path, capsys, seed):
    # the first edge sample sits at t = 0; jitter moves it before the waveform
    path = write(tmp_path, "[link]\ninitial_phase_ui = 0\n[channel]\nrj_sigma_ps = 3\n")
    assert main(["ber", "--config", path, "--bits", "2000", "--seed", seed]) == 0
    assert capsys.readouterr().out.startswith("bits=2000 ")


def test_ber_counts_only_the_bits_it_recovered(capsys):
    # the loop recovers whole 8-bit batches, so 15 requested bits are 8
    assert main(["ber", "--bits", "15"]) == 0
    assert capsys.readouterr().out.startswith("bits=8 errors=0 ber=0.000e+00 ")
    assert main(["ber", "--bits", "16"]) == 0
    assert capsys.readouterr().out.startswith("bits=16 ")


@pytest.mark.parametrize("offset", ["0.5", "1.0", "-0.99"])
def test_ber_and_lock_size_the_pattern_for_the_offset(tmp_path, capsys, offset):
    # a fast transmitter sends up to twice the bits the receiver recovers
    path = write(tmp_path, f"[link]\nfreq_offset = {offset}\n")
    for command in ("ber", "lock"):
        main([command, "--config", path, "--bits", "4000", "--out", str(tmp_path)])
        assert "OutOfRange" not in capsys.readouterr().err
    lines = (tmp_path / "lock_trace.csv").read_text().splitlines()
    assert len(lines) == 2 + 4000 // 8


def test_ber_small_clean_run(capsys):
    rc = main(["ber", "--bits", "20000"])
    assert rc == 0
    assert "errors=0" in capsys.readouterr().out


def test_lock_that_slips_exits_1_like_ber(tmp_path, capsys):
    # a 6% offset outruns the loop's slew: both commands report the slips
    path = write(tmp_path, "[link]\nfreq_offset = 0.06\n")
    for command in ("ber", "lock"):
        rc = main([command, "--config", path, "--bits", "8000", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        slips = int(out.split("slips=")[1].split()[0])
        assert slips > 0 and rc == 1, (command, out)
    assert (tmp_path / "lock_trace.csv").exists()  # written before the exit code
    assert main(["lock", "--bits", "8000", "--out", str(tmp_path)]) == 0
    assert "slips=0" in capsys.readouterr().out


def test_lock_trace_output(tmp_path, capsys):
    path = write(tmp_path, "[channel]\ntrace_cm = 0.0\n"
                           "[link]\ninitial_phase_ui = 0.25\n")
    rc = main(["lock", "--config", path, "--out", str(tmp_path), "--bits", "8000"])
    assert rc == 0
    lines = (tmp_path / "lock_trace.csv").read_text().splitlines()
    assert lines[1] == "time_ns,pi_code,phase_error_ui"
    assert "lock_time=" in capsys.readouterr().out


# sha256 of stdout + stderr, the exit code and sha256 of each written file,
# per command on ALL_KEYS_CFG; a change to how a key reaches the model
# moves a digest
_PINNED_COMMANDS = {
    "run": ((), 0,
            "83d691af9d66bd27119cc32c0a50ea472acfcb848db818990ec4c683154680e3", {
                "transfer_events.csv":
                    "5ecd41a7fea653b440fec4f475abb636cd47f9930b8e04d35098c6ec64cc4bb5",
                "transfer_report.txt":
                    "337eb41f40ffeb6c9b9afc3ac7ba0d10ae8ecf90c21d546ca1325ad3e735bfc6"}),
    "eye": (("--ui", "2000"), 0,
            "ee820cba4372aa7bdd907ade4b9baff48dee101f6c552ef233bc3e1267dfbd70", {
                "eye.csv":
                    "f665d67ca967a180d7f19fb179a914301526614950231687be42dd3ed2ffe3fa",
                "eye_summary.csv":
                    "9f10ef9f073be586a1a48131e082909dae664d43cdf68880c217473aed8c85f1"}),
    "ber": (("--bits", "20000"), 0,
            "2f932d49507b50d630c1bcda1c020e69a0eba63545b91c81cedbac056f710dc6", {}),
    "lock": (("--bits", "8000"), 0,
             "41fec3325a8800986cc58b2e39ed17a101fc3d36f1a32fc71b1c8c547680e343", {
                 "lock_trace.csv":
                     "cfbc67c30bc2a8c0edc2a78ce97149d48523f7ce26d210c8e14ceab131a6dde9"}),
    "energy": (("--compare", "spi"), 0,
               "b7562558b3d61c1cd6ec37322cdc75f0b26c286660fc8276b60a79ae1937a1bb", {
                   "energy_curves.csv":
                       "b263bfb899496087ad4bcf9193e1e088142960ee3ac7be0a7db1b0c02d6a6a20",
                   "energy_ratios.csv":
                       "8b5b900b3c4826d3a06500f0b788f4d6b92987118c8475f23eb93b25eca11956"}),
}

def _sha(data):
    return hashlib.sha256(data).hexdigest()


def test_command_outputs_are_pinned(tmp_path, capsys):
    path = write(tmp_path, ALL_KEYS_CFG)
    moved = []
    for command, (extra, code, output, files) in _PINNED_COMMANDS.items():
        out = tmp_path / command
        rc = main([command, "--config", path, "--out", str(out), *extra])
        captured = capsys.readouterr()
        written = {p.name: _sha(p.read_bytes()) for p in sorted(out.glob("*"))}
        if (rc, _sha((captured.out + captured.err).encode()), written) != \
                (code, output, files):
            moved.append(command)
    assert moved == []


def test_outputs_are_byte_identical_across_reruns(tmp_path, capsys):
    path = write(tmp_path, "[protocol]\npayload_bytes = 512\n[run]\nseed = 4\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out1)]) == 0
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    for name in ("transfer_report.txt", "transfer_events.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert main(["eye", "--config", path, "--out", str(out1)]) == 0
    assert main(["eye", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "eye.csv").read_bytes() == (out2 / "eye.csv").read_bytes()
    capsys.readouterr()  # the commands' summaries


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
    capsys.readouterr()  # the commands' summaries


def test_unwritable_out_exits_with_usage_code(tmp_path, capsys):
    missing = tmp_path / "missing" / "trace.csv"
    assert main(["lock", "--bits", "2000", "--out", str(missing)]) == 2
    assert "--out" in capsys.readouterr().err
    (tmp_path / "blocker").write_text("")  # a file where a directory must go
    assert main(["eye", "--out", str(tmp_path / "blocker" / "eyes")]) == 2
    assert "--out" in capsys.readouterr().err
