"""Scenario runner: config parsing, simulation orchestration, CSV output.

Subcommands: run (two-chip transfer), eye (eye-diagram capture), energy
(duty-cycle sweep and peripheral comparison), ber (closed-loop bit error
rate), lock (CDR phase trace).  All outputs are deterministic for a
given config and seed, carry a header row and a provenance comment, and
are written atomically.

Exit codes: 0 success, 1 domain failure (lost lock, data mismatch,
infeasible request), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np
from scipy import stats

from . import __version__, cdr, energy, node, phy
from .errors import ConfigError, CurveOutOfRange, LinkError


def _key(section, default, rule=None, valid=None):
    """A config-file key in ``[section]``; ``valid`` tests the range ``rule`` states."""
    return field(default=default,
                 metadata={"section": section, "rule": rule, "valid": valid})


_NON_NEGATIVE = (">= 0", lambda v: v >= 0)


@dataclass
class ScenarioConfig:
    """Parsed simulation parameters; defaults are the nominal operating
    point (400 MHz clock, 0.8 Gbps, N=4, 0.44 V swing, 2 cm trace).

    Every field but ``config_hash`` is a config-file key; its metadata
    is the only declaration of the key's section and accepted range.
    Float values must also be finite.
    """

    # a UI of at least 50 ps, so an 8-UI quantum spans many ticks of the
    # event scheduler's 1 ps grid, and at most 0.5 us, so the 50 MHz MCU
    # polls at most 25 times per UI and a slow run stays short
    clock_mhz: float = _key("link", 400.0, "in [1, 10000]", lambda v: 1 <= v <= 10000)
    cdr_n: int = _key("link", 4, f"one of {cdr.VALID_DIVIDERS}",
                      lambda v: v in cdr.VALID_DIVIDERS)
    pd_boundary: bool = _key("link", True, "true or false")
    freq_offset: float = _key("link", 0.0, "in (-1, 1]", lambda v: -1 < v <= 1)
    initial_phase_ui: float = _key("link", 0.25, "in [0, 2)", lambda v: 0 <= v < 2)
    # swing and noise in volts, each at most 1000: far past any CMOS link,
    # and small enough that every rendered sample (a level of swing/2 plus
    # a noise draw of many sigma) and an eye's voltage span stay finite;
    # a 1e308 noise sigma overflows the draw to inf, and no eye bins exist
    swing_v: float = _key("channel", 0.44, "in (0, 1000]", lambda v: 0 < v <= 1000)
    trace_cm: float = _key("channel", 2.0, *_NON_NEGATIVE)
    noise_sigma_v: float = _key("channel", 0.0, "in [0, 1000]", lambda v: 0 <= v <= 1000)
    rj_sigma_ps: float = _key("channel", 0.0, *_NON_NEGATIVE)
    prop_delay_ps: float = _key("channel", 0.0, *_NON_NEGATIVE)
    rise_time_ui: float = _key("channel", 0.1, "in [0, 1]", lambda v: 0 <= v <= 1)
    scenario: str = _key("protocol", "tx_initiated", "tx_initiated or rx_initiated",
                         lambda v: v in ("tx_initiated", "rx_initiated"))
    payload_bytes: int = _key("protocol", 16 * 1024, node.PAYLOAD_RULE,
                              node.payload_fits)
    rx_release_pin: str = _key("protocol", "peer", "peer or own",
                               lambda v: v in ("peer", "own"))
    line_cost_cycles: int = _key("protocol", 3, *_NON_NEGATIVE)
    seed: int = _key("run", 1, *_NON_NEGATIVE)
    config_hash: str = field(default="defaults", repr=False)

    @property
    def ui_s(self):
        return 1.0 / (2.0 * self.clock_mhz * 1e6)

    def channel_config(self):
        return phy.ChannelConfig(
            swing=self.swing_v,
            trace_length_cm=self.trace_cm,
            noise_sigma_v=self.noise_sigma_v,
            rj_sigma_s=self.rj_sigma_ps * 1e-12,
            prop_delay_s=self.prop_delay_ps * 1e-12,
            rise_time_ui=self.rise_time_ui,
        )

    def link_sim_config(self):
        return node.LinkSimConfig(
            channel=self.channel_config(),
            scenario=self.scenario,
            payload_bytes=self.payload_bytes,
            freq_offset=self.freq_offset,
            cdr_n=self.cdr_n,
            initial_phase_ui=self.initial_phase_ui,
            include_boundary_pd=self.pd_boundary,
            seed=self.seed,
            ui_s=self.ui_s,
            line_cost_cycles=self.line_cost_cycles,
            rx_release_pin=self.rx_release_pin,
        )


_KEYS = {f.name: f for f in fields(ScenarioConfig) if "section" in f.metadata}


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
_PARSERS = {"bool": lambda raw: _BOOLS[raw.lower()], "float": float, "int": int,
            "str": str}


def _check(cfg, where):
    """Raise ConfigError naming the first key whose value is out of range."""
    for key, f in _KEYS.items():
        value, valid = getattr(cfg, key), f.metadata["valid"]
        finite = f.type != "float" or math.isfinite(value)
        if not finite or (valid is not None and not valid(value)):
            also = "finite and " if f.type == "float" else ""
            raise ConfigError(f"{where}: {key} must be {also}{f.metadata['rule']}, "
                              f"got {value!r}")


def load_config(path=None):
    """Read a sectioned key = value file; unknown and out-of-range keys are rejected."""
    cfg = ScenarioConfig()
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cfg.config_hash = hashlib.sha256(text.encode()).hexdigest()[:12]
    sections = {f.metadata["section"] for f in _KEYS.values()}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in sections:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        f = _KEYS.get(key)
        if f is None or f.metadata["section"] != section:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        parse = _PARSERS[f.type]
        try:
            setattr(cfg, key, parse(raw))
        except (KeyError, ValueError):  # KeyError: not a bool spelling
            raise ConfigError(f"{path}:{lineno}: {key}: cannot parse {raw!r} as {f.type}")
    _check(cfg, path)
    return cfg


def _scenario(args):
    """The --config scenario, with --seed applied and checked."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        _check(cfg, "--seed")
    return cfg


def _provenance(cfg):
    return f"# serlink {__version__} config_sha256={cfg.config_hash} seed={cfg.seed}"


def _write_atomic(path, text):
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"--out: cannot write {path}: {exc.strerror}")


def _out_paths(args, *names):
    """Resolve --out to one path per output file, before any work is done.

    A directory (existing, ending in a separator or without an extension)
    receives every file; a file path suits only single-file commands.
    """
    out = args.out or "."
    if os.path.isdir(out) or out.endswith(os.sep) or not os.path.splitext(out)[1]:
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {out!r}: cannot create directory: {exc.strerror}")
        return [os.path.join(out, name) for name in names]
    if len(names) > 1:
        raise ConfigError(f"--out {out!r} is a file, but this command writes "
                          f"{len(names)} files ({', '.join(names)}); give a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError(f"--out {out!r}: directory does not exist")
    return [out]


def cmd_run(args):
    cfg = _scenario(args)
    report_path, events_path = _out_paths(args, "transfer_report.txt",
                                          "transfer_events.csv")
    report = node.run_protocol(cfg.link_sim_config())
    _write_atomic(report_path, _provenance(cfg) + "\n" + report.to_text())
    _write_atomic(events_path, _provenance(cfg) + "\n" + report.events_csv())
    print(report.to_text(), end="")
    if not report.ok:
        print(f"FAILED: {report.diagnostic}", file=sys.stderr)
        return 1
    return 0


def cmd_eye(args):
    cfg = _scenario(args)
    eye_path, summary_path = _out_paths(args, "eye.csv", "eye_summary.csv")
    channel = cfg.channel_config()
    rng = np.random.default_rng([cfg.seed, 0xE1])
    bits = rng.integers(0, 2, args.ui + 64)
    wave = phy.channel_apply(phy.drive(bits, channel, ui_s=cfg.ui_s), channel,
                             rng=np.random.default_rng([cfg.seed, 0xE2]))
    eye = phy.eye_capture(wave, ui_s=cfg.ui_s, n_ui=args.ui)
    rows = ["phase_bin,voltage_bin,count"]
    nz = np.argwhere(eye.counts > 0)
    for i, j in nz:
        rows.append(f"{i},{j},{int(eye.counts[i, j])}")
    _write_atomic(eye_path, _provenance(cfg) + "\n" + "\n".join(rows) + "\n")
    summary = (f"eye_height_v,eye_width_ui\n"
               f"{eye.eye_height_v:.6f},{eye.eye_width_ui:.6f}\n")
    _write_atomic(summary_path, _provenance(cfg) + "\n" + summary)
    print(f"eye_height_v={eye.eye_height_v:.4f} eye_width_ui={eye.eye_width_ui:.4f}")
    return 0


def cmd_energy(args):
    cfg = _scenario(args)
    paths = _out_paths(args, "energy_curves.csv",
                       *(["energy_ratios.csv"] if args.compare else []))
    profile = energy.DEFAULT_PROFILE
    rows = ["bandwidth_mbps,buffer_kb,energy_pj_per_bit"]
    for bw, kb, pj in energy.energy_sweep(profile):
        rows.append(f"{bw:g},{kb:g},{pj:.9f}")
    _write_atomic(paths[0], _provenance(cfg) + "\n" + "\n".join(rows) + "\n")
    peak = energy.bw_max(profile, energy.BUFFER_BYTES)
    print(f"continuous: {energy.continuous_energy(profile):.4f} pJ/bit at "
          f"{profile.line_rate / 1e9:.1f} Gbps; bw_max(16KB) = {peak / 1e6:.1f} Mbps")
    if args.compare:
        ratios = ["comparison,bandwidth_mbps,ratio"]
        best = energy.compare_peripherals(profile, args.compare, peak, mode="best")
        ratios.append(f"{args.compare}_best_vs_link_at_bw_max,{peak / 1e6:.3f},{best:.4f}")
        for bw_mbps in (10.0,):
            try:
                same = energy.compare_peripherals(profile, args.compare,
                                                  bw_mbps * 1e6, mode="same_bw")
            except CurveOutOfRange:
                continue
            ratios.append(f"{args.compare}_same_bw,{bw_mbps:g},{same:.4f}")
        _write_atomic(paths[1], _provenance(cfg) + "\n" + "\n".join(ratios) + "\n")
        print("\n".join(ratios[1:]))
    return 0


def cmd_ber(args):
    cfg = _scenario(args)
    rng = np.random.default_rng([cfg.seed, 0xBE])
    margin = int(args.bits * (abs(cfg.freq_offset) + 0.002)) + 2048
    tx_bits = rng.integers(0, 2, args.bits + margin).astype(np.int8)
    result = cdr.recover_stream(
        tx_bits, cfg.channel_config(), n_bits=args.bits, n=cfg.cdr_n,
        freq_offset=cfg.freq_offset, initial_phase_ui=cfg.initial_phase_ui,
        ui_s=cfg.ui_s, seed=cfg.seed, include_boundary=cfg.pd_boundary,
        keep_trace=False)
    # the loop recovers whole batches: a count not a multiple of 8 rounds down
    n_bits = len(result.bits)
    errors = result.errors_against(tx_bits) + result.slips
    ber = errors / n_bits
    upper = float(stats.beta.ppf(0.95, errors + 1, n_bits - errors)) \
        if errors < n_bits else 1.0
    print(f"bits={n_bits} errors={errors} ber={ber:.3e} "
          f"ber_upper95={upper:.3e} slips={result.slips}")
    return 0 if result.slips == 0 else 1


def cmd_lock(args):
    cfg = _scenario(args)
    (trace_path,) = _out_paths(args, "lock_trace.csv")
    bits = np.tile([1, 0], (args.bits + 2048) // 2)  # training pattern
    result = cdr.recover_stream(
        bits, cfg.channel_config(), n_bits=args.bits, n=cfg.cdr_n,
        freq_offset=cfg.freq_offset, initial_phase_ui=cfg.initial_phase_ui,
        ui_s=cfg.ui_s, seed=cfg.seed, include_boundary=cfg.pd_boundary)
    rows = ["time_ns,pi_code,phase_error_ui"]
    for t_ns, code, err in result.trace:
        rows.append(f"{t_ns:.3f},{code},{err:.6f}")
    _write_atomic(trace_path, _provenance(cfg) + "\n" + "\n".join(rows) + "\n")
    lock = "none" if result.lock_time_s is None else f"{result.lock_time_s * 1e6:.4f}us"
    print(f"lock_time={lock} pi_steps={result.pi_steps} slips={result.slips}")
    return 0


def _count(minimum, maximum):
    """argparse type: an integer in [minimum, maximum]."""
    def count(text):
        value = int(text)
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(
                f"must be in [{minimum}, {maximum}], got {value}")
        return value
    return count


def _curve(name):
    """argparse type: a reference curve name that energy.reference_curve knows."""
    try:
        energy.reference_curve(name)
    except CurveOutOfRange as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return name


def build_parser():
    parser = argparse.ArgumentParser(
        prog="serlink",
        description="Simulate a duty-cycled low-swing chip-to-chip serial link.")
    parser.add_argument("--version", action="version", version=f"serlink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file (key = value sections)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=None,
                       help="output directory, or a file for commands that write one file")

    p = sub.add_parser("run", help="run a two-chip transfer scenario")
    common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("eye", help="capture an eye diagram")
    common(p)
    # two 2-UI traces are the fewest that can show an opening; the upper
    # bounds here and below keep each command's peak memory under about
    # 1 GB (about 0.5 KB per eye UI, 20 B per ber bit, 50 B per lock bit)
    p.add_argument("--ui", type=_count(4, 10**6), default=phy.DEFAULT_EYE_UIS,
                   help="unit intervals to superimpose, 4 to 1000000")
    p.set_defaults(fn=cmd_eye)

    p = sub.add_parser("energy", help="emit duty-cycle energy curves")
    common(p)
    p.add_argument("--compare", metavar="CURVE", type=_curve,
                   help=f"reference curve: one of {', '.join(energy.REFERENCE_CURVES)} (or 'spi')")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("ber", help="closed-loop bit error rate")
    common(p)
    p.add_argument("--bits", type=_count(cdr.BATCH_BITS, 4 * 10**7), default=1_000_000,
                   help="bits to recover, 8 to 40000000")
    p.set_defaults(fn=cmd_ber)

    p = sub.add_parser("lock", help="clock recovery phase trace")
    common(p)
    p.add_argument("--bits", type=_count(cdr.BATCH_BITS, 10**7), default=40_000,
                   help="training bits to recover, 8 to 10000000")
    p.set_defaults(fn=cmd_lock)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LinkError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
