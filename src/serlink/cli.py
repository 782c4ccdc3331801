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
import os
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from . import __version__, cdr, energy, node, phy
from .errors import ConfigError, CurveOutOfRange, LinkError

_SCHEMA = {
    "link": {
        "clock_mhz": float,
        "cdr_n": int,
        "pd_boundary": bool,
        "freq_offset": float,
        "initial_phase_ui": float,
    },
    "channel": {
        "swing_v": float,
        "trace_cm": float,
        "noise_sigma_v": float,
        "rj_sigma_ps": float,
        "prop_delay_ps": float,
        "rise_time_ui": float,
    },
    "protocol": {
        "scenario": str,
        "payload_bytes": int,
        "rx_release_pin": str,
        "line_cost_cycles": int,
    },
    "run": {
        "seed": int,
    },
}


@dataclass
class ScenarioConfig:
    """Parsed simulation parameters; defaults are the nominal operating
    point (400 MHz clock, 0.8 Gbps, N=4, 0.44 V swing, 2 cm trace)."""

    clock_mhz: float = 400.0
    cdr_n: int = 4
    pd_boundary: bool = True
    freq_offset: float = 0.0
    initial_phase_ui: float = 0.25
    swing_v: float = 0.44
    trace_cm: float = 2.0
    noise_sigma_v: float = 0.0
    rj_sigma_ps: float = 0.0
    prop_delay_ps: float = 0.0
    rise_time_ui: float = 0.1
    scenario: str = "tx_initiated"
    payload_bytes: int = 16 * 1024
    rx_release_pin: str = "peer"
    line_cost_cycles: int = 3
    seed: int = 1
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


def _parse_value(raw, typ, path, lineno):
    try:
        if typ is bool:
            lowered = raw.lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise ConfigError(f"{path}:{lineno}: cannot parse {raw!r} as {typ.__name__}")


def load_config(path=None):
    """Read a sectioned key = value file; unknown keys are rejected."""
    cfg = ScenarioConfig()
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    cfg.config_hash = hashlib.sha256(text.encode()).hexdigest()[:12]
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            section = stripped[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        setattr(cfg, key, _parse_value(raw.strip(), _SCHEMA[section][key], path, lineno))
    if cfg.scenario not in ("tx_initiated", "rx_initiated"):
        raise ConfigError(f"{path}: scenario must be tx_initiated or rx_initiated")
    if cfg.rx_release_pin not in ("peer", "own"):
        raise ConfigError(f"{path}: rx_release_pin must be peer or own")
    if not cfg.clock_mhz > 0:
        raise ConfigError(f"{path}: clock_mhz must be positive, got {cfg.clock_mhz!r}")
    if (cfg.payload_bytes <= 0 or cfg.payload_bytes % 4
            or cfg.payload_bytes > node.MEMORY_BYTES):
        raise ConfigError(
            f"{path}: payload_bytes must be a positive multiple of 4 no larger "
            f"than the {node.MEMORY_BYTES}-byte node memory, got {cfg.payload_bytes}")
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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
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
    cfg = load_config(args.config)
    paths = _out_paths(args, "energy_curves.csv",
                       *(["energy_ratios.csv"] if args.compare else []))
    profile = energy.DEFAULT_PROFILE
    rows = ["bandwidth_mbps,buffer_kb,energy_pj_per_bit"]
    for bw, kb, pj in energy.energy_sweep(profile):
        rows.append(f"{bw:g},{kb:g},{pj:.9f}")
    _write_atomic(paths[0], _provenance(cfg) + "\n" + "\n".join(rows) + "\n")
    peak = energy.bw_max(profile, 16 * 1024)
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
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.bits <= 0:
        raise ConfigError("ber requires a positive bit count")
    rng = np.random.default_rng([cfg.seed, 0xBE])
    margin = int(args.bits * (abs(cfg.freq_offset) + 0.002)) + 2048
    tx_bits = rng.integers(0, 2, args.bits + margin).astype(np.int8)
    result = cdr.recover_stream(
        tx_bits, cfg.channel_config(), n_bits=args.bits, n=cfg.cdr_n,
        freq_offset=cfg.freq_offset, initial_phase_ui=cfg.initial_phase_ui,
        ui_s=cfg.ui_s, seed=cfg.seed, include_boundary=cfg.pd_boundary,
        keep_trace=False)
    errors = result.errors_against(tx_bits) + result.slips
    ber = errors / args.bits
    upper = float(stats.beta.ppf(0.95, errors + 1, args.bits - errors)) \
        if errors < args.bits else 1.0
    print(f"bits={args.bits} errors={errors} ber={ber:.3e} "
          f"ber_upper95={upper:.3e} slips={result.slips}")
    return 0 if result.slips == 0 else 1


def cmd_lock(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
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
    p.add_argument("--ui", type=int, default=phy.DEFAULT_EYE_UIS,
                   help="unit intervals to superimpose")
    p.set_defaults(fn=cmd_eye)

    p = sub.add_parser("energy", help="emit duty-cycle energy curves")
    common(p)
    p.add_argument("--compare", metavar="CURVE",
                   help=f"reference curve: one of {', '.join(energy.REFERENCE_CURVES)} (or 'spi')")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("ber", help="closed-loop bit error rate")
    common(p)
    p.add_argument("--bits", type=int, default=1_000_000)
    p.set_defaults(fn=cmd_ber)

    p = sub.add_parser("lock", help="clock recovery phase trace")
    common(p)
    p.add_argument("--bits", type=int, default=40_000)
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
