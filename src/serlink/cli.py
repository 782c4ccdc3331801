"""Scenario runner: config parsing, simulation orchestration, CSV output.

Subcommands: run (two-chip transfer), eye (eye-diagram capture), energy
(duty-cycle sweep and peripheral comparison), ber (closed-loop bit error
rate), lock (CDR phase trace).  All outputs are deterministic for a
given config and seed, carry a header row and a provenance comment, and
are written atomically.

Exit codes: 0 success, 1 domain failure (lost lock, data mismatch, a
slip in ber or lock, infeasible request), 2 usage or configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from collections import namedtuple

import numpy as np
from scipy import stats

from . import __version__, cdr, energy, node, phy
from .errors import ConfigError, CurveOutOfRange, LinkError


# The config file format.  A key in ``[section]`` sets the LinkSimConfig
# field ``attr`` (``channel.<name>`` for a ChannelConfig field), parsed as
# its annotation; ``convert`` takes a file unit that is not the model's to
# the model's.  The model's RULES check each value and give its ``rule``
# text, unless the file unit moves the bounds.  The defaults are the
# models': the nominal operating point.
_Key = namedtuple("_Key", "section model field convert rule")


def _key(section, attr, convert=None, rule=None):
    owner, _, name = attr.rpartition(".")
    model = phy.ChannelConfig if owner else node.LinkSimConfig
    return _Key(section, model, name, convert, rule or model.RULES[name][0])


CONFIG_KEYS = {
    "clock_mhz": _key("link", "ui_s", phy.ui_for_clock,
                      "in [{}, {}]".format(*phy.CLOCK_MHZ)),
    "cdr_n": _key("link", "cdr_n"),
    "pd_boundary": _key("link", "include_boundary_pd"),
    "freq_offset": _key("link", "freq_offset"),
    "initial_phase_ui": _key("link", "initial_phase_ui"),
    "swing_v": _key("channel", "channel.swing"),
    "trace_cm": _key("channel", "channel.trace_length_cm"),
    "noise_sigma_v": _key("channel", "channel.noise_sigma_v"),
    "rj_sigma_ps": _key("channel", "channel.rj_sigma_s", lambda ps: ps * 1e-12),
    "prop_delay_ps": _key("channel", "channel.prop_delay_s", lambda ps: ps * 1e-12),
    "rise_time_ui": _key("channel", "channel.rise_time_ui"),
    "scenario": _key("protocol", "scenario"),
    "payload_bytes": _key("protocol", "payload_bytes"),
    "rx_release_pin": _key("protocol", "rx_release_pin"),
    "line_cost_cycles": _key("protocol", "line_cost_cycles"),
    "seed": _key("run", "seed"),
}

_TYPES = {key: spec.model.__dataclass_fields__[spec.field].type
          for key, spec in CONFIG_KEYS.items()}

_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}
_PARSERS = {"bool": lambda raw: _BOOLS[raw.lower()], "float": float, "int": int,
            "str": str}


def load_config(path=None):
    """Read a sectioned key = value file into a node.LinkSimConfig.

    Returns the config and the hash of the file's text (``"defaults"``
    without a file).  Unknown, repeated and out-of-range keys are rejected.
    """
    if path is None:
        return node.LinkSimConfig(), "defaults"
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    sections = {spec.section for spec in CONFIG_KEYS.values()}
    values, lines, section = {}, {}, None
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
        spec = CONFIG_KEYS.get(key)
        if spec is None or spec.section != section:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} in [{section}]")
        if lines.setdefault(key, lineno) != lineno:
            raise ConfigError(f"{path}:{lineno}: {key} already set on line {lines[key]}")
        try:
            values[key] = _PARSERS[_TYPES[key]](raw)
        except (KeyError, ValueError):  # KeyError: not a bool spelling
            raise ConfigError(f"{path}:{lineno}: {key}: cannot parse {raw!r} "
                              f"as {_TYPES[key]}")
    link, channel = {}, {}
    for key, spec in CONFIG_KEYS.items():  # the first bad key in table order
        if key in values:
            try:  # ZeroDivisionError: clock_mhz = 0
                value = values[key] if spec.convert is None else spec.convert(values[key])
                spec.model(**{spec.field: value})
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"{path}: {key} must be {spec.rule}, got {values[key]!r}")
            (channel if spec.model is phy.ChannelConfig else link)[spec.field] = value
    cfg = node.LinkSimConfig(channel=phy.ChannelConfig(**channel), **link)
    return cfg, hashlib.sha256(text.encode()).hexdigest()[:12]


def _scenario(args):
    """The --config scenario, --seed applied and checked, and its provenance line."""
    cfg, config_hash = load_config(args.config)
    if args.seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        except ValueError:
            raise ConfigError(f"--seed must be {CONFIG_KEYS['seed'].rule}, got {args.seed}")
    return cfg, f"# serlink {__version__} config_sha256={config_hash} seed={cfg.seed}"


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
    cfg, head = _scenario(args)
    report_path, events_path = _out_paths(args, "transfer_report.txt",
                                          "transfer_events.csv")
    report = node.run_protocol(cfg)
    _write_atomic(report_path, head + "\n" + report.to_text())
    _write_atomic(events_path, head + "\n" + report.events_csv())
    print(report.to_text(), end="")
    if not report.ok:
        print(f"FAILED: {report.diagnostic}", file=sys.stderr)
        return 1
    return 0


def cmd_eye(args):
    cfg, head = _scenario(args)
    eye_path, summary_path = _out_paths(args, "eye.csv", "eye_summary.csv")
    rng = np.random.default_rng([cfg.seed, 0xE1])
    bits = rng.integers(0, 2, args.ui + 64)
    wave = phy.channel_apply(phy.drive(bits, cfg.channel, ui_s=cfg.ui_s), cfg.channel,
                             rng=np.random.default_rng([cfg.seed, 0xE2]))
    eye = phy.eye_capture(wave, n_ui=args.ui)
    rows = ["phase_bin,voltage_bin,count"]
    nz = np.argwhere(eye.counts > 0)
    for i, j in nz:
        rows.append(f"{i},{j},{int(eye.counts[i, j])}")
    _write_atomic(eye_path, head + "\n" + "\n".join(rows) + "\n")
    summary = (f"eye_height_v,eye_width_ui\n"
               f"{eye.eye_height_v:.6f},{eye.eye_width_ui:.6f}\n")
    _write_atomic(summary_path, head + "\n" + summary)
    print(f"eye_height_v={eye.eye_height_v:.4f} eye_width_ui={eye.eye_width_ui:.4f}")
    return 0


def cmd_energy(args):
    _, head = _scenario(args)
    paths = _out_paths(args, "energy_curves.csv",
                       *(["energy_ratios.csv"] if args.compare else []))
    profile = energy.DEFAULT_PROFILE
    rows = ["bandwidth_mbps,buffer_kb,energy_pj_per_bit"]
    for bw, kb, pj in energy.energy_sweep(profile):
        rows.append(f"{bw:g},{kb:g},{pj:.9f}")
    _write_atomic(paths[0], head + "\n" + "\n".join(rows) + "\n")
    peak = energy.bw_max(profile, energy.BUFFER_BYTES)
    print(f"continuous: {energy.continuous_energy(profile):.4f} pJ/bit at "
          f"{profile.line_rate / 1e9:.1f} Gbps; "
          f"bw_max({energy.BUFFER_BYTES // 1024}KB) = {peak / 1e6:.1f} Mbps")
    if args.compare:
        ratios = ["comparison,bandwidth_mbps,ratio"]
        best = energy.compare_peripherals(profile, args.compare, peak, mode="best")
        ratios.append(f"{args.compare}_best_vs_link_at_bw_max,{peak / 1e6:.3f},{best:.4f}")
        try:  # no same-bandwidth line where the curve does not reach 10 Mbps
            same = energy.compare_peripherals(profile, args.compare, 10e6, mode="same_bw")
        except CurveOutOfRange:
            pass
        else:
            ratios.append(f"{args.compare}_same_bw,10,{same:.4f}")
        _write_atomic(paths[1], head + "\n" + "\n".join(ratios) + "\n")
        print("\n".join(ratios[1:]))
    return 0


def _recover(cfg, n_bits, pattern, **options):
    """Recover ``n_bits`` of ``pattern(length)`` sent over ``cfg``'s link; the length
    covers a transmitter up to |freq_offset| + 0.2% faster, and a 2048-bit lead."""
    tx_bits = pattern(n_bits + int(n_bits * (abs(cfg.freq_offset) + 0.002)) + 2048)
    return tx_bits, cdr.recover_stream(
        tx_bits, cfg.channel, n_bits=n_bits, n=cfg.cdr_n,
        freq_offset=cfg.freq_offset, initial_phase_ui=cfg.initial_phase_ui,
        ui_s=cfg.ui_s, seed=cfg.seed, include_boundary=cfg.include_boundary_pd,
        **options)


def cmd_ber(args):
    cfg, _ = _scenario(args)
    rng = np.random.default_rng([cfg.seed, 0xBE])
    tx_bits, result = _recover(cfg, args.bits,
                               lambda n: rng.integers(0, 2, n).astype(np.int8),
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
    cfg, head = _scenario(args)
    (trace_path,) = _out_paths(args, "lock_trace.csv")
    _, result = _recover(cfg, args.bits, lambda n: np.tile([1, 0], n // 2))  # training
    rows = ["time_ns,pi_code,phase_error_ui"]
    for t_ns, code, err in result.trace:
        rows.append(f"{t_ns:.3f},{code},{err:.6f}")
    _write_atomic(trace_path, head + "\n" + "\n".join(rows) + "\n")
    lock = "none" if result.lock_time_s is None else f"{result.lock_time_s * 1e6:.4f}us"
    print(f"lock_time={lock} pi_steps={result.pi_steps} slips={result.slips}")
    return 0 if result.slips == 0 else 1


def _count(minimum, maximum):
    """argparse type: an integer in [minimum, maximum]."""
    def count(text):
        value = int(text)
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(
                f"must be in [{minimum}, {maximum}], got {value}")
        return value
    return count


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
    # the upper bounds here and below keep each command's peak memory under
    # about 1 GB (about 0.27 KB per eye UI, 20 B per ber bit, 50 B per lock bit)
    p.add_argument("--ui", type=_count(phy.EYE_MIN_UIS, 10**6), default=phy.DEFAULT_EYE_UIS,
                   help=f"unit intervals to superimpose, {phy.EYE_MIN_UIS} to 1000000; "
                        "folded in 2-UI traces, so an odd count folds one UI fewer")
    p.set_defaults(fn=cmd_eye)

    p = sub.add_parser("energy", help="emit duty-cycle energy curves")
    common(p)
    p.add_argument("--compare", metavar="CURVE", choices=energy.CURVE_NAMES,
                   help=f"reference curve: one of {', '.join(energy.CURVE_NAMES)}")
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
