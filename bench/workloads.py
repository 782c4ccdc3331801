"""The four benchmark workloads, driven through serlink's public API only.

Each workload turns the benchmark seed into a fixed cycle of operation
configs.  One operation is one transfer, one BER run or one pair of
eyes.  For every operation the workload returns its simulated outcome:
whether it is ok, a signature (a digest of everything it simulated) and
the work it completed (payload bits, recovered bits or folded UI).

Why these four (see README.md for the full table):
  transfer_2k   the flit data plane dominates: codec, serdes, RX pipeline
                and CDR all run per pair for 512 words
  burst_64      short transfers pay the whole handshake, warm-up and
                noise/jitter paths for little payload; many short ops
  ber_track     only phy streaming and cdr run; node/control/codec absent
  eye_sweep     the only user of the batch renderer and eye folding
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from serlink import cdr, node, phy

TRANSFER_BYTES = 2 * 1024
BURST_BYTES = 64
BURST_CYCLE = 32
BER_BITS = 25_000
BER_CYCLE = 8
EYE_UI = 100_000
EYE_LENGTHS_CM = (0.0, 1.0, 2.0, 5.0, 8.0)
EYE_NOISE_V = (0.0, 0.01)


@dataclass
class Outcome:
    ok: bool
    signature: str
    work: int  # payload bits, recovered bits or folded UI
    detail: str = ""


def _digest(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:20]


def _transfer(cfg):
    report = node.run_protocol(cfg)
    ok = (report.ok and report.mismatches == 0 and report.decode_errors == 0
          and report.delivered_bytes == cfg.payload_bytes)
    sig = _digest(report.to_text().encode(), report.events_csv().encode())
    return Outcome(ok, sig, 8 * report.delivered_bytes, report.diagnostic)


def _ber(seed, k):
    # start off the bit edge, where acquisition can hang up and slip
    # (README.md, "Why ber_track starts at 0.25 UI")
    rng = np.random.default_rng([seed, k])
    tx = rng.integers(0, 2, int(BER_BITS * 1.01) + 1000).astype(np.int8)
    res = cdr.recover_stream(tx, phy.ChannelConfig(trace_length_cm=2.0),
                             n_bits=BER_BITS, freq_offset=0.004,
                             initial_phase_ui=0.25, keep_trace=False, seed=seed)
    errors = res.errors_against(tx)
    sig = _digest(res.bits.tobytes(), res.bit_indices.tobytes(), res.slips,
                  errors, res.pi_steps, res.lock_time_s, res.first_slip_s)
    return Outcome(res.slips == 0 and errors == 0, sig, len(res.bits),
                   f"slips={res.slips} errors={errors}")


def _eye_pair(seed, k):
    """Two eyes at one trace length: without and with noise."""
    length = EYE_LENGTHS_CM[k]
    sigs, ok, detail = [], True, []
    for j, noise in enumerate(EYE_NOISE_V):
        cfg = phy.ChannelConfig(trace_length_cm=length, noise_sigma_v=noise)
        bits = np.random.default_rng([seed, k, j]).integers(0, 2, EYE_UI + 2)
        wave = phy.channel_apply(phy.drive(bits, cfg), cfg,
                                 rng=np.random.default_rng([seed, k, j, 1]))
        eye = phy.eye_capture(wave, n_ui=EYE_UI)
        sigs += [eye.eye_height_v, eye.eye_width_ui, eye.best_phase_ui,
                 eye.counts.tobytes()]
        ok = ok and eye.eye_height_v > 0 and eye.eye_width_ui > 0
        detail.append(f"height={eye.eye_height_v!r} width={eye.eye_width_ui!r}")
    return Outcome(ok, _digest(*sigs), EYE_UI * len(EYE_NOISE_V), " ".join(detail))


def _transfer_2k(seed):
    cfg = node.LinkSimConfig(payload_bytes=TRANSFER_BYTES,
                             scenario="tx_initiated", seed=seed)
    return [lambda: _transfer(cfg)]


def _burst_64(seed):
    channel = phy.ChannelConfig(trace_length_cm=5.0, noise_sigma_v=0.005,
                                rj_sigma_s=2e-12)

    def op(k):
        cfg = node.LinkSimConfig(payload_bytes=BURST_BYTES,
                                 scenario="rx_initiated", freq_offset=0.002,
                                 seed=seed * 1000 + k, channel=channel)
        return lambda: _transfer(cfg)
    return [op(k) for k in range(BURST_CYCLE)]


def _ber_track(seed):
    return [lambda k=k: _ber(seed, k) for k in range(BER_CYCLE)]


def _eye_sweep(seed):
    # one op per length, so every op does the same noise work and the
    # median does not fall between noiseless and noisy eyes
    return [lambda k=k: _eye_pair(seed, k) for k in range(len(EYE_LENGTHS_CM))]


WORKLOADS = {
    "transfer_2k": _transfer_2k,
    "burst_64": _burst_64,
    "ber_track": _ber_track,
    "eye_sweep": _eye_sweep,
}

# Trace lengths whose channel calibration runs before timing starts.
WARM_LENGTHS_CM = {
    "transfer_2k": (2.0,),
    "burst_64": (5.0,),
    "ber_track": (2.0,),
    "eye_sweep": EYE_LENGTHS_CM,
}


def operations(workload, seed):
    """The cycle of zero-argument operations for ``workload`` at ``seed``."""
    return WORKLOADS[workload](seed)


def warm_up(workload):
    """Finish lazy set-up (channel calibration) that users pay once."""
    for length in WARM_LENGTHS_CM[workload]:
        phy.pole_for_length(length)
