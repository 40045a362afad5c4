"""Command-line front end: channel generation, waveform synthesis, spectrum
export, and receiver runs.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import cdma, channel, iqio, prn, prs, receiver

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


def _load_json(path) -> dict:
    try:  # a missing file raises FileNotFoundError, which main() maps to exit 2
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _build(fn, cfg, where: str, **fixed):
    """fn(**cfg, **fixed) once cfg fits fn's signature: each key names a parameter
    fixed leaves open (or goes to **kwargs, which lets a function split off JSON-only
    keys), none without a default is missing, int-annotated values pass through
    int() and float-annotated ones are numbers (or null where the default is None);
    else a ConfigError naming where and the field."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {cfg!r}")
    params = {n: p for n, p in inspect.signature(fn).parameters.items() if n not in fixed}
    kwargs = dict(cfg, **fixed)
    spill = any(p.kind is p.VAR_KEYWORD for p in params.values())
    for key, value in cfg.items():
        p = params.get(key)
        if p is None or p.kind is p.VAR_KEYWORD:
            if key in fixed or not spill:
                raise ConfigError(f"{where}: unknown field '{key}'")
        elif p.annotation in (int, "int"):
            try:
                kwargs[key] = int(value)
            except (TypeError, ValueError, OverflowError):
                raise ConfigError(f"{where}: field '{key}' must be an integer") from None
        elif p.annotation in (float, "float") and (value is not None or p.default is not None) and (
                isinstance(value, bool) or not isinstance(value, (int, float))):
            raise ConfigError(f"{where}: field '{key}' must be a number")
    for name, p in params.items():
        if p.default is p.empty and p.kind is not p.VAR_KEYWORD and name not in cfg:
            raise ConfigError(f"{where}: missing required field '{name}'")
    return fn(**kwargs)


def _path_spec(cfg, where: str) -> channel.PathSpec:
    def split(rician_k_db: float = None, **fields):
        return rician_k_db, fields
    k_db, fields = _build(split, cfg, where)
    k = channel.PathSpec.rician_k if k_db is None else 10.0 ** (k_db / 10.0)
    return _build(channel.PathSpec, fields, where, rician_k=k)


def _source_spec(cfg, where: str) -> channel.SourceSpec:
    return _build(lambda id, kind, los, paths: channel.SourceSpec(
        str(id), kind, bool(los),
        tuple(_path_spec(p, f"{where} path[{j}]") for j, p in enumerate(paths))), cfg, where)


def cmd_gen_channel(args) -> int:
    def split(sources, f_ch_hz: float = channel.ChannelSpec.update_rate_hz, **fields):
        return sources, f_ch_hz, fields
    sources, f_ch_hz, fields = _build(split, _load_json(args.spec), "channel spec")
    if args.seed is not None:
        fields["seed"] = args.seed
    spec = _build(channel.ChannelSpec, fields, "channel spec", update_rate_hz=f_ch_hz,
                  sources=tuple(_source_spec(s, f"channel spec source[{i}]")
                                for i, s in enumerate(sources)))
    channels = channel.generate_synthetic_channel(spec)
    channel.store_channel(channels, args.out)
    for src in channels.sources:
        powers = [float(np.mean(np.abs(p.coefficients) ** 2)) for p in src.paths]
        total_db = 10.0 * math.log10(sum(powers))
        print(f"{src.source_id}: kind={src.source_kind} los={int(src.los)} "
              f"paths={len(src.paths)} mean_power={total_db:+.2f} dB")
    print(f"wrote {args.out}")
    return EXIT_OK


def _ground_truth(channels: channel.ChannelSet, source_ids) -> list[dict]:
    d_min = channel.earliest_delay_s(channels, source_ids)
    truth = []
    for sid in source_ids:
        src = channels.source(sid)
        path0 = src.paths[0]
        # Doppler from the mean phase increment of the first path
        rot = path0.coefficients[1:] * np.conj(path0.coefficients[:-1])
        doppler = float(np.angle(np.sum(rot)) * channels.update_rate_hz / (2.0 * np.pi))
        truth.append({"source_id": sid, "los": src.los,
                      "delay_s": float(path0.delays_s[0] - d_min),
                      "doppler_hz": doppler})
    return truth


def cmd_synthesize(args) -> int:
    cfg = _load_json(args.config)
    channels = channel.load_channel(args.channel)
    if args.kind == "cdma":
        sources, fields = _build(lambda sources, **fields: (sources, fields), cfg, "cdma config")
        fields.setdefault("data_seed", args.seed)
        gen = _build(cdma.CdmaGenConfig, fields, "cdma config", modulate_data=True, sources=tuple(
            _build(lambda prn_id, source_id: (int(prn_id), str(source_id)),
                   s, f"cdma config source[{i}]") for i, s in enumerate(sources)))
        buf = cdma.synthesize(gen, channels)
        truth = _ground_truth(channels, [sid for _, sid in gen.sources])
        for entry, (prn_id, _) in zip(truth, gen.sources):
            entry["prn_id"] = prn_id
        meta = {"kind": "cdma", "f_if_hz": gen.f_if_hz, "r_c_hz": gen.r_c_hz,
                "t_d_s": gen.t_d_s, "data_seed": gen.data_seed,
                "noise_seed": gen.noise_seed, "ground_truth": truth}
    elif args.kind == "prs":
        sources, carrier, fields = _build(
            lambda sources, carrier={}, **fields: (sources, carrier, fields), cfg, "prs config")
        carrier = _build(prs.CarrierConfig, carrier, "prs config carrier")
        resources = {}
        for i, src in enumerate(sources):
            where = f"prs config source[{i}]"
            sid, res = _build(lambda source_id, **res: (str(source_id), res), src, where)
            resources[sid] = _build(prs.PrsResourceConfig, {"n_rb_prs": carrier.n_rb, **res}, where)
        fields.setdefault("seed", args.seed)
        buf = _build(prs.synthesize_gnb, fields, "prs config",
                     carrier=carrier, prs_configs=resources, channels=channels)
        truth = _ground_truth(channels, list(resources))
        meta = {"kind": "prs", "seed": int(fields["seed"]),
                "numerology": {"scs_hz": carrier.scs_hz, "n_fft": carrier.n_fft,
                               "n_rb": carrier.n_rb,
                               "sample_rate_hz": carrier.sample_rate_hz},
                "ground_truth": truth}
    else:
        raise ConfigError(f"unknown waveform kind {args.kind!r}")
    iqio.write_iq(args.out, buf, metadata=meta, fmt=args.format)
    print(f"wrote {len(buf)} samples at {buf.sample_rate_hz:.6g} Hz to {args.out}")
    return EXIT_OK


def cmd_spectrum(args) -> int:
    channels = channel.load_channel(args.channel)
    try:
        src = channels.source(args.source)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    result = channel.doppler_spectrum(src, channels.update_rate_hz, nfft=args.nfft)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "power_db"])
        for f, p in zip(result.freqs_hz, result.power_db):
            writer.writerow([f"{float(f)!r}", f"{float(p)!r}"])
    print(f"peak {result.peak_freq_hz:+.1f} Hz at {result.peak_power_db:.1f} dB; "
          f"wrote {args.out}")
    return EXIT_OK


def _parse_prn_list(text: str) -> list[int]:
    try:
        prns = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad PRN list {text!r}") from exc
    if not prns:
        raise ConfigError("empty PRN list")
    if bad := [p for p in prns if not 1 <= p <= 32]:
        raise ConfigError(f"PRN {bad[0]} is outside 1..32")
    return prns


def _acquisitions(args):
    """Acquire each listed PRN: (recording, its ground truth or None, code, result)."""
    prns = _parse_prn_list(args.prn)  # a usage error before the recording is read
    buf, meta = iqio.read_iq(args.iq)
    acq_cfg = receiver.AcquisitionConfig(snr_threshold_db=args.snr_threshold)
    truth = {int(t["prn_id"]): t for t in meta.get("ground_truth", []) if "prn_id" in t}
    r_c = float(meta.get("r_c_hz", prn.DEFAULT_CHIPPING_RATE_HZ))
    for prn_id in prns:
        code = prn.generate_ca_code(prn_id, chipping_rate_hz=r_c)
        yield buf, truth.get(prn_id), code, receiver.acquire(buf, code, acq_cfg)


def cmd_acquire(args) -> int:
    rows = []
    for buf, t, code, res in _acquisitions(args):
        row = {"prn_id": code.prn_id, "acquired": int(res.acquired),
               "code_phase_samples": res.code_phase_samples,
               "coarse_freq_hz": res.coarse_freq_hz,
               "fine_freq_hz": res.fine_freq_hz, "snr_db": res.snr_db}
        if t is not None:  # blank for a rejected PRN: its peak is noise
            row.update(code_phase_error_samples="", doppler_error_hz="")
        if t is not None and res.acquired:
            # one code period in samples: only the code phase within it is observable
            period = prn.CODE_LENGTH / code.chipping_rate_hz * buf.sample_rate_hz
            err = res.code_phase_samples - round(t["delay_s"] * buf.sample_rate_hz)
            row["code_phase_error_samples"] = round(err - period * round(err / period))
            row["doppler_error_hz"] = res.fine_freq_hz - t["doppler_hz"]
        rows.append(row)
        state = "acquired" if res.acquired else "rejected"
        print(f"PRN {code.prn_id:02d}: {state} snr={res.snr_db:.1f} dB "
              f"tau={res.code_phase_samples} f={res.coarse_freq_hz:+.0f} Hz")
    _write_csv_rows(args.out, rows)
    return EXIT_OK


def cmd_track(args) -> int:
    trk_cfg = receiver.TrackingConfig()
    rows = []
    for buf, t, code, res in _acquisitions(args):
        if not res.acquired:
            print(f"PRN {code.prn_id:02d}: not acquired (snr={res.snr_db:.1f} dB), skipped")
            continue
        trace = receiver.track(buf, code, res, trk_cfg)
        for i in range(len(trace)):
            row = {"prn_id": code.prn_id, "epoch_s": trace.epoch_s[i],
                   "code_delay_samples": trace.code_delay_samples[i],
                   "doppler_hz": trace.doppler_hz[i],
                   "prompt_i": trace.prompt_i[i], "prompt_q": trace.prompt_q[i],
                   "dll_discriminator": trace.dll_discriminator[i],
                   "pll_discriminator": trace.pll_discriminator[i]}
            if t is not None:
                row["doppler_error_hz"] = trace.doppler_hz[i] - t["doppler_hz"]
            rows.append(row)
        print(f"PRN {code.prn_id:02d}: tracked {len(trace)} epochs, "
              f"final doppler {trace.doppler_hz[-1]:+.1f} Hz"
              + (" [loss of lock]" if trace.loss_of_lock else ""))
    _write_csv_rows(args.out, rows)
    return EXIT_OK


def _write_csv_rows(path, rows: list[dict]) -> None:
    fields = dict.fromkeys(key for row in rows for key in row)  # first-seen order
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synthrf",
        description="Synthetic satellite/HAPS/gNB waveform generation and validation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-channel", help="generate a synthetic channel file")
    p.add_argument("--spec", required=True, help="channel spec JSON")
    p.add_argument("--out", required=True, help="output channel file (.bin for binary)")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=cmd_gen_channel)

    p = sub.add_parser("synthesize", help="synthesize a waveform through a channel")
    p.add_argument("kind", choices=["cdma", "prs"])
    p.add_argument("--config", required=True, help="waveform config JSON")
    p.add_argument("--channel", required=True, help="channel file")
    p.add_argument("--out", required=True, help="output I/Q file")
    p.add_argument("--format", choices=list(iqio.FORMATS), default="f32")
    p.add_argument("--seed", type=int, default=0, help="data/PRS seed if the config sets none")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("spectrum", help="export a Doppler spectrum as CSV")
    p.add_argument("--channel", required=True)
    p.add_argument("--source", required=True, help="source id")
    p.add_argument("--nfft", type=int, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("acquire", help="run acquisition on an I/Q recording")
    p.add_argument("--iq", required=True)
    p.add_argument("--prn", required=True, help="comma-separated PRN list")
    p.add_argument("--snr-threshold", type=float, default=25.0)
    p.add_argument("--out", required=True, help="results CSV")
    p.set_defaults(func=cmd_acquire)

    p = sub.add_parser("track", help="acquire and track PRNs from an I/Q recording")
    p.add_argument("--iq", required=True)
    p.add_argument("--prn", required=True, help="comma-separated PRN list")
    p.add_argument("--snr-threshold", type=float, default=25.0)
    p.add_argument("--out", required=True, help="trace CSV")
    p.set_defaults(func=cmd_track)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
