"""I/Q recording files with a text metadata sidecar.

Samples are packed little-endian interleaved (I, Q): float32, or int16
against a full scale (default: the peak |I| or |Q| rounded up to a power of
two) recorded in the JSON sidecar, which shares the recording's basename.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dsp import SignalBuffer

FORMATS = ("f32", "i16")


def sidecar_path(iq_path) -> Path:
    return Path(iq_path).with_suffix(".json")


def write_iq(path, buf: SignalBuffer, metadata: dict | None = None,
             fmt: str = "f32", i16_full_scale: float | None = None) -> Path:
    """Write samples and the sidecar; returns the sidecar path."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    path = Path(path)
    interleaved = np.empty(2 * len(buf), dtype=np.float64)
    interleaved[0::2] = buf.samples.real
    interleaved[1::2] = buf.samples.imag
    if fmt == "f32":
        raw = interleaved.astype("<f4")
    else:
        if i16_full_scale is None:
            peak = float(np.max(np.abs(interleaved)))
            i16_full_scale = float(2.0 ** np.ceil(np.log2(peak))) if peak > 0 else 1.0
        scaled = np.clip(interleaved / i16_full_scale, -1.0, 1.0)
        raw = np.round(scaled * 32767.0).astype("<i2")
    path.write_bytes(raw.tobytes())
    meta = {
        "format": fmt,
        "sample_rate_hz": buf.sample_rate_hz,
        "if_offset_hz": buf.if_offset_hz,
        "epoch_s": buf.epoch_s,
        "n_samples": len(buf),
        "duration_s": buf.duration_s,
    }
    if fmt == "i16":
        meta["full_scale"] = i16_full_scale
    if metadata:
        meta.update(metadata)
    side = sidecar_path(path)
    side.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return side


def read_iq(path) -> tuple[SignalBuffer, dict]:
    """Read a recording and its sidecar back into a SignalBuffer."""
    path = Path(path)
    side = sidecar_path(path)
    if not side.exists():
        raise FileNotFoundError(f"missing sidecar {side}")
    meta = json.loads(side.read_text())
    required = ["format", "n_samples", "sample_rate_hz", "if_offset_hz"]
    if meta.get("format") == "i16":
        required.append("full_scale")
    if missing := [k for k in required if k not in meta]:
        raise ValueError(f"{side}: missing field '{missing[0]}'")
    fmt = meta["format"]
    dtype = {"f32": "<f4", "i16": "<i2"}.get(fmt)
    if dtype is None:
        raise ValueError(f"unknown format {fmt!r} in sidecar")
    raw = path.read_bytes()
    size = 2 * int(meta["n_samples"]) * np.dtype(dtype).itemsize
    if len(raw) != size:
        raise ValueError(f"{path}: {len(raw)} bytes, n_samples {meta['n_samples']} needs {size}")
    interleaved = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    if fmt == "i16":
        interleaved = interleaved / 32767.0 * float(meta["full_scale"])
    samples = interleaved[0::2] + 1j * interleaved[1::2]
    buf = SignalBuffer(samples, float(meta["sample_rate_hz"]),
                       if_offset_hz=float(meta["if_offset_hz"]),
                       epoch_s=float(meta.get("epoch_s", 0.0)))
    return buf, meta
