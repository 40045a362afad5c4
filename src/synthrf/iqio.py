"""I/Q recording files with a text metadata sidecar.

Samples are packed little-endian interleaved (I, Q): float32, or int16
against a full scale (default: the peak |I| or |Q| rounded up to a power of
two) recorded in the JSON sidecar, which shares the recording's basename.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .dsp import BLOCK_SAMPLES, SignalBuffer

FORMATS = ("f32", "i16")


def sidecar_path(iq_path) -> Path:
    return Path(iq_path).with_suffix(".json")


def write_iq(path, buf: SignalBuffer, metadata: dict | None = None,
             fmt: str = "f32", i16_full_scale: float | None = None) -> Path:
    """Write samples and the sidecar; returns the sidecar path."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    path = Path(path)
    interleaved = np.ascontiguousarray(buf.samples).view(np.float64)  # I, Q, I, Q, ...
    if fmt == "i16" and i16_full_scale is None:
        peak = max(float(np.max(interleaved)), -float(np.min(interleaved)))
        i16_full_scale = float(2.0 ** np.ceil(np.log2(peak))) if peak > 0 else 1.0
    with open(path, "wb") as fh:
        for a in range(0, len(interleaved), 2 * BLOCK_SAMPLES):
            block = interleaved[a:a + 2 * BLOCK_SAMPLES]
            fh.write(block.astype("<f4") if fmt == "f32" else
                     np.round(np.clip(block / i16_full_scale, -1.0, 1.0) * 32767.0).astype("<i2"))
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
    if not isinstance(meta, dict):
        raise ValueError(f"{side}: expected a JSON object, got a {type(meta).__name__}")
    required = ["format", "n_samples", "sample_rate_hz", "if_offset_hz"] + ["full_scale"] * (
        meta.get("format") == "i16")
    if missing := [k for k in required if k not in meta]:
        raise ValueError(f"{side}: missing field '{missing[0]}'")
    if (fmt := meta["format"]) not in FORMATS:
        raise ValueError(f"{side}: field 'format' must be one of {FORMATS}, got {fmt!r}")
    if type(n := meta["n_samples"]) is not int or n < 1:
        raise ValueError(f"{side}: field 'n_samples' must be a positive integer, got {n!r}")
    for key in sorted(meta.keys() & {"sample_rate_hz", "if_offset_hz", "full_scale", "epoch_s"}):
        if type(v := meta[key]) not in (int, float) or not abs(v) <= float(np.finfo(float).max):
            raise ValueError(f"{side}: field '{key}' must be a finite number, got {v!r}")
    dtype = {"f32": "<f4", "i16": "<i2"}[fmt]
    size = 2 * n * np.dtype(dtype).itemsize
    if (got := path.stat().st_size) != size:
        raise ValueError(f"{path}: {got} bytes, n_samples {n} needs {size}")
    interleaved = np.empty(2 * n)
    with open(path, "rb") as fh:
        for a in range(0, len(interleaved), 2 * BLOCK_SAMPLES):
            part = interleaved[a:a + 2 * BLOCK_SAMPLES]
            part[:] = np.fromfile(fh, dtype, len(part))
            if fmt == "i16":
                part /= 32767.0
                part *= float(meta["full_scale"])
    buf = SignalBuffer(interleaved.view(np.complex128), float(meta["sample_rate_hz"]),
                       if_offset_hz=float(meta["if_offset_hz"]),
                       epoch_s=float(meta.get("epoch_s", 0.0)))
    return buf, meta
