"""I/Q recording round trips and sidecar metadata."""

import json
import math

import numpy as np
import pytest

from synthrf import iqio
from synthrf.channel import ChannelSpec, generate_synthetic_channel
from synthrf.dsp import SignalBuffer
from synthrf.prs import CarrierConfig, PrsResourceConfig, synthesize_gnb

from conftest import los_source


@pytest.fixture
def buf(rng):
    x = rng.standard_normal(5000) + 1j * rng.standard_normal(5000)
    return SignalBuffer(x, 38.192e6, if_offset_hz=9.548e6)


def test_f32_round_trip(tmp_path, buf):
    path = tmp_path / "rec.iq"
    side = iqio.write_iq(path, buf, metadata={"kind": "cdma"})
    assert side == tmp_path / "rec.json"
    back, meta = iqio.read_iq(path)
    assert back.sample_rate_hz == buf.sample_rate_hz
    assert back.if_offset_hz == buf.if_offset_hz
    assert meta["kind"] == "cdma"
    assert meta["n_samples"] == 5000
    # only float32 quantization separates the copies
    np.testing.assert_allclose(back.samples, buf.samples, atol=1e-6)


def test_i16_round_trip_scaling(tmp_path, buf):
    path = tmp_path / "rec.iq"
    iqio.write_iq(path, buf, fmt="i16", i16_full_scale=8.0)
    back, meta = iqio.read_iq(path)
    assert meta["full_scale"] == 8.0
    np.testing.assert_allclose(back.samples, buf.samples, atol=8.0 / 32767 + 1e-9)


def test_i16_is_half_the_size_of_f32(tmp_path, buf):
    a = tmp_path / "a.iq"
    b = tmp_path / "b.iq"
    iqio.write_iq(a, buf, fmt="f32")
    iqio.write_iq(b, buf, fmt="i16")
    assert a.stat().st_size == 2 * b.stat().st_size == 8 * len(buf)


def test_missing_sidecar_raises(tmp_path, buf):
    path = tmp_path / "rec.iq"
    iqio.write_iq(path, buf)
    (tmp_path / "rec.json").unlink()
    with pytest.raises(FileNotFoundError):
        iqio.read_iq(path)


def test_unknown_format_rejected(tmp_path, buf):
    with pytest.raises(ValueError):
        iqio.write_iq(tmp_path / "rec.iq", buf, fmt="f64")


def test_i16_prs_round_trip_does_not_clip(tmp_path):
    carrier = CarrierConfig(n_cell_id=1)
    spec = ChannelSpec(sources=(los_source("g1", 3e-6, 200.0, kind="gnb"),),
                       update_rate_hz=40e3, duration_s=0.002, seed=0)
    buf = synthesize_gnb(carrier, {"g1": PrsResourceConfig(n_prs_id=10)},
                         generate_synthetic_channel(spec), duration_s=0.002, seed=1)
    path = tmp_path / "prs.iq"
    iqio.write_iq(path, buf, fmt="i16")
    back, meta = iqio.read_iq(path)
    scale = meta["full_scale"]
    peak = max(np.max(np.abs(buf.samples.real)), np.max(np.abs(buf.samples.imag)))
    assert peak > 8.0  # a fixed full scale of 8 would clip
    # the peak rounded up to a power of two: no sample exceeds full scale
    assert peak <= scale < 2 * peak and math.log2(scale).is_integer()
    np.testing.assert_allclose(back.samples, buf.samples, atol=scale / 32767)


@pytest.mark.parametrize("fmt,sample_bytes", [("f32", 8), ("i16", 4)])
@pytest.mark.parametrize("cut", [1.0, 0.5])  # whole or half a sample missing
def test_truncated_recording_rejected(tmp_path, fmt, sample_bytes, cut):
    path = tmp_path / "rec.iq"
    iqio.write_iq(path, SignalBuffer(np.arange(10) * (1.0 + 1.0j), 1e6), fmt=fmt)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - round(cut * sample_bytes)])
    with pytest.raises(ValueError, match=f"n_samples 10 needs {10 * sample_bytes}") as exc:
        iqio.read_iq(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("key", ["n_samples", "sample_rate_hz", "format",
                                 "if_offset_hz", "full_scale"])
def test_sidecar_without_a_required_field_rejected(tmp_path, key):
    path = tmp_path / "rec.iq"
    fmt = "i16" if key == "full_scale" else "f32"  # only i16 has a full scale
    side = iqio.write_iq(path, SignalBuffer(np.ones(4, dtype=complex), 1e6), fmt=fmt)
    meta = json.loads(side.read_text())
    del meta[key]
    side.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"missing field '{key}'") as exc:
        iqio.read_iq(path)
    assert str(side) in str(exc.value)
