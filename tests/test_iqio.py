"""I/Q recording round trips and sidecar metadata."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthrf import iqio
from synthrf.channel import ChannelSpec, generate_synthetic_channel
from synthrf.dsp import BLOCK_SAMPLES, SignalBuffer
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


def interleaved_formula(samples):
    """I, Q, I, Q, ... as float64, built element by element."""
    out = np.empty(2 * len(samples), dtype=np.float64)
    out[0::2] = samples.real
    out[1::2] = samples.imag
    return out


@pytest.mark.parametrize("fmt,full_scale", [("f32", None), ("i16", None), ("i16", 4.0)])
@pytest.mark.parametrize("stride", [1, 3])  # 3: a non-contiguous view of a longer array
def test_bytes_and_samples_match_the_interleaving_formulas(tmp_path, rng, fmt, full_scale,
                                                           stride):
    for n in (3000 // stride, 1, 1001, 2 * BLOCK_SAMPLES + 5):  # odd lengths; across blocks
        x = 2.5 * (rng.standard_normal(n * stride) + 1j * rng.standard_normal(n * stride))
        buf = SignalBuffer(x[::stride], 1e6)
        path = tmp_path / "rec.iq"
        iqio.write_iq(path, buf, fmt=fmt, i16_full_scale=full_scale)
        back, meta = iqio.read_iq(path)
        interleaved = interleaved_formula(buf.samples)
        if fmt == "f32":
            raw = interleaved.astype("<f4")
            values = raw.astype(np.float64)
        else:
            scale = meta["full_scale"]
            if full_scale is None:
                assert scale == 2.0 ** np.ceil(np.log2(np.max(np.abs(interleaved))))
            elif n > 1:
                assert np.any(np.abs(interleaved) > scale)  # the explicit full scale clips
            raw = np.round(np.clip(interleaved / scale, -1.0, 1.0) * 32767.0).astype("<i2")
            values = raw.astype(np.float64) / 32767.0 * scale
        assert path.read_bytes() == raw.tobytes()
        np.testing.assert_array_equal(back.samples, values[0::2] + 1j * values[1::2])


@pytest.mark.parametrize("fmt", ["f32", "i16"])
def test_write_and_read_allocate_blocks_beside_the_samples(tmp_path, fmt):
    # write: block temporaries only; read: the float64 output plus one block
    n = 1 << 20
    buf = SignalBuffer(np.exp(0.001j * np.arange(n)), 1e6)
    path = tmp_path / "rec.iq"
    tracemalloc.start()
    try:
        iqio.write_iq(path, buf, fmt=fmt)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        back, _ = iqio.read_iq(path)
        read_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(back) == n
    assert write_peak / n <= 2.0
    assert read_peak / n <= 18.0


@pytest.mark.parametrize("fmt,edit,message", [
    ("f32", [1, 2], "expected a JSON object, got a list"),
    ("f32", {"format": ["f32"]}, "field 'format' must be one of"),
    ("f32", {"format": "f64"}, "field 'format' must be one of"),
    ("i16", {"full_scale": None}, "field 'full_scale' must be a finite number"),
    ("i16", {"full_scale": "8"}, "field 'full_scale' must be a finite number"),
    ("f32", {"n_samples": 100.7}, "field 'n_samples' must be a positive integer"),
    ("f32", {"n_samples": 4.0}, "field 'n_samples' must be a positive integer"),
    ("f32", {"n_samples": 0}, "field 'n_samples' must be a positive integer"),
    ("f32", {"n_samples": True}, "field 'n_samples' must be a positive integer"),
    ("f32", {"sample_rate_hz": float("nan")}, "field 'sample_rate_hz' must be a finite"),
    ("f32", {"if_offset_hz": [0.0]}, "field 'if_offset_hz' must be a finite number"),
    ("f32", {"if_offset_hz": 10 ** 400}, "field 'if_offset_hz' must be a finite number"),
    ("f32", {"epoch_s": {}}, "field 'epoch_s' must be a finite number"),
])
def test_malformed_sidecar_rejected_naming_the_field(tmp_path, fmt, edit, message):
    path = tmp_path / "rec.iq"
    side = iqio.write_iq(path, SignalBuffer(np.ones(4, dtype=complex), 1e6), fmt=fmt)
    meta = json.loads(side.read_text())
    side.write_text(json.dumps(dict(meta, **edit) if isinstance(edit, dict) else edit))
    with pytest.raises(ValueError, match=message) as exc:
        iqio.read_iq(path)
    assert str(side) in str(exc.value)


finite = st.floats(-1e30, 1e30, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(parts=st.lists(st.tuples(finite, finite), min_size=1, max_size=300),
       fmt=st.sampled_from(["f32", "i16"]), data=st.data())
def test_round_trip_within_quantization_and_any_cut_rejected(tmp_path_factory, parts, fmt,
                                                             data):
    # f32: float32 rounding of each component; i16: half an LSB of the full scale, which
    # is the peak rounded up to a power of two, so nothing clips
    x = np.array([complex(i, q) for i, q in parts])
    path = tmp_path_factory.mktemp("iq") / "rec.iq"
    iqio.write_iq(path, SignalBuffer(x, 1e6), fmt=fmt)
    back, meta = iqio.read_iq(path)
    if fmt == "f32":
        tol = np.maximum(np.abs(x.view(np.float64)) * 2.0 ** -24, 2.0 ** -149)
    else:
        tol = np.full(2 * len(x), 0.5 * meta["full_scale"] / 32767 * (1 + 1e-12))
    assert np.all(np.abs(back.samples.view(np.float64) - x.view(np.float64)) <= tol)
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) - data.draw(st.integers(1, len(raw)), label="cut")])
    with pytest.raises(ValueError, match=f"n_samples {len(x)} needs {len(raw)}"):
        iqio.read_iq(path)
