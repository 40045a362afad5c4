"""Channel model: container invariants, the synthetic generator statistics,
file round trips, snapshot interpolation, and the Doppler spectrum."""

import contextlib
import io
import json
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from synthrf import channel, cli, dsp
from synthrf.channel import (ChannelFormatError, ChannelSet, ChannelSpec,
                             PathSeries, PathSpec, SourceChannel, SourceSpec,
                             doppler_spectrum, earliest_delay_s,
                             generate_synthetic_channel, load_channel,
                             propagate_and_sum, resample_coefficients, store_channel)

from conftest import los_source, make_los_channel, nlos_source


def single_path_set(doppler_hz=0.0, rician_k=math.inf, fading_doppler_hz=0.0,
                    duration_s=0.1, f_ch=40e3, seed=0, mean_power_db=0.0,
                    los=None):
    if los is None:
        los = rician_k > 0
    spec = ChannelSpec(
        sources=(SourceSpec(source_id="s1", kind="satellite",
                            los=los,
                            paths=(PathSpec(initial_delay_s=1e-5,
                                            mean_power_db=mean_power_db,
                                            doppler_hz=doppler_hz,
                                            rician_k=rician_k,
                                            fading_doppler_hz=fading_doppler_hz),)),),
        update_rate_hz=f_ch, duration_s=duration_s, seed=seed)
    return generate_synthetic_channel(spec)


class TestContainers:
    def test_sources_must_share_one_snapshot_count(self):
        def source(sid, n):
            path = PathSeries(coefficients=np.ones(n, dtype=complex), delays_s=np.full(n, 1e-5))
            return SourceChannel(source_id=sid, source_kind="satellite", los=True, paths=(path,))
        ChannelSet(sources=(source("a", 50), source("b", 50)), update_rate_hz=1000.0)
        with pytest.raises(ValueError, match="snapshot count"):
            ChannelSet(sources=(source("a", 50), source("b", 60)), update_rate_hz=1000.0)

    def test_path_zero_must_arrive_first(self):
        early = PathSeries(coefficients=np.ones(10, dtype=complex),
                           delays_s=np.full(10, 1e-6))
        late = PathSeries(coefficients=np.ones(10, dtype=complex),
                          delays_s=np.full(10, 2e-6))
        with pytest.raises(ValueError, match="first-arriving"):
            SourceChannel(source_id="a", source_kind="satellite", los=True,
                          paths=(late, early))
        SourceChannel(source_id="a", source_kind="satellite", los=True,
                      paths=(early, late))

    def test_unknown_kind_rejected(self):
        path = PathSeries(coefficients=np.ones(10, dtype=complex),
                          delays_s=np.full(10, 1e-6))
        with pytest.raises(ValueError, match="kind"):
            SourceChannel(source_id="a", source_kind="drone", los=True,
                          paths=(path,))

    @pytest.mark.parametrize("sid", ["", "sat 1", "s\t2", "s\n", "sät"])
    def test_an_id_the_file_header_cannot_hold_is_rejected(self, sid):
        path = PathSeries(coefficients=np.ones(10, dtype=complex), delays_s=np.full(10, 1e-6))
        with pytest.raises(ValueError, match=f"source id {re.escape(repr(sid))} must be"):
            SourceChannel(source_id=sid, source_kind="gnb", los=True, paths=(path,))

    def test_source_lookup(self):
        cs = make_los_channel([1e-5, 2e-5], [0.0, 100.0], duration_s=0.01)
        assert cs.source_ids == ["s1", "s2"]
        assert cs.source("s2").paths[0].delays_s[0] == pytest.approx(2e-5)
        with pytest.raises(KeyError):
            cs.source("nope")


def test_earliest_delay_covers_only_the_given_sources():
    channels = make_los_channel([2e-5, 1e-5, 3e-5], [0.0, 0.0, 0.0], 0.001)
    assert earliest_delay_s(channels, ["s1", "s3"]) == 2e-5
    assert earliest_delay_s(channels, channels.source_ids) == 1e-5


class TestGenerator:
    def test_pure_los_has_unit_magnitude_and_linear_phase(self):
        f_ch, f_d = 40e3, 2500.0
        cs = single_path_set(doppler_hz=f_d, f_ch=f_ch, duration_s=0.05)
        h = cs.source("s1").paths[0].coefficients
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)
        increments = np.angle(h[1:] * np.conj(h[:-1]))
        np.testing.assert_allclose(increments, 2 * np.pi * f_d / f_ch,
                                   atol=1e-9)

    def test_mean_power_scaling(self):
        cs = single_path_set(mean_power_db=-30.0)
        h = cs.source("s1").paths[0].coefficients
        assert 10 * np.log10(np.mean(np.abs(h) ** 2)) == pytest.approx(-30.0,
                                                                       abs=0.1)

    def test_rayleigh_envelope_statistics(self):
        # Rayleigh path (K = 0) with wide fading: the envelope should pass a
        # KS test against the Rayleigh law after decimating the correlated
        # series to roughly independent draws.
        cs = single_path_set(rician_k=0.0, fading_doppler_hz=16e3,
                             duration_s=0.4, f_ch=40e3, seed=5)
        h = cs.source("s1").paths[0].coefficients
        power = np.mean(np.abs(h) ** 2)
        assert power == pytest.approx(1.0, rel=0.05)
        env = np.abs(h[::4])
        _, p = stats.kstest(env, "rayleigh", args=(0, np.sqrt(power / 2)))
        assert p > 1e-3

    def test_rician_k_controls_fading_depth(self):
        deep = single_path_set(rician_k=0.0, fading_doppler_hz=8e3,
                               duration_s=0.2, seed=2)
        shallow = single_path_set(rician_k=100.0, fading_doppler_hz=8e3,
                                  duration_s=0.2, seed=2)
        spread = lambda cs: np.std(np.abs(cs.source("s1").paths[0].coefficients))
        assert spread(shallow) < 0.3 * spread(deep)

    def test_delay_rate_moves_delays_linearly(self):
        f_ch = 2000.0
        spec = ChannelSpec(
            sources=(SourceSpec(source_id="s1", kind="haps", los=True,
                                paths=(PathSpec(initial_delay_s=1e-5,
                                                delay_rate=1e-6),)),),
            update_rate_hz=f_ch, duration_s=0.1, seed=0)
        d = generate_synthetic_channel(spec).source("s1").paths[0].delays_s
        t = np.arange(len(d)) / f_ch
        np.testing.assert_allclose(d, 1e-5 + 1e-6 * t, atol=1e-15)

    def test_seed_determinism(self):
        a = single_path_set(rician_k=0.0, fading_doppler_hz=4e3, seed=9)
        b = single_path_set(rician_k=0.0, fading_doppler_hz=4e3, seed=9)
        c = single_path_set(rician_k=0.0, fading_doppler_hz=4e3, seed=10)
        ha = a.source("s1").paths[0].coefficients
        np.testing.assert_array_equal(ha, b.source("s1").paths[0].coefficients)
        assert not np.array_equal(ha, c.source("s1").paths[0].coefficients)


class TestFileRoundTrip:
    def _set(self):
        spec = ChannelSpec(
            sources=(los_source("sat1", 1.2e-5, 2500.0),
                     nlos_source("sat2", 3.4e-5, -1000.0, -30.0, 200.0)),
            update_rate_hz=4000.0, duration_s=0.02, seed=3)
        return generate_synthetic_channel(spec)

    @pytest.mark.parametrize("ext", [".chn", ".bin"])
    def test_round_trip(self, tmp_path, ext):
        cs = self._set()
        path = tmp_path / ("channels" + ext)
        store_channel(cs, path)
        back = load_channel(path)
        assert back.source_ids == cs.source_ids
        assert back.update_rate_hz == cs.update_rate_hz
        for sid in cs.source_ids:
            a, b = cs.source(sid), back.source(sid)
            assert a.los == b.los and a.source_kind == b.source_kind
            for pa, pb in zip(a.paths, b.paths):
                np.testing.assert_allclose(pb.coefficients, pa.coefficients,
                                           rtol=1e-12)
                np.testing.assert_allclose(pb.delays_s, pa.delays_s, rtol=1e-12)

    def test_text_round_trip_is_exact(self, tmp_path):
        cs = self._set()
        path = tmp_path / "channels.chn"
        store_channel(cs, path)
        back = load_channel(path)
        # repr-precision text must reproduce the doubles bit-exactly
        np.testing.assert_array_equal(
            back.source("sat2").paths[0].coefficients,
            cs.source("sat2").paths[0].coefficients)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "broken.chn"
        path.write_text("NOT-A-CHANNEL-FILE\n")
        with pytest.raises(ChannelFormatError):
            load_channel(path)

    def test_corrupt_record_names_the_location(self, tmp_path):
        cs = self._set()
        path = tmp_path / "channels.chn"
        store_channel(cs, path)
        lines = path.read_text().splitlines()
        lines[2] = "0,garbage,0.0,0.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ChannelFormatError, match="sat1"):
            load_channel(path)

    @pytest.mark.parametrize("ext", [".chn", ".bin"])
    @pytest.mark.parametrize("f_ch,n_snap", [("1000.0", 0), ("nan", 1), ("inf", 1), ("0.0", 1)])
    def test_bad_rate_or_empty_series_rejected(self, tmp_path, ext, f_ch, n_snap):
        body = np.zeros((n_snap, 4)).tobytes() if ext == ".bin" else b"0,0.0,0.0,0.0\n" * n_snap
        path = tmp_path / ("channels" + ext)
        path.write_bytes(f"SYNTHRF-CHAN v1\nsource s satellite 1 1 {f_ch} {n_snap}\n".encode() + body)
        with pytest.raises(ChannelFormatError):
            load_channel(path)

    def test_truncated_binary_rejected(self, tmp_path):
        cs = self._set()
        path = tmp_path / "channels.bin"
        store_channel(cs, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ChannelFormatError):
            load_channel(path)


# --- channel files: bit-exact round trips, and every malformation a ChannelFormatError

EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


@st.composite
def channel_sets(draw):
    """1-3 sources of 1-3 paths with any finite doubles: zeros of both signs,
    subnormals and the largest magnitudes among them; a Python or numpy rate."""
    n_snap = draw(st.integers(1, 4))
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(EDGE_VALUES))
    delays = st.one_of(st.floats(0.0, 1e308), st.sampled_from([-0.0, 5e-324, 1e308]))
    def series(elements):
        return np.array(draw(st.lists(elements, min_size=n_snap, max_size=n_snap)))
    sources = []
    for s in range(draw(st.integers(1, 3))):
        paths = []
        for _ in range(draw(st.integers(1, 3))):
            coeff = np.empty(n_snap, dtype=complex)
            coeff.real, coeff.imag = series(values), series(values)
            paths.append(PathSeries(coeff, series(delays)))
        sources.append(SourceChannel(f"s{s}", draw(st.sampled_from(channel.SOURCE_KINDS)),
                                     draw(st.booleans()),
                                     sorted(paths, key=lambda p: p.delays_s[0])))
    rate = st.floats(5e-324, 1e308)
    return ChannelSet(sources, draw(st.one_of(rate, rate.map(np.float64))))


def bits(a):
    return a.view(np.uint64).tolist()


def assert_rejected(path):
    """load_channel raises ChannelFormatError, and synthesize exits 1 on the file."""
    with pytest.raises(ChannelFormatError):
        load_channel(path)
    config = path.with_name("config.json")
    config.write_text(json.dumps({"sources": [{"prn_id": 1, "source_id": "s0"}]}))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["synthesize", "cdma", "--config", str(config), "--channel", str(path),
                         "--out", str(path.with_name("out.iq"))]) == 1


class TestChannelFileProperties:
    @settings(max_examples=80, deadline=None)
    @given(cs=channel_sets(), ext=st.sampled_from([".chn", ".bin"]))
    def test_round_trip_is_bit_exact(self, tmp_path_factory, cs, ext):
        path = tmp_path_factory.mktemp("chan") / ("channels" + ext)
        store_channel(cs, path)
        back = load_channel(path)
        assert back.update_rate_hz == cs.update_rate_hz
        assert [(s.source_id, s.source_kind, s.los) for s in back.sources] == \
            [(s.source_id, s.source_kind, s.los) for s in cs.sources]
        for a, b in zip(cs.sources, back.sources):
            assert [(bits(p.coefficients), bits(p.delays_s)) for p in a.paths] == \
                [(bits(p.coefficients), bits(p.delays_s)) for p in b.paths]

    @settings(max_examples=80, deadline=None)
    @given(cs=channel_sets(), ext=st.sampled_from([".chn", ".bin"]), data=st.data())
    def test_a_truncated_file_is_rejected_unless_it_ends_a_source(self, tmp_path_factory, cs,
                                                                  ext, data):
        path = tmp_path_factory.mktemp("chan") / ("channels" + ext)
        store_channel(cs, path)
        raw = path.read_bytes()
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        path.write_bytes(raw[:cut])
        try:
            kept = len(load_channel(path).sources)
        except ChannelFormatError:
            assert_rejected(path)
            return
        # no count of sources is stored, so a cut after a whole source loads the ones
        # before it; in text, so does a cut inside the final delay's digits
        store_channel(ChannelSet(cs.sources[:kept], cs.update_rate_hz), path)
        whole = path.read_bytes()
        assert cut == len(whole) or (ext == ".chn" and whole.rfind(b",") < cut < len(whole))

    @settings(max_examples=80, deadline=None)
    @given(cs=channel_sets(), ext=st.sampled_from([".chn", ".bin"]), data=st.data())
    def test_a_bad_field_is_rejected(self, tmp_path_factory, cs, ext, data):
        path = tmp_path_factory.mktemp("chan") / ("channels" + ext)
        store_channel(cs, path)
        raw = path.read_bytes()
        src = data.draw(st.integers(0, len(cs.sources) - 1), label="source")
        n_snap = cs.sources[0].n_snapshots
        row = data.draw(st.integers(0, len(cs.sources[src].paths) * n_snap - 1), label="row")
        col = data.draw(st.integers(0, 3), label="column")
        # -1 is a valid coefficient, so only an index or a delay may turn negative
        bad = data.draw(st.sampled_from(["x", "nan", "-1"] if col in (0, 3) else ["x", "nan"]))
        if ext == ".bin":
            store_channel(ChannelSet(cs.sources[:src], cs.update_rate_hz), path)
            at = raw.index(b"\n", len(path.read_bytes())) + 1 + (row * 4 + col) * 8
            raw = raw[:at] + np.float64("nan" if bad == "x" else bad).tobytes() + raw[at + 8:]
        else:
            lines = raw.split(b"\n")
            # the magic line, a header per source up to this one, the rows before it
            i = 2 + src + sum(len(s.paths) for s in cs.sources[:src]) * n_snap + row
            fields = lines[i].split(b",")
            fields[col] = bad.encode()
            lines[i] = b",".join(fields)
            raw = b"\n".join(lines)
        path.write_bytes(raw)
        assert_rejected(path)


class TestResampleCoefficients:
    def test_linear_interpolation_between_snapshots(self):
        h = np.array([1.0 + 0j, 3.0 + 2j, 5.0 + 4j])
        d = np.array([1e-6, 2e-6, 3e-6])
        series = PathSeries(coefficients=h, delays_s=d)
        out = resample_coefficients(series, f_ch=1000.0, target_rate_hz=2000.0,
                                    n_samples=5)
        np.testing.assert_allclose(out.coefficients,
                                   [1 + 0j, 2 + 1j, 3 + 2j, 4 + 3j, 5 + 4j])
        np.testing.assert_allclose(out.delays_s,
                                   [1e-6, 1.5e-6, 2e-6, 2.5e-6, 3e-6])

    def test_holds_last_value_at_the_tail(self):
        series = PathSeries(coefficients=np.array([1 + 1j, 2 + 2j]),
                            delays_s=np.array([0.0, 1e-6]))
        out = resample_coefficients(series, f_ch=1000.0, target_rate_hz=4000.0,
                                    n_samples=8)
        assert out.coefficients[-1] == pytest.approx(2 + 2j)

    def test_rejects_requests_past_the_series(self):
        series = PathSeries(coefficients=np.ones(4, dtype=complex),
                            delays_s=np.zeros(4))
        with pytest.raises(ValueError):
            resample_coefficients(series, f_ch=1000.0, target_rate_hz=2000.0,
                                  n_samples=64)


class TestDopplerSpectrum:
    def test_peak_at_path_doppler(self):
        f_ch = 40e3
        cs = single_path_set(doppler_hz=2500.0, f_ch=f_ch, duration_s=0.1)
        result = doppler_spectrum(cs.source("s1"), f_ch, nfft=1024)
        assert abs(result.peak_freq_hz - 2500.0) <= f_ch / 1024

    def test_axis_spans_half_rate_each_side(self):
        f_ch = 40e3
        cs = single_path_set(f_ch=f_ch, duration_s=0.1)
        result = doppler_spectrum(cs.source("s1"), f_ch, nfft=1024)
        assert result.freqs_hz[-1] == pytest.approx(f_ch / 2)
        assert result.freqs_hz[0] == pytest.approx(-f_ch / 2 + f_ch / 1024)
        assert np.all(np.diff(result.freqs_hz) > 0)

    def test_negative_doppler_lands_on_negative_axis(self):
        f_ch = 40e3
        cs = single_path_set(doppler_hz=-3000.0, f_ch=f_ch, duration_s=0.1)
        result = doppler_spectrum(cs.source("s1"), f_ch, nfft=1024)
        assert abs(result.peak_freq_hz + 3000.0) <= f_ch / 1024

    def test_nfft_larger_than_series_rejected(self):
        cs = single_path_set(duration_s=0.01, f_ch=4000.0)  # 40 snapshots
        with pytest.raises(ValueError):
            doppler_spectrum(cs.source("s1"), 4000.0, nfft=1024)


# --- the block path renderer against the whole-array propagation ------------

F_S = 2.0 ** 20  # a power of two: a delay of k / F_S seconds is exactly k samples
F_CH = 2.0 ** 14


def reference_propagate(clean, channels, d_min_s):
    """Whole-array FFT delay of every path, times its coefficients over the whole
    scene, summed in source order: what the block renderer must match bit for bit."""
    n = len(next(iter(clean.values())))
    total = np.zeros(n, dtype=np.complex128)
    for sid in sorted(clean):
        x = clean[sid].samples
        for path in channels.source(sid).paths:
            shift = (path.delays_s[0] - d_min_s) * F_S
            if shift >= n:
                warnings.warn("delay exceeds buffer duration; output is all zeros")
                delayed = np.zeros(n, dtype=np.complex128)
            else:
                whole = int(np.floor(shift))
                frac = shift - whole
                if frac > 1e-12:
                    delayed = np.fft.fft(x)
                    delayed *= dsp._phasor(-shift / n, n)
                    delayed[(n + 1) // 2:] *= np.exp(2j * np.pi * frac)
                    delayed = np.fft.ifft(delayed)
                else:
                    delayed = np.roll(x, whole)
                delayed[:whole] = 0.0
            t_snap = np.arange(path.n_snapshots) / F_CH
            coeff = np.interp(np.arange(n) / F_S, t_snap, path.coefficients)
            total += delayed * coeff
    return total


def render_case(n, seed, kinds_per_source, block):
    """Clean signals of n samples and a channel of one source per kinds list, each
    path with a whole, fractional or out-of-buffer delay drawn from seed."""
    rng = np.random.default_rng(seed)
    n_snap = math.ceil(n / F_S * F_CH) + 1
    sources, clean = [], {}
    for s, kinds in enumerate(kinds_per_source):
        shifts = []
        for kind in kinds:
            whole = float(rng.integers(0, n))
            shifts.append({"whole": whole, "fraction": whole + rng.uniform(0.01, 0.99),
                           "beyond": n + float(rng.integers(0, 3))}[kind])
        paths = [PathSeries(rng.standard_normal(n_snap) + 1j * rng.standard_normal(n_snap),
                            np.full(n_snap, shift / F_S)) for shift in sorted(shifts)]
        sources.append(SourceChannel(f"s{s}", "gnb", True, paths))
        clean[f"s{s}"] = dsp.SignalBuffer(rng.standard_normal(n) + 1j * rng.standard_normal(n), F_S)
    return clean, ChannelSet(sources, F_CH), block


@st.composite
def render_cases(draw):
    """Lengths around block boundaries (and at or past 16384 samples, where numpy
    reuses temporaries), 1-2 sources of 1-3 paths with integer, fractional or
    out-of-buffer delays, and a block of 1024, 3072, 7168 or 16384 samples."""
    n = draw(st.one_of(st.integers(1, 4000), st.integers(16384 - 40, 16384 + 40),
                       st.integers(16385, 40000)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    kinds = st.sampled_from(["whole", "fraction", "beyond"])
    kinds_per_source = [draw(st.lists(kinds, min_size=1, max_size=3))
                        for _ in range(draw(st.integers(1, 2)))]
    return render_case(n, seed, kinds_per_source, draw(st.sampled_from([1024, 3072, 7168, 16384])))


class TestBlockRenderer:
    @settings(max_examples=40, deadline=None)
    @given(case=render_cases())
    # a last block of one sample, past the upper half's first bin: a one-sample
    # in-place complex multiply rounds unlike the same element in a longer one
    @example(case=render_case(16385, 2, [["fraction"] * 3], 16384))
    def test_blocks_change_no_output_bit(self, case):
        clean, channels, block = case
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = reference_propagate(clean, channels, 0.0)
        with (mock.patch.object(dsp, "BLOCK_SAMPLES", block),
              mock.patch.object(channel, "BLOCK_SAMPLES", block),
              warnings.catch_warnings(record=True) as got_warnings):
            warnings.simplefilter("always")
            got = propagate_and_sum(clean, channels, d_min_s=0.0).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # a delay of a whole buffer or more still warns, once per such path
        assert len(got_warnings) == len(want_warnings)

    def test_paths_of_a_source_share_one_forward_fft(self):
        n, n_snap = 5000, 80
        clean = {"s0": dsp.SignalBuffer(np.ones(n, dtype=complex), F_S)}
        paths = [PathSeries(np.ones(n_snap), np.full(n_snap, (k + 0.5) / F_S)) for k in range(3)]
        channels = ChannelSet([SourceChannel("s0", "gnb", True, paths)], F_CH)
        with mock.patch.object(np.fft, "fft", wraps=np.fft.fft) as fft:
            propagate_and_sum(clean, channels, d_min_s=0.0)
        assert fft.call_count == 1
