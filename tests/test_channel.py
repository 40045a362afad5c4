"""Channel model: container invariants, the synthetic generator statistics,
file round trips, snapshot interpolation, and the Doppler spectrum."""

import math

import numpy as np
import pytest
from scipy import stats

from synthrf.channel import (ChannelFormatError, ChannelSet, ChannelSpec,
                             PathSeries, PathSpec, SourceChannel, SourceSpec,
                             doppler_spectrum, earliest_delay_s,
                             generate_synthetic_channel, load_channel,
                             resample_coefficients, store_channel)

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
    def test_snapshot_count_must_match_rate_and_duration(self):
        path = PathSeries(coefficients=np.ones(50, dtype=complex),
                         delays_s=np.full(50, 1e-5))
        src = SourceChannel(source_id="a", source_kind="satellite", los=True,
                            paths=(path,))
        with pytest.raises(ValueError, match="snapshot count"):
            ChannelSet(sources=(src,), update_rate_hz=1000.0, duration_s=0.1)

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

    def test_truncated_binary_rejected(self, tmp_path):
        cs = self._set()
        path = tmp_path / "channels.bin"
        store_channel(cs, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ChannelFormatError):
            load_channel(path)


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
