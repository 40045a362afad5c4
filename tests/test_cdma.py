"""CDMA-BPSK synthesis: config validation, clean-signal structure, the code
NCO against a resampled reference, time-varying delay, channel application,
and determinism."""

import math

import numpy as np
import pytest
from scipy import signal

from synthrf import cdma, dsp, prn, receiver
from synthrf.cdma import CdmaGenConfig, HAPS_DEFAULTS
from synthrf.channel import ChannelSpec, generate_synthetic_channel

from conftest import los_source, make_los_channel


def sat_config(**kw):
    base = dict(duration_s=0.001, sources=((1, "s1"),))
    base.update(kw)
    return CdmaGenConfig(**base)


class TestConfig:
    def test_default_sample_budget(self):
        assert sat_config().n_samples == 38192
        assert sat_config(duration_s=0.020).n_samples == 763840

    def test_sampling_guards(self):
        with pytest.raises(ValueError, match="Nyquist"):
            sat_config(f_if_hz=20e6)
        with pytest.raises(ValueError, match="r_c_hz"):
            sat_config(r_c_hz=20.46e6)

    @pytest.mark.parametrize("field,value,message", [
        ("f_s_hz", 0.0, "f_s_hz must be positive"),
        ("r_c_hz", 0.0, "r_c_hz must be positive"),
        ("t_d_s", 0.0, "t_d_s must be positive"),
        ("t_d_s", -0.02, "t_d_s must be positive"),
        ("duration_s", 1e-9, "at least one sample"),
        ("duration_s", -0.001, "at least one sample"),
    ])
    def test_rejects_degenerate_rates_and_durations(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            sat_config(**{field: value})

    def test_bit_duration_must_fit_code_periods(self):
        with pytest.raises(ValueError, match="t_d_s"):
            sat_config(t_d_s=0.0015)
        sat_config(t_d_s=0.002)  # two code periods is fine

    def test_haps_defaults_are_consistent(self):
        cfg = CdmaGenConfig(duration_s=0.001, sources=((1, "h1"),),
                            **HAPS_DEFAULTS)
        assert cfg.r_c_hz == 10.23e6
        assert cfg.f_if_hz == 15e6


class TestCleanSignal:
    def test_length_rate_and_if_annotation(self):
        cfg = sat_config(duration_s=0.002)
        code = prn.generate_ca_code(1)
        buf = cdma.generate_clean_signal(code, cfg)
        assert len(buf) == cfg.n_samples
        assert buf.sample_rate_hz == cfg.f_s_hz
        assert buf.if_offset_hz == cfg.f_if_hz

    def test_spectrum_centered_on_if(self):
        cfg = sat_config(duration_s=0.001)
        buf = cdma.generate_clean_signal(prn.generate_ca_code(1), cfg)
        spec = np.abs(np.fft.fft(buf.samples)) ** 2
        freqs = np.fft.fftfreq(len(buf), 1.0 / cfg.f_s_hz)
        centroid = np.sum(freqs * spec) / np.sum(spec)
        assert centroid == pytest.approx(cfg.f_if_hz, abs=0.05 * cfg.r_c_hz)

    def test_chipping_rate_mismatch_rejected(self):
        cfg = sat_config()
        code = prn.generate_ca_code(1, chipping_rate_hz=10.23e6)
        with pytest.raises(ValueError, match="chipping rate"):
            cdma.generate_clean_signal(code, cfg)

    def test_despread_recovers_code_power(self):
        # wipe the IF and correlate with the code replica: the zero-lag
        # despread gain must be near the coherent maximum
        cfg = sat_config(duration_s=0.001, modulate_data=False)
        code = prn.generate_ca_code(1)
        buf = cdma.generate_clean_signal(code, cfg)
        t = np.arange(len(buf)) / cfg.f_s_hz
        baseband = buf.samples * np.exp(-2j * np.pi * cfg.f_if_hz * t)
        step = cfg.r_c_hz / cfg.f_s_hz
        idx = np.floor(np.arange(len(buf)) * step + 0.5).astype(int) % 1023
        corr = abs(np.dot(baseband, code.chips[idx])) / len(buf)
        assert corr > 0.85

    def test_data_bits_flip_the_chips(self):
        cfg = sat_config(duration_s=0.004, t_d_s=0.001, data_seed=2)
        code = prn.generate_ca_code(1)
        with_data = cdma.generate_clean_signal(code, cfg)
        cfg_nd = sat_config(duration_s=0.004, t_d_s=0.001, data_seed=2,
                            modulate_data=False)
        without = cdma.generate_clean_signal(code, cfg_nd)
        n_bit = round(cfg.t_d_s * cfg.f_s_hz)
        signs = []
        for b in range(4):
            seg_a = with_data.samples[b * n_bit:(b + 1) * n_bit]
            seg_b = without.samples[b * n_bit:(b + 1) * n_bit]
            ratio = np.dot(seg_a, np.conj(seg_b)).real / np.sum(np.abs(seg_b) ** 2)
            signs.append(round(ratio))
        assert set(signs) <= {-1, 1}
        assert -1 in signs  # seed 2 flips at least one of the first 4 bits


class TestSynthesize:
    def test_two_source_sum_and_noise(self):
        channels = make_los_channel([1.0e-5, 1.5e-5], [1000.0, -2000.0],
                                    duration_s=0.002)
        cfg = sat_config(duration_s=0.002, sources=((1, "s1"), (2, "s2")),
                         noise_power_dbw=-20.0, noise_seed=4)
        buf = cdma.synthesize(cfg, channels)
        assert len(buf) == cfg.n_samples
        clean = cdma.synthesize(sat_config(duration_s=0.002,
                                           sources=((1, "s1"), (2, "s2"))),
                                channels)
        noise = buf.samples - clean.samples
        assert 10 * np.log10(np.var(noise)) == pytest.approx(-20.0, abs=0.3)

    def test_channel_source_must_exist(self):
        channels = make_los_channel([1.0e-5], [0.0], duration_s=0.002)
        cfg = sat_config(duration_s=0.002, sources=((1, "missing"),))
        with pytest.raises(KeyError):
            cdma.synthesize(cfg, channels)

    def test_channel_shorter_than_waveform_rejected(self):
        channels = make_los_channel([1.0e-5], [0.0], duration_s=0.001)
        cfg = sat_config(duration_s=0.004)
        with pytest.raises(ValueError):
            cdma.synthesize(cfg, channels)

    def test_determinism(self):
        channels = make_los_channel([1.0e-5], [500.0], duration_s=0.002)
        cfg = sat_config(duration_s=0.002, noise_power_dbw=-15.0)
        a = cdma.synthesize(cfg, channels)
        b = cdma.synthesize(cfg, channels)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_unit_channel_preserves_signal_power(self):
        channels = make_los_channel([1.0e-5], [0.0], duration_s=0.002)
        cfg = sat_config(duration_s=0.002)
        buf = cdma.synthesize(cfg, channels)
        power = np.mean(np.abs(buf.samples) ** 2)
        assert power == pytest.approx(1.0, rel=0.05)


class TestCodeNco:
    def test_matches_resampled_rect_chips_at_zero_delay(self):
        # reference: rect chips at 5 samples per chip, chip m centred on code
        # phase m, polyphase-resampled to f_s and mixed to IF
        cfg = sat_config(duration_s=0.005, modulate_data=False)
        code = prn.generate_ca_code(1)
        buf = cdma.generate_clean_signal(code, cfg)
        n_chips = math.ceil(cfg.duration_s * cfg.r_c_hz)
        stream = np.resize(code.chips, n_chips + 1)[(np.arange(5 * n_chips) + 2) // 5]
        # 38.192 MHz / (5 x 1.023 MHz) = 112/15; resample_poly scales the window by up
        h = cdma.design_antialias_fir(5 * cfg.r_c_hz, cfg.f_s_hz, 112)
        ref = signal.resample_poly(stream, 112, 15, window=h)
        ref = dsp.mix_carrier(dsp.SignalBuffer(ref[:cfg.n_samples], cfg.f_s_hz), cfg.f_if_hz)
        edge = round(50e-6 * cfg.f_s_hz)
        a, b = buf.samples[edge:-edge], ref.samples[edge:-edge]
        rho = abs(np.vdot(b, a)) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
        assert rho >= 0.999

    def test_time_varying_delay_is_applied(self):
        rate = 1e-5  # s/s: 200 ns, about 7.6 samples, over the 20 ms
        spec = ChannelSpec(sources=(los_source("s1", 1e-5, 0.0, delay_rate=rate),),
                           update_rate_hz=40e3, duration_s=0.02, seed=0)
        cfg = sat_config(duration_s=0.02, modulate_data=False)
        buf = cdma.synthesize(cfg, generate_synthetic_channel(spec))
        n = round(cfg.f_s_hz * 1e-3)
        t = np.arange(len(buf)) / cfg.f_s_hz
        baseband = buf.samples * np.exp(-2j * np.pi * cfg.f_if_hz * t)
        replica = receiver.sample_code_replica(prn.generate_ca_code(1), cfg.f_s_hz, n)
        lags = []
        for w in range(20):  # one code period per window: the peak lag is the delay
            corr = np.abs(dsp.fft_correlate(baseband[w * n:(w + 1) * n], replica))
            k = int(np.argmax(corr))
            y0, y1, y2 = corr[k - 1], corr[k], corr[(k + 1) % n]
            lags.append(k + 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2))
        slope = np.polyfit((np.arange(20) + 0.5) * 1e-3,
                           np.array(lags) / cfg.f_s_hz, 1)[0]
        assert slope == pytest.approx(rate, rel=0.02)
