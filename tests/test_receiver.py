"""Receiver: replica sampling, acquisition closed loop against the
synthesizer, the SNR gate, fine frequency, discriminators, and tracking."""

import math

import numpy as np
import pytest

from synthrf import cdma, prn, receiver
from synthrf.channel import ChannelSpec, generate_synthetic_channel
from synthrf.dsp import SignalBuffer, add_awgn
from synthrf.receiver import (AcquisitionConfig, AcquisitionResult,
                              TrackingConfig, acquire, dll_discriminator,
                              fine_frequency, pll_discriminator,
                              sample_code_replica, samples_per_chip, track)

from conftest import cn0_to_noise_dbw, los_source, make_los_channel, wrapped_error

F_S = 38.192e6


def scene(duration_s, delays_us, dopplers_hz, prns=(1,), noise_power_dbw=-math.inf,
          noise_seed=1, channel_seed=0):
    channels = make_los_channel([d * 1e-6 for d in delays_us], dopplers_hz,
                                duration_s=duration_s, seed=channel_seed)
    cfg = cdma.CdmaGenConfig(
        duration_s=duration_s,
        sources=tuple((p, f"s{i + 1}") for i, p in enumerate(prns)),
        noise_power_dbw=noise_power_dbw, noise_seed=noise_seed)
    return cdma.synthesize(cfg, channels), cfg


@pytest.fixture(scope="module")
def clean_scene():
    # one source, 1000-sample extra delay relative to a zero-delay anchor,
    # 2.5 kHz Doppler; 12 ms so fine frequency has room
    delay_us = 1000 / F_S * 1e6
    buf, _ = scene(0.012, [0.0, delay_us], [0.0, 2500.0], prns=(1, 7))
    return buf


class TestReplica:
    def test_one_sample_per_chip_reproduces_the_code(self):
        code = prn.generate_ca_code(4)
        out = sample_code_replica(code, 1.023e6, 1023)
        np.testing.assert_array_equal(out, code.chips)

    def test_integer_sample_shift_rolls_the_replica(self):
        code = prn.generate_ca_code(4)
        base = sample_code_replica(code, F_S, 40000)
        shifted = sample_code_replica(code, F_S, 40000, shift_samples=250.0)
        np.testing.assert_array_equal(shifted[250:], base[:-250])

    def test_samples_per_chip(self):
        code = prn.generate_ca_code(1)
        assert samples_per_chip(code, F_S) == 37


class TestAcquire:
    def test_recovers_code_phase_and_coarse_doppler(self, clean_scene):
        res = acquire(clean_scene, prn.generate_ca_code(7))
        assert res.acquired
        n = round(F_S * 1e-3)
        assert abs(wrapped_error(res.code_phase_samples, 1000, n)) <= 2
        assert res.coarse_freq_hz == pytest.approx(2500.0, abs=250.0)

    def test_fine_frequency_within_25_hz(self, clean_scene):
        res = acquire(clean_scene, prn.generate_ca_code(7))
        assert res.fine_freq_hz == pytest.approx(2500.0, abs=25.0)

    def test_absent_prn_rejected(self, clean_scene):
        res = acquire(clean_scene, prn.generate_ca_code(13))
        assert not res.acquired
        assert res.snr_db < 25.0

    def test_noise_only_rejected(self):
        noise = add_awgn(SignalBuffer(np.zeros(round(F_S * 1e-3),
                                               dtype=complex) + 0j + 1e-30,
                                      F_S, if_offset_hz=9.548e6),
                         0.0, seed=9)
        res = acquire(noise, prn.generate_ca_code(1))
        assert not res.acquired

    def test_surface_kept_on_request(self, clean_scene):
        cfg = AcquisitionConfig(keep_surface=True)
        res = acquire(clean_scene, prn.generate_ca_code(7), cfg)
        n = round(F_S * 1e-3)
        assert res.correlation_surface.shape == (21, n)
        # the reported peak is the surface argmax
        b, t = np.unravel_index(np.argmax(res.correlation_surface),
                                res.correlation_surface.shape)
        assert t == res.code_phase_samples

    def test_noise_lag_count_excludes_one_chip_window(self, clean_scene):
        res = acquire(clean_scene, prn.generate_ca_code(7))
        n = round(F_S * 1e-3)
        n_s = samples_per_chip(prn.generate_ca_code(7), F_S)
        assert res.noise_lag_count == n - (2 * n_s - 1)

    def test_short_buffer_rejected(self):
        buf = SignalBuffer(np.ones(1000, dtype=complex), F_S)
        with pytest.raises(ValueError):
            acquire(buf, prn.generate_ca_code(1))


class TestFineFrequency:
    def test_resolution_beats_the_coarse_grid(self, clean_scene):
        # deliberately hand in a coarse bin that is 400 Hz off
        f = fine_frequency(clean_scene, prn.generate_ca_code(7), 1000, 2100.0,
                           AcquisitionConfig(freq_step_hz=500.0))
        assert f == pytest.approx(2500.0, abs=25.0)

    def test_rejects_bad_tau(self, clean_scene):
        with pytest.raises(ValueError):
            fine_frequency(clean_scene, prn.generate_ca_code(7), -1, 0.0)


class TestDiscriminators:
    def test_dll_zero_when_balanced(self):
        assert dll_discriminator(1.0, 0.0, 1.0, 0.0) == 0.0
        assert dll_discriminator(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_dll_sign_and_normalization(self):
        assert dll_discriminator(2.0, 0.0, 1.0, 0.0) == pytest.approx(1 / 3)
        assert dll_discriminator(1.0, 0.0, 3.0, 0.0) == pytest.approx(-0.5)
        assert abs(dll_discriminator(5.0, 1.0, 0.1, 0.0)) <= 1.0

    def test_pll_small_angle_in_cycles(self):
        phase = 0.02  # radians
        d = pll_discriminator(math.cos(phase), math.sin(phase))
        assert d == pytest.approx(phase / (2 * math.pi), rel=1e-3)

    def test_pll_insensitive_to_data_flip(self):
        d1 = pll_discriminator(1.0, 0.1)
        d2 = pll_discriminator(-1.0, -0.1)
        assert d1 == pytest.approx(d2)


@pytest.fixture(scope="module")
def tracked():
    buf, _ = scene(0.05, [0.0, 1000 / F_S * 1e6], [0.0, 2500.0], prns=(1, 7))
    res = acquire(buf, prn.generate_ca_code(7))
    assert res.acquired
    return track(buf, prn.generate_ca_code(7), res)


class TestTrack:
    def test_epoch_count_and_axis(self, tracked):
        assert len(tracked) >= 48
        np.testing.assert_allclose(np.diff(tracked.epoch_s), 1e-3)

    def test_doppler_converges(self, tracked):
        tail = tracked.doppler_hz[-20:]
        assert np.mean(tail) == pytest.approx(2500.0, abs=10.0)

    def test_code_delay_static(self, tracked):
        tail = tracked.code_delay_samples[-20:]
        drift = abs(tail[-1] - tracked.code_delay_samples[5])
        assert drift < 0.1 * (F_S / 1.023e6)  # well inside a chip
        assert np.std(tail) < 2.0

    def test_prompt_power_dominates_quadrature(self, tracked):
        # the Costas loop is still settling after 50 ms at 10 Hz bandwidth,
        # so only require clear in-phase dominance, not full lock
        tail_i = np.abs(tracked.prompt_i[-20:])
        tail_q = np.abs(tracked.prompt_q[-20:])
        assert np.mean(tail_i) > 3 * np.mean(tail_q)
        # and the residual keeps shrinking
        assert np.mean(np.abs(tracked.prompt_q[-10:])) < \
            np.mean(np.abs(tracked.prompt_q[-20:-10]))

    def test_requires_acquired_result(self):
        buf = SignalBuffer(np.ones(round(F_S * 0.02), dtype=complex), F_S)
        bad = AcquisitionResult(prn_id=1, acquired=False, code_phase_samples=0,
                                coarse_freq_hz=0.0, fine_freq_hz=0.0,
                                snr_db=0.0)
        with pytest.raises(ValueError):
            track(buf, prn.generate_ca_code(1), bad)

    def test_loss_of_lock_on_signal_dropout(self):
        buf, _ = scene(0.1, [0.0], [1000.0], prns=(3,))
        cut = buf.samples.copy()
        cut[round(F_S * 0.02):] = 0.0
        gated = SignalBuffer(cut, F_S, if_offset_hz=buf.if_offset_hz)
        res = acquire(buf, prn.generate_ca_code(3))
        trace = track(gated, prn.generate_ca_code(3), res,
                      TrackingConfig(lock_loss_epochs=20))
        assert trace.loss_of_lock
        assert len(trace) < 60

    def test_carrier_aided_code_follows_code_doppler(self):
        # the delay drifts as the 4 kHz Doppler says it must, about half a
        # chip in 200 ms; carrier aiding steers the code NCO along with it
        f_d, rate = 4000.0, -4000.0 / 1575.42e6
        spec = ChannelSpec(sources=(los_source("s1", 1e-5, f_d, delay_rate=rate),),
                           update_rate_hz=40e3, duration_s=0.2, seed=0)
        cfg = cdma.CdmaGenConfig(duration_s=0.2, sources=((1, "s1"),))
        buf = cdma.synthesize(cfg, generate_synthetic_channel(spec))
        code = prn.generate_ca_code(1)
        res = acquire(buf, code)
        trace = track(buf, code, res, TrackingConfig(carrier_aiding=True))
        assert len(trace) >= 190 and not trace.loss_of_lock
        truth = rate * trace.epoch_s * F_S  # D(t) - D_min, in samples
        err = wrapped_error(trace.code_delay_samples, truth, round(F_S * 1e-3))
        assert np.max(np.abs(err)) / (F_S / 1.023e6) < 0.1
