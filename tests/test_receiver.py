"""Receiver: replica sampling, acquisition closed loop against the
synthesizer, the SNR gate, fine frequency, discriminators, and tracking."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

from synthrf import cdma, prn, receiver
from synthrf.channel import (ChannelSpec, generate_synthetic_channel,
                             propagate_and_sum)
from synthrf.dsp import SignalBuffer, add_awgn
from synthrf.receiver import (AcquisitionConfig, AcquisitionResult,
                              TrackingConfig, acquire, dll_discriminator,
                              fine_frequency, pll_discriminator,
                              sample_code_replica, samples_per_chip, track)

from conftest import (cn0_to_noise_dbw, los_source, make_los_channel, nlos_source,
                      wrapped_error)

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


def per_sample_replica(code, f_s, n, shift_samples=0.0):
    """Reference replica: chip floor((m - shift) R_c / f_s + 0.5) mod 1023 at every sample m."""
    m = np.arange(n) - shift_samples
    return code.chips[np.floor(m * (code.chipping_rate_hz / f_s) + 0.5).astype(np.int64)
                      % prn.CODE_LENGTH]


# stock rates: (chipping rate, sample rate, samples in the fewest whole-sample code periods)
STOCK_RATES = [(1.023e6, F_S, 38192), (1.023e6, 4.092e6, 4092), (1.023e6, 2.046e6, 2046),
               (1.023e6, 5e6, 5000), (1.023e6, 16.368e6, 16368), (1.023e6, 25e6, 25000),
               (10.23e6, F_S, 19096), (10.23e6, 20.46e6, 2046)]


class TestReplica:
    @pytest.mark.parametrize("r_c,f_s,period", STOCK_RATES)
    def test_matches_the_per_sample_formula(self, r_c, f_s, period):
        code = prn.generate_ca_code(7, chipping_rate_hz=r_c)
        for n in (round(f_s * 1e-3), round(f_s * 1e-2), round(f_s * 1e-2) + 1):
            # integer and fractional shifts across a whole period, none on a half-chip tie
            for shift in (0.0, 1.0, period // 3, period - 1.0, 0.5, period / 2 + 0.25,
                          1234.3, period - 0.75, period + 17.125):
                want = per_sample_replica(code, f_s, n, shift)
                assert np.array_equal(sample_code_replica(code, f_s, n, shift), want), (n, shift)

    @pytest.mark.parametrize("f_s,ms", [
        (38.1925e6, 1.0),  # a code period is 38,192.5 samples and two exceed n
        (F_S + 1.0 / 3.0, 10.0),  # no whole number of periods is a whole number of samples
    ])
    def test_falls_back_to_every_sample(self, f_s, ms):
        code = prn.generate_ca_code(7)
        n = round(f_s * ms * 1e-3)
        for shift in (0.0, 250.0, 1234.5):
            want = per_sample_replica(code, f_s, n, shift)
            assert np.array_equal(sample_code_replica(code, f_s, n, shift), want)

    def test_differs_only_at_half_chip_ties(self):
        # 40 MHz at 10.23 Mcps: a period is 4,000 samples, and some samples sit exactly
        # half a chip from a chip instant, which float rounding breaks either way (a shift
        # of a third of a period puts samples on ties at every rate)
        f_s, code = 40e6, prn.generate_ca_code(7, chipping_rate_hz=10.23e6)
        n = round(f_s * 1e-2) + 8000
        for shift in (0.0, 3.0, 1999.0, 3999.0, 4000 / 3):
            x = (np.arange(n) - shift) * (code.chipping_rate_hz / f_s) + 0.5
            ties = np.abs(x - np.round(x)) < 1e-9
            differ = sample_code_replica(code, f_s, n, shift) != per_sample_replica(
                code, f_s, n, shift)
            assert not np.any(differ & ~ties), shift
            assert np.any(ties)  # the check is not vacuous

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
        code = prn.generate_ca_code(7)
        res = acquire(clean_scene, code, cfg)
        n, m = round(F_S * 1e-3), 4096
        surface = res.correlation_surface
        assert surface.shape == (21, m)
        ref = per_bin_surface(clean_scene, code, cfg, m)
        assert np.max(np.abs(surface - ref)) <= 1e-9 * np.max(ref)
        # the main-lobe peak lies within one of its lags of the full-rate code phase
        b, lag = np.unravel_index(np.argmax(surface), surface.shape)
        assert abs(wrapped_error(lag * n / m, res.code_phase_samples, n)) <= n / m
        assert res.coarse_freq_hz == cfg.freq_search_min_hz + b * cfg.freq_step_hz

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


def main_lobe_points(code, f_s, n):
    """The search's inverse-FFT length: four samples per chip, at most n."""
    return min(n, next_fast_len(math.ceil(4 * code.chipping_rate_hz * n / f_s)))


def per_bin_surface(buf, code, cfg, m=None):
    """Reference search: one wipe-off and one forward FFT per Doppler bin.

    With m, each bin's product spectrum is cut to its m bins nearest DC and
    inverse-transformed at m points, as the main-lobe search does.
    """
    f_s = buf.sample_rate_hz
    n = round(f_s * cfg.coherent_ms * 1e-3)
    m = m or n
    lobe = np.rint(np.fft.fftfreq(m) * m).astype(int)  # negative bins index from the end
    seg = buf.samples[:n]
    replica_fft = np.conj(np.fft.fft(per_sample_replica(code, f_s, n)))
    n_bins = int(round((cfg.freq_search_max_hz - cfg.freq_search_min_hz)
                       / cfg.freq_step_hz)) + 1
    freqs = cfg.freq_search_min_hz + cfg.freq_step_hz * np.arange(n_bins)
    t = np.arange(n) / f_s
    surface = np.empty((n_bins, m))
    for i, f in enumerate(freqs):
        wiped = seg * np.exp(-2j * np.pi * (buf.if_offset_hz + f) * t)
        surface[i] = np.abs(np.fft.ifft((np.fft.fft(wiped) * replica_fft)[lobe])) ** 2
    return surface


def full_search(buf, code, cfg=AcquisitionConfig()):
    """Reference decision: the gate statistic at the full-rate surface's argmax."""
    surface = per_bin_surface(buf, code, cfg)
    b, tau = np.unravel_index(np.argmax(surface), surface.shape)
    n = surface.shape[1]
    dist = np.minimum((np.arange(n) - tau) % n, (tau - np.arange(n)) % n)
    noise = surface[b][dist >= samples_per_chip(code, buf.sample_rate_hz)]
    snr_db = 10.0 * np.log10(surface[b, tau] ** 2 / np.mean(noise ** 2))
    return (bool(snr_db >= cfg.snr_threshold_db), int(tau),
            cfg.freq_search_min_hz + b * cfg.freq_step_hz, snr_db)


def full_fft_fine_frequency(buf, code, tau_samples, coarse_hz, cfg=AcquisitionConfig()):
    """Reference fine frequency: argmax over the band of the full zero-padded FFT."""
    f_s = buf.sample_rate_hz
    n = round(f_s * cfg.fine_freq_ms * 1e-3)
    wiped = buf.samples[:n] * per_sample_replica(code, f_s, n, tau_samples)
    nfft = next_fast_len(4 * n)
    spectrum = np.abs(np.fft.fft(wiped, nfft))
    freqs = np.fft.fftfreq(nfft, 1.0 / f_s)
    idx = np.flatnonzero(np.abs(freqs - (buf.if_offset_hz + coarse_hz)) <= cfg.freq_step_hz)
    return float(freqs[idx[np.argmax(spectrum[idx])]] - buf.if_offset_hz)


def tone_buffer(f_s, if_offset_hz, doppler_hz, tau_samples, duration_s):
    """PRN 7 at tau_samples on a carrier at if_offset_hz + doppler_hz, plus noise."""
    n = round(f_s * duration_s)
    code = prn.generate_ca_code(7)
    rng = np.random.default_rng(3)
    x = (per_sample_replica(code, f_s, n, tau_samples)
         * np.exp(2j * np.pi * (if_offset_hz + doppler_hz) * np.arange(n) / f_s)
         + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    return SignalBuffer(x, f_s, if_offset_hz=if_offset_hz), code


class TestSharedSpectrumSearch:
    """The search shares one forward FFT among bins whole FFT bins apart and
    must give the surface of the per-bin search."""

    # (config, groups): 500 Hz steps on 1 kHz FFT bins form 2 groups, on
    # 500 Hz bins 1; 300 Hz steps form 10
    GRIDS = {"500Hz-1ms": (AcquisitionConfig(), 2),
             "500Hz-2ms": (AcquisitionConfig(coherent_ms=2.0), 1),
             "300Hz-1ms": (AcquisitionConfig(freq_step_hz=300.0), 10)}

    @pytest.mark.parametrize("grid", GRIDS)
    def test_surface_matches_the_per_bin_search(self, clean_scene, grid):
        cfg = self.GRIDS[grid][0]
        code = prn.generate_ca_code(7)
        res = acquire(clean_scene, code, dataclasses.replace(cfg, keep_surface=True))
        n = round(F_S * cfg.coherent_ms * 1e-3)
        ref = per_bin_surface(clean_scene, code, cfg, main_lobe_points(code, F_S, n))
        assert np.max(np.abs(res.correlation_surface - ref)) <= 1e-9 * np.max(ref)
        # the reported cell is a maximum of the full-rate surface (at 2 ms the
        # code peaks twice, one period apart, equal to rounding)
        full = per_bin_surface(clean_scene, code, cfg)
        b = round((res.coarse_freq_hz - cfg.freq_search_min_hz) / cfg.freq_step_hz)
        assert full[b, res.code_phase_samples] >= (1.0 - 1e-9) * np.max(full)

    @settings(max_examples=40, deadline=None)
    @given(lo=st.floats(-8000.0, 2000.0), span=st.floats(1.0, 9000.0),
           step=st.one_of(st.sampled_from([125.0, 250.0, 500.0, 1000.0, 1500.0]),
                          st.floats(40.0, 3000.0)))
    def test_any_grid_matches_the_per_bin_search(self, lo, span, step):
        buf, code = tone_buffer(2.046e6, 0.5e6, 1234.5, 700, 0.001)
        cfg = AcquisitionConfig(freq_search_min_hz=lo, freq_search_max_hz=lo + span,
                                freq_step_hz=step, keep_surface=True)
        ref = per_bin_surface(buf, code, cfg)
        surface = acquire(buf, code, cfg).correlation_surface
        assert np.max(np.abs(surface - ref)) <= 1e-9 * np.max(ref)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_one_forward_fft_per_group(self, monkeypatch, grid):
        cfg, groups = self.GRIDS[grid]
        buf, _ = scene(0.002, [0.0], [1500.0], prns=(3,))
        assert len(buf) < round(F_S * cfg.fine_freq_ms * 1e-3)  # no fine frequency
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft", lambda *a, **k: calls.append(1) or fft(*a, **k))
        acquire(buf, prn.generate_ca_code(3), cfg)
        assert len(calls) == groups + 1  # the wiped-off spectra and the replica

    @pytest.mark.parametrize("f_s,lengths", [
        # 21 main-lobe rows, then the full-rate row at the winning bin
        (F_S, {4096: 21, 38192: 1}),
        # four samples per chip exceed n: the surface rows are full-rate already
        (2.046e6, {2046: 21}),
    ])
    def test_inverse_fft_lengths(self, monkeypatch, f_s, lengths):
        # rows transformed per length: a call on shape (r, m) transforms r rows of m
        buf, code = tone_buffer(f_s, f_s / 4, 1234.5, 700, 0.002)
        assert len(buf) < round(f_s * AcquisitionConfig().fine_freq_ms * 1e-3)
        rows = {}
        ifft = np.fft.ifft

        def counting_ifft(a, *r, **k):
            m = np.shape(a)[-1]
            rows[m] = rows.get(m, 0) + np.size(a) // m
            return ifft(a, *r, **k)
        monkeypatch.setattr(np.fft, "ifft", counting_ifft)
        acquire(buf, code)
        assert rows == lengths


# the acquisition-gate trial: scene A's four LOS satellites and the -30 dB
# Rayleigh NLOS PRN 29, each delay drifting as its L1 Doppler says, 2 ms at 45 dB-Hz
GATE_SOURCES = ((2, "s1"), (5, "s2"), (11, "s3"), (23, "s4"), (29, "n1"))
GATE_PATHS = ((10e-6, -3000.0), (12e-6, -1000.0), (15e-6, 1500.0), (19e-6, 4000.0))


@pytest.fixture(scope="module")
def gate_clean():
    cfg = cdma.CdmaGenConfig(duration_s=0.002, sources=GATE_SOURCES)
    return {sid: cdma.generate_clean_signal(prn.generate_ca_code(p), cfg)
            for p, sid in GATE_SOURCES}


def gate_trial(clean, channel_seed, noise_seed):
    rate = -1.0 / 1575.42e6
    sources = tuple(los_source(f"s{i + 1}", d, f, delay_rate=rate * f)
                    for i, (d, f) in enumerate(GATE_PATHS))
    sources += (nlos_source("n1", 14e-6, 800.0, -30.0, 400.0, delay_rate=rate * 800.0),)
    spec = ChannelSpec(sources=sources, update_rate_hz=40e3, duration_s=0.002,
                       seed=channel_seed)
    composite = propagate_and_sum(clean, generate_synthetic_channel(spec))
    return add_awgn(composite, cn0_to_noise_dbw(F_S, 45.0), noise_seed)


class TestMainLobeSearch:
    """Picking the bin on the main-lobe surface and the lag on one full-rate
    row decides as the full-rate search does."""

    @pytest.mark.parametrize("k", range(10))  # seeds fixed before the first run
    def test_decisions_match_the_full_rate_search(self, gate_clean, k):
        rx = gate_trial(gate_clean, 7000 + k, 7100 + k)
        for prn_id, _ in GATE_SOURCES:
            code = prn.generate_ca_code(prn_id)
            res = acquire(rx, code)
            acquired, tau, coarse_hz, snr_db = full_search(rx, code)
            assert res.acquired == acquired, prn_id
            if acquired:
                assert (res.code_phase_samples, res.coarse_freq_hz) == (tau, coarse_hz)
                assert res.snr_db == pytest.approx(snr_db, abs=1e-9)


class TestBandOnlyFineFrequency:
    @pytest.mark.parametrize("coarse_hz", [2100.0, 2500.0, 2900.0, -4000.0])
    def test_matches_the_full_fft_band(self, clean_scene, coarse_hz):
        code = prn.generate_ca_code(7)
        assert fine_frequency(clean_scene, code, 1000, coarse_hz) == \
            full_fft_fine_frequency(clean_scene, code, 1000, coarse_hz)

    @pytest.mark.parametrize("if_offset_hz,doppler_hz", [
        (-1.2e6, -2700.0),           # negative IF
        (2.046e6 - 300.0, 150.0),    # band runs past +f_s/2
        (-2.046e6 + 200.0, -100.0),  # band runs past -f_s/2
        (2.046e6 - 300.0, 450.0),    # tone past +f_s/2 aliases to -f_s/2
    ])
    def test_matches_the_full_fft_band_at_the_edges(self, if_offset_hz, doppler_hz):
        f_s = 4.092e6
        buf, code = tone_buffer(f_s, if_offset_hz, doppler_hz, 1500, 0.01)
        for coarse_hz in (doppler_hz - 200.0, doppler_hz, doppler_hz + 100.0):
            f = fine_frequency(buf, code, 1500, coarse_hz)
            assert f == full_fft_fine_frequency(buf, code, 1500, coarse_hz)
            if abs(if_offset_hz + doppler_hz) < f_s / 2:
                assert f == pytest.approx(doppler_hz, abs=25.0)

    def test_band_past_nyquist_names_the_cause(self):
        # IF + coarse = f_s/2 + 500 Hz: every frequency of the ±500 Hz band is at or
        # past f_s/2, so the band holds no DFT bin
        buf, code = tone_buffer(4.092e6, 2.046e6 - 300.0, 0.0, 1500, 0.01)
        with pytest.raises(ValueError, match="centre 2046500 Hz is past f_s/2 = 2046000 Hz"):
            fine_frequency(buf, code, 1500, 800.0)


def padded_two_stage_fine_frequency(buf, code, tau_samples, coarse_hz,
                                    cfg=AcquisitionConfig()):
    """Reference fine frequency: the per-sample replica, then the band's two-stage DFT
    over a zero-padded copy of the wiped-off samples in rows of isqrt(n)."""
    f_s = buf.sample_rate_hz
    n = round(f_s * cfg.fine_freq_ms * 1e-3)
    wiped = buf.samples[:n] * per_sample_replica(code, f_s, n, tau_samples)
    nfft = next_fast_len(4 * n)
    spacing = 1.0 / (nfft * (1.0 / f_s))
    k = np.arange(-(nfft // 2), (nfft - 1) // 2 + 1)
    k = k[np.abs(k * spacing - (buf.if_offset_hz + coarse_hz)) <= cfg.freq_step_hz]
    p = math.isqrt(n)
    blocks = np.pad(wiped, (0, -n % p)).reshape(-1, p)
    inner = blocks @ np.exp(-2j * np.pi * (np.outer(np.arange(p), k) % nfft) / nfft)
    outer = np.exp(-2j * np.pi * (np.outer(p * np.arange(len(blocks)), k) % nfft) / nfft)
    spectrum = np.abs(np.sum(inner * outer, axis=0))
    return float(k[np.argmax(spectrum)] * spacing - buf.if_offset_hz)


class TestPeriodReplicaFineFrequency:
    """fine_frequency, on a replica repeated from one code period and without a padded
    copy, returns the padded per-sample reference's frequency."""

    # scene A's four LOS PRNs at three seeds, and one HAPS source at 10.23 Mcps
    @pytest.mark.parametrize("haps,seed", [(False, 1), (False, 2), (False, 3), (True, 1)])
    def test_matches_the_padded_per_sample_reference(self, haps, seed):
        paths = GATE_PATHS[:1] if haps else GATE_PATHS
        channels = make_los_channel([d for d, _ in paths], [f for _, f in paths],
                                    duration_s=0.011, seed=seed)
        cfg = cdma.CdmaGenConfig(
            duration_s=0.011, sources=tuple((p, f"s{i + 1}") for i, (p, _) in
                                            enumerate(GATE_SOURCES[:len(paths)])),
            noise_power_dbw=cn0_to_noise_dbw(F_S, 45.0), noise_seed=seed, data_seed=seed,
            **(cdma.HAPS_DEFAULTS if haps else {}))
        buf = cdma.synthesize(cfg, channels)
        period = 19096 if haps else 38192  # samples in the replica's repeated stretch
        for prn_id, _ in cfg.sources:
            code = prn.generate_ca_code(prn_id, chipping_rate_hz=cfg.r_c_hz)
            res = acquire(buf, code)
            for tau in (res.code_phase_samples, 0, period - 1, period // 2 + 7):
                for coarse_hz in (res.coarse_freq_hz, res.coarse_freq_hz - 250.0):
                    assert fine_frequency(buf, code, tau, coarse_hz) == \
                        padded_two_stage_fine_frequency(buf, code, tau, coarse_hz), \
                        (prn_id, tau, coarse_hz)


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


def floor_correlators(base, chips, rem_code_phase, code_step, spacing):
    """Early, prompt and late as three per-sample replicas and dot products."""
    cp = rem_code_phase + np.arange(len(base)) * code_step + 0.5  # round to chip centers
    early = chips[np.floor(cp - spacing).astype(np.int64) % prn.CODE_LENGTH]
    prompt = chips[np.floor(cp).astype(np.int64) % prn.CODE_LENGTH]
    late = chips[np.floor(cp + spacing).astype(np.int64) % prn.CODE_LENGTH]
    return np.dot(base, early), np.dot(base, prompt), np.dot(base, late)


def per_sample_track(buf, code, init, cfg):
    """track's loop with np.exp carrier wipe-off and floor_correlators, for the
    settings the tracked fixture uses: a fine frequency, no carrier aiding and
    no loss of lock. Returns the code delay and Doppler traces."""
    f_s, r_c, pdi = buf.sample_rate_hz, code.chipping_rate_hz, cfg.integration_ms * 1e-3
    carr_freq = carr_freq_basis = buf.if_offset_hz + init.fine_freq_hz
    code_freq = r_c
    chips_per_epoch = round(r_c * pdi)
    tau1_code, tau2_code = receiver._loop_gains(cfg.dll_bw_hz, cfg.damping, 1.0)
    tau1_carr, tau2_carr = receiver._loop_gains(cfg.pll_bw_hz, cfg.damping, 0.25)
    rem_code_phase = rem_carr_phase = 0.0
    old_code_nco = old_code_err = old_carr_nco = old_carr_err = 0.0
    p, delays, dopplers = init.code_phase_samples, [], []
    while True:
        code_step = code_freq / f_s
        blksize = math.ceil((chips_per_epoch - rem_code_phase) / code_step)
        if p + blksize > len(buf):
            break
        tidx = np.arange(blksize)
        base = buf.samples[p:p + blksize] * np.exp(
            -1j * (2.0 * np.pi * carr_freq * tidx / f_s + rem_carr_phase))
        rem_carr_phase = ((rem_carr_phase + 2.0 * np.pi * carr_freq * blksize / f_s)
                          % (2.0 * np.pi))
        c_e, c_p, c_l = floor_correlators(base, code.chips, rem_code_phase, code_step,
                                          cfg.correlator_spacing_chips)
        code_err = dll_discriminator(c_e.real, c_e.imag, c_l.real, c_l.imag)
        code_nco = (old_code_nco + (tau2_code / tau1_code) * (code_err - old_code_err)
                    + code_err * (pdi / tau1_code))
        old_code_nco, old_code_err = code_nco, code_err
        code_freq = r_c - code_nco
        carr_err = pll_discriminator(c_p.real, c_p.imag)
        carr_nco = (old_carr_nco + (tau2_carr / tau1_carr) * (carr_err - old_carr_err)
                    + carr_err * (pdi / tau1_carr))
        old_carr_nco, old_carr_err = carr_nco, carr_err
        carr_freq = carr_freq_basis + carr_nco
        delays.append(p - rem_code_phase / code_step
                      - len(delays) * chips_per_epoch * f_s / r_c)
        dopplers.append(carr_freq - buf.if_offset_hz)
        p += blksize
        rem_code_phase += blksize * code_step - chips_per_epoch
    return np.array(delays), np.array(dopplers)


class TestSegmentedCorrelators:
    @settings(max_examples=80, deadline=None)
    @given(rates=st.sampled_from([(1.023e6, F_S), (10.23e6, F_S), (1.023e6, 2.046e6)]),
           code_doppler=st.sampled_from([0.0]) | st.floats(-1e-5, 1e-5),
           rem_code_phase=st.integers(-10, 10).map(lambda i: i / 20) | st.floats(-0.5, 0.5),
           spacing=st.integers(1, 20).map(lambda i: i / 20)
           | st.floats(0.0, 1.0, exclude_min=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_match_the_per_sample_correlators(self, rates, code_doppler, rem_code_phase,
                                              spacing, seed):
        # on the 0.05-chip grids the steps fall on exact real-valued ties (every
        # sample at f_s = 2 R_c, every 112th sample for 1.023 MHz at 38.192 MHz),
        # which float rounding breaks either way
        r_c, f_s = rates
        code_step = r_c * (1.0 + code_doppler) / f_s
        n = math.ceil((round(r_c * 1e-3) - rem_code_phase) / code_step)
        chips = prn.generate_ca_code(7).chips
        rng = np.random.default_rng(seed)
        prompt = np.floor(rem_code_phase + np.arange(n) * code_step + 0.5).astype(np.int64)
        base = (chips[prompt % prn.CODE_LENGTH]
                + rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = floor_correlators(base, chips, rem_code_phase, code_step, spacing)
        got = receiver._early_prompt_late(base, chips, rem_code_phase, code_step, spacing)
        assert np.max(np.abs(np.asarray(want) - got)) <= 1e-9 * abs(want[1])


@pytest.fixture(scope="module")
def tracked_scene():
    buf, _ = scene(0.05, [0.0, 1000 / F_S * 1e6], [0.0, 2500.0], prns=(1, 7))
    res = acquire(buf, prn.generate_ca_code(7))
    assert res.acquired
    return buf, res


@pytest.fixture(scope="module")
def tracked(tracked_scene):
    buf, res = tracked_scene
    return track(buf, prn.generate_ca_code(7), res)


class TestTrack:
    @pytest.mark.parametrize("spacing", [0.25, 0.5, 1.0])
    def test_matches_the_per_sample_loop(self, tracked_scene, spacing):
        buf, res = tracked_scene
        code, cfg = prn.generate_ca_code(7), TrackingConfig(correlator_spacing_chips=spacing)
        trace = track(buf, code, res, cfg)
        delays, dopplers = per_sample_track(buf, code, res, cfg)
        assert len(trace) == len(delays) and not trace.loss_of_lock
        np.testing.assert_allclose(trace.doppler_hz, dopplers, rtol=0, atol=1e-6)
        np.testing.assert_allclose(trace.code_delay_samples, delays, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("spacing", [0.25, 1.0])
    def test_other_spacings_converge_as_the_default(self, tracked_scene, spacing):
        buf, res = tracked_scene
        trace = track(buf, prn.generate_ca_code(7), res,
                      TrackingConfig(correlator_spacing_chips=spacing))
        for check in (self.test_epoch_count_and_axis, self.test_doppler_converges,
                      self.test_code_delay_static, self.test_prompt_power_dominates_quadrature):
            check(trace)

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
