"""Receiver: replica sampling, acquisition closed loop against the
synthesizer, the SNR gate, fine frequency, discriminators, and tracking."""

import dataclasses
import math
import re
import threading
import tracemalloc
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.fft import next_fast_len

from synthrf import cdma, dsp, prn, receiver
from synthrf.channel import (ChannelSpec, generate_synthetic_channel,
                             propagate_and_sum)
from synthrf.dsp import SignalBuffer, add_awgn
from synthrf.receiver import (LOCK_LOSS_EPOCHS, AcquisitionConfig, AcquisitionResult,
                              TrackingConfig, acquire, acquire_all, dll_discriminator,
                              fine_frequency, pll_discriminator,
                              sample_code_replica, track)

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
        # acquire's noise lags leave out the peak and round(f_s / R_c) - 1 lags on each side:
        # one chip is 37 samples at 1.023 Mcps and 4 at 10.23 Mcps, both at 38.192 MHz
        noise = add_awgn(SignalBuffer(np.zeros(round(F_S * 1e-3), dtype=complex) + 1e-30,
                                      F_S), 0.0, seed=9)
        for r_c_hz, n_s in [(1.023e6, 37), (10.23e6, 4)]:
            res = acquire(noise, prn.generate_ca_code(1, chipping_rate_hz=r_c_hz))
            assert res.noise_lag_count == len(noise) - (2 * n_s - 1)


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

    def test_result_is_built_once_and_frozen(self, clean_scene):
        res = acquire(clean_scene, prn.generate_ca_code(7))
        with pytest.raises(dataclasses.FrozenInstanceError):
            res.fine_freq_hz = 0.0

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
        n_s = round(F_S / prn.generate_ca_code(7).chipping_rate_hz)
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


def _first_ms(buf, ms):
    return dataclasses.replace(buf, samples=buf.samples[:round(F_S * ms * 1e-3)])


def _acquired(fine_freq_hz):
    """PRN 7 of clean_scene as acquire reports it, with the given fine frequency."""
    return AcquisitionResult(prn_id=7, acquired=True, code_phase_samples=1000,
                             coarse_freq_hz=2500.0, fine_freq_hz=fine_freq_hz, snr_db=40.0)


@pytest.mark.parametrize("build,message", [
    (lambda buf: AcquisitionConfig(freq_search_min_hz=5000.0),
     "freq_search_min_hz must be below freq_search_max_hz"),
    (lambda buf: AcquisitionConfig(coherent_ms=20.0), "coherent_ms must not exceed fine_freq_ms"),
    *[(lambda buf, name=name, value=value: AcquisitionConfig(**{name: value}),
       f"{name} must be positive")
      for name in ("freq_step_hz", "coherent_ms", "fine_freq_ms")
      for value in (0.0, -1.0, math.nan)],
    *[(lambda buf, value=value: AcquisitionConfig(snr_threshold_db=value),
       "snr_threshold_db must be finite") for value in (math.nan, math.inf, -math.inf)],
    # NaN once passed the ordering check and failed in int(round(nan)) naming no field
    *[(lambda buf, name=name, value=value: AcquisitionConfig(**{name: value}),
       f"{name} must be finite")
      for name in ("freq_search_min_hz", "freq_search_max_hz")
      for value in (math.nan, math.inf, -math.inf)],
    *[(lambda buf, name=name: TrackingConfig(**{name: 0.0}), f"{name} must be positive")
      for name in ("dll_bw_hz", "pll_bw_hz", "integration_ms", "damping",
                   "correlator_spacing_chips")],
    (lambda buf: TrackingConfig(pll_bw_hz=-1.0), "pll_bw_hz must be positive"),
    (lambda buf: TrackingConfig(correlator_spacing_chips=1.5),
     "correlator_spacing_chips must not exceed one chip"),
    *[(lambda buf, value=value: TrackingConfig(carrier_freq_hz=value),
       "carrier_freq_hz must be positive and finite")
      for value in (0.0, -1.0, math.nan, math.inf)],
    (lambda buf: fine_frequency(_first_ms(buf, 5), prn.generate_ca_code(7), 1000, 2500.0),
     "buffer shorter than fine_freq_ms = 10.0 ms"),
    (lambda buf: track(_first_ms(buf, 9), prn.generate_ca_code(7), _acquired(2500.0)),
     "buffer shorter than 10 integration periods"),
    # the length check comes first, so a short recording keeps its message
    (lambda buf: track(_first_ms(buf, 9), prn.generate_ca_code(7), _acquired(math.nan)),
     "buffer shorter than 10 integration periods"),
    (lambda buf: track(buf, prn.generate_ca_code(7), _acquired(math.nan)),
     "fine_freq_hz must be finite"),
    # windows of no sample, of no chip and with bins wider than the band, each named
    (lambda buf: acquire(*tone_buffer(4.092e6, 1e6, 0.0, 0, 0.002),
                         AcquisitionConfig(coherent_ms=1e-5)),
     "coherent_ms = 1e-05 ms is under one sample at 4.092e+06 Hz"),
    (lambda buf: track(*tone_buffer(4.092e6, 1e6, 0.0, 0, 0.002), _acquired(0.0),
                       TrackingConfig(integration_ms=4e-4)),
     "integration_ms = 0.0004 ms is under one chip at 1.023e+06 chips/s"),
    (lambda buf: fine_frequency(*tone_buffer(4.092e6, 1e6, 0.0, 0, 0.002), 0, 0.0,
                                AcquisitionConfig(coherent_ms=0.1, fine_freq_ms=0.1)),
     "fine_freq_ms = 0.1 ms gives 2480 Hz bins, too wide for the ±freq_step_hz = 500 Hz band"),
    # acquired, but the 12 ms recording is shorter than a 20 ms fine-frequency window
    (lambda buf: track(buf, prn.generate_ca_code(7), acquire(
        buf, prn.generate_ca_code(7), AcquisitionConfig(fine_freq_ms=20.0))),
     "fine_freq_hz must be finite"),
])
def test_bad_input_is_rejected_naming_the_field(clean_scene, build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(clean_scene)


def main_lobe_points(code, f_s, n):
    """The search's inverse-FFT length: four samples per chip, at most n."""
    return min(n, next_fast_len(math.ceil(4 * code.chipping_rate_hz * n / f_s)))


def test_fft_len_is_scipys_next_fast_len():
    # the least 11-smooth integer >= n: scipy.fft.next_fast_len's value for complex input
    rng = np.random.default_rng(26)
    for n in [*range(1, 20000), *rng.integers(20000, 2_000_000, 3000).tolist()]:
        assert receiver._fft_len(n) == next_fast_len(n), n


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
    noise = surface[b][dist >= round(buf.sample_rate_hz / code.chipping_rate_hz)]
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


@lru_cache
def clean_prns(f_s, r_c):
    """Three PRNs at scene A's delays and Dopplers, 10 ms on a quarter-rate IF, with no noise."""
    n = round(f_s * 0.01)
    x = np.zeros(n, dtype=complex)
    for prn_id, (delay_s, doppler_hz) in zip((2, 5, 11), GATE_PATHS):
        code = prn.generate_ca_code(prn_id, chipping_rate_hz=r_c)
        x += (per_sample_replica(code, f_s, n, delay_s * f_s)
              * np.exp(2j * np.pi * (f_s / 4 + doppler_hz) * np.arange(n) / f_s))
    return x


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# (sample rate, chip rate): scene A, a 4-sample-per-chip recording and HAPS at 10.23 Mcps
RATE_PAIRS = [(F_S, 1.023e6), (4.092e6, 1.023e6), (F_S, 10.23e6)]


@settings(max_examples=15, deadline=None)
@given(prns=st.lists(st.one_of(st.sampled_from((2, 5, 11)), st.integers(1, 32)),
                    min_size=1, max_size=5, unique=True),
       noise_seed=st.integers(0, 2 ** 32 - 1), rates=st.sampled_from(RATE_PAIRS))
def test_acquire_all_changes_no_output_bit(prns, noise_seed, rates):
    # every result of one search over all codes is the per-code search's, bit for bit
    f_s, r_c = rates
    buf = add_awgn(SignalBuffer(clean_prns(f_s, r_c), f_s, if_offset_hz=f_s / 4),
                   10.0 * math.log10(f_s) - 55.0, noise_seed)
    cfg = AcquisitionConfig(keep_surface=True)
    codes = [prn.generate_ca_code(p, chipping_rate_hz=r_c) for p in prns]
    together = acquire_all(buf, codes, cfg)
    assert [res.prn_id for res in together] == prns
    for code, res in zip(codes, together):
        alone = acquire(buf, code, cfg)
        for field in dataclasses.fields(AcquisitionResult):
            assert same_bits(getattr(res, field.name), getattr(alone, field.name)), \
                (code.prn_id, field.name)


class TestAcquisitionPool:
    """acquire_all runs each code's search and fine frequency as one dsp.pool_map item."""

    @staticmethod
    def recording(noise_seed):
        return add_awgn(SignalBuffer(clean_prns(F_S, 1.023e6), F_S, if_offset_hz=F_S / 4),
                        10.0 * math.log10(F_S) - 55.0, noise_seed)

    @settings(max_examples=10, deadline=None)
    @given(prns=st.lists(st.one_of(st.sampled_from((2, 5, 11)), st.integers(1, 32)),
                         min_size=2, max_size=5, unique=True),
           noise_seed=st.integers(0, 2 ** 32 - 1), workers=st.sampled_from([1, 2, 3, "more"]))
    def test_workers_change_no_output_bit(self, prns, noise_seed, workers):
        # "more" asks for a worker beyond the code count; the pool is capped there
        buf = self.recording(noise_seed)
        cfg = AcquisitionConfig(keep_surface=True)
        codes = [prn.generate_ca_code(p) for p in prns]
        cpus = range(len(codes) + 1 if workers == "more" else workers)
        pool = mock.Mock(wraps=dsp.ThreadPoolExecutor)
        with mock.patch.object(dsp.os, "sched_getaffinity", return_value=cpus), \
                mock.patch.object(dsp, "ThreadPoolExecutor", pool):
            together = acquire_all(buf, codes, cfg)
        pool.assert_called_once_with(min(len(cpus), len(codes)))
        for code, res in zip(codes, together, strict=True):
            alone = acquire(buf, code, cfg)  # one code: inline, no pool
            for field in dataclasses.fields(AcquisitionResult):
                assert same_bits(getattr(res, field.name), getattr(alone, field.name)), \
                    (code.prn_id, field.name)

    def test_a_failing_search_leaves_acquire_all_and_no_worker(self, monkeypatch):
        workers = set()
        replica = receiver.sample_code_replica

        def failing(code, *args):
            workers.add(threading.current_thread())
            if code.prn_id == 11:
                raise RuntimeError("PRN 11 failed")
            return replica(code, *args)
        monkeypatch.setattr(receiver, "sample_code_replica", failing)
        monkeypatch.setattr(dsp.os, "sched_getaffinity", lambda pid: range(3))
        with pytest.raises(RuntimeError, match="PRN 11 failed"):
            acquire_all(self.recording(1), [prn.generate_ca_code(p) for p in (2, 5, 11, 23, 29)])
        assert workers and threading.main_thread() not in workers
        assert not any(t.is_alive() for t in workers)

    def test_one_code_starts_no_pool(self, monkeypatch):
        threads = set()
        fine = receiver.fine_frequency

        def recording_fine(*args):
            threads.add(threading.current_thread())
            return fine(*args)
        pool = mock.Mock(wraps=dsp.ThreadPoolExecutor)
        monkeypatch.setattr(dsp, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(receiver, "fine_frequency", recording_fine)
        res = acquire(self.recording(1), prn.generate_ca_code(5))
        assert res.acquired and math.isfinite(res.fine_freq_hz)
        pool.assert_not_called()
        assert threads == {threading.main_thread()}


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


@pytest.mark.parametrize("r_c,f_if", [(1.023e6, 9.548e6), (10.23e6, 15e6)])
def test_fine_frequency_tables_match_the_per_entry_exp(monkeypatch, r_c, f_if):
    # the twiddle and outer tables, from short outer products, against one exp per entry
    tables = []
    dft_rows = receiver._dft_rows

    def recording(step, count, k, nfft):
        tables.append((step, count, k, nfft, dft_rows(step, count, k, nfft)))
        return tables[-1][-1]
    monkeypatch.setattr(receiver, "_dft_rows", recording)
    code = prn.generate_ca_code(7, chipping_rate_hz=r_c)
    buf = SignalBuffer(per_sample_replica(code, F_S, round(F_S * 0.01)), F_S,
                       if_offset_hz=f_if)
    for coarse_hz in (-5000.0, 0.0, 3500.0):
        fine_frequency(buf, code, 0, coarse_hz)
    assert [t[:2] for t in tables] == [(1, 617), (617, 619)] * 3
    for step, count, k, nfft, table in tables:
        want = np.exp(-2j * np.pi * (np.outer(step * np.arange(count), k) % nfft) / nfft)
        assert table.shape == want.shape
        assert np.max(np.abs(table - want)) <= 1e-14


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


class TestChunkedFineFrequency:
    """fine_frequency wipes the code off a chunk of rows at a time into one reused buffer."""

    def test_peak_allocation_at_38_mhz(self):
        # the design's peak: the twiddle and outer tables, 2 x 640 x 41 complex (0.8 MiB),
        # the chunk buffer of BLOCK_SAMPLES (0.25 MiB), the replica period with a chunk's
        # length more (0.4 MiB) and the transients that build it; a whole-window wipe, as
        # before chunking, takes 6.1 MB alone (a 7.3 MiB peak)
        buf, code = tone_buffer(F_S, 9.548e6, 1500.0, 700, 0.01)
        fine_frequency(buf, code, 700, 1500.0)  # _fft_len's cache filled first
        tracemalloc.start()
        try:
            fine_frequency(buf, code, 700, 1500.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2 ** 20

    def test_a_one_row_tail_matches_the_references(self, monkeypatch):
        # 16.1 ms at 4.092 MHz: 257 whole rows of 256 samples and one zero-padded, and a
        # chunk of BLOCK_SAMPLES holds 64 of them, so the last chunk holds 2 rows; the
        # band's magnitudes must match the full FFT's
        f_s, tau = 4.092e6, 1500
        cfg = AcquisitionConfig(fine_freq_ms=16.1)
        n = round(f_s * cfg.fine_freq_ms * 1e-3)
        p = math.isqrt(n)
        assert (n // p, dsp.BLOCK_SAMPLES // p) == (257, 64)
        buf, code = tone_buffer(f_s, 1.1e6, 1234.5, tau, 0.017)
        nfft = next_fast_len(4 * n)
        full = np.abs(np.fft.fft(buf.samples[:n] * per_sample_replica(code, f_s, n, tau), nfft))
        freqs = np.fft.fftfreq(nfft, 1.0 / f_s)
        seen = []
        argmax = np.argmax
        monkeypatch.setattr(np, "argmax", lambda a: seen.append(np.array(a)) or argmax(a))
        for coarse_hz in (1000.0, 1234.5, 1500.0):
            f = fine_frequency(buf, code, tau, coarse_hz, cfg)
            band = np.flatnonzero(np.abs(freqs - (1.1e6 + coarse_hz)) <= cfg.freq_step_hz)
            want = full[band[np.argsort(freqs[band])]]
            assert np.max(np.abs(seen[-1] - want)) <= 1e-9 * np.max(want)
            assert f == full_fft_fine_frequency(buf, code, tau, coarse_hz, cfg) == \
                padded_two_stage_fine_frequency(buf, code, tau, coarse_hz, cfg)

    @pytest.mark.parametrize("f_s", [F_S, 4.092e6])
    @pytest.mark.parametrize("padded", [False, True])
    def test_any_chunk_size_returns_the_same_frequency(self, monkeypatch, f_s, padded):
        # chunks of 1 row, of 2 rows and one chunk for the whole window: only the order of
        # the band's sums differs, and only its argmax is returned
        p = math.isqrt(round(f_s * 0.01))
        n = p * (p + 1) + 3 * padded  # 3 samples in a zero-padded last row, else whole rows
        cfg = AcquisitionConfig(fine_freq_ms=n / f_s * 1e3)
        assert (round(f_s * cfg.fine_freq_ms * 1e-3), math.isqrt(n)) == (n, p)
        buf, code = tone_buffer(f_s, f_s / 4, 1234.5, 700, 0.011)
        nfft = next_fast_len(4 * n)
        full = np.abs(np.fft.fft(buf.samples[:n] * per_sample_replica(code, f_s, n, 700), nfft))
        freqs = np.fft.fftfreq(nfft, 1.0 / f_s)
        seen = []
        argmax = np.argmax
        monkeypatch.setattr(np, "argmax", lambda a: seen.append(np.array(a)) or argmax(a))
        for coarse_hz in (1000.0, 1500.0):
            band = np.flatnonzero(np.abs(freqs - (f_s / 4 + coarse_hz)) <= cfg.freq_step_hz)
            want = full[band[np.argsort(freqs[band])]]
            f = padded_two_stage_fine_frequency(buf, code, 700, coarse_hz, cfg)
            for block in (p, 2 * p, n + p, dsp.BLOCK_SAMPLES):
                with mock.patch.object(receiver, "BLOCK_SAMPLES", block):
                    assert fine_frequency(buf, code, 700, coarse_hz, cfg) == f, block
                assert np.max(np.abs(seen[-1] - want)) <= 1e-9 * np.max(want), block


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
        trace = track(gated, prn.generate_ca_code(3), res)
        # flagged within LOCK_LOSS_EPOCHS + 2 epochs of the dropout, 20 one-ms epochs in
        assert trace.loss_of_lock
        assert len(trace) <= 20 + LOCK_LOSS_EPOCHS + 2

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
