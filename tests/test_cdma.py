"""CDMA-BPSK synthesis: config validation, clean-signal structure, the code
NCO against a resampled reference, time-varying delay, channel application,
determinism, block rendering against a whole-array reference, and memory."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import signal

from synthrf import cdma, dsp, prn, receiver
from synthrf.cdma import CdmaGenConfig, HAPS_DEFAULTS
from synthrf.channel import (ChannelSpec, PathSpec, SourceSpec, earliest_delay_s,
                             generate_synthetic_channel)

from conftest import cn0_to_noise_dbw, los_source, make_los_channel


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
        ref = mix_to_if(ref[:cfg.n_samples], cfg)
        edge = round(50e-6 * cfg.f_s_hz)
        a, b = buf.samples[edge:-edge], ref[edge:-edge]
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


# --- whole-array reference: the path loop as it ran before block rendering ---

def reference_code_baseband(code, cfg, delay_s):
    """Code NCO over one full-length delay array, anchored on its own extremes."""
    q = 1 << cdma.PHASE_BITS
    span = cdma.PULSE_HALF_SPAN
    phase = np.arange(len(delay_s)) / cfg.f_s_hz - delay_s
    phase *= cfg.r_c_hz * q
    first = math.floor(phase.min() / q) - span
    m = np.arange(first, math.ceil(phase.max() / q) + span + 1)
    chips = code.chips[m % prn.CODE_LENGTH]
    if cfg.modulate_data:
        per_bit = round(cfg.t_d_s * cfg.r_c_hz)
        n_bits = math.ceil((math.ceil(cfg.duration_s * cfg.r_c_hz) + 1) / per_bit)
        bits = np.random.default_rng((cfg.data_seed, code.prn_id)).integers(0, 2, n_bits)
        chips = chips * (1.0 - 2.0 * bits)[m // per_bit % n_bits]
    rows = np.correlate((chips < 0).astype(np.int64), q << np.arange(2 * span + 1), "valid")
    u = (phase + (q / 2 - (first + span) * q)).astype(np.int64)
    return cdma._pulse_table(cfg.r_c_hz, cfg.f_s_hz)[rows[u >> cdma.PHASE_BITS] + (u & (q - 1))]


def mix_to_if(samples, cfg):
    """samples times the IF carrier, the whole-scene block phasor."""
    carrier = dsp._phasor(cfg.f_if_hz / cfg.f_s_hz, len(samples))
    return samples * carrier


def reference_synthesize(cfg, channels):
    """Every path over the whole scene at once, one full-length mix to IF, and
    noise drawn as sigma * (I + jQ) and added."""
    d_min_s = earliest_delay_s(channels, [sid for _, sid in cfg.sources])
    n = cfg.n_samples
    t = np.arange(n) / cfg.f_s_hz
    total = np.zeros(n, dtype=np.complex128)
    for prn_id, sid in sorted(cfg.sources, key=lambda s: s[1]):
        code = prn.generate_ca_code(prn_id, chipping_rate_hz=cfg.r_c_hz)
        for path in channels.source(sid).paths:
            t_snap = np.arange(path.n_snapshots) / channels.update_rate_hz
            coefficients = np.interp(t, t_snap, path.coefficients)
            delay = np.interp(t, t_snap, path.delays_s) - d_min_s
            weighted = coefficients * np.exp(-2j * np.pi * cfg.f_if_hz * delay[0])
            weighted *= reference_code_baseband(code, cfg, delay)
            total += weighted
    out = mix_to_if(total, cfg)
    if cfg.noise_power_dbw == -math.inf:
        return out
    sigma = np.sqrt(10.0 ** (cfg.noise_power_dbw / 10.0) / 2.0)
    rng = np.random.default_rng(cfg.noise_seed)
    return out + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@st.composite
def block_cases(draw):
    """A scene of one or two sources (the first with an echo), its config and a
    block size: whole 1024s, dividing the scene's length or not."""
    haps = draw(st.booleans())
    rates = HAPS_DEFAULTS if haps else {}
    duration = draw(st.sampled_from([0.001, 0.0023, 0.004]))
    delay_rate = st.floats(-1e-4, 1e-4)
    sources = []
    for i in range(draw(st.integers(1, 2))):
        delay = draw(st.floats(1e-6, 3e-5))
        paths = [PathSpec(initial_delay_s=delay, delay_rate=draw(delay_rate),
                          doppler_hz=draw(st.floats(-5e3, 5e3)))]
        if i == 0 and draw(st.booleans()):
            paths.append(PathSpec(initial_delay_s=delay + draw(st.floats(1e-7, 3e-6)),
                                  delay_rate=draw(delay_rate), mean_power_db=-6.0,
                                  doppler_hz=draw(st.floats(-5e3, 5e3)), rician_k=0.0,
                                  fading_doppler_hz=100.0))
        sources.append(SourceSpec(f"s{i + 1}", "satellite", True, tuple(paths)))
    channels = generate_synthetic_channel(ChannelSpec(
        sources=tuple(sources), update_rate_hz=40e3, duration_s=duration,
        seed=draw(st.integers(0, 1000))))
    noise = draw(st.sampled_from([-math.inf, -10.0]))
    cfg = CdmaGenConfig(duration_s=duration, t_d_s=0.001,
                        sources=tuple((3 + 4 * i, s.source_id) for i, s in enumerate(sources)),
                        modulate_data=draw(st.booleans()), data_seed=draw(st.integers(0, 99)),
                        noise_power_dbw=noise, noise_seed=draw(st.integers(0, 99)), **rates)
    block = 1024 * draw(st.sampled_from([1, 3, 5, 16, 37, 64, 256]))
    return cfg, channels, block


def anchor_rounding_case():
    """A 1 ms scene whose second source, 2.3876... us late, has code phase 130401 -
    2**-36 (in 1/256 chip) at sample 19108.  Offset by the whole path's anchor, that
    phase crosses 2**17 and rounds up to the next table index; offset by the anchor
    of the sample's own block, it would not."""
    sources = (los_source("s1", 0.0, 1000.0), los_source("s2", 2.3876073523250788e-06, -500.0))
    channels = generate_synthetic_channel(ChannelSpec(sources=sources, update_rate_hz=40e3,
                                                      duration_s=0.001, seed=0))
    return sat_config(sources=((3, "s1"), (7, "s2")), modulate_data=False), channels, 5 * 1024


def one_sample_block_case():
    """1024 * 40 + 1 samples at f_IF 9.5 MHz in 1,024-sample blocks: the last block is one
    sample, whose mix to IF must round as the whole-scene mix does, although numpy rounds a
    one-sample in-place complex multiply differently."""
    duration = (1024 * 40 + 1) / 38.192e6
    sources = (los_source("s1", 1e-6, 1000.0), los_source("s2", 3.3e-6, -700.0))
    channels = generate_synthetic_channel(ChannelSpec(sources=sources, update_rate_hz=40e3,
                                                      duration_s=duration, seed=0))
    cfg = sat_config(duration_s=duration, f_if_hz=9.5e6, sources=((3, "s1"), (7, "s2")),
                     modulate_data=False)
    return cfg, channels, 1024


class TestBlockRendering:
    @settings(max_examples=40, deadline=None)
    @given(case=block_cases())
    @example(case=anchor_rounding_case())
    @example(case=one_sample_block_case())
    def test_blocks_change_no_output_bit(self, case):
        cfg, channels, block = case
        with mock.patch.object(cdma, "BLOCK_SAMPLES", block):
            got = cdma.synthesize(cfg, channels).samples
        want = reference_synthesize(cfg, channels)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_clean_signal_matches_the_reference_nco(self):
        cfg = sat_config(duration_s=0.003, t_d_s=0.001, data_seed=4)
        code = prn.generate_ca_code(7)
        want = mix_to_if(reference_code_baseband(code, cfg, np.zeros(cfg.n_samples)), cfg)
        got = cdma.generate_clean_signal(code, cfg).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def scene_a_30ms():
    """The benchmark's cdma_scene geometry: 4 LOS satellites, a -10 dB echo
    two chips behind the second, and a -30 dB NLOS source, 30 ms at 50 dB-Hz."""
    los = [(10e-6, -3000.0), (12e-6, -1000.0), (15e-6, 1500.0), (19e-6, 4000.0)]
    sources = []
    for i, (delay, f_d) in enumerate(los):
        paths = [PathSpec(initial_delay_s=delay, doppler_hz=f_d, delay_rate=-f_d / 1575.42e6)]
        if i == 1:
            paths.append(PathSpec(initial_delay_s=delay + 2.0 / 1.023e6, doppler_hz=f_d,
                                  delay_rate=-f_d / 1575.42e6, mean_power_db=-10.0,
                                  fading_doppler_hz=50.0))
        sources.append(SourceSpec(f"s{i + 1}", "satellite", True, tuple(paths)))
    sources.append(SourceSpec("n1", "satellite", False, (PathSpec(
        initial_delay_s=14e-6, doppler_hz=800.0, delay_rate=-800.0 / 1575.42e6,
        mean_power_db=-30.0, fading_doppler_hz=400.0),)))
    channels = generate_synthetic_channel(ChannelSpec(
        sources=tuple(sources), update_rate_hz=40e3, duration_s=0.03, seed=1000))
    cfg = CdmaGenConfig(duration_s=0.03, data_seed=1000, noise_seed=1001,
                        noise_power_dbw=cn0_to_noise_dbw(38.192e6, 50.0),
                        sources=((2, "s1"), (5, "s2"), (11, "s3"), (23, "s4"), (29, "n1")))
    return cfg, channels


def test_synthesis_peak_allocation_per_sample():
    # the output is full length; everything per path and the noise are blocks
    cfg, channels = scene_a_30ms()
    tracemalloc.start()
    try:
        buf = cdma.synthesize(cfg, channels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(buf) == 1145760
    assert peak / len(buf) <= 24.0
