"""DSP primitives: the carrier phasor, AWGN injection, and FFT correlation; and the
fractional delay of channel.propagate_and_sum."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthrf import dsp
from synthrf.channel import ChannelSet, PathSeries, SourceChannel, propagate_and_sum
from synthrf.dsp import SignalBuffer


def tone(freq_hz, sample_rate_hz, duration_s, amplitude=1.0):
    t = np.arange(round(sample_rate_hz * duration_s)) / sample_rate_hz
    return SignalBuffer(amplitude * np.exp(2j * np.pi * freq_hz * t),
                        sample_rate_hz)


def delay(x, shift):
    """x delayed by shift samples through propagate_and_sum: one unit-gain path at 1 Hz."""
    path = PathSeries(np.ones(len(x)), np.full(len(x), shift))
    channels = ChannelSet([SourceChannel("s", "gnb", True, [path])], 1.0)
    return propagate_and_sum({"s": SignalBuffer(x, 1.0)}, channels, d_min_s=0.0).samples


def spectral_peak_hz(buf):
    spec = np.abs(np.fft.fft(buf.samples))
    freqs = np.fft.fftfreq(len(buf), 1.0 / buf.sample_rate_hz)
    return freqs[np.argmax(spec)]


class TestSignalBuffer:
    def test_duration_and_len(self):
        # the duration is len / sample_rate_hz, which the buffer does not restate
        buf = SignalBuffer(np.ones(100, dtype=complex), 1000.0)
        assert len(buf) == 100
        assert not hasattr(buf, "duration_s") and not hasattr(buf, "epoch_s")

    def test_rejects_empty_and_bad_rate(self):
        with pytest.raises(ValueError):
            SignalBuffer(np.ones(0, dtype=complex), 1000.0)
        with pytest.raises(ValueError):
            SignalBuffer(np.ones(10, dtype=complex), 0.0)
        with pytest.raises(ValueError):
            SignalBuffer(np.ones((2, 5), dtype=complex), 1000.0)


class TestMixCarrier:
    def test_shifts_tone_frequency(self):
        buf = tone(1000.0, 48000.0, 0.05)
        mixed = SignalBuffer(buf.samples * dsp._phasor(5000.0 / 48000.0, len(buf)), 48000.0)
        assert spectral_peak_hz(mixed) == pytest.approx(6000.0, abs=20.0)

    def test_initial_phase(self):
        assert dsp._phasor(0.0, 16, np.pi / 2)[0] == pytest.approx(1j)


class TestFractionalDelay:
    def test_integer_delay_shifts_samples(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        out = delay(x, 3.0)
        np.testing.assert_allclose(out[3:], x[:-3], atol=1e-12)
        np.testing.assert_allclose(out[:3], 0.0)

    def test_fractional_delay_is_exact_for_bandlimited_signals(self):
        # a half-sample delay of a tone must rotate its phase without any
        # amplitude loss, even high in the band
        f_s = 38.192e6
        n = 4096
        f = f_s / 4  # an integer FFT bin, so no leakage clouds the check
        out = delay(tone(f, f_s, n / f_s).samples, 0.5)
        expected = np.exp(2j * np.pi * f * (np.arange(n) - 0.5) / f_s)
        np.testing.assert_allclose(out, expected, atol=1e-9)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-9)

    @pytest.mark.parametrize("n", [1000, 1001, 76384])
    @pytest.mark.parametrize("delay_samples", [7.0, 0.37, 100.999])
    def test_matches_the_full_ramp_formula(self, n, delay_samples):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = delay(x, delay_samples)
        whole = int(delay_samples)
        ramp = np.exp(-2j * np.pi * np.fft.fftfreq(n) * (delay_samples - whole))
        expected = np.zeros(n, dtype=complex)
        expected[whole:] = np.fft.ifft(np.fft.fft(x) * ramp)[:n - whole]
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(x))

    def test_delay_beyond_buffer_warns_and_zeros(self):
        buf = tone(0.0, 1000.0, 0.01)
        with pytest.warns(UserWarning):
            out = delay(buf.samples, 1000.0)
        np.testing.assert_array_equal(out, 0.0)


class TestPhasor:
    N = 10 ** 6

    @pytest.mark.parametrize("cycles", [-0.37 / 76384, -100.999 / 10 ** 6,
                                        1234.5 / 2.046e6, 0.25])
    def test_matches_the_reduced_phase_formula(self, cycles):
        m = np.arange(self.N)
        expected = np.exp(2j * np.pi * ((cycles * m) % 1.0))
        assert np.max(np.abs(dsp._phasor(cycles, self.N) - expected)) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("cycles", [0.2371234567, 0.25 + 2500.0 / 38.192e6, -0.4999])
    def test_phase_is_exact_where_the_float_product_is_not(self, cycles):
        # float64 cycles·m is itself off by up to 1e-10 cycles here
        m = np.arange(self.N, dtype=np.longdouble)
        phase = ((np.longdouble(cycles) * m) % 1).astype(np.float64)
        expected = np.exp(2j * np.pi * phase)
        assert np.max(np.abs(dsp._phasor(cycles, self.N) - expected)) <= 1e-12

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="needs an extended-precision long double")
    @pytest.mark.parametrize("freq_hz", [9.548e6 + 2500.0, 15e6 - 4321.5])
    @pytest.mark.parametrize("phase_rad", [0.0, -2.1])
    def test_mix_carrier_matches_the_reduced_phase(self, freq_hz, phase_rad):
        f_s = 38.192e6
        m = np.arange(self.N, dtype=np.longdouble)
        phase = ((np.longdouble(freq_hz / f_s) * m) % 1).astype(np.float64)
        expected = np.exp(1j * (2 * np.pi * phase + phase_rad))
        mixed = dsp._phasor(freq_hz / f_s, self.N, phase_rad)
        assert np.max(np.abs(mixed - expected)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(cycles=st.floats(-0.5, 0.5), n=st.integers(1, 20000),
           chunk=st.sampled_from([1024, 2048, 3072, 7168]), phase_rad=st.floats(-4.0, 4.0))
    def test_chunks_from_their_start_concatenate_to_one_call(self, cycles, n, chunk, phase_rad):
        whole = dsp._phasor(cycles, n, phase_rad)
        parts = np.concatenate([dsp._phasor(cycles, min(chunk, n - start), phase_rad, start)
                                for start in range(0, n, chunk)])
        assert np.array_equal(parts.view(np.uint64), whole.view(np.uint64))


class TestAddAwgn:
    def test_noise_power_matches_request(self):
        buf = SignalBuffer(np.zeros(200000, dtype=complex) + 1.0, 1e6)
        out = dsp.add_awgn(buf, -10.0, seed=3)
        measured = 10.0 * np.log10(np.var(out.samples - buf.samples))
        assert measured == pytest.approx(-10.0, abs=0.1)

    def test_minus_inf_is_noiseless(self):
        buf = tone(10.0, 1000.0, 0.01)
        out = dsp.add_awgn(buf, -np.inf, seed=0)
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_seed_reproducibility(self):
        buf = tone(10.0, 1000.0, 0.01)
        a = dsp.add_awgn(buf, 0.0, seed=7)
        b = dsp.add_awgn(buf, 0.0, seed=7)
        c = dsp.add_awgn(buf, 0.0, seed=8)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("noise_power_dbw", [-13.0, 6.0])
    def test_draws_all_i_then_all_q(self, noise_power_dbw):
        # bit for bit the formula sigma * (I + jQ) added to the samples
        buf = tone(1234.5, 1e6, 0.01, amplitude=0.7)
        sigma = np.sqrt(10.0 ** (noise_power_dbw / 10.0) / 2.0)
        rng = np.random.default_rng(5)
        n = len(buf)
        want = buf.samples + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = dsp.add_awgn(buf, noise_power_dbw, seed=5).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [2 * dsp.BLOCK_SAMPLES + 77, 3 * dsp.BLOCK_SAMPLES - 1])
    def test_in_place_blocks_equal_one_draw(self, n):
        x = tone(1234.5, 1e6, n / 1e6).samples
        sigma = np.sqrt(10.0 ** (-7.0 / 10.0) / 2.0)
        rng = np.random.default_rng(9)
        want = x + sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = x.copy()
        dsp._add_noise(got, -7.0, seed=9)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("noise_power_dbw", [-np.inf, 3.0])
    def test_leaves_its_input_untouched(self, noise_power_dbw):
        buf = tone(1234.5, 1e6, 0.04)
        before = buf.samples.copy()
        out = dsp.add_awgn(buf, noise_power_dbw, seed=5)
        assert np.array_equal(buf.samples.view(np.uint64), before.view(np.uint64))
        assert not np.shares_memory(out.samples, buf.samples)


class TestFftCorrelate:
    def test_peak_at_circular_shift(self):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(512)
        a = np.roll(b, 37)
        corr = dsp.fft_correlate(a, b)
        assert np.argmax(np.abs(corr)) == 37

    @pytest.mark.parametrize("a,b", [(np.ones(4), np.ones(5)), (np.ones((2, 2)), np.ones((2, 2)))])
    def test_rejects_unequal_or_multidimensional_inputs(self, a, b):
        with pytest.raises(ValueError, match="inputs must be 1-D sequences of equal length"):
            dsp.fft_correlate(a, b)

    def test_zero_lag_is_energy(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        corr = dsp.fft_correlate(x, x)
        assert corr[0].real == pytest.approx(np.sum(np.abs(x) ** 2))
