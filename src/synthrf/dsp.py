"""Shared DSP primitives: sample buffers, mixing, resampling, delays, noise, FFT correlation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy import signal as sig

MAX_RESAMPLE_FACTOR = 1 << 20
_RATIO_TOL = 1e-9

# Anti-alias FIR design: Kaiser-windowed sinc, >=60 dB stopband, cutoff at
# 0.45x the lower of the two rates with the transition band ending at the
# lower Nyquist.
_FILTER_ATTEN_DB = 65.0
_FILTER_CUTOFF_FRAC = 0.45
_FILTER_WIDTH_FRAC = 0.10


class UnsupportedRatioError(ValueError):
    """Resampling ratio not representable as L/M with L, M <= 2**20."""


@dataclass(frozen=True)
class SignalBuffer:
    """Uniformly sampled complex I/Q series with rate and carrier annotation."""

    samples: np.ndarray
    sample_rate_hz: float
    if_offset_hz: float = 0.0
    epoch_s: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def mix_carrier(buf: SignalBuffer, freq_hz: float, phase_rad: float = 0.0) -> SignalBuffer:
    """Multiply by a complex exponential; if_offset_hz is advanced by freq_hz."""
    n = np.arange(len(buf.samples))
    rotator = np.exp(1j * (2.0 * np.pi * freq_hz * n / buf.sample_rate_hz + phase_rad))
    return replace(buf, samples=buf.samples * rotator,
                   if_offset_hz=buf.if_offset_hz + freq_hz)


def _rational_ratio(source_hz: float, target_hz: float) -> tuple[int, int]:
    ratio = target_hz / source_hz
    frac = Fraction(ratio).limit_denominator(MAX_RESAMPLE_FACTOR)
    if (frac.numerator > MAX_RESAMPLE_FACTOR or frac.numerator < 1
            or abs(float(frac) - ratio) / ratio > _RATIO_TOL):
        raise UnsupportedRatioError(
            f"cannot approximate rate ratio {target_hz}/{source_hz} with "
            f"L, M <= 2**20 to within {_RATIO_TOL} relative")
    return frac.numerator, frac.denominator


def design_antialias_fir(source_hz: float, target_hz: float, up: float) -> np.ndarray:
    """Kaiser-windowed lowpass for polyphase resampling, at the upsampled rate."""
    min_rate = min(source_hz, target_hz)
    up_nyquist = up * source_hz / 2.0
    numtaps, beta = sig.kaiserord(_FILTER_ATTEN_DB,
                                  _FILTER_WIDTH_FRAC * min_rate / up_nyquist)
    numtaps += 1 - numtaps % 2  # odd length, symmetric
    return sig.firwin(numtaps, _FILTER_CUTOFF_FRAC * min_rate / up_nyquist,
                      window=("kaiser", beta))


def resample(buf: SignalBuffer, target_rate_hz: float) -> SignalBuffer:
    """Rational-ratio polyphase resampling (upsample, FIR lowpass, downsample)."""
    if target_rate_hz <= 0:
        raise ValueError("target_rate_hz must be positive")
    if target_rate_hz == buf.sample_rate_hz:
        return replace(buf, samples=buf.samples.copy())
    up, down = _rational_ratio(buf.sample_rate_hz, target_rate_hz)
    h = design_antialias_fir(buf.sample_rate_hz, target_rate_hz, up)
    # resample_poly scales an array window by `up` internally
    out = sig.resample_poly(buf.samples, up, down, window=h)
    return replace(buf, samples=out, sample_rate_hz=target_rate_hz)


def _phasor(cycles: float, n: int) -> np.ndarray:
    """e^{j2π·cycles·m}, m = 0..n-1: a 1024-sample table times one phasor per
    block, whose phase is reduced mod 1 from cycles split into a float32 head
    (exact times the block start) and the rest, so it holds for any cycles·n."""
    p = min(n, 1024)
    starts = p * np.arange(-(-n // p))
    head = float(np.float32(cycles))
    block = np.exp(2j * np.pi * ((head * starts % 1.0 + (cycles - head) * starts) % 1.0))
    return (block[:, None] * np.exp(2j * np.pi * cycles * np.arange(p))).ravel()[:n]


def fractional_delay(buf: SignalBuffer, delay_s: float) -> SignalBuffer:
    """Delay by an arbitrary time; the leading gap is zero-filled.

    A fractional delay is applied as a spectral phase ramp, which is exact
    for bandlimited signals and, unlike interpolation in the time domain,
    does not attenuate content near the Nyquist band (the IF carrier sits
    high in the band, so interpolation loss would be severe there).
    """
    if delay_s < 0:
        raise ValueError("delay_s must be non-negative")
    n = len(buf.samples)
    shift = delay_s * buf.sample_rate_hz
    if shift >= n:
        warnings.warn("delay exceeds buffer duration; output is all zeros")
        return replace(buf, samples=np.zeros(n, dtype=np.complex128))
    whole = int(np.floor(shift))
    frac = shift - whole
    if frac > 1e-12:
        x = np.fft.fft(buf.samples)
        x *= _phasor(-shift / n, n)  # e^{-j2π·k·shift/n}, k = 0..n-1
        x[(n + 1) // 2:] *= np.exp(2j * np.pi * frac)  # fftfreq is k/n - 1 from bin ⌈n/2⌉ on
        x = np.fft.ifft(x)
    else:
        x = np.roll(buf.samples, whole)
    x[:whole] = 0.0  # either way the delay is circular: blank the wrapped tail
    return replace(buf, samples=x)


def add_awgn(buf: SignalBuffer, noise_power_dbw: float, seed: int) -> SignalBuffer:
    """Add circularly symmetric complex Gaussian noise of the given total power.

    A power of -inf disables noise.  Deterministic for a given seed.
    """
    if noise_power_dbw == -np.inf:
        return replace(buf, samples=buf.samples.copy())
    power = 10.0 ** (noise_power_dbw / 10.0)
    sigma = np.sqrt(power / 2.0)
    rng = np.random.default_rng(seed)
    n = len(buf.samples)
    noise = sigma * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return replace(buf, samples=buf.samples + noise)


def fft_correlate(a, b) -> np.ndarray:
    """Circular cross-correlation via FFT.

    Output index m equals sum_n a[n] * conj(b[(n - m) mod N]); if a is a
    circularly shifted copy of b the peak lands at the shift.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be 1-D sequences of equal length")
    return np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b)))
