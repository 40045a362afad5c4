"""Shared DSP primitives: sample buffers, mixing, delays, noise, FFT correlation."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np


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
    """Multiply by e^{j(2π·freq_hz·t + phase_rad)} from _phasor; advance if_offset_hz."""
    rotator = _phasor(freq_hz / buf.sample_rate_hz, len(buf.samples), phase_rad)
    return replace(buf, samples=buf.samples * rotator,
                   if_offset_hz=buf.if_offset_hz + freq_hz)


def _phasor(cycles: float, n: int, phase_rad: float = 0.0) -> np.ndarray:
    """e^{j(2π·cycles·m + phase_rad)}, m = 0..n-1: a 1024-sample table times one
    phasor per block, whose phase is reduced mod 1 from cycles split into a float32
    head (exact times the block start) and the rest, so it holds for any cycles·n."""
    p = min(n, 1024)
    starts = p * np.arange(-(-n // p))
    head = float(np.float32(cycles))
    block = np.exp(2j * np.pi * ((head * starts % 1.0 + (cycles - head) * starts) % 1.0)
                   + 1j * phase_rad)
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
