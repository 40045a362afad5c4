"""Shared DSP primitives: sample buffers, block phasors, noise, FFT correlation."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

BLOCK_SAMPLES = 16 * 1024  # synthesis and I/Q block: cache-sized, a multiple of _phasor's period


@dataclass(frozen=True)
class SignalBuffer:
    """Uniformly sampled complex I/Q series with rate and carrier annotation."""

    samples: np.ndarray
    sample_rate_hz: float
    if_offset_hz: float = 0.0

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")

    def __len__(self) -> int:
        return len(self.samples)


def _phasor(cycles: float, n: int, phase_rad: float = 0.0, start: int = 0) -> np.ndarray:
    """e^{j(2π·cycles·m + phase_rad)}, m = start..start+n-1: a 1024-sample table times one
    phasor per block, its phase reduced mod 1 from cycles split into a float32 head (exact
    times the block start) and the rest; a start in whole 1024s gives one call's chunk exactly."""
    p = min(start + n, 1024)
    starts = start + p * np.arange(-(-n // p))
    head = float(np.float32(cycles))
    block = np.exp(2j * np.pi * ((head * starts % 1.0 + (cycles - head) * starts) % 1.0)
                   + 1j * phase_rad)
    return (block[:, None] * np.exp(2j * np.pi * cycles * np.arange(p))).ravel()[:n]


def pool_map(fn, items) -> list:
    """[fn(x) for x in items] on min(usable CPUs, items) threads, in order; 1 item inline."""
    if len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(min(len(os.sched_getaffinity(0)), len(items))) as pool:
        return list(pool.map(fn, items))  # numpy drops the GIL; the first raise ends all workers


def add_awgn(buf: SignalBuffer, noise_power_dbw: float, seed: int) -> SignalBuffer:
    """Add circularly symmetric complex Gaussian noise of the given total power.

    A power of -inf disables noise.  Deterministic for a given seed.
    """
    samples = buf.samples.copy()
    _add_noise(samples, noise_power_dbw, seed)
    return replace(buf, samples=samples)


def _check_draws(noise_power_dbw: float = -np.inf, **seeds: int) -> None:
    """Reject a noise power that is NaN, +inf or over 3000 dBW (-inf: no noise), or a seed < 0."""
    if not noise_power_dbw <= 3000.0:
        raise ValueError("noise_power_dbw must be finite, or -inf for no noise")
    if bad := [name for name, seed in seeds.items() if seed < 0]:
        raise ValueError(f"{bad[0]} must be non-negative")


def _add_noise(samples: np.ndarray, noise_power_dbw: float, seed: int) -> None:
    """samples += σ·(I + jQ) in place, drawn BLOCK_SAMPLES at a time: all I, then all Q."""
    if noise_power_dbw == -np.inf:
        return
    sigma = np.sqrt(10.0 ** (noise_power_dbw / 10.0) / 2.0)
    rng = np.random.default_rng(seed)
    for part in (samples.real, samples.imag):
        for block in (part[a:a + BLOCK_SAMPLES] for a in range(0, len(part), BLOCK_SAMPLES)):
            block += sigma * rng.standard_normal(len(block))


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
