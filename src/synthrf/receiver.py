"""Software receiver: parallel code phase search acquisition on shared wiped-off spectra and
the code's main lobe, fine frequency as the argmax of its band's DFT over zero-padded rows,
and DLL/PLL tracking on one segmented sum per epoch; codes and PRNs run on dsp.pool_map."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dsp import BLOCK_SAMPLES, SignalBuffer, _phasor, pool_map
from .prn import CODE_LENGTH, SpreadingCode

LOCK_FLOOR_FRACTION = 0.01  # an epoch is weak below this fraction of the first's prompt power
LOCK_LOSS_EPOCHS = 50  # weak epochs in a row that track reports as loss of lock


@dataclass(frozen=True)
class AcquisitionConfig:
    freq_search_min_hz: float = -5000.0
    freq_search_max_hz: float = 5000.0
    freq_step_hz: float = 500.0
    snr_threshold_db: float = 25.0
    coherent_ms: float = 1.0
    fine_freq_ms: float = 10.0
    keep_surface: bool = False

    def __post_init__(self):
        for name in ("freq_step_hz", "coherent_ms", "fine_freq_ms"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("snr_threshold_db", "freq_search_min_hz", "freq_search_max_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.freq_search_min_hz >= self.freq_search_max_hz:
            raise ValueError("freq_search_min_hz must be below freq_search_max_hz")
        if self.coherent_ms > self.fine_freq_ms:
            raise ValueError("coherent_ms must not exceed fine_freq_ms")


@dataclass(frozen=True)
class AcquisitionResult:
    """correlation_surface (keep_surface): power per (Doppler bin, lag of n/m samples)."""

    prn_id: int
    acquired: bool
    code_phase_samples: int
    coarse_freq_hz: float
    fine_freq_hz: float
    snr_db: float
    noise_lag_count: int = 0
    correlation_surface: np.ndarray | None = None


@dataclass(frozen=True)
class TrackingConfig:
    dll_bw_hz: float = 2.0
    pll_bw_hz: float = 10.0
    correlator_spacing_chips: float = 0.5
    integration_ms: float = 1.0
    damping: float = 0.707
    carrier_aiding: bool = False
    carrier_freq_hz: float = 1575.42e6  # used only when carrier aiding is on

    def __post_init__(self):
        if bad := [n for n in ("dll_bw_hz", "pll_bw_hz", "integration_ms", "damping",
                               "correlator_spacing_chips", "carrier_freq_hz")
                   if not 0 < getattr(self, n) < math.inf]:  # NaN too
            raise ValueError(f"{bad[0]} must be positive and finite")
        if self.correlator_spacing_chips > 1.0:
            raise ValueError("correlator_spacing_chips must not exceed one chip")


@dataclass
class TrackingTrace:
    epoch_s: np.ndarray
    code_delay_samples: np.ndarray
    doppler_hz: np.ndarray
    prompt_i: np.ndarray
    prompt_q: np.ndarray
    dll_discriminator: np.ndarray
    pll_discriminator: np.ndarray
    loss_of_lock: bool = False

    def __len__(self) -> int:
        return len(self.epoch_s)


def sample_code_replica(code: SpreadingCode, sample_rate_hz: float,
                        n_samples: int, shift_samples: float = 0.0) -> np.ndarray:
    """Code chips sampled at the signal rate, optionally delayed by samples: the first L
    samples, L the fewest whole code periods that are whole samples (else n), repeated."""
    return np.resize(_replica_period(code, sample_rate_hz, n_samples, shift_samples), n_samples)


def _replica_period(code: SpreadingCode, f_s: float, n: int, shift: float) -> np.ndarray:
    """The first L samples of sample_code_replica, which repeats them."""
    step = code.chipping_rate_hz / f_s
    periods = CODE_LENGTH / step * np.arange(1, n * step // CODE_LENGTH + 1)
    whole = periods[np.abs(periods - np.round(periods)) < 1e-6]
    m = np.arange(round(whole[0]) if len(whole) else n)
    # chip pulses are centered on the chip instants after bandlimited
    # reconstruction, so round rather than floor the chip position
    idx = np.floor((m - shift) * step + 0.5).astype(np.int64)
    return code.chips[idx % CODE_LENGTH]


@lru_cache
def _fft_len(n: int) -> int:
    """The least 11-smooth integer >= n, scipy.fft.next_fast_len's value for complex input."""
    odd = [1]
    for p in (3, 5, 7, 11):  # every odd 11-smooth number below 2 n
        for q in odd[:]:
            while (q := q * p) < 2 * n:
                odd.append(q)
    return min(q << (-(-n // q) - 1).bit_length() for q in odd)  # q 2^k >= n, k least


def acquire(buf: SignalBuffer, code: SpreadingCode,
            cfg: AcquisitionConfig = AcquisitionConfig()) -> AcquisitionResult:
    """acquire_all for one code."""
    return acquire_all(buf, [code], cfg)[0]


def acquire_all(buf: SignalBuffer, codes: list[SpreadingCode],
                cfg: AcquisitionConfig = AcquisitionConfig()) -> list[AcquisitionResult]:
    """Parallel code phase search over the Doppler grid with the SNR gate, per code.

    Doppler bins k whole FFT bins (f_s / n) apart share one wiped-off spectrum, fft(x e^{-j2π
    km/n}) = roll(fft(x), -k), all made first; then each code is one dsp.pool_map item. Its
    product spectrum is cut to its main lobe, the m bins nearest DC (m = _fft_len(4 R_c n /
    f_s), at most n), and a group's bins take one batched m-point inverse FFT; the argmax
    picks the bin, whose full-rate row gives the code phase and the SNR gate: the squared
    row peak over the mean squared row value, leaving out lags within one chip of the peak.
    """
    f_s = buf.sample_rate_hz
    n = round(f_s * cfg.coherent_ms * 1e-3)
    if n < 1:
        raise ValueError(f"coherent_ms = {cfg.coherent_ms:g} ms is under one sample at {f_s:g} Hz")
    if len(buf) < n:
        raise ValueError("buffer shorter than the coherent integration length")
    seg = buf.samples[:n]
    n_bins = int(round((cfg.freq_search_max_hz - cfg.freq_search_min_hz)
                       / cfg.freq_step_hz)) + 1
    freqs = cfg.freq_search_min_hz + cfg.freq_step_hz * np.arange(n_bins)
    residues = np.round(((freqs - freqs[0]) * n / f_s) % 1.0, 9) % 1.0
    unique, group = np.unique(residues, return_inverse=True)  # each bin's group
    groups = [np.flatnonzero(group == g) for g in range(len(unique))]
    spectra = [np.fft.fft(seg * _phasor(-(buf.if_offset_hz + freqs[g[0]]) / f_s, n))
               for g in groups]  # each group's wiped-off spectrum, shared by every code
    shifts = np.round((freqs - freqs[[g[0] for g in groups]][group]) * n / f_s).astype(np.int64)
    def search(code: SpreadingCode) -> AcquisitionResult:
        replica_fft = np.conj(np.fft.fft(sample_code_replica(code, f_s, n)))
        m = min(n, _fft_len(math.ceil(4 * code.chipping_rate_hz * n / f_s)))
        kk = ((np.arange(m) + m // 2) % m - m // 2) % n  # the m bins nearest DC, in FFT order
        lobe = replica_fft[kk]
        surface = np.empty((n_bins, m))
        for members, spectrum in zip(groups, spectra):
            surface[members] = np.abs(np.fft.ifft(
                spectrum[(kk + shifts[members, None]) % n] * lobe)) ** 2
        bin_idx = int(np.argmax(surface)) // m
        row = surface[bin_idx]
        if m < n:  # the full-rate row at the winning bin
            row = np.abs(np.fft.ifft(
                np.roll(spectra[group[bin_idx]], -shifts[bin_idx]) * replica_fft)) ** 2
        tau = int(np.argmax(row))
        n_s = round(f_s / code.chipping_rate_hz)  # samples per chip
        noise = np.delete(row, (tau + np.arange(1 - n_s, n_s)) % n)
        snr_db = 10.0 * np.log10(row[tau] ** 2 / np.mean(noise ** 2))
        acquired = bool(snr_db >= cfg.snr_threshold_db)
        coarse_hz = float(freqs[bin_idx])
        fine_hz = math.nan
        del row, replica_fft  # freed before fine frequency's peak
        if acquired and len(buf) >= round(f_s * cfg.fine_freq_ms * 1e-3):
            fine_hz = fine_frequency(buf, code, tau, coarse_hz, cfg)
        return AcquisitionResult(
            prn_id=code.prn_id, acquired=acquired, code_phase_samples=tau,
            coarse_freq_hz=coarse_hz, fine_freq_hz=fine_hz,
            snr_db=float(snr_db), noise_lag_count=int(len(noise)),
            correlation_surface=surface if cfg.keep_surface else None)
    return pool_map(search, codes)


def fine_frequency(buf: SignalBuffer, code: SpreadingCode, tau_samples: int,
                   coarse_hz: float,
                   cfg: AcquisitionConfig = AcquisitionConfig()) -> float:
    """Refine the Doppler shift to the argmax of the code-wiped carrier's spectrum.

    Only the bins of the zero-padded _fft_len(4 n)-point DFT within ±freq_step_hz of the
    coarse frequency are evaluated, as a two-stage DFT over t = P b + r (P ≈ √n): rows b,
    the last zero-padded, wiped a chunk at a time into one buffer, a product over r, a sum over b.
    """
    f_s = buf.sample_rate_hz
    n = round(f_s * cfg.fine_freq_ms * 1e-3)
    if len(buf) < n:
        raise ValueError(f"buffer shorter than fine_freq_ms = {cfg.fine_freq_ms} ms")
    if not 0 <= tau_samples < len(buf):
        raise ValueError("tau_samples out of range")
    nfft = _fft_len(4 * n)
    spacing = 1.0 / (nfft * (1.0 / f_s))  # as np.fft.fftfreq computes it
    center = buf.if_offset_hz + coarse_hz
    k = np.arange(max(math.floor((center - cfg.freq_step_hz) / spacing) - 1, -(nfft // 2)),
                  min(math.ceil((center + cfg.freq_step_hz) / spacing) + 1, (nfft - 1) // 2) + 1)
    k = k[np.abs(k * spacing - center) <= cfg.freq_step_hz]
    if not len(k) and spacing > 2 * cfg.freq_step_hz and abs(center) < f_s / 2:
        raise ValueError(f"fine_freq_ms = {cfg.fine_freq_ms:g} ms gives {spacing:.0f} Hz bins, "
                         f"too wide for the ±freq_step_hz = {cfg.freq_step_hz:g} Hz band")
    if not len(k):
        raise ValueError(f"fine-frequency centre {center:.0f} Hz is past f_s/2 = {f_s / 2:.0f} Hz")
    p = math.isqrt(n)
    rows = -(-n // p)  # the last zero-padded to p samples
    wiped = np.empty(min(rows, max(BLOCK_SAMPLES // p, 1)) * p, dtype=np.complex128)  # reused
    period = len(replica := _replica_period(code, f_s, n, tau_samples))
    replica = np.concatenate((replica, np.resize(replica, len(wiped))))  # any chunk: a slice
    twiddles = _dft_rows(1, p, k, nfft)
    outer = _dft_rows(p, rows, k, nfft)
    spectrum = 0
    for a in range(0, n, len(wiped)):  # the rows from sample a, the code wiped off, 0 past n
        m = min(n - a, len(wiped))
        np.multiply(buf.samples[a:a + m], replica[a % period:][:m], out=wiped[:m])
        wiped[m:] = 0
        part = wiped[:-(-m // p) * p].reshape(-1, p) @ twiddles
        spectrum += np.sum(part * outer[a // p:][:len(part)], axis=0)
    return float(k[np.argmax(np.abs(spectrum))] * spacing - buf.if_offset_hz)


def _dft_rows(step: int, count: int, k: np.ndarray, nfft: int) -> np.ndarray:
    """Rows j < count of e^{-j2π (step·j·k mod nfft)/nfft}, j = 32a + b: the rows for
    step·32a times those for step·b, each reduced mod nfft in integers."""
    a, b = (np.exp(-2j * np.pi * (np.outer(r, k) % nfft) / nfft)
            for r in (step * 32 * np.arange(-(-count // 32)) % nfft, step * np.arange(32)))
    return (a[:, None] * b).reshape(-1, len(k))[:count]


def _loop_gains(bw_hz: float, damping: float, gain: float) -> tuple[float, float]:
    """Natural-frequency form of the second-order loop filter constants."""
    wn = bw_hz * 8.0 * damping / (4.0 * damping ** 2 + 1.0)
    return gain / (wn * wn), 2.0 * damping / wn


def _loop_filter(nco: float, err: float, old_err: float, tau1: float, tau2: float,
                 pdi: float) -> float:
    """Second-order loop filter: the next NCO command from the last one, err and old_err."""
    return nco + (tau2 / tau1) * (err - old_err) + err * (pdi / tau1)


def dll_discriminator(i_e: float, q_e: float, i_l: float, q_l: float) -> float:
    """Normalized early-minus-late power discriminator."""
    e = math.hypot(i_e, q_e)
    l = math.hypot(i_l, q_l)
    if e + l == 0.0:
        return 0.0
    return (e - l) / (e + l)


def pll_discriminator(i_p: float, q_p: float) -> float:
    """Costas arctangent discriminator, in cycles."""
    if i_p == 0.0:
        return 0.0
    return math.atan(q_p / i_p) / (2.0 * np.pi)


def _early_prompt_late(base: np.ndarray, chips: np.ndarray, rem_code_phase: float,
                       code_step: float, spacing: float) -> np.ndarray:
    """E, P and L of base against the chips at floor(cp − spacing), floor(cp) and
    floor(cp + spacing), cp = rem_code_phase + m·code_step + 0.5 (chip centres).
    base is summed once over the segments where none of the three steps; each step is
    estimated, then moved by at most one sample to where the float ramp itself crosses."""
    offsets = np.array([[-spacing], [0.0], [spacing]])
    def ramp(m):
        return rem_code_phase + m * code_step + 0.5 + offsets
    k = np.arange(math.floor(ramp(0)[0, 0]) + 1, math.floor(ramp(len(base) - 1)[2, 0]) + 1)
    m = np.ceil((k - offsets - 0.5 - rem_code_phase) / code_step).astype(np.int64)
    m -= ramp(m - 1) >= k
    m += ramp(m) < k
    starts = np.sort(np.clip(np.append(m, 0), 0, len(base) - 1))  # steps outside clip to the ends
    starts = starts[np.diff(starts, prepend=-1) > 0]  # reduceat gives x[i], not 0, if empty
    sums = np.add.reduceat(base, starts)
    return np.take(chips, np.floor(ramp(starts)).astype(np.int64), mode="wrap") @ sums


def track(buf: SignalBuffer, code: SpreadingCode, init: AcquisitionResult,
          cfg: TrackingConfig = TrackingConfig()) -> TrackingTrace:
    """Conventional code/carrier tracking loop producing per-epoch traces.

    The carrier NCO starts at acquire's fine frequency (init.fine_freq_hz) and
    the code NCO at the acquired code phase.
    Each epoch's carrier is a block phasor (dsp._phasor); E, P, L: _early_prompt_late.
    """
    if not init.acquired:
        raise ValueError("cannot track a source that was not acquired")
    f_s = buf.sample_rate_hz
    r_c = code.chipping_rate_hz
    pdi = cfg.integration_ms * 1e-3
    if len(buf) < 10 * pdi * f_s:
        raise ValueError("buffer shorter than 10 integration periods")

    if not math.isfinite(init.fine_freq_hz):
        raise ValueError("fine_freq_hz must be finite; acquire sets it from fine_freq_ms of signal")
    carr_freq = carr_freq_basis = buf.if_offset_hz + init.fine_freq_hz
    code_freq = r_c
    if (chips_per_epoch := round(r_c * pdi)) < 1:
        raise ValueError(f"integration_ms = {cfg.integration_ms:g} ms is under one chip at "
                         f"{r_c:g} chips/s")
    nominal_epoch_samples = chips_per_epoch * f_s / r_c

    tau1_code, tau2_code = _loop_gains(cfg.dll_bw_hz, cfg.damping, 1.0)
    tau1_carr, tau2_carr = _loop_gains(cfg.pll_bw_hz, cfg.damping, 0.25)

    rem_code_phase = rem_carr_phase = 0.0
    code_nco = old_code_err = 0.0
    carr_nco = old_carr_err = 0.0
    spacing = cfg.correlator_spacing_chips

    p = init.code_phase_samples
    rows = []  # one per epoch
    lock_floor = None
    weak_count = 0
    while True:
        code_step = code_freq / f_s
        blksize = math.ceil((chips_per_epoch - rem_code_phase) / code_step)
        if p + blksize > len(buf):
            break
        base = _phasor(-carr_freq / f_s, blksize, -rem_carr_phase)
        base *= buf.samples[p:p + blksize]
        rem_carr_phase = ((rem_carr_phase + 2.0 * np.pi * carr_freq * blksize / f_s)
                          % (2.0 * np.pi))
        c_e, c_p, c_l = _early_prompt_late(base, code.chips, rem_code_phase, code_step, spacing)

        code_err = dll_discriminator(c_e.real, c_e.imag, c_l.real, c_l.imag)
        code_nco = _loop_filter(code_nco, code_err, old_code_err, tau1_code, tau2_code, pdi)
        old_code_err = code_err
        code_freq = r_c - code_nco
        if cfg.carrier_aiding:
            code_freq += (carr_freq - buf.if_offset_hz) * r_c / cfg.carrier_freq_hz

        carr_err = pll_discriminator(c_p.real, c_p.imag)
        carr_nco = _loop_filter(carr_nco, carr_err, old_carr_err, tau1_carr, tau2_carr, pdi)
        old_carr_err = carr_err
        carr_freq = carr_freq_basis + carr_nco

        code_start = p - rem_code_phase / code_step
        delay = code_start - len(rows) * nominal_epoch_samples
        rows.append((len(rows) * pdi, delay, carr_freq - buf.if_offset_hz,
                     c_p.real, c_p.imag, code_err, carr_err))

        power = abs(c_p) ** 2
        if lock_floor is None:
            lock_floor = LOCK_FLOOR_FRACTION * power
        weak_count = weak_count + 1 if power < lock_floor else 0
        if weak_count >= LOCK_LOSS_EPOCHS:
            break

        p += blksize
        rem_code_phase = rem_code_phase + blksize * code_step - chips_per_epoch

    columns = np.asarray(rows, dtype=np.float64).reshape(-1, 7).T  # in TrackingTrace's order
    return TrackingTrace(*columns, loss_of_lock=weak_count >= LOCK_LOSS_EPOCHS)
