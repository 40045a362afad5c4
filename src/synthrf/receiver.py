"""Software receiver: parallel code phase search acquisition on shared
wiped-off spectra and the code's main lobe, fine frequency estimation on its
search band's DFT bins, and DLL/PLL tracking on one segmented sum per epoch."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len

from .dsp import SignalBuffer, _phasor
from .prn import CODE_LENGTH, SpreadingCode


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
        if self.freq_step_hz <= 0:
            raise ValueError("freq_step_hz must be positive")
        if self.freq_search_min_hz >= self.freq_search_max_hz:
            raise ValueError("freq_search_min_hz must be below freq_search_max_hz")
        if self.coherent_ms > self.fine_freq_ms:
            raise ValueError("coherent_ms must not exceed fine_freq_ms")


@dataclass
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
    lock_floor_fraction: float = 0.01
    lock_loss_epochs: int = 50

    def __post_init__(self):
        if min(self.dll_bw_hz, self.pll_bw_hz, self.integration_ms,
               self.damping, self.correlator_spacing_chips) <= 0:
            raise ValueError("tracking parameters must be positive")
        if self.correlator_spacing_chips > 1.0:
            raise ValueError("correlator spacing must not exceed one chip")


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
    step = code.chipping_rate_hz / sample_rate_hz
    periods = CODE_LENGTH / step * np.arange(1, n_samples * step // CODE_LENGTH + 1)
    whole = periods[np.abs(periods - np.round(periods)) < 1e-6]
    m = np.arange(round(whole[0]) if len(whole) else n_samples)
    # chip pulses are centered on the chip instants after bandlimited
    # reconstruction, so round rather than floor the chip position
    idx = np.floor((m - shift_samples) * step + 0.5).astype(np.int64)
    return np.resize(code.chips[idx % CODE_LENGTH], n_samples)


def samples_per_chip(code: SpreadingCode, sample_rate_hz: float) -> int:
    return int(round(sample_rate_hz / code.chipping_rate_hz))


def acquire(buf: SignalBuffer, code: SpreadingCode,
            cfg: AcquisitionConfig = AcquisitionConfig()) -> AcquisitionResult:
    """Parallel code phase search over the Doppler grid with the SNR gate.

    Doppler bins k whole FFT bins (f_s / n) apart share one wiped-off spectrum,
    as fft(x e^{-j2πkm/n}) = roll(fft(x), -k). Each bin's product with the
    replica spectrum is cut to the code's main lobe, its m bins nearest DC
    (m = next_fast_len(4 R_c n / f_s), at most n), and a group's bins are
    inverse-transformed at m points in one batch; the argmax picks the bin,
    whose full-rate row gives the code phase. The SNR gate is the ratio of the
    squared row peak to the mean of the squared row values, excluding lags
    within one chip of the peak.
    """
    f_s = buf.sample_rate_hz
    n = round(f_s * cfg.coherent_ms * 1e-3)
    if len(buf) < n:
        raise ValueError("buffer shorter than the coherent integration length")
    seg = buf.samples[:n]
    replica_fft = np.conj(np.fft.fft(sample_code_replica(code, f_s, n)))
    n_bins = int(round((cfg.freq_search_max_hz - cfg.freq_search_min_hz)
                       / cfg.freq_step_hz)) + 1
    freqs = cfg.freq_search_min_hz + cfg.freq_step_hz * np.arange(n_bins)
    residues = np.round(((freqs - freqs[0]) * n / f_s) % 1.0, 9) % 1.0
    m = min(n, next_fast_len(math.ceil(4 * code.chipping_rate_hz * n / f_s)))
    kk = ((np.arange(m) + m // 2) % m - m // 2) % n  # the m bins nearest DC, in FFT order
    lobe = replica_fft[kk]
    surface = np.empty((n_bins, m))
    wiped = {}
    for r in np.unique(residues):
        members = np.flatnonzero(residues == r)
        f_g = freqs[members[0]]
        spectrum = np.fft.fft(seg * _phasor(-(buf.if_offset_hz + f_g) / f_s, n))
        shifts = np.round((freqs[members] - f_g) * n / f_s).astype(np.int64)
        wiped.update((i, (spectrum, shift)) for i, shift in zip(members, shifts))
        surface[members] = np.abs(np.fft.ifft(spectrum[(kk + shifts[:, None]) % n] * lobe)) ** 2
    bin_idx = int(np.argmax(surface)) // m
    row = surface[bin_idx]
    if m < n:  # the full-rate row at the winning bin
        spectrum, shift = wiped[bin_idx]
        row = np.abs(np.fft.ifft(np.roll(spectrum, -shift) * replica_fft)) ** 2
    tau = int(np.argmax(row))
    n_s = samples_per_chip(code, f_s)
    keep = np.ones(n, dtype=bool)
    keep[(tau + np.arange(1 - n_s, n_s)) % n] = False
    noise = row[keep]
    snr_db = 10.0 * np.log10(row[tau] ** 2 / np.mean(noise ** 2))
    acquired = bool(snr_db >= cfg.snr_threshold_db)
    result = AcquisitionResult(
        prn_id=code.prn_id, acquired=acquired, code_phase_samples=tau,
        coarse_freq_hz=float(freqs[bin_idx]), fine_freq_hz=math.nan,
        snr_db=float(snr_db), noise_lag_count=int(len(noise)),
        correlation_surface=surface if cfg.keep_surface else None)
    if acquired and len(buf) >= round(f_s * cfg.fine_freq_ms * 1e-3):
        result.fine_freq_hz = fine_frequency(buf, code, result.code_phase_samples,
                                             result.coarse_freq_hz, cfg)
    return result


def fine_frequency(buf: SignalBuffer, code: SpreadingCode, tau_samples: int,
                   coarse_hz: float,
                   cfg: AcquisitionConfig = AcquisitionConfig()) -> float:
    """Refine the Doppler shift from the spectrum of the code-wiped carrier.

    Only the bins of the zero-padded next_fast_len(4 n)-point DFT within
    ±freq_step_hz of the coarse frequency are evaluated, as a two-stage DFT
    over t = P b + r (P ≈ √n): a matrix product over r, then a sum over b
    (the last, partial block as one vector-matrix product).
    """
    f_s = buf.sample_rate_hz
    n = round(f_s * cfg.fine_freq_ms * 1e-3)
    if len(buf) < n:
        raise ValueError("buffer shorter than the fine-frequency length")
    if not 0 <= tau_samples < len(buf):
        raise ValueError("tau_samples out of range")
    wiped = buf.samples[:n] * sample_code_replica(code, f_s, n, tau_samples)
    nfft = next_fast_len(4 * n)
    spacing = 1.0 / (nfft * (1.0 / f_s))  # as np.fft.fftfreq computes it
    center = buf.if_offset_hz + coarse_hz
    k = np.arange(max(math.floor((center - cfg.freq_step_hz) / spacing) - 1, -(nfft // 2)),
                  min(math.ceil((center + cfg.freq_step_hz) / spacing) + 1, (nfft - 1) // 2) + 1)
    k = k[np.abs(k * spacing - center) <= cfg.freq_step_hz]
    if not len(k):
        raise ValueError(f"fine-frequency centre {center:.0f} Hz is past f_s/2 = {f_s / 2:.0f} Hz")
    p = math.isqrt(n)
    whole = n - n % p
    twiddles = np.exp(-2j * np.pi * (np.outer(np.arange(p), k) % nfft) / nfft)
    outer = np.exp(-2j * np.pi * (np.outer(np.arange(0, n, p), k) % nfft) / nfft)
    spectrum = np.sum((wiped[:whole].reshape(-1, p) @ twiddles) * outer[:whole // p], axis=0)
    if whole < n:
        spectrum += (wiped[whole:] @ twiddles[:n - whole]) * outer[-1]
    return float(k[np.argmax(np.abs(spectrum))] * spacing - buf.if_offset_hz)


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

    The carrier NCO is seeded with the fine frequency estimate, falling back
    to the coarse bin, and the code NCO starts at the acquired code phase.
    Each epoch's carrier is a block phasor (dsp._phasor); E, P, L: _early_prompt_late.
    """
    if not init.acquired:
        raise ValueError("cannot track a source that was not acquired")
    f_s = buf.sample_rate_hz
    samples = buf.samples
    chips = code.chips
    r_c = code.chipping_rate_hz
    pdi = cfg.integration_ms * 1e-3
    n_epochs_min = 10
    if len(buf) < n_epochs_min * pdi * f_s:
        raise ValueError("buffer shorter than 10 integration periods")

    if math.isfinite(init.fine_freq_hz):
        doppler0 = init.fine_freq_hz
    else:
        # a coarse bin can be hundreds of Hz off, far beyond the Costas
        # pull-in range at these bandwidths; refine before closing the loop
        doppler0 = fine_frequency(buf, code, init.code_phase_samples,
                                  init.coarse_freq_hz)
    carr_freq = buf.if_offset_hz + doppler0
    carr_freq_basis = carr_freq
    code_freq = r_c
    chips_per_epoch = round(r_c * pdi)
    nominal_epoch_samples = chips_per_epoch * f_s / r_c

    tau1_code, tau2_code = _loop_gains(cfg.dll_bw_hz, cfg.damping, 1.0)
    tau1_carr, tau2_carr = _loop_gains(cfg.pll_bw_hz, cfg.damping, 0.25)

    rem_code_phase = 0.0
    rem_carr_phase = 0.0
    code_nco = old_code_err = 0.0
    carr_nco = old_carr_err = 0.0
    spacing = cfg.correlator_spacing_chips

    p = init.code_phase_samples
    epoch = 0
    rows = []
    lock_floor = None
    weak_count = 0
    loss = False
    while True:
        code_step = code_freq / f_s
        blksize = math.ceil((chips_per_epoch - rem_code_phase) / code_step)
        if p + blksize > len(samples):
            break
        base = _phasor(-carr_freq / f_s, blksize, -rem_carr_phase)
        base *= samples[p:p + blksize]
        rem_carr_phase = ((rem_carr_phase + 2.0 * np.pi * carr_freq * blksize / f_s)
                          % (2.0 * np.pi))
        c_e, c_p, c_l = _early_prompt_late(base, chips, rem_code_phase, code_step, spacing)
        new_rem = rem_code_phase + blksize * code_step - chips_per_epoch

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
        delay = code_start - epoch * nominal_epoch_samples
        rows.append((epoch * pdi, delay, carr_freq - buf.if_offset_hz,
                     c_p.real, c_p.imag, code_err, carr_err))

        power = abs(c_p) ** 2
        if lock_floor is None:
            lock_floor = cfg.lock_floor_fraction * power
        weak_count = weak_count + 1 if power < lock_floor else 0
        if weak_count >= cfg.lock_loss_epochs:
            loss = True
            break

        p += blksize
        rem_code_phase = new_rem
        epoch += 1

    arr = np.asarray(rows, dtype=np.float64).reshape(-1, 7)
    return TrackingTrace(epoch_s=arr[:, 0], code_delay_samples=arr[:, 1],
                         doppler_hz=arr[:, 2], prompt_i=arr[:, 3],
                         prompt_q=arr[:, 4], dll_discriminator=arr[:, 5],
                         pll_discriminator=arr[:, 6], loss_of_lock=loss)
