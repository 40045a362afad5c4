"""Satellite/HAPS CDMA-BPSK waveform synthesis.

A code NCO builds each path at complex baseband: sample n has code phase
R_c * (t_n - tau(t_n)), tau being D[k, t] - D_min interpolated to the sample,
so the delay varies in time and the code carries its Doppler.  A table lookup
by the chip pattern around that phase and its fraction gives the band-limited
chip waveform.  Paths are scaled by their coefficients and summed over
sources; the sum is mixed to the intermediate frequency once.  synthesize does this
dsp.BLOCK_SAMPLES at a time, then adds noise to the sum in place, a block of draws at
a time (all I, then all Q), so only the output is full length.  A path's chip rows
are anchored once, on its code phases at the first and last sample, which bound all
others for |dD/dt| < 1; so blocks change no bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import signal as sig

from . import prn
from .channel import ChannelSet, _interp, _time_axes, earliest_delay_s
from .dsp import BLOCK_SAMPLES, SignalBuffer, _add_noise, _phasor

HAPS_DEFAULTS = dict(f_s_hz=38.192e6, f_if_hz=15e6, r_c_hz=10.23e6)


@dataclass(frozen=True)
class CdmaGenConfig:
    f_s_hz: float = 38.192e6
    f_if_hz: float = 9.548e6
    r_c_hz: float = 1.023e6
    t_d_s: float = 0.020  # navigation bit duration
    duration_s: float = 0.001
    sources: tuple[tuple[int, str], ...] = ()  # (prn_id, source_id)
    data_seed: int = 0
    modulate_data: bool = True
    noise_power_dbw: float = -math.inf
    noise_seed: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(tuple(s) for s in self.sources))
        for name in ("f_s_hz", "r_c_hz", "t_d_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # the complex working rate must hold the carrier and give the code at
        # least two samples per chip; outer code sidelobes are allowed to wrap
        # (the stock HAPS parameter set is deliberately marginal this way)
        if abs(self.f_if_hz) >= self.f_s_hz / 2.0:
            raise ValueError("f_if_hz must lie inside the complex Nyquist band")
        if self.r_c_hz > self.f_s_hz / 2.0:
            raise ValueError("r_c_hz must not exceed f_s_hz / 2")
        code_period = prn.CODE_LENGTH / self.r_c_hz
        ratio = self.t_d_s / code_period
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError("t_d_s must be an integer multiple of the code period")
        if self.n_samples < 1:
            raise ValueError("duration_s must hold at least one sample at f_s_hz")

    @property
    def n_samples(self) -> int:
        return round(self.f_s_hz * self.duration_s)


# Chip pulse: a one-chip rect through the anti-alias lowpass of a chip stream at
# PULSE_OVERSAMPLING samples per chip (cutoff 0.45 x that rate or f_s if lower),
# designed at 2**PHASE_BITS taps per chip; ~9 chips: nearest chip +- PULSE_HALF_SPAN.
PULSE_OVERSAMPLING = 5  # keeps the main lobe, about 2 MHz at 1.023 MHz, as the old stream did
PULSE_HALF_SPAN = 4
PHASE_BITS = 8  # the table resolves 2**PHASE_BITS fractions of a chip


# Anti-alias FIR design: Kaiser-windowed sinc, >=60 dB stopband, cutoff at
# 0.45x the lower of the two rates with the transition band ending at the
# lower Nyquist.
_FILTER_ATTEN_DB = 65.0
_FILTER_CUTOFF_FRAC = 0.45
_FILTER_WIDTH_FRAC = 0.10


def design_antialias_fir(source_hz: float, target_hz: float, up: float) -> np.ndarray:
    """Kaiser-windowed lowpass for polyphase resampling, at the upsampled rate."""
    min_rate = min(source_hz, target_hz)
    up_nyquist = up * source_hz / 2.0
    numtaps, beta = sig.kaiserord(_FILTER_ATTEN_DB,
                                  _FILTER_WIDTH_FRAC * min_rate / up_nyquist)
    numtaps += 1 - numtaps % 2  # odd length, symmetric
    return sig.firwin(numtaps, _FILTER_CUTOFF_FRAC * min_rate / up_nyquist,
                      window=("kaiser", beta))


@lru_cache(maxsize=8)
def _pulse_table(r_c_hz: float, f_s_hz: float) -> np.ndarray:
    """Flat (pattern, fraction) table: bit j of a pattern set means chip offset
    j - PULSE_HALF_SPAN is -1; fraction i is code phase (i + 0.5) / q - 0.5."""
    q, span = 1 << PHASE_BITS, 2 * PULSE_HALF_SPAN + 1
    h = design_antialias_fir(PULSE_OVERSAMPLING * r_c_hz, f_s_hz, q / PULSE_OVERSAMPLING)
    pulse = np.pad(np.convolve(np.ones(q), h), span * q)
    k = np.arange(q) - q * np.arange(-PULSE_HALF_SPAN, PULSE_HALF_SPAN + 1)[:, None]
    taps = pulse[k + (len(h) - 1) // 2 + span * q]
    table = (1.0 - 2.0 * (np.arange(1 << span)[:, None] >> np.arange(span) & 1)) @ taps
    table.flags.writeable = False  # cached, so shared by every caller
    return table.ravel()


def _code_nco(code: prn.SpreadingCode, cfg: CdmaGenConfig, t_ends, delay_ends):
    """Code NCO: maps sample times t and delays tau to the band-limited chip waveform
    at code phase R_c (t - tau), which must lie between its values at t_ends, delay_ends.
    Chip m is centred on phase m; code and data run on past both ends (no gap, no wrap)."""
    q = 1 << PHASE_BITS
    scale = cfg.r_c_hz * q  # phases count 1/q chips
    phase_lo, phase_hi = (t_ends - delay_ends) * scale
    first = math.floor(phase_lo / q) - PULSE_HALF_SPAN
    m = np.arange(first, math.ceil(phase_hi / q) + PULSE_HALF_SPAN + 1)
    chips = code.chips[m % prn.CODE_LENGTH]
    if cfg.modulate_data:
        per_bit = round(cfg.t_d_s * cfg.r_c_hz)
        n_bits = math.ceil((math.ceil(cfg.duration_s * cfg.r_c_hz) + 1) / per_bit)
        bits = np.random.default_rng((cfg.data_seed, code.prn_id)).integers(0, 2, n_bits)
        chips = chips * (1.0 - 2.0 * bits)[m // per_bit % n_bits]
    # table row of each chip's pattern; u = round(phase * q) counted from it
    rows = np.correlate((chips < 0).astype(np.int64),
                        q << np.arange(2 * PULSE_HALF_SPAN + 1), "valid")
    offset = q / 2 - (first + PULSE_HALF_SPAN) * q

    def baseband(t: np.ndarray, delay_s) -> np.ndarray:
        u = ((t - delay_s) * scale + offset).astype(np.int64)
        return _pulse_table(cfg.r_c_hz, cfg.f_s_hz)[rows[u >> PHASE_BITS] + (u & (q - 1))]
    return baseband


def generate_clean_signal(code: prn.SpreadingCode, cfg: CdmaGenConfig) -> SignalBuffer:
    """Undistorted complex signal at the intermediate frequency for one source."""
    if code.chipping_rate_hz != cfg.r_c_hz:
        raise ValueError("code chipping rate does not match the config")
    t = np.arange(cfg.n_samples) / cfg.f_s_hz
    # complex before the mix: mixing the float array frees other blocks, and glibc's heap
    # then costs acq_gate's acquire calls 1,090 page faults each instead of 860
    baseband = _code_nco(code, cfg, t[[0, -1]], 0.0)(t, 0.0).astype(np.complex128)
    # named: numpy's temporary reuse would swap the operands, which rounds differently
    carrier = _phasor(cfg.f_if_hz / cfg.f_s_hz, cfg.n_samples)
    return SignalBuffer(baseband * carrier, cfg.f_s_hz, if_offset_hz=cfg.f_if_hz)


def synthesize(cfg: CdmaGenConfig, channels: ChannelSet) -> SignalBuffer:
    """Every path at baseband from the code NCO, delayed from D_min (earliest_delay_s),
    scaled by its coefficients and summed a block at a time; one mix to IF, then noise."""
    if not cfg.sources:
        raise ValueError("config lists no sources")
    d_min_s = earliest_delay_s(channels, [sid for _, sid in cfg.sources])
    total = np.zeros(cfg.n_samples, dtype=np.complex128)
    ends = np.array([0, len(total) - 1]) / cfg.f_s_hz
    paths = []  # once per path: snapshot axis, IF-delay phase, NCO anchored on both ends
    for prn_id, sid in sorted(cfg.sources, key=lambda s: s[1]):  # fixed order
        code = prn.generate_ca_code(prn_id, chipping_rate_hz=cfg.r_c_hz)
        for path in channels.source(sid).paths:
            t_snap = _time_axes(path, channels.update_rate_hz, cfg.f_s_hz, len(total))
            delay = _interp(ends, t_snap, path.delays_s) - d_min_s
            # e^{-j2 pi f_IF tau[0]}, the old IF-domain delay's constant phase, is kept
            # only because criteria 3/4 pass on one frozen noise draw (ROADMAP item 1)
            rotation = np.exp(-2j * np.pi * cfg.f_if_hz * delay[0])
            paths.append((path, t_snap, rotation, _code_nco(code, cfg, ends, delay)))
    for start in range(0, len(total), BLOCK_SAMPLES):
        stop = min(start + BLOCK_SAMPLES, len(total))
        t = np.arange(start, stop) / cfg.f_s_hz
        for path, t_snap, rotation, nco in paths:
            weighted = _interp(t, t_snap, path.coefficients) * rotation
            weighted *= nco(t, _interp(t, t_snap, path.delays_s) - d_min_s)
            total[start:stop] += weighted
        block = total[start:stop]  # mixed out of place: numpy rounds a one-sample *= differently
        block[:] = block * _phasor(cfg.f_if_hz / cfg.f_s_hz, stop - start, 0.0, start)
    _add_noise(total, cfg.noise_power_dbw, cfg.noise_seed)
    return SignalBuffer(total, cfg.f_s_hz, if_offset_hz=cfg.f_if_hz)
