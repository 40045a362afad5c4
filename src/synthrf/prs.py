"""5G NR positioning reference signal: resource grids and OFDM modulation.

Covers carrier numerology (15 kHz SCS, normal cyclic prefix), PRS sequence
generation and comb mapping per the public TS 38.211 rules, filler QPSK on
the remaining cells, and the OFDM modulator/demodulator pair.

The modem reads the slot layout (TS 38.211 5.3.1) from one table per carrier,
_slot_table: each slot sample's index into the slot's 14 stacked IFFT bodies,
and each body sample's position in the slot.  A slot is one (14, n_fft) IFFT
and a gather; demodulation is the inverse gather and one FFT.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, _interp, _time_axes, earliest_delay_s
from .dsp import SignalBuffer, _add_noise

_PRBS_ADVANCE = 1600
# normal cyclic prefix, the only one supported: 14 OFDM symbols per slot
SYMBOLS_PER_SLOT = 14

# Per-symbol subcarrier offsets of the PRS comb, indexed by symbol within the
# resource (TS 38.211 table 7.4.1.7.2-1).
_COMB_OFFSETS = {
    2: (0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1),
    4: (0, 2, 1, 3, 0, 2, 1, 3, 0, 2, 1, 3),
    6: (0, 3, 1, 4, 2, 5, 0, 3, 1, 4, 2, 5),
    12: (0, 6, 3, 9, 1, 7, 4, 10, 2, 8, 5, 11),
}


@dataclass(frozen=True)
class CarrierConfig:
    n_cell_id: int = 0
    scs_hz: float = 15e3
    n_rb: int = 52
    n_fft: int = 1024

    def __post_init__(self):
        if not 0 <= self.n_cell_id <= 1007:
            raise ValueError("n_cell_id must be in 0..1007")
        if self.scs_hz <= 0:
            raise ValueError("scs_hz must be positive")
        if self.scs_hz != 15e3:  # cp_length's long prefixes are 15 kHz's (TS 38.211 5.3.1)
            raise ValueError(f"scs_hz must be 15e3 (15 kHz), got {self.scs_hz:g}")
        if self.n_rb < 1:
            raise ValueError("n_rb must be at least 1")
        if self.n_fft < 12 * self.n_rb:
            raise ValueError("n_fft must be at least 12*n_rb")
        if self.cp_length(1) < 1:  # the modem would drop the short prefix silently
            raise ValueError(f"n_fft={self.n_fft} gives a 0-sample cyclic prefix; use 15 or more")

    @property
    def n_subcarriers(self) -> int:
        return 12 * self.n_rb

    @property
    def sample_rate_hz(self) -> float:
        # f_s = N_fft * SCS
        return self.n_fft * self.scs_hz

    def cp_length(self, symbol: int) -> int:
        # normal CP at 15 kHz: symbols 0 and 7 of a slot carry the long prefix
        base = 144 * self.n_fft // 2048
        long = 160 * self.n_fft // 2048
        return long if symbol in (0, SYMBOLS_PER_SLOT // 2) else base

    @property
    def samples_per_slot(self) -> int:
        return sum(self.n_fft + self.cp_length(l)
                   for l in range(SYMBOLS_PER_SLOT))

    @property
    def slot_duration_s(self) -> float:
        return self.samples_per_slot / self.sample_rate_hz


@dataclass(frozen=True)
class PrsResourceConfig:
    resource_set_period_slots: int = 10
    resource_offset_slots: int = 0
    resource_repetition: int = 1
    resource_time_gap_slots: int = 1
    muting_pattern: tuple[int, ...] | None = None
    comb_size: int = 2
    comb_offset: int = 0
    num_symbols: int = 2
    symbol_start: int = 0
    n_prs_id: int = 0
    n_rb_prs: int = 52

    def __post_init__(self):
        if self.muting_pattern is not None:
            object.__setattr__(self, "muting_pattern", tuple(self.muting_pattern))
        if self.comb_size not in _COMB_OFFSETS:
            raise ValueError("comb_size must be one of 2, 4, 6, 12")
        if not 0 <= self.comb_offset < self.comb_size:
            raise ValueError("comb_offset must be less than comb_size")
        if self.symbol_start + self.num_symbols > SYMBOLS_PER_SLOT:
            raise ValueError("symbol_start + num_symbols must not exceed 14")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be at least 1")
        if not 0 <= self.resource_offset_slots < self.resource_set_period_slots:
            raise ValueError("resource_offset_slots must be below the set period")
        if self.resource_repetition < 1 or self.resource_time_gap_slots < 1:
            raise ValueError("repetition and time gap must be at least 1")
        if not 0 <= self.n_prs_id <= 4095:
            raise ValueError("n_prs_id must be in 0..4095")


@dataclass
class ResourceGrid:
    """Subcarrier x OFDM-symbol matrix of modulation symbols; 0 is an empty cell."""

    cells: np.ndarray

    @classmethod
    def empty(cls, carrier: CarrierConfig) -> "ResourceGrid":
        return cls(np.zeros((carrier.n_subcarriers, SYMBOLS_PER_SLOT), dtype=np.complex128))


def _prbs(c_init: int, length: int) -> np.ndarray:
    """Length-31 Gold PRBS c(n) with the standard 1600-step advance."""
    total = length + _PRBS_ADVANCE + 31
    x1 = np.zeros(total, dtype=np.int8)
    x2 = np.zeros(total, dtype=np.int8)
    x1[0] = 1
    for i in range(31):
        x2[i] = (c_init >> i) & 1
    i = 0
    while i + 31 < total:
        blk = min(28, total - 31 - i)
        x1[i + 31:i + 31 + blk] = x1[i + 3:i + 3 + blk] ^ x1[i:i + blk]
        x2[i + 31:i + 31 + blk] = (x2[i + 3:i + 3 + blk] ^ x2[i + 2:i + 2 + blk]
                                   ^ x2[i + 1:i + 1 + blk] ^ x2[i:i + blk])
        i += blk
    return x1[_PRBS_ADVANCE:_PRBS_ADVANCE + length] ^ x2[_PRBS_ADVANCE:_PRBS_ADVANCE + length]


def _qpsk_from_prbs(c_init: int, n_symbols: int) -> np.ndarray:
    c = _prbs(c_init, 2 * n_symbols).astype(np.float64)
    return ((1.0 - 2.0 * c[0::2]) + 1j * (1.0 - 2.0 * c[1::2])) / np.sqrt(2.0)


def _prs_c_init(n_prs_id: int, slot: int, symbol: int, symbols_per_slot: int) -> int:
    n_id = n_prs_id
    return ((2 ** 22 * (n_id // 1024)
             + 2 ** 10 * (symbols_per_slot * slot + symbol + 1) * (2 * (n_id % 1024) + 1)
             + (n_id % 1024)) % 2 ** 31)


def is_prs_slot(prs: PrsResourceConfig, slot_index: int) -> bool:
    """True if the slot carries the (unmuted) PRS resource."""
    rel = slot_index - prs.resource_offset_slots
    if rel < 0:
        return False
    pos = rel % prs.resource_set_period_slots
    active = any(pos == i * prs.resource_time_gap_slots
                 for i in range(prs.resource_repetition))
    if not active:
        return False
    if prs.muting_pattern:
        instance = (rel // prs.resource_set_period_slots) % len(prs.muting_pattern)
        if not prs.muting_pattern[instance]:
            return False
    return True


def generate_prs_symbols(carrier: CarrierConfig, prs: PrsResourceConfig,
                         slot_index: int) -> ResourceGrid:
    """PRS QPSK symbols mapped onto the comb pattern for one slot."""
    if slot_index < 0:
        raise ValueError("slot_index must be non-negative")
    if prs.n_rb_prs > carrier.n_rb:
        raise ValueError("n_rb_prs exceeds the carrier bandwidth")
    grid = ResourceGrid.empty(carrier)
    if not is_prs_slot(prs, slot_index):
        return grid
    n_sc_prs = 12 * prs.n_rb_prs
    per_symbol = n_sc_prs // prs.comb_size
    offsets = _COMB_OFFSETS[prs.comb_size]
    for j in range(prs.num_symbols):
        l = prs.symbol_start + j
        c_init = _prs_c_init(prs.n_prs_id, slot_index, l, SYMBOLS_PER_SLOT)
        symbols = _qpsk_from_prbs(c_init, per_symbol)
        k = (np.arange(per_symbol) * prs.comb_size
             + (prs.comb_offset + offsets[j % len(offsets)]) % prs.comb_size)
        grid.cells[k, l] = symbols
    return grid


def generate_pdsch_filler(carrier: CarrierConfig, seed: int, slot_index: int,
                          prs_grid: ResourceGrid | None = None) -> ResourceGrid:
    """Seeded random QPSK on every cell the PRS grid leaves 0, as PRS QPSK never is
    (payload filler only)."""
    grid = ResourceGrid.empty(carrier)
    rng = np.random.default_rng((seed, slot_index))
    free = (grid if prs_grid is None else prs_grid).cells == 0
    n = int(free.sum())
    bits = rng.integers(0, 2, (n, 2)).astype(np.float64)
    grid.cells[free] = ((1.0 - 2.0 * bits[:, 0]) + 1j * (1.0 - 2.0 * bits[:, 1])) / np.sqrt(2.0)
    return grid


@functools.lru_cache(maxsize=16)
def _slot_table(carrier: CarrierConfig, shift=(0,) * (SYMBOLS_PER_SLOT + 1)):
    """(source, position, start): source[i] is slot sample i's index into the stacked IFFT
    bodies, flattened (a prefix sample indexes its symbol's tail); body l's sample m is slot
    sample position[l, m]; symbol l starts at start[l] (start[14]: the next slot).  Symbol l
    is delayed by shift[l] whole samples more than symbol 0 (shift[14]: the next slot's)."""
    n_fft = carrier.n_fft
    cp = np.array([carrier.cp_length(l) for l in range(SYMBOLS_PER_SLOT)])
    start = np.append(0, np.cumsum(cp + n_fft))
    edges = start + shift
    symbol = np.repeat(np.arange(SYMBOLS_PER_SLOT), np.diff(edges))
    source = symbol * n_fft + (np.arange(edges[-1]) - edges[symbol] - cp[symbol]) % n_fft
    position = (start[:-1] + cp)[:, None] + np.arange(n_fft)
    source.flags.writeable = position.flags.writeable = start.flags.writeable = False
    return source, position, start  # cached, so shared by every caller


def _bodies(frames: np.ndarray, cells: np.ndarray, carrier: CarrierConfig) -> np.ndarray:
    """A slot's 14 IFFT bodies times n_fft: cells (14, n_sc) centred on DC, 0 elsewhere."""
    frames[:, (np.arange(cells.shape[1]) - cells.shape[1] // 2) % carrier.n_fft] = cells
    return np.fft.ifft(frames) * carrier.n_fft


def ofdm_modulate(grids, carrier: CarrierConfig) -> SignalBuffer:
    """OFDM-modulate a sequence of slot grids at f_s = n_fft * scs."""
    source, n_sc = _slot_table(carrier)[0], carrier.n_subcarriers
    out = np.empty((len(grids), len(source)), dtype=np.complex128)
    frames = np.zeros((SYMBOLS_PER_SLOT, carrier.n_fft), dtype=np.complex128)
    for slot, grid in zip(out, grids):
        if grid.cells.shape != (n_sc, SYMBOLS_PER_SLOT):
            raise ValueError("grid shape does not match the carrier config")
        slot[:] = _bodies(frames, grid.cells.T, carrier).ravel()[source]
    return SignalBuffer(out.ravel(), carrier.sample_rate_hz)


def ofdm_demodulate(buf: SignalBuffer, carrier: CarrierConfig) -> list[ResourceGrid]:
    """Inverse of ofdm_modulate; the buffer must hold a whole number of slots."""
    sps = carrier.samples_per_slot
    if len(buf) % sps:
        raise ValueError("buffer length is not an integer number of slots")
    position, n_sc = _slot_table(carrier)[1], carrier.n_subcarriers
    bins = (np.arange(n_sc) - n_sc // 2) % carrier.n_fft
    return [ResourceGrid((np.fft.fft(slot[position]) / carrier.n_fft)[:, bins].T)
            for slot in buf.samples.reshape(-1, sps)]


def _slot_grid(carrier: CarrierConfig, prs_cfg: PrsResourceConfig, slot, seed, with_pdsch):
    grid = generate_prs_symbols(carrier, prs_cfg, slot)
    if with_pdsch:  # the filler is 0 on the PRS cells, so this adds no rounding
        grid.cells += generate_pdsch_filler(carrier, seed, slot, grid).cells
    return grid


def gnb_clean_waveform(carrier: CarrierConfig, prs_cfg: PrsResourceConfig,
                       n_slots: int, seed: int,
                       with_pdsch: bool = True) -> SignalBuffer:
    """Basic (pre-channel) gNB waveform: PRS plus optional filler, modulated."""
    return ofdm_modulate([_slot_grid(carrier, prs_cfg, s, seed, with_pdsch)
                          for s in range(n_slots)], carrier)


def synthesize_gnb(carrier: CarrierConfig, prs_configs: dict[str, PrsResourceConfig],
                   channels: ChannelSet, duration_s: float, seed: int,
                   with_pdsch: bool = True,
                   noise_power_dbw: float = -np.inf,
                   noise_seed: int = 1) -> SignalBuffer:
    """Each gNB path at t - tau(t), a slot at a time (TS 38.211 5.3.1): symbol l's delay tau_l
    (D - D_min at its first sample S_l, in samples) turns subcarrier k by e^{-j2pi k f_l / n_fft},
    f_l = tau_l - ceil(tau_l), and fills [S_l, S_l+1) + ceil(tau); then H per sample, noise."""
    if not prs_configs:
        raise ValueError("no gNB sources configured")
    n_slots = round(duration_s / carrier.slot_duration_s)
    if n_slots < 1:
        raise ValueError("duration shorter than one slot")
    d_min_s = earliest_delay_s(channels, prs_configs)
    f_s, n_fft, n_sc = carrier.sample_rate_hz, carrier.n_fft, carrier.n_subcarriers
    n_sym, total = SYMBOLS_PER_SLOT, np.zeros(n_slots * carrier.samples_per_slot, np.complex128)
    start = _slot_table(carrier)[2]  # S_l of every symbol in the scene, then the scene's end
    sym_start = np.append(start[-1] * np.arange(n_slots)[:, None] + start[:-1], len(total))
    k = np.arange(n_sc) - n_sc // 2  # signed subcarrier index
    frames = np.zeros((n_sym, n_fft), dtype=np.complex128)
    for sid in sorted(prs_configs):  # fixed order for bit-reproducibility
        paths = channels.source(sid).paths
        t_snaps = [_time_axes(p, channels.update_rate_hz, f_s, len(total)) for p in paths]
        tau = (np.array([_interp(sym_start / f_s, t, p.delays_s) for p, t in zip(paths, t_snaps)])
               - d_min_s) * f_s  # (paths, symbols + 1), the last at the scene's end
        whole = np.ceil(tau).astype(np.int64)
        if (bad := np.flatnonzero(np.diff(sym_start + whole).min(axis=1) < 0)).size:
            raise ValueError(f"source {sid} path {bad[0]}: delay falls by more than a symbol")
        for s in range(n_slots):
            cells = _slot_grid(carrier, prs_configs[sid], s, seed, with_pdsch).cells.T
            a, b = n_sym * s, n_sym * (s + 1)
            for path, t_snap, w, frac in zip(paths, t_snaps, whole, tau - whole):
                first = sym_start[a] + w[a]
                lo, hi = np.clip([first, sym_start[b] + w[b]], 0, len(total))
                if lo == hi:
                    continue  # delayed past the scene's end
                f = -2j * np.pi / n_fft * frac[a:b, None]  # the ramp: two short outer products
                ramp = (np.exp(f * k[::32])[:, :, None] * np.exp(f * np.arange(32))[:, None])
                bodies = _bodies(frames, cells * ramp.reshape(n_sym, -1)[:, :n_sc], carrier)
                src = _slot_table(carrier, tuple(w[a:b + 1] - w[a]))[0]
                coeff = _interp(np.arange(lo, hi) / f_s, t_snap, path.coefficients)
                coeff *= bodies.ravel()[src[lo - first:hi - first]]
                total[lo:hi] += coeff
    _add_noise(total, noise_power_dbw, noise_seed)
    return SignalBuffer(total, f_s)
