"""5G NR positioning reference signal: resource grids and OFDM modulation.

Covers carrier numerology (15 kHz SCS, normal cyclic prefix), PRS sequence
generation and comb mapping per the public TS 38.211 rules, filler QPSK on
the remaining cells, and the OFDM modulator/demodulator pair.

The modem reads the slot layout (TS 38.211 5.3.1) from one table per carrier,
_slot_table: each slot sample's index into the slot's 14 stacked IFFT bodies,
and each body sample's position in the slot.  A slot is one (14, n_fft) IFFT
and a gather; demodulation is the inverse gather and one FFT; the CP check
pairs each prefix sample with the body sample it copies.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, _render_source, earliest_delay_s
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


def _slot_table(carrier: CarrierConfig) -> tuple[np.ndarray, np.ndarray]:
    """(source, position): source[i] is slot sample i's index into the slot's
    stacked IFFT bodies, flattened (a prefix sample indexes its symbol's tail);
    position[l, m] is the slot sample that carries sample m of body l."""
    n_fft = carrier.n_fft
    cp = np.array([carrier.cp_length(l) for l in range(SYMBOLS_PER_SLOT)])
    body_start = np.cumsum(cp + n_fft) - n_fft
    symbol = np.repeat(np.arange(SYMBOLS_PER_SLOT), cp + n_fft)
    source = symbol * n_fft + (np.arange(len(symbol)) - body_start[symbol]) % n_fft
    position = body_start[:, None] + np.arange(n_fft)
    return source, position


def ofdm_modulate(grids, carrier: CarrierConfig) -> SignalBuffer:
    """OFDM-modulate a sequence of slot grids at f_s = n_fft * scs."""
    source, _ = _slot_table(carrier)
    n_sc = carrier.n_subcarriers
    bins = (np.arange(n_sc) - n_sc // 2) % carrier.n_fft  # subcarriers centered on DC
    out = np.empty((len(grids), len(source)), dtype=np.complex128)
    frames = np.zeros((SYMBOLS_PER_SLOT, carrier.n_fft), dtype=np.complex128)
    for slot, grid in zip(out, grids):
        if grid.cells.shape != (n_sc, SYMBOLS_PER_SLOT):
            raise ValueError("grid shape does not match the carrier config")
        frames[:, bins] = grid.cells.T
        slot[:] = (np.fft.ifft(frames) * carrier.n_fft).ravel()[source]
    return SignalBuffer(out.ravel(), carrier.sample_rate_hz)


def cp_alignment_metric(samples: np.ndarray, carrier: CarrierConfig) -> float:
    """Mean normalized correlation between each cyclic prefix and the symbol
    tail it copies, over the symbols that lie whole in the buffer."""
    source, position = _slot_table(carrier)
    sps = len(source)
    copied = position.ravel()[source]  # the body sample each slot sample repeats
    cp = np.flatnonzero(copied != np.arange(sps))  # the slot's prefix samples
    at = sps * np.arange(-(-len(samples) // sps))[:, None]  # each slot's first sample
    # the last body sample of each prefix sample's symbol: whole symbols count
    last = (at + position[source[cp] // carrier.n_fft, -1]).ravel()
    whole = last < len(samples)
    head = samples[(at + cp).ravel()[whole]]
    tail = samples[(at + copied[cp]).ravel()[whole]]
    starts = np.flatnonzero(np.diff(last[whole], prepend=-1))  # each symbol's first
    dot = np.abs(np.add.reduceat(np.conj(head) * tail, starts))
    denom = (np.sqrt(np.add.reduceat(np.abs(head) ** 2, starts))
             * np.sqrt(np.add.reduceat(np.abs(tail) ** 2, starts)))
    live = denom > 0
    return float(np.mean(dot[live] / denom[live])) if live.any() else 0.0


def ofdm_demodulate(buf: SignalBuffer, carrier: CarrierConfig) -> list[ResourceGrid]:
    """Inverse of ofdm_modulate; the buffer must hold a whole number of slots."""
    sps = carrier.samples_per_slot
    if len(buf) % sps:
        raise ValueError("buffer length is not an integer number of slots")
    metric = cp_alignment_metric(buf.samples, carrier)
    if metric < 0.5 and np.any(buf.samples):
        warnings.warn(f"cyclic prefix correlation is low ({metric:.2f}); "
                      "input may be misaligned")
    _, position = _slot_table(carrier)
    n_sc = carrier.n_subcarriers
    bins = (np.arange(n_sc) - n_sc // 2) % carrier.n_fft
    return [ResourceGrid((np.fft.fft(slot[position]) / carrier.n_fft)[:, bins].T)
            for slot in buf.samples.reshape(-1, sps)]


def gnb_clean_waveform(carrier: CarrierConfig, prs_cfg: PrsResourceConfig,
                       n_slots: int, seed: int,
                       with_pdsch: bool = True) -> SignalBuffer:
    """Basic (pre-channel) gNB waveform: PRS plus optional filler, modulated."""
    grids = []
    for s in range(n_slots):
        grid = generate_prs_symbols(carrier, prs_cfg, s)
        if with_pdsch:  # the filler is 0 on the PRS cells, so this adds no rounding
            grid.cells += generate_pdsch_filler(carrier, seed, s, grid).cells
        grids.append(grid)
    return ofdm_modulate(grids, carrier)


def synthesize_gnb(carrier: CarrierConfig, prs_configs: dict[str, PrsResourceConfig],
                   channels: ChannelSet, duration_s: float, seed: int,
                   with_pdsch: bool = True,
                   noise_power_dbw: float = -np.inf,
                   noise_seed: int = 1) -> SignalBuffer:
    """Modulate each gNB, apply its channel paths, and sum across gNBs, one gNB at a time."""
    if not prs_configs:
        raise ValueError("no gNB sources configured")
    n_slots = round(duration_s / carrier.slot_duration_s)
    if n_slots < 1:
        raise ValueError("duration shorter than one slot")
    d_min_s = earliest_delay_s(channels, prs_configs)
    total = np.zeros(n_slots * carrier.samples_per_slot, dtype=np.complex128)
    for sid in sorted(prs_configs):  # fixed order for bit-reproducibility
        clean = gnb_clean_waveform(carrier, prs_configs[sid], n_slots, seed, with_pdsch)
        _render_source(total, clean.samples, channels, sid, carrier.sample_rate_hz, d_min_s)
    _add_noise(total, noise_power_dbw, noise_seed)
    return SignalBuffer(total, carrier.sample_rate_hz)
