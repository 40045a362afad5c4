"""5G NR positioning reference signal: resource grids and OFDM modulation.

Covers carrier numerology (15 kHz SCS, normal cyclic prefix), PRS sequence
generation and comb mapping per the public TS 38.211 rules, filler QPSK on
the remaining cells, and the OFDM modulator/demodulator pair.

The modem reads the slot layout (TS 38.211 5.3.1) from one table per carrier,
_slot_table: each slot sample's index into the slot's 14 stacked IFFT bodies,
and each body sample's position in the slot.  A slot with cells is one (14,
n_fft) IFFT and a gather; demodulation is the inverse gather and one FFT.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, _interp, _time_axes, earliest_delay_s
from .dsp import SignalBuffer, _add_noise, _check_draws

_PRBS_ADVANCE = 1600
# normal cyclic prefix, the only one supported: 14 OFDM symbols per slot
SYMBOLS_PER_SLOT = 14
# QPSK symbol of the bit pair (b0, b1) at index 2 * b0 + b1 (TS 38.211 5.1.3)
_QPSK = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

# Per-symbol subcarrier offsets of the PRS comb, indexed by symbol within the
# resource modulo 12 (TS 38.211 table 7.4.1.7.2-1).
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

    @property
    def slots_per_frame(self) -> int:
        # a 10 ms frame holds 10·2^μ slots, SCS = 15·2^μ kHz (TS 38.211 4.3.2)
        return round(10 * self.scs_hz / 15e3)


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
            if not self.muting_pattern or not all(m in (0, 1) for m in self.muting_pattern):
                raise ValueError("muting_pattern entries must be 0 or 1, and one or more")
        if self.comb_size not in _COMB_OFFSETS:
            raise ValueError("comb_size must be one of 2, 4, 6, 12")
        if not 0 <= self.comb_offset < self.comb_size:
            raise ValueError("comb_offset must be less than comb_size")
        if not 0 <= self.symbol_start <= SYMBOLS_PER_SLOT - self.num_symbols:
            raise ValueError("symbol_start must be in 0..14 - num_symbols")
        if self.num_symbols < 1:
            raise ValueError("num_symbols must be at least 1")
        if not 0 <= self.resource_offset_slots < self.resource_set_period_slots:
            raise ValueError("resource_offset_slots must be below the set period")
        if self.resource_repetition < 1 or self.resource_time_gap_slots < 1:
            raise ValueError("resource_repetition and resource_time_gap_slots must be at least 1")
        if ((self.resource_repetition - 1) * self.resource_time_gap_slots
                >= self.resource_set_period_slots):
            raise ValueError("resource_repetition's last slot falls past the set period")
        if not 0 <= self.n_prs_id <= 4095:
            raise ValueError("n_prs_id must be in 0..4095")
        if self.n_rb_prs < 1:
            raise ValueError("n_rb_prs must be at least 1")


@dataclass
class ResourceGrid:
    """Subcarrier x OFDM-symbol matrix of modulation symbols; 0 is an empty cell."""

    cells: np.ndarray

    @classmethod
    def empty(cls, carrier: CarrierConfig) -> "ResourceGrid":
        return cls(np.zeros((carrier.n_subcarriers, SYMBOLS_PER_SLOT), dtype=np.complex128))


@functools.lru_cache(maxsize=8)
def _gold_table(length: int) -> np.ndarray:
    """Bits n = 1600 .. 1600 + length - 1 of x1 (row 0) and of the x2 seeded by c_init bit i
    alone (row 1 + i).  x2 is linear in its seed over GF(2), so c = x1 ^ x2 is row 0 XOR the
    rows of c_init's set bits (TS 38.211 5.2.1)."""
    n = _PRBS_ADVANCE + length
    x = np.zeros((32, n + 28), dtype=np.int8)
    x[0, 0] = 1
    x[1:, :31] = np.eye(31, dtype=np.int8)
    for i in range(0, n - 31, 28):  # 28 bits a step: bit m + 31 needs bits up to m + 3
        new = x[:, i + 3:i + 31] ^ x[:, i:i + 28]
        new[1:] ^= x[1:, i + 2:i + 30] ^ x[1:, i + 1:i + 29]
        x[:, i + 31:i + 59] = new
    table = x[:, _PRBS_ADVANCE:n]
    table.flags.writeable = False
    return table  # cached, so shared by every caller


def _prbs(c_init: int, length: int) -> np.ndarray:
    """Length-31 Gold PRBS c(n) with the standard 1600-step advance."""
    rows = np.append(1, (c_init >> np.arange(31)) & 1).astype(bool)
    return np.bitwise_xor.reduce(_gold_table(length)[rows])


def _prs_c_init(n_prs_id: int, slot: int, symbol: int) -> int:
    high, low = divmod(n_prs_id, 1024)
    return (2 ** 22 * high + 2 ** 10 * (SYMBOLS_PER_SLOT * slot + symbol + 1) * (2 * low + 1)
            + low) % 2 ** 31


def is_prs_slot(prs: PrsResourceConfig, slot_index: int) -> bool:
    """True if the slot carries the (unmuted) PRS resource."""
    rel = slot_index - prs.resource_offset_slots
    pos, gap = rel % prs.resource_set_period_slots, prs.resource_time_gap_slots
    muting = prs.muting_pattern or (1,)
    return (rel >= 0 and pos % gap == 0 and pos // gap < prs.resource_repetition
            and muting[rel // prs.resource_set_period_slots % len(muting)] == 1)


def generate_prs_symbols(carrier: CarrierConfig, prs: PrsResourceConfig,
                         slot_index: int) -> ResourceGrid:
    """PRS QPSK symbols mapped onto the comb pattern for one slot of the scene: its period,
    offset and muting count scene slots, its scrambling the slot within the frame."""
    if slot_index < 0:
        raise ValueError("slot_index must be non-negative")
    if prs.n_rb_prs > carrier.n_rb:
        raise ValueError("n_rb_prs exceeds the carrier bandwidth")
    grid = ResourceGrid.empty(carrier)
    if not is_prs_slot(prs, slot_index):
        return grid
    n_sc_prs, comb = 12 * prs.n_rb_prs, prs.comb_size
    slot_in_frame = slot_index % carrier.slots_per_frame  # c_init's slot (TS 38.211 7.4.1.7)
    for j in range(prs.num_symbols):
        l = prs.symbol_start + j
        c = _prbs(_prs_c_init(prs.n_prs_id, slot_in_frame, l), 2 * n_sc_prs // comb)
        first = (prs.comb_offset + _COMB_OFFSETS[comb][j % 12]) % comb
        grid.cells[first:n_sc_prs:comb, l] = _QPSK[2 * c[0::2] + c[1::2]]
    return grid


def generate_pdsch_filler(seed: int, slot_index: int, prs_grid: ResourceGrid) -> ResourceGrid:
    """Seeded random QPSK written into every cell the PRS grid leaves 0, as PRS QPSK never is
    (payload filler only); returns that grid."""
    rng = np.random.default_rng((seed, slot_index))
    free = prs_grid.cells == 0
    bits = rng.integers(0, 2, (int(free.sum()), 2))
    prs_grid.cells[free] = _QPSK[2 * bits[:, 0] + bits[:, 1]]
    return prs_grid


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


def _bodies(frames, cells, carrier: CarrierConfig, ramp=None) -> np.ndarray:
    """A slot's 14 IFFT bodies times n_fft: cells (14, n_sc), times any ramp, on DC; 0 elsewhere."""
    half = cells.shape[1] // 2
    for cut, bins in (np.s_[:half], np.s_[-half:]), (np.s_[half:], np.s_[:cells.shape[1] - half]):
        if ramp is None:
            frames[..., bins] = cells[:, cut]
        else:
            np.multiply(cells[:, cut], ramp[..., cut], out=frames[..., bins])
    return np.fft.ifft(frames) * carrier.n_fft


def ofdm_modulate(grids, carrier: CarrierConfig) -> SignalBuffer:
    """OFDM-modulate a sequence of slot grids at f_s = n_fft * scs.  A slot of +0 cells stays +0,
    with no IFFT, where the IFFT of zeros is +0 (not at n_fft 89, 101, ...: it holds -0)."""
    source, n_sc = _slot_table(carrier)[0], carrier.n_subcarriers
    out = np.zeros((len(grids), len(source)), dtype=np.complex128)
    frames = np.zeros((SYMBOLS_PER_SLOT, carrier.n_fft), dtype=np.complex128)
    zeros_stay = not np.signbit(np.fft.ifft(frames).view(np.float64)).any()
    for slot, grid in zip(out, grids):
        if grid.cells.shape != (n_sc, SYMBOLS_PER_SLOT):
            raise ValueError("grid shape does not match the carrier config")
        cells = grid.cells.astype(np.complex128, copy=False)
        if zeros_stay and not cells.view((np.uint64, 2)).any():  # each cell +0, bit for bit
            continue
        slot[:] = _bodies(frames, cells.T, carrier).ravel()[source]
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
    return generate_pdsch_filler(seed, slot, grid) if with_pdsch else grid


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
    _check_draws(noise_power_dbw, seed=seed, noise_seed=noise_seed)
    slot_s = carrier.slot_duration_s
    if not np.isfinite(duration_s) or (n_slots := round(duration_s / slot_s)) < 1:
        raise ValueError("duration_s shorter than one slot, or not finite")
    if abs(duration_s / slot_s - n_slots) > 1e-9 * n_slots:  # 0.043 s is 42.99999999999999
        raise ValueError(f"duration_s {duration_s:g} s must be whole slots of {slot_s:.9g} s")
    d_min_s = earliest_delay_s(channels, prs_configs)
    f_s, n_fft, n_sc = carrier.sample_rate_hz, carrier.n_fft, carrier.n_subcarriers
    n_sym, total = SYMBOLS_PER_SLOT, np.zeros(n_slots * carrier.samples_per_slot, np.complex128)
    start = _slot_table(carrier)[2]  # S_l of every symbol in the scene, then the scene's end
    sym_start = np.append(start[-1] * np.arange(n_slots)[:, None] + start[:-1], len(total))
    k, sps = np.arange(n_sc) - n_sc // 2, carrier.samples_per_slot  # signed subcarrier index
    for sid in sorted(prs_configs):  # fixed order for bit-reproducibility
        paths = channels.source(sid).paths
        t_snaps = [_time_axes(p, channels.update_rate_hz, f_s, len(total)) for p in paths]
        tau = (np.array([_interp(sym_start / f_s, t, p.delays_s) for p, t in zip(paths, t_snaps)])
               - d_min_s) * f_s  # (paths, symbols + 1), the last at the scene's end
        whole = np.ceil(tau).astype(np.int64)
        if (bad := np.flatnonzero(np.diff(sym_start + whole).min(axis=1) < 0)).size:
            raise ValueError(f"source {sid} path {bad[0]}: delay falls by more than a symbol")
        frac, frames = tau - whole, np.zeros((len(paths), n_sym, n_fft), dtype=np.complex128)
        for s in range(n_slots):
            a, b = n_sym * s, n_sym * (s + 1)
            f = -2j * np.pi / n_fft * frac[:, a:b, None]  # every path's ramp: two outer products
            ramp = np.exp(f * k[::32])[..., None] * np.exp(f * np.arange(32))[:, :, None]
            cells = _slot_grid(carrier, prs_configs[sid], s, seed, with_pdsch).cells.T
            bodies = _bodies(frames, cells, carrier, ramp.reshape(*f.shape[:2], -1)[..., :n_sc])
            for path, t_snap, body, w in zip(paths, t_snaps, bodies, whole[:, a:b + 1].tolist()):
                # lo >= 0: tau starts at D - D_min >= 0, and S_l + w_l never falls
                lo, hi = sps * s + w[0], min(sps * (s + 1) + w[-1], len(total))
                if lo >= hi:
                    continue  # delayed past the scene's end
                src = _slot_table(carrier, tuple(i - w[0] for i in w))[0]
                coeff = _interp(np.arange(lo, hi) / f_s, t_snap, path.coefficients)
                coeff *= body.ravel()[src[:hi - lo]]
                total[lo:hi] += coeff
    _add_noise(total, noise_power_dbw, noise_seed)
    return SignalBuffer(total, f_s)
