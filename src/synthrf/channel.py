"""Channel/delay coefficient model, synthetic generator, file I/O, and Doppler spectrum.

Coefficients follow the external channel-generator convention: per source,
per path, a complex gain series H[k, t] and a delay series D[k, t] sampled at
the channel update rate f_ch.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import BLOCK_SAMPLES, SignalBuffer, _delay_into

CHANNEL_FILE_MAGIC = "SYNTHRF-CHAN v1"
SOURCE_KINDS = ("satellite", "haps", "gnb")
DEFAULT_OSCILLATORS = 64


class ChannelFormatError(ValueError):
    """Malformed or inconsistent channel file."""


@dataclass(frozen=True)
class PathSeries:
    """Complex coefficient and delay series for one propagation path."""

    coefficients: np.ndarray
    delays_s: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=np.complex128)
        delays = np.asarray(self.delays_s, dtype=np.float64)
        object.__setattr__(self, "coefficients", coeff)
        object.__setattr__(self, "delays_s", delays)
        if coeff.shape != delays.shape or coeff.ndim != 1 or not coeff.size:
            raise ValueError("coefficients and delays_s must be 1-D, non-empty and equal length")
        if not np.all(np.isfinite(coeff)):
            raise ValueError("channel coefficients must be finite")
        if not np.all(np.isfinite(delays)) or np.any(delays < 0):
            raise ValueError("delays must be finite and non-negative")

    @property
    def n_snapshots(self) -> int:
        return len(self.coefficients)


@dataclass(frozen=True)
class SourceChannel:
    source_id: str
    source_kind: str
    los: bool
    paths: tuple[PathSeries, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))
        if not self.source_id.isascii() or self.source_id.split() != [self.source_id]:
            raise ValueError(f"source id {self.source_id!r} must be non-empty ASCII, no whitespace")
        if self.source_kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {self.source_kind!r}")
        if not self.paths:
            raise ValueError("source must have at least one path")
        counts = {p.n_snapshots for p in self.paths}
        if len(counts) != 1:
            raise ValueError("all paths of a source must share the snapshot count")
        first = self.paths[0].delays_s[0]
        if any(p.delays_s[0] < first for p in self.paths[1:]):
            raise ValueError("path 0 must be the first-arriving path at snapshot 0")

    @property
    def n_snapshots(self) -> int:
        return self.paths[0].n_snapshots


@dataclass(frozen=True)
class ChannelSet:
    sources: tuple[SourceChannel, ...]
    update_rate_hz: float

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if not 0 < self.update_rate_hz < math.inf:
            raise ValueError("update_rate_hz must be positive and finite")
        if len({src.n_snapshots for src in self.sources}) > 1:
            raise ValueError("all sources must share one snapshot count")

    def source(self, source_id: str) -> SourceChannel:
        for src in self.sources:
            if src.source_id == source_id:
                return src
        raise KeyError(f"no source {source_id!r} in channel set")

    @property
    def source_ids(self) -> list[str]:
        return [s.source_id for s in self.sources]


# ---------------------------------------------------------------------------
# Synthetic channel generation

@dataclass(frozen=True)
class PathSpec:
    """Per-path generator parameters.

    ``rician_k`` is the linear Ricean K factor for a LOS path 0 (inf means a
    pure unfaded LOS component).  ``fading_doppler_hz`` is the maximum Doppler
    spread of the diffuse (sum-of-sinusoids) component; 0 freezes the fading
    at a single random draw.
    """

    initial_delay_s: float
    delay_rate: float = 0.0
    mean_power_db: float = 0.0
    doppler_hz: float = 0.0
    rician_k: float = math.inf
    fading_doppler_hz: float = 0.0


@dataclass(frozen=True)
class SourceSpec:
    source_id: str
    kind: str
    los: bool
    paths: tuple[PathSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "paths", tuple(self.paths))


@dataclass(frozen=True)
class ChannelSpec:
    sources: tuple[SourceSpec, ...]
    update_rate_hz: float = 40e3
    duration_s: float = 0.4
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))


def _sum_of_sinusoids(n: int, doppler_norm: float, n_osc: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Unit-power Rayleigh fading series (Zheng-Xiao sum-of-sinusoids)."""
    m = np.arange(1, n_osc + 1)
    theta = rng.uniform(-np.pi, np.pi)
    phi_i = rng.uniform(-np.pi, np.pi, n_osc)
    phi_q = rng.uniform(-np.pi, np.pi, n_osc)
    alpha = (2.0 * np.pi * m - np.pi + theta) / (4.0 * n_osc)
    t = np.arange(n)[:, None]
    w = 2.0 * np.pi * doppler_norm
    g_i = np.cos(w * t * np.cos(alpha) + phi_i).sum(axis=1)
    g_q = np.cos(w * t * np.sin(alpha) + phi_q).sum(axis=1)
    return (g_i + 1j * g_q) / math.sqrt(n_osc)


def _fading_series(spec: PathSpec, los_path: bool, n: int, f_ch: float,
                   rng: np.random.Generator) -> np.ndarray:
    diffuse = _sum_of_sinusoids(n, spec.fading_doppler_hz / f_ch,
                                DEFAULT_OSCILLATORS, rng)
    if los_path:
        k = spec.rician_k
        if math.isinf(k):
            return np.ones(n, dtype=np.complex128)
        return math.sqrt(k / (k + 1.0)) + math.sqrt(1.0 / (k + 1.0)) * diffuse
    return diffuse


def generate_synthetic_channel(spec: ChannelSpec) -> ChannelSet:
    """Built-in stand-in for an external channel generator.

    H[k, t] = sqrt(P_k) * g_k(t) * exp(j 2 pi f_d,k t / f_ch) with g_k
    unit-power Ricean fading on a LOS path 0 and Rayleigh fading elsewhere;
    D[k, t] evolves linearly from the initial delay.
    """
    if spec.update_rate_hz <= 0:
        raise ValueError("update_rate_hz must be positive")
    if not spec.sources:
        raise ValueError("channel spec has no sources")
    n = round(spec.update_rate_hz * spec.duration_s)
    if n <= 0:
        raise ValueError("duration too short for the update rate")
    rng = np.random.default_rng(spec.seed)
    t = np.arange(n)
    sources = []
    for src in spec.sources:
        if not src.paths:
            raise ValueError(f"source {src.source_id}: empty path list")
        paths = []
        for k, p in enumerate(src.paths):
            power = 10.0 ** (p.mean_power_db / 10.0)
            if not np.isfinite(power) or power < 0:
                raise ValueError(f"source {src.source_id} path {k}: bad power")
            fading = _fading_series(p, los_path=(src.los and k == 0),
                                    n=n, f_ch=spec.update_rate_hz, rng=rng)
            rot = np.exp(2j * np.pi * p.doppler_hz * t / spec.update_rate_hz)
            coeff = math.sqrt(power) * fading * rot
            delays = p.initial_delay_s + p.delay_rate * t / spec.update_rate_hz
            paths.append(PathSeries(coefficients=coeff, delays_s=delays))
        sources.append(SourceChannel(source_id=src.source_id, source_kind=src.kind,
                                     los=src.los, paths=tuple(paths)))
    return ChannelSet(sources=tuple(sources), update_rate_hz=spec.update_rate_hz)


# ---------------------------------------------------------------------------
# File format

def _is_binary(path: Path) -> bool:
    return path.suffix.lower() == ".bin"


def store_channel(channels: ChannelSet, path) -> None:
    """Write a channel set; a ``.bin`` extension selects the packed f64 variant."""
    path = Path(path)
    binary = _is_binary(path)
    with open(path, "wb") as fh:
        fh.write((CHANNEL_FILE_MAGIC + "\n").encode("ascii"))
        for src in channels.sources:
            header = (f"source {src.source_id} {src.source_kind} "
                      f"{int(src.los)} {len(src.paths)} "
                      f"{float(channels.update_rate_hz)!r} {src.n_snapshots}\n")
            fh.write(header.encode("ascii"))
            for p in src.paths:  # one (n_snap, 4) record array: index, Re H, Im H, delay
                rec = np.stack([np.arange(p.n_snapshots), p.coefficients.real,
                                p.coefficients.imag, p.delays_s], axis=1, dtype="<f8")
                fh.write(rec.tobytes() if binary else "".join(
                    f"{i},{h!r},{q!r},{d!r}\n" for i, (_, h, q, d) in enumerate(rec.tolist())
                ).encode("ascii"))


def _parse_source_header(line: str) -> tuple[str, str, bool, int, float, int]:
    parts = line.split()
    if len(parts) != 7 or parts[0] != "source":
        raise ChannelFormatError(f"bad source header: {line!r}")
    _, sid, kind, los, n_paths, f_ch, n_snap = parts
    try:
        return sid, kind, bool(int(los)), int(n_paths), float(f_ch), int(n_snap)
    except ValueError as exc:
        raise ChannelFormatError(f"bad source header: {line!r}") from exc


def _load_path(fh, binary: bool, n_snap: int, where: str) -> PathSeries:
    """One path's (n_snap, 4) records from <f8 bytes or text rows, then one set of checks."""
    try:
        if binary:
            rec = np.frombuffer(fh.read(n_snap * 4 * 8), dtype="<f8").reshape(-1, 4)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", UserWarning)  # loadtxt warns on no rows
                rec = np.loadtxt(itertools.islice(fh, n_snap), delimiter=",",
                                 comments=None, ndmin=2)
        if rec.shape != (n_snap, 4) or not np.array_equal(rec[:, 0], np.arange(n_snap)):
            raise ValueError(f"records are not rows 0..{n_snap - 1} of 4 fields")
        # a view, as Re + 1j·Im would lose the sign of a zero
        coefficients = np.ascontiguousarray(rec[:, 1:3]).view(np.complex128)[:, 0]
        return PathSeries(coefficients, rec[:, 3].copy())  # checks finite, delays >= 0
    except (ValueError, UserWarning) as exc:
        raise ChannelFormatError(f"{where}: {exc}") from exc


def load_channel(path) -> ChannelSet:
    """Read a channel file written by store_channel (text or binary variant)."""
    path = Path(path)
    binary = _is_binary(path)
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != CHANNEL_FILE_MAGIC:
            raise ChannelFormatError(f"bad header line: {magic!r}")
        sources = []
        f_ch_global = None
        while line := fh.readline():
            header = line.decode("ascii", errors="replace").rstrip("\n")
            if not header.strip():
                continue
            sid, kind, los, n_paths, f_ch, n_snap = _parse_source_header(header)
            if f_ch_global is None:
                f_ch_global = f_ch
            elif f_ch != f_ch_global:
                raise ChannelFormatError(
                    f"source {sid}: update rate {f_ch} differs from {f_ch_global}")
            paths = [_load_path(fh, binary, n_snap, f"source {sid} path {k}")
                     for k in range(n_paths)]
            try:
                sources.append(SourceChannel(source_id=sid, source_kind=kind,
                                             los=los, paths=tuple(paths)))
            except ValueError as exc:
                raise ChannelFormatError(f"source {sid}: {exc}") from exc
    if not sources:
        raise ChannelFormatError("channel file contains no sources")
    try:
        return ChannelSet(sources=tuple(sources), update_rate_hz=f_ch_global)
    except ValueError as exc:
        raise ChannelFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Coefficient resampling and Doppler spectrum

def _time_axes(series: PathSeries, f_ch: float, target_rate_hz: float, n_samples: int):
    """Checked snapshot times for interpolating the f_ch grid onto n_samples at the signal rate."""
    if target_rate_hz < f_ch:
        raise ValueError("target_rate_hz must be at least f_ch")
    duration = series.n_snapshots / f_ch
    if n_samples > duration * target_rate_hz + target_rate_hz / f_ch:
        raise ValueError(
            f"n_samples={n_samples} exceeds channel duration {duration} s "
            f"at {target_rate_hz} Hz by more than one snapshot")
    return np.arange(series.n_snapshots) / f_ch


def _interp(t: np.ndarray, t_snap: np.ndarray, values: np.ndarray) -> np.ndarray:
    """np.interp at ascending t over just the snapshots around it: same bits, O(len(t))."""
    lo = np.searchsorted(t_snap, t[0], "right") - 1
    hi = np.searchsorted(t_snap, t[-1]) + 1
    return np.interp(t, t_snap[lo:hi], values[lo:hi])


def resample_coefficients(series: PathSeries, f_ch: float, target_rate_hz: float,
                          n_samples: int) -> PathSeries:
    """Linearly interpolate H and D from the f_ch grid onto the signal rate,
    holding the last snapshot value beyond the end of the series."""
    t_snap = _time_axes(series, f_ch, target_rate_hz, n_samples)
    t_out = np.arange(n_samples) / target_rate_hz
    return PathSeries(coefficients=_interp(t_out, t_snap, series.coefficients),
                      delays_s=_interp(t_out, t_snap, series.delays_s))


@dataclass(frozen=True)
class SpectrumResult:
    freqs_hz: np.ndarray
    power_db: np.ndarray
    peak_freq_hz: float
    peak_power_db: float


def doppler_spectrum(source: SourceChannel, f_ch: float, nfft: int = 1024) -> SpectrumResult:
    """Power spectrum of the path-summed coefficient series.

    Hann-windowed ``nfft``-point FFT of the first ``nfft`` snapshots, in dB,
    on a frequency axis spanning (-f_ch/2, +f_ch/2].
    """
    n = source.n_snapshots
    if nfft > n:
        raise ValueError(f"nfft={nfft} exceeds snapshot count {n}")
    if nfft < 2 or nfft & (nfft - 1):
        raise ValueError("nfft must be a power of two")
    composite = np.sum([p.coefficients for p in source.paths], axis=0)[:nfft]
    window = np.hanning(nfft)
    spectrum = np.abs(np.fft.fft(composite * window)) ** 2
    # reorder so the axis runs (-f_ch/2, +f_ch/2], Nyquist bin at the top
    order = np.roll(np.fft.fftshift(np.arange(nfft)), -1)
    power = spectrum[order]
    freqs = (np.arange(nfft) - nfft // 2 + 1) * f_ch / nfft
    power_db = 10.0 * np.log10(np.maximum(power, 1e-300))
    peak = int(np.argmax(power_db))
    return SpectrumResult(freqs_hz=freqs, power_db=power_db,
                          peak_freq_hz=float(freqs[peak]),
                          peak_power_db=float(power_db[peak]))


# ---------------------------------------------------------------------------
# Shared propagation (delay to D_min, multiply by coefficients, sum)

def earliest_delay_s(channels: ChannelSet, source_ids) -> float:
    """D_min, the reference of synthesized delays: the earliest initial delay of the sources."""
    return min(p.delays_s[0] for sid in source_ids for p in channels.source(sid).paths)


def propagate_and_sum(clean: dict[str, SignalBuffer], channels: ChannelSet,
                      d_min_s: float | None = None) -> SignalBuffer:
    """Apply per-path initial delays (referenced to d_min_s, by default
    earliest_delay_s of the sources), multiply by the interpolated coefficients, and sum."""
    if not clean:
        raise ValueError("no clean signals supplied")
    bufs = list(clean.values())
    f_s, n = bufs[0].sample_rate_hz, len(bufs[0])
    if any(buf.sample_rate_hz != f_s or len(buf) != n for buf in bufs):
        raise ValueError("all clean signals must share sample rate and length")
    if d_min_s is None:
        d_min_s = earliest_delay_s(channels, clean)
    total = np.zeros(n, dtype=np.complex128)
    for sid in sorted(clean):  # fixed order for bit-reproducibility
        spectrum = functools.cache(functools.partial(np.fft.fft, clean[sid].samples))  # once
        delayed = np.empty(n, dtype=np.complex128)
        for path in channels.source(sid).paths:
            _delay_into(delayed, clean[sid].samples, (path.delays_s[0] - d_min_s) * f_s, spectrum)
            t_snap = _time_axes(path, channels.update_rate_hz, f_s, n)
            for a in range(0, n, BLOCK_SAMPLES):
                b = min(a + BLOCK_SAMPLES, n)
                coeff = _interp(np.arange(a, b) / f_s, t_snap, path.coefficients)
                total[a:b] += delayed[a:b] * coeff  # named: temporary reuse rounds differently
    return SignalBuffer(total, f_s, bufs[0].if_offset_hz, bufs[0].epoch_s)
