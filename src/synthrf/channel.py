"""Channel/delay coefficient model, synthetic generator, file I/O, and Doppler spectrum.

Coefficients follow the external channel-generator convention: per source,
per path, a complex gain series H[k, t] and a delay series D[k, t] sampled at
the channel update rate f_ch.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import BLOCK_SAMPLES, SignalBuffer, _check_draws, _phasor

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
            raise ValueError(f"source {self.source_id}: unknown kind {self.source_kind!r}")
        if not self.paths:
            raise ValueError(f"source {self.source_id}: empty path list")
        counts = {p.n_snapshots for p in self.paths}
        if len(counts) != 1:
            raise ValueError(f"source {self.source_id}: paths differ in snapshot count")
        first = self.paths[0].delays_s[0]
        if any(p.delays_s[0] < first for p in self.paths[1:]):
            raise ValueError(f"source {self.source_id}: path 0 is not first-arriving at snapshot 0")

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
        ids = [src.source_id for src in self.sources]
        if dup := [sid for i, sid in enumerate(ids) if sid in ids[:i]]:
            raise ValueError(f"source {dup[0]}: id listed more than once")

    def source(self, source_id: str) -> SourceChannel:
        for src in self.sources:
            if src.source_id == source_id:
                return src
        raise KeyError(f"no source {source_id!r} in channel set")


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


def _fading_series(spec: PathSpec, los_path: bool, n: int, f_ch: float,
                   rng: np.random.Generator) -> np.ndarray:
    """Unit-power Ricean fading on a LOS path 0, else Rayleigh: a Zheng-Xiao sum of sinusoids
    a block at a time.  Every path draws its θ, φ_I and φ_Q, used or not, to keep the stream."""
    n_osc = DEFAULT_OSCILLATORS
    theta, phi_i, phi_q = np.split(rng.uniform(-np.pi, np.pi, 1 + 2 * n_osc), [1, 1 + n_osc])
    k = spec.rician_k
    if los_path and math.isinf(k):
        return np.ones(n, dtype=np.complex128)
    alpha = (2.0 * np.pi * np.arange(1, n_osc + 1) - np.pi + theta) / (4.0 * n_osc)
    w = 2.0 * np.pi * (spec.fading_doppler_hz / f_ch)
    diffuse = np.empty(n, dtype=np.complex128)
    for a in range(0, n, BLOCK_SAMPLES):
        t = np.arange(a, min(a + BLOCK_SAMPLES, n))[:, None]
        g_i = np.cos(w * t * np.cos(alpha) + phi_i).sum(axis=1)
        g_q = np.cos(w * t * np.sin(alpha) + phi_q).sum(axis=1)
        diffuse[a:a + BLOCK_SAMPLES] = (g_i + 1j * g_q) / math.sqrt(n_osc)
    if los_path:
        return math.sqrt(k / (k + 1.0)) + math.sqrt(1.0 / (k + 1.0)) * diffuse
    return diffuse


def generate_synthetic_channel(spec: ChannelSpec) -> ChannelSet:
    """Built-in stand-in for an external channel generator.

    H[k, t] = sqrt(P_k) * g_k(t) * exp(j 2 pi f_d,k t / f_ch) with g_k
    unit-power Ricean fading on a LOS path 0 and Rayleigh fading elsewhere;
    D[k, t] evolves linearly from the initial delay.
    """
    if not 0 < spec.update_rate_hz < math.inf:
        raise ValueError("update_rate_hz must be positive and finite (a spec's f_ch_hz)")
    _check_draws(seed=spec.seed)
    if not spec.sources:
        raise ValueError("channel spec has no sources")
    if not np.isfinite(spec.duration_s) or (n := round(spec.update_rate_hz * spec.duration_s)) < 1:
        raise ValueError("duration_s holds no snapshot at update_rate_hz, or is not finite")
    rng = np.random.default_rng(spec.seed)
    t = np.arange(n)
    sources = []
    for src in spec.sources:
        paths = []
        for k, p in enumerate(src.paths):
            try:  # each message names the source and path
                if not (math.isfinite(p.mean_power_db) and p.mean_power_db <= 3000.0):  # and power
                    raise ValueError("mean_power_db must be finite")
                if not math.isfinite(p.fading_doppler_hz):  # also where its draw goes unused
                    raise ValueError("fading_doppler_hz must be finite")
                power = 10.0 ** (p.mean_power_db / 10.0)
                fading = _fading_series(p, los_path=(src.los and k == 0),
                                        n=n, f_ch=spec.update_rate_hz, rng=rng)
                rot = np.exp(2j * np.pi * p.doppler_hz * t / spec.update_rate_hz)
                coeff = math.sqrt(power) * fading * rot
                delays = p.initial_delay_s + p.delay_rate * t / spec.update_rate_hz
                paths.append(PathSeries(coefficients=coeff, delays_s=delays))
            except ValueError as exc:
                raise ValueError(f"source {src.source_id} path {k}: {exc}") from None
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
            for p, a in itertools.product(src.paths, range(0, src.n_snapshots, BLOCK_SAMPLES)):
                coeff = p.coefficients[a:a + BLOCK_SAMPLES]  # records: index, Re H, Im H, delay
                rec = np.stack([np.arange(a, a + len(coeff)), coeff.real, coeff.imag,
                                p.delays_s[a:a + BLOCK_SAMPLES]], axis=1, dtype="<f8")
                fh.write(rec.tobytes() if binary else "".join(
                    f"{i},{h!r},{q!r},{d!r}\n" for i, (_, h, q, d) in enumerate(rec.tolist(), a)
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
            except ValueError as exc:  # each message names the source
                raise ChannelFormatError(str(exc)) from exc
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
        raise ValueError(f"nfft={nfft} must be a power of two")
    composite = np.sum([p.coefficients[:nfft] for p in source.paths], axis=0)
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
    """Apply per-path initial delays (referenced to d_min_s, by default earliest_delay_s of
    the sources), multiply by the interpolated coefficients, and sum.  A fractional delay is
    a spectral phase ramp: exact for bandlimited signals and, unlike interpolation in time,
    lossless near the Nyquist band, where the IF carrier sits."""
    if not clean:
        raise ValueError("no clean signals supplied")
    bufs = list(clean.values())
    f_s, n = bufs[0].sample_rate_hz, len(bufs[0])
    if any(buf.sample_rate_hz != f_s or len(buf) != n for buf in bufs):
        raise ValueError("all clean signals must share sample rate and length")
    if d_min_s is None:
        d_min_s = earliest_delay_s(channels, clean)
    t = np.arange(n) / f_s
    total = np.zeros(n, dtype=np.complex128)
    for sid in sorted(clean):  # fixed order for bit-reproducibility
        x = clean[sid].samples
        spectrum = np.fft.fft(x)
        for path in channels.source(sid).paths:
            shift = (path.delays_s[0] - d_min_s) * f_s
            if shift < 0:
                raise ValueError("delay_s must be non-negative")
            if shift >= n:
                warnings.warn("delay exceeds buffer duration; output is all zeros")
                shift = float(n)
            whole = int(np.floor(shift))
            frac = shift - whole
            if frac > 1e-12:
                delayed = spectrum * _phasor(-shift / n, n)
                # e^{-j2π·fftfreq·shift}: fftfreq is k/n - 1 from bin ⌈n/2⌉ on
                delayed[(n + 1) // 2:] *= np.exp(2j * np.pi * frac)
                delayed = np.fft.ifft(delayed)
            else:
                delayed = np.roll(x, whole)
            delayed[:whole] = 0.0  # either way the delay is circular: blank the wrapped head
            coeff = _interp(t, _time_axes(path, channels.update_rate_hz, f_s, n), path.coefficients)
            total += delayed * coeff
    return SignalBuffer(total, f_s, bufs[0].if_offset_hz)
