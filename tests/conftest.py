"""Shared helpers and fixtures for the synthrf test suite."""

import math

import numpy as np
import pytest

from synthrf.channel import (ChannelSpec, PathSpec, SourceSpec,
                             generate_synthetic_channel)


def cn0_to_noise_dbw(sample_rate_hz: float, cn0_dbhz: float) -> float:
    """Noise power (dBW) that puts a unit-power signal at the given C/N0."""
    return 10.0 * math.log10(sample_rate_hz) - cn0_dbhz


def los_source(source_id, delay_s, doppler_hz, kind="satellite",
               mean_power_db=0.0, delay_rate=0.0):
    """Single unfaded LOS path: |H| = 1, pure Doppler phase rotation."""
    return SourceSpec(source_id=source_id, kind=kind, los=True,
                      paths=(PathSpec(initial_delay_s=delay_s,
                                      delay_rate=delay_rate,
                                      mean_power_db=mean_power_db,
                                      doppler_hz=doppler_hz),))


def nlos_source(source_id, delay_s, doppler_hz, mean_power_db,
                fading_doppler_hz, kind="satellite", delay_rate=0.0):
    """Single Rayleigh-faded path (no LOS component)."""
    return SourceSpec(source_id=source_id, kind=kind, los=False,
                      paths=(PathSpec(initial_delay_s=delay_s,
                                      delay_rate=delay_rate,
                                      mean_power_db=mean_power_db,
                                      doppler_hz=doppler_hz,
                                      rician_k=0.0,
                                      fading_doppler_hz=fading_doppler_hz),))


def make_los_channel(delays_s, dopplers_hz, duration_s, update_rate_hz=40e3,
                     seed=0, kind="satellite"):
    """A channel set of unit-gain LOS sources named s1, s2, ..."""
    sources = tuple(los_source(f"s{i + 1}", d, f, kind=kind)
                    for i, (d, f) in enumerate(zip(delays_s, dopplers_hz)))
    spec = ChannelSpec(sources=sources, update_rate_hz=update_rate_hz,
                       duration_s=duration_s, seed=seed)
    return generate_synthetic_channel(spec)


def wrapped_error(measured, expected, period):
    """Signed difference on a circular axis of the given period."""
    return (measured - expected + period / 2.0) % period - period / 2.0


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
