"""NR PRS: scrambling-sequence oracles, comb mapping, slot scheduling, OFDM
numerology, and the modulate/demodulate round trip."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import los_source

from synthrf import prs
from synthrf.channel import (ChannelSet, ChannelSpec, PathSeries, PathSpec, SourceChannel,
                             SourceSpec, earliest_delay_s, generate_synthetic_channel,
                             propagate_and_sum)
from synthrf.dsp import SignalBuffer, add_awgn, fft_correlate
from synthrf.prs import (CarrierConfig, PrsResourceConfig, ResourceGrid,
                         generate_pdsch_filler, generate_prs_symbols,
                         gnb_clean_waveform, is_prs_slot, ofdm_demodulate,
                         ofdm_modulate, synthesize_gnb)


def reference_prbs(c_init, length):
    """Independent slow-loop length-31 Gold sequence with the 1600 advance."""
    nc = 1600
    x1 = [0] * 31
    x1[0] = 1
    x2 = [(c_init >> i) & 1 for i in range(31)]
    out = []
    for n in range(nc + length):
        if n >= nc:
            out.append(x1[0] ^ x2[0])
        x1.append(x1[3] ^ x1[0])
        x2.append(x2[3] ^ x2[2] ^ x2[1] ^ x2[0])
        x1.pop(0)
        x2.pop(0)
    return np.array(out, dtype=np.int8)


class TestScrambling:
    @pytest.mark.parametrize("c_init", [1, 42, 0x12345678 % 2 ** 31])
    def test_prbs_matches_reference_loop(self, c_init):
        np.testing.assert_array_equal(prs._prbs(c_init, 200),
                                      reference_prbs(c_init, 200))

    def test_c_init_formula_frozen_values(self):
        # hand-computed from the standard initialization expression
        assert prs._prs_c_init(42, 3, 2, 14) == 1024 * 45 * 85 + 42
        assert prs._prs_c_init(0, 0, 0, 14) == 1024
        # n_prs_id >= 1024 engages the high term
        assert prs._prs_c_init(1030, 0, 0, 14) == (2 ** 22 + 1024 * 13 + 6)

    def test_qpsk_alphabet(self):
        syms = prs._qpsk_from_prbs(7, 500)
        np.testing.assert_allclose(np.abs(syms), 1 / np.sqrt(2) * np.sqrt(2),
                                   atol=1e-12)
        quad = set(np.round(syms * np.sqrt(2)).astype(complex))
        assert quad <= {1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}


class TestCarrierConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("scs_hz", 0.0, "scs_hz must be positive"),
        ("n_rb", 0, "n_rb must be at least 1"),
        ("scs_hz", 30e3, "scs_hz must be 15e3"),  # 30 kHz lengthens only symbol 0's prefix
    ])
    def test_rejects_degenerate_numerology(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            CarrierConfig(**{"n_rb": 1, "n_fft": 16, field: value})

    @pytest.mark.parametrize("n_fft", [12, 13, 14])
    def test_rejects_a_carrier_without_a_cyclic_prefix(self, n_fft):
        # 144 * n_fft // 2048 is 0: the modem would drop the short prefix
        with pytest.raises(ValueError, match=f"n_fft={n_fft} gives a 0-sample cyclic prefix"):
            CarrierConfig(n_rb=1, n_fft=n_fft)

    def test_shortest_carrier_with_a_prefix_round_trips(self):
        carrier = CarrierConfig(n_rb=1, n_fft=15)
        assert [carrier.cp_length(l) for l in (0, 1)] == [1, 1]
        grid = ResourceGrid.empty(carrier)
        rng = np.random.default_rng(3)
        grid.cells[:] = rng.standard_normal(grid.cells.shape) + 1j * rng.standard_normal(
            grid.cells.shape)
        buf = ofdm_modulate([grid], carrier)
        assert len(buf) == carrier.samples_per_slot == 14 * 16
        (back,) = ofdm_demodulate(buf, carrier)
        np.testing.assert_allclose(back.cells, grid.cells, rtol=0, atol=1e-12)

    def test_eq1_sample_rate(self):
        carrier = CarrierConfig(n_cell_id=0)
        assert carrier.sample_rate_hz == 1024 * 15e3 == 15.36e6

    def test_cp_lengths_scale_from_2048_reference(self):
        carrier = CarrierConfig(n_cell_id=0)
        # 1024-point numerology: long CP 80 on symbols 0 and 7, short CP 72
        assert [carrier.cp_length(l) for l in range(14)] == \
            [80] + [72] * 6 + [80] + [72] * 6

    def test_slot_sample_budget(self):
        carrier = CarrierConfig(n_cell_id=0)
        assert carrier.samples_per_slot == 15360
        assert carrier.slot_duration_s == pytest.approx(1e-3)
        assert carrier.n_subcarriers == 624


class TestPrsMapping:
    def test_comb_density_and_unit_modulus(self):
        carrier = CarrierConfig(n_cell_id=1)
        cfg = PrsResourceConfig(comb_size=2, num_symbols=2, n_prs_id=11)
        grid = generate_prs_symbols(carrier, cfg, 0)
        per_symbol = 52 * 12 // 2
        occupied = grid.cells[grid.cells != 0]
        assert len(occupied) == 2 * per_symbol
        np.testing.assert_allclose(np.abs(occupied), 1.0, atol=1e-12)

    def test_comb_offsets_stagger_across_symbols(self):
        carrier = CarrierConfig(n_cell_id=0)
        cfg = PrsResourceConfig(comb_size=4, num_symbols=4, symbol_start=2,
                                n_prs_id=7)
        grid = generate_prs_symbols(carrier, cfg, 0)
        # relative offsets for comb-4 follow the (0, 2, 1, 3) pattern
        cols = [np.flatnonzero(grid.cells[:, 2 + j])[0] % 4 for j in range(4)]
        assert cols == [0, 2, 1, 3]

    def test_distinct_prs_ids_give_distinct_sequences(self):
        carrier = CarrierConfig(n_cell_id=0)
        a = generate_prs_symbols(carrier, PrsResourceConfig(n_prs_id=1), 0)
        b = generate_prs_symbols(carrier, PrsResourceConfig(n_prs_id=2), 0)
        assert not np.array_equal(a.cells, b.cells)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PrsResourceConfig(comb_size=5)
        with pytest.raises(ValueError):
            PrsResourceConfig(comb_size=4, comb_offset=4)
        with pytest.raises(ValueError):
            PrsResourceConfig(symbol_start=13, num_symbols=2)
        with pytest.raises(ValueError):
            PrsResourceConfig(resource_offset_slots=10,
                              resource_set_period_slots=10)


class TestSlotSchedule:
    def test_period_and_offset(self):
        cfg = PrsResourceConfig(resource_set_period_slots=10,
                                resource_offset_slots=3)
        hits = [s for s in range(30) if is_prs_slot(cfg, s)]
        assert hits == [3, 13, 23]

    def test_repetition_with_time_gap(self):
        cfg = PrsResourceConfig(resource_set_period_slots=20,
                                resource_repetition=2,
                                resource_time_gap_slots=4)
        hits = [s for s in range(20) if is_prs_slot(cfg, s)]
        assert hits == [0, 4]

    def test_muting_pattern_silences_instances(self):
        cfg = PrsResourceConfig(resource_set_period_slots=10,
                                muting_pattern=(1, 0))
        assert is_prs_slot(cfg, 0)
        assert not is_prs_slot(cfg, 10)
        assert is_prs_slot(cfg, 20)

    def test_inactive_slot_yields_empty_grid(self):
        carrier = CarrierConfig(n_cell_id=0)
        cfg = PrsResourceConfig(resource_set_period_slots=10)
        grid = generate_prs_symbols(carrier, cfg, 5)
        assert not grid.cells.any()


class TestGridComposition:
    def test_pdsch_fills_the_complement(self):
        carrier = CarrierConfig(n_cell_id=0)
        cfg = PrsResourceConfig()
        prs_grid = generate_prs_symbols(carrier, cfg, 0)
        filler = generate_pdsch_filler(carrier, seed=0, slot_index=0,
                                       prs_grid=prs_grid)
        # every cell holds exactly one of the two: the filler is 0 where PRS is not
        assert ((prs_grid.cells != 0) ^ (filler.cells != 0)).all()


class TestOfdm:
    def test_round_trip_error(self, rng):
        carrier = CarrierConfig(n_cell_id=0)
        grids = []
        for _ in range(3):
            grid = ResourceGrid.empty(carrier)
            shape = grid.cells.shape
            grid.cells[:] = (rng.standard_normal(shape)
                             + 1j * rng.standard_normal(shape))
            grids.append(grid)
        buf = ofdm_modulate(grids, carrier)
        assert len(buf) == 3 * carrier.samples_per_slot
        back = ofdm_demodulate(buf, carrier)
        assert len(back) == 3
        for orig, rec in zip(grids, back):
            err = np.max(np.abs(rec.cells - orig.cells)) / np.max(np.abs(orig.cells))
            assert err < 1e-9

    def test_demodulate_requires_whole_slots(self):
        carrier = CarrierConfig(n_cell_id=0)
        buf = SignalBuffer(np.ones(15360 + 7, dtype=complex),
                           carrier.sample_rate_hz)
        with pytest.raises(ValueError):
            ofdm_demodulate(buf, carrier)


class TestGnbWaveform:
    def test_frame_sample_budget(self):
        carrier = CarrierConfig(n_cell_id=0)
        buf = gnb_clean_waveform(carrier, PrsResourceConfig(), n_slots=10,
                                 seed=1)
        assert len(buf) == 153600
        assert buf.sample_rate_hz == 15.36e6

    def test_seed_determinism(self):
        carrier = CarrierConfig(n_cell_id=0)
        a = gnb_clean_waveform(carrier, PrsResourceConfig(), 2, seed=3)
        b = gnb_clean_waveform(carrier, PrsResourceConfig(), 2, seed=3)
        np.testing.assert_array_equal(a.samples, b.samples)


def two_gnb_scene(duration_s, drift=True):
    """The benchmark's prs_scene geometry: two gNBs, each a LOS path and a faded echo;
    drift=False holds every delay at its initial value."""
    sources = tuple(SourceSpec(sid, "gnb", True, (
        PathSpec(initial_delay_s=delay, doppler_hz=f_d, delay_rate=-f_d / 3.5e9 * drift),
        PathSpec(initial_delay_s=delay + lag, doppler_hz=f_d, delay_rate=-f_d / 3.5e9 * drift,
                 mean_power_db=-6.0, fading_doppler_hz=100.0)))
        for sid, delay, f_d, lag in (("g2", 3e-6 + 213.37 / 15.36e6, -150.0, 0.9e-6),
                                     ("g1", 3e-6, 200.0, 1.3e-6)))
    channels = generate_synthetic_channel(ChannelSpec(
        sources=sources, update_rate_hz=40e3, duration_s=duration_s, seed=7))
    resources = {"g2": PrsResourceConfig(n_prs_id=20, comb_offset=1),
                 "g1": PrsResourceConfig(n_prs_id=10)}
    return CarrierConfig(n_cell_id=1), resources, channels


def slot_grids(carrier, res, n_slots, seed):
    """The PRS-plus-filler grid of each slot, as gnb_clean_waveform modulates it."""
    grids = []
    for s in range(n_slots):
        grid = generate_prs_symbols(carrier, res, s)
        grid.cells += generate_pdsch_filler(carrier, seed, s, grid).cells
        grids.append(grid.cells)
    return grids


def delayed_path_channel(delays_s, coefficients=(0.0, 1.0), n_snap=50, f_ch=1e3):
    """One gNB "g" of static paths, path 0 at delay 0 (D_min) and the rest after it."""
    paths = [PathSeries(np.full(n_snap, h, dtype=complex), np.full(n_snap, d))
             for h, d in zip(coefficients, (0.0, *delays_s))]
    return ChannelSet([SourceChannel("g", "gnb", True, paths)], f_ch)


class TestSynthesizeGnb:
    @settings(max_examples=30, deadline=None)
    @given(tau=st.one_of(st.integers(0, 71).map(float),
                         st.floats(0.0, 72.0, exclude_max=True, allow_subnormal=False)))
    @example(tau=40.0)
    def test_a_delay_within_the_prefix_turns_each_subcarrier(self, tau):
        # tau below the shortest prefix (72 samples): every demodulated body sits inside
        # its delayed symbol, so the FFT sees the grid times e^{-j2pi k tau / n_fft}
        carrier, res = CarrierConfig(n_cell_id=1), PrsResourceConfig(n_prs_id=5)
        f_s, n_sc = carrier.sample_rate_hz, carrier.n_subcarriers
        buf = synthesize_gnb(carrier, {"g": res}, delayed_path_channel([tau / f_s]), 0.002,
                             seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ofdm_demodulate(buf, carrier)
        ramp = np.exp(-2j * np.pi * (np.arange(n_sc) - n_sc // 2) * tau / carrier.n_fft)
        for grid, cells in zip(got, slot_grids(carrier, res, 2, seed=4), strict=True):
            err = np.max(np.abs(grid.cells - cells * ramp[:, None])) / np.max(np.abs(cells))
            assert 20 * np.log10(max(err, 1e-300)) <= -100.0

    @pytest.mark.parametrize("rate", [1e-5, -1e-5])
    def test_the_correlation_delay_follows_a_drifting_path(self, rate):
        # over 200 ms the delay moves rate * 0.2 s * f_s = 30.7 samples; each slot's
        # correlation peak, refined by a parabola, follows D(t) at the slot's middle
        carrier, res = CarrierConfig(n_cell_id=1), PrsResourceConfig(n_prs_id=5)
        f_s, sps, n_slots, pad = carrier.sample_rate_hz, carrier.samples_per_slot, 200, 64
        channels = generate_synthetic_channel(ChannelSpec(
            (los_source("g", 2e-6, 0.0, kind="gnb", delay_rate=rate),),
            update_rate_hz=1e3, duration_s=0.2, seed=0))
        rx = synthesize_gnb(carrier, {"g": res}, channels, 0.2, seed=4).samples
        replica = gnb_clean_waveform(carrier, res, n_slots, seed=4).samples
        for s in range(1, n_slots - 1, 3):
            ref = np.zeros(sps + 2 * pad, dtype=complex)
            ref[pad:pad + sps] = replica[s * sps:(s + 1) * sps]
            c = np.abs(fft_correlate(rx[s * sps - pad:(s + 1) * sps + pad], ref))
            m = int(np.argmax(c))
            y0, y1, y2 = c[m - 1], c[m], c[(m + 1) % len(c)]
            lag = m + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
            lag = (lag + len(c) / 2) % len(c) - len(c) / 2
            assert lag == pytest.approx(rate * (s + 0.5) * 1e-3 * f_s, abs=0.5)

    def test_a_static_scene_matches_the_fft_delay_away_from_symbol_edges(self):
        # the FFT delay band-limits each symbol's rectangular window; 16 samples from
        # any delayed symbol edge the two renderings agree
        n_slots = 5
        carrier, resources, channels = two_gnb_scene(0.005, drift=False)
        got = synthesize_gnb(carrier, resources, channels, 0.005, seed=3).samples
        want = propagate_and_sum({sid: gnb_clean_waveform(carrier, res, n_slots, seed=3)
                                  for sid, res in resources.items()}, channels).samples
        d_min = earliest_delay_s(channels, resources)
        body = prs._slot_table(carrier)[1][:, 0]
        n = np.arange(len(got))
        keep = np.ones(len(got), dtype=bool)
        for path in (p for src in channels.sources for p in src.paths):
            m = n - (path.delays_s[0] - d_min) * carrier.sample_rate_hz  # undelayed time
            inner = (m % carrier.samples_per_slot)[:, None] - body
            keep &= (m >= 0) & np.any((inner >= 16) & (inner < carrier.n_fft - 16), axis=1)
        assert keep.mean() > 0.7
        err = np.sum(np.abs(got[keep] - want[keep]) ** 2) / np.sum(np.abs(want[keep]) ** 2)
        assert 10 * np.log10(err) <= -50.0

    def test_the_two_gnb_scene_demodulates_without_a_warning(self):
        # g2 arrives 213 samples late, beyond every prefix: the demodulator still takes
        # each slot's bodies where ofdm_modulate put them
        carrier, resources, channels = two_gnb_scene(0.005)
        buf = synthesize_gnb(carrier, resources, channels, 0.005, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ofdm_demodulate(buf, carrier)
        for grid, cells in zip(got, reference_demodulate(buf.samples, carrier), strict=True):
            np.testing.assert_array_equal(grid.cells, cells)

    def test_a_path_delayed_past_the_scene_end_adds_nothing(self):
        carrier, res = CarrierConfig(n_cell_id=1), {"g": PrsResourceConfig(n_prs_id=5)}
        one = synthesize_gnb(carrier, res, delayed_path_channel([3.3e-6], (1.0, 0.5)),
                             0.002, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            two = synthesize_gnb(carrier, res, delayed_path_channel(
                [3.3e-6, 0.0025], (1.0, 0.5, 2.0)), 0.002, seed=4)
        assert np.array_equal(one.samples, two.samples)

    def test_a_delay_that_falls_by_more_than_a_symbol_is_rejected(self):
        carrier, res = CarrierConfig(n_cell_id=1), {"g": PrsResourceConfig(n_prs_id=5)}
        delays = np.where(np.arange(300) < 100, 1e-3, 1e-6)  # 15,345 samples in 10 us
        channels = ChannelSet([SourceChannel("g", "gnb", True, [
            PathSeries(np.zeros(300), np.zeros(300)), PathSeries(np.ones(300), delays)])], 1e5)
        with pytest.raises(ValueError, match="source g path 1: delay falls by more than a"):
            synthesize_gnb(carrier, res, channels, 0.002, seed=4)

    def test_gnbs_sum_in_sorted_order_and_noise_is_add_awgns(self):
        carrier, resources, channels = two_gnb_scene(0.005)  # config order g2, g1
        got = synthesize_gnb(carrier, resources, channels, 0.005, seed=3,
                             noise_power_dbw=-20.0, noise_seed=4)
        clean = synthesize_gnb(carrier, dict(reversed(resources.items())), channels, 0.005,
                               seed=3)
        want = add_awgn(clean, -20.0, 4)
        assert np.array_equal(got.samples.view(np.uint64), want.samples.view(np.uint64))
        assert got.sample_rate_hz == want.sample_rate_hz == carrier.sample_rate_hz

    def test_peak_allocation_per_sample(self):
        # the sum; the rest is one slot's temporaries
        carrier, resources, channels = two_gnb_scene(0.03)
        tracemalloc.start()
        try:
            buf = synthesize_gnb(carrier, resources, channels, 0.03, seed=3,
                                 noise_power_dbw=-20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(buf) == 460800
        assert peak / len(buf) <= 32.0


# --- the per-symbol modem the slot table replaced, kept as an oracle ---------

def reference_modulate(grids, carrier):
    n_sc = carrier.n_subcarriers
    n_fft = carrier.n_fft
    bins = (np.arange(n_sc) - n_sc // 2) % n_fft
    out = np.empty(carrier.samples_per_slot * len(grids), dtype=np.complex128)
    ptr = 0
    for grid in grids:
        for l in range(prs.SYMBOLS_PER_SLOT):
            frame = np.zeros(n_fft, dtype=np.complex128)
            frame[bins] = grid.cells[:, l]
            body = np.fft.ifft(frame) * n_fft
            cp = carrier.cp_length(l)
            out[ptr:ptr + cp] = body[-cp:]
            out[ptr + cp:ptr + cp + n_fft] = body
            ptr += cp + n_fft
    return out


def reference_demodulate(samples, carrier):
    n_sc = carrier.n_subcarriers
    n_fft = carrier.n_fft
    bins = (np.arange(n_sc) - n_sc // 2) % n_fft
    cells = []
    ptr = 0
    for _ in range(len(samples) // carrier.samples_per_slot):
        slot = np.zeros((n_sc, prs.SYMBOLS_PER_SLOT), dtype=np.complex128)
        for l in range(prs.SYMBOLS_PER_SLOT):
            cp = carrier.cp_length(l)
            slot[:, l] = (np.fft.fft(samples[ptr + cp:ptr + cp + n_fft]) / n_fft)[bins]
            ptr += cp + n_fft
        cells.append(slot)
    return cells


@st.composite
def modem_cases(draw):
    """A carrier, 1-3 slot grids of random cells (some cells zero) and a shift."""
    n_rb = draw(st.integers(1, 8))
    # from 15 on every symbol has a prefix, without which the reference fails
    n_fft = draw(st.integers(max(12 * n_rb, 15), 12 * n_rb + 80))
    carrier = CarrierConfig(n_rb=n_rb, n_fft=n_fft)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grids = []
    for _ in range(draw(st.integers(1, 3))):
        grid = ResourceGrid.empty(carrier)
        shape = grid.cells.shape
        grid.cells[:] = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                         ) * (rng.random(shape) < draw(st.sampled_from([0.1, 1.0])))
        grids.append(grid)
    return carrier, grids, draw(st.integers(1, len(grids) * carrier.samples_per_slot - 1))


class TestModemMatchesPerSymbolLoops:
    @settings(max_examples=60, deadline=None)
    @given(case=modem_cases())
    def test_modulate_and_demodulate(self, case):
        carrier, grids, shift = case
        ref = reference_modulate(grids, carrier)
        buf = ofdm_modulate(grids, carrier)
        np.testing.assert_array_equal(buf.samples, ref)
        for samples in (ref, np.roll(ref, shift)):
            back = ofdm_demodulate(SignalBuffer(samples, carrier.sample_rate_hz), carrier)
            for grid, cells in zip(back, reference_demodulate(samples, carrier), strict=True):
                np.testing.assert_array_equal(grid.cells, cells)
