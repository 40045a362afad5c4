"""NR PRS: scrambling-sequence oracles, comb mapping, slot scheduling, OFDM
numerology, and the modulate/demodulate round trip."""

import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import los_source

from synthrf import prs
from synthrf.channel import (ChannelSet, ChannelSpec, PathSeries, PathSpec, SourceChannel,
                             SourceSpec, _interp, _time_axes, earliest_delay_s,
                             generate_synthetic_channel, propagate_and_sum)
from synthrf.dsp import SignalBuffer, _add_noise, add_awgn, fft_correlate
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


def reference_is_prs_slot(prs, slot_index):
    """The slot schedule as a scan over the repetitions of the resource."""
    rel = slot_index - prs.resource_offset_slots
    if rel < 0:
        return False
    pos = rel % prs.resource_set_period_slots
    if not any(pos == i * prs.resource_time_gap_slots for i in range(prs.resource_repetition)):
        return False
    if prs.muting_pattern:
        instance = (rel // prs.resource_set_period_slots) % len(prs.muting_pattern)
        if not prs.muting_pattern[instance]:
            return False
    return True


@st.composite
def schedules(draw):
    """Any accepted PRS schedule: period, offset, repetitions that fit it, muting or none."""
    period = draw(st.integers(1, 40))
    gap = draw(st.integers(1, period))
    return PrsResourceConfig(
        resource_set_period_slots=period,
        resource_offset_slots=draw(st.integers(0, period - 1)),
        resource_time_gap_slots=gap,
        resource_repetition=draw(st.integers(1, (period - 1) // gap + 1)),
        muting_pattern=draw(st.none() | st.lists(st.integers(0, 1), min_size=1, max_size=8)
                            .map(tuple)))


class TestScrambling:
    @pytest.mark.parametrize("c_init", [1, 42, 0x12345678 % 2 ** 31])
    def test_prbs_matches_reference_loop(self, c_init):
        np.testing.assert_array_equal(prs._prbs(c_init, 200),
                                      reference_prbs(c_init, 200))

    @settings(deadline=None)
    @given(c_init=st.integers(0, 2 ** 31 - 1), length=st.integers(1, 3300))
    # every seed bit set and none; the longest length
    @example(c_init=2 ** 31 - 1, length=27)
    @example(c_init=0, length=29)
    @example(c_init=1024, length=3300)
    def test_gold_table_changes_no_output_bit(self, c_init, length):
        np.testing.assert_array_equal(prs._prbs(c_init, length),
                                      reference_prbs(c_init, length))

    def test_c_init_formula_frozen_values(self):
        # hand-computed from the standard initialization expression
        assert prs._prs_c_init(42, 3, 2) == 1024 * 45 * 85 + 42
        assert prs._prs_c_init(0, 0, 0) == 1024
        # n_prs_id >= 1024 engages the high term
        assert prs._prs_c_init(1030, 0, 0) == (2 ** 22 + 1024 * 13 + 6)

    def test_qpsk_alphabet(self):
        # TS 38.211 5.1.3: bits (b0, b1) map to ((1 - 2 b0) + j (1 - 2 b1)) / sqrt(2)
        b0, b1 = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        np.testing.assert_array_equal(prs._QPSK[2 * b0 + b1],
                                      ((1 - 2 * b0) + 1j * (1 - 2 * b1)) / np.sqrt(2))
        np.testing.assert_allclose(np.abs(prs._QPSK), 1.0, rtol=0, atol=1e-15)


class TestCarrierConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("scs_hz", 0.0, "scs_hz must be 15e3"),
        ("n_rb", 0, "n_rb must be at least 1"),
        ("scs_hz", 30e3, "scs_hz must be 15e3"),  # 30 kHz lengthens only symbol 0's prefix
        ("n_cell_id", 1008, r"n_cell_id must be in 0\.\.1007"),
        ("n_fft", 11, r"n_fft must be at least 12\*n_rb"),
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

    def test_each_frame_repeats_the_first_frames_cells(self):
        # c_init takes the slot within the 10 ms frame (TS 38.211 7.4.1.7), so slots 10 and
        # 20 are scrambled as slot 0 is (c_init 21,514), not with 3,032,074 and 6,042,634
        carrier, cfg = CarrierConfig(), PrsResourceConfig(n_prs_id=10)
        assert carrier.slots_per_frame == 10
        first = generate_prs_symbols(carrier, cfg, 0).cells
        for slot in (10, 20):
            np.testing.assert_array_equal(generate_prs_symbols(carrier, cfg, slot).cells, first)

    @pytest.mark.parametrize("slot", [0, 3, 10, 23, 47])
    def test_cells_follow_c_init_of_the_slot_within_the_frame(self, slot):
        # TS 38.211 7.4.1.7: c_init = (2^22 floor(n_ID / 1024) + 2^10 (14 n_sf + l + 1)
        # (2 (n_ID mod 1024) + 1) + (n_ID mod 1024)) mod 2^31, n_sf = slot mod 10 at 15 kHz
        n_id, n_sc = 1030, 12 * 52
        cfg = PrsResourceConfig(resource_set_period_slots=1, n_prs_id=n_id, symbol_start=3,
                                num_symbols=3)
        cells = generate_prs_symbols(CarrierConfig(), cfg, slot).cells
        for l in (3, 4, 5):
            c_init = (2 ** 22 * (n_id // 1024) + 2 ** 10 * (14 * (slot % 10) + l + 1)
                      * (2 * (n_id % 1024) + 1) + n_id % 1024) % 2 ** 31
            c = reference_prbs(c_init, n_sc).astype(int)
            want = ((1 - 2 * c[0::2]) + 1j * (1 - 2 * c[1::2])) / np.sqrt(2)
            np.testing.assert_allclose(cells[cells[:, l] != 0, l], want, rtol=0, atol=1e-15)

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

    @pytest.mark.parametrize("fields,message", [
        # input that would otherwise be misread or ignored, as each comment says
        ({"symbol_start": -1}, "symbol_start must be in 0..14 - num_symbols"),  # on 0 and 13
        ({"n_rb_prs": 0}, "n_rb_prs must be at least 1"),  # every PRS slot empty
        ({"n_rb_prs": -3}, "n_rb_prs must be at least 1"),
        # the third repetition, slot 10 of a 10-slot period, would be dropped
        ({"resource_repetition": 3, "resource_time_gap_slots": 5},
         "resource_repetition's last slot falls past the set period"),
        ({"muting_pattern": (2,)}, "muting_pattern entries must be 0 or 1"),  # read as "on"
        ({"muting_pattern": (1, 0, -1)}, "muting_pattern entries must be 0 or 1"),
        # an empty pattern would read as "no muting", which is null's meaning
        ({"muting_pattern": ()}, "muting_pattern entries must be 0 or 1, and one or more"),
        ({"muting_pattern": []}, "muting_pattern entries must be 0 or 1, and one or more"),
    ])
    def test_rejects_input_it_would_misread(self, fields, message):
        with pytest.raises(ValueError, match=message):
            PrsResourceConfig(**fields)


def _gnb_channels():
    spec = ChannelSpec(sources=(los_source("g", 1e-6, 0.0, kind="gnb"),), duration_s=0.002)
    return generate_synthetic_channel(spec)


@pytest.mark.parametrize("build,message", [
    (lambda: PrsResourceConfig(num_symbols=0), "num_symbols must be at least 1"),
    (lambda: PrsResourceConfig(resource_repetition=0),
     "resource_repetition and resource_time_gap_slots must be at least 1"),
    (lambda: PrsResourceConfig(resource_time_gap_slots=0),
     "resource_repetition and resource_time_gap_slots must be at least 1"),
    (lambda: PrsResourceConfig(n_prs_id=4096), "n_prs_id must be in 0..4095"),
    (lambda: generate_prs_symbols(CarrierConfig(), PrsResourceConfig(), -1),
     "slot_index must be non-negative"),
    (lambda: generate_prs_symbols(CarrierConfig(n_rb=24, n_fft=512), PrsResourceConfig(), 0),
     "n_rb_prs exceeds the carrier bandwidth"),
    (lambda: ofdm_modulate([ResourceGrid(np.zeros((612, 14), dtype=complex))], CarrierConfig()),
     "grid shape does not match the carrier config"),
    (lambda: synthesize_gnb(CarrierConfig(), {}, _gnb_channels(), 0.001, 0),
     "no gNB sources configured"),
    (lambda: synthesize_gnb(CarrierConfig(), {"g": PrsResourceConfig()}, _gnb_channels(),
                            1e-4, 0),
     "duration_s shorter than one slot"),
    (lambda: synthesize_gnb(CarrierConfig(), {"g": PrsResourceConfig()}, _gnb_channels(),
                            0.0014, 0),
     "duration_s 0.0014 s must be whole slots of 0.001 s"),
])
def test_bad_input_is_rejected_naming_the_field(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


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

    @settings(max_examples=200, deadline=None)
    @given(cfg=schedules(), slot=st.integers(0, 400))
    def test_matches_the_reference_scan(self, cfg, slot):
        assert is_prs_slot(cfg, slot) == reference_is_prs_slot(cfg, slot)

    def test_inactive_slot_yields_empty_grid(self):
        carrier = CarrierConfig(n_cell_id=0)
        cfg = PrsResourceConfig(resource_set_period_slots=10)
        grid = generate_prs_symbols(carrier, cfg, 5)
        assert not grid.cells.any()


def two_grid_slot(carrier, res, slot, seed):
    """A slot's cells as PRS grid plus a separately drawn filler grid, 0 on the PRS cells."""
    grid = generate_prs_symbols(carrier, res, slot)
    filler = ResourceGrid.empty(carrier)
    rng = np.random.default_rng((seed, slot))
    free = grid.cells == 0
    bits = rng.integers(0, 2, (int(free.sum()), 2))
    filler.cells[free] = prs._QPSK[2 * bits[:, 0] + bits[:, 1]]
    grid.cells += filler.cells
    return grid.cells


@st.composite
def slot_grid_cases(draw):
    """Any carrier, a PRS resource on it (comb, symbols, schedule with muting), a seed, a slot."""
    n_rb = draw(st.integers(1, 52))
    carrier = CarrierConfig(n_cell_id=draw(st.integers(0, 1007)), n_rb=n_rb,
                            n_fft=draw(st.integers(max(15, 12 * n_rb), 1024)))
    comb = draw(st.sampled_from([2, 4, 6, 12]))
    num_symbols = draw(st.integers(1, 14))
    res = dataclasses.replace(
        draw(schedules()), comb_size=comb, comb_offset=draw(st.integers(0, comb - 1)),
        num_symbols=num_symbols, symbol_start=draw(st.integers(0, 14 - num_symbols)),
        n_prs_id=draw(st.integers(0, 4095)), n_rb_prs=draw(st.integers(1, n_rb)))
    return carrier, res, draw(st.integers(0, 2 ** 32)), draw(st.integers(0, 400))


class TestGridComposition:
    def test_pdsch_fills_the_complement(self):
        carrier = CarrierConfig(n_cell_id=0)
        prs_grid = generate_prs_symbols(carrier, PrsResourceConfig(), 0)
        prs_cells = prs_grid.cells.copy()
        grid = generate_pdsch_filler(seed=0, slot_index=0, prs_grid=prs_grid)
        # written into the PRS grid: each PRS cell kept, each empty cell given a QPSK symbol
        assert grid is prs_grid
        np.testing.assert_array_equal(grid.cells[prs_cells != 0], prs_cells[prs_cells != 0])
        assert np.isin(grid.cells[prs_cells == 0], prs._QPSK).all()

    @settings(max_examples=100, deadline=None)
    @given(case=slot_grid_cases())
    def test_in_place_filler_changes_no_output_bit(self, case):
        carrier, res, seed, slot = case
        got = prs._slot_grid(carrier, res, slot, seed, with_pdsch=True).cells
        want = two_grid_slot(carrier, res, slot, seed)
        assert got.tobytes() == want.tobytes()  # bit for bit


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
    return [generate_pdsch_filler(seed, s, generate_prs_symbols(carrier, res, s)).cells
            for s in range(n_slots)]


def delayed_path_channel(delays_s, coefficients=(0.0, 1.0), n_snap=50, f_ch=1e3):
    """One gNB "g" of static paths, path 0 at delay 0 (D_min) and the rest after it."""
    paths = [PathSeries(np.full(n_snap, h, dtype=complex), np.full(n_snap, d))
             for h, d in zip(coefficients, (0.0, *delays_s))]
    return ChannelSet([SourceChannel("g", "gnb", True, paths)], f_ch)


class TestSynthesizeGnb:
    def test_whole_slots_are_taken_within_rounding(self):
        # 0.043 / 0.001 is 42.99999999999999 in floating point
        channels = generate_synthetic_channel(ChannelSpec(
            sources=(los_source("g", 1e-6, 0.0, kind="gnb"),), duration_s=0.043))
        buf = synthesize_gnb(CarrierConfig(), {"g": PrsResourceConfig()}, channels, 0.043, 0)
        assert len(buf) == 43 * CarrierConfig().samples_per_slot

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


# --- the per-path renderer the batched slot loop replaced, kept as an oracle --

def per_path_synthesize_gnb(carrier, prs_configs, channels, duration_s, seed, with_pdsch,
                            noise_power_dbw, noise_seed):
    """synthesize_gnb's slot loop with a ramp, a scatter and an IFFT for each slot of each
    path, and window bounds clipped as arrays."""
    n_slots = round(duration_s / carrier.slot_duration_s)
    d_min_s = earliest_delay_s(channels, prs_configs)
    f_s, n_fft, n_sc = carrier.sample_rate_hz, carrier.n_fft, carrier.n_subcarriers
    n_sym, total = prs.SYMBOLS_PER_SLOT, np.zeros(n_slots * carrier.samples_per_slot, complex)
    start = prs._slot_table(carrier)[2]
    sym_start = np.append(start[-1] * np.arange(n_slots)[:, None] + start[:-1], len(total))
    k = np.arange(n_sc) - n_sc // 2
    bins = k % n_fft
    frames = np.zeros((n_sym, n_fft), dtype=np.complex128)
    for sid in sorted(prs_configs):
        paths = channels.source(sid).paths
        t_snaps = [_time_axes(p, channels.update_rate_hz, f_s, len(total)) for p in paths]
        tau = (np.array([_interp(sym_start / f_s, t, p.delays_s) for p, t in zip(paths, t_snaps)])
               - d_min_s) * f_s
        whole = np.ceil(tau).astype(np.int64)
        for s in range(n_slots):
            cells = prs._slot_grid(carrier, prs_configs[sid], s, seed, with_pdsch).cells.T
            a, b = n_sym * s, n_sym * (s + 1)
            for path, t_snap, w, frac in zip(paths, t_snaps, whole, tau - whole):
                first = sym_start[a] + w[a]
                lo, hi = np.clip([first, sym_start[b] + w[b]], 0, len(total))
                if lo == hi:
                    continue
                f = -2j * np.pi / n_fft * frac[a:b, None]
                ramp = (np.exp(f * k[::32])[:, :, None] * np.exp(f * np.arange(32))[:, None])
                frames[:, bins] = cells * ramp.reshape(n_sym, -1)[:, :n_sc]
                bodies = np.fft.ifft(frames) * n_fft
                src = prs._slot_table(carrier, tuple(w[a:b + 1] - w[a]))[0]
                coeff = _interp(np.arange(lo, hi) / f_s, t_snap, path.coefficients)
                coeff *= bodies.ravel()[src[lo - first:hi - first]]
                total[lo:hi] += coeff
    _add_noise(total, noise_power_dbw, noise_seed)
    return total


@st.composite
def renderer_cases(draw):
    """A carrier at n_fft 89 or 101 (where the IFFT of zeros holds -0), 1024 or 1536, and
    1-3 slots of 1-3 gNBs of 1-3 paths.  Delays walk by up to 3 samples a snapshot (8 a
    slot), across whole samples and below D_min; echoes lag by up to 1.5 slots, so they
    spill past a slot's end; a path may start past the scene's end."""
    n_fft = draw(st.sampled_from([89, 101, 1024, 1536]))
    carrier = CarrierConfig(n_cell_id=draw(st.integers(0, 1007)),
                            n_rb=draw(st.integers(1, min(52, n_fft // 12))), n_fft=n_fft)
    n_slots, sps, f_s = draw(st.integers(1, 3)), carrier.samples_per_slot, carrier.sample_rate_hz
    n_snap = 8 * n_slots + 1
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sources, resources = [], {}
    for g in range(draw(st.integers(1, 3))):
        lags = [0.0] + [rng.uniform(0, 1.5 * sps) for _ in range(draw(st.integers(0, 2)))]
        if draw(st.booleans()):
            lags.append(n_slots * sps + rng.uniform(0, 100))  # past the scene's end
        first = rng.uniform(80, 300)  # the walk falls by 75 samples at most
        paths = [PathSeries(rng.standard_normal(n_snap) + 1j * rng.standard_normal(n_snap),
                            (first + lag + np.cumsum(rng.uniform(-3, 3, n_snap))) / f_s)
                 for lag in lags]
        paths[1:] = [PathSeries(p.coefficients, np.maximum(p.delays_s, paths[0].delays_s[0]))
                     for p in paths[1:]]  # path 0 arrives first at snapshot 0
        sources.append(SourceChannel(f"g{g}", "gnb", True, paths))
        comb = draw(st.sampled_from([2, 4, 6, 12]))
        num_symbols = draw(st.integers(1, 14))
        period = draw(st.integers(1, 4))
        resources[f"g{g}"] = PrsResourceConfig(
            resource_set_period_slots=period,
            resource_offset_slots=draw(st.integers(0, period - 1)),
            comb_size=comb, comb_offset=draw(st.integers(0, comb - 1)),
            num_symbols=num_symbols, symbol_start=draw(st.integers(0, 14 - num_symbols)),
            n_prs_id=draw(st.integers(0, 4095)), n_rb_prs=draw(st.integers(1, carrier.n_rb)))
    channels = ChannelSet(sources, 8e3)
    return (carrier, resources, channels, n_slots * carrier.slot_duration_s,
            draw(st.integers(0, 2 ** 32)), draw(st.booleans()),
            draw(st.sampled_from([-np.inf, -20.0])), draw(st.integers(0, 2 ** 32)))


class TestRendererMatchesPerPathLoop:
    @settings(max_examples=100, deadline=None)
    @given(case=renderer_cases())
    def test_renderer_changes_no_output_bit(self, case):
        got = synthesize_gnb(*case).samples
        assert got.tobytes() == per_path_synthesize_gnb(*case).tobytes()


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


# --- the every-slot modulator, kept as the oracle of the slot skip -----------

def every_slot_modulate(grids, carrier):
    """The modulator without the skip: an IFFT and a gather for every slot, cells or none."""
    source = prs._slot_table(carrier)[0]
    out = np.empty((len(grids), len(source)), dtype=np.complex128)
    frames = np.zeros((prs.SYMBOLS_PER_SLOT, carrier.n_fft), dtype=np.complex128)
    for slot, grid in zip(out, grids):
        slot[:] = prs._bodies(frames, grid.cells.T, carrier).ravel()[source]
    return out.ravel()


SIGNED_ZEROS = np.array([complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)])


@st.composite
def sparse_slot_cases(draw):
    """A carrier of any n_fft from 15 to 2048 and 1-6 slot grids, each empty (+0, or with
    signed zeros in some cells) or with a random subset of its symbols and cells non-zero."""
    n_fft = draw(st.integers(15, 2048))
    carrier = CarrierConfig(n_rb=draw(st.integers(1, min(52, n_fft // 12))), n_fft=n_fft)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    grids = []
    for kind in draw(st.lists(st.sampled_from(["+0", "signed zeros", "cells"]),
                              min_size=1, max_size=6)):
        grid = ResourceGrid.empty(carrier)
        shape = grid.cells.shape
        if kind == "signed zeros":
            grid.cells[:] = np.where(rng.random(shape) < 0.5, rng.choice(SIGNED_ZEROS, shape), 0)
        elif kind == "cells":
            used = (rng.random(shape) < rng.random()) & (rng.random(shape[1]) < rng.random())
            real, imag = rng.standard_normal((2, used.sum()))
            grid.cells[used] = real + 1j * imag
        grids.append(grid)
    return carrier, grids


class TestModulateSkipsSlotsWithoutCells:
    @settings(max_examples=80, deadline=None)
    @given(case=sparse_slot_cases())
    # the IFFT of zeros is +0 throughout at 1024, and holds -0 samples at 89
    @example(case=(CarrierConfig(), [ResourceGrid.empty(CarrierConfig())] * 3))
    @example(case=(CarrierConfig(n_rb=1, n_fft=89), [ResourceGrid.empty(
        CarrierConfig(n_rb=1, n_fft=89))] * 2))
    def test_skipping_changes_no_output_bit(self, case):
        carrier, grids = case
        got = ofdm_modulate(grids, carrier).samples
        assert got.tobytes() == every_slot_modulate(grids, carrier).tobytes()

    @pytest.mark.parametrize("with_pdsch,calls", [(False, 2), (True, 20)])
    def test_only_slots_with_cells_are_transformed(self, monkeypatch, with_pdsch, calls):
        # period 10: the PRS occupies slots 0 and 10 of 20; the filler every slot
        carrier, res = CarrierConfig(n_cell_id=1), PrsResourceConfig(n_prs_id=10)
        grids = [prs._slot_grid(carrier, res, s, 3, with_pdsch) for s in range(20)]
        want = every_slot_modulate(grids, carrier)
        made = []
        bodies = prs._bodies
        monkeypatch.setattr(prs, "_bodies", lambda *args: made.append(1) or bodies(*args))
        got = gnb_clean_waveform(carrier, res, 20, seed=3, with_pdsch=with_pdsch).samples
        assert len(made) == calls
        assert got.tobytes() == want.tobytes()
