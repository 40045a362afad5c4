"""NR PRS: scrambling-sequence oracles, comb mapping, slot scheduling, OFDM
numerology, and the modulate/demodulate round trip."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from synthrf import prs
from synthrf.dsp import SignalBuffer
from synthrf.prs import (CarrierConfig, PrsResourceConfig, ResourceGrid,
                         cp_alignment_metric, generate_pdsch_filler,
                         generate_prs_symbols, gnb_clean_waveform, is_prs_slot,
                         merge_grids, ofdm_demodulate, ofdm_modulate)


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
    ])
    def test_rejects_degenerate_numerology(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            CarrierConfig(**{"n_rb": 1, "n_fft": 16, field: value})

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
    def test_comb_density_and_labels(self):
        carrier = CarrierConfig(n_cell_id=1)
        cfg = PrsResourceConfig(comb_size=2, num_symbols=2, n_prs_id=11)
        grid = generate_prs_symbols(carrier, cfg, 0)
        per_symbol = 52 * 12 // 2
        assert int((grid.labels == prs.LABEL_PRS).sum()) == 2 * per_symbol
        occupied = grid.cells[grid.labels == prs.LABEL_PRS]
        np.testing.assert_allclose(np.abs(occupied), 1.0, atol=1e-12)

    def test_comb_offsets_stagger_across_symbols(self):
        carrier = CarrierConfig(n_cell_id=0)
        cfg = PrsResourceConfig(comb_size=4, num_symbols=4, symbol_start=2,
                                n_prs_id=7)
        grid = generate_prs_symbols(carrier, cfg, 0)
        # relative offsets for comb-4 follow the (0, 2, 1, 3) pattern
        cols = [np.flatnonzero(grid.labels[:, 2 + j])[0] % 4 for j in range(4)]
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
        assert not grid.labels.any()


class TestGridComposition:
    def test_pdsch_fills_the_complement(self):
        carrier = CarrierConfig(n_cell_id=0)
        cfg = PrsResourceConfig()
        prs_grid = generate_prs_symbols(carrier, cfg, 0)
        filler = generate_pdsch_filler(carrier, seed=0, slot_index=0,
                                       prs_grid=prs_grid)
        merged = merge_grids(prs_grid, filler)
        assert (merged.labels != prs.LABEL_EMPTY).all()

    def test_overlapping_merge_rejected(self):
        carrier = CarrierConfig(n_cell_id=0)
        cfg = PrsResourceConfig()
        grid = generate_prs_symbols(carrier, cfg, 0)
        with pytest.raises(ValueError, match="overlap"):
            merge_grids(grid, grid)


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

    def test_cp_alignment_metric_discriminates(self):
        carrier = CarrierConfig(n_cell_id=0)
        buf = gnb_clean_waveform(carrier, PrsResourceConfig(), n_slots=1,
                                 seed=0)
        assert cp_alignment_metric(buf.samples, carrier) > 0.9
        rolled = np.roll(buf.samples, 500)
        assert cp_alignment_metric(rolled, carrier) < 0.5

    def test_demodulate_warns_on_misalignment(self):
        carrier = CarrierConfig(n_cell_id=0)
        buf = gnb_clean_waveform(carrier, PrsResourceConfig(), n_slots=1,
                                 seed=0)
        rolled = SignalBuffer(np.roll(buf.samples, 500), buf.sample_rate_hz)
        with pytest.warns(UserWarning):
            ofdm_demodulate(rolled, carrier)

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


def reference_cp_metric(samples, carrier):
    n_fft = carrier.n_fft
    ptr = 0
    corrs = []
    while True:
        for l in range(prs.SYMBOLS_PER_SLOT):
            cp = carrier.cp_length(l)
            if ptr + cp + n_fft > len(samples):
                return float(np.mean(corrs)) if corrs else 0.0
            head = samples[ptr:ptr + cp]
            tail = samples[ptr + n_fft:ptr + n_fft + cp]
            denom = np.linalg.norm(head) * np.linalg.norm(tail)
            if denom > 0:
                corrs.append(abs(np.vdot(head, tail)) / denom)
            ptr += cp + n_fft


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
    """A carrier, 1-3 slot grids of random cells (some cells zero), a shift and
    a length for the CP metric's buffers."""
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
    n = len(grids) * carrier.samples_per_slot
    return carrier, grids, draw(st.integers(1, n - 1)), draw(st.integers(1, n))


class TestModemMatchesPerSymbolLoops:
    @settings(max_examples=60, deadline=None)
    @given(case=modem_cases())
    def test_modulate_demodulate_and_cp_metric(self, case):
        carrier, grids, shift, length = case
        ref = reference_modulate(grids, carrier)
        buf = ofdm_modulate(grids, carrier)
        np.testing.assert_array_equal(buf.samples, ref)
        rolled = np.roll(ref, shift)
        partial = np.concatenate([ref, rolled[:length]])
        for samples in (ref, rolled, ref[:length], rolled[:length], partial):
            assert cp_alignment_metric(samples, carrier) == pytest.approx(
                reference_cp_metric(samples, carrier), rel=0, abs=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the rolled copy is misaligned
            for samples in (ref, rolled):
                back = ofdm_demodulate(SignalBuffer(samples, carrier.sample_rate_hz), carrier)
                for grid, cells in zip(back, reference_demodulate(samples, carrier),
                                       strict=True):
                    np.testing.assert_array_equal(grid.cells, cells)
