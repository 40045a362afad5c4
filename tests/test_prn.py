"""C/A code oracles: frozen first-chip octals, an independent G2-delay
generator, and the Gold code correlation bounds."""

import numpy as np
import pytest

from synthrf import prn
from synthrf.receiver import sample_code_replica

# ICD-GPS-200 octal of the first 10 chips per PRN, used as a frozen oracle
# against the phase-select generator.
FIRST_10_CHIPS_OCTAL = {
    1: 0o1440, 2: 0o1620, 3: 0o1710, 4: 0o1744, 5: 0o1133, 6: 0o1455,
    7: 0o1131, 8: 0o1454, 9: 0o1626, 10: 0o1504, 11: 0o1642, 12: 0o1750,
    13: 0o1764, 14: 0o1772, 15: 0o1775, 16: 0o1776, 17: 0o1156, 18: 0o1467,
    19: 0o1633, 20: 0o1715, 21: 0o1746, 22: 0o1763, 23: 0o1063, 24: 0o1706,
    25: 0o1743, 26: 0o1761, 27: 0o1770, 28: 0o1774, 29: 0o1127, 30: 0o1453,
    31: 0o1625, 32: 0o1712,
}

# ICD-GPS-200 equivalent G2 circular delay (chips) per PRN; an alternative
# construction of the same codes that never touches the phase-select taps.
G2_DELAY_CHIPS = {
    1: 5, 2: 6, 3: 7, 4: 8, 5: 17, 6: 18, 7: 139, 8: 140, 9: 141, 10: 251,
    11: 252, 12: 254, 13: 255, 14: 256, 15: 257, 16: 258, 17: 469, 18: 470,
    19: 471, 20: 472, 21: 473, 22: 474, 23: 509, 24: 512, 25: 513, 26: 514,
    27: 515, 28: 516, 29: 859, 30: 860, 31: 861, 32: 862,
}


def _mls(taps):
    """Plain-loop 10-stage maximal length sequence, all-ones seed, as bits."""
    reg = [1] * 10
    out = np.empty(prn.CODE_LENGTH, dtype=np.int64)
    for i in range(prn.CODE_LENGTH):
        out[i] = reg[9]
        fb = 0
        for t in taps:
            fb ^= reg[t - 1]
        reg = [fb] + reg[:-1]
    return out


def reference_ca_bits(prn_id):
    """Independent oracle: G1 xor circularly-delayed G2."""
    g1 = _mls((3, 10))
    g2 = _mls((2, 3, 6, 8, 9, 10))
    return g1 ^ np.roll(g2, G2_DELAY_CHIPS[prn_id])


def chips_to_bits(chips):
    return ((1.0 - chips) / 2.0).astype(np.int64)


def test_first_ten_chips_match_frozen_octal_table():
    for prn_id, octal in FIRST_10_CHIPS_OCTAL.items():
        bits = chips_to_bits(prn.generate_ca_code(prn_id).chips[:10])
        value = int("".join(str(b) for b in bits), 2)
        assert value == octal, f"PRN {prn_id}: {value:o} != {octal:o}"


@pytest.mark.parametrize("prn_id", sorted(G2_DELAY_CHIPS))
def test_matches_independent_g2_delay_construction(prn_id):
    bits = chips_to_bits(prn.generate_ca_code(prn_id).chips)
    np.testing.assert_array_equal(bits, reference_ca_bits(prn_id))


def test_code_length_and_chip_alphabet():
    code = prn.generate_ca_code(7)
    assert code.chips.shape == (1023,)
    assert set(np.unique(code.chips)) == {-1.0, 1.0}


def test_balance_512_ones_511_zeros():
    for prn_id in (1, 13, 32):
        bits = chips_to_bits(prn.generate_ca_code(prn_id).chips)
        assert int(bits.sum()) == 512


def test_autocorrelation_peak_and_sidelobes():
    chips = prn.generate_ca_code(5).chips
    corr = [int(np.dot(chips, np.roll(chips, -lag))) for lag in range(prn.CODE_LENGTH)]
    assert corr[0] == prn.CODE_LENGTH
    allowed = {-65, -1, 63}
    for lag, value in enumerate(corr[1:], 1):
        assert value in allowed, f"lag {lag}: {value}"


def test_cross_correlation_three_valued():
    a = prn.generate_ca_code(3).chips
    b = prn.generate_ca_code(21).chips
    corr = np.fft.ifft(np.fft.fft(a) * np.conj(np.fft.fft(b))).real
    values = set(np.round(corr).astype(int))
    assert values <= {-65, -1, 63}


def test_period_follows_chipping_rate():
    # at 10.23 Mcps and 20.46 MHz the code repeats every 1023 / 10.23e6 s = 2046 samples
    code = prn.generate_ca_code(1, chipping_rate_hz=10.23e6)
    replica = sample_code_replica(code, 20.46e6, 3 * 2046)
    assert np.array_equal(replica[2046:], replica[:-2046])
    assert not np.array_equal(replica[2045:-1], replica[:-2046])


def test_invalid_prn_rejected():
    for bad in (0, 33, 1.5, "1"):
        with pytest.raises(ValueError):
            prn.generate_ca_code(bad)


def test_spreading_code_validation():
    with pytest.raises(ValueError):
        prn.SpreadingCode(prn_id=1, chips=np.ones(1022))
    chips = prn.generate_ca_code(1).chips.copy()
    chips[0] = 0.5
    with pytest.raises(ValueError):
        prn.SpreadingCode(prn_id=1, chips=chips)
    with pytest.raises(ValueError, match=r"prn_id must be in 1\.\.32, got 0"):
        prn.SpreadingCode(prn_id=0, chips=np.ones(prn.CODE_LENGTH))
    with pytest.raises(ValueError, match="chipping_rate_hz must be positive"):
        prn.generate_ca_code(1, chipping_rate_hz=0.0)
