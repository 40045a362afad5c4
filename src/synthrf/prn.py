"""GPS L1 C/A spreading code (Gold code) generation."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

CODE_LENGTH = 1023
DEFAULT_CHIPPING_RATE_HZ = 1.023e6

# PRN -> G2 phase-select tap pair (1-based register positions), per ICD-GPS-200.
G2_TAP_PAIRS = {
    1: (2, 6), 2: (3, 7), 3: (4, 8), 4: (5, 9),
    5: (1, 9), 6: (2, 10), 7: (1, 8), 8: (2, 9),
    9: (3, 10), 10: (2, 3), 11: (3, 4), 12: (5, 6),
    13: (6, 7), 14: (7, 8), 15: (8, 9), 16: (9, 10),
    17: (1, 4), 18: (2, 5), 19: (3, 6), 20: (4, 7),
    21: (5, 8), 22: (6, 9), 23: (1, 3), 24: (4, 6),
    25: (5, 7), 26: (6, 8), 27: (7, 9), 28: (8, 10),
    29: (1, 6), 30: (2, 7), 31: (3, 8), 32: (4, 9),
}


@dataclass(frozen=True)
class SpreadingCode:
    """A 1023-chip +/-1 spreading sequence with its chipping rate."""

    prn_id: int
    chips: np.ndarray
    chipping_rate_hz: float = DEFAULT_CHIPPING_RATE_HZ

    def __post_init__(self):
        chips = np.asarray(self.chips, dtype=np.float64)
        object.__setattr__(self, "chips", chips)
        if not 1 <= int(self.prn_id) <= 32:
            raise ValueError(f"prn_id must be in 1..32, got {self.prn_id}")
        if chips.shape != (CODE_LENGTH,):
            raise ValueError(f"code must have exactly {CODE_LENGTH} chips")
        if not np.all(np.abs(chips) == 1.0):
            raise ValueError("chips must all be +1 or -1")
        if self.chipping_rate_hz <= 0:
            raise ValueError("chipping_rate_hz must be positive")


@lru_cache(maxsize=1)
def _g1_g2() -> tuple[bytes, ...]:
    """G1 and G2 output bits over one period: 10-stage maximal LFSRs seeded all-ones,
    G1 with feedback taps (3, 10) and G2 with (2, 3, 6, 8, 9, 10); stage 10 is the output."""
    g1, g2, out = [1] * 10, [1] * 10, []
    for _ in range(CODE_LENGTH):
        out.append((g1[9], g2[9]))
        g1 = [g1[2] ^ g1[9]] + g1[:-1]
        g2 = [g2[1] ^ g2[2] ^ g2[5] ^ g2[7] ^ g2[8] ^ g2[9]] + g2[:-1]
    return tuple(bytes(bits) for bits in zip(*out))  # immutable: shared by every caller


def generate_ca_code(prn_id: int,
                     chipping_rate_hz: float = DEFAULT_CHIPPING_RATE_HZ) -> SpreadingCode:
    """Generate the standard GPS L1 C/A Gold code for a PRN.

    The output chip is the G1 output XORed with the PRN-specific G2 phase, the
    XOR of two G2 stages; stage t holds the G2 output 10 - t chips ahead.
    Bits map {0 -> +1, 1 -> -1}.
    """
    if not isinstance(prn_id, (int, np.integer)) or not 1 <= prn_id <= 32:
        raise ValueError(f"prn_id must be an integer in 1..32, got {prn_id!r}")
    t1, t2 = G2_TAP_PAIRS[int(prn_id)]
    g1, g2 = (np.frombuffer(bits, dtype=np.int8) for bits in _g1_g2())
    i = np.arange(CODE_LENGTH)
    bits = g1 ^ g2[(i + 10 - t1) % CODE_LENGTH] ^ g2[(i + 10 - t2) % CODE_LENGTH]
    return SpreadingCode(prn_id=int(prn_id), chips=1.0 - 2.0 * bits,
                         chipping_rate_hz=chipping_rate_hz)
