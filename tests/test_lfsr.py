"""LFSR feedback configuration and clocking."""

import numpy as np
import pytest

from reference_oracle import ref_lfsr_step
from separ.core import DEFAULT_LFSR, LfsrSpec, _lfsr_next, lfsr_clock


def lfsr_period(seed: int, spec: LfsrSpec = DEFAULT_LFSR) -> int:
    state = lfsr_clock(seed, spec)
    steps = 1
    while state != seed:
        state = lfsr_clock(state, spec)
        steps += 1
    return steps


def test_default_taps_and_polynomial():
    assert DEFAULT_LFSR.taps == 0xD008


def test_period_from_one():
    assert lfsr_period(0x0001) == 65535


def test_period_from_random_seeds(rng):
    for _ in range(8):
        seed = rng.randrange(1, 1 << 16)
        assert lfsr_period(seed) == 65535


def test_never_reaches_zero_full_cycle():
    state = 0x0001
    for _ in range(65535):
        state = lfsr_clock(state)
        assert state != 0


def test_no_short_cycle():
    s0 = 0x0001
    assert lfsr_clock(lfsr_clock(s0)) != s0


def test_zero_state_rejected():
    for bad in (0, 0x10000, -1):
        with pytest.raises(ValueError):
            lfsr_clock(bad)


def test_successor_table_matches_oracle():
    nxt = _lfsr_next(DEFAULT_LFSR.taps)
    assert len(nxt) == 1 << 16 and nxt[0] == 0
    assert all(nxt[x] == ref_lfsr_step(x) for x in range(1, 1 << 16))


def test_successor_table_other_taps():
    """Against a bit-by-bit step: shift left, the parity of the tapped
    bits (15, 13, 12, 10 for 0xB400) entering at bit 0."""
    nxt = _lfsr_next(0xB400)
    for x in range(1, 1 << 16):
        fb = ((x >> 15) ^ (x >> 13) ^ (x >> 12) ^ (x >> 10)) & 1
        assert nxt[x] == ((x << 1) & 0xFFFF) | fb


def test_successor_table_builds_without_numpy2_api(monkeypatch):
    """The package declares numpy>=1.23, which has no ``bitwise_count``
    (added in NumPy 2.0): the table must build without it."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert _lfsr_next.__wrapped__(DEFAULT_LFSR.taps) == _lfsr_next(DEFAULT_LFSR.taps)


@pytest.mark.parametrize("taps", [0x0001, 0x0003, 0xFFFF])
def test_non_maximal_taps_rejected(taps):
    with pytest.raises(ValueError):
        LfsrSpec(taps=taps)


def test_alternative_maximal_taps_accepted():
    # x^16 + x^14 + x^13 + x^11 + 1, another maximal-length polynomial
    spec = LfsrSpec(taps=0xB400)
    assert lfsr_period(1, spec) == 65535
