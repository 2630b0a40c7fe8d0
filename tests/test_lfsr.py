"""LFSR feedback configuration and clocking."""

import random

import numpy as np
import pytest

from reference_oracle import ref_lfsr_step
from separ.core import DEFAULT_LFSR, LfsrSpec, _is_maximal_length, _lfsr_next, lfsr_clock


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


def _walk_is_maximal(taps: int) -> bool:
    """The reference: clock the register from state 1 until it returns,
    and ask whether that took 2**16 - 1 steps."""
    nxt = _lfsr_next.__wrapped__(taps)
    state = 1
    for step in range(1, 1 << 16):
        state = nxt[state]
        if state == 1:
            return step == (1 << 16) - 1
    return False


# 0xD008 and 0xB400 (maximal), 0x5008 (no bit 15: a singular clock),
# 0x8000 (bit 15 set, period 16), then seeded random masks.
_ORDER_TEST_MASKS = [0xD008, 0xB400, 0x5008, 0x8000,
                     *random.Random(26).sample(range(1, 1 << 16), 200)]


def test_order_test_agrees_with_the_walk():
    """The primitivity test accepts exactly the masks whose register,
    clocked from 1, first returns after 2**16 - 1 steps."""
    verdicts = {taps: _is_maximal_length.__wrapped__(taps) for taps in _ORDER_TEST_MASKS}
    assert verdicts == {taps: _walk_is_maximal(taps) for taps in _ORDER_TEST_MASKS}
    assert verdicts[0xD008] and verdicts[0xB400]
    assert not verdicts[0x5008] and not verdicts[0x8000]
    assert 0 < sum(verdicts.values()) < len(verdicts)
