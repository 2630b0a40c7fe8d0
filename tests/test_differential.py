"""Differential counting and characteristic search."""

import hashlib
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_subkeys
from separ.analysis import (
    b16_round_table,
    characteristic_search,
    compute_ddt,
    diff_count,
    diff_spectrum,
)
from separ.core import (
    R,
    SBOXES,
    ZERO_SUBKEYS,
    inv_linear_diffusion,
    inv_nibble_mix,
    linear_diffusion,
    nibble_mix,
)

DDTS = [compute_ddt(box).counts for box in SBOXES]


def reverify_probability(ch):
    """Recompute a characteristic's probability from first principles:
    invert the linear layers and multiply the raw DDT entries."""
    p = Fraction(1)
    for i in range(ch.rounds):
        pre = ch.differences[i]
        post = inv_nibble_mix(inv_linear_diffusion(ch.differences[i + 1]))
        for pos in range(4):
            a = (pre >> (4 * pos)) & 0xF
            b = (post >> (4 * pos)) & 0xF
            if a == 0 and b == 0:
                continue
            if a == 0 or DDTS[pos][a][b] == 0:
                return None
            p *= Fraction(int(DDTS[pos][a][b]), 16)
    return p


# ---------------------------------------------------------------------------
# diff_count
# ---------------------------------------------------------------------------

def test_b16_round_table_matches_scalar_layers(rng):
    from separ.core import linear_diffusion, nibble_mix, sbox_layer
    key = rng.randrange(1 << 16)
    table = b16_round_table(key)
    for _ in range(500):
        m = rng.randrange(1 << 16)
        assert int(table[m]) == linear_diffusion(nibble_mix(sbox_layer(m ^ key)))


def test_diff_count_rejects_zero_difference():
    with pytest.raises(ValueError):
        diff_count(ZERO_SUBKEYS, 0, 0, 1)


def test_diff_count_rejects_bad_iterations():
    with pytest.raises(ValueError):
        diff_count(ZERO_SUBKEYS, 1, 0, 0)
    with pytest.raises(ValueError):
        diff_count(ZERO_SUBKEYS, 1, 0, 6)


def test_diff_spectrum_partition(rng):
    for iterations in (1, 3):
        a = rng.randrange(1, 1 << 16)
        spec = diff_spectrum(ZERO_SUBKEYS, a, iterations)
        assert int(spec.sum()) == 1 << 16
        assert (spec % 2 == 0).all()  # pairs (x, x^a) come in twos


def test_diff_count_matches_brute_force(rng):
    sk = random_subkeys(rng)
    a = rng.randrange(1, 1 << 16)
    table = b16_round_table(sk.sk1)
    x = np.arange(1 << 16)
    diffs = table[x] ^ table[x ^ a]
    b = int(diffs[rng.randrange(1 << 16)])
    assert diff_count(sk, a, b, 1) == int((diffs == b).sum())


@pytest.mark.parametrize("iterations", range(1, 6))
def test_diff_spectrum_matches_scalar_round_chain(rng, iterations):
    """diff_spectrum over r rounds is the brute-force count over the
    scalar composition on core.R, keyed by sk1..skr in order."""
    sk = random_subkeys(rng, iterations)
    f = list(range(1 << 16))
    for key in sk.keys[:iterations]:
        f = [R[v ^ key] for v in f]
    a = rng.randrange(1, 1 << 16)
    spec = diff_spectrum(sk, a, iterations)
    x0 = rng.randrange(1 << 16)
    for b in (f[x0] ^ f[x0 ^ a], rng.randrange(1 << 16)):
        assert int(spec[b]) == sum(f[x] ^ f[x ^ a] == b for x in range(1 << 16))


def test_diff_count_sampled_max_small(rng):
    """Uniformly random differences do not transit 4 chained rounds with
    large counts.  (Crafted single-nibble differences at the trail-
    preserving position do: that is the design's published weak spot.)"""
    worst = 0
    for _ in range(12):
        a = rng.randrange(1, 1 << 16)
        spec = diff_spectrum(ZERO_SUBKEYS, a, 4)
        worst = max(worst, int(spec.max()))
    assert worst <= 128


def test_diff_count_key_dependence(rng):
    sk = random_subkeys(rng)
    spec_zero = diff_spectrum(ZERO_SUBKEYS, 0x0021, 2)
    spec_rand = diff_spectrum(sk, 0x0021, 2)
    assert int(spec_zero.sum()) == int(spec_rand.sum()) == 1 << 16


# ---------------------------------------------------------------------------
# characteristic search
# ---------------------------------------------------------------------------

def test_search_single_round_census():
    chars = characteristic_search(1, Fraction(1, 4))
    # every maximal DDT cell (18 per box, 4 boxes) is one characteristic
    assert len(chars) == 72
    assert all(c.probability == Fraction(1, 4) for c in chars)
    assert all(bin(c.differences[0]).count("1") <= 4 for c in chars)


def single_round_tally(sboxes, p_min):
    """The number of one-round characteristics at p >= p_min, counted
    from the DDTs alone: each nibble is inactive or takes any nonzero
    DDT cell of a nonzero input, and at least one nibble is active.  The
    linear layers are a bijection, so each combination is one
    characteristic."""
    combos = Counter({(1, 0): 1})  # (count product, active S-boxes)
    for box in sboxes:
        ddt = compute_ddt(box).counts
        cells = Counter(int(c) for c in ddt[1:].ravel() if c)
        grown = Counter()
        for (product, k), n in combos.items():
            grown[product, k] += n
            for c, m in cells.items():
                grown[product * c, k + 1] += n * m
        combos = grown
    return sum(n for (product, k), n in combos.items()
               if k and Fraction(product, 16 ** k) >= p_min)


@pytest.mark.parametrize("sboxes, p_min, expected", [
    (SBOXES, Fraction(1, 4), 72),
    (SBOXES, Fraction(1, 8), 408),
    (SBOXES, Fraction(1, 16), 2352),
    ((tuple(range(14)) + (15, 14),) * 4, Fraction(1, 2), 5167),
], ids=["1/4", "1/8", "1/16", "weak 1/2"])
def test_search_single_round_counts_from_the_ddts(sboxes, p_min, expected):
    """Below 1/4 a root can have several active nibbles, so these
    thresholds reach roots that the 1/4 census never visits."""
    assert single_round_tally(sboxes, p_min) == expected
    assert len(characteristic_search(1, p_min, sboxes)) == expected


def test_search_probabilities_are_ddt_products():
    for rounds, p_min in ((1, Fraction(1, 4)), (2, Fraction(1, 16))):
        for ch in characteristic_search(rounds, p_min):
            assert reverify_probability(ch) == ch.probability


def test_search_sorted_descending():
    chars = characteristic_search(5, Fraction(1, 2048))
    probs = [c.probability for c in chars]
    assert probs == sorted(probs, reverse=True)


def test_search_known_five_round_trails():
    """The two published five-round trails survive at the trail-
    preserving nibble position with exact DDT-product probability."""
    chars = characteristic_search(5, Fraction(1, 2048))
    by_ends = {(c.differences[0], c.differences[-1]): c for c in chars}
    first = by_ends[(0x0300, 0x0500)]
    second = by_ends[(0x0700, 0x0D00)]
    assert first.probability == Fraction(1, 2048)
    assert second.probability == Fraction(1, 2048)
    assert reverify_probability(first) == first.probability
    assert reverify_probability(second) == second.probability
    # the trails stay confined to the third hex digit the whole way
    for ch in (first, second):
        assert all(d & 0xF0FF == 0 for d in ch.differences)


def test_search_five_round_best_probability():
    chars = characteristic_search(5, Fraction(1, 2048))
    assert chars[0].probability == Fraction(1, 1024)


def test_search_output_is_pinned():
    """Content and order of the search output, frozen: the r=5 digest is
    the benchmark's TRAILS_R5_SHA256."""
    chars = characteristic_search(5, Fraction(1, 2048))
    digest = hashlib.sha256("\n".join(map(str, chars)).encode()).hexdigest()
    assert digest == "26436943561482331a1efd7102b3107a2ba6aabcbc42d9e4a5f7a711a7819b1b"
    assert len(characteristic_search(2, Fraction(1, 64))) == 1469
    chars = characteristic_search(3, Fraction(1, 1024))
    assert len(chars) == 14318
    digest = hashlib.sha256("\n".join(map(str, chars)).encode()).hexdigest()
    assert digest == "9fbdb4228ee45410c6a82a38295448730a09d4448ccfcc0536eda238c41f2c4a"


def test_search_in_bounded_memory():
    """The bound reads 256-entry tables per octet of a difference, so a
    five-round search holds little beyond the trails it returns."""
    characteristic_search(5, Fraction(1, 2048))
    tracemalloc.start()
    try:
        characteristic_search(5, Fraction(1, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_bound_follows_the_given_sboxes():
    """A box whose DDT holds a 16 lets a round cost nothing, so the bound
    on the remaining rounds must come from the boxes, not be fixed at
    1/4: with 1/4 the p = 1 trails were lost at p_min = 1/2 and every
    trail below p = 1 at p_min = 1/4."""
    weak = tuple(range(14)) + (15, 14)  # x -> x ^ 1 always gives 1

    def step(d):
        return linear_diffusion(nibble_mix(d))

    # the only count-16 cell is 1 -> 1, so a p = 1 trail keeps every
    # nibble of every difference but the last in {0, 1}
    certain = {(d, step(d), step(step(d))) for d in range(1, 1 << 16)
               if (d | step(d)) & 0xEEEE == 0}
    assert len(certain) == 15
    # the least probabilities are those an unbounded search finds
    for p_min, least in ((Fraction(1, 4), Fraction(81, 256)),
                         (Fraction(1, 2), Fraction(9, 16))):
        chars = characteristic_search(2, p_min, (weak,) * 4)
        assert {c.differences for c in chars if c.probability == 1} == certain
        assert chars[-1].probability == least


def test_search_rejects_bad_arguments():
    with pytest.raises(ValueError):
        characteristic_search(0, Fraction(1, 4))
    with pytest.raises(ValueError):
        characteristic_search(6, Fraction(1, 4))
    with pytest.raises(ValueError):
        characteristic_search(1, Fraction(0))
    with pytest.raises(ValueError):
        characteristic_search(1, Fraction(2))


def test_search_empty_result_is_valid():
    assert characteristic_search(2, Fraction(1, 2)) == []
    # p_min is compared as given: a threshold just above 1/4 keeps none
    # of the 72 characteristics of probability exactly 1/4
    assert characteristic_search(1, Fraction(2 ** 64 + 1, 2 ** 66)) == []


def test_top_characteristic_monte_carlo(rng):
    """The best five-round trail holds empirically within 3 sigma."""
    top = characteristic_search(5, Fraction(1, 1024))[0]
    trail = top.differences
    keys = 30
    hits = 0
    total = keys * (1 << 16)
    for _ in range(keys):
        sk = random_subkeys(rng)
        round_keys = [sk.sk1, sk.sk2, sk.sk3, sk.sk4, sk.sk5]
        x = np.arange(1 << 16, dtype=np.uint16)
        y = x ^ trail[0]
        alive = np.ones(1 << 16, dtype=bool)
        for rnd, key in enumerate(round_keys, start=1):
            table = b16_round_table(key)
            x = table[x]
            y = table[y]
            alive &= (x ^ y) == trail[rnd]
        hits += int(alive.sum())
    expected = float(top.probability) * total
    sigma = (total * float(top.probability) * (1 - float(top.probability))) ** 0.5
    assert abs(hits - expected) <= 3 * sigma
