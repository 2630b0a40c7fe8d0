"""The SP 800-22 subset: analytic anchors and pathological inputs."""

import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc

from separ.analysis import (
    approximate_entropy,
    block_frequency,
    cumulative_sums,
    monobit,
    nist_subset,
    runs,
    serial,
)
from separ.analysis import nist
from separ.analysis.nist import (
    MIN_SUBSET_BITS,
    _BLOCK,
    _counts,
    _cusum_p,
    _pattern_counts,
    _sample,
    as_bits,
)
from separ.core import Separ


def random_bits(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def test_as_bits_msb_first():
    bits = as_bits(bytes([0x80, 0x01]))
    assert bits.tolist() == [1] + [0] * 14 + [1]


def test_as_bits_rejects_non_binary():
    with pytest.raises(ValueError):
        as_bits(np.array([0, 1, 2]))


# The values are checked before the cast to uint8, which would read 256
# as 0 and 0.5 as 0.
@pytest.mark.parametrize("bad", [
    np.array([0, 1] * 100 + [2], dtype=np.uint8),
    np.array([1, 255, 0], dtype=np.uint8),
    np.zeros((2, 8), dtype=np.uint8),
    np.array([0, 1, 256]),
    np.array([0.0, 0.5, 1.0]),
    np.array([1, -1]),
    np.array(["0", "1"]),
], ids=["two", "255", "2-d", "256", "half", "minus-one", "strings"])
def test_as_bits_rejects_non_bits_and_shapes(bad):
    with pytest.raises(ValueError, match="one-dimensional 0/1"):
        as_bits(bad)
    with pytest.raises(ValueError, match="one-dimensional 0/1"):
        monobit(bad)


@pytest.mark.parametrize("bits", [
    [1, 0, 1, 1],
    np.array([1, 0, 1, 1], dtype=np.int64),
    np.array([1.0, 0.0, 1.0, 1.0]),
    np.array([True, False, True, True]),
], ids=["list", "int64", "float", "bool"])
def test_as_bits_takes_zeros_and_ones_of_any_numeric_type(bits):
    out = as_bits(bits)
    assert out.dtype == np.uint8 and out.tolist() == [1, 0, 1, 1]


# Any bytes-like object but a numpy array is read as octets, as the
# cipher reads keys and nonces.
@pytest.mark.parametrize("octets", [
    bytearray(b"\x80\x01"),
    memoryview(b"\x80\x01"),
    memoryview(b"\x00\x80\x01")[1:],
    array("B", [0x80, 0x01]),
], ids=["bytearray", "memoryview", "memoryview-slice", "array-B"])
def test_as_bits_reads_bytes_like_objects_as_octets(octets):
    assert as_bits(octets).tolist() == [1] + [0] * 14 + [1]


def test_empty_bits_reach_the_length_guard():
    empty = np.array([], dtype=np.uint8)
    assert as_bits(empty).size == 0
    with pytest.raises(ValueError, match="needs at least 100 bits, got 0"):
        monobit(empty)


# ---------------------------------------------------------------------------
# pattern counts
# ---------------------------------------------------------------------------

def brute_pattern_counts(bits, m):
    """Count each m-bit window of the cyclic sequence, one at a time."""
    text = "".join(str(b) for b in bits)
    text += text[: m - 1]
    counts = np.zeros(1 << m, dtype=np.int64)
    for i in range(len(bits)):
        counts[int(text[i: i + m], 2)] += 1
    return counts


@settings(max_examples=300, deadline=None)
@given(data=st.integers(1, 16).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.integers(0, 1), min_size=m, max_size=300))))
def test_pattern_counts_match_brute_force(data):
    m, values = data
    bits = np.array(values, dtype=np.uint8)
    sample = _sample(bits)
    assert np.array_equal(_counts(sample, m), brute_pattern_counts(bits, m))
    for k in range(m - 1, 0, -1):
        assert np.array_equal(_counts(sample, k), brute_pattern_counts(bits, k))
    assert _counts(sample, 0).tolist() == [bits.size]


def wrapped_pattern_counts(bits, m):
    """Each m-bit window of the cyclic sequence as an integer, all at once."""
    wrapped = np.concatenate([bits, bits[: m - 1]]).astype(np.int64)
    values = np.zeros(bits.size, dtype=np.int64)
    for k in range(m):
        values = values << 1 | wrapped[k: k + bits.size]
    return np.bincount(values, minlength=1 << m)


# The counts run _BLOCK octets at a time, and the last blocks read the
# n % 8 tail bits and the m - 1 wrap bits: lengths on either side of one
# and two blocks, with every kind of tail.
@pytest.mark.parametrize("n", [8 * _BLOCK - 1, 8 * _BLOCK, 8 * _BLOCK + 1, 8 * _BLOCK + 7,
                               16 * _BLOCK + 60, 16 * _BLOCK + 67])
@pytest.mark.parametrize("m", [1, 2, 9, 16])
def test_pattern_counts_across_blocks(n, m):
    bits = random_bits(n, seed=n + m)
    assert np.array_equal(_pattern_counts(bits, m), wrapped_pattern_counts(bits, m))


def sample_bits(n, seed, p):
    return (np.random.default_rng(seed).random(n) < p).astype(np.uint8)


# Serial keeps its count on the sample; every shorter count, monobit's,
# runs' and approximate entropy's among them, is read from it.
@settings(max_examples=60, deadline=None)
@given(n=st.integers(1000, 20 * _BLOCK), seed=st.integers(0, 2 ** 32 - 1),
       p=st.sampled_from([0.5, 0.45, 0.1]))
def test_shorter_counts_are_marginals_of_serials(n, seed, p):
    bits = sample_bits(n, seed, p)
    sample = _sample(bits)
    serial(sample)
    m = min(16, int(math.log2(n)) - 3)
    assert sample.counts[0] == m
    for k in range(1, m + 1):
        assert np.array_equal(_counts(sample, k), _pattern_counts(bits, k))
    assert sample.counts[0] == m  # the shorter counts did not replace it


def test_nist_subset_takes_one_pattern_count(monkeypatch):
    taken = []

    def counted(data, m):
        taken.append(m)
        return _pattern_counts(data, m)

    monkeypatch.setattr(nist, "_pattern_counts", counted)
    nist_subset(random_bits(10 ** 6, seed=6))
    assert taken == [16]


# ---------------------------------------------------------------------------
# analytic anchors
# ---------------------------------------------------------------------------

def test_monobit_sixty_ones_in_hundred():
    bits = np.concatenate([np.ones(60, dtype=np.uint8),
                           np.zeros(40, dtype=np.uint8)])
    rep = monobit(bits)
    # |S| = 20, s_obs = 2.0, p = erfc(sqrt(2))
    assert rep.statistic == pytest.approx(2.0)
    assert rep.p_value == pytest.approx(float(erfc(math.sqrt(2))))
    assert rep.p_value == pytest.approx(0.0455, abs=5e-4)


def test_monobit_balanced_is_one():
    bits = np.array([0, 1] * 50, dtype=np.uint8)
    assert monobit(bits).p_value == pytest.approx(1.0)


def test_monobit_all_ones_fails():
    rep = monobit(np.ones(100_000, dtype=np.uint8))
    assert rep.p_value < 1e-10
    assert not rep.passed


def test_block_frequency_balanced_blocks():
    bits = np.array([0, 1] * 50, dtype=np.uint8)
    rep = block_frequency(bits, block_size=10)
    assert rep.statistic == pytest.approx(0.0)
    assert rep.p_value == pytest.approx(1.0)


def test_block_frequency_biased_blocks_fail():
    bits = np.concatenate([np.ones(5000, dtype=np.uint8),
                           np.zeros(5000, dtype=np.uint8)])
    rep = block_frequency(bits, block_size=100)
    assert not rep.passed


def test_runs_alternating_fails():
    bits = np.array([0, 1] * 50_000, dtype=np.uint8)
    assert monobit(bits).passed          # balance is perfect
    rep = runs(bits)
    assert rep.p_value < 1e-10 and not rep.passed


def test_runs_prerequisite_failure_reports_zero():
    rep = runs(np.ones(1000, dtype=np.uint8))
    assert rep.p_value == 0.0 and not rep.passed


def test_serial_alternating_fails():
    bits = np.array([0, 1] * 50_000, dtype=np.uint8)
    assert not serial(bits, m=5).passed


def test_approximate_entropy_constant_fails():
    assert not approximate_entropy(np.zeros(10_000, dtype=np.uint8), m=3).passed


def test_cumulative_sums_all_ones_fails():
    rep = cumulative_sums(np.ones(10_000, dtype=np.uint8))
    assert rep.statistic == 10_000
    assert rep.p_value < 1e-10


def test_cusum_statistic_is_max_excursion():
    # +1 +1 +1 -1 -1 -1 -1 : forward max |S_k| = 3, backward 1... take max
    bits = np.array([1, 1, 1, 0, 0, 0, 0] * 20, dtype=np.uint8)
    rep = cumulative_sums(np.concatenate([bits, random_bits(60, 3)]))
    assert rep.statistic >= 3


def walk_excursion(steps):
    walk = excursion = 0
    for step in steps:
        walk += step
        excursion = max(excursion, abs(walk))
    return excursion


# The walk is taken an octet at a time, with the last n % 8 bits stepped
# one by one: lengths 100-107 and 5001-5007 leave every remainder.
@pytest.mark.parametrize("bits", [
    random_bits(5_000, seed=21),
    (np.random.default_rng(22).random(5_000) < 0.3).astype(np.uint8),
    (np.random.default_rng(23).random(5_000) < 0.55).astype(np.uint8),
    np.array([0] * 300 + [1] * 700, dtype=np.uint8),  # backward walk is longer
    *(random_bits(n, seed=n) for n in range(100, 108)),
    *((np.random.default_rng(n).random(n) < 0.45).astype(np.uint8) for n in range(5001, 5008)),
    np.ones(1003, dtype=np.uint8),
    np.zeros(1005, dtype=np.uint8),
    random_bits(16 * _BLOCK + 5, seed=24),
    (np.random.default_rng(25).random(16 * _BLOCK + 3) < 0.501).astype(np.uint8),
], ids=["random", "biased-0.3", "biased-0.55", "down-then-up",
        *(f"random-{n}" for n in range(100, 108)),
        *(f"biased-0.45-{n}" for n in range(5001, 5008)),
        "all-ones", "all-zeros", "random-two-blocks", "biased-two-blocks"])
def test_cumulative_sums_matches_reversed_walk(bits):
    steps = [2 * int(b) - 1 for b in bits]
    z_fwd = walk_excursion(steps)
    z_bwd = walk_excursion(reversed(steps))
    p = min(_cusum_p(z_fwd, bits.size), _cusum_p(z_bwd, bits.size))
    rep = cumulative_sums(bits)
    assert rep.statistic == max(z_fwd, z_bwd)
    assert rep.p_value == min(max(float(p), 0.0), 1.0)


# Block ones come from the ones before the block edges, read from packed
# octets a block at a time, and monobit and runs from the cyclic pattern
# counts, less the pair that wraps: check them against their definitions
# on the unpacked bits, on lengths that cross blocks and leave a tail,
# and on short ones whose first and last bits are equal and unequal.
@pytest.mark.parametrize("block_size, n", [
    *((block_size, n) for block_size in (None, 7, 20, 8 * _BLOCK - 5)
      for n in (8 * _BLOCK - 1, 8 * _BLOCK + 1, 16 * _BLOCK + 7, 100_003)),
    *((block_size, n) for block_size in (None, 7, 20) for n in range(100, 108)),
])
def test_block_frequency_and_runs_match_their_definitions(n, block_size):
    bits = random_bits(n, seed=n)
    m = block_size or max(20, n // 100 + 1)
    pi = bits[: n // m * m].reshape(-1, m).mean(axis=1)
    assert block_frequency(bits, block_size).statistic == 4.0 * m * float(((pi - 0.5) ** 2).sum())
    assert runs(bits).statistic == 1 + np.count_nonzero(np.diff(bits))
    assert monobit(bits).statistic == abs(2 * int(bits.sum()) - n) / math.sqrt(n)


# ---------------------------------------------------------------------------
# behaviour on good randomness
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("test_fn", [
    monobit, block_frequency, runs, serial, approximate_entropy,
    cumulative_sums,
], ids=lambda f: f.__name__)
def test_passes_system_randomness(test_fn):
    bits = random_bits(200_000, seed=11)
    rep = test_fn(bits)
    assert rep.passed, str(rep)
    assert rep.n_bits == 200_000


def test_nist_subset_runs_all_six():
    bits = random_bits(100_000, seed=5)
    reports = nist_subset(bits)
    names = [r.name for r in reports]
    assert names == ["monobit", "block_frequency", "runs", "serial",
                     "approximate_entropy", "cumulative_sums"]
    assert all(0 <= r.p_value <= 1 for r in reports)


def test_nist_subset_pinned_keystream_sample():
    key = bytes.fromhex(
        "E8B9B733DA5D96D702DD3972E95307FD50C512DBF44A233E8D1E9DF5FC7D6371")
    sample = Separ(key).keystream(bytes(range(16)), 62_500)  # 10^6 bits
    reports = [(r.name, r.statistic, r.p_value, r.passed, r.n_bits)
               for r in nist_subset(sample)]
    assert reports == [
        ("monobit", 0.022, 0.9824479555386767, True, 1_000_000),
        ("block_frequency", 102.62763723627641, 0.3813337622018166, True, 1_000_000),
        ("runs", 500427.0, 0.3931047209821007, True, 1_000_000),
        ("serial", 32873.97171199997, 0.20361127074722127, True, 1_000_000),
        ("approximate_entropy", 1004.3958084684501, 0.6632084602857506, True, 1_000_000),
        ("cumulative_sums", 559.0, 0.975437080940188, True, 1_000_000),
    ]


# nist_subset packs its sample once and shares serial's count with
# approximate entropy; each test on its own must give the same reports.
@settings(max_examples=20, deadline=None)
@given(n=st.integers(MIN_SUBSET_BITS, MIN_SUBSET_BITS + 40_000), seed=st.integers(0, 2 ** 32 - 1),
       p=st.sampled_from([0.5, 0.497, 0.45]))
def test_nist_subset_equals_the_six_tests_one_by_one(n, seed, p):
    bits = sample_bits(n, seed, p)
    assert nist_subset(bits) == [monobit(bits), block_frequency(bits), runs(bits),
                                 serial(bits), approximate_entropy(bits), cumulative_sums(bits)]


@settings(max_examples=20, deadline=None)
@given(size=st.integers(MIN_SUBSET_BITS // 8, MIN_SUBSET_BITS // 8 + 5000),
       seed=st.integers(0, 2 ** 32 - 1), p=st.sampled_from([0.5, 0.497, 0.45]))
def test_nist_subset_of_octets_equals_nist_subset_of_their_bits(size, seed, p):
    data = np.packbits(sample_bits(8 * size, seed, p)).tobytes()
    assert nist_subset(data) == nist_subset(as_bits(data))


def test_nist_subset_length_guard():
    with pytest.raises(ValueError):
        nist_subset(random_bits(50_000))


def test_individual_length_guards():
    short = random_bits(50)
    for fn in (monobit, block_frequency, runs, cumulative_sums):
        with pytest.raises(ValueError):
            fn(short)
    for fn in (serial, approximate_entropy):
        with pytest.raises(ValueError):
            fn(random_bits(500))
    for block_size in (0, -3):
        with pytest.raises(ValueError, match=f"block size must be at least 1, got {block_size}"):
            block_frequency(random_bits(1000), block_size)


def test_serial_parameter_validation():
    bits = random_bits(10_000)
    with pytest.raises(ValueError):
        serial(bits, m=1)
    with pytest.raises(ValueError):
        serial(bits, m=13)  # needs m < log2(n) - 2


def test_accepts_octet_input():
    rng = random.Random(9)
    data = rng.randbytes(25_000)
    rep = monobit(data)
    assert rep.n_bits == 200_000
    expected = nist_subset(data)
    for octets in (bytearray(data), memoryview(data), array("B", data)):
        assert nist_subset(octets) == expected
