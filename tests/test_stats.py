"""Avalanche, entropy, histogram, autocorrelation, periodicity."""

import base64
import math
import random
import tracemalloc
from array import array
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from separ.analysis import (
    autocorrelation,
    avalanche,
    entropy,
    histogram,
    nist_subset,
    periodicity,
)
from separ.analysis import stats
from separ.analysis.stats import PeriodicityReport, hamming_distance
from separ.core import OddLengthError, Separ

KEY = bytes.fromhex(
    "E8B9B733DA5D96D702DD3972E95307FD50C512DBF44A233E8D1E9DF5FC7D6371")
IV = bytes(16)
PT = bytes.fromhex("156F19E18FE6297519A352C45731536A")


# ---------------------------------------------------------------------------
# avalanche
# ---------------------------------------------------------------------------

def test_avalanche_deterministic():
    a = avalanche(KEY, IV, PT, "plaintext", 3)
    b = avalanche(KEY, IV, PT, "plaintext", 3)
    assert a == b
    assert a.total_bits == 128


def test_avalanche_regression_vectors():
    """Frozen distances for the stored key/IV/plaintext triple."""
    assert avalanche(KEY, IV, PT, "plaintext", 3).distance == 31
    assert avalanche(KEY, IV, PT, "key", 203).distance == 54
    assert avalanche(KEY, IV, PT, "iv", 19).distance == 50


def test_avalanche_flip_changes_something():
    rep = avalanche(KEY, IV, PT, "plaintext", 0)
    assert rep.distance > 0
    assert rep.base_ct != rep.flipped_ct


def test_avalanche_low_nibble_flips_diffuse_fully(rng):
    """Bits 12..15 of the first word reach every later position; their
    mean distance sits near half of 128."""
    total = 0
    trials = 100
    for _ in range(trials):
        pt = rng.randbytes(16)
        bit = 12 + rng.randrange(4)
        total += avalanche(KEY, IV, pt, "plaintext", bit).distance
    assert 54 <= total / trials <= 74


def test_avalanche_rejects_bad_input():
    with pytest.raises(ValueError):
        avalanche(KEY, IV, PT, "plaintext", 128)
    with pytest.raises(ValueError):
        avalanche(KEY, IV, PT, "ciphertext", 0)
    with pytest.raises(OddLengthError):  # the cipher's rule, a ValueError
        avalanche(KEY, IV, PT[:-1], "plaintext", 0)


def test_hamming_distance():
    assert hamming_distance(b"\x00\x00", b"\xff\x00") == 8
    with pytest.raises(ValueError):
        hamming_distance(b"\x00", b"\x00\x00")


# ---------------------------------------------------------------------------
# entropy and histogram
# ---------------------------------------------------------------------------

def test_entropy_uniform_exact():
    assert entropy(bytes(range(256))) == 8.0


def test_entropy_constant_zero():
    assert entropy(b"\x42" * 1000) == 0.0


def test_entropy_empty_rejected():
    with pytest.raises(ValueError):
        entropy(b"")


def test_entropy_monotonic_under_merge(rng):
    data = rng.randbytes(4096)
    merged = bytes(b & 0xFE for b in data)  # 256 -> 128 symbols
    assert entropy(merged) <= entropy(data) + 1e-12


def test_histogram_counts():
    empty = histogram(b"")
    assert empty.shape == (256,) and empty.dtype == np.intp and (empty == 0).all()
    h = histogram(b"\x00\x00\xff")
    assert h[0] == 2 and h[255] == 1 and h.sum() == 3


def test_histogram_sums_to_length(rng):
    # Lengths of one block of octets, one either side, and several blocks.
    for n in (10_000, stats._BLOCK - 1, stats._BLOCK, stats._BLOCK + 1, 3 * stats._BLOCK + 5):
        data = rng.randbytes(n)
        h = histogram(data)
        assert h.dtype == np.intp and int(h.sum()) == len(data)
        counts = Counter(data)
        assert h.tolist() == [counts[v] for v in range(256)]


# Any bytes-like input is read in place as its octets, whatever its item
# format: array('H') holds 2048 items here, and a copy of a 1 MiB
# bytearray would take 1 MiB.  Only a strided view is copied.
def test_kernels_read_any_bytes_like_as_octets(rng):
    data = rng.randbytes(4096)
    spread = bytearray(2 * len(data))
    spread[::2] = data
    for octets in (bytearray(data), memoryview(data), array("H", data), memoryview(spread)[::2]):
        assert np.array_equal(histogram(octets), histogram(data))
        assert entropy(octets) == entropy(data)
        assert np.array_equal(autocorrelation(octets, 4), autocorrelation(data, 4))
    assert traced_peak(entropy, bytearray(1 << 20)) < 1 << 20


def test_keystream_entropy_and_histogram_uniformity():
    from separ.core import Separ
    stream = Separ(KEY).keystream(bytes(range(16)), 500_000)  # 10^6 octets
    assert entropy(stream) >= 7.99
    counts = histogram(stream)
    assert int(counts.min()) > 0
    assert counts.max() / counts.min() < 1.25


# ---------------------------------------------------------------------------
# autocorrelation
# ---------------------------------------------------------------------------

def test_autocorrelation_periodic_input():
    data = bytes([0, 1] * 500)
    corr = autocorrelation(data, 4)
    assert corr[1] == pytest.approx(1.0)   # lag 2: exact period
    assert corr[0] == pytest.approx(-1.0)  # lag 1: anti-phase
    assert corr[3] == pytest.approx(1.0)


def test_autocorrelation_constant_is_nan():
    corr = autocorrelation(b"\x07" * 100, 3)
    assert all(math.isnan(c) for c in corr)


def test_autocorrelation_random_is_small(rng):
    data = rng.randbytes(100_000)
    corr = autocorrelation(data, 64)
    assert np.nanmax(np.abs(corr)) < 0.02


def test_autocorrelation_bad_lag():
    with pytest.raises(ValueError):
        autocorrelation(b"\x00" * 10, 10)
    with pytest.raises(ValueError):
        autocorrelation(b"\x00" * 10, 0)


def test_autocorrelation_matches_numpy(rng):
    data = rng.randbytes(2000)
    corr = autocorrelation(data, 5)
    x = np.frombuffer(data, dtype=np.uint8).astype(float)
    for lag in range(1, 6):
        expected = np.corrcoef(x[:-lag], x[lag:])[0, 1]
        assert corr[lag - 1] == pytest.approx(expected, abs=1e-12)


def reference_autocorrelation(data, max_lag):
    """One np.dot per lag over prefix-sum normalisation: the loop the
    blocked matrix products replaced, kept as the reference."""
    n = len(data)
    x = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.float64)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    csum2 = np.concatenate([[0.0], np.cumsum(x * x)])
    out = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        m = n - lag
        sa, sa2 = csum[m], csum2[m]
        sb = csum[n] - csum[lag]
        sb2 = csum2[n] - csum2[lag]
        dot = float(np.dot(x[:m], x[lag:]))
        cov = dot - sa * sb / m
        var_a = sa2 - sa * sa / m
        var_b = sb2 - sb * sb / m
        if var_a <= 0 or var_b <= 0:
            out[lag - 1] = math.nan
        else:
            out[lag - 1] = cov / math.sqrt(var_a * var_b)
    return out


# Random stretches and constant runs: the runs make some lags' slices
# constant, where the correlation is NaN.  Lengths reach past three
# blocks of rows, so partial last rows and lags past one block occur.
stretch = st.one_of(
    st.binary(min_size=1, max_size=150),
    st.tuples(st.integers(0, 255), st.integers(1, 300)).map(lambda t: bytes([t[0]]) * t[1]))
autocorrelation_input = st.lists(stretch, min_size=1, max_size=6).map(
    lambda parts: b"".join(parts)[:3 * stats._LAG_BLOCK + 8]).filter(lambda d: len(d) >= 2)


@settings(max_examples=300, deadline=None)
@given(data=autocorrelation_input, pick=st.data())
def test_autocorrelation_is_bit_exact(data, pick):
    max_lag = pick.draw(st.integers(1, len(data) - 1), label="max_lag")
    np.testing.assert_array_equal(autocorrelation(data, max_lag),
                                  reference_autocorrelation(data, max_lag))


def test_autocorrelation_keystream_is_bit_exact():
    rng = random.Random(9)
    stream = Separ(rng.randbytes(32)).keystream(rng.randbytes(16), 500_000)
    # Lengths of one block of octets, one either side, several blocks and
    # 10**6, so that lag pairs cross from one block into the next; the
    # last case's lags pair octets more than a block apart.
    b = stats._BLOCK
    for n, max_lag in ((10 ** 6, 1024), (b - 1, 1024), (b, 1024), (b + 1, 1024),
                       (3 * b + 77, 300), (b + 200, b + 100)):
        np.testing.assert_array_equal(autocorrelation(stream[:n], max_lag),
                                      reference_autocorrelation(stream[:n], max_lag))


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------

def test_periodicity_detects_period_two():
    rep = periodicity(b"AB" * 100)
    assert rep.period == 2


def test_periodicity_constant_reports_min_block():
    rep = periodicity(b"A" * 64, min_len=2)
    assert rep.period == 2


def test_periodicity_aperiodic():
    rep = periodicity(b"ABABABAC")
    assert rep.period is None


def test_periodicity_random_has_no_global_period(rng):
    rep = periodicity(rng.randbytes(100_000))
    assert rep.period is None
    # random data still repeats short substrings somewhere
    assert 0 < rep.longest_repeat < 64


def test_periodicity_finds_planted_repeat(rng):
    data = bytearray(rng.randbytes(50_000))
    block = rng.randbytes(200)
    data[1000:1200] = block
    data[40_000:40_200] = block
    rep = periodicity(bytes(data))
    assert rep.longest_repeat >= 200
    i, j = rep.witness
    assert data[i:i + rep.longest_repeat] == data[j:j + rep.longest_repeat]


def test_periodicity_rejects_min_len_below_two():
    with pytest.raises(ValueError):
        periodicity(b"ABAB", min_len=1)


def brute_force_periodicity(data, min_len):
    """(period, longest_repeat) straight from the definitions."""
    n = len(data)
    period = next((p for p in range(min_len, n // 2 + 1)
                   if n % p == 0 and data == data[:p] * (n // p)), None)
    longest = next((length for length in range(n - 1, 0, -1)
                    if len({data[i:i + length] for i in range(n - length + 1)})
                    < n - length + 1), 0)
    return period, longest


def check_against_brute_force(data, min_len=2):
    rep = periodicity(data, min_len)
    assert (rep.period, rep.longest_repeat) == brute_force_periodicity(data, min_len)
    if rep.longest_repeat == 0:
        assert rep.witness is None
    else:
        i, j = rep.witness
        assert i < j
        assert data[i:i + rep.longest_repeat] == data[j:j + rep.longest_repeat]
    return rep


def small_alphabet(size):
    return st.lists(st.integers(0, size - 1), max_size=200).map(bytes)


def repeated_block(size):
    return st.tuples(st.lists(st.integers(0, size - 1), min_size=1, max_size=20),
                     st.integers(1, 10)).map(lambda t: bytes(t[0]) * t[1])


@settings(max_examples=300, deadline=None)
@given(data=st.integers(2, 4).flatmap(
           lambda size: st.one_of(small_alphabet(size), repeated_block(size))),
       min_len=st.integers(2, 5))
def test_periodicity_matches_brute_force(data, min_len):
    check_against_brute_force(data, min_len)


@pytest.mark.parametrize("j", range(1, 8))
def test_periodicity_constant_input(j):
    for n in (2 ** j, 2 ** j + 1):
        rep = check_against_brute_force(b"\x07" * n)
        assert rep.longest_repeat == n - 1


@pytest.mark.parametrize("length", [1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63, 64])
def test_periodicity_repeat_of_exact_length(length):
    distinct = bytes(random.Random(length).sample(range(256), 200))
    data = distinct[:length] + distinct[length:150] + distinct[:length]
    rep = check_against_brute_force(data)
    assert rep == PeriodicityReport(None, length, (0, 150))


def test_periodicity_keystream_report_is_pinned():
    rng = random.Random(4)
    cipher = Separ(rng.randbytes(32))
    stream = cipher.keystream(rng.randbytes(16), 50_000)
    assert len(stream) == 100_000
    assert periodicity(stream) == PeriodicityReport(None, 4, (14397, 55692))


@pytest.mark.parametrize("n", [1024, 2048])
def test_periodicity_repeat_split_by_a_hash_collision(n):
    # From 1024 octets on, a Thue-Morse block A and its complement B hash
    # alike (string_hash below), and a search that compared only
    # neighbours in hash order missed A's repeat in A + B + A.  Kept as a
    # regression input: the repeat is found, with both copies of A.
    block = bytes(i.bit_count() & 1 for i in range(n))
    data = block + bytes(1 - x for x in block) + block
    report = periodicity(data)
    assert report.longest_repeat == n
    i, j = report.witness
    assert i < j
    assert data[i:i + n] == data[j:j + n]


# The longest repeat shorter than 8 octets comes from one sort of the
# 8-octet windows or, where few 4-octet windows repeat, from one sort of
# the 4-octet windows and one of the 8-octet windows that may start with
# a repeated one; either plus a bytes.find check of the windows that
# start in the last 7 octets.  Prefix doubling runs only from 8 octets
# up.

def string_hash(s):
    h = 0
    for octet in s:
        h = (h * stats._HASH_BASE + octet) % (1 << 64)
    return h


def reference_witness(data, length):
    """The witness from its definition: the first two copies of the
    repeated `length`-octet string with the least hash; of strings that
    tie on it, the one whose second copy comes first.  None if no
    string of that length repeats."""
    first, pairs = {}, {}
    for j in range(len(data) - length + 1):
        i = first.setdefault(data[j:j + length], j)
        if i != j:
            pairs.setdefault(data[j:j + length], (i, j))
    if not pairs:
        return None
    return min(pairs.items(), key=lambda item: (string_hash(item[0]), item[1][1]))[1]


@settings(max_examples=300, deadline=None)
@given(data=st.integers(2, 256).flatmap(
           lambda size: st.lists(st.integers(0, size - 1), max_size=300).map(bytes)),
       min_len=st.integers(2, 5))
def test_periodicity_matches_brute_force_large_alphabets(data, min_len):
    check_against_brute_force(data, min_len)


def planted(length, gap, tail):
    """Distinct octets with one block of `length` repeated: first at 0,
    then after `gap` octets, followed by `tail` more octets."""
    distinct = bytes(random.Random(length * 64 + gap * 8 + tail).sample(range(256), 256))
    return (distinct[:length] + distinct[length:length + gap] + distinct[:length]
            + distinct[length + gap:length + gap + tail])


@pytest.mark.parametrize("length", range(1, 10))
@pytest.mark.parametrize("tail", range(7))
def test_periodicity_repeat_ending_in_last_seven_octets(length, tail):
    data = planted(length, 40, tail)
    assert len(data) - tail == 2 * length + 40  # the second copy ends there
    rep = check_against_brute_force(data)
    assert rep == PeriodicityReport(None, length, (0, length + 40))
    assert rep.witness == reference_witness(data, length)


# 4-octet windows start at every offset up to n - 4, 8-octet ones only
# up to n - 8: a second copy that starts at n - 7 .. n - 4 is in the
# first sort alone, and one that starts later in neither.
@pytest.mark.parametrize("length, back", [(length, back) for length in (3, 4, 5)
                                          for back in range(length, 8)])
def test_periodicity_repeat_starting_in_last_seven_octets(length, back):
    data = planted(length, 40, back - length)
    assert len(data) - back == length + 40  # the second copy starts there
    rep = check_against_brute_force(data)
    assert rep == PeriodicityReport(None, length, (0, length + 40))
    assert rep.witness == reference_witness(data, length)


def de_bruijn(k, order):
    """The linear de Bruijn sequence over k octet values: every string of
    `order` octets occurs exactly once, and every shorter one repeats."""
    a, seq = [0] * (k * order), []

    def db(t, p):
        if t > order:
            if order % p == 0:
                seq.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return bytes(seq + seq[:order - 1])


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("cut", [0, 1, 2, 3, 5, 8])
def test_periodicity_without_a_four_octet_repeat(k, cut):
    # No two 4-octet windows are equal, so the first sort gives the
    # answer; cutting octets off either end keeps it so.
    full = de_bruijn(k, 4)
    for data in (full[:len(full) - cut], full[cut:]):
        assert reference_witness(data, 4) is None
        rep = check_against_brute_force(data)
        assert rep.longest_repeat == 3
        assert rep.witness == reference_witness(data, 3)


@pytest.mark.parametrize("size", [64, 256])
def test_periodicity_random_without_a_four_octet_repeat(size):
    data = np.random.default_rng(size).integers(0, size, 3000, dtype=np.uint8).tobytes()
    assert reference_witness(data, 4) is None
    assert full_window_path(data) == "4-octet"
    rep = check_against_reference(data)
    assert 0 < rep.longest_repeat < 4


@pytest.mark.parametrize("length", [7, 8, 9])
@pytest.mark.parametrize("gap", [0, 1, 7, 8, 9, 100])
@pytest.mark.parametrize("tail", [0, 8, 100])
def test_periodicity_repeat_at_window_boundary(length, gap, tail):
    data = planted(length, gap, tail)
    rep = check_against_brute_force(data)
    assert (rep.longest_repeat, rep.witness) == (length, (0, length + gap))


@pytest.mark.parametrize("run", range(2, 11))
def test_periodicity_run_in_last_octets(run):
    """A run of one octet at the end: both occurrences of the longest
    repeat start in the run, inside the last 8 octets when run <= 8."""
    data = bytes(range(1, 101)) + b"\x00" * run
    rep = check_against_brute_force(data)
    assert rep == PeriodicityReport(None, run - 1, (100, 101))


@pytest.mark.parametrize("n", range(1, 10))
def test_periodicity_short_inputs(n):
    for bits in range(2 ** n):
        check_against_brute_force(bytes((bits >> k) & 1 for k in range(n)))
    rng = random.Random(n)
    for _ in range(50):
        check_against_brute_force(rng.randbytes(n))


# Below 8 octets the witness comes from the sorted windows; it must be
# the pair the definition gives at the longest repeat.
# Lengths are capped near size**3 so that small alphabets mostly give
# repeats shorter than 8, and start past size so that some octet repeats.
@settings(max_examples=300, deadline=None)
@given(data=st.integers(2, 256).flatmap(
           lambda size: st.binary(min_size=size + 1,
                                  max_size=max(size + 1, min(400, 2 * size ** 3))).map(
               lambda raw: bytes(octet % size for octet in raw))))
def test_periodicity_short_witness_is_the_reference_witness(data):
    rep = periodicity(data)
    assume(0 < rep.longest_repeat < 8)
    assert rep.witness == reference_witness(data, rep.longest_repeat)


# From 8 octets up the witness comes from the final sort of prefix
# doubling; it must be the pair the definition gives there too.  The
# inputs are random strings over 2-4 symbols with a block of their own
# inserted one or more times.
@settings(max_examples=300, deadline=None)
@given(size=st.integers(2, 4), raw=st.binary(min_size=20, max_size=300),
       cuts=st.lists(st.integers(0, 300), min_size=3, max_size=3), times=st.integers(1, 6))
def test_periodicity_long_witness_is_the_reference_witness(size, raw, cuts, times):
    symbols = bytes(octet % size for octet in raw)
    a, b, c = sorted(cut % (len(symbols) + 1) for cut in cuts)
    data = (symbols[:c] + symbols[a:b] * times + symbols[c:])[:400]
    rep = periodicity(data)
    assume(rep.longest_repeat >= 8)
    check_against_reference(data)


def test_periodicity_witness_is_least_hash_not_first_copy():
    # Two repeated 3-octet strings; the one with the smaller hash has
    # both copies after the other's.
    distinct = bytes(random.Random(7).sample(range(256), 200))
    a, b = sorted([distinct[:3], distinct[3:6]], key=string_hash)
    filler = distinct[6:]
    data = b + filler[:40] + b + filler[40:80] + a + filler[80:120] + a + filler[120:]
    rep = check_against_brute_force(data)
    first = data.find(a)
    assert rep.witness == (first, data.find(a, first + 1)) == reference_witness(data, 3)


def thue_morse(n):
    return bytes(i.bit_count() & 1 for i in range(n))


@pytest.mark.parametrize("n", [1024, 2048])
@pytest.mark.parametrize("outer_first", [False, True])
def test_periodicity_hash_tie_goes_to_the_earlier_second_copy(n, outer_first):
    # A Thue-Morse block and its complement hash alike, and both repeat
    # in X Y Y X: the witness is Y's pair, whose second copy comes first,
    # whichever of the two is Y.
    block = thue_morse(n)
    complement = bytes(1 - x for x in block)
    assert string_hash(block) == string_hash(complement)
    outer, inner = (block, complement) if outer_first else (complement, block)
    data = outer + b"\x02" + inner + b"\x03" + inner + b"\x04" + outer
    assert periodicity(data) == PeriodicityReport(None, n, (n + 1, 2 * n + 2))


def test_periodicity_keystream_hashes_nothing(monkeypatch):
    def hashed(*args):
        raise AssertionError("the keystream left the short-repeat path")
    monkeypatch.setattr(stats, "_prefix_arrays", hashed)
    monkeypatch.setattr(stats, "_long_repeat", hashed)
    rng = random.Random(5)
    stream = Separ(rng.randbytes(32)).keystream(rng.randbytes(16), 50_000)
    rep = periodicity(stream)
    assert 0 < rep.longest_repeat < 8


def check_against_reference(data):
    """For inputs too long for the brute force: the longest repeat is the
    longest length at which some string repeats, and the witness the
    reference's."""
    rep = periodicity(data)
    assert rep.witness == reference_witness(data, rep.longest_repeat)
    assert reference_witness(data, rep.longest_repeat + 1) is None
    return rep


# n - 7 windows: one block of sorted windows, one either side, and
# several blocks.
@pytest.mark.parametrize("n", [stats._BLOCK + 6, stats._BLOCK + 7, stats._BLOCK + 8,
                               3 * stats._BLOCK + 100])
@pytest.mark.parametrize("size", [32, 256])
def test_periodicity_at_block_lengths_matches_the_reference_witness(n, size):
    raw = np.random.default_rng(n).integers(0, size, n, dtype=np.uint8).tobytes()
    assert 0 < check_against_reference(raw).longest_repeat < 8


def symbols(size, n, seed=0):
    """n octets drawn independently from the first `size` values."""
    return np.random.default_rng(seed).integers(0, size, n, dtype=np.uint8).tobytes()


def full_window_path(data):
    """Which sorts _full_window_repeat runs on the data."""
    if not stats._few_repeats(data):
        return "8-octet"
    windows = stats._sorted_windows(data, 4)
    if stats._sorted_repeat(windows, 4)[0] < 4:
        return "4-octet"
    strings = stats._repeated_strings(windows, len(data))
    if strings is None or stats._windows_passing(data, strings) is None:
        return "4-octet, 8-octet"
    return "4-octet, sieved 8-octet"


# Whether few 4-octet windows repeat is judged from the first _BLOCK
# octets.  Few: the 4-octet sort, then the 8-octet windows that pass
# the sieve; many: every 8-octet window.  A wrong guess costs time or
# memory, never the report.
@pytest.mark.parametrize("data, path", [
    (symbols(256, 1 << 17), "4-octet, sieved 8-octet"),
    (symbols(64, 1 << 17), "4-octet, sieved 8-octet"),
    (base64.b64encode(symbols(256, 3 << 15)), "4-octet, sieved 8-octet"),
    (symbols(32, 1 << 17), "8-octet"),
    (symbols(256, 1 << 16, 1) + symbols(16, 1 << 16, 2), "4-octet, 8-octet"),
    (symbols(16, 1 << 16, 1) + symbols(256, 1 << 16, 2), "8-octet"),
    (symbols(256, 3000), "4-octet"),
], ids=["random", "64 symbols", "base64", "32 symbols", "random, then 16 symbols",
        "16 symbols, then random", "no 4-octet repeat"])
def test_periodicity_by_repeated_share_matches_the_reference_witness(data, path):
    assert full_window_path(data) == path
    check_against_reference(data)


@pytest.mark.parametrize("length, back", [(3, 7), (3, 4), (3, 3), (4, 7), (4, 5), (5, 7), (5, 6)])
def test_periodicity_sieved_repeat_starting_in_last_seven_octets(length, back):
    # A planted repeat whose second copy starts at n - back, where no
    # 8-octet window starts, in random octets: a 3-octet one is the
    # 4-octet sort's answer; past it no two 8-octet windows share 4
    # octets, so those the sieve passes give a shorter repeat, and the
    # last 7 octets the longest.
    data = bytearray(symbols(256, 3000, length * 8 + back))
    data[-back:len(data) - back + length] = data[1000:1000 + length]
    data = bytes(data)
    assert full_window_path(data) == ("4-octet" if length < 4 else "4-octet, sieved 8-octet")
    assert check_against_reference(data).longest_repeat == length
    if length > 3:  # no other 4-octet string repeats
        assert periodicity(data).witness == (1000, len(data) - back)


def test_windows_passing_holds_every_window_with_a_repeated_start():
    data = symbols(48, 1 << 16)
    n = len(data)
    starts = Counter(data[i:i + 4] for i in range(n - 3))
    wanted = Counter(data[i:i + 8] for i in range(n - 7) if starts[data[i:i + 4]] > 1)
    strings = stats._repeated_strings(stats._sorted_windows(data, 4), n)
    assert strings.tolist() == sorted(int.from_bytes(s, "big") for s, c in starts.items() if c > 1)
    passing = stats._windows_passing(data, strings)
    assert (passing[1:] >= passing[:-1]).all()
    passed = Counter(int(w).to_bytes(8, "big") for w in passing)
    assert wanted and passed - Counter(data[i:i + 8] for i in range(n - 7)) == Counter()
    assert wanted - passed == Counter()
    assert passing.size < n // 8


@pytest.mark.parametrize("below", [stats._BLOCK - 2, stats._BLOCK - 1, stats._BLOCK])
def test_periodicity_short_repeat_across_gap_blocks(below):
    """A 7-octet repeat whose copies are the only windows starting with
    0x80, after exactly `below` windows starting lower: the two sort at
    `below` and `below` + 1, so at _BLOCK - 1 their gap is the last of
    one block and the later copy the first window of the next."""
    rng = random.Random(below)
    copy = bytes([0x80, 0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6])
    filler = ([rng.randrange(0x80) for _ in range(below)]
              + [rng.randrange(0x81, 0x100) for _ in range(below)])
    rng.shuffle(filler)
    a, c = below // 2, below + below // 3
    data = (bytes(filler[:a]) + copy + bytes(filler[a:c]) + copy + bytes(filler[c:])
            + bytes(rng.randrange(0x81, 0x100) for _ in range(7)))
    assert check_against_reference(data) == PeriodicityReport(None, 7, (a, c + 7))


def test_periodicity_thue_morse():
    # Thue-Morse octets repeat at every scale: the longest repeat is a
    # quarter of the input, and the report comes from prefix doubling.
    assert periodicity(thue_morse(1 << 16)) == PeriodicityReport(None, 16384, (0, 24576))


# ---------------------------------------------------------------------------
# working memory
# ---------------------------------------------------------------------------

def traced_peak(kernel, *args):
    """Peak bytes traced while the kernel runs; tracemalloc sees numpy's
    buffers as well as Python objects."""
    tracemalloc.start()
    try:
        kernel(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# At 8 MiB entropy and autocorrelation keep the bounds they have at
# 1 MiB; periodicity keeps the 4n octets of windows its sort needs, and
# nist_subset reads its sample in place, a block at a time.
@pytest.mark.parametrize("mib", [1, 4, 8])
def test_kernels_work_in_bounded_memory(mib):
    n = mib << 20
    data = np.random.default_rng(mib).integers(0, 256, n, dtype=np.uint8).tobytes()
    assert traced_peak(entropy, data) < 1 << 20
    assert traced_peak(autocorrelation, data, 1024) < 8 << 20
    assert traced_peak(periodicity, data) < 5 * n + (4 << 20)
    nist_subset(data[:1 << 14])  # loads scipy.special outside the trace
    assert traced_peak(nist_subset, data) < n + (3 << 20)


# Few repeated 4-octet windows: 4n octets of them.  Many, or a random
# first 64 KiB before many: the 8n octets of every 8-octet window.
@pytest.mark.parametrize("head, body, bound", [(100, 100, 5), (64, 64, 8), (256, 48, 8)],
                         ids=["100 symbols", "64 symbols", "random, then 48 symbols"])
def test_periodicity_short_repeat_memory_by_repeated_share(head, body, bound):
    n = 1 << 20
    data = symbols(head, 1 << 16, 1) + symbols(body, n - (1 << 16), 2)
    assert periodicity(data).longest_repeat < 8
    assert traced_peak(periodicity, data) < bound * n + (4 << 20)


def test_periodicity_long_path_works_in_bounded_memory():
    # A planted 300-octet repeat takes the prefix-doubling path: a few
    # arrays of n ranks, keys and positions at a time.
    n = 1 << 18
    arr = np.random.default_rng(18).integers(0, 256, n, dtype=np.uint8)
    arr[n // 2:n // 2 + 300] = arr[1000:1300]
    data = arr.tobytes()
    assert periodicity(data).longest_repeat == 300
    assert traced_peak(periodicity, data) < 40 * n + (4 << 20)
