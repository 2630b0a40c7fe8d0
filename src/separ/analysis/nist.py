"""Six of the SP 800-22 randomness tests: frequency (monobit), block
frequency, runs, serial, approximate entropy, and cumulative sums.

Inputs are bit sequences given either as raw octets, any bytes-like
object but a numpy array (bits taken most significant first, matching
the keystream export convention), or as a numpy array of 0/1 values.
Each test returns a :class:`StatReport` with its p-value and the pass
verdict at significance 0.01; tests whose definition yields two
p-values (serial, cumulative sums) report the smaller one, so "pass"
means both passed.

Every test reads the sequence packed, eight bits to an octet, and takes
_BLOCK octets at a time, so its working memory does not grow with the
sample beyond what the test tallies (block frequency's per-block ones,
the 2**m pattern counts): octets are read where they lie, and a 0/1
array is packed once.  Monobit, runs, serial and approximate entropy
read one statistic, the cyclic m-bit pattern counts of the sample: its
ones are the 1-bit count, and its bit changes the 2-bit counts of 01
and 10 (SP 800-22 Rev. 1a, section 2.11).

The remaining suite tests (matrix rank, templates, universal, and so
on) are deliberately not reimplemented here: export a raw keystream and
feed it to the reference STS tool instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from ..core import _octet_view

# scipy.special is imported inside the tests that need it: at module level
# it would be most of the import time and memory of the whole package.

ALPHA = 0.01
MIN_SUBSET_BITS = 100_000

# Octets each test takes at a time (2**16 bits).  Per block the pattern
# counts hold one 8-octet index per bit, 64 * _BLOCK octets (512 KiB);
# the other tests a few times _BLOCK.
_BLOCK = 1 << 13


@dataclass(frozen=True)
class StatReport:
    name: str
    statistic: float
    p_value: float
    passed: bool
    n_bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.p_value <= 1:
            raise ValueError(f"p-value out of range: {self.p_value}")

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: statistic={self.statistic:.6g} "
                f"p={self.p_value:.6f} {verdict}")


def _report(name: str, statistic: float, p: float, n: int) -> StatReport:
    p = min(max(float(p), 0.0), 1.0)
    return StatReport(name, float(statistic), p, p >= ALPHA, n)


class _Sample:
    """A bit sequence packed once: its n bits in `octets`, most
    significant first, the last octet's unused bits zero.  `counts`
    keeps the longest pattern count taken on it, as (m, counts), so that
    shorter counts are read from it (see _counts)."""

    __slots__ = ("octets", "n", "counts")

    def __init__(self, octets: np.ndarray, n: int) -> None:
        self.octets, self.n, self.counts = octets, n, None


def _octets(data) -> np.ndarray | None:
    """The octets of a bytes-like object other than a numpy array, read
    in place; None for anything else."""
    if isinstance(data, np.ndarray):
        return None
    try:
        return np.frombuffer(_octet_view(data), dtype=np.uint8)
    except TypeError:
        return None


def _bit_array(data) -> np.ndarray:
    """A one-dimensional array of 0/1 values as uint8, its values checked
    before the cast, which would wrap 256 to 0 and truncate 0.5 to 0."""
    bits = np.asarray(data)
    kind = bits.dtype.kind
    if kind == "f":
        binary = ((bits == 0) | (bits == 1)).all()
    else:  # bools and integers, checked without a temporary array
        binary = kind in "biu" and (bits.size == 0 or 0 <= bits.min() and bits.max() <= 1)
    if bits.ndim != 1 or not binary:
        raise ValueError("bit array must be one-dimensional 0/1 values")
    return bits.astype(np.uint8, copy=False)


def as_bits(data: bytes | np.ndarray) -> np.ndarray:
    """Normalize input to a uint8 array of 0/1, MSB-first for octets."""
    octets = _octets(data)
    return _bit_array(data) if octets is None else np.unpackbits(octets)


def _sample(data: bytes | np.ndarray | _Sample) -> _Sample:
    if isinstance(data, _Sample):
        return data
    octets = _octets(data)
    if octets is not None:
        return _Sample(octets, 8 * octets.size)
    bits = _bit_array(data)
    return _Sample(np.packbits(bits), bits.size)


def _require(sample: _Sample, minimum: int, name: str) -> int:
    n = sample.n
    if n < minimum:
        raise ValueError(f"{name} needs at least {minimum} bits, got {n}")
    return n


def _blocks(octets: np.ndarray):
    for start in range(0, octets.size, _BLOCK):
        yield octets[start:start + _BLOCK]


# The ones of each octet value, and of its top r bits for r = 0..7.
_POPCOUNT = np.array([v.bit_count() for v in range(256)], dtype=np.uint8)
_HEAD_ONES = np.array([[(v >> (8 - r)).bit_count() for v in range(256)] for r in range(8)])


def monobit(data: bytes | np.ndarray) -> StatReport:
    """Frequency test: the +1/-1 balance of the whole sequence.  Its ones
    are the 1-bit pattern count of 1."""
    from scipy.special import erfc
    sample = _sample(data)
    n = _require(sample, 100, "monobit")
    s = abs(2 * int(_counts(sample, 1)[1]) - n)
    s_obs = s / math.sqrt(n)
    return _report("monobit", s_obs, erfc(s_obs / math.sqrt(2)), n)


def _ones_before(sample: _Sample, positions: np.ndarray) -> np.ndarray:
    """The ones among the first p bits, for each p of the ascending
    `positions` (0 <= p <= n): those of the whole octets before p,
    summed a block at a time, and those of the top p % 8 bits of the
    octet p falls in."""
    octets = sample.octets
    whole, part = np.divmod(positions, 8)
    ones = np.empty(positions.size, dtype=np.int64)
    prefix = np.zeros(_BLOCK + 1, dtype=np.int64)  # ones of block[:i]
    done = first = 0
    for start in range(0, octets.size, _BLOCK):
        block = octets[start:start + _BLOCK]
        np.cumsum(_POPCOUNT[block], dtype=np.int64, out=prefix[1:block.size + 1])
        last = int(np.searchsorted(whole, start + block.size, side="right"))
        ones[first:last] = done + prefix[whole[first:last] - start]
        done += int(prefix[block.size])
        first = last
    ones += _HEAD_ONES[part, octets[np.minimum(whole, octets.size - 1)]]
    return ones


def block_frequency(data: bytes | np.ndarray, block_size: int | None = None) -> StatReport:
    """Frequency within non-overlapping blocks.

    The default block size is n//100 + 1 (at least 20), which keeps the
    block count just under 100 as the test's reference parameters ask.
    Each block's ones are the difference of the ones before its two
    edges.
    """
    from scipy.special import gammaincc
    sample = _sample(data)
    n = _require(sample, 100, "block_frequency")
    m = block_size if block_size is not None else max(20, n // 100 + 1)
    if m < 1:
        raise ValueError(f"block size must be at least 1, got {m}")
    nblocks = n // m
    if nblocks < 1:
        raise ValueError("block size exceeds sequence length")
    pi = np.diff(_ones_before(sample, np.arange(nblocks + 1, dtype=np.int64) * m)) / m
    chi2 = 4.0 * m * float(((pi - 0.5) ** 2).sum())
    return _report("block_frequency", chi2, gammaincc(nblocks / 2, chi2 / 2), n)


def runs(data: bytes | np.ndarray) -> StatReport:
    """Total number of runs of identical bits.

    From the cyclic 2-bit counts c: the ones are c[10] + c[11], and the
    bits that differ from the bit before them are c[01] + c[10], less
    the pair that wraps from the last bit to the first if those differ.
    """
    from scipy.special import erfc
    sample = _sample(data)
    n = _require(sample, 100, "runs")
    c = _counts(sample, 2)
    pi = int(c[2] + c[3]) / n
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        # prerequisite monobit failure: the runs statistic is meaningless
        return _report("runs", 0.0, 0.0, n)
    octets = sample.octets
    wrap = (int(octets[0]) >> 7) ^ (int(octets[(n - 1) // 8]) >> (7 - (n - 1) % 8) & 1)
    v_obs = 1 + int(c[1] + c[2]) - wrap
    num = abs(v_obs - 2 * n * pi * (1 - pi))
    den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
    return _report("runs", v_obs, erfc(num / den), n)


def _pattern_counts(data: bytes | np.ndarray | _Sample, m: int) -> np.ndarray:
    """Counts of every overlapping m-bit pattern, with wraparound, for
    1 <= m <= 57 and m <= n.

    Each octet of the wrapped sequence (the n bits, then their first
    m - 1 again) starts one big-endian 64-bit window; the pattern at bit
    8j + r is then bits r..r+m-1 of window j, so eight shifts cover every
    start.  The windows are taken _BLOCK octets at a time, each block
    reading the 8 octets after it.  Past the whole octets the wrapped
    sequence is its last n % 8 bits and the m - 1 wrap bits, carried to
    the last blocks in a few octets of their own.
    """
    sample = _sample(data)
    n, octets = sample.n, sample.octets
    whole, r = divmod(n, 8)
    first = int.from_bytes(octets[:8].tobytes().ljust(8, b"\0"), "big")
    end = (int(octets[whole]) >> (8 - r) if r else 0) << (m - 1) | first >> (65 - m)
    size = r + m - 1
    end = (end << (-size % 8)).to_bytes(-(-size // 8), "big")
    mask = np.uint64((1 << m) - 1)
    counts = np.zeros(1 << m, dtype=np.int64)
    index = np.empty(8 * _BLOCK, dtype=np.uint64)
    starts = -(-n // 8)  # octets that hold a start
    for s in range(0, starts, _BLOCK):
        rows = -(-min(_BLOCK, starts - s) // 8)
        stop = s + 8 * rows + 8
        chunk = octets[s:min(stop, whole)].tobytes()
        if stop > whole:
            chunk += end
        chunk = chunk.ljust(8 * rows + 8, b"\0")
        windows = np.empty((rows, 8), dtype=np.uint64)
        for k in range(8):
            windows[:, k] = np.frombuffer(chunk, ">u8", count=rows, offset=k)
        windows = windows.reshape(-1)
        used = 0
        for shift in range(8):
            count = min(_BLOCK, (n - shift + 7) // 8 - s)  # starts 8(s + j) + shift below n
            np.right_shift(windows[:count], np.uint64(64 - m - shift),
                           out=index[used:used + count])
            used += count
        picked = index[:used]
        picked &= mask
        counts += np.bincount(picked.view(np.int64), minlength=1 << m)
    return counts


def _counts(sample: _Sample, m: int) -> np.ndarray:
    """The m-bit pattern counts, 0 <= m: read from the count kept on the
    sample when it was taken at m or above, else a new count, kept.

    With wraparound each m-bit window is the prefix of exactly one
    window of the kept length, so the count of an m-bit pattern is the
    sum of the kept counts of its 2**(kept - m) extensions, which lie
    side by side."""
    if sample.counts is None or sample.counts[0] < m:
        sample.counts = (m, _pattern_counts(sample, m))
    return sample.counts[1].reshape(1 << m, -1).sum(axis=1)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    if counts.size == 1:  # m = 0
        return 0.0
    return float((counts.astype(np.float64) ** 2).sum()) * counts.size / n - n


def serial(data: bytes | np.ndarray, m: int | None = None) -> StatReport:
    """Overlapping m-bit pattern uniformity (two chi-square deltas).

    Reports min(p1, p2).  Default m follows the reference guidance
    m < log2(n) - 2, capped at 16.
    """
    from scipy.special import gammaincc
    sample = _sample(data)
    n = _require(sample, 1000, "serial")
    if m is None:
        m = min(16, int(math.log2(n)) - 3)
    if not 2 <= m < math.log2(n) - 2:
        raise ValueError(f"serial block length m={m} invalid for n={n}")
    psi_m, psi_m1, psi_m2 = (_psi_sq(_counts(sample, k), n) for k in (m, m - 1, m - 2))
    d1 = psi_m - psi_m1
    d2 = psi_m - 2 * psi_m1 + psi_m2
    p1 = gammaincc(2 ** (m - 2), d1 / 2)
    p2 = gammaincc(2 ** (m - 3), d2 / 2)
    return _report("serial", d1, min(p1, p2), n)


def approximate_entropy(data: bytes | np.ndarray, m: int | None = None) -> StatReport:
    """Compares overlapping m and m+1 pattern frequencies."""
    from scipy.special import gammaincc
    sample = _sample(data)
    n = _require(sample, 1000, "approximate_entropy")
    if m is None:
        m = min(10, int(math.log2(n)) - 6)
    if not 1 <= m < math.log2(n) - 5:
        raise ValueError(f"approximate entropy block length m={m} invalid for n={n}")

    def phi(counts: np.ndarray) -> float:
        c = counts.astype(np.float64)
        pi = c[c > 0] / n
        return float((pi * np.log(pi)).sum())

    counts = _counts(sample, m + 1)  # first, so that m is read from it
    apen = phi(_counts(sample, m)) - phi(counts)
    chi2 = 2.0 * n * (math.log(2) - apen)
    return _report("approximate_entropy", chi2, gammaincc(2 ** (m - 1), chi2 / 2), n)


def _cusum_p(z: int, n: int) -> float:
    from scipy.special import ndtr
    sqrt_n = math.sqrt(n)
    k1 = np.arange((-n // z + 1) // 4, (n // z - 1) // 4 + 1)
    term1 = (ndtr((4 * k1 + 1) * z / sqrt_n)
             - ndtr((4 * k1 - 1) * z / sqrt_n)).sum()
    k2 = np.arange((-n // z - 3) // 4, (n // z - 1) // 4 + 1)
    term2 = (ndtr((4 * k2 + 3) * z / sqrt_n)
             - ndtr((4 * k2 + 1) * z / sqrt_n)).sum()
    return 1.0 - term1 + term2


# The +1/-1 walk over each octet value's bits, most significant first:
# its partial sums after 1..8 steps, and from them its net step and its
# largest and smallest partial sum.  Built without numpy reductions, whose
# first use costs every importing process about 0.2 MB of resident code.
_OCTET_WALKS = [list(accumulate(1 if v >> k & 1 else -1 for k in range(7, -1, -1)))
                for v in range(256)]
_OCTET_NET = np.array([walk[-1] for walk in _OCTET_WALKS])
_OCTET_MAX = np.array([max(walk) for walk in _OCTET_WALKS])
_OCTET_MIN = np.array([min(walk) for walk in _OCTET_WALKS])


def cumulative_sums(data: bytes | np.ndarray) -> StatReport:
    """Maximum excursion of the +1/-1 random walk, forward and backward;
    reports the smaller of the two p-values.

    The walk is taken an octet at a time: a cumsum of the octets' net
    steps, _BLOCK octets at a time from where the last block ended,
    gives the walk at octet boundaries, and the octet tables give its
    extremes within each octet.  The last n % 8 bits are stepped one by
    one.
    """
    sample = _sample(data)
    n = _require(sample, 100, "cumulative_sums")
    s, hi, lo = 0, -n, n
    for octets in _blocks(sample.octets[:n // 8]):
        net = _OCTET_NET[octets]
        ends = np.cumsum(net)
        ends += s
        starts = ends - net
        hi = max(hi, int((starts + _OCTET_MAX[octets]).max()))
        lo = min(lo, int((starts + _OCTET_MIN[octets]).min()))
        s = int(ends[-1])
    for k in range(n % 8):
        s += 2 * (int(sample.octets[-1]) >> (7 - k) & 1) - 1
        hi, lo = max(hi, s), min(lo, s)
    # hi and lo are the extremes of S_j for 1 <= j <= n.  The backward
    # walk's partial sums are S_n - S_j for 0 <= j < n, with S_0 = 0; the
    # farthest from S_n is the least or the greatest S_j, and counting
    # S_n itself among them changes neither.
    z_fwd = max(hi, -lo)
    z_bwd = max(s - min(0, lo), max(0, hi) - s)
    p_fwd = _cusum_p(z_fwd, n)
    p_bwd = _cusum_p(z_bwd, n)
    return _report("cumulative_sums", max(z_fwd, z_bwd), min(p_fwd, p_bwd), n)


def nist_subset(data: bytes | np.ndarray) -> list[StatReport]:
    """Run all six implemented tests on one sample of at least 10**5 bits.

    The sample is packed once (octets are read where they lie) and each
    test is still called on its own.  Serial runs first and keeps its
    pattern count on the sample; monobit, runs and approximate entropy
    read their shorter counts from it.  Working memory is that count
    (8 * 2**m octets at serial's m, 512 KiB from 2**19 bits up) and a
    few times _BLOCK octets for the block being read, under 2 MiB
    whatever the sample's length, plus n / 8 octets to pack a 0/1 array.
    """
    sample = _sample(data)
    _require(sample, MIN_SUBSET_BITS, "nist_subset")
    serial_report = serial(sample)
    return [
        monobit(sample),
        block_frequency(sample),
        runs(sample),
        serial_report,
        approximate_entropy(sample),
        cumulative_sums(sample),
    ]
