"""Six of the SP 800-22 randomness tests: frequency (monobit), block
frequency, runs, serial, approximate entropy, and cumulative sums.

Inputs are bit sequences given either as raw octets (bits taken most
significant first, matching the keystream export convention) or as a
numpy array of 0/1 values.  Each test returns a :class:`StatReport`
with its p-value and the pass verdict at significance 0.01; tests whose
definition yields two p-values (serial, cumulative sums) report the
smaller one, so "pass" means both passed.

The remaining suite tests (matrix rank, templates, universal, and so
on) are deliberately not reimplemented here: export a raw keystream and
feed it to the reference STS tool instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

# scipy.special is imported inside the tests that need it: at module level
# it would be most of the import time and memory of the whole package.

ALPHA = 0.01
MIN_SUBSET_BITS = 100_000


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


def as_bits(data: bytes | np.ndarray) -> np.ndarray:
    """Normalize input to a uint8 array of 0/1, MSB-first for octets."""
    if isinstance(data, (bytes, bytearray)):
        return np.unpackbits(np.frombuffer(bytes(data), dtype=np.uint8))
    bits = np.asarray(data, dtype=np.uint8)
    if bits.ndim != 1 or (bits.size and bits.max() > 1):
        raise ValueError("bit array must be one-dimensional 0/1 values")
    return bits


def _require(bits: np.ndarray, minimum: int, name: str) -> int:
    n = bits.size
    if n < minimum:
        raise ValueError(f"{name} needs at least {minimum} bits, got {n}")
    return n


def monobit(data: bytes | np.ndarray) -> StatReport:
    """Frequency test: the +1/-1 balance of the whole sequence."""
    from scipy.special import erfc
    bits = as_bits(data)
    n = _require(bits, 100, "monobit")
    s = abs(2 * int(bits.sum()) - n)
    s_obs = s / math.sqrt(n)
    return _report("monobit", s_obs, erfc(s_obs / math.sqrt(2)), n)


def block_frequency(data: bytes | np.ndarray, block_size: int | None = None) -> StatReport:
    """Frequency within non-overlapping blocks.

    The default block size is n//100 + 1 (at least 20), which keeps the
    block count just under 100 as the test's reference parameters ask.
    """
    from scipy.special import gammaincc
    bits = as_bits(data)
    n = _require(bits, 100, "block_frequency")
    m = block_size if block_size is not None else max(20, n // 100 + 1)
    nblocks = n // m
    if nblocks < 1:
        raise ValueError("block size exceeds sequence length")
    pi = bits[: nblocks * m].reshape(nblocks, m).mean(axis=1)
    chi2 = 4.0 * m * float(((pi - 0.5) ** 2).sum())
    return _report("block_frequency", chi2, gammaincc(nblocks / 2, chi2 / 2), n)


def runs(data: bytes | np.ndarray) -> StatReport:
    """Total number of runs of identical bits."""
    from scipy.special import erfc
    bits = as_bits(data)
    n = _require(bits, 100, "runs")
    pi = float(bits.mean())
    if abs(pi - 0.5) >= 2 / math.sqrt(n):
        # prerequisite monobit failure: the runs statistic is meaningless
        return _report("runs", 0.0, 0.0, n)
    v_obs = 1 + int(np.count_nonzero(np.diff(bits)))
    num = abs(v_obs - 2 * n * pi * (1 - pi))
    den = 2 * math.sqrt(2 * n) * pi * (1 - pi)
    return _report("runs", v_obs, erfc(num / den), n)


def _pattern_counts(bits: np.ndarray, m: int) -> np.ndarray:
    """Counts of every overlapping m-bit pattern, with wraparound, for
    1 <= m <= 57 and m <= bits.size.

    The wrapped sequence is packed into octets, and each octet starts one
    big-endian 64-bit window; the pattern at bit 8i + r is then bits
    r..r+m-1 of window i, so eight shifts cover every start.
    """
    n = bits.size
    packed = np.packbits(np.concatenate([bits, bits[: m - 1]]))
    octets = np.zeros(packed.size + 7, dtype=np.uint64)
    octets[: packed.size] = packed
    win = np.zeros(packed.size, dtype=np.uint64)
    for k in range(8):
        win |= octets[k: k + packed.size] << np.uint64(56 - 8 * k)
    mask = np.uint64((1 << m) - 1)
    counts = np.zeros(1 << m, dtype=np.int64)
    for r in range(8):
        starts = win[: (n - r + 7) // 8]
        counts += np.bincount((starts >> np.uint64(64 - m - r)) & mask, minlength=1 << m)
    return counts


def _marginal(counts: np.ndarray) -> np.ndarray:
    """Counts of (m-1)-bit patterns from m-bit ones.  With wraparound each
    (m-1)-bit window is the prefix of exactly one m-bit window, so the
    two counts of a pattern followed by 0 and by 1 add up exactly."""
    return counts.reshape(-1, 2).sum(axis=1)


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
    bits = as_bits(data)
    n = _require(bits, 1000, "serial")
    if m is None:
        m = min(16, int(math.log2(n)) - 3)
    if not 2 <= m < math.log2(n) - 2:
        raise ValueError(f"serial block length m={m} invalid for n={n}")
    c_m = _pattern_counts(bits, m)
    c_m1 = _marginal(c_m)
    psi_m = _psi_sq(c_m, n)
    psi_m1 = _psi_sq(c_m1, n)
    psi_m2 = _psi_sq(_marginal(c_m1), n)
    d1 = psi_m - psi_m1
    d2 = psi_m - 2 * psi_m1 + psi_m2
    p1 = gammaincc(2 ** (m - 2), d1 / 2)
    p2 = gammaincc(2 ** (m - 3), d2 / 2)
    return _report("serial", d1, min(p1, p2), n)


def approximate_entropy(data: bytes | np.ndarray, m: int | None = None) -> StatReport:
    """Compares overlapping m and m+1 pattern frequencies."""
    from scipy.special import gammaincc
    bits = as_bits(data)
    n = _require(bits, 1000, "approximate_entropy")
    if m is None:
        m = min(10, int(math.log2(n)) - 6)
    if not 1 <= m < math.log2(n) - 5:
        raise ValueError(f"approximate entropy block length m={m} invalid for n={n}")

    def phi(counts: np.ndarray) -> float:
        c = counts.astype(np.float64)
        pi = c[c > 0] / n
        return float((pi * np.log(pi)).sum())

    counts = _pattern_counts(bits, m + 1)
    apen = phi(_marginal(counts)) - phi(counts)
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

    The walk is taken an octet at a time: one cumsum of the octets' net
    steps gives the walk at octet boundaries, and the octet tables give
    its extremes within each octet.  The last n % 8 bits are stepped one
    by one.
    """
    bits = as_bits(data)
    n = _require(bits, 100, "cumulative_sums")
    whole = n - n % 8
    octets = np.packbits(bits[:whole])
    net = _OCTET_NET[octets]
    ends = np.cumsum(net)
    starts = ends - net
    hi = int((starts + _OCTET_MAX[octets]).max())
    lo = int((starts + _OCTET_MIN[octets]).min())
    s = int(ends[-1])
    for bit in bits[whole:].tolist():
        s += 2 * bit - 1
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
    """Run all six implemented tests on one sample of at least 10**5 bits."""
    bits = as_bits(data)
    _require(bits, MIN_SUBSET_BITS, "nist_subset")
    return [
        monobit(bits),
        block_frequency(bits),
        runs(bits),
        serial(bits),
        approximate_entropy(bits),
        cumulative_sums(bits),
    ]
