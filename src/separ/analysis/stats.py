"""Ciphertext statistics: avalanche, entropy, histogram, autocorrelation,
and periodicity scanning."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import DEFAULT_LFSR, LfsrSpec, Separ


# ---------------------------------------------------------------------------
# avalanche
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AvalancheReport:
    flip_target: str
    flip_bit: int
    base_ct: bytes
    flipped_ct: bytes
    distance: int

    @property
    def total_bits(self) -> int:
        return 8 * len(self.base_ct)

    def __str__(self) -> str:
        return (f"{self.flip_target} bit {self.flip_bit}: "
                f"{self.base_ct.hex().upper()} vs {self.flipped_ct.hex().upper()} "
                f"({self.distance}/{self.total_bits} bits changed)")


def _flip_bit(data: bytes, bit: int) -> bytes:
    # bit 0 is the most significant bit of the first octet
    if not 0 <= bit < 8 * len(data):
        raise ValueError(f"flip position {bit} out of range for {len(data)} octets")
    out = bytearray(data)
    out[bit // 8] ^= 0x80 >> (bit % 8)
    return bytes(out)


def hamming_distance(a: bytes, b: bytes) -> int:
    if len(a) != len(b):
        raise ValueError("length mismatch")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).bit_count()


def avalanche(key: bytes, nonce: bytes, pt: bytes,
              flip_target: str = "plaintext", flip_bit: int = 0,
              lfsr_spec: LfsrSpec = DEFAULT_LFSR) -> AvalancheReport:
    """Encrypt a base input and a single-bit-flipped variant and report
    the Hamming distance between the two ciphertexts.

    flip_target selects where the bit is flipped: "plaintext", "key", or
    "iv".  Bit 0 is the most significant bit of the first octet.
    """
    if len(pt) % 2:
        raise ValueError("plaintext length must be a multiple of 2 octets")
    if flip_target not in ("plaintext", "key", "iv"):
        raise ValueError(f"unknown flip target: {flip_target!r}")
    cipher = Separ(key, lfsr_spec)
    base = cipher.encrypt(nonce, pt)
    if flip_target == "plaintext":
        other = cipher.encrypt(nonce, _flip_bit(pt, flip_bit))
    elif flip_target == "key":
        other = Separ(_flip_bit(key, flip_bit), lfsr_spec).encrypt(nonce, pt)
    else:
        other = cipher.encrypt(_flip_bit(nonce, flip_bit), pt)
    return AvalancheReport(flip_target, flip_bit, base, other,
                           hamming_distance(base, other))


# ---------------------------------------------------------------------------
# basic sample statistics
# ---------------------------------------------------------------------------

# Octets (or sorted windows) each kernel below takes at a time: their
# working memory is a few times this, whatever the input's length.
_BLOCK = 1 << 16


def histogram(data: bytes) -> np.ndarray:
    """256-bin symbol frequency counts; counts sum to len(data).

    np.bincount widens its input to 8-byte indices, so it counts _BLOCK
    octets at a time: working memory is 8 * _BLOCK octets (512 KiB).
    """
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    counts = np.bincount(arr[:_BLOCK], minlength=256)
    for start in range(_BLOCK, arr.size, _BLOCK):
        counts += np.bincount(arr[start:start + _BLOCK], minlength=256)
    return counts


def entropy(data: bytes) -> float:
    """Shannon entropy in bits per octet."""
    if len(data) == 0:
        raise ValueError("entropy of an empty sequence is undefined")
    counts = histogram(data)
    p = counts[counts > 0] / len(data)
    return float(-(p * np.log2(p)).sum())


# Row length, in octets, of the blocked lag products in autocorrelation:
# each block of this many lags costs one matrix product of this width
# per _BLOCK of input.  It divides _BLOCK, so every block starts a row.
_LAG_BLOCK = 128


def autocorrelation(data: bytes, max_lag: int) -> np.ndarray:
    """Pearson correlation between the sequence and its lag-shifted self,
    for lags 1..max_lag (lag 0 is trivially 1 and not returned).

    Entries are NaN where the correlation is undefined (a constant
    slice has no variance to normalize by).

    The lag products sum(x[i] * x[i + lag]) come from matrix products.
    The zero-padded sequence is cut into rows of B = _LAG_BLOCK octets,
    X, and C_t, the sum over rows r of outer(X[r], X[r + t]), sums
    x[i] * x[i'] over the pairs whose rows are t apart.  The pairs
    lag = t*B + d apart are then the diagonal at offset d of
    [C_t | C_t+1].  C_0 ... C_T, T = ceil(max_lag / B), are summed over
    _BLOCK octets of rows at a time, as X[r:r + k].T @ X[r + t:r + t + k].
    Every product is at most 255**2 and every partial sum an integer
    below 2**53, so the sums are exact in any order and on any BLAS.

    Working memory does not grow with the input: the C_t take up to
    8 * B * (max_lag + 2 B) octets (1.1 MiB at 1024 lags), twice over
    once they are set side by side, and one block of rows, with the T
    rows it pairs with, 8 * (_BLOCK + max_lag + B) octets as float64.
    """
    n = len(data)
    if not 0 < max_lag < n:
        raise ValueError("max_lag must satisfy 0 < max_lag < len(data)")
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    b = _LAG_BLOCK
    last = -(-max_lag // b)
    acc = np.zeros((last + 1, b, b))  # C_0 ... C_T
    product = np.empty((b, b))
    x = np.empty((-(-min(n, _BLOCK) // b) + last) * b)
    rows_x = x.reshape(-1, b)
    for start in range(0, n, _BLOCK):
        octets = arr[start:start + x.size]
        x[:octets.size] = octets
        x[octets.size:] = 0.0
        k = -(-min(n - start, _BLOCK) // b)  # rows in this block
        for t in range(last + 1):
            np.matmul(rows_x[:k].T, rows_x[t:t + k], out=product)
            acc[t] += product
    side_by_side = acc.transpose(1, 0, 2).reshape(b, -1)  # [C_0 | C_1 | ... | C_T]
    diagonals = np.lib.stride_tricks.as_strided(
        side_by_side, shape=(b, max_lag + 1),
        strides=(side_by_side.strides[0] + side_by_side.strides[1], side_by_side.strides[1]))
    dot = diagonals.sum(axis=0)
    # The slice sums are exact integers too: the sums over x[:n - lag]
    # and x[lag:] are the total less a sum over the lag octets cut off.
    head = arr[:max_lag].astype(np.float64)
    tail = arr[n - max_lag:][::-1].astype(np.float64)
    total, total2 = float(arr.sum()), dot[0]
    sa, sa2 = total - np.cumsum(tail), total2 - np.cumsum(tail * tail)
    sb, sb2 = total - np.cumsum(head), total2 - np.cumsum(head * head)
    m = n - np.arange(1, max_lag + 1, dtype=np.float64)
    cov = dot[1:max_lag + 1] - sa * sb / m
    var_a = sa2 - sa * sa / m
    var_b = sb2 - sb * sb / m
    out = np.full(max_lag, math.nan)
    defined = (var_a > 0) & (var_b > 0)
    out[defined] = cov[defined] / np.sqrt(var_a[defined] * var_b[defined])
    return out


# ---------------------------------------------------------------------------
# periodicity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodicityReport:
    """Global-repetition and repeated-substring findings.

    period is the length of the repeating block if the whole sequence is
    a repetition of a block of at least min_len octets, else None.
    longest_repeat is the length of the longest substring occurring at
    least twice (0 if none); the two witness offsets are included.
    """

    period: int | None
    longest_repeat: int
    witness: tuple[int, int] | None


def _global_period(data: bytes, min_len: int) -> int | None:
    n = len(data)
    idx = (data + data).find(data, 1)
    if idx == -1 or idx >= n:
        return None
    # idx < n implies data = block**k with the smallest block size idx
    # dividing n; any multiple of idx that divides n is also a period
    p = idx
    while p < min_len or n % p:
        p += idx
        if p > n // 2:
            return None
    return p


# The odd multiplier of the rolling polynomial hash (mod 2**64).
_HASH_BASE = 0x9E3779B97F4A7C15


def _prefix_arrays(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The length-independent arrays of the rolling polynomial hash
    (mod 2**64): csum[i] = sum of arr[j] * base**-j over j < i, and
    powers[i] = base**i."""
    base = np.uint64(_HASH_BASE)
    base_inv = np.uint64(pow(_HASH_BASE, -1, 1 << 64))
    n = arr.size
    inv_powers = np.empty(n, dtype=np.uint64)
    inv_powers[0] = 1
    np.multiply.accumulate(np.full(n - 1, base_inv), out=inv_powers[1:])
    weighted = arr.astype(np.uint64) * inv_powers
    csum = np.concatenate([[np.uint64(0)], np.cumsum(weighted, dtype=np.uint64)])
    powers = np.empty(n + 1, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(np.full(n, base), out=powers[1:])
    return csum, powers


def _window_hashes(csum: np.ndarray, powers: np.ndarray, length: int) -> np.ndarray:
    """Hashes of every window of `length`, from the prefix arrays."""
    n = csum.size - 1
    return (csum[length:] - csum[:n - length + 1]) * powers[length - 1:n]


def _find_repeat(data: bytes, csum: np.ndarray, powers: np.ndarray,
                 length: int) -> tuple[int, int] | None:
    """Offsets of two equal windows of `length`, verified byte-for-byte.

    Runs of equal hashes are taken in sorted hash order, and each run's
    windows in stable (offset) order; the first window whose bytes
    match an earlier one of its run gives the pair.  Every window of a
    run is checked, not only hash-order neighbours, so a repeat whose
    copies are split by a colliding window is still found.
    """
    hashes = _window_hashes(csum, powers, length)
    order = np.argsort(hashes, kind="stable")
    hs = hashes[order]
    seen: dict[bytes, int] = {}
    prev = -2
    for d in np.nonzero(hs[1:] == hs[:-1])[0].tolist():
        if d != prev + 1:  # a new run of equal hashes starts at d
            i = int(order[d])
            seen = {data[i:i + length]: i}
        prev = d
        j = int(order[d + 1])
        i = seen.setdefault(data[j:j + length], j)
        if i != j:
            return (i, j)
    return None


def _gap_blocks(windows: np.ndarray):
    """The XOR of each sorted window with the one before it, and the
    later window of each pair, for _BLOCK pairs at a time."""
    for i in range(0, windows.size - 1, _BLOCK):
        later = windows[i + 1:i + 1 + _BLOCK]
        yield later ^ windows[i:i + later.size], later


def _short_repeat(data: bytes) -> tuple[int, tuple[int, int] | None]:
    """The longest repeat and its witness if the repeat is shorter than
    8 octets, else (8, None).

    Every window of 8 octets, read as a big-endian uint64, is sorted
    once.  The longest common prefix of any two windows is reached by
    two neighbours in sorted order, and it is the number of leading zero
    octets of their XOR (Manber and Myers, "Suffix arrays", SODA 1990).
    The windows that start in the last 7 octets are shorter than 8; each
    is extended with bytes.find while it still occurs elsewhere.

    The witness is the pair _find_repeat gives at the longest repeat L,
    found without hashing every window.  All copies of a string hash
    alike and runs are taken in ascending hash order, so that pair is
    the first two copies of the repeated L-octet string with the least
    hash; of strings that tie on it, the one whose second copy comes
    first.  The repeated strings are the L-octet prefixes of equal
    sorted neighbours, and the strings at the last 7 offsets that occur
    twice.

    Working memory is the 8n octets of sorted windows, which the sort
    needs, and 9 * _BLOCK octets (576 KiB) for one block of their gaps.
    """
    n = len(data)
    longest = 0
    repeated = []  # repeated strings of the length found, as big-endian ints
    if n > 8:
        windows = np.concatenate(
            [np.frombuffer(data, ">u8", count=(n - k) // 8, offset=k) for k in range(8)],
            dtype=np.uint64)
        windows.sort()
        closest = min(int(gaps.min()) for gaps, _ in _gap_blocks(windows))
        if closest == 0:
            return 8, None
        longest = (64 - closest.bit_length()) // 8
        if longest:
            shift = 64 - 8 * longest
            limit = np.uint64(1 << shift)  # below it, the first `longest` octets agree
            for gaps, later in _gap_blocks(windows):
                repeated += (later[gaps < limit] >> np.uint64(shift)).tolist()
    for j in range(max(n - 7, 0), n):
        for length in range(longest + 1, n - j + 1):
            sub = data[j:j + length]
            if data.find(sub) == j and data.find(sub, j + 1) == -1:
                break
            longest = length
            repeated = []  # no full window holds a repeat this long
    if not longest:
        return 0, None
    for j in range(max(n - 7, 0), n - longest + 1):
        sub = data[j:j + longest]
        if data.find(sub) != j or data.find(sub, j + 1) != -1:
            repeated.append(int.from_bytes(sub, "big"))
    strings = np.unique(np.array(repeated, dtype=np.uint64))
    hashes = np.zeros_like(strings)
    for k in range(longest):  # Horner's rule, first octet highest
        octet = (strings >> np.uint64(8 * (longest - 1 - k))) & np.uint64(0xFF)
        hashes = hashes * np.uint64(_HASH_BASE) + octet
    copies = []
    for value in strings[hashes == hashes.min()].tolist():
        sub = value.to_bytes(longest, "big")
        i = data.find(sub)
        copies.append((data.find(sub, i + 1), i))
    j, i = min(copies)
    return longest, (i, j)


def _grow_repeat(data: bytes, csum: np.ndarray, powers: np.ndarray,
                 lo: int) -> tuple[int, tuple[int, int] | None]:
    """The longest repeat and its witness, given that a repeat of `lo`
    octets exists.

    Whether a repeat of length L exists is monotone in L, so lengths
    2 lo, 4 lo, ... are probed until one has no repeat, and the last gap
    is bisected.  The witness is the last successful probe's, which was
    at the final length; `lo` itself is probed only if no longer length
    repeats.
    """
    hi = len(data) - 1
    witness = None
    length = 2 * lo
    while length <= hi:
        found = _find_repeat(data, csum, powers, length)
        if not found:
            hi = length - 1
            break
        lo, witness = length, found
        length *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = _find_repeat(data, csum, powers, mid)
        if found:
            lo, witness = mid, found
        else:
            hi = mid - 1
    return lo, witness or _find_repeat(data, csum, powers, lo)


def periodicity(data: bytes, min_len: int = 2) -> PeriodicityReport:
    """Scan for global block repetition and the longest repeated
    substring.

    One sort of every 8-octet window gives the longest repeat, and its
    witness, when it is shorter than 8 octets.  Only when two full
    windows are equal do verified rolling-hash probes take over,
    doubling from 8 and then bisecting.  Either way the witness is the
    pair of equal windows of the longest repeat that comes first in
    stable hash order.
    """
    if min_len < 2:
        raise ValueError("min_len must be at least 2")
    data = bytes(data)
    if len(data) < 2:
        return PeriodicityReport(None, 0, None)
    longest, witness = _short_repeat(data)
    if longest == 8:
        csum, powers = _prefix_arrays(np.frombuffer(data, dtype=np.uint8))
        longest, witness = _grow_repeat(data, csum, powers, longest)
    return PeriodicityReport(_global_period(data, min_len), longest, witness)
