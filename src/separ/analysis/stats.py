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

def histogram(data: bytes) -> np.ndarray:
    """256-bin symbol frequency counts; counts sum to len(data)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.bincount(arr, minlength=256)


def entropy(data: bytes) -> float:
    """Shannon entropy in bits per octet."""
    if len(data) == 0:
        raise ValueError("entropy of an empty sequence is undefined")
    counts = histogram(data)
    p = counts[counts > 0] / len(data)
    return float(-(p * np.log2(p)).sum())


def autocorrelation(data: bytes, max_lag: int) -> np.ndarray:
    """Pearson correlation between the sequence and its lag-shifted self,
    for lags 1..max_lag (lag 0 is trivially 1 and not returned).

    Entries are NaN where the correlation is undefined (a constant
    slice has no variance to normalize by).
    """
    n = len(data)
    if not 0 < max_lag < n:
        raise ValueError("max_lag must satisfy 0 < max_lag < len(data)")
    x = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.float64)
    # prefix sums make the per-lag slice means/variances O(1)
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


def _prefix_arrays(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The length-independent arrays of the rolling polynomial hash
    (mod 2**64): csum[i] = sum of arr[j] * base**-j over j < i, and
    powers[i] = base**i."""
    base = np.uint64(0x9E3779B97F4A7C15)
    base_inv = np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))
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


def _longest_short_repeat(data: bytes) -> int:
    """The longest repeat if it is shorter than 8 octets, else 8.

    Every window of 8 octets, read as a big-endian uint64, is sorted
    once.  The longest common prefix of any two windows is reached by
    two neighbours in sorted order, and it is the number of leading zero
    octets of their XOR (Manber and Myers, "Suffix arrays", SODA 1990).
    The windows that start in the last 7 octets are shorter than 8; each
    is extended with bytes.find while it still occurs elsewhere.
    """
    n = len(data)
    longest = 0
    if n > 8:
        windows = np.concatenate(
            [np.frombuffer(data, ">u8", count=(n - k) // 8, offset=k) for k in range(8)],
            dtype=np.uint64)
        windows.sort()
        closest = int((windows[1:] ^ windows[:-1]).min())
        if closest == 0:
            return 8
        longest = (64 - closest.bit_length()) // 8
    for j in range(max(n - 7, 0), n):
        for length in range(longest + 1, n - j + 1):
            sub = data[j:j + length]
            if data.find(sub) == j and data.find(sub, j + 1) == -1:
                break
            longest = length
    return longest


def _grow_repeat(data: bytes, csum: np.ndarray, powers: np.ndarray, lo: int) -> int:
    """The longest repeat, given that one of `lo` octets exists.

    Whether a repeat of length L exists is monotone in L, so lengths
    2 lo, 4 lo, ... are probed until one has no repeat, and the last gap
    is bisected.
    """
    hi = len(data) - 1
    length = 2 * lo
    while length <= hi:
        if not _find_repeat(data, csum, powers, length):
            hi = length - 1
            break
        lo = length
        length *= 2
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _find_repeat(data, csum, powers, mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def periodicity(data: bytes, min_len: int = 2) -> PeriodicityReport:
    """Scan for global block repetition and the longest repeated
    substring.

    One sort of every 8-octet window gives the longest repeat when it is
    shorter than 8 octets.  Only when two full windows are equal do
    verified rolling-hash probes take over, doubling from 8 and then
    bisecting.  The witness comes from one hash probe at the longest
    repeat: of the equal windows in stable hash order, the first pair
    whose bytes match.
    """
    if min_len < 2:
        raise ValueError("min_len must be at least 2")
    data = bytes(data)
    if len(data) < 2:
        return PeriodicityReport(None, 0, None)
    longest = _longest_short_repeat(data)
    witness = None
    if longest:
        csum, powers = _prefix_arrays(np.frombuffer(data, dtype=np.uint8))
        if longest == 8:
            longest = _grow_repeat(data, csum, powers, longest)
        witness = _find_repeat(data, csum, powers, longest)
    return PeriodicityReport(_global_period(data, min_len), longest, witness)
