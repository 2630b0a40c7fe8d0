"""Ciphertext statistics: avalanche, entropy, histogram, autocorrelation,
and periodicity scanning."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core import DEFAULT_LFSR, LfsrSpec, Separ, _octet_view


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
    """256-bin symbol frequency counts of the octets of any bytes-like
    object, read in place whatever its item format; counts sum to its
    length in octets.

    np.bincount widens its input to 8-byte indices, so it counts _BLOCK
    octets at a time: working memory is 8 * _BLOCK octets (512 KiB).
    """
    arr = np.frombuffer(_octet_view(data), dtype=np.uint8)
    counts = np.bincount(arr[:_BLOCK], minlength=256)
    for start in range(_BLOCK, arr.size, _BLOCK):
        counts += np.bincount(arr[start:start + _BLOCK], minlength=256)
    return counts


def entropy(data: bytes) -> float:
    """Shannon entropy in bits per octet."""
    counts = histogram(data)
    n = int(counts.sum())
    if n == 0:
        raise ValueError("entropy of an empty sequence is undefined")
    p = counts[counts > 0] / n
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
    arr = np.frombuffer(_octet_view(data), dtype=np.uint8)
    n = arr.size
    if not 0 < max_lag < n:
        raise ValueError("max_lag must satisfy 0 < max_lag < len(data)")
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
    least twice (0 if none).  witness is the offsets of the first two
    copies of the repeated string of that length with the least
    polynomial hash (_HASH_BASE, first octet highest); of strings that
    tie on it, the one whose second copy comes first.
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
    csum = np.zeros(n + 1, dtype=np.uint64)
    csum[1] = 1
    np.multiply.accumulate(np.full(n - 1, base_inv), out=csum[2:])
    csum[1:] *= arr
    np.cumsum(csum[1:], out=csum[1:])
    powers = np.empty(n + 1, dtype=np.uint64)
    powers[0] = 1
    np.multiply.accumulate(np.full(n, base), out=powers[1:])
    return csum, powers


def _window_hashes(csum: np.ndarray, powers: np.ndarray, length: int,
                   offsets: np.ndarray) -> np.ndarray:
    """Hashes of the windows of `length` at `offsets`."""
    ends = offsets + length
    return (csum[ends] - csum[offsets]) * powers[ends - 1]


def _gap_blocks(windows: np.ndarray):
    """The XOR of each sorted window with the one before it, and the
    later window of each pair, for _BLOCK pairs at a time."""
    for i in range(0, windows.size - 1, _BLOCK):
        later = windows[i + 1:i + 1 + _BLOCK]
        yield later ^ windows[i:i + later.size], later


def _sorted_repeat(windows: np.ndarray, width: int) -> tuple[int, list[int]]:
    """The longest common prefix, in octets, of two of the sorted
    windows of `width` octets, and the strings of that length that the
    neighbours in sorted order share, as big-endian ints; (width, []) if
    two windows are equal.

    The longest common prefix of any two windows is reached by two
    neighbours in sorted order, and it is the number of leading zero
    octets of their XOR (Manber and Myers, "Suffix arrays", SODA 1990).
    """
    if windows.size < 2:
        return 0, []
    closest = min(int(gaps.min()) for gaps, _ in _gap_blocks(windows))
    if closest == 0:
        return width, []
    longest = (8 * width - closest.bit_length()) // 8
    repeated = []
    if longest:
        bits = 8 * (width - longest)
        shift = windows.dtype.type(bits)
        limit = windows.dtype.type(1 << bits)  # below it, the first `longest` octets agree
        for gaps, later in _gap_blocks(windows):
            repeated += (later[gaps < limit] >> shift).tolist()
    return longest, repeated


def _sorted_windows(data: bytes, width: int) -> np.ndarray:
    """Every window of `width` (4 or 8) octets, read as a big-endian
    uint, sorted: `width` octets for each offset."""
    n = len(data)
    windows = np.concatenate(
        [np.frombuffer(data, f">u{width}", count=(n - k) // width, offset=k)
         for k in range(width)], dtype=f"u{width}")
    windows.sort()
    return windows


def _repeated_strings(windows: np.ndarray, n: int) -> np.ndarray | None:
    """The 4-octet strings that two of the sorted `windows` share, sorted;
    None if more than n / 64 windows repeat one before them."""
    chunks, repeats = [], 0
    for gaps, later in _gap_blocks(windows):
        chunks.append(later[gaps == 0])
        repeats += chunks[-1].size
        if repeats > n // 64:
            return None
    return np.unique(np.concatenate(chunks))


# Knuth's multiplicative hash (mod 2**32) of a 4-octet string picks its
# flag in _windows_passing's sieve: strings that share leading octets,
# as text or base64 strings do, spread over all the flags.
_SIEVE_HASH = np.uint32(0x9E3779B1)


def _windows_passing(data: bytes, strings: np.ndarray) -> np.ndarray | None:
    """The 8-octet windows, as big-endian uint64, that pass a sieve of
    the 4-octet `strings` (big-endian uint32), sorted; None if more
    than n / 8 do.

    The sieve has 16 or more flags per string, one set at the hash of
    each, and a window passes if the flag at the hash of its first 4
    octets is set.  So every window that starts with one of `strings`
    passes, and, where the hashes spread evenly, under one in 16 of the
    others; those only add pairs of windows that share fewer octets.  The first 4 octets are read as
    the low half of a little-endian uint64, and the strings hashed the
    same way.  Working memory is the sieve, n octets for n / 8 windows,
    and one block of _BLOCK windows at a time.
    """
    n = len(data)
    bits = min(32, max(16, (16 * strings.size).bit_length()))
    shift = np.uint32(32 - bits)
    sieve = np.zeros(1 << bits, dtype=bool)
    sieve[(strings.byteswap() * _SIEVE_HASH) >> shift] = True
    found = np.empty(n // 8, dtype=np.uint64)
    end = 0
    for k in range(8):
        count = (n - k) // 8
        windows = np.frombuffer(data, ">u8", count=count, offset=k)
        little = np.frombuffer(data, "<u8", count=count, offset=k)
        for start in range(0, count, _BLOCK):
            heads = little[start:start + _BLOCK].astype(np.uint32)
            heads *= _SIEVE_HASH
            heads >>= shift
            at = np.flatnonzero(sieve.take(heads))
            if end + at.size > found.size:
                return None
            found[end:end + at.size] = windows[start + at]
            end += at.size
    found = found[:end]
    found.sort()
    return found


def _few_repeats(data: bytes) -> bool:
    """Whether, judged from the first _BLOCK octets, at most n / 128 of
    the 4-octet windows repeat one before them in sorted order.

    Of m octets drawn independently from one law, about m**2 / (2 K)
    windows repeat, where 1 / K is the chance that two 4-octet strings
    drawn from it are equal: n octets hold (n / m)**2 times as many as
    m do.
    """
    n = len(data)
    sample = _sorted_windows(data[:_BLOCK], 4)
    repeats = int(np.count_nonzero(sample[1:] == sample[:-1]))
    return 128 * repeats * n <= sample.size ** 2


def _full_window_repeat(data: bytes) -> tuple[int, list[int]]:
    """A length L, up to 8, at which some string repeats, and strings of
    L octets that repeat, as big-endian ints.  Every longer repeat has a
    copy that starts in the last 7 octets; if none does, the strings
    are all those with two copies that start before them.  L == 8 if
    two 8-octet windows are equal.

    If few 4-octet windows repeat (_few_repeats), as in random octets
    up to tens of MiB, one sort of every window of 4 octets, read as a
    big-endian uint32, gives the repeat if it is shorter than 4 octets.
    Otherwise the 8-octet windows that pass a sieve of the repeated
    4-octet strings (_windows_passing) are sorted: two windows that
    share 4 octets or more share a repeated string, so both pass.  If
    many 4-octet windows repeat, as in text or data of a few dozen
    symbols, or more than n / 64 do (_repeated_strings), or more than
    n / 8 windows pass, all 8-octet windows are sorted.

    Working memory is the 4n octets of sorted 4-octet windows, which the
    sort needs, 5 * _BLOCK octets (320 KiB) for one block of their gaps,
    and up to n / 5 octets to collect the repeated strings; then under
    2n octets for those, the sieve and the windows that pass.  If many
    repeat, it is the 8n octets of all sorted windows.
    """
    n = len(data)
    if _few_repeats(data):
        windows = _sorted_windows(data, 4)
        longest, repeated = _sorted_repeat(windows, 4)
        if longest < 4:
            return longest, repeated
        strings = _repeated_strings(windows, n)
        del windows
        if strings is not None:
            windows = _windows_passing(data, strings)
            if windows is not None:
                return _sorted_repeat(windows, 8)
    return _sorted_repeat(_sorted_windows(data, 8), 8)


def _short_repeat(data: bytes) -> tuple[int, tuple[int, int] | None]:
    """The longest repeat and its witness if the repeat is shorter than
    8 octets, else (8, None).

    The windows of 8 octets, or of 4 first, are sorted
    (_full_window_repeat).  The windows that start in the last 7 octets
    are shorter than 8; each is extended with bytes.find while it still
    occurs elsewhere.

    The witness is the first two copies of the repeated L-octet string
    with the least hash; of strings that tie on it, the one whose second
    copy comes first.  Only the repeated strings are hashed: the L-octet
    prefixes of equal sorted neighbours, and the strings at the last 7
    offsets that occur twice.

    Working memory is that of _full_window_repeat: 4n octets if few
    4-octet windows repeat, else 8n.
    """
    n = len(data)
    longest = 0
    repeated = []  # repeated strings of the length found, as big-endian ints
    if n > 8:
        longest, repeated = _full_window_repeat(data)
        if longest == 8:
            return 8, None
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


def _pair_keys(rank: np.ndarray, width: int, length: int) -> np.ndarray:
    """One uint64 key per window of `length`, width <= length <= 2 width:
    the ranks of its first and of its last `width` octets."""
    keys = rank[:rank.size + width - length].astype(np.uint64) << np.uint64(32)
    keys |= rank[length - width:]
    return keys


def _long_repeat(data: bytes) -> tuple[int, tuple[int, int]]:
    """The longest repeat and its witness, given that two windows of 8
    octets are equal.

    Prefix doubling (Manber and Myers, "Suffix arrays", SODA 1990):
    rank[i] orders the windows of `width` octets, from single octets up,
    and one sort of the pairs (rank[i], rank[i + width]) ranks those of
    2 width octets, until none of them repeats.  A repeat of L octets
    exists for every L up to the longest, so the last gap is bisected on
    the pairs (rank[i], rank[i + L - width]).

    Each pair of equal neighbours among the final keys, in stable order,
    is two successive copies of a repeated string, its earliest pair its
    first two copies.  Hashes only order the strings for the witness;
    the sorts decide what repeats.
    """
    n = len(data)
    rank = np.frombuffer(data, dtype=np.uint8).astype(np.uint32)
    width = 1
    while 2 * width < n:
        keys = _pair_keys(rank, width, 2 * width)
        order = keys.argsort()
        keys = keys[order]
        step = keys[1:] != keys[:-1]
        if step.all():
            break
        rank = np.zeros(order.size, dtype=np.uint32)
        rank[order[1:]] = np.cumsum(step, dtype=np.uint32)
        width *= 2
    lo, hi = width, min(2 * width, n) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        keys = _pair_keys(rank, width, mid)
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            lo = mid
        else:
            hi = mid - 1
    keys = _pair_keys(rank, width, lo)
    del rank, order
    order = keys.argsort(kind="stable")
    keys = keys[order]
    equal = np.flatnonzero(keys[1:] == keys[:-1])
    copies, later = order[equal], order[equal + 1]
    del keys, order
    csum, powers = _prefix_arrays(np.frombuffer(data, dtype=np.uint8))
    hashes = _window_hashes(csum, powers, lo, copies)
    least = np.flatnonzero(hashes == hashes.min())
    k = least[np.argmin(later[least])]
    return lo, (int(copies[k]), int(later[k]))


def periodicity(data: bytes, min_len: int = 2) -> PeriodicityReport:
    """Scan for global block repetition and the longest repeated
    substring.

    One sort of every 8-octet window gives the longest repeat, and its
    witness, when it is shorter than 8 octets.  Where few 4-octet
    windows repeat, as in random octets, one sort of every 4-octet
    window and one of the 8-octet windows that may start with a
    repeated one give it instead, in about 4n octets of working memory
    instead of 8n (see _full_window_repeat).  Only when two full 8-octet
    windows are equal does prefix doubling of ranks take over, in time
    O(n log^2 n) and about 30n octets of working memory.
    """
    if min_len < 2:
        raise ValueError("min_len must be at least 2")
    data = bytes(data)
    if len(data) < 2:
        return PeriodicityReport(None, 0, None)
    longest, witness = _short_repeat(data)
    if longest == 8:
        longest, witness = _long_repeat(data)
    return PeriodicityReport(_global_period(data, min_len), longest, witness)
