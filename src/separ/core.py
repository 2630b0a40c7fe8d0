"""SEPAR cipher core: 16-bit word primitives, key schedule, and the
stateful encryption/decryption machine.

SEPAR is a hybrid block/stream design: a 256-bit master key drives eight
keyed 16-bit permutations (``enc_block``), which are chained through a
144-bit internal state (eight 16-bit state words plus a 16-bit LFSR).
Plaintext is consumed one 16-bit word at a time; every processed word
stirs the state, so equal plaintext words encrypt differently.

Conventions used throughout:

* All "words" are Python ints in [0, 0xFFFF]; arithmetic wraps mod 2**16.
* A 16-bit word splits into four nibbles A, B, C, D where A is the
  *least* significant nibble and D the most significant.  This ordering
  is what makes the single-S-box differential trails of the design sit
  at the third hex digit (values of the form 0x0a00), and is the only
  ordering under which those trails survive the diffusion layer.
* Byte-oriented interfaces (keys, nonces, messages, hex I/O) are
  big-endian: the first octet of a pair is the high half of the word.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

MASK16 = 0xFFFF
WORD_BITS = 16

# Substitution tables.  Four bijective 4-bit boxes; SBOXES[0] acts on
# nibble A (least significant), SBOXES[3] on nibble D (most significant).
SBOXES = (
    (0x1, 0xF, 0xB, 0x2, 0x0, 0x3, 0x5, 0x8, 0x6, 0x9, 0xC, 0x7, 0xD, 0xA, 0xE, 0x4),
    (0x6, 0xA, 0xF, 0x4, 0xE, 0xD, 0x9, 0x2, 0x1, 0x7, 0xC, 0xB, 0x0, 0x3, 0x5, 0x8),
    (0xC, 0x2, 0x6, 0x1, 0x0, 0x3, 0x5, 0x8, 0x7, 0x9, 0xB, 0xE, 0xA, 0xD, 0xF, 0x4),
    (0xD, 0xB, 0x2, 0x7, 0x0, 0x3, 0x5, 0x8, 0x6, 0xC, 0xF, 0x1, 0xA, 0x4, 0x9, 0xE),
)
INV_SBOXES = tuple(tuple(box.index(v) for v in range(16)) for box in SBOXES)

KEY_BYTES = 32   # 256-bit master key
NONCE_BYTES = 16  # 128-bit initialization vector
NUM_BLOCKS = 8   # chained enc_block stages per word
INIT_ROUNDS = 4
LFSR_FORCE_BIT = 0x0100  # OR'ed into the LFSR seed after initialization


class OddLengthError(ValueError):
    """Message length is not a whole number of 16-bit words."""


_ODD_PLAINTEXT = ("message length must be a multiple of 2 octets; zero-pad it "
                  "with pad_zero=True (separ encrypt --pad-zero)")
_ODD_CIPHERTEXT = "ciphertext length must be a multiple of 2 octets"


# ---------------------------------------------------------------------------
# word primitives
# ---------------------------------------------------------------------------

def rotl(x: int, n: int) -> int:
    """Rotate a 16-bit word left by n positions."""
    n %= WORD_BITS
    return ((x << n) | (x >> (WORD_BITS - n))) & MASK16


def modadd(x: int, y: int) -> int:
    """(x + y) mod 2**16."""
    return (x + y) & MASK16


def _nibbles(m: int) -> tuple[int, int, int, int]:
    """(A, B, C, D) with A the least significant nibble."""
    return m & 0xF, (m >> 4) & 0xF, (m >> 8) & 0xF, (m >> 12) & 0xF


def _word(a: int, b: int, c: int, d: int) -> int:
    return (d << 12) | (c << 8) | (b << 4) | a


def sbox_layer(m: int) -> int:
    """Substitute each nibble through its own table."""
    a, b, c, d = _nibbles(m)
    return _word(SBOXES[0][a], SBOXES[1][b], SBOXES[2][c], SBOXES[3][d])


def inv_sbox_layer(m: int) -> int:
    a, b, c, d = _nibbles(m)
    return _word(INV_SBOXES[0][a], INV_SBOXES[1][b], INV_SBOXES[2][c], INV_SBOXES[3][d])


def nibble_mix(m: int) -> int:
    """Cross-nibble XOR mix.

    The four assignments run in order, so C picks up the already-updated
    B and D the already-updated A:

        A ^= C;  B ^= D;  C ^= B;  D ^= A
    """
    a, b, c, d = _nibbles(m)
    a ^= c
    b ^= d
    c ^= b
    d ^= a
    return _word(a, b, c, d)


def inv_nibble_mix(m: int) -> int:
    a, b, c, d = _nibbles(m)
    d ^= a
    c ^= b
    b ^= d
    a ^= c
    return _word(a, b, c, d)


def linear_diffusion(m: int) -> int:
    """m XOR (m <<< 8) XOR (m <<< 12)."""
    return m ^ rotl(m, 8) ^ rotl(m, 12)


def inv_linear_diffusion(m: int) -> int:
    """Inverse of :func:`linear_diffusion`: m XOR (m <<< 4) XOR (m <<< 8),
    since (1 + P^8 + P^12)(1 + P^4 + P^8) = 1 over GF(2) for the rotation
    P, whose 16th power is 1."""
    return m ^ rotl(m, 4) ^ rotl(m, 8)


# ---------------------------------------------------------------------------
# round tables
# ---------------------------------------------------------------------------

def _table(f) -> array:
    """f on every 16-bit word, for an f with f(x) = f(x & 0xFF00) ^
    f(x & 0xFF) ^ f(0): any nibble-box layer, any GF(2)-linear map, and
    a linear map after a nibble-box layer.  So f(x) = hi[x >> 8] ^
    lo[x & 0xFF], and the table is one XOR of two 128 KiB octet strings,
    not 2**16 calls: each hi word repeated 256 times, and the 256 lo
    words repeated as a block."""
    zero = f(0)
    his = array("H", [f(a << 8) ^ zero for a in range(256)]).tobytes()
    hi_part = b"".join([his[i:i + 2] * 256 for i in range(0, len(his), 2)])
    lo_part = array("H", map(f, range(256))).tobytes() * 256
    x = int.from_bytes(hi_part, "little") ^ int.from_bytes(lo_part, "little")
    return array("H", x.to_bytes(len(lo_part), "little"))


def _translate_octets(table: array, hi: bytes, lo: bytes) -> array:
    """g(table[x]) for every x, for a g that maps each octet of a word on
    its own: the high octet through `hi`, the low one through `lo`."""
    raw = bytearray(table.tobytes())
    first, second = (lo, hi) if sys.byteorder == "little" else (hi, lo)
    raw[0::2] = raw[0::2].translate(first)
    raw[1::2] = raw[1::2].translate(second)
    return array("H", raw)


# S is the S-box layer and R = linear_diffusion . nibble_mix . S the
# unkeyed round body, with their inverses, as array('H') for scalar
# lookups.  R^-1 = S^-1 . mix^-1 . diffusion^-1 is not of _table's form,
# so S^-1 is applied octet by octet to the table of its linear part.
S = _table(sbox_layer)
R = _table(lambda m: linear_diffusion(nibble_mix(sbox_layer(m))))
S_INV = _table(inv_sbox_layer)
R_INV = _translate_octets(_table(lambda m: inv_nibble_mix(inv_linear_diffusion(m))),
                          bytes(inv_sbox_layer(a << 8) >> 8 for a in range(256)),
                          bytes(inv_sbox_layer(b) & 0xFF for b in range(256)))


@functools.cache
def _np_round_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """numpy views of S, R, S_INV and R_INV on the same buffers, for
    gathers.  The first call imports numpy."""
    import numpy as np
    return tuple(np.frombuffer(t, dtype=np.uint16) for t in (S, R, S_INV, R_INV))


# ---------------------------------------------------------------------------
# byte framing
# ---------------------------------------------------------------------------

def _octet_view(data) -> bytes | memoryview:
    """Any bytes-like object as its octets, so that its length counts
    octets whatever its item format or shape: bytes as they are (the
    common case, and the cheaper), anything else as a flat view."""
    return data if isinstance(data, bytes) else memoryview(data).cast("B")


def _words(data: bytes) -> array:
    """The big-endian 16-bit words of an even-length byte string."""
    words = array("H")
    words.frombytes(data)
    if sys.byteorder == "little":
        words.byteswap()
    return words


def _whole_words(data, pad_zero: bool, odd_length: str):
    """The octets of `data` as whole words: an odd trailing octet is
    zero-padded if pad_zero, else OddLengthError(odd_length) is raised."""
    if len(data) % 2:
        if not pad_zero:
            raise OddLengthError(odd_length)
        return bytes(data) + b"\x00"
    return data


def _octets(words: Iterable[int]) -> bytes:
    """Inverse of :func:`_words`."""
    packed = array("H", words)
    if sys.byteorder == "little":
        packed.byteswap()
    return packed.tobytes()


def _keystream_length(nwords: int) -> int:
    """nwords, if it is a keystream length: not negative."""
    if nwords < 0:
        raise ValueError(f"keystream length must be non-negative, got {nwords}")
    return nwords


# ---------------------------------------------------------------------------
# key schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubkeySet:
    """The six 16-bit subkeys feeding one enc_block stage.

    sk5 and sk6 are redundant whitening keys (sk5 = sk1^sk2,
    sk6 = sk3^sk4); the constructor enforces those identities.
    """

    n: int
    sk1: int
    sk2: int
    sk3: int
    sk4: int
    sk5: int
    sk6: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= NUM_BLOCKS:
            raise ValueError(f"stage index out of range: {self.n}")
        for i, v in enumerate(self.keys, 1):
            if not 0 <= v <= MASK16:
                raise ValueError(f"sk{i} out of range: {v:#x}")
        if self.sk5 != self.sk1 ^ self.sk2:
            raise ValueError("sk5 must equal sk1 XOR sk2")
        if self.sk6 != self.sk3 ^ self.sk4:
            raise ValueError("sk6 must equal sk3 XOR sk4")

    @property
    def keys(self) -> tuple[int, int, int, int, int, int]:
        """sk1..sk6, in order."""
        return self.sk1, self.sk2, self.sk3, self.sk4, self.sk5, self.sk6

    @classmethod
    def from_halves(cls, n: int, sk1: int, sk2: int, sk3: int, sk4: int) -> "SubkeySet":
        return cls(n, sk1, sk2, sk3, sk4, sk1 ^ sk2, sk3 ^ sk4)


ZERO_SUBKEYS = SubkeySet(1, 0, 0, 0, 0, 0, 0)

_FIELD_SHIFT = 7          # the schedule's 4-bit S-box window sits at bits 7..10
_FIELD_MASK = 0xF << _FIELD_SHIFT


def _key_words(key: bytes) -> array:
    """The sixteen big-endian words of a 256-bit key: segment n's k1 and
    k2 are words 2n - 2 and 2n - 1."""
    key = _octet_view(key)
    if len(key) != KEY_BYTES:
        raise ValueError(f"master key must be {KEY_BYTES} octets, got {len(key)}")
    return _words(key)


def _sbox_window(w: int) -> int:
    """Substitute the 4-bit field at bits 7..10 through the first S-box."""
    field = (w & _FIELD_MASK) >> _FIELD_SHIFT
    return (w & ~_FIELD_MASK & MASK16) | (SBOXES[0][field] << _FIELD_SHIFT)


def _stage_keys(k1: int, k2: int, n: int) -> tuple[int, int, int, int, int, int]:
    """The schedule formula: stage n's subkeys sk1..sk6 from its segment."""
    sk3 = _sbox_window(rotl(k1, 6)) ^ (n + 2)
    sk4 = _sbox_window(rotl(k2, 10)) ^ (n + 3)
    return k1, k2, sk3, sk4, k1 ^ k2, sk3 ^ sk4


# ---------------------------------------------------------------------------
# the 16-bit keyed permutation
# ---------------------------------------------------------------------------

class _Stage:
    """enc_block under one stage's subkeys sk1..sk6: four keyed rounds,
    then a final keyed substitution,

        S[R[R[R[R[m^k1]^k2]^k3]^k4]^k5]^k6

    where R is one unkeyed round (S-box layer, nibble mix, diffusion)
    and S the S-box layer, both as shared 2**16-entry tables.  Indexed
    like that stage's per-key table, so that the word loops serve both;
    like the table, it wraps an index in [-2**16, 0)."""

    __slots__ = ("keys",)

    def __init__(self, keys: tuple[int, int, int, int, int, int]) -> None:
        self.keys = keys

    def __getitem__(self, m: int) -> int:
        k1, k2, k3, k4, k5, k6 = self.keys
        return S[R[R[R[R[m ^ k1] ^ k2] ^ k3] ^ k4] ^ k5] ^ k6


class _InverseStage(_Stage):
    """dec_block under one stage's subkeys, indexed like its inverse table."""

    __slots__ = ()

    def __getitem__(self, c: int) -> int:
        k1, k2, k3, k4, k5, k6 = self.keys
        return R_INV[R_INV[R_INV[R_INV[S_INV[c ^ k6] ^ k5] ^ k4] ^ k3] ^ k2] ^ k1


def enc_block(m: int, sk: SubkeySet) -> int:
    """The keyed 16-bit permutation of one stage (see :class:`_Stage`)."""
    if not 0 <= m <= MASK16:
        raise ValueError(f"block word out of range: {m!r}")
    return _Stage(sk.keys)[m]


def dec_block(c: int, sk: SubkeySet) -> int:
    """Exact inverse of :func:`enc_block`, on the inverse tables."""
    if not 0 <= c <= MASK16:
        raise ValueError(f"block word out of range: {c!r}")
    return _InverseStage(sk.keys)[c]


# ---------------------------------------------------------------------------
# LFSR
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LfsrSpec:
    """Feedback configuration for the 16-bit Fibonacci LFSR.

    ``taps`` selects the state bits XORed into the feedback; the
    register shifts left with the feedback entering at bit 0.  The
    default mask 0xD008 (bits 15, 14, 12, 3) is the classic maximal
    tap set conventionally written x^16 + x^15 + x^13 + x^4 + 1.
    Construction walks the full cycle and rejects any mask whose period
    falls short of 2**16 - 1.
    """

    taps: int = 0xD008

    def __post_init__(self) -> None:
        if not 0 < self.taps <= MASK16:
            raise ValueError(f"taps mask out of range: {self.taps:#x}")
        if not _is_maximal_length(self.taps):
            raise ValueError(
                f"taps {self.taps:#06x} do not generate a maximal-length sequence")


@functools.lru_cache(maxsize=32)
def _lfsr_next(taps: int) -> array:
    """The LFSR clock as a table: the successor of each 16-bit state (0
    maps to 0).  The register shifts left and the parity of the tapped
    bits enters at bit 0."""
    return _table(lambda x: ((x << 1) & MASK16) | ((x & taps).bit_count() & 1))


@functools.lru_cache(maxsize=32)
def _is_maximal_length(taps: int) -> bool:
    nxt = _lfsr_next(taps)
    state = 1
    for step in range(1, 1 << WORD_BITS):
        state = nxt[state]
        if state == 1:
            return step == (1 << WORD_BITS) - 1
    return False


DEFAULT_LFSR = LfsrSpec()


def lfsr_clock(lfsr: int, spec: LfsrSpec = DEFAULT_LFSR) -> int:
    """Advance the LFSR one step.  The all-zero state is rejected."""
    if not 0 < lfsr <= MASK16:
        raise ValueError(f"LFSR state must be a nonzero 16-bit word, got {lfsr!r}")
    return _lfsr_next(spec.taps)[lfsr]


# ---------------------------------------------------------------------------
# cipher state machine
# ---------------------------------------------------------------------------

@dataclass
class CipherState:
    """The 144-bit mutable machine: eight state words, the LFSR, and a
    step counter.  One logical owner at a time; never share for
    concurrent mutation.

    Construction rejects a state no step can reach: other than eight
    words in [0, 2**16), or an LFSR outside (0, 2**16).  The word loops
    check again on entry, because `states` is a list callers may change.
    """

    states: list[int]
    lfsr: int
    t: int = 0

    def __post_init__(self) -> None:
        if len(self.states) != 8:
            raise ValueError(f"a state holds eight words, got {len(self.states)}")
        s1, s2, s3, s4, s5, s6, s7, s8 = self.states
        if not self.lfsr or (s1 | s2 | s3 | s4 | s5 | s6 | s7 | s8 | self.lfsr) >> 16:
            raise ValueError("state words must be 16-bit words and the LFSR a nonzero one")

    def copy(self) -> "CipherState":
        return CipherState(list(self.states), self.lfsr, self.t)


def _parse_nonce(nonce: bytes | Sequence[int]) -> list[int]:
    """The nonce's eight words: any bytes-like object is read as its 16
    octets, as keys and messages are; any other sequence as the words."""
    try:
        memoryview(nonce)
    except TypeError:
        words = list(nonce)
        if len(words) != 8 or any(not 0 <= w <= MASK16 for w in words):
            raise ValueError("nonce must be eight 16-bit words") from None
        return words
    octets = _octet_view(nonce)
    if len(octets) != NONCE_BYTES:
        raise ValueError(f"nonce must be {NONCE_BYTES} octets, got {len(octets)}")
    return _words(octets).tolist()


class Separ:
    """A master-key-bound SEPAR instance.

    The key schedule runs once at construction.  Each message (or
    keystream) starts from :meth:`initialize` with a fresh nonce; the
    returned :class:`CipherState` is then stepped word by word.

    >>> cipher = Separ(bytes(32))
    >>> data = cipher.encrypt(bytes(16), b"attack at dawn!!")
    >>> cipher.decrypt(bytes(16), data)
    b'attack at dawn!!'
    """

    def __init__(self, key: bytes, lfsr_spec: LfsrSpec = DEFAULT_LFSR) -> None:
        w = _key_words(key)
        # Only the stage objects' six ints feed the word loops and
        # initialize; the validated `subkeys` are built on first use.
        keys = [_stage_keys(w[2 * i], w[2 * i + 1], i + 1) for i in range(NUM_BLOCKS)]
        self.lfsr_spec = lfsr_spec
        self._lfsr_table = _lfsr_next(lfsr_spec.taps)
        self._stages = tuple(map(_Stage, keys))
        self._inverse_stages = tuple(map(_InverseStage, keys))
        self._enc_tables: list[array] | None = None
        self._dec_tables: list[array] | None = None

    @functools.cached_property
    def subkeys(self) -> tuple[SubkeySet, ...]:
        """Each stage's subkeys as a validated :class:`SubkeySet`, stage 1
        first."""
        return tuple(SubkeySet(n, *st.keys) for n, st in enumerate(self._stages, 1))

    # -- initialization ------------------------------------------------

    def initialize(self, nonce: bytes | Sequence[int]) -> CipherState:
        """Load the nonce and mix it for four rounds.

        Deterministic: the same (key, nonce) pair always produces the
        same state.  The final mixing word seeds the LFSR with bit
        0x0100 forced on, so the LFSR never starts at zero.
        """
        s = _parse_nonce(nonce)
        t1, t2, t3, t4, t5, t6, t7, t8 = self._stages
        out = 0
        for _ in range(INIT_ROUNDS):
            v12 = t1[s[0] ^ s[2] ^ s[4] ^ s[6]]
            v23 = t2[v12 ^ s[1]]
            v34 = t3[v23 ^ s[2]]
            v45 = t4[v34 ^ s[3]]
            v56 = t5[v45 ^ s[4]]
            v67 = t6[v56 ^ s[5]]
            v78 = t7[v67 ^ s[6]]
            out = t8[v78 ^ s[7]]
            s = [s[0] ^ out, s[1] ^ v12, s[2] ^ v23, s[3] ^ v34,
                 s[4] ^ v45, s[5] ^ v56, s[6] ^ v67, s[7] ^ v78]
        return CipherState(states=s, lfsr=out | LFSR_FORCE_BIT, t=0)

    # -- word-at-a-time machine -----------------------------------------

    def encrypt_word(self, st: CipherState, pt: int) -> int:
        """Encrypt one word and advance the state.

        The state update reads the pre-step state words except that the
        new state3 sees the already-updated state4, and the new state5
        sees the already-clocked LFSR.
        """
        if not 0 <= pt <= MASK16:
            raise ValueError(f"plaintext word out of range: {pt!r}")
        return self._encrypt_words(st, (pt,), self._stages)[0]

    def decrypt_word(self, st: CipherState, ct: int) -> int:
        """Decrypt one word; performs the identical state update, so a
        decrypting party stays synchronized with the encrypting one.

        A desynchronized state yields garbage plaintext, not an error:
        the machine has no way to detect it.
        """
        if not 0 <= ct <= MASK16:
            raise ValueError(f"ciphertext word out of range: {ct!r}")
        return self._decrypt_words(st, (ct,), self._inverse_stages)[0]

    # -- the word loops ---------------------------------------------------

    def _tables(self, inverse: bool = False) -> list[array]:
        """Per-stage 65536-entry lookup tables (built lazily, key-fixed),
        as array('H') so that a lookup in the word loops yields an int."""
        if inverse:
            if self._dec_tables is None:
                self._dec_tables = [array("H", dec_block_table(sk).tobytes())
                                    for sk in self.subkeys]
            return self._dec_tables
        if self._enc_tables is None:
            self._enc_tables = [array("H", enc_block_table(sk).tobytes())
                                for sk in self.subkeys]
        return self._enc_tables

    # The only place the state update and the LFSR clock are written, one
    # loop per direction.  `stages` are the eight enc_block (or dec_block)
    # lookups: the per-key tables, or the stage objects on the shared
    # round tables, which index alike.  Both take any index in
    # [-2**16, 2**16) and wrap it mod 2**16 as an array('H') of 2**16
    # entries does, so the loops leave most reductions to the lookups.

    def _encrypt_words(self, st: CipherState, words: Iterable[int],
                       stages: Sequence) -> array:
        t1, t2, t3, t4, t5, t6, t7, t8 = stages
        nxt = self._lfsr_table
        s1, s2, s3, s4, s5, s6, s7, s8 = st.states
        lfsr = st.lfsr
        if not lfsr:
            raise ValueError("LFSR state must be nonzero")
        if (s1 | s2 | s3 | s4 | s5 | s6 | s7 | s8 | lfsr) >> 16:
            raise ValueError("state words and LFSR must be 16-bit words")
        # The state words are held as s - 2**16, in [-2**16, 0), so every
        # index v + s lies in [-2**16, 2**16); `x | -0x10000` is
        # (x mod 2**16) - 2**16 for any int x.
        s1 -= 0x10000
        s2 -= 0x10000
        s3 -= 0x10000
        s4 -= 0x10000
        s5 -= 0x10000
        s6 -= 0x10000
        s7 -= 0x10000
        s8 -= 0x10000
        out = array("H")
        append = out.append
        for pt in words:
            v12 = t1[pt + s1]
            v23 = t2[v12 + s2]
            v34 = t3[v23 + s3]
            v45 = t4[v34 + s4]
            v56 = t5[v45 + s5]
            v67 = t6[v56 + s6]
            v78 = t7[v67 + s7]
            append(t8[v78 + s8])
            lfsr = nxt[lfsr]
            s4 = (v12 + v45 + s8) | -0x10000
            s3 = (v23 + s4 + s1) | -0x10000
            s1 = (v34 + v23 + v78 + s5) | -0x10000
            s5 = (v23 + lfsr) | -0x10000
            s2 = (v12 + v56 + s6) | -0x10000
            s6 = (v12 + v45 + s7) | -0x10000
            s7 = (v23 + v67) | -0x10000
            s8 = v45 | -0x10000
        st.states = [s1 & 0xFFFF, s2 & 0xFFFF, s3 & 0xFFFF, s4 & 0xFFFF,
                     s5 & 0xFFFF, s6 & 0xFFFF, s7 & 0xFFFF, s8 & 0xFFFF]
        st.lfsr = lfsr
        st.t += len(out)
        return out

    def _decrypt_words(self, st: CipherState, words: Iterable[int],
                       stages: Sequence) -> array:
        d1, d2, d3, d4, d5, d6, d7, d8 = stages
        nxt = self._lfsr_table
        s1, s2, s3, s4, s5, s6, s7, s8 = st.states
        lfsr = st.lfsr
        if not lfsr:
            raise ValueError("LFSR state must be nonzero")
        if (s1 | s2 | s3 | s4 | s5 | s6 | s7 | s8 | lfsr) >> 16:
            raise ValueError("state words and LFSR must be 16-bit words")
        out = array("H")
        append = out.append
        # Each stage value d[x] - s lies in (-2**16, 2**16) and indexes the
        # next lookup unreduced; only the output and the state are masked.
        for ct in words:
            v78 = d8[ct] - s8
            v67 = d7[v78] - s7
            v56 = d6[v67] - s6
            v45 = d5[v56] - s5
            v34 = d4[v45] - s4
            v23 = d3[v34] - s3
            v12 = d2[v23] - s2
            append((d1[v12] - s1) & 0xFFFF)
            lfsr = nxt[lfsr]
            s4 = (v12 + v45 + s8) & 0xFFFF
            s3 = (v23 + s4 + s1) & 0xFFFF
            s1 = (v34 + v23 + v78 + s5) & 0xFFFF
            s5 = (v23 + lfsr) & 0xFFFF
            s2 = (v12 + v56 + s6) & 0xFFFF
            s6 = (v12 + v45 + s7) & 0xFFFF
            s7 = (v23 + v67) & 0xFFFF
            s8 = v45 & 0xFFFF
        st.states = [s1, s2, s3, s4, s5, s6, s7, s8]
        st.lfsr = lfsr
        st.t += len(out)
        return out

    # -- message framing --------------------------------------------------

    # Below this many words, stepping word by word on the shared-table
    # stages beats building a fresh key's tables.  On a shared 2-CPU host
    # (Python 3.11, numpy 2.4), with a fresh key, 2048 words took 17.3
    # and 14.9 ms word by word against 15.2 and 14.3 ms for the tables
    # plus the loop (encryption, medians of 15, two runs); at 1536 words
    # the stages won (13.0 and 10.5 ms against 14.1 and 13.3 ms), at 3072
    # the tables (16.9 and 16.6 ms against 25.1 and 24.8 ms).  Those runs
    # had numpy loaded: the first table build in a process also pays the
    # numpy import (about 90 ms there), which nothing below it loads.
    _BULK_THRESHOLD = 2048

    def encryptor(self, nonce: bytes | Sequence[int]) -> "Encryptor":
        """A resumable encryption of one message: its octets go in through
        :meth:`Encryptor.update` in pieces of any size, and
        :meth:`Encryptor.finalize` ends it."""
        return Encryptor(self, nonce)

    def decryptor(self, nonce: bytes | Sequence[int]) -> "Decryptor":
        """A resumable decryption of one message, the inverse of
        :meth:`encryptor`."""
        return Decryptor(self, nonce)

    def encrypt(self, nonce: bytes | Sequence[int], data: bytes,
                pad_zero: bool = False) -> bytes:
        """Encrypt a byte string.  Length must be even unless pad_zero."""
        data = _whole_words(_octet_view(data), pad_zero, _ODD_PLAINTEXT)
        return self._message(self.initialize(nonce), _words(data), len(data) // 2)

    def decrypt(self, nonce: bytes | Sequence[int], data: bytes) -> bytes:
        """Decrypt a byte string produced by :meth:`encrypt`."""
        data = _whole_words(_octet_view(data), False, _ODD_CIPHERTEXT)
        return self._message(self.initialize(nonce), _words(data), len(data) // 2,
                             inverse=True)

    def keystream(self, nonce: bytes | Sequence[int], nwords: int) -> bytes:
        """Ciphertext of nwords zero words: the statistical sample source."""
        _keystream_length(nwords)
        return self._message(self.initialize(nonce), itertools.repeat(0, nwords), nwords)

    def _message(self, st: CipherState, words: Iterable[int], nwords: int,
                 inverse: bool = False) -> bytes:
        """The one message path, continuing from `st`: the word loop on the
        key's tables from the threshold up or once they are built, else one
        word step at a time."""
        built = self._dec_tables if inverse else self._enc_tables
        if nwords >= self._BULK_THRESHOLD or built is not None:
            loop = self._decrypt_words if inverse else self._encrypt_words
            out = loop(st, words, self._tables(inverse))
            if sys.byteorder == "little":
                out.byteswap()
            return out.tobytes()
        step = self.decrypt_word if inverse else self.encrypt_word
        return _octets([step(st, w) for w in words])


class _Stream:
    """One message in progress over one :class:`CipherState`.  Each
    :meth:`update` runs the whole words among the octets given so far, on
    the engine :meth:`Separ._message` picks for that call's word count,
    and carries an odd trailing octet into the next call."""

    _inverse: bool
    _odd_length: str   # the OddLengthError text of an odd message

    def __init__(self, cipher: Separ, nonce: bytes | Sequence[int]) -> None:
        self._cipher = cipher
        self._state: CipherState | None = cipher.initialize(nonce)
        self._carry = b""

    def update(self, data: bytes) -> bytes:
        """The output of every word the octets given so far complete."""
        if self._state is None:
            raise ValueError("the stream is finalized")
        data = _octet_view(data)
        if self._carry:
            data = self._carry + data
        even = len(data) & ~1
        self._carry = bytes(data[even:])
        return self._run(data[:even])

    def _run(self, data) -> bytes:
        return self._cipher._message(self._state, _words(data), len(data) // 2,
                                     self._inverse)

    def _finish(self, pad_zero: bool) -> bytes:
        """End the stream as a one-shot call ends its message; if that
        raises OddLengthError, the stream stays open."""
        if self._state is None:
            raise ValueError("the stream is finalized")
        tail = self._run(_whole_words(self._carry, pad_zero, self._odd_length))
        self._state = None
        return tail


class Encryptor(_Stream):
    """A resumable encryption, from :meth:`Separ.encryptor`."""

    _inverse = False
    _odd_length = _ODD_PLAINTEXT

    def finalize(self, pad_zero: bool = False) -> bytes:
        """The last word's output if an odd octet is left and pad_zero,
        else b"".  Any call after a successful finalize raises ValueError."""
        return self._finish(pad_zero)


class Decryptor(_Stream):
    """A resumable decryption, from :meth:`Separ.decryptor`."""

    _inverse = True
    _odd_length = _ODD_CIPHERTEXT

    def finalize(self) -> bytes:
        """b"", or OddLengthError if an odd octet is left.  Any call after
        a successful finalize raises ValueError."""
        return self._finish(pad_zero=False)


def enc_block_table(sk: SubkeySet) -> np.ndarray:
    """enc_block evaluated on every 16-bit input, as a uint16 array:
    the five lookups of :func:`enc_block` as gathers on the round tables."""
    import numpy as np
    s, r, _, _ = _np_round_tables()
    *round_keys, k5, k6 = sk.keys
    m = np.arange(1 << WORD_BITS, dtype=np.uint16)
    for k in round_keys:
        m = r[m ^ k]
    return s[m ^ k5] ^ k6


def dec_block_table(sk: SubkeySet) -> np.ndarray:
    """dec_block evaluated on every 16-bit input, as gathers on the
    inverse round tables."""
    import numpy as np
    _, _, s_inv, r_inv = _np_round_tables()
    k1, k2, k3, k4, k5, k6 = sk.keys
    m = s_inv[np.arange(1 << WORD_BITS, dtype=np.uint16) ^ k6] ^ k5
    for k in (k4, k3, k2, k1):
        m = r_inv[m] ^ k
    return m

