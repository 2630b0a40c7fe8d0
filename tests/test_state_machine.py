"""Initialization and the word-at-a-time encrypt/decrypt machine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from reference_oracle import ref_encrypt_words, ref_initialize
from separ import core
from separ.core import (
    LFSR_FORCE_BIT,
    CipherState,
    Separ,
    enc_block,
    lfsr_clock,
    modadd,
)

GOLDEN_INIT_STATES = [0x5E29, 0x9D44, 0x468C, 0x1F49,
                      0x1A3A, 0x0DBA, 0x57D3, 0xA281]
GOLDEN_INIT_LFSR = 0x09A3
GOLDEN_FIRST_CT = 0xB06A  # zero key, zero nonce, zero plaintext word


def test_initialize_golden_zero():
    st = Separ(bytes(32)).initialize(bytes(16))
    assert st.states == GOLDEN_INIT_STATES
    assert st.lfsr == GOLDEN_INIT_LFSR
    assert st.t == 0


def test_initialize_matches_reference_random(rng):
    for _ in range(20):
        key = rng.randbytes(32)
        nonce = rng.randbytes(16)
        ref_states, ref_lfsr = ref_initialize(key, nonce)
        st = Separ(key).initialize(nonce)
        assert st.states == ref_states and st.lfsr == ref_lfsr


@settings(deadline=None)
@given(key=hs.binary(min_size=32, max_size=32), nonce=hs.binary(min_size=16, max_size=16))
def test_initialize_matches_reference(key, nonce):
    st = Separ(key).initialize(nonce)
    assert (st.states, st.lfsr, st.t) == (*ref_initialize(key, nonce), 0)


def test_setup_and_short_message_build_no_schedule_objects(monkeypatch):
    """Construction and a short message read only the stage objects: no
    SubkeySet is built unless a caller asks for one."""
    def built(*args, **kwargs):
        raise AssertionError("a schedule object was built")

    monkeypatch.setattr(core.SubkeySet, "__init__", built)
    cipher = Separ(bytes(range(32)))
    ct = cipher.encrypt(bytes(16), bytes(24))
    assert cipher.decrypt(bytes(16), ct) == bytes(24)
    with pytest.raises(AssertionError):
        cipher.subkeys
    with pytest.raises(AssertionError):
        core.SubkeySet.from_halves(1, 0, 0, 0, 0)


def test_initialize_deterministic(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    cipher = Separ(key)
    a = cipher.initialize(nonce)
    b = cipher.initialize(nonce)
    assert a.states == b.states and a.lfsr == b.lfsr and a.t == b.t


def test_initialize_forces_lfsr_bit(rng):
    for _ in range(1000):
        cipher = Separ(rng.randbytes(32))
        st = cipher.initialize(rng.randbytes(16))
        assert st.lfsr & LFSR_FORCE_BIT == LFSR_FORCE_BIT
        assert st.lfsr != 0


def test_initialize_nonce_sensitive(rng):
    for _ in range(1000):
        key = rng.randbytes(32)
        nonce = bytearray(rng.randbytes(16))
        cipher = Separ(key)
        base = cipher.initialize(bytes(nonce))
        bit = rng.randrange(128)
        nonce[bit // 8] ^= 0x80 >> (bit % 8)
        flipped = cipher.initialize(bytes(nonce))
        assert base.states != flipped.states


def test_initialize_accepts_word_sequence():
    st_bytes = Separ(bytes(32)).initialize(bytes(16))
    st_words = Separ(bytes(32)).initialize([0] * 8)
    assert st_bytes.states == st_words.states


def test_first_ct_golden():
    cipher = Separ(bytes(32))
    st = cipher.initialize(bytes(16))
    assert cipher.encrypt_word(st, 0x0000) == GOLDEN_FIRST_CT
    assert st.t == 1


def test_stream_matches_reference(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    words = [rng.randrange(1 << 16) for _ in range(64)]
    cipher = Separ(key)
    st = cipher.initialize(nonce)
    got = [cipher.encrypt_word(st, w) for w in words]
    assert got == ref_encrypt_words(key, nonce, words)


def _whitebox_vs(cipher, st, pt):
    """Recompute the stage outputs independently from the pre-step state."""
    sk = cipher.subkeys
    v = modadd(pt, st.states[0])
    vs = []
    for i in range(8):
        v = enc_block(v, sk[i])
        vs.append(v)
        if i < 7:
            v = modadd(v, st.states[i + 1])
    return vs  # [v12, v23, v34, v45, v56, v67, v78, ct]


def test_whitebox_state_updates(rng):
    """state8' is the fourth stage output; state5' is the second stage
    output plus the freshly clocked LFSR."""
    key = rng.randbytes(32)
    cipher = Separ(key)
    st = cipher.initialize(rng.randbytes(16))
    for _ in range(64):
        pt = rng.randrange(1 << 16)
        vs = _whitebox_vs(cipher, st, pt)
        lfsr_next = lfsr_clock(st.lfsr)
        cipher.encrypt_word(st, pt)
        assert st.states[7] == vs[3]                      # V45
        assert st.states[4] == modadd(vs[1], lfsr_next)   # V23 + LFSR'
        assert st.lfsr == lfsr_next


def test_encrypt_decrypt_state_sync(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    enc_cipher = Separ(key)
    dec_cipher = Separ(key)
    enc_st = enc_cipher.initialize(nonce)
    dec_st = dec_cipher.initialize(nonce)
    for k in range(64):
        pt = rng.randrange(1 << 16)
        ct = enc_cipher.encrypt_word(enc_st, pt)
        assert dec_cipher.decrypt_word(dec_st, ct) == pt
        assert enc_st.states == dec_st.states
        assert enc_st.lfsr == dec_st.lfsr
        assert enc_st.t == dec_st.t == k + 1


def test_decrypt_stream_of_encrypt_stream(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    cipher = Separ(key)
    words = [rng.randrange(1 << 16) for _ in range(10_000)]
    enc_st = cipher.initialize(nonce)
    cts = [cipher.encrypt_word(enc_st, w) for w in words]
    dec_st = cipher.initialize(nonce)
    pts = [cipher.decrypt_word(dec_st, c) for c in cts]
    assert pts == words


def test_single_step_roundtrip_sampled(rng):
    """Round trip over random single words from a fixed initialized
    state, resetting the state each trial (exhaustive run lives in the
    acceptance suite)."""
    cipher = Separ(rng.randbytes(32))
    base = cipher.initialize(rng.randbytes(16))
    for _ in range(512):
        pt = rng.randrange(1 << 16)
        enc_st = base.copy()
        dec_st = base.copy()
        assert cipher.decrypt_word(dec_st, cipher.encrypt_word(enc_st, pt)) == pt


def test_state_is_144_bits():
    st = Separ(bytes(32)).initialize(bytes(16))
    assert len(st.states) == 8
    assert all(0 <= w <= 0xFFFF for w in st.states)
    assert 0 <= st.lfsr <= 0xFFFF
    # eight 16-bit words plus the 16-bit LFSR: 144 bits of secret state


def test_bad_nonce_rejected():
    cipher = Separ(bytes(32))
    with pytest.raises(ValueError):
        cipher.initialize(bytes(15))
    with pytest.raises(ValueError):
        cipher.initialize([0] * 7)
    with pytest.raises(ValueError):
        cipher.initialize([0x10000] * 8)


# Impossible states: a zero LFSR, or a state word or LFSR outside
# [0, 2**16), as (index of the state word set, its value, the LFSR).
_BAD_STATES = [(0, 0, 0), (7, 0x10000, 1), (0, -1, 1), (0, 0, 0x10000)]


@pytest.mark.parametrize("step", ["encrypt_word", "decrypt_word"])
def test_word_step_rejects_zero_lfsr(step):
    """Also a state word or LFSR outside [0, 2**16); st is left as it was.
    The state is valid when built and changed in place, as callers may."""
    cipher = Separ(bytes(32))
    for i, word, lfsr in _BAD_STATES:
        st = CipherState([0] * 8, 1)
        st.states[i] = word
        st.lfsr = lfsr
        before = (list(st.states), st.lfsr, st.t)
        with pytest.raises(ValueError, match="LFSR"):
            getattr(cipher, step)(st, 0x1234)
        assert (st.states, st.lfsr, st.t) == before


def test_state_construction_rejects_impossible_states():
    for i, word, lfsr in _BAD_STATES:
        states = [0] * 8
        states[i] = word
        with pytest.raises(ValueError, match="LFSR"):
            CipherState(states, lfsr)
    for count in (7, 9):
        with pytest.raises(ValueError, match="eight words"):
            CipherState([0] * count, 1)
    st = CipherState([0xFFFF] * 8, 0xFFFF)
    assert st.copy() == st


@pytest.mark.parametrize("step", ["encrypt_word", "decrypt_word"])
@pytest.mark.parametrize("word", [0x10000, 0x1FFFF, -1])
def test_word_step_rejects_out_of_range_word(step, word):
    cipher = Separ(bytes(32))
    st = cipher.initialize(bytes(16))
    before = st.copy()
    with pytest.raises(ValueError, match="word out of range"):
        getattr(cipher, step)(st, word)
    assert st == before


def _straight_step(cipher, st, pt):
    """One encryption step from enc_block, modadd and lfsr_clock alone:
    the ciphertext word and the next state."""
    v12, v23, v34, v45, v56, v67, v78, ct = _whitebox_vs(cipher, st, pt)
    s = st.states
    lfsr = lfsr_clock(st.lfsr)
    new4 = modadd(modadd(v12, v45), s[7])
    states = [modadd(modadd(modadd(v34, v23), v78), s[4]),
              modadd(modadd(v12, v56), s[5]),
              modadd(modadd(v23, new4), s[0]),
              new4,
              modadd(v23, lfsr),
              modadd(modadd(v12, v45), s[6]),
              modadd(v23, v67),
              v45]
    return ct, CipherState(states, lfsr, st.t + 1)


# The words where an index v + s or an update sum crosses a multiple of
# 2**16, mixed with any 16-bit word.
_EDGE_WORDS = hs.sampled_from([0, 1, 0x7FFF, 0x8000, 0xFFFE, 0xFFFF]) | hs.integers(0, 0xFFFF)


@pytest.fixture(scope="module")
def tabled_cipher():
    cipher = Separ(bytes(range(32)))
    cipher._tables()
    cipher._tables(inverse=True)
    return cipher


@settings(max_examples=150, deadline=None)
@given(states=hs.lists(_EDGE_WORDS, min_size=8, max_size=8),
       lfsr=hs.integers(1, 0xFFFF),
       pts=hs.lists(_EDGE_WORDS, min_size=1, max_size=6))
def test_word_loops_wrap_at_boundaries(tabled_cipher, states, lfsr, pts):
    """From hand-built states, both encryption paths (the stage objects
    through encrypt_word, the loop on the key's tables) match the
    straight-line step in output and final state, and both decryption
    paths invert them."""
    cipher = tabled_cipher
    start = CipherState(states, lfsr)
    expect, cts = start, []
    for pt in pts:
        ct, expect = _straight_step(cipher, expect, pt)
        cts.append(ct)

    scalar = start.copy()
    assert [cipher.encrypt_word(scalar, pt) for pt in pts] == cts
    assert scalar == expect
    tabled = start.copy()
    assert cipher._encrypt_words(tabled, pts, cipher._tables()).tolist() == cts
    assert tabled == expect

    scalar = start.copy()
    assert [cipher.decrypt_word(scalar, ct) for ct in cts] == pts
    assert scalar == expect
    tabled = start.copy()
    assert cipher._decrypt_words(tabled, cts, cipher._tables(inverse=True)).tolist() == pts
    assert tabled == expect
