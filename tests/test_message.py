"""Byte-message framing and the bulk table path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_key_tables
from reference_oracle import ref_encrypt_bytes, ref_encrypt_words
from separ.core import OddLengthError, Separ


def _octets(words) -> bytes:
    """The big-endian octets of 16-bit words."""
    return b"".join(w.to_bytes(2, "big") for w in words)


def test_empty_message():
    cipher = Separ(bytes(32))
    assert cipher.encrypt(bytes(16), b"") == b""
    assert cipher.decrypt(bytes(16), b"") == b""


def test_odd_length_rejected():
    cipher = Separ(bytes(32))
    with pytest.raises(OddLengthError):
        cipher.encrypt(bytes(16), b"abc")
    with pytest.raises(OddLengthError):
        cipher.decrypt(bytes(16), b"abc")


def test_odd_length_pad_zero():
    cipher = Separ(bytes(32))
    padded = cipher.encrypt(bytes(16), b"abc", pad_zero=True)
    explicit = cipher.encrypt(bytes(16), b"abc\x00")
    assert padded == explicit
    assert len(padded) == 4


def test_big_endian_word_mapping():
    # first octet is the high half of the first word
    cipher = Separ(bytes(32))
    st = cipher.initialize(bytes(16))
    expect = cipher.encrypt_word(st, 0xAB12)
    data = cipher.encrypt(bytes(16), bytes([0xAB, 0x12]))
    assert data == expect.to_bytes(2, "big")


def test_roundtrip_random_messages(rng):
    """1000 random messages up to 1 KiB, spread over 32 random keys."""
    ciphers = [Separ(rng.randbytes(32)) for _ in range(32)]
    for _ in range(1000):
        cipher = ciphers[rng.randrange(len(ciphers))]
        nonce = rng.randbytes(16)
        data = rng.randbytes(2 * rng.randrange(0, 513))
        assert cipher.decrypt(nonce, cipher.encrypt(nonce, data)) == data


def test_roundtrip_large_messages(rng):
    for _ in range(5):
        key = rng.randbytes(32)
        nonce = rng.randbytes(16)
        n = Separ._BULK_THRESHOLD
        data = rng.randbytes(2 * rng.randrange(n, 2 * n))  # forces bulk path
        cipher = Separ(key)
        ct = cipher.encrypt(nonce, data)
        assert list(cipher._key_tables) == [False]
        assert ct != data
        assert cipher.decrypt(nonce, ct) == data


def test_bulk_and_scalar_paths_identical(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    data = rng.randbytes(4 * Separ._BULK_THRESHOLD)
    bulk = Separ(key)
    bulk_ct = bulk.encrypt(nonce, data)  # above threshold: table path
    assert list(bulk._key_tables) == [False]
    scalar = Separ(key)
    st = scalar.initialize(nonce)
    words = [int.from_bytes(data[i:i + 2], "big") for i in range(0, len(data), 2)]
    scalar_ct = b"".join(
        scalar.encrypt_word(st, w).to_bytes(2, "big") for w in words)
    assert bulk_ct == scalar_ct


@settings(max_examples=30, deadline=None)
@given(key=st.binary(min_size=32, max_size=32), nonce=st.binary(min_size=16, max_size=16),
       words=st.lists(st.integers(0, 0xFFFF), max_size=64))
def test_word_steps_tables_and_oracle_agree(key, nonce, words):
    """The word loops fed the shared-table stages (through encrypt_word)
    and fed the per-key tables (encrypt on a cipher whose tables are
    built) give the oracle's words, and both decrypt paths invert."""
    cipher = Separ(key)
    enc = cipher.initialize(nonce)
    cts = [cipher.encrypt_word(enc, w) for w in words]
    assert cts == ref_encrypt_words(key, nonce, words)
    assert enc.t == len(words)

    dec = cipher.initialize(nonce)
    assert [cipher.decrypt_word(dec, c) for c in cts] == words
    assert dec == enc

    tabled = with_key_tables(Separ(key))
    ct = tabled.encrypt(nonce, _octets(words))
    assert ct == _octets(cts)
    assert tabled.decrypt(nonce, ct) == _octets(words)


def test_memoryview_nonce_is_bytes_like(rng):
    key, nonce, data = rng.randbytes(32), rng.randbytes(16), rng.randbytes(24)
    cipher = Separ(key)
    assert cipher.encrypt(memoryview(nonce), data) == cipher.encrypt(nonce, data)
    with pytest.raises(ValueError, match="nonce must be 16 octets, got 15"):
        cipher.encrypt(memoryview(nonce[:15]), data)


def test_matches_reference_bytes(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    data = rng.randbytes(64)
    assert Separ(key).encrypt(nonce, data) == ref_encrypt_bytes(key, nonce, data)


def test_keystream_is_zero_word_ciphertext(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    cipher = Separ(key)
    ks = cipher.keystream(nonce, 32)
    assert ks == cipher.encrypt(nonce, bytes(64))
    assert len(ks) == 64


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_keystream_equals_encrypted_zeros_at_bulk_threshold(rng, offset):
    """keystream and encrypt choose their engine alike: below the
    threshold a fresh cipher steps word by word, at and above it runs the
    word loop on the key's tables, and a cipher whose tables are built
    always runs on them.  All give the same octets."""
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    nwords = Separ._BULK_THRESHOLD + offset
    fresh = Separ(key).keystream(nonce, nwords)
    tabled = with_key_tables(Separ(key))
    assert fresh == tabled.keystream(nonce, nwords)
    assert fresh == Separ(key).encrypt(nonce, bytes(2 * nwords))


def test_each_direction_builds_its_tables_once(rng, table_builds):
    """Short messages on a fresh key build no tables.  The first message
    whose length so far reaches the threshold builds the key's eight
    forward tables, and every later message reads them, long or short,
    one-shot or streamed; the first long decryption builds the eight
    inverse ones."""
    key, nonce = rng.randbytes(32), rng.randbytes(16)
    long, short = rng.randbytes(2 * Separ._BULK_THRESHOLD), rng.randbytes(24)
    fresh = Separ(key)
    fresh.decrypt(nonce, fresh.encrypt(nonce, short))
    fresh.keystream(nonce, 12)
    assert table_builds == []

    cipher = Separ(key)
    ct = cipher.encrypt(nonce, long)
    assert cipher.encrypt(nonce, long) == ct
    assert cipher.encrypt(nonce, short) == fresh.encrypt(nonce, short)
    stream, twice = cipher.encryptor(nonce), 2 * long
    streamed = b"".join(stream.update(twice[i:i + 1024]) for i in range(0, len(twice), 1024))
    assert streamed + stream.finalize() == cipher.encrypt(nonce, twice)
    assert table_builds == [False] * 8
    assert cipher.decrypt(nonce, ct) == long
    assert table_builds == [False] * 8 + [True] * 8


def test_short_keystream_builds_no_tables(rng):
    cipher = Separ(rng.randbytes(32))
    ks = cipher.keystream(rng.randbytes(16), Separ._BULK_THRESHOLD - 1)
    assert len(ks) == 2 * (Separ._BULK_THRESHOLD - 1)
    assert cipher._key_tables == {}


def test_keystream_deterministic(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    assert Separ(key).keystream(nonce, 100) == Separ(key).keystream(nonce, 100)


def test_keystream_rejects_negative_length(rng):
    cipher = Separ(rng.randbytes(32))
    assert cipher.keystream(rng.randbytes(16), 0) == b""
    with pytest.raises(ValueError):
        cipher.keystream(rng.randbytes(16), -3)


def test_encrypt_is_pure(rng):
    key = rng.randbytes(32)
    nonce = rng.randbytes(16)
    data = rng.randbytes(32)
    cipher = Separ(key)
    assert cipher.encrypt(nonce, data) == cipher.encrypt(nonce, data)
