"""Resumable streams (Separ.encryptor / Separ.decryptor) and octet
counting for every bytes-like input."""

import random
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference_oracle import ref_encrypt_bytes
from separ.core import OddLengthError, Separ

THRESHOLD_OCTETS = 2 * Separ._BULK_THRESHOLD


def _pieces(data, cuts):
    """data split at the cut points, each taken mod len(data) + 1."""
    bounds = sorted({0, len(data), *(c % (len(data) + 1) for c in cuts)})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


@settings(max_examples=20, deadline=None)
@given(key=st.binary(min_size=32, max_size=32), nonce=st.binary(min_size=16, max_size=16),
       length=st.integers(0, THRESHOLD_OCTETS + 900), seed=st.integers(0, 2**32 - 1),
       cuts=st.lists(st.integers(0, THRESHOLD_OCTETS + 900), max_size=4))
# a short odd piece on the stages, then one long enough for the tables
@example(key=bytes(32), nonce=bytes(16), length=THRESHOLD_OCTETS + 900, seed=1,
         cuts=[101])
@example(key=bytes(32), nonce=bytes(16), length=THRESHOLD_OCTETS + 901, seed=2,
         cuts=[1, 2, THRESHOLD_OCTETS + 3])
def test_any_split_equals_one_shot_and_oracle(key, nonce, length, seed, cuts):
    data = random.Random(seed).randbytes(length)
    padded = data + bytes(length % 2)
    enc = Separ(key).encryptor(nonce)
    ct = b"".join(enc.update(p) for p in _pieces(data, cuts)) + enc.finalize(pad_zero=True)
    assert ct == Separ(key).encrypt(nonce, data, pad_zero=True)
    assert ct == ref_encrypt_bytes(key, nonce, padded)
    dec = Separ(key).decryptor(nonce)
    assert b"".join(dec.update(p) for p in _pieces(ct, cuts)) + dec.finalize() == padded


def test_stream_moves_from_stages_to_tables(rng):
    """A stream's engine is chosen at each update, by its length so far:
    a short first piece steps word by word, a long one builds the key's
    tables, and every later piece runs on them."""
    key, nonce = rng.randbytes(32), rng.randbytes(16)
    data = rng.randbytes(THRESHOLD_OCTETS + 1000)
    cipher = Separ(key)
    stream = cipher.encryptor(nonce)
    out = stream.update(data[:500])
    assert cipher._key_tables == {}
    out += stream.update(data[500:-10])
    assert list(cipher._key_tables) == [False]
    out += stream.update(data[-10:]) + stream.finalize()
    assert out == ref_encrypt_bytes(key, nonce, data)


def test_small_pieces_take_the_tables_at_the_threshold(rng):
    """A stream fed 1 KiB pieces of a 64 KiB message steps word by word
    until its length so far reaches the threshold, and runs on the key's
    tables from the piece that reaches it; either direction gives the
    one-shot call's output and the oracle's."""
    key, nonce = rng.randbytes(32), rng.randbytes(16)
    data = rng.randbytes(1 << 16)
    ct = ref_encrypt_bytes(key, nonce, data)
    for direction, message, expected in (("encryptor", data, ct), ("decryptor", ct, data)):
        cipher = Separ(key)
        stream = getattr(cipher, direction)(nonce)
        out = b""
        for end in range(1024, len(message) + 1, 1024):
            out += stream.update(message[end - 1024:end])
            built = [direction == "decryptor"] if end >= THRESHOLD_OCTETS else []
            assert list(cipher._key_tables) == built
        assert out + stream.finalize() == expected
        assert getattr(Separ(key), direction.removesuffix("or"))(nonce, message) == expected


def test_odd_octet_is_carried_to_the_next_update(rng):
    cipher = Separ(rng.randbytes(32))
    nonce = rng.randbytes(16)
    stream = cipher.encryptor(nonce)
    assert stream.update(b"a") == b""
    assert stream.update(b"bc") == cipher.encrypt(nonce, b"ab")
    assert stream.update(b"d") == cipher.encrypt(nonce, b"abcd")[2:]
    assert stream.finalize() == b""


@pytest.mark.parametrize("direction", ["encryptor", "decryptor"])
def test_odd_finalize_raises_and_leaves_the_stream_open(rng, direction):
    cipher = Separ(rng.randbytes(32))
    nonce = rng.randbytes(16)
    stream = getattr(cipher, direction)(nonce)
    head = stream.update(b"xyz")
    with pytest.raises(OddLengthError) as exc:
        stream.finalize()
    one_shot = getattr(cipher, direction.removesuffix("or"))
    with pytest.raises(OddLengthError) as same:
        one_shot(nonce, b"xyz")
    assert str(exc.value) == str(same.value)
    assert head + stream.update(b"w") + stream.finalize() == one_shot(nonce, b"xyzw")


@pytest.mark.parametrize("direction", ["encryptor", "decryptor"])
def test_calls_after_finalize_raise(rng, direction):
    stream = getattr(Separ(rng.randbytes(32)), direction)(rng.randbytes(16))
    stream.update(b"ab")
    stream.finalize()
    with pytest.raises(ValueError, match="finalized"):
        stream.update(b"cd")
    with pytest.raises(ValueError, match="finalized"):
        stream.finalize()


def _wide(octets: bytes) -> memoryview:
    """A view of `octets` whose items are two octets wide, so its len()
    is half its octet count."""
    return memoryview(array("H", octets))


def test_bytes_like_inputs_count_octets(rng):
    """Key, nonce, message and stream pieces read the octets behind any
    bytes-like object, whatever its item size."""
    key, nonce, data = rng.randbytes(32), rng.randbytes(16), rng.randbytes(6)
    cipher = Separ(key)
    ct = cipher.encrypt(nonce, data)
    assert Separ(_wide(key)).encrypt(nonce, data) == ct
    assert cipher.encrypt(_wide(nonce), data) == ct
    assert cipher.encrypt(nonce, _wide(data)) == ct
    assert cipher.decrypt(nonce, _wide(ct)) == data
    stream = cipher.encryptor(nonce)
    assert stream.update(_wide(data[:4])) + stream.update(_wide(data[4:])) == ct
    spread = bytearray(2 * len(data))
    spread[::2] = data
    assert cipher.encrypt(nonce, memoryview(spread)[::2]) == ct  # strided
    for typecode in "BH":  # the arrays themselves, not views of them
        def raw(octets):
            return array(typecode, octets)
        assert Separ(raw(key)).encrypt(nonce, data) == ct
        assert cipher.encrypt(raw(nonce), data) == ct
        assert cipher.encrypt(nonce, raw(data)) == ct
        assert cipher.decrypt(raw(nonce), raw(ct)) == data
    # only a sequence that is not bytes-like holds the nonce's words
    words = [int.from_bytes(nonce[i:i + 2], "big") for i in range(0, 16, 2)]
    assert cipher.encrypt(words, data) == cipher.encrypt(tuple(words), data) == ct


@pytest.mark.parametrize("octets", [31, 33])
def test_key_length_error_counts_octets(octets):
    one_row = memoryview(bytes(octets)).cast("B", (1, octets))  # len() is 1
    with pytest.raises(ValueError, match=f"master key must be 32 octets, got {octets}$"):
        Separ(one_row)


def test_nonce_length_error_counts_octets():
    one_row = memoryview(bytes(15)).cast("B", (1, 15))
    with pytest.raises(ValueError, match="nonce must be 16 octets, got 15$"):
        Separ(bytes(32)).encrypt(one_row, b"")
