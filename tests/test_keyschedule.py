"""The key schedule: each stage's subkeys from its 32-bit key segment."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from reference_oracle import ref_schedule, ref_subkeys
from separ.core import Separ, SubkeySet, _stage_keys


def test_split_zero_key():
    subkeys = Separ(bytes(32)).subkeys
    assert len(subkeys) == 8
    assert all((sk.sk1, sk.sk2) == (0, 0) for sk in subkeys)
    assert [sk.n for sk in subkeys] == list(range(1, 9))


def test_split_first_segment_big_endian():
    key = bytes.fromhex(
        "E8B9B733DA5D96D702DD3972E95307FD50C512DBF44A233E8D1E9DF5FC7D6371")
    subkeys = Separ(key).subkeys
    assert (subkeys[0].sk1, subkeys[0].sk2) == (0xE8B9, 0xB733)
    assert (subkeys[7].sk1, subkeys[7].sk2) == (0xFC7D, 0x6371)


def test_split_partition_property(rng):
    """Stage n's sk1 and sk2 are the key's octets 4n - 4 .. 4n - 1."""
    key = rng.randbytes(32)
    rebuilt = b"".join(
        sk.sk1.to_bytes(2, "big") + sk.sk2.to_bytes(2, "big") for sk in Separ(key).subkeys)
    assert rebuilt == key


@pytest.mark.parametrize("length", [0, 16, 31, 33, 64])
def test_split_rejects_wrong_length(length):
    with pytest.raises(ValueError):
        Separ(bytes(length))


def test_derive_zero_segment():
    assert Separ(bytes(32)).subkeys[0].keys == (
        0x0000, 0x0000, 0x0083, 0x0084, 0x0000, 0x0007)


def test_derive_identities_random(rng):
    for _ in range(125):
        key = rng.randbytes(32)
        for n, sk in enumerate(Separ(key).subkeys, 1):
            assert sk.n == n
            assert sk.sk5 == sk.sk1 ^ sk.sk2
            assert sk.sk6 == sk.sk3 ^ sk.sk4
            assert (sk.sk1, sk.sk2) == (int.from_bytes(key[4 * n - 4:4 * n - 2], "big"),
                                        int.from_bytes(key[4 * n - 2:4 * n], "big"))


@pytest.mark.parametrize("n", [0, 9, -1])
def test_derive_rejects_bad_stage(n):
    with pytest.raises(ValueError, match="stage index out of range"):
        SubkeySet.from_halves(n, 0, 0, 0, 0)


def test_subkeyset_rejects_broken_identities():
    with pytest.raises(ValueError):
        SubkeySet(1, 1, 2, 3, 4, 0, 7)  # sk5 should be 3
    with pytest.raises(ValueError):
        SubkeySet(1, 1, 2, 3, 4, 3, 0)  # sk6 should be 7


def test_stage_number_changes_subkeys():
    """Eight stages with equal segments still get distinct (sk3, sk4)."""
    subkeys = Separ(bytes.fromhex("12345678") * 8).subkeys
    assert {(sk.sk1, sk.sk2) for sk in subkeys} == {(0x1234, 0x5678)}
    assert len({(sk.sk3, sk.sk4) for sk in subkeys}) == 8


@given(key=hs.binary(min_size=32, max_size=32))
@example(key=bytes(32))
@example(key=b"\xff" * 32)
def test_cipher_schedule_matches_reference(key):
    """The stage keys the word loops read, and the lazily built
    `subkeys`, equal the oracle's schedule."""
    cipher = Separ(key)
    assert [list(stage.keys) for stage in cipher._stages] == ref_schedule(key)
    assert [list(stage.keys) for stage in cipher._inverse_stages] == ref_schedule(key)
    assert [list(sk.keys) for sk in cipher.subkeys] == ref_schedule(key)
    assert [sk.n for sk in cipher.subkeys] == list(range(1, 9))


def test_stage_keys_match_reference_for_every_segment_word():
    """sk3 depends on k1 alone and sk4 on k2 alone, so 2**16 segments reach
    every S-box window of both: k1 runs over every word, k2 over every
    word in the opposite order, and the stage number over 1..8."""
    for k1 in range(1 << 16):
        k2, n = k1 ^ 0xFFFF, k1 % 8 + 1
        assert list(_stage_keys(k1, k2, n)) == ref_subkeys(k1, k2, n), (k1, k2, n)


@pytest.mark.parametrize("length", [0, 31, 33])
def test_cipher_rejects_wrong_key_length(length):
    with pytest.raises(ValueError, match=f"master key must be 32 octets, got {length}"):
        Separ(bytes(length))
