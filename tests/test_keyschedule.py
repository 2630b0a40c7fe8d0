"""Master key splitting and subkey derivation."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as hs

from reference_oracle import ref_schedule
from separ.core import SegmentKey, Separ, SubkeySet, derive_subkeys, split_master_key


def test_split_zero_key():
    segs = split_master_key(bytes(32))
    assert len(segs) == 8
    assert all((s.k1, s.k2) == (0, 0) for s in segs)
    assert [s.index for s in segs] == list(range(1, 9))


def test_split_first_segment_big_endian():
    key = bytes.fromhex(
        "E8B9B733DA5D96D702DD3972E95307FD50C512DBF44A233E8D1E9DF5FC7D6371")
    segs = split_master_key(key)
    assert (segs[0].k1, segs[0].k2) == (0xE8B9, 0xB733)
    assert (segs[7].k1, segs[7].k2) == (0xFC7D, 0x6371)


def test_split_partition_property(rng):
    key = rng.randbytes(32)
    segs = split_master_key(key)
    rebuilt = b"".join(
        s.k1.to_bytes(2, "big") + s.k2.to_bytes(2, "big") for s in segs)
    assert rebuilt == key


@pytest.mark.parametrize("length", [0, 16, 31, 33, 64])
def test_split_rejects_wrong_length(length):
    with pytest.raises(ValueError):
        split_master_key(bytes(length))


def test_derive_zero_segment():
    sk = derive_subkeys(SegmentKey(1, 0, 0), 1)
    assert (sk.sk1, sk.sk2, sk.sk3, sk.sk4, sk.sk5, sk.sk6) == (
        0x0000, 0x0000, 0x0083, 0x0084, 0x0000, 0x0007)


def test_derive_identities_random(rng):
    for _ in range(1000):
        seg = SegmentKey(1, rng.randrange(1 << 16), rng.randrange(1 << 16))
        n = rng.randrange(1, 9)
        sk = derive_subkeys(seg, n)
        assert sk.sk5 == sk.sk1 ^ sk.sk2
        assert sk.sk6 == sk.sk3 ^ sk.sk4
        assert sk.sk1 == seg.k1 and sk.sk2 == seg.k2


@pytest.mark.parametrize("n", [0, 9, -1])
def test_derive_rejects_bad_stage(n):
    with pytest.raises(ValueError):
        derive_subkeys(SegmentKey(1, 0, 0), n)


def test_subkeyset_rejects_broken_identities():
    with pytest.raises(ValueError):
        SubkeySet(1, 1, 2, 3, 4, 0, 7)  # sk5 should be 3
    with pytest.raises(ValueError):
        SubkeySet(1, 1, 2, 3, 4, 3, 0)  # sk6 should be 7


def test_stage_number_changes_subkeys():
    seg = SegmentKey(1, 0x1234, 0x5678)
    sets = [derive_subkeys(seg, n) for n in range(1, 9)]
    assert len({(s.sk3, s.sk4) for s in sets}) == 8


@given(key=hs.binary(min_size=32, max_size=32))
@example(key=bytes(32))
@example(key=b"\xff" * 32)
def test_cipher_schedule_matches_reference(key):
    """The stage keys the word loops read, and the lazily built public
    views, equal the oracle's schedule and the module functions."""
    cipher = Separ(key)
    assert [list(stage.keys) for stage in cipher._stages] == ref_schedule(key)
    assert [list(stage.keys) for stage in cipher._inverse_stages] == ref_schedule(key)
    assert cipher.subkeys == tuple(derive_subkeys(s, s.index) for s in split_master_key(key))
    assert cipher.segments == split_master_key(key)


@pytest.mark.parametrize("length", [0, 31, 33])
def test_cipher_rejects_wrong_key_length(length):
    with pytest.raises(ValueError, match=f"master key must be 32 octets, got {length}"):
        Separ(bytes(length))
