"""Word-level primitives: rotation, modular add, substitution, mixing,
and diffusion layers."""

import pytest

from separ.core import (
    SBOXES,
    INV_SBOXES,
    inv_linear_diffusion,
    inv_nibble_mix,
    inv_sbox_layer,
    linear_diffusion,
    modadd,
    nibble_mix,
    rotl,
    sbox_layer,
)


@pytest.mark.parametrize("x,n,expected", [
    (0x0001, 1, 0x0002),
    (0x8000, 1, 0x0001),
    (0xABCD, 0, 0xABCD),
    (0xABCD, 16, 0xABCD),
])
def test_rotl_known_values(x, n, expected):
    assert rotl(x, n) == expected


def test_rot_inverse_pair(rng):
    """Rotating left by n and then by 16 - n is the identity."""
    for _ in range(1000):
        x = rng.randrange(1 << 16)
        n = rng.randrange(17)
        assert rotl(rotl(x, n), 16 - n) == x


@pytest.mark.parametrize("x,y,expected", [
    (0xFFFF, 0x0001, 0x0000),
    (0x1234, 0x0000, 0x1234),
])
def test_modadd_known_values(x, y, expected):
    assert modadd(x, y) == expected


def test_sboxes_bijective():
    for box, inv in zip(SBOXES, INV_SBOXES):
        assert sorted(box) == list(range(16))
        assert all(inv[box[x]] == x for x in range(16))


def test_sbox_layer_known_values():
    # nibble A (least significant) goes through the first box:
    # S4(0),S3(0),S2(0),S1(0) = D,C,6,1 and S4(F),S3(F),S2(F),S1(F) = E,4,8,4
    assert sbox_layer(0x0000) == 0xDC61
    assert sbox_layer(0xFFFF) == 0xE484


def test_sbox_layer_bijective_exhaustive():
    seen = {sbox_layer(m) for m in range(1 << 16)}
    assert len(seen) == 1 << 16


def test_sbox_layer_inverse_exhaustive():
    for m in range(1 << 16):
        assert inv_sbox_layer(sbox_layer(m)) == m


def test_nibble_mix_hand_value():
    # 0x1248: A=8, B=4, C=2, D=1; sequential updates give
    # A=8^2=A, B=4^1=5, C=2^5=7, D=1^A=B -> word 0xB75A
    assert nibble_mix(0x1248) == 0xB75A


def test_nibble_mix_zero_fixed_point():
    assert nibble_mix(0x0000) == 0x0000


def test_nibble_mix_xor_linear(rng):
    for _ in range(1000):
        x = rng.randrange(1 << 16)
        y = rng.randrange(1 << 16)
        assert nibble_mix(x ^ y) == nibble_mix(x) ^ nibble_mix(y)


def test_nibble_mix_inverse_exhaustive():
    for m in range(1 << 16):
        assert inv_nibble_mix(nibble_mix(m)) == m


def test_linear_diffusion_known_values():
    assert linear_diffusion(0x0001) == 0x1101
    assert linear_diffusion(0x0000) == 0x0000


def test_linear_diffusion_xor_linear(rng):
    for _ in range(1000):
        x = rng.randrange(1 << 16)
        y = rng.randrange(1 << 16)
        assert linear_diffusion(x ^ y) == linear_diffusion(x) ^ linear_diffusion(y)


def test_linear_diffusion_full_rank():
    """Gaussian elimination over GF(2): the 16 basis images span."""
    rows = [linear_diffusion(1 << i) for i in range(16)]
    rank = 0
    for col in range(16):
        pivot = next((i for i in range(rank, len(rows)) if rows[i] >> col & 1), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] >> col & 1:
                rows[i] ^= rows[rank]
        rank += 1
    assert rank == 16


def test_linear_diffusion_inverse_exhaustive():
    for m in range(1 << 16):
        assert inv_linear_diffusion(linear_diffusion(m)) == m
