"""The 16-bit keyed permutation and its table form."""

import numpy as np
import pytest

from conftest import random_subkeys
from reference_oracle import ref_enc_block
from separ.core import ZERO_SUBKEYS, dec_block, enc_block, enc_block_table


GOLDEN_ZERO = 0x82C1  # enc_block(0) under the all-zero subkey set


def test_golden_zero_vector():
    assert enc_block(0x0000, ZERO_SUBKEYS) == GOLDEN_ZERO


def test_golden_matches_straight_line_reference():
    assert ref_enc_block(0, 0, 0, 0, 0, 0, 0) == GOLDEN_ZERO


def test_dec_block_golden_inverse():
    assert dec_block(GOLDEN_ZERO, ZERO_SUBKEYS) == 0x0000


@pytest.mark.parametrize("word", [-1, 0x10000])
@pytest.mark.parametrize("block", [enc_block, dec_block])
def test_block_rejects_out_of_range_word(block, word):
    """A word outside [0, 2**16) is refused, not wrapped as a table index."""
    with pytest.raises(ValueError, match="out of range"):
        block(word, ZERO_SUBKEYS)


def test_inverse_sbox_entry():
    # the first box sends 0 -> 1, so its inverse sends 1 -> 0
    from separ.core import INV_SBOXES
    assert INV_SBOXES[0][0x1] == 0x0


def test_against_reference_random(rng):
    for _ in range(200):
        sk = random_subkeys(rng, rng.randrange(1, 9))
        m = rng.randrange(1 << 16)
        assert enc_block(m, sk) == ref_enc_block(m, *sk.keys)


def test_table_matches_scalar_exhaustive(rng):
    sk = random_subkeys(rng)
    table = enc_block_table(sk)
    for m in range(1 << 16):
        assert int(table[m]) == enc_block(m, sk)


def test_inverse_pair_exhaustive(rng):
    """enc/dec compose to the identity on the full domain."""
    for trial in range(3):
        sk = random_subkeys(rng, rng.randrange(1, 9))
        table = enc_block_table(sk)
        assert len(np.unique(table)) == 1 << 16  # bijective
        # spot-check the scalar inverse against the table inverse
        for _ in range(64):
            m = rng.randrange(1 << 16)
            assert dec_block(int(table[m]), sk) == m
            assert enc_block(dec_block(m, sk), sk) == m


def test_no_weight_zero_differential(rng):
    """Flipping any single input bit always changes the output."""
    sk = random_subkeys(rng)
    table = enc_block_table(sk).astype(np.uint16)
    idx = np.arange(1 << 16)
    for bit in range(16):
        diffs = table ^ table[idx ^ (1 << bit)]
        assert int((diffs == 0).sum()) == 0
