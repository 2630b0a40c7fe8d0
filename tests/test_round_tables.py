"""The shared round tables and everything built on them."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import random_subkeys
from separ.core import (
    R,
    R_INV,
    S,
    S_INV,
    Separ,
    dec_block,
    dec_block_table,
    enc_block,
    enc_block_table,
    inv_sbox_layer,
    linear_diffusion,
    nibble_mix,
    sbox_layer,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_tables_equal_the_scalar_layers_exhaustive():
    for m in range(1 << 16):
        assert S[m] == sbox_layer(m)
        assert R[m] == linear_diffusion(nibble_mix(sbox_layer(m)))
        assert S_INV[m] == inv_sbox_layer(m)
        assert R_INV[R[m]] == m


def test_dec_block_inverts_enc_block_exhaustive(rng):
    sk = random_subkeys(rng, rng.randrange(1, 9))
    for m in range(1 << 16):
        assert dec_block(enc_block(m, sk), sk) == m


def test_inverse_table_equals_scatter_inverse(rng):
    for n in range(1, 9):
        sk = random_subkeys(rng, n)
        scatter = np.empty(1 << 16, dtype=np.uint16)
        scatter[enc_block_table(sk)] = np.arange(1 << 16, dtype=np.uint16)
        assert np.array_equal(dec_block_table(sk), scatter)


def test_bulk_decrypt_builds_only_inverse_tables(rng):
    key, nonce = rng.randbytes(32), rng.randbytes(16)
    data = rng.randbytes(2 * Separ._BULK_THRESHOLD)
    ct = Separ(key).encrypt(nonce, data)
    cipher = Separ(key)
    assert cipher.decrypt(nonce, ct) == data
    assert cipher._dec_tables is not None
    assert cipher._enc_tables is None


def test_import_leaves_scipy_unloaded():
    code = ("import sys; import separ, separ.analysis, separ.cli; "
            "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    assert proc.stdout.strip() == "False"
