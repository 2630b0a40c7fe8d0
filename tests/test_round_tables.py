"""The shared round tables and everything built on them."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import separ
import separ.analysis
from conftest import random_subkeys
from separ.core import (
    R,
    S,
    Separ,
    _inverse_round_tables,
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
    S_INV, R_INV = _inverse_round_tables()
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
    assert list(cipher._key_tables) == [True]


WORKBENCH = ["separ.bench"] + [f"separ.analysis.{m}"
                                for m in ("sbox", "differential", "stats", "nist", "complexity")]


def _child(code: str, *args: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return proc.stdout.split()


def test_import_leaves_scipy_unloaded():
    """Importing the package, the workbench package and the command line
    loads the cipher alone: no numpy, scipy, harness or workbench module,
    and none of the modules only the analyze commands or a dataclass
    would need."""
    modules = ["numpy", "scipy", *WORKBENCH, "dataclasses", "inspect", "json", "fractions"]
    code = ("import sys; import separ, separ.analysis, separ.cli; "
            f"print(*(m in sys.modules for m in {modules!r}))")
    assert _child(code) == ["False"] * len(modules)


CLI_ENCRYPT = """
import sys
from separ import cli, core
code = cli.main(["encrypt", "--in", sys.argv[1], "--out", sys.argv[2]])
print(code, "numpy" in sys.modules, core._inverse_round_tables.cache_info().currsize)
"""


@pytest.mark.parametrize("words, loads_numpy", [(8 * Separ._BULK_THRESHOLD - 1, False),
                                                (8 * Separ._BULK_THRESHOLD, True)])
def test_cli_encrypt_loads_numpy_only_for_the_key_tables(tmp_path, rng, words, loads_numpy):
    """In a process without numpy, the threshold is eight times
    `_BULK_THRESHOLD`, since the first table build also imports numpy:
    `separ encrypt` of a file one word shorter steps on the shared tables
    and never imports numpy; a file of that length builds the key's
    tables, which does.  Neither builds the inverse round tables, which
    only decryption reads, and both give the in-process ciphertext."""
    data = rng.randbytes(2 * words)
    src, out = tmp_path / "pt", tmp_path / "ct"
    src.write_bytes(data)
    assert _child(CLI_ENCRYPT, str(src), str(out)) == ["0", str(loads_numpy), "0"]
    assert out.read_bytes() == Separ(bytes(32)).encrypt(bytes(16), data)


@pytest.mark.parametrize("package", ["separ", "separ.analysis"])
def test_package_names_resolve_to_their_submodules(package):
    """Every exported name is its defining module's object, and both
    ``dir()`` and ``import *`` list it."""
    module = importlib.import_module(package)
    namespace = {}
    exec(f"from {package} import *", namespace)
    for name in module.__all__:
        value = getattr(module, name)
        assert namespace[name] is value
        assert name in dir(module)
        if hasattr(value, "__module__"):
            assert getattr(sys.modules[value.__module__], name) is value


def test_package_names_read_through_patches(monkeypatch):
    """A patch of a submodule shows through the package while it lasts,
    and the original does once it is undone: the package keeps no copy."""
    from separ import bench
    from separ.analysis import nist
    originals = nist.nist_subset, bench.run_bench, separ.core.Separ
    monkeypatch.setattr(nist, "nist_subset", "patched nist_subset")
    monkeypatch.setattr(bench, "run_bench", "patched run_bench")
    monkeypatch.setattr(separ.core, "Separ", "patched Separ")
    assert separ.analysis.nist_subset == "patched nist_subset"
    assert separ.run_bench == "patched run_bench"
    assert separ.Separ == "patched Separ"
    monkeypatch.undo()
    assert (separ.analysis.nist_subset, separ.run_bench, separ.Separ) == originals
