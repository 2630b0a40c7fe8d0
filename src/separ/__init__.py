"""SEPAR: a 16-bit-word hybrid block/stream cipher (256-bit key, 144-bit
internal state) with a cryptanalysis workbench and benchmark harness.

The cipher core loads with the package.  The workbench (``analysis``)
and the harness (``bench``) load on first use of one of their names, so
that ``import separ`` loads neither them nor numpy."""

import importlib
import sys

from . import core


def _lazy(package: str, exports: dict[str, tuple[str, ...]]):
    """PEP 562 ``__getattr__`` and ``__dir__`` for `package`, which
    re-exports the names `exports` lists under each of its submodules.
    A name resolves, on every access, to the submodule's current object
    (and a submodule's own name to the submodule): nothing is copied into
    the package, so a patch of a submodule shows through the package, and
    so does its undoing."""
    origin = {name: sub for sub, names in exports.items() for name in names}
    origin.update((sub, sub) for sub in exports)

    def __getattr__(name: str):
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{origin[name]}")
        return module if name == origin[name] else getattr(module, name)

    def __dir__() -> list[str]:
        return sorted({*vars(sys.modules[package]), *origin})

    return __getattr__, __dir__


_EXPORTS = {
    "core": ("CipherState", "DEFAULT_LFSR", "Decryptor", "Encryptor", "LfsrSpec",
             "OddLengthError", "SBOXES", "Separ", "SubkeySet", "ZERO_SUBKEYS",
             "dec_block", "enc_block", "enc_block_table", "inv_linear_diffusion",
             "inv_nibble_mix", "inv_sbox_layer", "lfsr_clock", "linear_diffusion",
             "modadd", "nibble_mix", "rotl", "sbox_layer"),
    "bench": ("BenchResult", "compute_throughput", "results_csv", "run_bench"),
    "analysis": (),
}

__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

__version__ = "0.1.0"

__all__ = [*_EXPORTS["core"], *_EXPORTS["bench"], "analysis"]
