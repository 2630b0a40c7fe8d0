"""SEPAR: a 16-bit-word hybrid block/stream cipher (256-bit key, 144-bit
internal state) with a cryptanalysis workbench and benchmark harness."""

from .core import (
    CipherState,
    DEFAULT_LFSR,
    Decryptor,
    Encryptor,
    LfsrSpec,
    OddLengthError,
    SBOXES,
    SegmentKey,
    Separ,
    SubkeySet,
    ZERO_SUBKEYS,
    dec_block,
    decrypt_message,
    derive_subkeys,
    enc_block,
    enc_block_table,
    encrypt_message,
    inv_linear_diffusion,
    inv_nibble_mix,
    inv_sbox_layer,
    lfsr_clock,
    linear_diffusion,
    modadd,
    modsub,
    nibble_mix,
    rotl,
    rotr,
    sbox_apply,
    sbox_layer,
    split_master_key,
)
from .bench import BenchResult, compute_throughput, results_csv, run_bench
from . import analysis

__version__ = "0.1.0"

__all__ = [
    "CipherState", "DEFAULT_LFSR", "Decryptor", "Encryptor", "LfsrSpec",
    "OddLengthError", "SBOXES", "SegmentKey", "Separ", "SubkeySet", "ZERO_SUBKEYS",
    "dec_block", "decrypt_message", "derive_subkeys", "enc_block",
    "enc_block_table", "encrypt_message", "inv_linear_diffusion",
    "inv_nibble_mix", "inv_sbox_layer", "lfsr_clock", "linear_diffusion",
    "modadd", "modsub", "nibble_mix", "rotl", "rotr", "sbox_apply",
    "sbox_layer", "split_master_key",
    "BenchResult", "compute_throughput", "results_csv", "run_bench",
    "analysis",
]
