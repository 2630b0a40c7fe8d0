"""Cryptanalysis and statistics workbench for the SEPAR primitives.

Each submodule loads on first use of one of its names, so that
``import separ.analysis`` costs neither numpy nor the others."""

from .. import _lazy

_EXPORTS = {
    "sbox": ("Ddt", "Lat", "AnfProfile", "GoldenReport",
             "compute_ddt", "compute_lat", "max_diff_prob", "max_lin_prob",
             "algebraic_degree", "golden_check"),
    "differential": ("DiffCharacteristic", "b16_round_table", "diff_count", "diff_spectrum",
                     "characteristic_search"),
    "stats": ("AvalancheReport", "PeriodicityReport", "avalanche", "autocorrelation",
              "entropy", "histogram", "periodicity"),
    "nist": ("StatReport", "monobit", "block_frequency", "runs", "serial",
             "approximate_entropy", "cumulative_sums", "nist_subset"),
    "complexity": ("algebraic_complexity",),
}

__getattr__, __dir__ = _lazy(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
