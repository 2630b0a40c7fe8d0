"""Differential measurements of the 16-bit round body.

Two complementary tools:

* :func:`diff_count` measures exact difference-transition counts of the
  real keyed function by brute force over all 2**16 inputs.
* :func:`characteristic_search` enumerates differential characteristics
  symbolically: S-box transitions weighted by the DDT, the linear layers
  propagated exactly (they are XOR-linear), key material transparent.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..core import (
    MASK16,
    SBOXES,
    SubkeySet,
    _np_round_tables,
    linear_diffusion,
    nibble_mix,
)
from .sbox import compute_ddt

MAX_ITERATIONS = 5


def _round_keys(sk: SubkeySet, iterations: int) -> list[int]:
    keys = sk.keys
    return [keys[i % 6] for i in range(iterations)]


def b16_round_table(key: int) -> np.ndarray:
    """One round body (key XOR, substitution, mix, diffusion) evaluated
    on every 16-bit input: a gather on the shared round table R."""
    return _np_round_tables()[1][np.arange(1 << 16, dtype=np.uint16) ^ key]


def _chain_table(sk: SubkeySet, iterations: int) -> np.ndarray:
    table = np.arange(1 << 16, dtype=np.uint16)
    for key in _round_keys(sk, iterations):
        table = b16_round_table(key)[table]
    return table


def diff_spectrum(key: SubkeySet, a: int, iterations: int) -> np.ndarray:
    """Counts of every output difference b for input difference a:
    spectrum[b] = #{x : F(x) ^ F(x ^ a) = b} over all 2**16 x."""
    if not 0 < a <= MASK16:
        raise ValueError("input difference must be a nonzero 16-bit word")
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}]")
    table = _chain_table(key, iterations)
    x = np.arange(1 << 16)
    diffs = table[x] ^ table[x ^ a]
    return np.bincount(diffs, minlength=1 << 16)


def diff_count(key: SubkeySet, a: int, b: int, iterations: int) -> int:
    """Exact count of inputs realizing the transition a -> b through the
    chained round bodies keyed by `key`.

    a = 0 is rejected: the zero difference is degenerate (the count
    would be 2**16 exactly when b = 0).
    """
    if not 0 <= b <= MASK16:
        raise ValueError("output difference out of range")
    return int(diff_spectrum(key, a, iterations)[b])


@dataclass(frozen=True)
class DiffCharacteristic:
    """One differential characteristic through iterated round bodies.

    ``differences`` holds the input difference followed by the
    difference after each round; ``probability`` is the exact product of
    the traversed DDT entries divided by 16 per active S-box.
    """

    rounds: int
    differences: tuple[int, ...]
    probability: Fraction

    def __post_init__(self) -> None:
        if len(self.differences) != self.rounds + 1:
            raise ValueError("difference trail length must be rounds + 1")
        if self.differences[0] == 0:
            raise ValueError("input difference must be nonzero")
        if not 0 < self.probability <= 1:
            raise ValueError("probability must lie in (0, 1]")

    def __str__(self) -> str:
        path = " -> ".join(f"{d:04X}" for d in self.differences)
        return f"{path} p={self.probability}"


def _linear_layer(delta: int) -> int:
    return linear_diffusion(nibble_mix(delta))


def characteristic_search(iterations: int, p_min: Fraction | float,
                          sboxes: Sequence[Sequence[int]] = SBOXES,
                          ) -> list[DiffCharacteristic]:
    """All characteristics over `iterations` round bodies with DDT-product
    probability at least p_min, sorted by descending probability.

    Branch-and-bound: a branch dies as soon as its probability, even if
    every remaining round were a single best-case S-box transition,
    cannot reach p_min.  The best case is the largest DDT count of a
    nonzero input difference over the given S-boxes (4 of 16 for SBOXES).
    A branch carries its probability as an integer product of DDT counts
    and its number k of active S-boxes, so every test is an exact integer
    comparison with p_min = num/den, and the Fraction count/16**k is
    built only for an emitted characteristic.  Key XOR is transparent to
    XOR differences and the mix/diffusion layers are propagated exactly,
    so the enumeration is key-independent.
    """
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}]")
    p_min = Fraction(p_min).limit_denominator(1 << 62)
    if not 0 < p_min < 1:
        raise ValueError("p_min must lie in (0, 1)")
    num, den = p_min.numerator, p_min.denominator

    ddts = [compute_ddt(box).counts for box in sboxes]
    # transitions[pos][a] = ((b, count), ...) sorted by count descending
    transitions = []
    for ddt in ddts:
        rows = []
        for a in range(16):
            opts = [(b, int(ddt[a][b])) for b in range(16) if ddt[a][b]]
            opts.sort(key=lambda t: (-t[1], t[0]))
            rows.append(tuple(opts))
        transitions.append(rows)
    best_box = max(int(ddt[1:].max()) for ddt in ddts)
    # (best_box / 16) ** r is the best case of r more rounds; den folded in
    scale = [best_box ** r * den for r in range(iterations)]

    # the best single round from every delta: the product of the largest
    # counts of its active nibbles, and the number of active nibbles
    deltas = np.arange(1 << 16)
    best_np = np.ones(1 << 16, dtype=np.uint64)
    active_np = np.zeros(1 << 16, dtype=np.uint8)
    for pos, ddt in enumerate(ddts):
        a = (deltas >> (4 * pos)) & 0xF
        best_np *= np.where(a, ddt.max(axis=1)[a], 1).astype(np.uint64)
        active_np += a != 0
    best_count = array("Q", best_np.tobytes())
    best_active = array("B", active_np.tobytes())

    results: list[DiffCharacteristic] = []

    def descend(delta: int, count: int, k: int, remaining: int,
                trail: tuple[int, ...]) -> None:
        if remaining == 0:
            results.append(DiffCharacteristic(iterations, trail,
                                              Fraction(count, 16 ** k)))
            return
        rest = remaining - 1
        if (count * best_count[delta] * scale[rest]
                < num << 4 * (k + best_active[delta] + rest)):
            return
        active = [(pos, a) for pos in range(4)
                  if (a := (delta >> (4 * pos)) & 0xF)]

        def expand(idx: int, partial: int, c: int, k: int) -> None:
            if idx == len(active):
                nxt = _linear_layer(partial)
                descend(nxt, c, k, rest, trail + (nxt,))
                return
            pos, a = active[idx]
            bound = num << 4 * (k + 1 + rest)
            for b, w in transitions[pos][a]:
                if c * w * scale[rest] < bound:
                    break  # options are sorted by count
                expand(idx + 1, partial | (b << (4 * pos)), c * w, k + 1)

        expand(0, 0, count, k)

    for din in range(1, 1 << 16):
        if (best_count[din] * scale[iterations - 1]
                >= num << 4 * (best_active[din] + iterations - 1)):
            descend(din, 1, 0, iterations, (din,))
    # descend refers to itself through its closure; emptying the cell ends
    # that cycle, so the tables are freed now and not at the next full GC
    del descend

    results.sort(key=lambda ch: (-ch.probability, ch.differences))
    return results
