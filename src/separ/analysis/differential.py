"""Differential measurements of the 16-bit round body.

Two complementary tools:

* :func:`diff_count` measures exact difference-transition counts of the
  real keyed function by brute force over all 2**16 inputs.
* :func:`characteristic_search` enumerates differential characteristics
  symbolically: S-box transitions weighted by the DDT, the linear layers
  propagated exactly (they are XOR-linear), key material transparent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..core import (
    MASK16,
    R_NP,
    SBOXES,
    SubkeySet,
    linear_diffusion,
    nibble_mix,
)
from .sbox import compute_ddt

MAX_ITERATIONS = 5


def _round_keys(sk: SubkeySet, iterations: int) -> list[int]:
    keys = [sk.sk1, sk.sk2, sk.sk3, sk.sk4, sk.sk5, sk.sk6]
    return [keys[i % 6] for i in range(iterations)]


def b16_round_table(key: int) -> np.ndarray:
    """One round body (key XOR, substitution, mix, diffusion) evaluated
    on every 16-bit input: a gather on the shared round table R."""
    return R_NP[np.arange(1 << 16, dtype=np.uint16) ^ key]


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
    cannot reach p_min.  Key XOR is transparent to XOR differences and
    the mix/diffusion layers are propagated exactly, so the enumeration
    is key-independent.
    """
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}]")
    p_min = Fraction(p_min).limit_denominator(1 << 62)
    if not 0 < p_min < 1:
        raise ValueError("p_min must lie in (0, 1)")

    ddts = [compute_ddt(box).counts for box in sboxes]
    quarter = Fraction(1, 4)
    # transitions[pos][a] = ((b, count/16), ...) sorted by weight descending
    transitions = []
    for pos in range(4):
        rows = []
        for a in range(16):
            if a == 0:
                rows.append(((0, Fraction(1)),))
            else:
                opts = [(b, Fraction(int(ddts[pos][a][b]), 16))
                        for b in range(16) if ddts[pos][a][b]]
                opts.sort(key=lambda t: (-t[1], t[0]))
                rows.append(tuple(opts))
        transitions.append(rows)

    def best_round_factor(delta: int) -> Fraction:
        f = Fraction(1)
        for pos in range(4):
            a = (delta >> (4 * pos)) & 0xF
            if a:
                f *= transitions[pos][a][0][1]
        return f

    results: list[DiffCharacteristic] = []

    def descend(delta: int, acc: Fraction, remaining: int,
                trail: tuple[int, ...]) -> None:
        if remaining == 0:
            results.append(DiffCharacteristic(iterations, trail, acc))
            return
        if acc * best_round_factor(delta) * quarter ** (remaining - 1) < p_min:
            return
        headroom = quarter ** (remaining - 1)
        nibbles = [(pos, (delta >> (4 * pos)) & 0xF) for pos in range(4)]

        def expand(idx: int, partial: int, p: Fraction) -> None:
            if idx == 4:
                nxt = _linear_layer(partial)
                descend(nxt, p, remaining - 1, trail + (nxt,))
                return
            pos, a = nibbles[idx]
            for b, w in transitions[pos][a]:
                np_ = p * w
                if np_ * headroom < p_min:
                    break  # options are sorted by weight
                expand(idx + 1, partial | (b << (4 * pos)), np_)

        expand(0, 0, acc)

    for din in range(1, 1 << 16):
        if best_round_factor(din) * quarter ** (iterations - 1) >= p_min:
            descend(din, Fraction(1), iterations, (din,))

    results.sort(key=lambda ch: (-ch.probability, ch.differences))
    return results
