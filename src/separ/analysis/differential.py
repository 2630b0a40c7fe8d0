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
    SBOXES,
    SubkeySet,
    _np_round_tables,
    linear_diffusion,
    nibble_mix,
)
from .sbox import compute_ddt

MAX_ITERATIONS = 5


def b16_round_table(key: int) -> np.ndarray:
    """One round body (key XOR, substitution, mix, diffusion) evaluated
    on every 16-bit input: a gather on the shared round table R."""
    return _np_round_tables()[1][np.arange(1 << 16, dtype=np.uint16) ^ key]


def _chain_table(sk: SubkeySet, iterations: int) -> np.ndarray:
    """The round bodies keyed by sk1..sk<iterations>, in order, composed
    on every 16-bit input: one gather on R per round."""
    r = _np_round_tables()[1]
    table = np.arange(1 << 16, dtype=np.uint16)
    for key in sk.keys[:iterations]:
        table = r[table ^ key]
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

    Branch-and-bound: a branch dies once it cannot reach p_min even with
    each active nibble's largest DDT count next round and one best-case
    S-box transition (4 of 16 for SBOXES) per later round.  It carries
    its probability as an integer product of DDT counts and its number k
    of active S-boxes, so every test is an exact integer comparison with
    p_min = num/den; a Fraction is built only per emitted characteristic.
    Key XOR is transparent to XOR differences and the mix/diffusion
    layers are propagated exactly, so the enumeration is key-independent.
    """
    if not 1 <= iterations <= MAX_ITERATIONS:
        raise ValueError(f"iterations must be in [1, {MAX_ITERATIONS}]")
    p_min = Fraction(p_min)
    if not 0 < p_min < 1:
        raise ValueError("p_min must lie in (0, 1)")
    num, den = p_min.numerator, p_min.denominator

    # transitions[pos][a] = ((b, count), ...) sorted by count descending
    transitions = []
    for box in sboxes:
        ddt = compute_ddt(box).counts
        rows = []
        for a in range(16):
            opts = [(b, int(ddt[a][b])) for b in range(16) if ddt[a][b]]
            opts.sort(key=lambda t: (-t[1], t[0]))
            rows.append(tuple(opts))
        transitions.append(rows)
    # top[pos][a]: the largest count from a at box pos; 16 for a = 0, so an
    # inactive nibble weighs as probability 1
    top = [[row[0][1] for row in rows] for rows in transitions]
    # (best_box / 16) ** r, over a != 0, bounds r more rounds; den folded in
    best_box = max(max(counts[1:]) for counts in top)
    scale = [best_box ** r * den for r in range(iterations)]
    # 256 times an octet's best one-round probability: boxes 0 and 1 for
    # the low octet, 2 and 3 for the high
    best_lo, best_hi = ([top[pos][o & 0xF] * top[pos + 1][o >> 4]
                         for o in range(256)] for pos in (0, 2))

    def viable(delta: int, count: int, k: int, rest: int) -> bool:
        return (count * best_lo[delta & 0xFF] * best_hi[delta >> 8]
                * scale[rest] >= num << 4 * (k + 4 + rest))

    results: list[DiffCharacteristic] = []

    def descend(delta: int, count: int, k: int, remaining: int,
                trail: tuple[int, ...]) -> None:
        if remaining == 0:
            results.append(DiffCharacteristic(iterations, trail,
                                              Fraction(count, 16 ** k)))
            return
        rest = remaining - 1
        if not viable(delta, count, k, rest):
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

    # a root's bound falls with its low octet's best_lo, so under each high
    # octet the low octets are walked in that order up to the first that fails
    lows = sorted(range(256), key=best_lo.__getitem__, reverse=True)
    for hi in range(256):
        for din in (hi << 8 | lo for lo in lows if hi or lo):
            if not viable(din, 1, 0, iterations - 1):
                break
            descend(din, 1, 0, iterations, (din,))
    # descend refers to itself through its closure; emptying the cell ends
    # that cycle, so the tables are freed now and not at the next full GC
    del descend

    results.sort(key=lambda ch: (-ch.probability, ch.differences))
    return results
