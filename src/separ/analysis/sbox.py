"""Single S-box analysis: differential/linear tables, algebraic normal
form, and the "golden box" criteria check."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

BOX_SIZE = 16


def _check_box(s: Sequence[int]) -> list[int]:
    box = list(s)
    if sorted(box) != list(range(BOX_SIZE)):
        raise ValueError("not a bijective 4-bit substitution table")
    return box


@dataclass(frozen=True)
class Ddt:
    """16x16 differential distribution table, XOR differences.

    counts[a][b] = #{x : S(x) ^ S(x ^ a) = b}.  Every row sums to 16 and
    all entries are even.
    """

    counts: np.ndarray


@dataclass(frozen=True)
class Lat:
    """16x16 linear approximation table.

    biases[a][b] = #{x : parity(x & a) = parity(S(x) & b)} - 8, so entries
    lie in [-8, 8] and the top-left corner is +8.
    """

    biases: np.ndarray


def compute_ddt(s: Sequence[int]) -> Ddt:
    box = np.array(_check_box(s), dtype=np.int64)
    x = np.arange(BOX_SIZE)
    counts = np.zeros((BOX_SIZE, BOX_SIZE), dtype=np.int64)
    for a in range(BOX_SIZE):
        out = box[x] ^ box[x ^ a]
        counts[a] = np.bincount(out, minlength=BOX_SIZE)
    return Ddt(counts)


def compute_lat(s: Sequence[int]) -> Lat:
    box = _check_box(s)
    biases = np.zeros((BOX_SIZE, BOX_SIZE), dtype=np.int64)
    parity = [bin(v).count("1") & 1 for v in range(BOX_SIZE)]
    for a in range(BOX_SIZE):
        for b in range(BOX_SIZE):
            agree = sum(1 for x in range(BOX_SIZE)
                        if parity[x & a] == parity[box[x] & b])
            biases[a, b] = agree - 8
    return Lat(biases)


def max_diff_prob(d: Ddt) -> Fraction:
    """Largest differential transition probability over nonzero input
    differences: (max count)/16."""
    return Fraction(int(d.counts[1:].max()), BOX_SIZE)


def max_lin_prob(l: Lat) -> Fraction:
    """Largest linear probability over nonzero mask pairs: (bias/8)^2."""
    peak = int(np.abs(l.biases[1:, 1:]).max())
    return Fraction(peak, 8) ** 2


@dataclass(frozen=True)
class AnfProfile:
    """Algebraic normal form of the four component functions.

    monomials[i] is the set of monomial masks of component i (bit j of a
    mask means variable x_j occurs); degree is the largest monomial size
    over all components.
    """

    monomials: tuple[frozenset[int], ...]
    degree: int

    def evaluate(self, component: int, x: int) -> int:
        return sum(1 for m in self.monomials[component] if m & x == m) & 1


def algebraic_degree(s: Sequence[int]) -> AnfProfile:
    """ANF via the binary Moebius transform of each output bit."""
    box = _check_box(s)
    monos = []
    degree = 0
    for bit in range(4):
        f = [(v >> bit) & 1 for v in box]
        step = 1
        while step < BOX_SIZE:
            for i in range(BOX_SIZE):
                if i & step:
                    f[i] ^= f[i ^ step]
            step <<= 1
        mset = frozenset(m for m in range(BOX_SIZE) if f[m])
        monos.append(mset)
        if mset:
            degree = max(degree, max(m.bit_count() for m in mset))
    return AnfProfile(tuple(monos), degree)


@dataclass(frozen=True)
class GoldenReport:
    bijective: bool
    max_diff_prob: Fraction | None
    max_lin_prob: Fraction | None
    degree: int | None

    @property
    def is_golden(self) -> bool:
        return (self.bijective
                and self.max_diff_prob == Fraction(1, 4)
                and self.max_lin_prob == Fraction(1, 4)
                and self.degree is not None and self.degree >= 3)


def golden_check(s: Sequence[int]) -> GoldenReport:
    """Check the golden-box criteria: bijective, differential and linear
    probability both 1/4, algebraic degree at least 3."""
    if sorted(s) != list(range(BOX_SIZE)):
        return GoldenReport(False, None, None, None)
    return GoldenReport(
        True,
        max_diff_prob(compute_ddt(s)),
        max_lin_prob(compute_lat(s)),
        algebraic_degree(s).degree,
    )
