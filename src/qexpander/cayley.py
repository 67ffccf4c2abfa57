"""Exact walk counts on the free-group tree and the lower bound they give.

Letters are integers 1..D; letter s and s + D/2 (indices wrapping mod D)
are mutually inverse. Index sequences are walks on the tree with D
branches at the root and D - 1 at every other node; N(l, m) counts
length-m sequences whose free reduction has length l. Everything here
is exact integer arithmetic: D^m overflows 64 bits near m = 32 for
D = 4, and the spectral lower bound needs exact ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import ValidationError

MAX_WALK_LENGTH = 64


@dataclass(frozen=True)
class WalkTable:
    """Exact counts N(l, m) for 0 <= m <= m_max."""

    D: int
    m_max: int
    counts: dict[tuple[int, int], int]

    def count(self, l: int, m: int) -> int:
        if m < 0 or m > self.m_max:
            raise ValidationError(f"m={m} outside tabulated range 0..{self.m_max}")
        return self.counts.get((l, m), 0)


def walk_counts(D: int, m_max: int) -> WalkTable:
    """Dynamic program over reduced length l:

    N(l, m+1) = N(l-1, m) * (D-1 if l-1 > 0 else D) + N(l+1, m), N(0, 0) = 1.

    Sequences are counted by where their reduction ends on the tree, so
    row m sums to D^m exactly.
    """
    if D < 2:
        raise ValidationError(f"need D >= 2, got D={D}")
    if not 0 <= m_max <= MAX_WALK_LENGTH:
        raise ValidationError(f"m_max must lie in 0..{MAX_WALK_LENGTH}, got {m_max}")
    counts: dict[tuple[int, int], int] = {(0, 0): 1}
    row = {0: 1}
    for m in range(m_max):
        nxt: dict[int, int] = {}
        for l, c in row.items():
            # step away from the root: D choices at the root, D-1 elsewhere
            away = c * (D if l == 0 else D - 1)
            nxt[l + 1] = nxt.get(l + 1, 0) + away
            if l > 0:
                nxt[l - 1] = nxt.get(l - 1, 0) + c
        row = nxt
        for l, c in row.items():
            counts[(l, m + 1)] = c
    return WalkTable(D=D, m_max=m_max, counts=counts)


class AlonBoppanaBound(NamedTuple):
    value: float
    attained_m: int | None  # None when no moment order qualifies


def alon_boppana_lower_bound(N: int, D: int, m_max: int = MAX_WALK_LENGTH) -> AlonBoppanaBound:
    """Lower bound on |lambda2| for every Hermitian weighted-unitary channel.

    For even m, the m-step return weight of the map is at least the tree
    return probability N(0, m)/D^m, and N^2 times it is at most
    1 + N^2 |lambda2|^m; the best even m <= m_max (by default the longest
    walk the table holds) with N^2 N(0, m)/D^m > 1, attained_m, gives the
    bound. Ratios are exact Fractions until the final real root.
    """
    if D % 2 != 0 or D < 4:
        raise ValidationError(f"need even D >= 4, got D={D}")
    if m_max % 2 != 0 or m_max < 2:
        raise ValidationError(f"need even m_max >= 2, got m_max={m_max}")
    if N < 1:
        raise ValidationError(f"need N >= 1, got N={N}")
    table = walk_counts(D, m_max)
    best = 0.0
    best_m: int | None = None
    for m in range(2, m_max + 1, 2):
        weight = Fraction(N * N * table.count(0, m), D**m)
        if weight <= 1:
            continue
        value = float(Fraction(weight - 1, N * N)) ** (1.0 / m)
        if value > best:
            best = value
            best_m = m
    return AlonBoppanaBound(value=best, attained_m=best_m)

