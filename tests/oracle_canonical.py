"""Brute-force canonical form of an SD query, independent of the pruned
search in qexpander.sdengine.words.

The representative is the minimum, over all g! renamings and 2^g adjoint
flips of the generators, of the tuple of per-trace minimal rotations
sorted by (length, word). The search encodes the query g!·2^g times, so
it is only usable up to g of about 6; the package must return the same
representative on every query it can reach.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable

Word = tuple[int, ...]
Traces = tuple[Word, ...]


def _min_rotation(word: Word) -> Word:
    if len(word) <= 1:
        return word
    return min(word[i:] + word[:i] for i in range(len(word)))


def _trace_sort_key(word: Word):
    return (len(word), word)


def canonical_traces(traces: Iterable[Word]) -> Traces:
    """Minimal encoding over generator renamings and global adjoint flips.

    Generators are first relabeled 1..g by appearance; the representative
    is the minimum, over all g! renamings and 2^g flips, of the sorted
    tuple of per-trace minimal rotations.
    """
    ts = tuple(tuple(t) for t in traces)
    gens: list[int] = []
    for t in ts:
        for s in t:
            if abs(s) not in gens:
                gens.append(abs(s))
    g = len(gens)
    relabel = {old: new for new, old in enumerate(gens, start=1)}
    base = tuple(
        tuple((1 if s > 0 else -1) * relabel[abs(s)] for s in t) for t in ts
    )
    if g == 0:
        return tuple(sorted(base, key=_trace_sort_key))

    best: Traces | None = None
    for perm in permutations(range(1, g + 1)):
        rename = {old: perm[old - 1] for old in range(1, g + 1)}
        for flips in product((1, -1), repeat=g):
            encoded = tuple(
                sorted(
                    (
                        _min_rotation(
                            tuple(
                                (1 if s > 0 else -1) * flips[abs(s) - 1] * rename[abs(s)]
                                for s in t
                            )
                        )
                        for t in base
                    ),
                    key=_trace_sort_key,
                )
            )
            if best is None or encoded < best:
                best = encoded
    assert best is not None
    return best
