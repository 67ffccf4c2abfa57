"""Cyclic words over generators with inverses, and query canonicalization.

Internal encoding: a letter is a nonzero int, +g for generator g and -g
for its adjoint; a trace word is a tuple of letters read cyclically. A
query is a multiset of trace words. Two queries have equal Haar
expectations whenever they differ only by per-trace rotation, trace
order, a renaming of the generators, or swapping any generator with its
adjoint globally; the canonical form quotients out exactly that group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterable

from ..errors import ValidationError

Word = tuple[int, ...]
Traces = tuple[Word, ...]


def cyclic_reduce(word: Word) -> Word:
    """Free reduction of a cyclic word: no adjacent inverse pair survives,
    including across the wrap-around."""
    stack: list[int] = []
    for s in word:
        if s == 0:
            raise ValidationError("letter 0 is not a valid generator")
        if stack and stack[-1] == -s:
            stack.pop()
        else:
            stack.append(s)
    lo, hi = 0, len(stack)
    while hi - lo >= 2 and stack[lo] == -stack[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(stack[lo:hi])


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
    tuple of per-trace minimal rotations. Brute force is fine at the word
    sizes the engine handles (g stays small because total letter count
    never grows).
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


@dataclass(frozen=True)
class ExpectationQuery:
    """Canonicalized multiset of cyclically reduced trace words."""

    traces: Traces

    def __post_init__(self) -> None:
        for t in self.traces:
            if not t:
                raise ValidationError(
                    "empty trace in query; extract tr(1) = N factors first"
                )
            if cyclic_reduce(t) != t:
                raise ValidationError(f"trace {t!r} is not cyclically reduced")
        if self.traces != canonical_traces(self.traces):
            raise ValidationError(
                "traces are not in canonical form; build queries via query_from_traces"
            )

    @property
    def m_total(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def generator_count(self) -> int:
        return len({abs(s) for t in self.traces for s in t})

    @property
    def is_empty(self) -> bool:
        return not self.traces


def reduce_traces(traces: Iterable[Word]) -> tuple[list[Word], int]:
    """Cyclically reduce every trace; empties are dropped and counted
    (each stands for tr(1) = N)."""
    kept: list[Word] = []
    empties = 0
    for t in traces:
        r = cyclic_reduce(tuple(t))
        if r:
            kept.append(r)
        else:
            empties += 1
    return kept, empties


def query_from_traces(traces: Iterable[Word]) -> tuple[ExpectationQuery, int]:
    """Build a canonical query; returns (query, extracted empty-trace count)."""
    kept, empties = reduce_traces(traces)
    return ExpectationQuery(traces=canonical_traces(kept)), empties
