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

# canonical_traces encodes a query g!·2^g times: 645,120 encodings at g=7
# (seconds), 10.3 million at g=8 (minutes). A rewriting step never adds a
# generator, so only parsed input can exceed this.
MAX_GENERATORS = 7


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
    tuple of per-trace minimal rotations. The search encodes the query
    g!·2^g times, so `ExpectationQuery` refuses more than MAX_GENERATORS
    generators before calling it.
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
    """Multiset of cyclically reduced trace words, stored in canonical form."""

    traces: Traces

    def __post_init__(self) -> None:
        for t in self.traces:
            if not t:
                raise ValidationError(
                    "empty trace in query; extract tr(1) = N factors first"
                )
            if cyclic_reduce(t) != t:
                raise ValidationError(f"trace {t!r} is not cyclically reduced")
        if self.generator_count > MAX_GENERATORS:
            raise ValidationError(
                f"query has {self.generator_count} generators, over the limit "
                f"{MAX_GENERATORS} of the canonical-form search"
            )
        object.__setattr__(self, "traces", canonical_traces(self.traces))

    @property
    def m_total(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def generator_count(self) -> int:
        return len({abs(s) for t in self.traces for s in t})

    @property
    def is_empty(self) -> bool:
        return not self.traces


def check_letter_budget(m_total: int, max_letters: int) -> None:
    """The exact solver's limit on the total letter count of a query."""
    if m_total > max_letters:
        raise ValidationError(f"m_total={m_total} exceeds the symbolic budget {max_letters}")


def query_from_traces(
    traces: Iterable[Word], max_letters: int | None = None
) -> tuple[ExpectationQuery, int]:
    """Cyclically reduce every trace and build the query; empties are
    dropped and counted (each stands for tr(1) = N). With `max_letters`,
    a query over that letter budget is refused before the canonical-form
    search runs."""
    reduced = [cyclic_reduce(tuple(t)) for t in traces]
    kept = [r for r in reduced if r]
    if max_letters is not None:
        check_letter_budget(sum(map(len, kept)), max_letters)
    return ExpectationQuery(traces=tuple(kept)), len(reduced) - len(kept)
