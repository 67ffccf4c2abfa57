"""Cyclic words over generators with inverses, and query canonicalization.

Internal encoding: a letter is a nonzero int, +g for generator g and -g
for its adjoint; a trace word is a tuple of letters read cyclically. A
query is a multiset of trace words. Two queries have equal Haar
expectations whenever they differ only by per-trace rotation, trace
order, a renaming of the generators, or swapping any generator with its
adjoint globally; the canonical form quotients out exactly that group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
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


def _encode(word: Word, labels: dict[int, int], next_label: int) -> tuple[Word, dict[int, int]]:
    """Greedy encoding of `word`: a generator in `labels` keeps its label
    (the image of its positive letter); a new one takes `next_label`,
    `next_label + 1`, ... where it first appears, signed so that this first
    letter reads as the label. Returns the encoding and the extended labels."""
    labels = dict(labels)
    out = []
    for s in word:
        if abs(s) not in labels:
            labels[abs(s)] = next_label if s > 0 else -next_label
            next_label += 1
        out.append(labels[abs(s)] if s > 0 else -labels[abs(s)])
    return tuple(out), labels


def _reading(word: Word, labels: dict[int, int], index: int) -> tuple:
    """(length, reading, index, turned word): `word` turned to the first
    rotation whose reading is least, where the reading shows each
    labelled generator as its label and every other letter as 0, so no
    renaming of the unlabelled generators changes it."""
    code = tuple(
        (labels[abs(s)] if s > 0 else -labels[abs(s)]) if abs(s) in labels else 0 for s in word
    )
    r = min(range(len(word)), key=lambda r: code[r:] + code[:r])
    return len(word), code[r:] + code[:r], index, word[r:] + word[:r]


def canonical_traces(traces: Iterable[Word]) -> Traces:
    """Minimal encoding over generator renamings and global adjoint flips:
    the least, over all relabelings of the g generators by -g..-1 with
    either sign, of the per-trace minimal rotations sorted by (length, word).

    Built trace by trace, shortest first: the least greedy encoding
    (`_encode`) of any (trace, rotation) is the next trace, since no
    labeling that extends the current one encodes it lower. The search
    branches only on ties and cuts a prefix above the best found. Of the
    branches anywhere in the search that share a prefix and whose
    remaining traces, turned and sorted by a reading no renaming changes,
    read the same with the unlabeled generators renamed by first
    appearance, it keeps one, as those end in the same representative
    (McKay and Piperno, J. Symb. Comput. 60, 2014).
    """
    ts = tuple(tuple(t) for t in traces)
    g = len({abs(s) for t in ts for s in t})
    best: Traces | None = None
    seen: set[tuple[Traces, tuple[int, ...], Word]] = set()
    stack: list[tuple[Traces, dict[int, int], Traces]] = [((), {}, ts)]
    while stack:
        prefix, labels, rest = stack.pop()
        if best is not None and prefix > best[: len(prefix)]:
            continue
        if not rest:
            best = prefix
            continue
        next_label = len(labels) - g
        shortest = min(map(len, rest))
        # one candidate per distinct rotated word: two traces with a common
        # rotation are the same cyclic word, so either can be removed
        rotations = {
            t[r:] + t[:r]: i
            for i, t in enumerate(rest)
            if len(t) == shortest
            for r in range(shortest or 1)
        }
        candidates = [(*_encode(word, labels, next_label), i) for word, i in rotations.items()]
        least = min(code for code, _, _ in candidates)
        ties = [(extended, i) for code, extended, i in candidates if code == least]
        prefix += (least,)
        if len(ties) == 1:
            ((extended, i),) = ties
            stack.append((prefix, extended, rest[:i] + rest[i + 1 :]))
            continue
        # A tied branch's state is its remaining traces, each turned and
        # sorted by `_reading`, then encoded with the unlabelled generators
        # renamed by first appearance. Neither the turn nor the order
        # changes when those generators are renamed, and only the traces
        # sharing a generator with the tied trace read differently in its
        # branch than under `labels`.
        base = sorted(_reading(t, labels, j) for j, t in enumerate(rest))
        holds: dict[int, set[int]] = {}
        for j, t in enumerate(rest):
            for s in t:
                holds.setdefault(abs(s), set()).add(j)
        private = False
        for extended, i in ties:
            moved = {i}.union(*(holds[abs(s)] for s in rest[i] if abs(s) not in labels))
            if moved == {i}:
                # its new generators occur in no other trace, so any two
                # such ties are one renaming apart
                if private:
                    continue
                private = True
            keyed = [e for e in base if e[2] not in moved]
            keyed += [_reading(rest[j], extended, j) for j in moved - {i}]
            keyed.sort()
            others = tuple(e[3] for e in keyed)
            # all ties share the prefix and so the next label
            renamed, _ = _encode(tuple(chain.from_iterable(others)), extended, len(extended) - g)
            state = (prefix, tuple(map(len, others)), renamed)
            if state not in seen:
                seen.add(state)
                stack.append((prefix, extended, others))
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
        object.__setattr__(self, "traces", canonical_traces(self.traces))

    @property
    def m_total(self) -> int:
        return sum(len(t) for t in self.traces)

    @property
    def is_empty(self) -> bool:
        return not self.traces

    @property
    def is_unbalanced(self) -> bool:
        """Some generator occurs a different number of times than its
        adjoint. The expectation is then 0 at every N, since U_g and
        e^{i theta} U_g have the same Haar distribution."""
        net: Counter[int] = Counter()
        for t in self.traces:
            for s in t:
                net[abs(s)] += 1 if s > 0 else -1
        return any(net.values())


def query_from_traces(traces: Iterable[Word]) -> tuple[ExpectationQuery, int]:
    """Cyclically reduce every trace and build the query; empties are
    dropped and counted (each stands for tr(1) = N)."""
    reduced = [cyclic_reduce(tuple(t)) for t in traces]
    kept = [r for r in reduced if r]
    return ExpectationQuery(traces=tuple(kept)), len(reduced) - len(kept)
