"""The trace-product rewriting recursion and its two symbolic evaluators:
a level-wise series at integer N, and the exact rational function of N,
rebuilt by interpolation from exact solves of the reachable system at
integer N.

One rewriting step picks the pivot letter (first letter of the first
trace of the canonical form) and emits one child per matching letter, in
four groups:

  1. sign -, same letter inside the pivot trace: split the trace in two.
  2. sign +, inverse letter inside the pivot trace: split, deleting the
     matched pair.
  3. sign -, same letter in another trace: merge the two traces.
  4. sign +, inverse letter in another trace: merge, deleting the matched
     pair.

Every child carries a factor 1/N. Children are reduced cyclically and
empty traces are extracted as factors tr(1) = N, incrementing the
trivial-trace count p; a path that empties its query at level n is worth
sign * N^(p - n). Child count per step is at most m_total - 1, and the
total letter count never grows, which keeps the reachable set finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..errors import NumericalError, ValidationError
from .rational import RAT_ONE, RAT_ZERO, RationalInN, _interpolate
from .words import ExpectationQuery, Traces, query_from_traces

DEFAULT_SYMBOLIC_BUDGET = 10  # max total letters for the exact solver
# The series' two costs. Levels: any query of up to 10 letters at N=16
# reaches tol 1e-12 within 96. States: one (query, p, sign) state with its
# cached sd_step children holds about 2 KB, so 10^5 states are about 0.2 GB.
SERIES_LEVEL_CEILING = 128
SERIES_STATE_CEILING = 100_000
# Queries whose sd_step children stay cached, least recently used out
# first. At about 2 KB an entry that is 32 MB; one benchmark pass of the
# SD commands uses 77 entries, and a solve that needs more recomputes.
SD_STEP_CACHE_SIZE = 2**14


@dataclass(frozen=True)
class SdTerm:
    """One child of a rewriting step, one level below its parent."""

    sign: int
    trivial_traces: int
    query: ExpectationQuery


@lru_cache(maxsize=SD_STEP_CACHE_SIZE)
def sd_step(query: ExpectationQuery) -> tuple[SdTerm, ...]:
    """All children of one rewriting step at the canonical pivot."""
    if query.is_empty:
        return ()
    traces = query.traces
    w = traces[0]
    others = traces[1:]
    pivot = w[0]
    m1 = len(w)
    children: list[SdTerm] = []

    def emit(sign: int, raw: list[Traces | tuple[int, ...]]) -> None:
        child, extracted = query_from_traces(raw)
        children.append(SdTerm(sign=sign, trivial_traces=extracted, query=child))

    for j in range(1, m1):
        if w[j] == pivot:
            # same letter in the pivot trace: split
            emit(-1, [w[:j], w[j:], *others])
        elif w[j] == -pivot:
            # inverse letter in the pivot trace: split, pair deleted
            emit(+1, [w[1:j], w[j + 1 :], *others])

    for t_idx, v in enumerate(others):
        bystanders = others[:t_idx] + others[t_idx + 1 :]
        for j, s in enumerate(v):
            if s == pivot:
                # same letter in another trace: merge, rotating v to start there
                emit(-1, [w + v[j:] + v[:j], *bystanders])
            elif s == -pivot:
                # inverse letter in another trace: merge, pair deleted
                emit(+1, [w[1:] + v[j + 1 :] + v[:j], *bystanders])

    return tuple(children)


@dataclass(frozen=True)
class LevelAudit:
    """Bookkeeping for one expansion level (multiplicity-weighted counts)."""

    level: int
    term_count: int  # all children produced at this level
    terminated: dict[tuple[int, int], int]  # (p, sign) -> multiplicity


@dataclass(frozen=True)
class SeriesResult:
    level_sums: tuple[Fraction, ...]
    partial_total: float
    truncation_bound: float
    level_audits: tuple[LevelAudit, ...]

    @property
    def levels_computed(self) -> int:
        return len(self.level_sums)


def _truncation_bound(frontier: dict[tuple[ExpectationQuery, int, int], int], level: int, N: int) -> float:
    # what the frontier still owes: a state (q, p, sign) reached by mult
    # paths is worth sign * mult * N^(p - level) E[q], and |E[q]| <= N^t for
    # a query of t traces, since |tr U_w| <= N; a bound past the float range
    # is inf, so a tol stop does not fire on it
    try:
        return math.fsum(mult * float(N) ** (p - level + len(q.traces)) for (q, p, _), mult in frontier.items())
    except OverflowError:
        return math.inf


def evaluate_series(
    query: ExpectationQuery,
    N: int,
    n_max: int,
    tol: float = 0.0,
    allow_divergent: bool = False,
) -> SeriesResult:
    """Level-wise expansion with exact per-level sums at integer N.

    Identical (query, p, sign) paths are aggregated with exact integer
    multiplicities, so the frontier stays small even when the raw term
    count grows like (m_total - 1)^n. The truncation bound is what the
    states still alive can add: the sum over them of mult * N^(p - level
    + t), t the state's trace count. Stops at n_max, when the bound drops
    to tol, or when every path has terminated. n_max may not
    exceed SERIES_LEVEL_CEILING, and a level holding more than
    SERIES_STATE_CEILING distinct states raises NumericalError. An empty
    query (1) and an unbalanced one (0) return exactly, with no level.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got N={N}")
    if not 1 <= n_max <= SERIES_LEVEL_CEILING:
        raise ValidationError(
            f"need 1 <= n_max <= {SERIES_LEVEL_CEILING} (the series level ceiling), got n_max={n_max}"
        )
    if not tol >= 0:  # also refuses NaN
        raise ValidationError(f"need tol >= 0, got tol={tol}")
    m_total = query.m_total
    if m_total > N and not allow_divergent:
        raise ValidationError(
            f"m_total={m_total} exceeds N={N}: series convergence is not guaranteed "
            "(pass allow_divergent=True, or --allow-divergent on the command line, to force)"
        )
    if query.is_empty or query.is_unbalanced:  # exactly 1, exactly 0
        return SeriesResult(
            level_sums=(),
            partial_total=0.0 if query.is_unbalanced else 1.0,
            truncation_bound=0.0,
            level_audits=(),
        )

    frontier: dict[tuple[ExpectationQuery, int, int], int] = {(query, 0, 1): 1}
    level_sums: list[Fraction] = []
    audits: list[LevelAudit] = []
    level = 0
    bound = _truncation_bound(frontier, 0, N)
    while level < n_max and frontier:
        level += 1
        new_frontier: dict[tuple[ExpectationQuery, int, int], int] = {}
        terminated: dict[tuple[int, int], int] = {}
        term_count = 0
        for (state, p, sign), mult in frontier.items():
            for child in sd_step(state):
                key = (p + child.trivial_traces, sign * child.sign)
                term_count += mult
                if child.query.is_empty:
                    terminated[key] = terminated.get(key, 0) + mult
                else:
                    fkey = (child.query, *key)
                    new_frontier[fkey] = new_frontier.get(fkey, 0) + mult
        level_sum = Fraction(0)
        for (cp, csign), mult in terminated.items():
            level_sum += csign * mult * Fraction(N**cp, N**level)
        level_sums.append(level_sum)
        audits.append(LevelAudit(level=level, term_count=term_count, terminated=terminated))
        if len(new_frontier) > SERIES_STATE_CEILING:
            raise NumericalError(
                f"level {level} holds {len(new_frontier)} distinct states, over the "
                f"ceiling {SERIES_STATE_CEILING}"
            )
        frontier = new_frontier
        bound = _truncation_bound(frontier, level, N)
        if bound <= tol:
            break

    total = sum(level_sums, Fraction(0))
    return SeriesResult(
        level_sums=tuple(level_sums),
        partial_total=float(total),
        truncation_bound=bound,
        level_audits=tuple(audits),
    )


def _reachable(start: ExpectationQuery) -> set[ExpectationQuery]:
    seen = {start}
    stack = [start]
    while stack:
        q = stack.pop()
        for child in sd_step(q):
            cq = child.query
            if not cq.is_empty and cq not in seen:
                seen.add(cq)
                stack.append(cq)
    return seen


def evaluate_exact(query: ExpectationQuery) -> RationalInN:
    """Exact expectation as a rational function of N.

    The rewriting step never increases the total letter count, so the
    reachable canonical queries form a finite system, block-triangular in
    the letter count. Within a block every coefficient is +-1/N, so block
    b reads (N I - M_b) v = N rhs with M_b an integer matrix whose rows
    have absolute sum at most m_total - 1: diagonally dominant, and so
    nonsingular, at every integer N >= m_total. The system is solved
    exactly at consecutive such N, and the query's rational function is
    rebuilt from those values by Cauchy interpolation, checked at two
    further points (`rational._interpolate`). An unbalanced query is
    exactly 0 and skips the budget and the solve.
    """
    if query.is_unbalanced:
        return RAT_ZERO
    if query.is_empty:
        return RAT_ONE
    if query.m_total > DEFAULT_SYMBOLIC_BUDGET:
        raise ValidationError(
            f"m_total={query.m_total} exceeds the symbolic budget {DEFAULT_SYMBOLIC_BUDGET}"
        )
    blocks = _assemble(query)
    return _interpolate(lambda n: _solve_at(blocks, n)[query], query.m_total)


def _assemble(query: ExpectationQuery) -> list[tuple[list[ExpectationQuery], list]]:
    """The reachable system in increasing letter count, one block per
    count. A query's row holds its same-block coefficients {column:
    summed sign} and its (sign, trivial traces, child) terms below the
    block, child None when empty."""
    groups: dict[int, list[ExpectationQuery]] = {}
    for q in _reachable(query):
        groups.setdefault(q.m_total, []).append(q)
    blocks = []
    for count in sorted(groups):
        block = sorted(groups[count], key=lambda q: q.traces)
        index = {q: i for i, q in enumerate(block)}
        rows = []
        for q in block:
            inner: dict[int, int] = {}
            lower = []
            for child in sd_step(q):
                cq = child.query
                if cq.is_empty or cq.m_total < count:
                    lower.append((child.sign, child.trivial_traces, None if cq.is_empty else cq))
                else:
                    # a child keeping every letter deletes no pair and
                    # extracts no tr(1), so its coefficient is sign/N
                    j = index[cq]
                    inner[j] = inner.get(j, 0) + child.sign
            rows.append((inner, lower))
        blocks.append((block, rows))
    return blocks


def _solve_at(blocks, n: int) -> dict[ExpectationQuery, Fraction]:
    """Every query's value at the integer n >= m_total, block by block:
    Gaussian elimination without pivoting on N v_i - sum_j M_ij v_j =
    sum over lower children of sign * N^p * value, which diagonal
    dominance keeps nonsingular."""
    value: dict[ExpectationQuery, Fraction] = {}
    for block, rows in blocks:
        a = []
        b = []
        for i, (inner, lower) in enumerate(rows):
            row = {j: Fraction(-s) for j, s in inner.items()}
            row[i] = row.get(i, 0) + n
            a.append(row)
            b.append(sum(
                (s * n**p * (1 if c is None else value[c]) for s, p, c in lower), Fraction(0)
            ))
        size = len(block)
        for c in range(size):
            pivot = a[c]
            inv = 1 / Fraction(pivot[c])
            for r in range(c + 1, size):
                f = a[r].pop(c, 0)
                if f:
                    f *= inv
                    row = a[r]
                    for j, x in pivot.items():
                        if j > c:
                            row[j] = row.get(j, 0) - f * x
                    b[r] -= f * b[c]
        for c in range(size - 1, -1, -1):
            acc = b[c] - sum(x * b[j] for j, x in a[c].items() if j > c)
            b[c] = acc / a[c][c]
            value[block[c]] = b[c]
    return value
