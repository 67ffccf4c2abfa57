"""The trace-product rewriting recursion and its two symbolic evaluators.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..errors import NumericalError, ValidationError
from .rational import RAT_ONE, RationalInN
from .words import ExpectationQuery, Traces, check_letter_budget, query_from_traces

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_SYMBOLIC_BUDGET = 10  # max total letters for the exact solver


@dataclass(frozen=True)
class SdTerm:
    """One child of a rewriting step, one level below its parent."""

    sign: int
    trivial_traces: int
    split_count: int
    query: ExpectationQuery


@lru_cache(maxsize=None)
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

    def emit(sign: int, split: int, raw: list[Traces | tuple[int, ...]]) -> None:
        child, extracted = query_from_traces(raw)
        children.append(
            SdTerm(
                sign=sign,
                trivial_traces=extracted,
                split_count=split,
                query=child,
            )
        )

    for j in range(1, m1):
        if w[j] == pivot:
            # same letter in the pivot trace: split
            emit(-1, 1, [w[:j], w[j:], *others])
        elif w[j] == -pivot:
            # inverse letter in the pivot trace: split, pair deleted
            emit(+1, 1, [w[1:j], w[j + 1 :], *others])

    for t_idx, v in enumerate(others):
        bystanders = others[:t_idx] + others[t_idx + 1 :]
        for j, s in enumerate(v):
            if s == pivot:
                # same letter in another trace: merge, rotating v to start there
                emit(-1, 0, [w + v[j:] + v[:j], *bystanders])
            elif s == -pivot:
                # inverse letter in another trace: merge, pair deleted
                emit(+1, 0, [w[1:] + v[j + 1 :] + v[:j], *bystanders])

    return tuple(children)


@dataclass(frozen=True)
class LevelAudit:
    """Bookkeeping for one expansion level (multiplicity-weighted counts)."""

    level: int
    term_count: int  # all children produced at this level
    live_count: int  # children still carrying letters
    terminated: dict[tuple[int, int, int], int]  # (p, q, sign) -> multiplicity


@dataclass(frozen=True)
class SeriesResult:
    level_sums: tuple[Fraction, ...]
    partial_total: float
    truncation_bound: float
    levels_computed: int
    level_audits: tuple[LevelAudit, ...]
    m_total: int
    N: int

    def exact_partial_total(self) -> Fraction:
        return sum(self.level_sums, Fraction(0))


def _truncation_bound(m_total: int, n_levels: int, N: int) -> float:
    # worst case: every path still alive at the deepest level terminates
    # with the largest possible trivial-trace factor N^m_total
    return float((m_total - 1) ** (n_levels + 1)) * float(N) ** (m_total - n_levels - 1)


def evaluate_series(
    query: ExpectationQuery,
    N: int,
    n_max: int,
    tol: float = 0.0,
    node_budget: int = DEFAULT_NODE_BUDGET,
    allow_divergent: bool = False,
) -> SeriesResult:
    """Level-wise expansion with exact per-level sums at integer N.

    Identical (query, p, q, sign) paths are aggregated with exact integer
    multiplicities, so the frontier stays small even when the raw term
    count grows like (m_total - 1)^n. Stops at n_max, when the truncation
    bound drops to tol, or when every path has terminated.
    """
    if N < 1:
        raise ValidationError(f"need N >= 1, got N={N}")
    if n_max < 1:
        raise ValidationError(f"need n_max >= 1, got n_max={n_max}")
    if tol < 0:
        raise ValidationError(f"need tol >= 0, got tol={tol}")
    m_total = query.m_total
    if m_total > N and not allow_divergent:
        raise ValidationError(
            f"m_total={m_total} exceeds N={N}: series convergence is not guaranteed "
            "(pass allow_divergent=True to force)"
        )
    if query.is_empty:
        return SeriesResult(
            level_sums=(),
            partial_total=1.0,
            truncation_bound=0.0,
            levels_computed=0,
            level_audits=(),
            m_total=0,
            N=N,
        )

    frontier: dict[tuple[ExpectationQuery, int, int, int], int] = {(query, 0, 0, 1): 1}
    level_sums: list[Fraction] = []
    audits: list[LevelAudit] = []
    level = 0
    bound = _truncation_bound(m_total, 0, N)
    while level < n_max and frontier:
        level += 1
        new_frontier: dict[tuple[ExpectationQuery, int, int, int], int] = {}
        terminated: dict[tuple[int, int, int], int] = {}
        term_count = 0
        for (state, p, q, sign), mult in frontier.items():
            for child in sd_step(state):
                csign = sign * child.sign
                cp = p + child.trivial_traces
                cq = q + child.split_count
                term_count += mult
                if child.query.is_empty:
                    key = (cp, cq, csign)
                    terminated[key] = terminated.get(key, 0) + mult
                else:
                    fkey = (child.query, cp, cq, csign)
                    new_frontier[fkey] = new_frontier.get(fkey, 0) + mult
        live = sum(new_frontier.values())
        level_sum = Fraction(0)
        for (cp, cq, csign), mult in terminated.items():
            level_sum += csign * mult * Fraction(N**cp, N**level)
        level_sums.append(level_sum)
        audits.append(
            LevelAudit(
                level=level,
                term_count=term_count,
                live_count=live,
                terminated=terminated,
            )
        )
        if live > node_budget:
            raise NumericalError(
                f"level {level} holds {live} live terms, over the budget {node_budget}; "
                "evaluate_exact avoids the level-wise blowup"
            )
        frontier = new_frontier
        bound = 0.0 if not frontier else _truncation_bound(m_total, level, N)
        if bound <= tol:
            break

    total = sum(level_sums, Fraction(0))
    return SeriesResult(
        level_sums=tuple(level_sums),
        partial_total=float(total),
        truncation_bound=bound,
        levels_computed=level,
        level_audits=tuple(audits),
        m_total=m_total,
        N=N,
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


def evaluate_exact(
    query: ExpectationQuery, max_letters: int = DEFAULT_SYMBOLIC_BUDGET
) -> RationalInN:
    """Exact expectation as a rational function of N.

    The rewriting step never increases the total letter count, so the
    reachable canonical queries form a finite system, block-triangular in
    the letter count. Blocks are solved in increasing count by exact
    Gaussian elimination over rational functions; within a block, cyclic
    dependencies (split followed by re-merge) are solved simultaneously.
    """
    if query.is_empty:
        return RAT_ONE
    check_letter_budget(query.m_total, max_letters)

    groups: dict[int, list[ExpectationQuery]] = {}
    for q in _reachable(query):
        groups.setdefault(q.m_total, []).append(q)

    solution: dict[ExpectationQuery, RationalInN] = {}
    inv_n = RationalInN.n_power(-1)
    for count in sorted(groups):
        block = sorted(groups[count], key=lambda q: q.traces)
        index = {q: i for i, q in enumerate(block)}
        size = len(block)
        zero = RationalInN.from_int(0)
        matrix = [[zero] * size for _ in range(size)]
        rhs = [zero] * size
        for i, q in enumerate(block):
            matrix[i][i] = RAT_ONE
            for child in sd_step(q):
                coeff = inv_n * RationalInN.n_power(child.trivial_traces)
                if child.sign < 0:
                    coeff = -coeff
                cq = child.query
                if cq.is_empty:
                    rhs[i] = rhs[i] + coeff
                elif cq.m_total < count:
                    rhs[i] = rhs[i] + coeff * solution[cq]
                else:
                    j = index[cq]
                    matrix[i][j] = matrix[i][j] - coeff
        values = _solve_exact(matrix, rhs, block)
        for q, v in zip(block, values):
            solution[q] = v

    return solution[query]


def _solve_exact(matrix, rhs, block) -> list[RationalInN]:
    """Gaussian elimination over rational functions in N."""
    size = len(rhs)
    a = [row[:] for row in matrix]
    b = rhs[:]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if not a[r][col].is_zero()), None)
        if pivot_row is None:
            raise NumericalError(
                f"singular system: zero pivot column for query {block[col].traces!r}"
            )
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            b[col], b[pivot_row] = b[pivot_row], b[col]
        inv = RAT_ONE / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] = b[col] * inv
        for r in range(size):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
            b[r] = b[r] - factor * b[col]
    return b
