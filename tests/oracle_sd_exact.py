"""Exact SD values by Gaussian elimination over rational functions in N,
independent of the integer-N solves and interpolation in
qexpander.sdengine.engine.

The reachable canonical queries are grouped by letter count and solved
block by block in increasing count, every entry a `RationalInN`; within a
block, cyclic dependencies (split followed by re-merge) are solved
simultaneously. Every field operation runs a polynomial gcd, so this is
slow, but it shares nothing with the engine beyond `sd_step` and the
reachable set: the engine must return the same rational function.
"""

from __future__ import annotations

from qexpander.errors import NumericalError, ValidationError
from qexpander.sdengine.engine import DEFAULT_SYMBOLIC_BUDGET, _reachable, sd_step
from qexpander.sdengine.rational import RAT_ONE, RAT_ZERO, RationalInN
from qexpander.sdengine.words import ExpectationQuery


def evaluate_exact(query: ExpectationQuery) -> RationalInN:
    """Exact expectation as a rational function of N, by elimination."""
    if query.is_unbalanced:
        return RAT_ZERO
    if query.is_empty:
        return RAT_ONE
    if query.m_total > DEFAULT_SYMBOLIC_BUDGET:
        raise ValidationError(
            f"m_total={query.m_total} exceeds the symbolic budget {DEFAULT_SYMBOLIC_BUDGET}"
        )

    groups: dict[int, list[ExpectationQuery]] = {}
    for q in _reachable(query):
        groups.setdefault(q.m_total, []).append(q)

    solution: dict[ExpectationQuery, RationalInN] = {}
    inv_n = RationalInN.n_power(-1)
    for count in sorted(groups):
        block = sorted(groups[count], key=lambda q: q.traces)
        index = {q: i for i, q in enumerate(block)}
        size = len(block)
        matrix = [[RAT_ZERO] * size for _ in range(size)]
        rhs = [RAT_ZERO] * size
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
