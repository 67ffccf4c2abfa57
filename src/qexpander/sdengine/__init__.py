"""Symbolic evaluation of Haar expectations of products of unitary-word traces.

The recursion rewrites E[tr(W1) tr(W2) ...] into 1/N-weighted child queries
by splitting and merging traces at a pivot letter; terminated paths carry
exact values sign * N^(p - n). Three independent evaluation routes are
exposed and cross-checked in the tests: a level-wise series, an exact
rational-function solve, and a Monte-Carlo oracle.
"""

from .words import ExpectationQuery, cyclic_reduce, query_from_traces
from .parse import ParseResult, parse_trace_expr
from .engine import SeriesResult, evaluate_exact, evaluate_series, sd_step
from .rational import RationalInN
from .mc import monte_carlo_expectation

__all__ = [
    "ExpectationQuery",
    "ParseResult",
    "RationalInN",
    "SeriesResult",
    "cyclic_reduce",
    "evaluate_exact",
    "evaluate_series",
    "monte_carlo_expectation",
    "parse_trace_expr",
    "query_from_traces",
    "sd_step",
]
