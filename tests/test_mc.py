"""The buffered, threaded Monte-Carlo path against the serial oracle.

Estimates must be bit-identical (`==`, not approx) to tests/oracle_mc.py
for every sample count and generator count, and must not depend on the
number of worker threads.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import oracle_mc
from qexpander import matrixcore
from qexpander.errors import ValidationError
from qexpander.matrixcore import SeededRng, haar_unitaries
from qexpander.sdengine import monte_carlo_expectation, parse_trace_expr
from qexpander.sdengine import mc
from test_acceptance import CORPUS

TWO_GENERATORS = "tr(U1 U1 U2) tr(U2' U1' U1')"
THREE_GENERATORS = "tr(U1 U2 U3 U1' U2' U3')"
MC_PEAK_BOUND_MB = 128.0  # traced peak of one N=32, 4096-sample, 2-generator run


def _query(expr: str):
    return parse_trace_expr(expr).query


@pytest.mark.parametrize("n, count", [(8, 6), (12, 400), (32, 2048)])
def test_haar_unitaries_match_the_oracle_bitwise(n, count):
    got = haar_unitaries(n, count, SeededRng(19, n))
    want = oracle_mc.haar_stack(n, count, SeededRng(19, n))
    assert got.tobytes() == want.tobytes()


def test_haar_unitaries_fill_the_given_buffers():
    out = np.empty((40, 6, 6), dtype=complex)
    draw = np.empty((40, 6, 6))
    got = haar_unitaries(6, 40, SeededRng(2), out=out, draw=draw)
    assert got is out
    assert out.tobytes() == oracle_mc.haar_stack(6, 40, SeededRng(2)).tobytes()


def test_haar_unitaries_reject_mismatched_buffers():
    with pytest.raises(ValidationError):
        haar_unitaries(6, 40, SeededRng(2), out=np.empty((39, 6, 6), dtype=complex))


@pytest.mark.parametrize("n", [16, 32])
def test_criterion_5_corpus_matches_the_oracle(n):
    # criterion 5's queries and seeds; 2049 samples cross a chunk boundary
    for checks, (expr, _) in enumerate(CORPUS):
        query = _query(expr)
        rng = (6, 2 * checks + (n == 32))
        got = monte_carlo_expectation(query, n, 2049, SeededRng(*rng))
        assert got == oracle_mc.expectation(query, n, 2049, SeededRng(*rng)), expr


@pytest.mark.parametrize("samples", [100, 257, 2047, 2049, 10_000])
def test_partial_chunks_and_sub_batches_match_the_oracle(samples):
    query = _query(TWO_GENERATORS)
    got = monte_carlo_expectation(query, 16, samples, SeededRng(8, samples))
    assert got == oracle_mc.expectation(query, 16, samples, SeededRng(8, samples))


@pytest.mark.parametrize("expr", ["tr(U1 U1) tr(U1' U1')", THREE_GENERATORS])
def test_one_and_three_generators_match_the_oracle(expr):
    query = _query(expr)
    got = monte_carlo_expectation(query, 12, 2600, SeededRng(4))
    assert got == oracle_mc.expectation(query, 12, 2600, SeededRng(4))


def test_estimates_do_not_depend_on_the_worker_count(monkeypatch):
    query = _query(THREE_GENERATORS)
    main_thread = threading.get_ident()
    threads: set[int] = set()
    real = mc._trace_product

    def recording(stacks, q):
        threads.add(threading.get_ident())
        return real(stacks, q)

    monkeypatch.setattr(mc, "_trace_product", recording)
    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the drawing and the worker threads often
    try:
        for workers in (1, 3):
            monkeypatch.setattr(matrixcore, "worker_count", lambda w=workers: w)
            threads.clear()
            results[workers] = monte_carlo_expectation(query, 16, 2500, SeededRng(31))
            # one worker runs inline; three run every sub-batch on the pool
            assert (threads == {main_thread}) == (workers == 1)
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[3]


def test_memory_stays_under_the_bound(monkeypatch):
    # per-thread temporaries add to the reused stacks, so fix the count
    monkeypatch.setattr(matrixcore, "worker_count", lambda: 2)
    query = _query(TWO_GENERATORS)
    tracemalloc.start()
    try:
        monte_carlo_expectation(query, 32, 4096, SeededRng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < MC_PEAK_BOUND_MB
