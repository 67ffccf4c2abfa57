"""The threaded Monte-Carlo path against the serial oracle.

Haar stacks must be bit-identical (`==`, not approx) to tests/oracle_mc.py
for any stack size. The trace kernel multiplies out one word per class (a
word's rotations and those of its inverse) and closes the trace with a
contraction, so its rounding differs from the oracle's plain products:
per-sample trace products must agree within TRACE_TOL, and the mean and
standard error within MC_TOL, for every sample count and generator count.
Estimates must not depend on the number of worker threads or on the
BLAS thread count at all.
"""

import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle_mc
import qexpander
from qexpander import matrixcore
from qexpander.matrixcore import SeededRng
from qexpander.sdengine import monte_carlo_expectation, parse_trace_expr
from qexpander.sdengine import mc
from test_acceptance import CORPUS

TWO_GENERATORS = "tr(U1 U1 U2) tr(U2' U1' U1')"
THREE_GENERATORS = "tr(U1 U2 U3 U1' U2' U3')"
# Traced peaks with two threads, each holding a whole stack per generator
# but the last and one slice of the last: 10.2 MB for one N=32,
# 4096-sample, 2-generator run and 66.5 MB for one N=64, 1024-sample,
# 3-generator run (21-24 and 224 MB with a whole stack per generator).
# The bounds leave 40% and 20%.
MC_PEAK_BOUND_MB = 14.0
MC_PEAK_BOUND_3_GEN_N64_MB = 80.0
# Over the 25 estimates checked below, 7 moved from the oracle's, by at most
# 4.4e-16, and per-sample trace products by at most 2.9e-14.
MC_TOL = 1e-13
TRACE_TOL = 1e-12


def _query(expr: str):
    return parse_trace_expr(expr).query


def _assert_close(got, want):
    assert abs(got[0] - want[0]) <= MC_TOL and abs(got[1] - want[1]) <= MC_TOL, (got, want)


def _stacks(query, n: int, count: int, seed: int) -> dict:
    gen = np.random.default_rng(seed)
    gens = sorted({abs(s) for t in query.traces for s in t})
    return {g: matrixcore._haar_fill(np.empty((count, n, n), dtype=complex), gen) for g in gens}


@pytest.mark.parametrize("n", [16, 32])
def test_haar_stacks_equal_the_oracle_bit_for_bit(n):
    per_slice = matrixcore._QR_SLICE_BYTES // (16 * n * n)
    # a full sub-batch, a one-matrix sub-batch and one matrix past a QR slice
    for count in (matrixcore._SUB_BATCH, 1, per_slice + 1):
        got = matrixcore._haar_fill(np.empty((count, n, n), dtype=complex), np.random.default_rng(count))
        want = oracle_mc._haar(np.random.default_rng(count), count, n)
        assert got.tobytes() == want.tobytes(), count


KERNEL_CASES = [
    TWO_GENERATORS,  # a word and its inverse
    "tr(U1 U2 U2) tr(U2 U1 U2)",  # a rotated repeat
    "tr(U1 U2') tr(U1 U2')",  # one word twice
    "tr(U1) tr(U1')",
    "tr(U1' U2' U1' U1')",  # all adjoint
    "tr(U1 U2 U1' U2')",  # holds U1 and U1'
    THREE_GENERATORS + " tr(U3 U1) tr(U2)",
]


@pytest.mark.parametrize(
    "query",
    [_query(expr) for expr in KERNEL_CASES]
    # adjacent U1 U1', which no cyclically reduced query holds; the kernel
    # reads only the traces
    + [SimpleNamespace(traces=((1, -1, 2), (2, 1, -1, -2, -2)))],
    ids=KERNEL_CASES + ["tr(U1 U1' U2) tr(U2 U1 U1' U2' U2')"],
)
def test_trace_kernel_matches_the_oracle_per_sample(query):
    stacks = _stacks(query, 16, 300, 5)
    got = mc._trace_product(stacks, mc._trace_plan(query.traces))
    assert np.max(np.abs(got - oracle_mc.trace_product(stacks, query))) <= TRACE_TOL


@pytest.mark.parametrize("word", [(1,), (-1,), (1, 1, 2), (-2, -1, -1), (1, 2, -1, -2), (1, -2, 3, 2, -3)])
def test_a_class_has_one_representative(word):
    inverse = tuple(-s for s in reversed(word))
    picks = {mc._representative(w[i:] + w[:i]) for w in (word, inverse) for i in range(len(w))}
    # one word for the class, taken plain for one side and conjugated for the other
    assert {conj for _, conj in picks} == {False, True}
    (rep,) = {rep for rep, _ in picks}
    # a class with a plain word needs no adjoint stack
    if all(s > 0 for s in word) or all(s < 0 for s in word):
        assert all(s > 0 for s in rep)


@pytest.mark.parametrize("n", [16, 32])
def test_criterion_5_corpus_matches_the_oracle(n):
    # criterion 5's queries and seeds; 2049 samples end in a one-sample sub-batch
    for checks, (expr, _) in enumerate(CORPUS):
        query = _query(expr)
        rng = (6, 2 * checks + (n == 32))
        got = monte_carlo_expectation(query, n, 2049, SeededRng(*rng))
        _assert_close(got, oracle_mc.expectation(query, n, 2049, SeededRng(*rng)))


@pytest.mark.parametrize(
    "n, samples",
    [pytest.param(16, samples, id=str(samples)) for samples in (100, 257, 2047, 2049, 10_000)]
    # 256 + 17 at N=32 ends a sub-batch one matrix into its second QR
    # slice; at N=128 a slice holds one matrix
    + [pytest.param(32, 256 + 17, id="N32-273"), pytest.param(128, 100, id="N128-100")],
)
def test_partial_chunks_and_sub_batches_match_the_oracle(n, samples):
    query = _query(TWO_GENERATORS)
    got = monte_carlo_expectation(query, n, samples, SeededRng(8, samples))
    _assert_close(got, oracle_mc.expectation(query, n, samples, SeededRng(8, samples)))


@pytest.mark.parametrize(
    "expr, n",
    [pytest.param(expr, 12, id=expr) for expr in ("tr(U1 U1) tr(U1' U1')", THREE_GENERATORS)]
    + [pytest.param("tr(U1 U1) tr(U1' U1')", 32, id="tr(U1 U1) tr(U1' U1')-N32")],
)
def test_one_and_three_generators_match_the_oracle(expr, n):
    # with one generator every draw is streamed slice by slice
    query = _query(expr)
    got = monte_carlo_expectation(query, n, 2600, SeededRng(4))
    _assert_close(got, oracle_mc.expectation(query, n, 2600, SeededRng(4)))


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
    sys.setswitchinterval(1e-6)  # interleave the worker threads often
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


@pytest.mark.parametrize("workers", [1, 2])
def test_blas_runs_on_one_thread_under_map_batches_and_is_restored(monkeypatch, workers):
    calls = matrixcore._blas_thread_calls()
    if calls is None:
        pytest.skip("the loaded BLAS has no thread setter")
    get, _ = calls
    monkeypatch.setattr(matrixcore, "worker_count", lambda: workers)
    before = get()
    seen = set()

    def fn(lo, hi, gen):
        seen.add(get())
        if lo == 512:
            raise RuntimeError("the last sub-batch fails")

    with pytest.raises(RuntimeError):
        matrixcore.map_batches(fn, 600, SeededRng(0))
    assert seen == {1} and get() == before


def test_estimates_do_not_depend_on_the_blas_thread_count():
    # at N=128 a threaded QR or zgemm rounds differently from a serial one;
    # the sampler runs BLAS on one thread whatever the environment asks for
    argv = ["sd", "eval", TWO_GENERATORS, "--mc", "--n", "128", "--samples", "100"]
    estimates = set()
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(qexpander.__file__).parents[1]),
            "OPENBLAS_NUM_THREADS": threads,
        }
        proc = subprocess.run(
            [sys.executable, "-m", "qexpander", *argv], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        estimates.add((report["estimate"], report["stderr"]))
    assert len(estimates) == 1, estimates


def test_memory_stays_under_the_bound(monkeypatch):
    # every thread holds one sub-batch, so fix the count
    monkeypatch.setattr(matrixcore, "worker_count", lambda: 2)
    # the first pooled call imports concurrent.futures, which is not the
    # sampler's memory
    monte_carlo_expectation(_query("tr(U1) tr(U1')"), 2, 300, SeededRng(0))
    for expr, n, samples, bound_mb in (
        (TWO_GENERATORS, 32, 4096, MC_PEAK_BOUND_MB),
        (THREE_GENERATORS, 64, 1024, MC_PEAK_BOUND_3_GEN_N64_MB),
    ):
        tracemalloc.start()
        try:
            monte_carlo_expectation(_query(expr), n, samples, SeededRng(1))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < bound_mb, expr
        # no thread's buffers outlive the call: what is left is under the
        # 16 bytes per sample of the sample array, far under one QR slice
        assert current <= 16 * samples, expr
