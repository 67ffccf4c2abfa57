"""The threaded Monte-Carlo path against the serial oracle.

Haar stacks must match tests/oracle_mc.py, which multiplies the same
reflectors out densely, within HAAR_TOL for any stack size, and must not
depend on how a stack is split between fill calls at all. The trace
kernel multiplies out one word per class (a word's rotations and those
of its inverse) and closes the trace with a contraction, so its rounding
differs from the oracle's plain products: per-sample trace products
must agree within TRACE_TOL, and the mean and standard error within
MC_TOL, for every sample count and generator count. Estimates must not
depend on the number of worker threads or on the BLAS thread count at
all.
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
SIX_GENERATORS = "tr(U1 U2 U3 U4 U5 U6) tr(U6' U5' U4' U3' U2' U1')"
# Traced peaks with two threads, each holding one 256 KB slice per
# generator: 2.4 MB for one N=32, 4096-sample and one N=128, 512-sample
# 2-generator run; 4.3 and 4.8 MB for one N=64, 1024-sample run with 3
# and 6 generators. The bounds leave 45%, and 50% and 34%. One whole
# 256-matrix stack per thread (4 MB at N=32) would break both.
MC_PEAK_BOUND_MB = 3.5
MC_PEAK_BOUND_MANY_GEN_MB = 6.5
# Traced memory past 24 bytes per sample: 0.013 MB for 2*10^5 samples at
# N=2 on two threads, 1.55 MB with a stream and a future made up front
# per sub-batch.
STREAM_SET_UP_BOUND_MB = 0.25
# Over the 28 estimates checked below, 19 moved from the oracle's, by at
# most 8.9e-16, and per-sample trace products by at most 5.5e-15 (2.9e-14
# on the QR-drawn stacks the tolerances were set on).
MC_TOL = 1e-13
TRACE_TOL = 1e-12
# The oracle's dense products round differently from zungqr: over the
# stacks checked below entries differ by at most 9.4e-16 (1.6e-15 at
# N=128).
HAAR_TOL = 2e-15


def _query(expr: str):
    return parse_trace_expr(expr).query


def _assert_close(got, want):
    assert abs(got[0] - want[0]) <= MC_TOL and abs(got[1] - want[1]) <= MC_TOL, (got, want)


def _fill(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    return matrixcore._HaarSampler(n).fill(np.empty((count, n, n), dtype=complex), gen)


def _stacks(query, n: int, count: int, seed: int) -> dict:
    gen = np.random.default_rng(seed)
    gens = sorted({abs(s) for t in query.traces for s in t})
    return {g: _fill(n, count, gen) for g in gens}


@pytest.mark.parametrize("n", [16, 32])
def test_haar_stacks_match_the_oracle(n):
    per_slice = matrixcore._qr_slice_len(n)
    # a full sub-batch, a one-matrix sub-batch and one matrix past a slice
    for count in (matrixcore._SUB_BATCH, 1, per_slice + 1):
        got = _fill(n, count, np.random.default_rng(count))
        want = oracle_mc._haar(np.random.default_rng(count), count, n)
        assert np.max(np.abs(got - want)) <= HAAR_TOL, count


@pytest.mark.parametrize("n", [1, 16, 32])
def test_haar_stacks_do_not_depend_on_how_they_are_split(n):
    count = matrixcore._SUB_BATCH
    whole = _fill(n, count, np.random.default_rng(3))
    sampler, gen = matrixcore._HaarSampler(n), np.random.default_rng(3)
    per_slice = [sampler.fill(np.empty((k, n, n), dtype=complex), gen) for k in (7, 1, count - 8)]
    gen = np.random.default_rng(3)
    per_matrix = [sampler.fill(np.empty((1, n, n), dtype=complex), gen) for _ in range(count)]
    assert np.concatenate(per_slice).tobytes() == whole.tobytes()
    assert np.concatenate(per_matrix).tobytes() == whole.tobytes()


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
    # 256 + 17 at N=32 ends a sub-batch one matrix into its second
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
def test_blas_runs_on_one_thread_while_sampling_and_is_restored(monkeypatch, workers):
    calls = matrixcore._blas_thread_calls()
    if calls is None:
        pytest.skip("the loaded BLAS has no thread setter")
    get, _ = calls
    monkeypatch.setattr(matrixcore, "worker_count", lambda: workers)
    before = get()
    seen = set()
    real = mc._trace_product

    def recording(stacks, plan):
        seen.add(get())
        # at N=2 a slice is a whole sub-batch; 600 samples end in one of 88
        if len(next(iter(stacks.values()))) == 600 - 2 * matrixcore._SUB_BATCH:
            raise RuntimeError("the last sub-batch fails")
        return real(stacks, plan)

    monkeypatch.setattr(mc, "_trace_product", recording)
    with pytest.raises(RuntimeError):
        monte_carlo_expectation(_query("tr(U1) tr(U1')"), 2, 600, SeededRng(0))
    assert seen == {1} and get() == before


def test_a_failing_sub_batch_stops_the_other_workers(monkeypatch):
    monkeypatch.setattr(matrixcore, "worker_count", lambda: 2)
    calls = []
    real = mc._trace_product

    def failing_first(stacks, plan):
        calls.append(None)
        if len(calls) == 1:
            raise RuntimeError("the first traced slice fails")
        return real(stacks, plan)

    monkeypatch.setattr(mc, "_trace_product", failing_first)
    with pytest.raises(RuntimeError):
        # 40 sub-batches of four 64-matrix slices each at N=16
        monte_carlo_expectation(_query("tr(U1) tr(U1')"), 16, 40 * matrixcore._SUB_BATCH, SeededRng(0))
    # the other worker finishes the sub-batch it holds and takes hardly
    # another (5 or 9 calls here, against 157 when it takes all the rest)
    assert len(calls) < 40, len(calls)


@pytest.mark.parametrize("b, i", [(0, 0), (1, 2), (40, 1)])
def test_keyed_streams_are_the_spawned_children(b, i):
    # the key mirrors how numpy numbers the children Generator.spawn makes
    keyed = mc._stream(SeededRng(9, 4).generator.bit_generator.seed_seq, b, i)
    spawned = SeededRng(9, 4).generator.spawn(41)[b].spawn(3)[i]
    assert keyed.bit_generator.state == spawned.bit_generator.state
    assert keyed.standard_normal(5).tobytes() == spawned.standard_normal(5).tobytes()


def test_estimates_do_not_depend_on_the_blas_thread_count():
    # at N=128 a threaded zungqr or zgemm rounds differently from a serial one;
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
        (TWO_GENERATORS, 128, 512, MC_PEAK_BOUND_MB),
        (THREE_GENERATORS, 64, 1024, MC_PEAK_BOUND_MANY_GEN_MB),
        (SIX_GENERATORS, 64, 1024, MC_PEAK_BOUND_MANY_GEN_MB),
    ):
        tracemalloc.start()
        try:
            monte_carlo_expectation(_query(expr), n, samples, SeededRng(1))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 2**20 < bound_mb, (expr, n)
        # no thread's buffers outlive the call: what is left is under the
        # 16 bytes per sample of the sample array, far under one slice
        assert current <= 16 * samples, (expr, n)


def test_stream_set_up_does_not_grow_with_the_sample_count(monkeypatch):
    # past its samples (16 bytes each) and the standard error's temporary
    # (8 more) an estimate holds only per-thread buffers
    monkeypatch.setattr(matrixcore, "worker_count", lambda: 2)
    query, samples = _query("tr(U1) tr(U1')"), 2 * 10**5
    monte_carlo_expectation(query, 2, 300, SeededRng(0))  # imports concurrent.futures
    tracemalloc.start()
    try:
        monte_carlo_expectation(query, 2, samples, SeededRng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - 24 * samples) / 2**20 < STREAM_SET_UP_BOUND_MB
