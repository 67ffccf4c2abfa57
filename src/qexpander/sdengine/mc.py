"""Monte-Carlo oracle: estimate trace-product expectations by direct sampling.

Independent of the symbolic engine on purpose; the tests require both
routes to agree. The samples split into sub-batches of 256. Generator i,
in sorted order, of sub-batch b draws from stream (b, i) (`_stream`),
made where it is used. `batch_workers(samples)` workers, the calling
thread alone when that is 1, make their buffers once and take sub-batch
indices from one shared iterator. Every generator is drawn,
orthonormalized and traced one 256 KB slice at a time
(`matrixcore._QR_SLICE_BYTES`: 16 matrices at N=32, one at N=128) by
`matrixcore._HaarSampler`: Stewart's product of Householder reflectors,
N(N+1)/2 normals per matrix and one batched zungqr per slice, with no
factorization. Each matrix's normals are one run of its generator's
stream, so the draws are those of a whole stack bit for bit. Per slice
the traces take one batched product per class of rotations and inverses,
planned once per query. BLAS runs on one thread under the workers. A
stream belongs to a sub-batch and a generator, not to a thread, and the
slices depend on N alone, so a seed gives the same estimate bit for bit
on any number of CPUs and at any BLAS thread setting. Memory is 16 bytes
per sample (the standard error is summed one sub-batch at a time), plus,
per thread, one slice per generator, the sampler's normal and reflector
buffers (about 1.5 slices) and the products' temporaries (a slice per
adjoint letter and a few more), whatever N is: traced peaks on two
threads are 2.4 MB with two generators at N=32 and at N=128, and 4.3 and
4.8 MB with three and six generators at N=64. The number of generators
has no limit; N has the ceiling MC_DIM_CEILING.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import NumericalError, ValidationError
from ..matrixcore import _SUB_BATCH, SeededRng, _HaarSampler, _one_blas_thread, _qr_slice_len, batch_workers
from .words import ExpectationQuery

# Memory per thread does not grow with N; time does: one 10^4-sample,
# 2-generator estimate takes about 13 s on 2 CPUs at N=128.
MC_DIM_CEILING = 128


def _representative(word: tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """The word the kernel multiplies for tr(word), and whether tr(word) is
    the conjugate of its trace.

    tr is the same on every rotation of a word, and tr(w^-1) = conj(tr(w)),
    so any rotation of the word or of its inverse will do. The pick is the
    same for the whole class: fewest adjoint letters before the last, then
    a plain last letter, then the smallest tuple.
    """
    inverse = tuple(-s for s in reversed(word))
    rotations = [(w[i:] + w[:i], conj) for w, conj in ((word, False), (inverse, True)) for i in range(len(w))]
    return min(rotations, key=lambda c: (sum(s < 0 for s in c[0][:-1]), c[0][-1] < 0, c[0]))


class _TracePlan(NamedTuple):
    """What `_trace_product` needs of a query, worked out once per query."""

    picks: tuple[tuple[tuple[int, ...], bool], ...]  # `_representative` of each trace
    adjoint: tuple[int, ...]  # generators whose adjoint is a letter before a last one


def _trace_plan(traces: Sequence[tuple[int, ...]]) -> _TracePlan:
    picks = tuple(_representative(word) for word in traces)
    return _TracePlan(picks, tuple(sorted({-s for rep, _ in picks for s in rep[:-1] if s < 0})))


def _trace_product(stacks: dict[int, np.ndarray], plan: _TracePlan) -> np.ndarray:
    """prod over the planned traces of tr(word), per sample of the stacks.

    Each class of rotations and inverses is multiplied once. The last
    letter closes the trace with an O(N^2) contraction instead of a matmul;
    a contiguous adjoint stack is made only for an adjoint letter before it.
    """
    batch = next(iter(stacks.values())).shape[0]
    adjoints = {
        g: np.conjugate(np.swapaxes(stacks[g], -1, -2), out=np.empty_like(stacks[g])) for g in plan.adjoint
    }

    def letter(s: int) -> np.ndarray:
        return stacks[s] if s > 0 else adjoints[-s]

    traces: dict[tuple[int, ...], np.ndarray] = {}
    values = np.ones(batch, dtype=complex)
    for rep, conj in plan.picks:
        if rep not in traces:
            *head, last = rep
            if not head:  # a one-letter class is picked plain
                traces[rep] = np.einsum("kii->k", stacks[last])
            else:
                prod = letter(head[0])
                for s in head[1:]:
                    prod = prod @ letter(s)
                if last > 0:
                    traces[rep] = np.einsum("kij,kji->k", prod, stacks[last])
                else:  # tr(P U^H) = sum_ij P_ij conj(U_ij)
                    traces[rep] = np.einsum("kij,kij->k", prod, np.conj(stacks[-last]))
        values *= np.conj(traces[rep]) if conj else traces[rep]
    return values


def _stream(seed: np.random.SeedSequence, batch: int, gen: int) -> np.random.Generator:
    """The stream default_rng(seed).spawn(n)[batch].spawn(m)[gen] gives for
    any n > batch and m > gen, made without spawning."""
    key = (*seed.spawn_key, batch, gen)
    return np.random.default_rng(np.random.SeedSequence(seed.entropy, spawn_key=key, pool_size=seed.pool_size))


def _mean_and_stderr(x: np.ndarray) -> tuple[float, float]:
    """The mean of x and its standard error, std(ddof=1) / sqrt(len(x)),
    with the squared deviations summed one sub-batch at a time: no
    temporary of 8 bytes per sample."""
    mean = float(x.mean())
    squares = 0.0
    for lo in range(0, x.size, _SUB_BATCH):
        dev = x[lo : lo + _SUB_BATCH] - mean
        squares += float(dev @ dev)
    return mean, math.sqrt(squares / (x.size - 1)) / math.sqrt(x.size)


def monte_carlo_expectation(
    query: ExpectationQuery, N: int, samples: int, rng: SeededRng
) -> tuple[float, float]:
    """(mean, stderr) of the real part over independent Haar samples.

    The imaginary part must be statistically zero (its mean within 5
    standard errors); a violation points at a broken sampler or query and
    raises rather than returning silently.
    """
    if samples < 100:
        raise ValidationError(f"need at least 100 samples, got {samples}")
    if N < 1:
        raise ValidationError(f"need N >= 1, got N={N}")
    if N > MC_DIM_CEILING:
        raise ValidationError(f"N={N} is over the Monte-Carlo ceiling {MC_DIM_CEILING}")
    if query.is_empty:
        return 1.0, 0.0

    gens = sorted({abs(s) for t in query.traces for s in t})
    plan = _trace_plan(query.traces)
    step = min(_qr_slice_len(N), _SUB_BATCH, samples)
    try:
        vals = np.empty(samples, dtype=complex)
    except ValueError:  # a size numpy cannot describe, past 2^63 bytes
        raise MemoryError(f"cannot allocate 16 bytes for each of {samples} samples") from None
    seed = rng.generator.bit_generator.seed_seq
    batches = iter(range(-(-samples // _SUB_BATCH)))  # next() is one C call: no index goes out twice

    def work() -> None:
        # glibc maps a block over its mmap threshold (128 KB at first) on
        # its own, and unmapping it raises that threshold to the block's
        # size and the heap's trim threshold to twice that. Unless such a
        # block has been freed, the trace products' slice-sized temporaries
        # are mapped, or trimmed off the heap top, and faulted in again on
        # every slice (58k minor faults in one N=64, 1024-sample,
        # 3-generator estimate, 1.2k with this block). It is never touched,
        # so it costs no fault.
        np.empty((4, step, N, N), dtype=complex)
        sampler = _HaarSampler(N)
        slices = [np.empty((step, N, N), dtype=complex) for _ in gens]
        for b in batches:
            # each slice continues its generator's stream where the last stopped
            streams = [_stream(seed, b, i) for i in range(len(gens))]
            end = min((b + 1) * _SUB_BATCH, samples)
            for lo in range(b * _SUB_BATCH, end, step):
                hi = min(lo + step, end)
                views = {g: sampler.fill(buf[: hi - lo], s) for g, buf, s in zip(gens, slices, streams)}
                vals[lo:hi] = _trace_product(views, plan)

    # BLAS threads would contend with the workers, and a threaded zgemm or QR
    # rounds differently (at N=128). Workers call no public function: the
    # benchmark tracer wraps those with one span stack all threads share.
    workers = batch_workers(samples)
    with _one_blas_thread():
        if workers == 1:
            work()
        else:
            # imported here: concurrent.futures pulls in logging, which would
            # add about 8 ms to every command's start-up
            from concurrent.futures import ThreadPoolExecutor, as_completed

            with ThreadPoolExecutor(workers) as pool:
                try:
                    for done in as_completed([pool.submit(work) for _ in range(workers)]):
                        done.result()
                finally:  # after a failure or an interrupt, no worker starts another sub-batch
                    for _ in batches:
                        pass

    mean_re, stderr_re = _mean_and_stderr(vals.real)
    mean_im, stderr_im = _mean_and_stderr(vals.imag)
    if abs(mean_im) > 5.0 * stderr_im + 1e-12:
        raise NumericalError(
            f"imaginary part {mean_im:.3e} is {abs(mean_im) / max(stderr_im, 1e-300):.1f} "
            "standard errors from zero"
        )
    return mean_re, stderr_re
