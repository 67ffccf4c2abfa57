"""Monte-Carlo oracle: estimate trace-product expectations by direct sampling.

Independent of the symbolic engine on purpose; the tests require both
routes to agree. The samples split into sub-batches of 256. Sub-batch b
takes child stream b of the seed, spawned on the calling thread, and
spawns one child of its own per generator: generator i, in sorted order,
draws from child i. One task does all of a sub-batch's work, on buffers
its thread reuses from one sub-batch to the next. Every generator is
drawn, orthonormalized and traced one 256 KB slice at a time
(`matrixcore._QR_SLICE_BYTES`: 16 matrices at N=32, one at N=128) by
`matrixcore._HaarSampler`: Stewart's product of Householder reflectors,
N(N+1)/2 normals per matrix and one batched zungqr per slice, with no
factorization. Each matrix's normals are one run of its generator's
stream, so the draws are those of a whole stack bit for bit. Per slice
the traces take one batched product per class of rotations and
inverses, planned once per query. The tasks run on one thread per CPU,
with BLAS on one thread under them. A stream belongs to a sub-batch and
a generator, not to a thread, and the slices depend on N alone, so a
seed gives the same estimate bit for bit on any number of CPUs and at
any BLAS thread setting. Memory is 16 bytes per sample plus, per
thread, one slice per generator, the sampler's normal and reflector
buffers (about 1.5 slices) and the products' temporaries (a slice per
adjoint letter and a few more), whatever N is: traced peaks on two
threads are 2.4 MB with two generators at N=32 and at N=128, and 4.3
and 4.8 MB with three and six generators at N=64. The number of
generators has no limit; N has the ceiling MC_DIM_CEILING.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import NumericalError, ValidationError
from ..matrixcore import _SUB_BATCH, SeededRng, _HaarSampler, _qr_slice_len, map_batches
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
    local = threading.local()  # one thread's buffers, reused by its sub-batches

    def sample(lo: int, hi: int, gen: np.random.Generator) -> None:
        if not hasattr(local, "slices"):
            # glibc maps a block over its mmap threshold (128 KB at first)
            # on its own, and unmapping it raises that threshold to the
            # block's size and the heap's trim threshold to twice that.
            # Unless such a block has been freed, the trace products'
            # slice-sized temporaries are mapped, or trimmed off the heap
            # top, and faulted in again on every slice (58k minor faults in
            # one N=64, 1024-sample, 3-generator estimate, 1.2k with this
            # block). It is never touched, so it costs no fault.
            np.empty((4, step, N, N), dtype=complex)
            local.sampler = _HaarSampler(N)
            local.slices = [np.empty((step, N, N), dtype=complex) for _ in gens]
        # generator i draws from child i of the sub-batch's stream, one
        # slice at a time, continuing where its previous slice stopped
        streams = gen.spawn(len(gens))
        for a in range(0, hi - lo, step):
            b = min(a + step, hi - lo)
            views = {g: local.sampler.fill(buf[: b - a], s) for g, buf, s in zip(gens, local.slices, streams)}
            vals[lo + a : lo + b] = _trace_product(views, plan)

    map_batches(sample, samples, rng)

    mean_re = float(vals.real.mean())
    stderr_re = float(vals.real.std(ddof=1) / math.sqrt(samples))
    mean_im = float(vals.imag.mean())
    stderr_im = float(vals.imag.std(ddof=1) / math.sqrt(samples))
    if abs(mean_im) > 5.0 * stderr_im + 1e-12:
        raise NumericalError(
            f"imaginary part {mean_im:.3e} is {abs(mean_im) / max(stderr_im, 1e-300):.1f} "
            "standard errors from zero"
        )
    return mean_re, stderr_re
