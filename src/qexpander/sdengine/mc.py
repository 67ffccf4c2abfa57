"""Monte-Carlo oracle: estimate trace-product expectations by direct sampling.

Independent of the symbolic engine on purpose; the tests require both
routes to agree. The samples split into sub-batches of 256. Sub-batch b
draws its unitaries from child stream b of the seed, spawned on the
calling thread, and one task does all of its work, on buffers its thread
reuses from one sub-batch to the next. Each generator but the last, in
sorted order, is drawn and orthonormalized by the phase-fixed QR into a
whole (256, N, N) stack. The last is drawn, orthonormalized and traced
one QR slice at a time (`matrixcore._QR_SLICE_BYTES`: 16 matrices at
N=32, one at N=128); its normals continue the stream where a whole
stack's would, so the draws are the same. Per slice the traces take one
batched product per class of rotations and inverses, planned once per
query. The tasks run on one thread per CPU, with BLAS on one thread
under them. A stream belongs to a sub-batch, not to a thread, and the
slices depend on N alone, so a seed gives the same estimate bit for bit
on any number of CPUs and at any BLAS thread setting. Memory is 16 bytes
per sample plus, per thread, (generators - 1) stacks of 16·256·N² bytes
(4 MB at N=32) and one slice with the temporaries of its QR and products:
about 5 MB per thread at N=32 with two generators (traced peak 10.2 MB
on two threads). The number of generators has no limit; N has the
ceiling MC_DIM_CEILING.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import NumericalError, ValidationError
from ..matrixcore import _SUB_BATCH, SeededRng, _haar_fill, _qr_slice_len, map_batches
from .words import ExpectationQuery

MC_DIM_CEILING = 128  # a thread then holds 64 MB per generator but the last


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

    *whole, last = sorted({abs(s) for t in query.traces for s in t})
    plan = _trace_plan(query.traces)
    rows = min(samples, _SUB_BATCH)
    step = min(_qr_slice_len(N), rows)
    vals = np.empty(samples, dtype=complex)
    local = threading.local()  # one thread's buffers, reused by its sub-batches

    def sample(lo: int, hi: int, gen: np.random.Generator) -> None:
        if not hasattr(local, "slice"):
            # glibc maps a block over its mmap threshold (128 KB at first)
            # on its own, and unmapping it raises that threshold to the
            # block's size and the heap's trim threshold to twice that.
            # Unless such a block has been freed, the QR's slice-sized
            # temporaries are mapped, or trimmed off the heap top, and
            # faulted in again on every slice (41k minor faults in one
            # N=64, 1024-sample, 1-generator estimate). This one is never
            # touched, so it costs no fault.
            np.empty((4, step, N, N), dtype=complex)
            local.stacks = {g: np.empty((rows, N, N), dtype=complex) for g in whole}
            local.slice = np.empty((step, N, N), dtype=complex)
        stacks = {g: _haar_fill(local.stacks[g][: hi - lo], gen) for g in whole}
        # the last generator's draws continue the stream where a whole
        # stack's would, one slice at a time
        for a in range(0, hi - lo, step):
            b = min(a + step, hi - lo)
            views = {g: stack[a:b] for g, stack in stacks.items()}
            views[last] = _haar_fill(local.slice[: b - a], gen)
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
