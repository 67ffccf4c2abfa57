"""Monte-Carlo oracle: estimate trace-product expectations by direct sampling.

Independent of the symbolic engine on purpose; the tests require both
routes to agree. The samples split into sub-batches of 256. Sub-batch b
draws its unitaries from child stream b of the seed, spawned on the
calling thread, and one task does all of its work: for each generator in
sorted order, the draw and the phase-fixed QR into a (256, N, N) stack of
its own, then the traces, one batched product per class of rotations and
inverses. The tasks run on one thread per CPU. A stream belongs to a
sub-batch, not to a thread, so a seed gives the same estimate bit for bit
on any number of CPUs. Memory is one sub-batch per thread plus 16 bytes
per sample: a thread holds a 16·256·N² byte stack per generator (4 MB at
N=32) and the temporaries of one QR slice or one word product, about
12.5 MB at N=32 with two generators (traced peak of 4096 samples on one
thread). The number of generators has no limit; N has the ceiling
MC_DIM_CEILING.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError, ValidationError
from ..matrixcore import SeededRng, _haar_fill, map_batches
from .words import ExpectationQuery

MC_DIM_CEILING = 128  # one sub-batch then holds 64 MB per generator


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


def _trace_product(stacks: dict[int, np.ndarray], query: ExpectationQuery) -> np.ndarray:
    """prod over the query's traces of tr(word), per sample of the stacks.

    Each class of rotations and inverses is multiplied once. The last
    letter closes the trace with an O(N^2) contraction instead of a matmul;
    a contiguous adjoint stack is made only for an adjoint letter before it.
    """
    batch = next(iter(stacks.values())).shape[0]
    adjoints: dict[int, np.ndarray] = {}

    def letter(s: int) -> np.ndarray:
        if s > 0:
            return stacks[s]
        if -s not in adjoints:
            adjoints[-s] = np.conjugate(np.swapaxes(stacks[-s], -1, -2), out=np.empty_like(stacks[-s]))
        return adjoints[-s]

    traces: dict[tuple[int, ...], np.ndarray] = {}
    values = np.ones(batch, dtype=complex)
    for word in query.traces:
        rep, conj = _representative(word)
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
    vals = np.empty(samples, dtype=complex)

    def sample(lo: int, hi: int, gen: np.random.Generator) -> None:
        stacks = {g: _haar_fill(np.empty((hi - lo, N, N), dtype=complex), gen) for g in gens}
        vals[lo:hi] = _trace_product(stacks, query)

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
