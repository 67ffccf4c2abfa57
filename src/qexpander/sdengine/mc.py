"""Monte-Carlo oracle: estimate trace-product expectations by direct sampling.

Independent of the symbolic engine on purpose; the tests require both
routes to agree. The samples split into sub-batches of 256. Sub-batch b
draws its unitaries from child stream b of the seed, spawned on the
calling thread, and one task does all of its work: for each generator in
sorted order, the draw and the phase-fixed QR into a (256, N, N) stack of
its own, then the words with batched matmuls. The tasks run on one thread
per CPU. A stream belongs to a sub-batch, not to a thread, so a seed gives
the same estimate bit for bit on any number of CPUs. Memory is one
sub-batch per thread plus 16 bytes per sample: a thread holds a
16·256·N² byte stack per generator (4 MB at N=32) and the temporaries of
one QR or one word product, about 21 MB at N=32 with two generators. The
number of generators has no limit; N has the ceiling MC_DIM_CEILING.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError, ValidationError
from ..matrixcore import SeededRng, _haar_fill, map_batches
from .words import ExpectationQuery

MC_DIM_CEILING = 128  # one sub-batch then holds 64 MB per generator


def _batched_adjoint(u: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(u, -1, -2))


def _trace_product(stacks: dict[int, np.ndarray], query: ExpectationQuery) -> np.ndarray:
    batch = next(iter(stacks.values())).shape[0]
    values = np.ones(batch, dtype=complex)
    for word in query.traces:
        prod = None
        for s in word:
            mat = stacks[s] if s > 0 else _batched_adjoint(stacks[-s])
            prod = mat if prod is None else prod @ mat
        values *= np.einsum("kii->k", prod)
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
