"""Monte-Carlo oracle: estimate trace-product expectations by direct sampling.

Independent of the symbolic engine on purpose; the tests require both
routes to agree. Samples come in chunks of 2048: per chunk and generator,
`haar_unitaries` fills one reused (2048, N, N) stack, and the words are
then evaluated with batched matmuls. The per-matrix work (the phase-fixed
QRs and the word products) runs in sub-batches on one thread per CPU,
while every random draw stays on the calling thread in a fixed order. So
a seed gives the same estimate bit for bit on any number of CPUs. The
memory in use is the reused stacks, one sub-batch of temporaries per
thread and 16 bytes per sample: about 105 MB of numpy memory at N=32 with
two generators and two threads. Each further generator adds one complex
stack, 16·2048·N² bytes (34 MB at N=32); the number of generators has no
limit.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericalError, ValidationError
from ..matrixcore import SeededRng, batch_workers, haar_unitaries, map_batches
from .words import ExpectationQuery

_CHUNK = 2048  # fixes which normals go to which generator, so it never changes


def _batched_adjoint(u: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(u, -1, -2))


def _trace_product(stacks: dict[int, np.ndarray], query: ExpectationQuery) -> np.ndarray:
    chunk = next(iter(stacks.values())).shape[0]
    values = np.ones(chunk, dtype=complex)
    for word in query.traces:
        prod = None
        for s in word:
            mat = stacks[s] if s > 0 else _batched_adjoint(stacks[-s])
            prod = mat if prod is None else prod @ mat
        values *= np.einsum("kii->k", prod)
    return values


def monte_carlo_threads(query: ExpectationQuery, samples: int) -> int:
    """Threads `monte_carlo_expectation` splits its per-matrix work across
    for this query and sample count; 1 means the calling thread alone."""
    return 1 if query.is_empty else batch_workers(min(_CHUNK, samples))


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
    if query.is_empty:
        return 1.0, 0.0

    gens = sorted({abs(s) for t in query.traces for s in t})
    shape = (min(_CHUNK, samples), N, N)
    buffers = {g: np.empty(shape, dtype=complex) for g in gens}
    draw = np.empty(shape)
    vals = np.empty(samples, dtype=complex)
    for done in range(0, samples, _CHUNK):
        chunk = min(_CHUNK, samples - done)
        stacks = {g: haar_unitaries(N, chunk, rng, out=buffers[g][:chunk], draw=draw[:chunk]) for g in gens}
        out = vals[done : done + chunk]

        def products(lo: int, hi: int) -> None:
            out[lo:hi] = _trace_product({g: u[lo:hi] for g, u in stacks.items()}, query)

        map_batches(products, chunk)

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
