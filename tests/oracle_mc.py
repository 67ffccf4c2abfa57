"""Serial Monte-Carlo sampler, independent of the threaded path in
qexpander.matrixcore and qexpander.sdengine.mc.

This is the plain recipe: the samples split into sub-batches of 256, and
sub-batch b takes child stream b spawned from the seed. Per sub-batch and
generator, in sorted order: fresh complex Gaussians (real and imaginary
parts interleaved, unscaled, since the result does not change when Z is
scaled by a positive number), one stacked QR with the R-diagonal phase fix
(Mezzadri, Notices AMS 54, 2007), then every word multiplied out letter by
letter on the whole sub-batch. The package must reproduce its Haar draws
bit for bit, and its estimates within the tolerance tests/test_mc.py
states, whatever its worker count.
"""

from __future__ import annotations

import math

import numpy as np

from qexpander.matrixcore import SeededRng
from qexpander.sdengine import ExpectationQuery

SUB_BATCH = 256  # fixes which stream each sample is drawn from


def _sub_batches(count: int, rng: SeededRng):
    """(child stream, lo, hi) for each sub-batch of range(count)."""
    children = rng.generator.spawn(math.ceil(count / SUB_BATCH))
    return [(c, lo, min(lo + SUB_BATCH, count)) for c, lo in zip(children, range(0, count, SUB_BATCH))]


def _haar(gen: np.random.Generator, count: int, n: int) -> np.ndarray:
    z = gen.standard_normal((count, n, n, 2)).view(complex)[..., 0]
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q / (d / np.abs(d))[..., None, :]


def haar_stack(n: int, count: int, rng: SeededRng) -> np.ndarray:
    return np.concatenate([_haar(gen, hi - lo, n) for gen, lo, hi in _sub_batches(count, rng)])


def trace_product(stacks: dict[int, np.ndarray], query: ExpectationQuery) -> np.ndarray:
    batch = next(iter(stacks.values())).shape[0]
    values = np.ones(batch, dtype=complex)
    for word in query.traces:
        prod = None
        for s in word:
            mat = stacks[s] if s > 0 else np.conj(np.swapaxes(stacks[-s], -1, -2))
            prod = mat if prod is None else prod @ mat
        values *= np.einsum("kii->k", prod)
    return values


def expectation(query: ExpectationQuery, N: int, samples: int, rng: SeededRng) -> tuple[float, float]:
    """(mean, stderr) of the real part, as monte_carlo_expectation returns it."""
    gens = sorted({abs(s) for t in query.traces for s in t})
    vals = np.empty(samples, dtype=complex)
    for gen, lo, hi in _sub_batches(samples, rng):
        stacks = {g: _haar(gen, hi - lo, N) for g in gens}
        vals[lo:hi] = trace_product(stacks, query)
    return float(vals.real.mean()), float(vals.real.std(ddof=1) / math.sqrt(samples))
