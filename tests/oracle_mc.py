"""Serial Monte-Carlo sampler, independent of the buffered, threaded path in
qexpander.matrixcore and qexpander.sdengine.mc.

This is the plain recipe: per chunk and generator, fresh complex Gaussians
(all real parts drawn first, then all imaginary parts), one stacked QR with
the R-diagonal phase fix (Mezzadri, Notices AMS 54, 2007), then the words
multiplied on the whole chunk. The package must reproduce its estimates
bit for bit, whatever its worker count and sub-batch size.
"""

from __future__ import annotations

import math

import numpy as np

from qexpander.matrixcore import SeededRng
from qexpander.sdengine import ExpectationQuery

CHUNK = 2048  # fixes which normals go to which generator


def haar_stack(n: int, count: int, rng: SeededRng) -> np.ndarray:
    g = rng.generator
    shape = (count, n, n)
    z = (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q / (d / np.abs(d))[..., None, :]


def trace_product(stacks: dict[int, np.ndarray], query: ExpectationQuery) -> np.ndarray:
    chunk = next(iter(stacks.values())).shape[0]
    values = np.ones(chunk, dtype=complex)
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
    done = 0
    while done < samples:
        chunk = min(CHUNK, samples - done)
        stacks = {g: haar_stack(N, chunk, rng) for g in gens}
        vals[done : done + chunk] = trace_product(stacks, query)
        done += chunk
    return float(vals.real.mean()), float(vals.real.std(ddof=1) / math.sqrt(samples))
