"""Serial Monte-Carlo sampler, independent of the threaded path in
qexpander.matrixcore and qexpander.sdengine.mc.

This is the plain recipe: the samples split into sub-batches of 256,
sub-batch b takes child stream b spawned from the seed, and generator i,
in sorted order, draws from child i spawned from that. Per sub-batch and
generator: each matrix's n(n+1)/2 complex Gaussians
(real and imaginary parts interleaved, unscaled, since no reflector sees
a positive scale), then Stewart's product of Householder reflectors
(Mezzadri, Notices AMS 54, 2007), each reflector built densely and
multiplied in, then every word multiplied out letter by letter on the
whole sub-batch. The package's Haar draws must match these within the
tolerance tests/test_mc.py states, and its estimates within MC_TOL,
whatever its worker count.
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
    """U = H_1 ... H_n diag(sign beta_k): H_k = I - tau_k v_k v_k^H takes
    x_k, the normals of row k onwards, to beta_k e_k (LAPACK's zlarfg).
    H_k is the identity outside rows and columns k..n, so only that block
    is built and multiplied."""
    x = gen.standard_normal((count, n * (n + 1) // 2, 2)).view(complex)[..., 0]
    u = np.empty((count, n, n), dtype=complex)
    u[:] = np.eye(n)
    signs = np.empty((count, n))
    start = 0
    for k in range(n):
        xk, start = x[:, start : start + n - k], start + n - k
        alpha = xk[:, 0]
        beta = -np.copysign(np.linalg.norm(xk, axis=1), alpha.real)
        tau = (beta - alpha) / beta
        v = np.concatenate([np.ones((count, 1)), xk[:, 1:] / (alpha - beta)[:, None]], axis=1)
        block = np.eye(n - k) - (tau[:, None] * v)[:, :, None] * v.conj()[:, None, :]
        u[:, :, k:] = u[:, :, k:] @ block
        signs[:, k] = np.sign(beta)
    return u * signs[:, None, :]


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
        stacks = {g: _haar(child, hi - lo, N) for g, child in zip(gens, gen.spawn(len(gens)))}
        vals[lo:hi] = trace_product(stacks, query)
    return float(vals.real.mean()), float(vals.real.std(ddof=1) / math.sqrt(samples))
