"""Dense complex matrix support: seeded sampling and the unitarity residual.

Matrices are plain numpy arrays of dtype complex128. Every tolerance used
anywhere in the workbench lives here so there is a single place to audit.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError

# ---------------------------------------------------------------------------
# centralized tolerances

UNITARITY_TOL = 1e-10     # max-entry |U†U - 1|
WEIGHT_TOL = 1e-12        # probability weights: sum to 1, adjoint pairing
PAIRING_TOL = 1e-12       # entrywise |U(s + D/2) - U(s)†|
SPECTRAL_RADIUS_TOL = 1e-8
TRACE_RESIDUAL_TOL = 1e-8  # tracelessness of the second eigenvector
SLACK_TOL = 1e-8          # one-sided slack on the edge inequalities

# Matrices per task when per-matrix work is split across the CPUs. LAPACK,
# matmul and einsum give each matrix a result that does not depend on the
# batch it is in, so this size and the worker count never change a value.
_SUB_BATCH = 256


@dataclass(frozen=True)
class SeededRng:
    """A reproducible random stream: (master_seed, stream_index).

    Equal field values reproduce identical sample sequences bit-exactly.
    Parallel trials each own their own stream_index; streams derived from
    one master seed are statistically independent.
    """

    master_seed: int
    stream_index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.master_seed, self.stream_index) < 0:
            raise ValidationError(f"seeds must be >= 0, got ({self.master_seed}, {self.stream_index})")
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        object.__setattr__(self, "_gen", np.random.default_rng(seq))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def complex_gaussian(rng: SeededRng, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard complex Gaussians (variance 1 per complex entry).

    All real parts are drawn before all imaginary parts.
    """
    g = rng.generator
    z = np.empty(shape, dtype=complex)
    x = np.empty(shape)
    g.standard_normal(out=x)
    z.real = x
    g.standard_normal(out=x)
    z.imag = x
    return np.divide(z, np.sqrt(2.0), out=z)


def haar_unitary(n: int, rng: SeededRng) -> np.ndarray:
    """One n-by-n unitary drawn from the Haar measure.

    QR of a complex Ginibre matrix, with column j of Q divided by the phase
    of R_jj; plain QR alone is not Haar distributed.
    """
    if n < 1:
        raise ValidationError(f"invalid dimension n={n}; need n >= 1")
    return _phase_fixed_q(complex_gaussian(rng, (n, n)))


def _haar_fill(z: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Overwrite the C-contiguous complex stack `z` with Haar unitaries
    drawn from `gen`, and return it.

    The normals go straight into `z`, real and imaginary parts
    interleaved, without the 1/sqrt(2): Q and its phase fix do not change
    when Z is scaled by a positive number.
    """
    gen.standard_normal(out=z.view(np.float64))
    return _phase_fixed_q(z, out=z)


def _phase_fixed_q(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return np.divide(q, (d / np.abs(d))[..., None, :], out=out)


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def batch_workers(count: int) -> int:
    """Threads `map_batches` splits `count` items across: one per CPU, at
    most one per sub-batch; 1 means the calling thread alone."""
    return max(1, min(worker_count(), -(-count // _SUB_BATCH)))


def map_batches(fn: Callable[[int, int, np.random.Generator], object], count: int, rng: SeededRng) -> None:
    """Call fn(lo, hi, gen) on consecutive _SUB_BATCH slices of range(count),
    on `batch_workers(count)` threads (inline when that is 1).

    `gen` is the slice's own random stream: slice b gets child b of rng's
    generator, spawned on the calling thread before any call. A stream
    belongs to a slice, not to a thread, so what fn draws does not depend
    on the thread count or on the order the slices run in.

    Each call must write only its own slice, and must not call a public
    function: the benchmark tracer wraps those with one span stack that all
    threads would share.
    """
    bounds = [(lo, min(lo + _SUB_BATCH, count)) for lo in range(0, count, _SUB_BATCH)]
    children = rng.generator.spawn(len(bounds))
    workers = batch_workers(count)
    if workers == 1:
        for (lo, hi), gen in zip(bounds, children):
            fn(lo, hi, gen)
        return
    # imported here: concurrent.futures pulls in logging, which would add
    # about 8 ms to every command's start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fn, *zip(*bounds), children))


def unitarity_residual(u: np.ndarray) -> float:
    """max-entry |U†U - 1|; 0 for an exact unitary."""
    n = u.shape[-1]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
