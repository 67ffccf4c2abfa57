"""Dense complex matrix support: seeded sampling and Hilbert-Schmidt tools.

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

    def stream(self, index: int) -> "SeededRng":
        """Sibling stream with the same master seed."""
        return SeededRng(self.master_seed, index)


def complex_gaussian(
    rng: SeededRng,
    shape: tuple[int, ...],
    out: np.ndarray | None = None,
    draw: np.ndarray | None = None,
) -> np.ndarray:
    """I.i.d. standard complex Gaussians (variance 1 per complex entry).

    All real parts are drawn before all imaginary parts. `out` (complex)
    and `draw` (real) are optional C-contiguous buffers of `shape` to reuse;
    the result is written into `out` and is the same bit for bit either way.
    """
    z = np.empty(shape, dtype=complex) if out is None else out
    x = np.empty(shape) if draw is None else draw
    if z.shape != tuple(shape) or x.shape != tuple(shape):
        raise ValidationError(f"buffers {z.shape} and {x.shape} do not match {shape}")
    g = rng.generator
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


def haar_unitaries(
    n: int,
    count: int,
    rng: SeededRng,
    out: np.ndarray | None = None,
    draw: np.ndarray | None = None,
) -> np.ndarray:
    """A (count, n, n) stack of independent Haar unitaries.

    `out` and `draw` are optional (count, n, n) buffers that
    `complex_gaussian` reuses; the stack is written into `out`. The draws
    run on the calling thread and the phase-fixed QRs in sub-batches on
    every CPU, so a seed gives the same stack bit for bit whatever the
    buffers and the worker count.
    """
    if n < 1:
        raise ValidationError(f"invalid dimension n={n}; need n >= 1")
    if count < 1:
        raise ValidationError(f"invalid count={count}; need count >= 1")
    z = complex_gaussian(rng, (count, n, n), out=out, draw=draw)

    def fix(lo: int, hi: int) -> None:
        _phase_fixed_q(z[lo:hi], out=z[lo:hi])

    map_batches(fix, count)
    return z


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


def map_batches(fn: Callable[[int, int], object], count: int) -> None:
    """Call fn(lo, hi) on consecutive _SUB_BATCH slices of range(count), on
    `batch_workers(count)` threads (inline when that is 1).

    Each call must write only its own slice, and must not call a public
    function: the benchmark tracer wraps those with one span stack that all
    threads would share.
    """
    bounds = [(lo, min(lo + _SUB_BATCH, count)) for lo in range(0, count, _SUB_BATCH)]
    workers = batch_workers(count)
    if workers == 1:
        for lo, hi in bounds:
            fn(lo, hi)
        return
    # imported here: concurrent.futures pulls in logging, which would add
    # about 8 ms to every command's start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(fn, *zip(*bounds)))


def unitarity_residual(u: np.ndarray) -> float:
    """max-entry |U†U - 1|; 0 for an exact unitary."""
    n = u.shape[-1]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


def assert_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    res = unitarity_residual(u)
    if res > tol:
        raise ValidationError(f"matrix is not unitary: residual {res:.3e} > {tol:.1e}")


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(A†B)."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"shape mismatch: {a.shape} vs {b.shape}; need equal square shapes")
    # vdot conjugates its first argument and sums entrywise, which is tr(A†B)
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    return float(np.sqrt(hs_inner(a, a).real))
