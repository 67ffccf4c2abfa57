"""Dense complex matrix support: seeded sampling and the unitarity residual.

Matrices are plain numpy arrays of dtype complex128. Every tolerance used
anywhere in the workbench lives here so there is a single place to audit.
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ValidationError

# ---------------------------------------------------------------------------
# centralized tolerances

UNITARITY_TOL = 1e-10     # max-entry |U†U - 1|
WEIGHT_TOL = 1e-12        # probability weights: sum to 1, adjoint pairing
PAIRING_TOL = 1e-12       # entrywise |U(s + D/2) - U(s)†|
SPECTRAL_RADIUS_TOL = 1e-8
TRACE_RESIDUAL_TOL = 1e-8  # tracelessness of the second eigenvector
SLACK_TOL = 1e-8          # one-sided slack on the edge inequalities

# Samples per Monte-Carlo sub-batch, cut from the sample count alone, so
# the worker count never changes a value. At one BLAS thread count LAPACK
# and matmul give each matrix the same bits in any batch; einsum need not
# (at N=128 it rounds a one-matrix stack, a flat array, differently).
_SUB_BATCH = 256

# Bytes of the stack `_HaarSampler` forms with one batched zungqr call
# (16 matrices at N=32, 64 at N=16, one from N=128), and of the slice of
# every generator the Monte-Carlo sampler draws, orthonormalizes and
# traces at a time. Per slice the sampler keeps the normals (about half a
# slice) and the reflectors (one slice) in buffers it reuses; the other
# temporaries hold one number per reflector, and zungqr's own work arrays
# one matrix. Measured on a 2-CPU Xeon with OpenBLAS 0.3.31 on one
# thread, median of 7 runs: one 256-matrix fill takes 4.8 ms at N=16,
# 17 ms at N=32 and 67 ms at N=64, against 7.5, 34 and 150 ms for the
# phase-fixed QR of a Gaussian stack in slices of the same size.
_QR_SLICE_BYTES = 256 * 2**10


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


class _HaarSampler:
    """Fills C-contiguous complex stacks of n-by-n Haar unitaries, one
    `_QR_SLICE_BYTES` slice at a time, on buffers it keeps for one slice.

    Stewart's product of reflectors (SIAM J. Numer. Anal. 17, 1980;
    Mezzadri, Notices AMS 54, 2007): U = H_1 ... H_n diag(sign beta_k),
    where H_k = I - tau_k v_k v_k^H is the Householder reflector, worked
    out as LAPACK's zlarfg does, that takes a fresh Gaussian vector x_k in
    C^(n-k+1) to beta_k e_1 on coordinates k..n. These are the reflectors
    the QR of a Ginibre matrix finds, so U has the law of the phase-fixed
    QR without a factorization, from n(n+1)/2 normals instead of n^2.

    Each matrix's normals are drawn in one run, x_1 to x_n, real and
    imaginary parts interleaved and without the 1/sqrt(2), which no
    reflector sees. A stack filled whole, slice by slice or one matrix at a
    time from one stream therefore gets the same bits. Each slice's
    products are formed by one call of the batched zungqr behind
    np.linalg.qr's Q, which runs without the GIL.

    An instance is used by one thread at a time.
    """

    def __init__(self, n: int) -> None:
        rows, cols = np.triu_indices(n)
        step = _qr_slice_len(n)
        self._n = n
        self._upper = rows * n + cols  # where x_k goes: row k of V, from column k
        self._heads = np.flatnonzero(rows == cols)  # where x_k starts in a matrix's normals
        self._normals = np.empty((step, len(rows)), dtype=complex)
        # zungqr reads reflector k below the diagonal of column k of V^T,
        # i.e. right of the diagonal of row k of V; left of it V stays 0
        self._reflectors = np.zeros((step, n, n), dtype=complex)

    def fill(self, z: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Overwrite `z`, of shape (count, n, n), with Haar unitaries drawn
        from `gen`, and return it."""
        n, step = self._n, len(self._normals)
        for lo in range(0, len(z), step):
            q = z[lo : lo + step]
            x, v = self._normals[: len(q)], self._reflectors[: len(q)]
            gen.standard_normal(out=x.view(np.float64))
            v.reshape(len(q), n * n)[:, self._upper] = x
            alpha = x[:, self._heads]
            squares = np.square(x.view(np.float64), out=x.view(np.float64))
            norm = np.sqrt(np.add.reduceat(squares, 2 * self._heads, axis=-1))
            beta = np.where(alpha.real >= 0, -norm, norm)
            v *= (1 / (alpha - beta))[..., None]
            _umath_linalg.qr_reduced(np.swapaxes(v, -1, -2), (beta - alpha) / beta, signature="DD->D", out=q)
            q *= np.sign(beta)[..., None, :]
        return z


def _qr_slice_len(n: int) -> int:
    """Complex n-by-n matrices in one `_QR_SLICE_BYTES` slice (at least one)."""
    return max(1, _QR_SLICE_BYTES // (16 * n * n))


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return np.divide(q, (d / np.abs(d))[..., None, :])


def worker_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def batch_workers(count: int) -> int:
    """Threads Monte-Carlo splits `count` samples across: one per CPU, at
    most one per sub-batch; 1 means the calling thread alone."""
    return max(1, min(worker_count(), -(-count // _SUB_BATCH)))


def batch_blas_threads() -> int | None:
    """BLAS threads Monte-Carlo samples with: 1, or None when the loaded
    BLAS has no thread setter and keeps its own count."""
    return None if _blas_thread_calls() is None else 1


@functools.cache
def _blas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's (get, set) of its thread count, or None."""
    found = _openblas_symbols("openblas_get_num_threads", "openblas_set_num_threads")
    if found is None:
        return None
    (get, put), _ = found
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def _openblas_libraries() -> tuple[ctypes.CDLL, ...]:
    """The OpenBLAS libraries mapped into this process (none outside Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc outside Linux
        return ()
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:  # a mapping whose file is gone
            continue
    return tuple(libs)


def _openblas_symbols(*names: str) -> tuple[list, type] | None:
    """The named functions of the loaded OpenBLAS and its LAPACK integer
    type, or None when no loaded library exports all of them.

    Each name is looked up plain and with the `64_` suffix and `scipy_`
    prefix that numpy's wheels use, all names under one spelling; the
    `64_` names take and return 64-bit LAPACK integers. The caller sets
    each function's argtypes.
    """
    for lib in _openblas_libraries():
        for prefix in ("", "scipy_"):
            for suffix, integer in (("", ctypes.c_int), ("64_", ctypes.c_int64)):
                funcs = [getattr(lib, f"{prefix}{name}{suffix}", None) for name in names]
                if None not in funcs:
                    return funcs, integer
    return None


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def unitarity_residual(u: np.ndarray) -> float:
    """max-entry |U†U - 1|; 0 for an exact unitary."""
    n = u.shape[-1]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))
