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

from .errors import ValidationError

# ---------------------------------------------------------------------------
# centralized tolerances

UNITARITY_TOL = 1e-10     # max-entry |U†U - 1|
WEIGHT_TOL = 1e-12        # probability weights: sum to 1, adjoint pairing
PAIRING_TOL = 1e-12       # entrywise |U(s + D/2) - U(s)†|
SPECTRAL_RADIUS_TOL = 1e-8
TRACE_RESIDUAL_TOL = 1e-8  # tracelessness of the second eigenvector
SLACK_TOL = 1e-8          # one-sided slack on the edge inequalities

# Matrices per task when per-matrix work is split across the CPUs. The
# tasks are cut from the item count alone, so the worker count never
# changes a value. At one BLAS thread count LAPACK and matmul give each
# matrix the same bits in any batch; einsum need not (at N=128 it rounds
# a one-matrix stack, which it reads as one flat array, differently).
_SUB_BATCH = 256

# Bytes of the stack `_haar_fill` hands to one np.linalg.qr call (16
# matrices at N=32, 64 at N=16, one from N=128), and of the slice of its
# last generator the Monte-Carlo sampler draws, orthonormalizes and traces
# at a time. The QR allocates three temporaries the size of its input: the
# copy it factors, Q and R. At 4 MB each (a whole N=32 sub-batch) glibc
# returns them at the heap top after every generator and faults them in
# again for the next. With 256 KB slices the four arrays stay in a 2 MB
# L2. Measured on a 2-CPU Xeon with OpenBLAS 0.3.31: one 256-matrix fill
# takes 22 ms at N=32 and 6.5 ms at N=16, against 28 and 7.2 ms unsliced.
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


def _haar_fill(z: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Overwrite the C-contiguous complex stack `z` with Haar unitaries
    drawn from `gen`, and return it.

    The normals go straight into `z`, real and imaginary parts
    interleaved, without the 1/sqrt(2): Q and its phase fix do not change
    when Z is scaled by a positive number.
    """
    gen.standard_normal(out=z.view(np.float64))
    step = _qr_slice_len(z.shape[-1])
    for lo in range(0, len(z), step):
        _phase_fixed_q(z[lo : lo + step], out=z[lo : lo + step])
    return z


def _qr_slice_len(n: int) -> int:
    """Complex n-by-n matrices in one `_QR_SLICE_BYTES` slice (at least one)."""
    return max(1, _QR_SLICE_BYTES // (16 * n * n))


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
    on `batch_workers(count)` threads (inline when that is 1), with BLAS on
    `batch_blas_threads()` threads.

    `gen` is the slice's own random stream: slice b gets child b of rng's
    generator, spawned on the calling thread before any call. A stream
    belongs to a slice, not to a thread, so what fn draws does not depend
    on the thread count or on the order the slices run in.

    For the whole call OpenBLAS runs on one thread, and its thread count is
    restored afterwards. The calls are the one level of threads: BLAS
    threads under them would contend with the pool for the CPUs, and a
    threaded zgemm or QR rounds differently from a serial one (at N=128
    with OpenBLAS 0.3.31, not at N=64), which would make fn's results
    depend on the BLAS setting.

    Each call must write only its own slice, and must not call a public
    function: the benchmark tracer wraps those with one span stack that all
    threads would share.
    """
    bounds = [(lo, min(lo + _SUB_BATCH, count)) for lo in range(0, count, _SUB_BATCH)]
    children = rng.generator.spawn(len(bounds))
    workers = batch_workers(count)
    with _one_blas_thread():
        if workers == 1:
            for (lo, hi), gen in zip(bounds, children):
                fn(lo, hi, gen)
            return
        # imported here: concurrent.futures pulls in logging, which would add
        # about 8 ms to every command's start-up
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(fn, *zip(*bounds), children))


def batch_blas_threads() -> int | None:
    """BLAS threads `map_batches` runs with: 1, or None when the loaded BLAS
    has no thread setter and keeps its own count."""
    return None if _blas_thread_calls() is None else 1


@functools.cache
def _blas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's (get, set) of its thread count, or None.

    The symbols are looked up in the library itself, under the plain names
    and the `64_`-suffixed and `scipy_openblas` ones numpy wheels export.
    """
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:  # no /proc outside Linux
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapping whose file is gone
            continue
        for prefix in ("openblas", "scipy_openblas"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
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
