"""Superoperator view of a channel: spectrum, second eigenvalue, moments.

Conventions fixed here once:

- every spectral computation runs on the real N^2 x N^2 matrix R of E in
  an orthonormal basis of Hermitian matrices: first N diagonal matrices
  B_a = diag(H[a]), where H is the orthogonal Householder reflector whose
  first row is (1, ..., 1)/sqrt(N), so B_0 = I/sqrt(N); then
  (E_jk + E_kj)/sqrt(2) for j < k, then i(E_jk - E_kj)/sqrt(2) for j < k
  (pairs in np.triu_indices order), with R_ab = tr(B_a E(B_b)). E maps
  Hermitian matrices to Hermitian matrices, so R is real; it is
  symmetric for a Hermitian channel. The coordinates of a Hermitian M are
  c(M)_a = tr(B_a M), so R c(M) = c(E(M)).
- every channel here is unital and trace preserving, so I/sqrt(N) is an
  eigenvector with eigenvalue 1 and the traceless matrices are invariant:
  R = [[R_00, 0], [0, R']] with R_00 = 1, up to rounding. The unit
  eigenvalue is R_00, and the second eigenvalue lambda2 is the largest
  modulus among the eigenvalues of the traceless block R' = R[1:, 1:].
- one builder, _image_coords, writes R^T into its own N^2 x N^2
  mapping, row b being c(E(B_b)) from all D Kraus terms. A Hermitian R
  is symmetric, so of its rows past N only the tails are written (about
  4N^4 bytes and page waste), the lower triangle of R read column-major;
  a general R writes all 8N^4 bytes. eigen_spectrum solves R' densely
  for every eigenvalue in that mapping: the loaded OpenBLAS's
  LAPACKE_dsyevd (lower triangle) or LAPACKE_dgeev overwrites R' where
  it stands (column-major with leading dimension N^2 from &R^T[1, 1],
  the matrix np.linalg would have copied R' into), so the eigenvalues
  are the bits np.linalg gives. Where no LAPACKE symbols are found
  (another BLAS), np.linalg solves a copy of R'.
  One Krylov solve (_krylov, Arnoldi matrix-free through `apply`) serves
  both lambda2 entry points and differs only in its Ritz step:
  lanczos_lambda2 takes the extremes of R' for a Hermitian channel, and
  with them the top eigenvector; arnoldi_lambda2 takes the largest
  modulus for any channel.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
import mmap
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .channel import DEFAULT_DIM_CEILING, Channel, apply
from .errors import NumericalError, ValidationError
from .matrixcore import SPECTRAL_RADIUS_TOL, _openblas_symbols

KRYLOV_TOL = 1e-12  # stop once the Ritz residual estimate is below
KRYLOV_FIRST_CHECK = 20  # Krylov steps before the first solve of H
KRYLOV_BUDGET_SCALE = 16  # step limit per unit of N above DEFAULT_DIM_CEILING
_CHUNK_BYTES = 120 * 1024  # bound on each Kraus sum of the R build: under glibc's 128 KiB mmap threshold
_ZGEMM_ALIGN = 8  # a multiple of the column blocks of OpenBLAS's zgemm kernels
_LAPACK_COL_MAJOR = 102  # LAPACKE's matrix_layout for column-major arrays


def _diagonal_basis(n: int) -> np.ndarray:
    """H, whose row a is the diagonal of B_a: the Householder reflector
    I - 2 v v^T / (v^T v) with v = e_0 - (1, ..., 1)/sqrt(N), symmetric and
    orthogonal with first row (1, ..., 1)/sqrt(N). At N = 1, H = I."""
    v = np.full(n, -1.0 / math.sqrt(n))
    v[0] += 1.0
    h = np.eye(n)
    if n > 1:
        h -= (2.0 / (v @ v)) * np.outer(v, v)
    return h


class _Basis:
    """The basis B at one N: coordinates c(M) of Hermitian matrices and
    the matrices sum_a c_a B_a, for one matrix or a stack."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.h = _diagonal_basis(n)
        iu, ju = np.triu_indices(n, 1)
        # flat positions in an N x N matrix: the diagonal, then (j, k) and (k, j) for j < k
        self.diag, self.upper, self.lower = np.arange(n) * (n + 1), iu * n + ju, ju * n + iu

    def matrix(self, c: np.ndarray) -> np.ndarray:
        n, pairs = self.n, self.upper.size
        m = np.zeros(c.shape[:-1] + (n * n,), dtype=complex)
        m[..., self.diag] = c[..., :n] @ self.h  # H is symmetric
        off = (c[..., n : n + pairs] + 1j * c[..., n + pairs :]) / math.sqrt(2.0)
        m[..., self.upper] = off
        m[..., self.lower] = off.conj()
        return m.reshape(c.shape[:-1] + (n, n))

    def coords(self, m: np.ndarray) -> np.ndarray:
        flat = m.reshape(m.shape[:-2] + (self.n * self.n,))
        off = math.sqrt(2.0) * flat[..., self.upper]
        return np.concatenate([flat[..., self.diag].real @ self.h, off.real, off.imag], axis=-1)


def _mapped_zeros(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of zeros in its own anonymous mapping of 4 KB pages,
    unmapped with the array; a page is resident once written. numpy's own
    arrays of 4 MB or more ask for 2 MB hugepages, which a half-written R
    would fault in whole, and smaller ones come from a heap whose state
    earlier commands left. A failed mapping raises MemoryError."""
    size = math.prod(shape) * 8
    try:
        buf = mmap.mmap(-1, size)
    except OSError as exc:
        raise MemoryError(f"cannot map {size} bytes: {exc}") from exc
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(shape)


def _image_rows(channel: Channel) -> Iterator[tuple[int, np.ndarray]]:
    """The rows of R^T before H mixes the first N rows and columns (row b
    is c(E(B_b)) with H = I), as (first row, block) pairs of consecutive
    rows, from all D Kraus terms.

    One Kraus sum per input row j and slice of k >= j gives Y_k = E(E_jk)
    for the slice at once, since E(E_jk)[p, q] = sum_s P(s) conj(U_s[j, p])
    U_s[k, q]. With E(E_kj) = E(E_jk)†, the images of the basis elements
    built from E_jk are sqrt(2) Herm(Y_k) and sqrt(2) Herm(i Y_k), where
    Herm(Y) = (Y + Y†)/2, and E(E_jj) = Herm(Y_j); this measured 1.4-1.6x
    faster at N=30 to 64 than `_Basis.coords` of each image. A slice holds
    under _CHUNK_BYTES of Y, so every temporary comes from the heap at any
    mmap threshold glibc has reached.
    """
    unitaries, n, d = channel.unitaries, channel.dim, channel.kraus_count
    iu, ju = np.triu_indices(n, 1)
    pairs = iu.size
    root2 = math.sqrt(2.0)
    # flat positions in Y_k of its diagonal, then of (j, k) and of (k, j) for j < k
    flat = np.concatenate([np.arange(n) * (n + 1), iu * n + ju, ju * n + iu])
    step = max(1, (_CHUNK_BYTES // (16 * n) - 2 * _ZGEMM_ALIGN) // n)  # values of k per Kraus sum
    first = 0  # index of pair (j, j + 1) in triu order
    for j in range(n):
        a = channel.weights[:, None] * unitaries[:, j, :].conj()
        b = unitaries[:, j:, :].reshape(d, -1)
        for k in range(j, n, step):
            stop = min(k + step, n)
            lo, hi = (k - j) * n, (stop - j) * n
            # product columns from and to multiples of _ZGEMM_ALIGN (or the end), so
            # that each column meets the zgemm kernel it meets in the one-piece product
            lo_al, hi_al = lo - lo % _ZGEMM_ALIGN, min(-(-hi // _ZGEMM_ALIGN) * _ZGEMM_ALIGN, b.shape[1])
            y = (a.T @ b[:, lo_al:hi_al])[:, lo - lo_al : hi - lo_al]
            y = np.ascontiguousarray(y.reshape(n, stop - k, n).transpose(1, 0, 2)).reshape(stop - k, -1)
            y = np.take(y, flat, axis=1)
            yd, yu, yl = y[:, :n], y[:, n : n + pairs], y[:, n + pairs :]
            # sqrt(2) c(Herm(Y_k)) and sqrt(2) c(Herm(i Y_k)), one row per k in the slice
            sym = np.concatenate([root2 * yd.real, yu.real + yl.real, yu.imag - yl.imag], axis=1)
            anti = np.concatenate([-root2 * yd.imag, -(yu.imag + yl.imag), yu.real - yl.real], axis=1)
            if k == j:
                yield j, sym[:1] / root2
                sym, anti = sym[1:], anti[1:]
            pair = first + max(k, j + 1) - j - 1  # of (j, k) for the slice's first k > j
            yield n + pair, sym
            yield n + pairs + pair, anti
        first += n - 1 - j


def _image_coords(channel: Channel) -> np.ndarray:
    """rt = R^T, C-ordered in its own mapping: row b is c(E(B_b)), so
    read column-major with leading dimension N^2, rt is R.

    A Hermitian R is symmetric, and of its rows b >= N only the tails
    rt[b, b:] = R[b:, b] are written: read column-major, the lower
    triangle LAPACK reads. The other half is never written, so never
    resident. R's first N rows and columns carry H: H rt H in N-wide
    strips, of which a Hermitian R, with no heads past row N, needs only
    the first column strip.
    """
    n = channel.dim
    rt = _mapped_zeros((n * n, n * n))
    for row, block in _image_rows(channel):
        if channel.hermitian and row >= n:
            for b, image in enumerate(block, start=row):
                rt[b, b:] = image[b:]
        else:
            rt[row : row + len(block)] = block
    h = _diagonal_basis(n)
    for k in range(0, n * n, n):  # H rt H in N-wide strips: no N x N^2 temporary
        rt[:n, k : k + n] = h @ rt[:n, k : k + n]
        if k == 0 or not channel.hermitian:
            rt[k : k + n, :n] = rt[k : k + n, :n] @ h
    return rt


def real_superoperator(channel: Channel) -> np.ndarray:
    """R, the real N^2 x N^2 matrix of E in the Hermitian basis B, in one
    8N^4-byte mapping (50 MB at N=50): the Fortran-ordered transpose of
    _image_coords, whose row tails a Hermitian R mirrors onto the heads,
    so that R is exactly symmetric."""
    rt = _image_coords(channel)
    if channel.hermitian:
        for b in range(rt.shape[0] - 1):
            rt[b + 1 :, b] = rt[b, b + 1 :]
    return rt.T


@dataclass(frozen=True, eq=False)
class SuperopSpectrum:
    """All N^2 eigenvalues plus the second-eigenvalue extraction metadata."""

    dim: int
    eigenvalues: np.ndarray  # sorted: descending real part (hermitian) or modulus
    hermitian: bool
    lambda2: float
    unit_eigvec_residual: float  # max |R[:, 0] - e_0|
    removed_eigenvalue: complex  # R_00, the unit eigenvalue of I/sqrt(N)
    spectral_radius: float
    solver: str  # "lapack": R' solved in place; "numpy": np.linalg on a copy of R'
    stage_s: dict[str, float]  # wall seconds: "build" (R) and "solve" (R')

    def __post_init__(self) -> None:
        if self.eigenvalues.shape != (self.dim * self.dim,):
            raise ValidationError(
                f"expected {self.dim * self.dim} eigenvalues, got {self.eigenvalues.shape}"
            )


def eigen_spectrum(channel: Channel) -> SuperopSpectrum:
    """Dense eigendecomposition of the traceless block R' = R[1:, 1:].

    Symmetric (dsyevd) for a Hermitian channel, general (dgeev)
    otherwise; the spectrum is R_00 together with the eigenvalues of R'.
    R is built once, as its C-ordered transpose rt (_image_coords), and R'
    is solved inside it (see _traceless_eigenvalues): a Hermitian R is
    only its row tails (35 MB resident at N=50), a general R all of its
    8N^4 bytes. R_00 = rt[0, 0] and column 0 of R, rt[0], are read
    before the solve overwrites R'.
    """
    n = channel.dim
    start = time.perf_counter()
    rt = _image_coords(channel)
    built = time.perf_counter()
    removed = complex(rt[0, 0])
    residual = float(np.max(np.abs(rt[0] - np.eye(1, n * n)[0])))  # R[:, 0] against e_0
    rest, solver = _traceless_eigenvalues(rt, channel)
    solved = time.perf_counter()

    eigs = np.concatenate([[removed], rest.astype(complex)])
    key = -eigs.real if channel.hermitian else -np.abs(eigs)
    eigs = eigs[np.argsort(key, kind="stable")]

    radius = float(np.max(np.abs(eigs)))
    if radius > 1.0 + SPECTRAL_RADIUS_TOL:
        raise NumericalError(
            f"spectral radius {radius!r} exceeds 1 (channel seed {channel.seed})"
        )
    lam2 = float(np.max(np.abs(rest))) if rest.size else 0.0

    return SuperopSpectrum(
        dim=n,
        eigenvalues=eigs,
        hermitian=channel.hermitian,
        lambda2=lam2,
        unit_eigvec_residual=residual,
        removed_eigenvalue=removed,
        spectral_radius=radius,
        solver=solver,
        stage_s={"build": built - start, "solve": solved - built},
    )


@functools.cache
def _lapacke_eigensolvers() -> tuple[Callable[..., int], Callable[..., int]] | None:
    """LAPACKE_dsyevd and LAPACKE_dgeev of the loaded OpenBLAS, or None."""
    found = _openblas_symbols("LAPACKE_dsyevd", "LAPACKE_dgeev")
    if found is None:
        return None
    (syevd, geev), lapack_int = found
    ptr, char = ctypes.c_void_p, ctypes.c_char
    syevd.argtypes = [ctypes.c_int, char, char, lapack_int, ptr, lapack_int, ptr]
    geev.argtypes = [ctypes.c_int, char, char, lapack_int, ptr, lapack_int, ptr, ptr] + [ptr, lapack_int] * 2
    syevd.restype = geev.restype = lapack_int
    return syevd, geev


def _traceless_eigenvalues(rt: np.ndarray, channel: Channel) -> tuple[np.ndarray, str]:
    """The eigenvalues of R' = R[1:, 1:] and the solver that found them,
    "lapack" or "numpy", from rt = R^T as _image_coords builds it. The
    "lapack" solve destroys R'.

    LAPACKE_dsyevd (no vectors, lower triangle) or LAPACKE_dgeev (no
    vectors) runs column-major on the m x m matrix at &rt[1, 1] with
    leading dimension N^2 = m + 1, which is R'; a Hermitian R holds its
    lower triangle, rt's row tails. LAPACK sees what np.linalg.eigvalsh or
    eigvals would copy R' into, and LAPACKE queries the same optimal
    workspace, so the eigenvalues carry the same bits. As
    np.linalg.eigvals does, real output is returned when no eigenvalue has
    an imaginary part. Without the LAPACKE pair, np.linalg solves
    R' = rt[1:, 1:].T.
    """
    lapack = _lapacke_eigensolvers()
    if lapack is None:
        block = rt[1:, 1:].T
        try:
            rest = np.linalg.eigvalsh(block) if channel.hermitian else np.linalg.eigvals(block)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigensolver failed to converge (channel seed {channel.seed}): {exc}"
            ) from exc
        return rest, "numpy"
    syevd, geev = lapack
    if rt.dtype != np.float64 or not rt.flags.c_contiguous:
        raise ValueError("R^T must be float64 in C order")
    m = rt.shape[0] - 1
    corner = rt.ctypes.data + (m + 2) * rt.itemsize  # &rt[1, 1]
    wr = np.empty(m)
    if channel.hermitian:
        info = syevd(_LAPACK_COL_MAJOR, b"N", b"L", m, corner, m + 1, wr.ctypes.data)
        rest = wr
    else:
        wi = np.empty(m)
        no_vectors = (None, 1, None, 1)  # VL, LDVL, VR, LDVR
        info = geev(_LAPACK_COL_MAJOR, b"N", b"N", m, corner, m + 1, wr.ctypes.data, wi.ctypes.data, *no_vectors)
        rest = wr
        if wi.any():
            rest = np.empty(m, dtype=complex)
            rest.real, rest.imag = wr, wi
    if info != 0:
        raise NumericalError(
            f"eigensolver failed to converge (channel seed {channel.seed}): LAPACK info {info}"
        )
    return rest, "lapack"


def _traceless_operator(channel: Channel) -> tuple[_Basis, Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """R' in the coordinates of B, applied through `apply` with no N^2 x N^2
    array, and the unit start vector of the Krylov solve: a fixed
    Gaussian vector, so a solve draws nothing from any stream. Coordinate
    0, the I/sqrt(N) direction, is 0 in the start vector and in every
    image, so the solve never leaves the traceless block."""
    n = channel.dim
    if n < 2:
        raise ValidationError("lambda2 needs N >= 2")
    basis = _Basis(n)

    def op(c: np.ndarray) -> np.ndarray:
        w = basis.coords(apply(channel, basis.matrix(c)))
        w[..., 0] = 0.0  # R' = R[1:, 1:]: drop the I/sqrt(N) coordinate
        return w

    start = np.zeros(n * n)
    gauss = np.random.default_rng(0).standard_normal(n * n - 1)
    start[1:] = gauss / np.linalg.norm(gauss)
    return basis, op, start


def _krylov(
    channel: Channel, symmetric: bool
) -> tuple[_Basis, np.ndarray, int, float, tuple[float, complex, float | None, np.ndarray]]:
    """The Krylov solve behind lanczos_lambda2 (symmetric) and
    arnoldi_lambda2.

    Unrestarted Arnoldi (Saad, *Numerical Methods for Large Eigenvalue
    Problems*, SIAM 2011, ch. 6) on R' in the coordinates of B: each step
    applies the channel once to one N x N matrix, orthogonalizes the image
    against the stored basis by classical Gram-Schmidt, repeated only when
    the first pass cancelled much of it (Daniel, Gragg, Kaufman and
    Stewart 1976), and stores the coefficients in the Hessenberg matrix H.
    On R' of a Hermitian channel this is Lanczos with full
    reorthogonalization. At the steps _next_check picks, _ritz_step solves
    H, and the solve stops once the residual estimate is <= KRYLOV_TOL or
    the Krylov space is invariant.

    The step limit is N^2 - 1, the traceless dimension, up to N =
    DEFAULT_DIM_CEILING, and KRYLOV_BUDGET_SCALE N above it; a solve
    still above KRYLOV_TOL at the limit raises NumericalError. Returns
    the basis B, the Krylov vectors, the step count, the last estimate
    and _ritz_step's (lambda2, theta, theta_min, y).
    """
    n = channel.dim
    basis, op, start = _traceless_operator(channel)
    # the estimate reaches KRYLOV_TOL after about 10N steps on uniform
    # general channels with D=4 or 6 (261 to 298 at N=30, 1216 to 1281 at
    # N=128) and 12N with D=2 (1530 at N=128); Hermitian channels with
    # D=4 take 170 to 211 at N=30, weighted ones with a small pair weight
    # up to 26N (1681 at N=64). q and h are mapped, so a solve makes
    # resident only the rows it reaches: at N=64 each maps 134 MB, and at
    # N=128 the basis maps 268 MB, where one run to the limit peaked at
    # 531 MB RSS
    limit = n * n - 1 if n <= DEFAULT_DIM_CEILING else KRYLOV_BUDGET_SCALE * n
    q = _mapped_zeros((limit, n * n))  # the Krylov basis, coordinate 0 kept at 0
    q[0] = start
    h = _mapped_zeros((limit + 1, limit))
    k, check, last = 0, KRYLOV_FIRST_CHECK, None
    while True:
        w = op(q[k])
        before = np.linalg.norm(w)
        c = q[: k + 1] @ w
        w -= q[: k + 1].T @ c
        b = float(np.linalg.norm(w))
        if b < 0.5 * before:
            again = q[: k + 1] @ w
            w -= q[: k + 1].T @ again
            c += again
            b = float(np.linalg.norm(w))
        h[: k + 1, k] = c
        h[k + 1, k] = b
        k += 1
        if k == check or k == limit or b <= KRYLOV_TOL:
            estimate, ritz = _ritz_step(h[:k, :k], b, symmetric, channel)
            if estimate <= KRYLOV_TOL:
                break
            if k == limit:
                raise NumericalError(
                    f"{'Lanczos' if symmetric else 'Arnoldi'} did not converge in {k} steps "
                    f"at N={n} (residual estimate {estimate:.1e} > {KRYLOV_TOL:.0e})"
                )
            check, last = _next_check(k, estimate, last), (k, estimate)
        q[k] = w / b
    return basis, q[:k], k, estimate, ritz


def _ritz_step(
    hk: np.ndarray, b: float, symmetric: bool, channel: Channel
) -> tuple[float, tuple[float, complex, float | None, np.ndarray]]:
    """The residual estimate and (lambda2, theta, theta_min, y) from the
    k x k Hessenberg matrix, y the unit eigenvector of theta.

    Symmetric: eigh of H's lower triangle, which is the tridiagonal T
    (above it H holds only reorthogonalization rounding); theta and
    theta_min are the largest and smallest eigenvalues, lambda2 the larger
    of their moduli, and the estimate the larger of the two extremes'
    b |e_k^T y|. Otherwise: eig of H; theta is the largest-modulus
    eigenvalue, lambda2 = |theta|, theta_min None, and the estimate
    b |e_k^T y|.
    """
    try:
        if symmetric:
            vals, vecs = np.linalg.eigh(hk, UPLO="L")
            estimate = b * max(abs(vecs[-1, 0]), abs(vecs[-1, -1]))
            lam2 = max(abs(vals[0]), abs(vals[-1]))
            return float(estimate), (float(lam2), float(vals[-1]), float(vals[0]), vecs[:, -1])
        vals, vecs = np.linalg.eig(hk)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Ritz solve failed (channel seed {channel.seed}): {exc}") from exc
    i = int(np.argmax(np.abs(vals)))
    return b * float(abs(vecs[-1, i])), (float(abs(vals[i])), vals[i], None, vecs[:, i])


@dataclass(frozen=True, eq=False)
class TopEigenpair:
    """The extremes of the traceless block R' of a Hermitian channel."""

    lambda2: float  # max(|theta_max|, |theta_min|)
    theta: float  # theta_max, the largest eigenvalue of R'
    theta_min: float  # the smallest eigenvalue of R'
    vector: np.ndarray  # unit-norm traceless Hermitian eigenvector X of theta
    steps: int  # Lanczos steps, one `apply` each
    residual: float  # Hilbert-Schmidt norm of E(X) - theta X


def lanczos_lambda2(channel: Channel) -> TopEigenpair:
    """lambda2 and the top eigenpair of R' for a Hermitian channel, matrix-free.

    The Krylov solve (_krylov) with the symmetric Ritz step: on R' of a
    Hermitian channel it is Lanczos with full reorthogonalization
    (Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998, ch. 13), and
    it stops once both extreme Ritz pairs have residual estimates
    <= KRYLOV_TOL, or raises NumericalError at _krylov's step limit. The
    eigenvector is signed so that its largest-magnitude coordinate is
    positive, which makes the pair a function of the channel alone.
    """
    if not channel.hermitian:
        raise ValidationError("the Lanczos solve applies to hermitian channels")
    basis, q, steps, _, (lam2, theta, theta_min, y) = _krylov(channel, symmetric=True)
    if lam2 > 1.0 + SPECTRAL_RADIUS_TOL:
        raise NumericalError(f"lambda2 {lam2!r} exceeds 1 (channel seed {channel.seed})")
    # a strided y takes another BLAS kernel with another summation order:
    # copy it, so that x depends on y's values alone, not on its layout
    x = q.T @ np.ascontiguousarray(y)
    if x[np.argmax(np.abs(x))] < 0.0:
        x = -x
    vector = basis.matrix(x)
    return TopEigenpair(
        lambda2=lam2,
        theta=theta,
        theta_min=theta_min,
        vector=vector,
        steps=steps,
        residual=float(np.linalg.norm(apply(channel, vector) - theta * vector)),
    )


@dataclass(frozen=True, eq=False)
class DominantEigenvalue:
    """The largest-modulus eigenvalue of the traceless block R' of any channel."""

    lambda2: float  # its modulus
    steps: int  # Arnoldi steps, one `apply` each
    estimate: float  # Ritz residual estimate h_{k+1,k} |e_k^T y| at the last check


def arnoldi_lambda2(channel: Channel) -> DominantEigenvalue:
    """lambda2 of any channel, matrix-free.

    The Krylov solve (_krylov) with the general Ritz step: it stops once
    the largest-modulus Ritz value theta has residual estimate
    <= KRYLOV_TOL, or raises NumericalError at _krylov's step limit, and
    lambda2 is |theta|.
    """
    _, _, steps, estimate, (lam2, _, _, _) = _krylov(channel, symmetric=False)
    if lam2 > 1.0 + SPECTRAL_RADIUS_TOL:
        raise NumericalError(f"lambda2 {lam2!r} exceeds 1 (channel seed {channel.seed})")
    return DominantEigenvalue(lambda2=lam2, steps=steps, estimate=estimate)


def _next_check(k: int, estimate: float, last: tuple[int, float] | None) -> int:
    """The step of the next Ritz check after the one at step k.

    Three quarters of the way to where the log-linear decay of the
    estimate since the last check reaches KRYLOV_TOL, but at least k/16
    and at most k steps on (k when the estimate did not fall). The decay
    speeds up as the Ritz value converges, so the extrapolation runs
    long: on ten channels at N=20 to 50, three quarters of it gave the
    checks a tenth less cost and half the overshoot of the full distance
    (BENCH_arnoldi.json). Each check solves H in O(k^3), and the checks
    are at least 17/16 apart in k, so all of them cost at most
    1/(1 - (16/17)^3), about 5.9, times the last one.
    """
    ahead = k
    if last is not None and estimate < last[1]:
        rate = math.log(last[1] / estimate) / (k - last[0])  # e-folds per step
        ahead = min(k, math.ceil(0.75 * math.log(estimate / KRYLOV_TOL) / rate))
    return k + max(ahead, math.ceil(k / 16))


@dataclass(frozen=True)
class MomentRow:
    """The moments of order m, read off one power R^m."""

    m: int
    moment_trace: float | None  # tr(R^m); Hermitian channels at even m only
    frobenius_moment: float  # tr((R^T)^m R^m)

    @property
    def lambda2_estimate(self) -> float | None:
        if self.moment_trace is None:
            return None
        return _lambda2_from_moment(self.moment_trace, self.m)


def moment_table(channel: Channel, orders) -> list[MomentRow]:
    """One row per order, from a single walk R, R^2, ..., R^max(orders).

    R is built once and each further power costs one dense product. B is
    orthonormal, so traces and Frobenius norms of the powers of R are
    those of the channel's matrix in any orthonormal basis.
    """
    for m in orders:
        if m < 1:
            raise ValidationError(f"moment order must be >= 1, got {m}")
    wanted = set(orders)
    rows: dict[int, MomentRow] = {}
    r = real_superoperator(channel)
    power = r
    for m in range(1, max(wanted, default=0) + 1):
        if m > 1:
            power = power @ r
        if m in wanted:
            trace_route = channel.hermitian and m % 2 == 0
            rows[m] = MomentRow(
                m=m,
                moment_trace=float(np.trace(power).real) if trace_route else None,
                frobenius_moment=float(np.linalg.norm(power, "fro") ** 2),
            )
    return [rows[m] for m in orders]


def _lambda2_from_moment(moment: float, m: int) -> float:
    if moment <= 1.0:
        raise NumericalError(f"moment {moment!r} <= 1 leaves the estimate undefined")
    return float((moment - 1.0) ** (1.0 / m))


@dataclass(frozen=True)
class BenchmarkConstants:
    D: int
    lambda_H: float
    lambda_nH: float


def benchmark_values(D: int) -> BenchmarkConstants:
    """Closed-form gap benchmarks: 2 sqrt(D-1)/D and 1/sqrt(D)."""
    if D < 2:
        raise ValidationError(f"need D >= 2, got D={D}")
    return BenchmarkConstants(
        D=D,
        lambda_H=2.0 * math.sqrt(D - 1.0) / D,
        lambda_nH=1.0 / math.sqrt(D),
    )


def write_spectrum_csv(spectrum: SuperopSpectrum, path) -> None:
    """Rows rank,a_over_N2,eig_re,eig_im,eig_abs in the module's sort order."""
    n2 = spectrum.dim * spectrum.dim
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "a_over_N2", "eig_re", "eig_im", "eig_abs"])
        for a, eig in enumerate(spectrum.eigenvalues, start=1):
            writer.writerow(
                [
                    a,
                    f"{a / n2:.12g}",
                    f"{eig.real:.12g}",
                    f"{eig.imag:.12g}",
                    f"{abs(eig):.12g}",
                ]
            )


__all__ = [
    "BenchmarkConstants",
    "DominantEigenvalue",
    "SuperopSpectrum",
    "TopEigenpair",
    "arnoldi_lambda2",
    "benchmark_values",
    "eigen_spectrum",
    "lanczos_lambda2",
    "moment_table",
    "real_superoperator",
    "write_spectrum_csv",
]
