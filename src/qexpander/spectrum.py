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
- R is a unitary change of basis away from the vec-basis superoperator
  S = sum_s P(s) (U(s)^T kron U(s)†), with vec column-stacking, so
  vec(A M B) = (B^T kron A) vec(M). Eigenvalues, traces of powers and
  Frobenius norms of powers agree. `superoperator` builds S as the
  definition and test oracle; no production path uses it.
- every channel here is unital and trace preserving, so I/sqrt(N) is an
  eigenvector with eigenvalue 1 and the traceless matrices are invariant:
  R = [[R_00, 0], [0, R']] with R_00 = 1, up to rounding. The unit
  eigenvalue is R_00, and the second eigenvalue lambda2 is the largest
  modulus among the eigenvalues of the traceless block R' = R[1:, 1:].
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel, apply
from .errors import NumericalError, ValidationError
from .matrixcore import SPECTRAL_RADIUS_TOL

DEFAULT_DIM_CEILING = 64  # dense N^2 x N^2 work is impractical beyond this


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return m.reshape(-1, order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return v.reshape((n, n), order="F")


def superoperator(channel: Channel) -> np.ndarray:
    """The N^2 x N^2 matrix S with S vec(M) = vec(E(M)) for all M."""
    n = channel.dim
    s = np.zeros((n * n, n * n), dtype=complex)
    for k in range(channel.kraus_count):
        u = channel.unitaries[k]
        s += channel.weights[k] * np.kron(u.T, u.conj().T)
    return s


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


def hermitian_coords(m: np.ndarray) -> np.ndarray:
    """c(M), the N^2 real coordinates of a Hermitian M in the basis B."""
    n = m.shape[0]
    iu, ju = np.triu_indices(n, 1)
    off = math.sqrt(2.0) * m[iu, ju]
    return np.concatenate([_diagonal_basis(n) @ m.diagonal().real, off.real, off.imag])


def hermitian_from_coords(c: np.ndarray, n: int) -> np.ndarray:
    """The Hermitian N x N matrix sum_a c_a B_a."""
    iu, ju = np.triu_indices(n, 1)
    pairs = iu.size
    m = np.zeros((n, n), dtype=complex)
    m[np.diag_indices(n)] = _diagonal_basis(n) @ c[:n]
    off = (c[n : n + pairs] + 1j * c[n + pairs :]) / math.sqrt(2.0)
    m[iu, ju] = off
    m[ju, iu] = off.conj()
    return m


def _image_coords(unitaries: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The transpose of R for F(M) = sum_s w_s U_s† M U_s: row b is c(F(B_b)).

    One Kraus sum per input row j gives Y_k = F(E_jk) for all k >= j at
    once, since F(E_jk)[p, q] = sum_s w_s conj(U_s[j, p]) U_s[k, q]. With
    F(E_kj) = F(E_jk)†, the images of the basis elements built from E_jk
    are sqrt(2) Herm(Y_k) and sqrt(2) Herm(i Y_k), where
    Herm(Y) = (Y + Y†)/2, and F(E_jj) = Herm(Y_j). The loop fills the
    diagonal rows and columns for E_jj; H then turns both into the B_a.
    """
    d = unitaries.shape[0]
    iu, ju = np.triu_indices(n, 1)
    pairs = iu.size
    diag = np.arange(n)
    root2 = math.sqrt(2.0)
    rt = np.empty((n * n, n * n))
    first = 0  # index of pair (j, j + 1) in triu order
    for j in range(n):
        a = weights[:, None] * unitaries[:, j, :].conj()
        y = (a.T @ unitaries[:, j:, :].reshape(d, -1)).reshape(n, n - j, n).transpose(1, 0, 2)
        yd, yu, yl = y[:, diag, diag], y[:, iu, ju], y[:, ju, iu]
        # sqrt(2) c(Herm(Y_k)) and sqrt(2) c(Herm(i Y_k)), one row per k = j..N-1
        sym = np.concatenate([root2 * yd.real, yu.real + yl.real, yu.imag - yl.imag], axis=1)
        anti = np.concatenate([-root2 * yd.imag, -(yu.imag + yl.imag), yu.real - yl.real], axis=1)
        rt[j] = sym[0] / root2
        stop = first + n - 1 - j  # pairs (j, k) for k > j are first..stop-1
        rt[n + first : n + stop] = sym[1:]
        rt[n + pairs + first : n + pairs + stop] = anti[1:]
        first = stop
    h = _diagonal_basis(n)
    for k in range(0, n * n, n):  # H rt H in N-wide strips: no N x N^2 temporary
        rt[:n, k : k + n] = h @ rt[:n, k : k + n]
        rt[k : k + n, :n] = rt[k : k + n, :n] @ h
    return rt


def real_superoperator(channel: Channel) -> np.ndarray:
    """R, the real N^2 x N^2 matrix of E in the Hermitian basis B.

    For a Hermitian channel the second half of the Kraus terms are the
    adjoints of the first (Channel enforces the pairing), so E = F + F*
    with F the first half at the pair's mean weight, and R = R_F + R_F^T:
    half the work, and R comes out exactly symmetric. Every spectral and
    moment path builds R here, so this is where N is held to the ceiling.
    """
    n = channel.dim
    if n > DEFAULT_DIM_CEILING:
        raise ValidationError(f"N={n} exceeds the dense-solver ceiling {DEFAULT_DIM_CEILING}")
    if channel.hermitian:
        half = channel.kraus_count // 2
        weights = (channel.weights[:half] + channel.weights[half:]) / 2.0
        rt = _image_coords(channel.unitaries[:half], weights, n)
        return rt + rt.T
    return _image_coords(channel.unitaries, channel.weights, n).T


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
    # (signed eigenvalue, unit-norm traceless Hermitian eigenvector) of the
    # top of the traceless block; only from eigen_spectrum(vectors=True)
    second_eigenpair: tuple[float, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.eigenvalues.shape != (self.dim * self.dim,):
            raise ValidationError(
                f"expected {self.dim * self.dim} eigenvalues, got {self.eigenvalues.shape}"
            )


def eigen_spectrum(channel: Channel, vectors: bool = False) -> SuperopSpectrum:
    """Dense eigendecomposition of the traceless block R' = R[1:, 1:].

    Real eigvalsh for a Hermitian channel, real eigvals otherwise; the
    spectrum is R_00 together with the eigenvalues of R'. With vectors=True
    (Hermitian channels only) the solve is eigh and the spectrum carries
    the top eigenpair of R', signed so that its largest-magnitude
    coordinate is positive: the solver may return either sign, and the
    eigenpair is then a function of the channel alone.
    """
    n = channel.dim
    if vectors and not channel.hermitian:
        raise ValidationError("eigenvectors are computed for hermitian channels only")
    r = real_superoperator(channel)
    block = r[1:, 1:]  # a view: no second N^2 x N^2 array
    try:
        if vectors:
            rest, coords = np.linalg.eigh(block)
        elif channel.hermitian:
            rest = np.linalg.eigvalsh(block)
        else:
            rest = np.linalg.eigvals(block)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed to converge (channel seed {channel.seed}): {exc}"
        ) from exc

    removed = complex(r[0, 0])
    eigs = np.concatenate([[removed], rest.astype(complex)])
    key = -eigs.real if channel.hermitian else -np.abs(eigs)
    eigs = eigs[np.argsort(key, kind="stable")]

    radius = float(np.max(np.abs(eigs)))
    if radius > 1.0 + SPECTRAL_RADIUS_TOL:
        raise NumericalError(
            f"spectral radius {radius!r} exceeds 1 (channel seed {channel.seed})"
        )
    lam2 = float(np.max(np.abs(rest))) if rest.size else 0.0

    second = None
    if vectors and rest.size:
        c = np.concatenate([[0.0], coords[:, -1]])  # eigh ascends; 0 on I/sqrt(N)
        if c[np.argmax(np.abs(c))] < 0.0:
            c = -c
        second = (float(rest[-1]), hermitian_from_coords(c, n))

    return SuperopSpectrum(
        dim=n,
        eigenvalues=eigs,
        hermitian=channel.hermitian,
        lambda2=lam2,
        unit_eigvec_residual=float(np.max(np.abs(r[:, 0] - np.eye(1, n * n)[0]))),  # e_0
        removed_eigenvalue=removed,
        spectral_radius=radius,
        second_eigenpair=second,
    )


@dataclass(frozen=True)
class MomentRow:
    """The moments of order m, read off one power R^m."""

    m: int
    moment_trace: float | None  # tr(S^m); Hermitian channels at even m only
    frobenius_moment: float  # tr((S†)^m S^m)

    @property
    def lambda2_estimate(self) -> float | None:
        if self.moment_trace is None:
            return None
        return _lambda2_from_moment(self.moment_trace, self.m)


def moment_table(channel: Channel, orders) -> list[MomentRow]:
    """One row per order, from a single walk R, R^2, ..., R^max(orders).

    R is built once and each further power costs one dense product. R is
    unitarily similar to S, so traces and Frobenius norms of its powers
    are those of S.
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


def faithfulness_residual(channel: Channel, s: np.ndarray, m: np.ndarray) -> float:
    """max-entry |S vec(M) - vec(E(M))|, the defining contract of S."""
    return float(np.max(np.abs(s @ vec(m) - vec(apply(channel, m)))))


__all__ = [
    "DEFAULT_DIM_CEILING",
    "BenchmarkConstants",
    "SuperopSpectrum",
    "benchmark_values",
    "eigen_spectrum",
    "faithfulness_residual",
    "hermitian_coords",
    "hermitian_from_coords",
    "moment_table",
    "real_superoperator",
    "superoperator",
    "unvec",
    "vec",
    "write_spectrum_csv",
]
