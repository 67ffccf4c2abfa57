"""The complex vec-basis superoperator S, the definition the real kernel R
in qexpander.spectrum is checked against.

S = sum_s P(s) (U(s)^T kron U(s)†), with vec column-stacking, so
vec(A M B) = (B^T kron A) vec(M) and S vec(M) = vec(E(M)). R is a unitary
change of basis away from S: eigenvalues, traces of powers and Frobenius
norms of powers agree. S is built term by term with `np.kron`, so it is
only usable at small N.
"""

from __future__ import annotations

import math

import numpy as np

from qexpander.channel import Channel, apply
from qexpander.spectrum import KrylovSolve, _Basis, _diagonal_basis, real_superoperator


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


def image_coords(channel: Channel) -> np.ndarray:
    """R^T, built in one piece from all D Kraus terms: one Kraus sum per
    input row j over all k >= j, into an N^2 x N^2 heap array, then
    H rt H in N-wide strips. The sliced, mapped build of
    qexpander.spectrum is pinned to these bits, of a Hermitian R its row
    tails."""
    n, d = channel.dim, channel.kraus_count
    iu, ju = np.triu_indices(n, 1)
    pairs = iu.size
    diag = np.arange(n)
    root2 = math.sqrt(2.0)
    rt = np.empty((n * n, n * n))
    first = 0
    for j in range(n):
        a = channel.weights[:, None] * channel.unitaries[:, j, :].conj()
        y = (a.T @ channel.unitaries[:, j:, :].reshape(d, -1)).reshape(n, n - j, n).transpose(1, 0, 2)
        yd, yu, yl = y[:, diag, diag], y[:, iu, ju], y[:, ju, iu]
        sym = np.concatenate([root2 * yd.real, yu.real + yl.real, yu.imag - yl.imag], axis=1)
        anti = np.concatenate([-root2 * yd.imag, -(yu.imag + yl.imag), yu.real - yl.real], axis=1)
        rt[j] = sym[0] / root2
        stop = first + n - 1 - j
        rt[n + first : n + stop] = sym[1:]
        rt[n + pairs + first : n + pairs + stop] = anti[1:]
        first = stop
    h = _diagonal_basis(n)
    for k in range(0, n * n, n):
        rt[:n, k : k + n] = h @ rt[:n, k : k + n]
        rt[k : k + n, :n] = rt[k : k + n, :n] @ h
    return rt


def full_superoperator(channel: Channel) -> np.ndarray:
    """R, the transpose of image_coords."""
    return image_coords(channel).T


def faithfulness_residual(channel: Channel, s: np.ndarray, m: np.ndarray) -> float:
    """max-entry |S vec(M) - vec(E(M))|, the defining contract of S."""
    return float(np.max(np.abs(s @ vec(m) - vec(apply(channel, m)))))


def hermitian_coords(m: np.ndarray) -> np.ndarray:
    """c(M), the N^2 real coordinates of a Hermitian M in the basis B of
    qexpander.spectrum: the inverse of `_Basis(n).matrix`."""
    n = m.shape[0]
    iu, ju = np.triu_indices(n, 1)
    off = math.sqrt(2.0) * m[iu, ju]
    return np.concatenate([_diagonal_basis(n) @ m.diagonal().real, off.real, off.imag])


def dense_top_eigenpair(channel: Channel) -> KrylovSolve:
    """lambda2 and the top eigenpair of R' = R[1:, 1:] from a dense eigh,
    the vector signed so that its largest-magnitude coordinate is positive:
    a KrylovSolve with solver "eigh", no steps and estimate 0."""
    rest, coords = np.linalg.eigh(real_superoperator(channel)[1:, 1:])
    c = np.concatenate([[0.0], coords[:, -1]])  # eigh ascends; 0 on I/sqrt(N)
    if c[np.argmax(np.abs(c))] < 0.0:
        c = -c
    x = _Basis(channel.dim).matrix(c)
    theta = float(rest[-1])
    return KrylovSolve(
        solver="eigh",
        theta=theta,
        steps=0,
        estimate=0.0,
        theta_min=float(rest[0]),
        vector=x,
        residual=float(np.linalg.norm(apply(channel, x) - theta * x)),
    )
