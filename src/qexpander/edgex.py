"""Edge-expansion checks: the per-projector converse bound, and the chain
inequality on projectors built from the second eigenvector.

For a Hermitian channel with second eigenvalue lambda2 (signed, positive),
the chain argument diagonalizes the traceless eigenvector X, forms nested
projectors P_i onto its top-i eigendirections over the positive block, and
bounds sum_i (f_i^2 - f_{i+1}^2) tr((1-P_i) E(P_i)) by sqrt(2 (1-lambda2)).
The converse direction bounds tr(P E(P)) per projector in terms of
|lambda2| alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import Channel, apply
from .errors import NumericalError, ValidationError
from .matrixcore import SLACK_TOL, TRACE_RESIDUAL_TOL, SeededRng, complex_gaussian
from .spectrum import KRYLOV_TOL, KrylovSolve

PROJECTOR_TOL = 1e-10
RANK_TOL = 1e-8


def random_projector(N: int, rank: int, rng: SeededRng) -> np.ndarray:
    """Rank-`rank` projector onto the span of Haar-random orthonormal columns."""
    if not 1 <= rank <= N:
        raise ValidationError(f"rank must lie in 1..{N}, got {rank}")
    # the column span of an N x rank Ginibre matrix is uniform; V V† needs no phase fix
    v, _ = np.linalg.qr(complex_gaussian(rng, (N, rank)))
    return v @ v.conj().T


def assert_projector(p: np.ndarray) -> int:
    """Validate P = P† = P² and return the integer rank tr(P)."""
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValidationError(f"projector must be square, got shape {p.shape}")
    herm = float(np.max(np.abs(p - p.conj().T)))
    if herm > PROJECTOR_TOL:
        raise ValidationError(f"projector not Hermitian: residual {herm:.3e}")
    idem = float(np.max(np.abs(p @ p - p)))
    if idem > PROJECTOR_TOL:
        raise ValidationError(f"projector not idempotent: residual {idem:.3e}")
    tr = float(np.trace(p).real)
    rank = round(tr)
    if abs(tr - rank) > RANK_TOL:
        raise ValidationError(f"projector trace {tr!r} is not near an integer")
    return rank


def converse_check(channel: Channel, p: np.ndarray, lambda2: float) -> tuple[bool, float]:
    """Per-projector bound tr(P E(P)) <= |l2| (l - l^2/N) + l^2/N for l <= N/2.

    Returns (holds, slack) with slack = rhs - lhs; holds means
    slack >= -1e-8. lambda2 is required: the caller solves the spectrum
    once and reuses it for every projector.
    """
    if not channel.hermitian:
        raise ValidationError("converse bound applies to hermitian channels")
    rank = assert_projector(p)
    if rank == 0:
        raise ValidationError("rank-0 projector")
    n = channel.dim
    if rank > n / 2:
        raise ValidationError(f"converse bound needs rank <= N/2, got rank {rank} at N={n}")
    lhs = float(np.trace(p @ apply(channel, p)).real)
    rhs = abs(lambda2) * (rank - rank * rank / n) + rank * rank / n
    slack = rhs - lhs
    return slack >= -SLACK_TOL, slack


@dataclass(frozen=True, eq=False)
class ChainReport:
    lambda2: float  # signed second eigenvalue used on the right-hand side
    f_values: np.ndarray
    ratios: np.ndarray  # tr((1-P_i) E(P_i)) per nesting level
    lhs: float
    rhs: float
    holds: bool
    trace_residual: float


def tanner_chain_check(channel: Channel, spec: KrylovSolve) -> ChainReport:
    """Build the nested projectors from the second eigenvector and check
    lhs <= sqrt(2 (1 - lambda2)) + 1e-8.

    Requires the second eigenvalue (signed) to be positive by more than
    the solve's residual and the solver tolerance; square the channel
    first when it is not. `spec` is the channel's one solve of the
    traceless block (spectrum.krylov_lambda2), whose top eigenvector is a
    Hermitian matrix; its trace is still checked as a safety net.
    """
    if not channel.hermitian:
        raise ValidationError("chain argument applies to hermitian channels")
    n = channel.dim
    lam2, x = spec.theta, spec.vector
    # an eigenvalue lies within the residual of lam2; the floor keeps a
    # zero eigenvalue out, whose residual |theta| equals theta to rounding
    if lam2 <= max(spec.residual, KRYLOV_TOL):
        raise ValidationError(
            f"second eigenvalue {lam2!r} is not positive beyond its residual "
            f"{spec.residual:.1e} and the solver tolerance {KRYLOV_TOL:.0e}; square the channel first"
        )

    norm = math.sqrt(np.vdot(x, x).real)  # Hilbert-Schmidt norm
    trace_residual = abs(float(np.trace(x).real)) / norm
    if trace_residual > TRACE_RESIDUAL_TOL:
        raise NumericalError(f"second eigenvector trace residual {trace_residual:.3e}")
    xh = x / norm

    evals, evecs = np.linalg.eigh(xh)
    order = np.argsort(-evals)
    evals, evecs = evals[order], evecs[:, order]
    m = int(np.sum(evals > 0.0))
    if m > n / 2:
        evals, evecs = -evals[::-1], evecs[:, ::-1]
        m = int(np.sum(evals > 0.0))
    if m == 0:
        raise NumericalError("traceless eigenvector with no positive part")

    top = evals[:m]
    f = top / math.sqrt(float(np.sum(top * top)))
    cols = evecs[:, :m].T
    projs = np.cumsum(cols[:, :, None] * cols[:, None, :].conj(), axis=0)  # P_1..P_m
    images = apply(channel, projs)
    ratios = np.trace((np.eye(n) - projs) @ images, axis1=1, axis2=2).real
    weights = f * f - np.append(f[1:] * f[1:], 0.0)
    lhs = float(np.sum(weights * ratios))
    rhs = math.sqrt(max(0.0, 2.0 * (1.0 - lam2)))
    return ChainReport(
        lambda2=lam2,
        f_values=f,
        ratios=ratios,
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs + SLACK_TOL,
        trace_residual=trace_residual,
    )
