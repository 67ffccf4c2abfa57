"""Dense complex matrix support: seeded sampling and Hilbert-Schmidt tools.

Matrices are plain numpy arrays of dtype complex128. Every tolerance used
anywhere in the workbench lives here so there is a single place to audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def complex_gaussian(rng: SeededRng, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. standard complex Gaussians (variance 1 per complex entry)."""
    g = rng.generator
    return (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)


def haar_unitary(n: int, rng: SeededRng) -> np.ndarray:
    """One n-by-n unitary drawn from the Haar measure.

    QR of a complex Ginibre matrix, with column j of Q divided by the phase
    of R_jj; plain QR alone is not Haar distributed.
    """
    if n < 1:
        raise ValidationError(f"invalid dimension n={n}; need n >= 1")
    return _phase_fixed_q(complex_gaussian(rng, (n, n)))


def haar_unitaries(n: int, count: int, rng: SeededRng) -> np.ndarray:
    """A (count, n, n) stack of independent Haar unitaries (batched QR)."""
    if n < 1:
        raise ValidationError(f"invalid dimension n={n}; need n >= 1")
    if count < 1:
        raise ValidationError(f"invalid count={count}; need count >= 1")
    return _phase_fixed_q(complex_gaussian(rng, (count, n, n)))


def _phase_fixed_q(z: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q / (d / np.abs(d))[..., None, :]


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
