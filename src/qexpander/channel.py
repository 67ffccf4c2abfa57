"""Unital CPTP maps with weighted unitary Kraus factors.

A channel acts as E(M) = sum_s P(s) U(s)† M U(s) with probabilities P(s)
and unitaries U(s); the Kraus factors are A(s) = sqrt(P(s)) U(s). The
Hermitian variant pairs each unitary with its adjoint, U(s + D/2) = U(s)†
with P(s + D/2) = P(s), which makes the map self-adjoint under the
Hilbert-Schmidt inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matrixcore import (
    PAIRING_TOL,
    UNITARITY_TOL,
    WEIGHT_TOL,
    SeededRng,
    haar_unitary,
    unitarity_residual,
)


@dataclass(frozen=True, eq=False)
class Channel:
    """Immutable weighted unitary-Kraus channel; equality is identity.

    unitaries is a (D, N, N) complex array; weights a length-D probability
    vector. seed records the stream that built the channel (diagnostics
    only).
    """

    unitaries: np.ndarray
    weights: np.ndarray
    hermitian: bool
    seed: tuple[int, int] | None = None

    @property
    def dim(self) -> int:
        return self.unitaries.shape[1]

    @property
    def kraus_count(self) -> int:
        return self.unitaries.shape[0]

    def __post_init__(self) -> None:
        ws = np.array(self.weights, dtype=float)
        us = np.array(self.unitaries, dtype=complex)
        ws.flags.writeable = False
        us.flags.writeable = False
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "unitaries", us)
        if us.ndim != 3 or us.shape[1] != us.shape[2]:
            raise ValidationError(f"unitaries must be a (D,N,N) stack, got shape {us.shape}")
        n, d = self.dim, self.kraus_count
        if n < 1:
            raise ValidationError(f"invalid dimension N={n}")
        if self.weights.shape != (d,):
            raise ValidationError(f"weights shape {self.weights.shape} does not match D={d}")
        if not np.all(np.isfinite(self.weights)):
            raise ValidationError("weights must be finite")
        if not np.all(np.isfinite(self.unitaries.real)) or not np.all(
            np.isfinite(self.unitaries.imag)
        ):
            raise ValidationError("unitaries must be finite")
        if np.any(self.weights < 0):
            raise ValidationError("weights must be nonnegative")
        wsum = float(np.sum(self.weights))
        if abs(wsum - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights sum to {wsum!r}, not 1 within {WEIGHT_TOL:.1e}")
        for s in range(d):
            res = unitarity_residual(self.unitaries[s])
            if res > UNITARITY_TOL:
                raise ValidationError(f"Kraus factor {s} not unitary: residual {res:.3e}")
        if self.hermitian:
            if d % 2 != 0 or d < 4:
                raise ValidationError(f"hermitian channel needs even D >= 4, got D={d}")
            half = d // 2
            for s in range(half):
                pres = float(np.max(np.abs(self.unitaries[s + half] - self.unitaries[s].conj().T)))
                if pres > PAIRING_TOL:
                    raise ValidationError(
                        f"adjoint pairing violated at s={s}: max deviation {pres:.3e}"
                    )
                if abs(self.weights[s + half] - self.weights[s]) > WEIGHT_TOL:
                    raise ValidationError(f"weight pairing violated at s={s}")
        else:
            if d < 2:
                raise ValidationError(f"need D >= 2 Kraus terms, got D={d}")


def _adjoint_paired_haar(N: int, D: int, rng: SeededRng) -> np.ndarray:
    """D/2 Haar unitaries followed by their adjoints, U(s + D/2) = U(s)†."""
    half = D // 2
    us = np.empty((D, N, N), dtype=complex)
    for s in range(half):
        us[s] = haar_unitary(N, rng)
        us[s + half] = us[s].conj().T
    return us


def _check_paired_shape(construction: str, N: int, D: int) -> None:
    if D % 2 != 0 or D < 4:
        raise ValidationError(f"{construction} construction needs even D >= 4, got D={D}")
    if N < 2:
        raise ValidationError(f"need N >= 2, got N={N}")


def build_hermitian_random(N: int, D: int, rng: SeededRng) -> Channel:
    """Uniform-weight Hermitian channel: D/2 Haar unitaries plus their adjoints."""
    _check_paired_shape("hermitian", N, D)
    return Channel(
        weights=np.full(D, 1.0 / D),
        unitaries=_adjoint_paired_haar(N, D, rng),
        hermitian=True,
        seed=(rng.master_seed, rng.stream_index),
    )


def build_weighted_random(N: int, D: int, rng: SeededRng) -> Channel:
    """Hermitian channel with random pair weights: D/2 Haar unitaries plus
    their adjoints, pair s weighted by Gamma(1) draw g_s as g_s / (2 sum g).

    The weights are drawn before the unitaries.
    """
    _check_paired_shape("weighted", N, D)
    gam = rng.generator.gamma(1.0, size=D // 2)
    w_half = gam / (2.0 * gam.sum())
    return Channel(
        weights=np.concatenate([w_half, w_half]),
        unitaries=_adjoint_paired_haar(N, D, rng),
        hermitian=True,
        seed=(rng.master_seed, rng.stream_index),
    )


def build_nonhermitian_random(N: int, D: int, rng: SeededRng) -> Channel:
    """Uniform-weight channel from D independent Haar unitaries."""
    if D < 2:
        raise ValidationError(f"need D >= 2 independent unitaries, got D={D}")
    if N < 2:
        raise ValidationError(f"need N >= 2, got N={N}")
    us = np.stack([haar_unitary(N, rng) for _ in range(D)])
    return Channel(
        weights=np.full(D, 1.0 / D),
        unitaries=us,
        hermitian=False,
        seed=(rng.master_seed, rng.stream_index),
    )


def apply(channel: Channel, m: np.ndarray) -> np.ndarray:
    """E(M) = sum_s P(s) U(s)† M U(s) for one M or a stack of shape (..., N, N)."""
    n = channel.dim
    if m.shape[-2:] != (n, n):
        raise ValidationError(f"matrix shape {m.shape} does not match channel dimension {n}")
    us = channel.unitaries
    terms = us.conj().swapaxes(-1, -2) @ m[..., None, :, :] @ us  # (..., D, N, N)
    return np.tensordot(channel.weights, terms, axes=(0, -3))
