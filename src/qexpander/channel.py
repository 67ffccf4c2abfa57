"""Unital CPTP maps with weighted unitary Kraus factors.

A channel acts as E(M) = sum_s P(s) U(s)† M U(s) with probabilities P(s)
and unitaries U(s); the Kraus factors are A(s) = sqrt(P(s)) U(s). The
Hermitian variant pairs each unitary with its adjoint, U(s + D/2) = U(s)†
with P(s + D/2) = P(s), which makes the map self-adjoint under the
Hilbert-Schmidt inner product. build_channel draws the random channels the
workbench studies, after check_construction has passed the request.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

CONSTRUCTIONS = ("hermitian", "nonhermitian", "weighted")
# the largest N per solver: dense N^2 x N^2 work is impractical beyond 64
# (a dense solve maps one 8N^4-byte R, 134 MB at N=64, of which a
# Hermitian R writes its row tails, 76 MB, and one solve grows the
# resident set by 79 MB and takes seconds), and the matrix-free Krylov
# solve of lambda2 (one loop for every channel) stops at 128. Up to 64
# the loop may run N^2 - 1 steps: its basis and Hessenberg matrix each
# map at most 134 MB, the size of the dense R, of which only the pages a
# solve touches are resident. Above 64 it runs at most 16N steps, whose
# basis maps 268 MB at N=128
DIM_CEILINGS = {"dense": 64, "matrix-free": 128}
DEFAULT_DIM_CEILING = DIM_CEILINGS["dense"]


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

    @cached_property
    def _weighted_adjoints(self) -> np.ndarray:
        """[P(1) U(1)†, ..., P(D) U(D)†] side by side, an N x DN matrix."""
        n, d = self.dim, self.kraus_count
        row = (self.weights[:, None, None] * self.unitaries.conj()).transpose(2, 0, 1).reshape(n, d * n)
        row.flags.writeable = False
        return row

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


def check_construction(construction: str, N: int, D: int, solver: str = "dense") -> None:
    """Raise ValidationError unless build_channel may draw this channel for
    the solver that will take it ("dense" or "matrix-free").

    Every rule on what may be drawn lives here, so a caller can check a
    whole request before its first draw.
    """
    if construction not in CONSTRUCTIONS:
        raise ValidationError(f"construction must be one of {CONSTRUCTIONS}, got {construction!r}")
    ceiling = DIM_CEILINGS[solver]
    if not 2 <= N <= ceiling:
        raise ValidationError(f"N must lie in 2..{ceiling} (the {solver}-solver ceiling), got N={N}")
    if construction == "nonhermitian":
        if D < 2:
            raise ValidationError(f"nonhermitian construction needs D >= 2, got D={D}")
    elif D % 2 != 0 or D < 4:
        raise ValidationError(f"{construction} construction needs even D >= 4, got D={D}")


def build_channel(construction: str, N: int, D: int, rng: SeededRng, solver: str = "dense") -> Channel:
    """A random channel of N x N unitaries with D Kraus terms, drawn from
    rng once check_construction passes for this solver.

    - hermitian: uniform weights on D/2 Haar unitaries followed by their
      adjoints, U(s + D/2) = U(s)†.
    - weighted: the same unitaries, pair s weighted g_s / (2 sum g) by
      Gamma(1) draws g_s, which are drawn before the unitaries.
    - nonhermitian: uniform weights on D independent Haar unitaries.
    """
    check_construction(construction, N, D, solver)
    hermitian = construction != "nonhermitian"
    if construction == "weighted":
        gam = rng.generator.gamma(1.0, size=D // 2)
        w_half = gam / (2.0 * gam.sum())
        weights = np.concatenate([w_half, w_half])
    else:
        weights = np.full(D, 1.0 / D)
    draws = [haar_unitary(N, rng) for _ in range(D // 2 if hermitian else D)]
    if hermitian:
        draws += [u.conj().T for u in draws]
    return Channel(
        unitaries=np.stack(draws),
        weights=weights,
        hermitian=hermitian,
        seed=(rng.master_seed, rng.stream_index),
    )


def apply(channel: Channel, m: np.ndarray) -> np.ndarray:
    """E(M) = sum_s P(s) U(s)† M U(s) for one M or a stack of shape (..., N, N)."""
    n = channel.dim
    if m.shape[-2:] != (n, n):
        raise ValidationError(f"matrix shape {m.shape} does not match channel dimension {n}")
    # the D products M U(s) stacked into one DN x N matrix, so that the sum
    # over s is a single product with the weighted adjoints
    terms = m[..., None, :, :] @ channel.unitaries  # (..., D, N, N)
    return channel._weighted_adjoints @ terms.reshape(terms.shape[:-3] + (channel.kraus_count * n, n))
