import dataclasses

import numpy as np
import pytest

from qexpander.channel import Channel, apply, build_channel
from qexpander.edgex import assert_projector, converse_check, random_projector, tanner_chain_check
from qexpander.errors import ValidationError
from qexpander.matrixcore import SeededRng
from qexpander import spectrum as spectrum_mod
from qexpander.spectrum import eigen_spectrum, krylov_lambda2


def edge_ratio(channel: Channel, p: np.ndarray) -> float:
    """tr(P E(P)) / tr(P), the retained weight of the subspace under one step."""
    rank = assert_projector(p)
    if rank == 0:
        raise ValidationError("edge ratio of the rank-0 projector is undefined")
    return float(np.trace(p @ apply(channel, p)).real) / rank


def identity_channel(n: int) -> object:
    eye = np.eye(n, dtype=complex)
    us = np.stack([eye, eye, eye, eye])
    return Channel(us, np.full(4, 0.25))


def test_random_projector_is_projector():
    rng = SeededRng(1)
    for rank in (1, 3, 5):
        p = random_projector(10, rank, rng)
        assert np.linalg.norm(p @ p - p) < 1e-12
        assert np.linalg.norm(p - p.conj().T) < 1e-12
        assert assert_projector(p) == rank


def test_random_projector_validates_rank():
    with pytest.raises(ValidationError):
        random_projector(6, 0, SeededRng(2))
    with pytest.raises(ValidationError):
        random_projector(6, 7, SeededRng(2))


def test_assert_projector_rejects_non_projector():
    m = np.eye(4, dtype=complex) * 0.5
    with pytest.raises(ValidationError):
        assert_projector(m)


def test_edge_ratio_range_and_identity():
    chan = build_channel("hermitian", 12, 4, SeededRng(3))
    rng = SeededRng(4)
    for _ in range(10):
        rank = int(rng.generator.integers(1, 7))
        p = random_projector(12, rank, rng)
        r = edge_ratio(chan, p)
        assert 0.0 <= r <= 1.0 + 1e-9
    # the identity channel moves nothing: ratio exactly 1
    p = random_projector(12, 4, rng)
    assert abs(edge_ratio(identity_channel(12), p) - 1.0) < 1e-12


def test_converse_bound_holds_on_random_projectors():
    chan = build_channel("hermitian", 14, 4, SeededRng(5))
    spec = eigen_spectrum(chan)
    rng = SeededRng(6)
    for _ in range(25):
        rank = int(rng.generator.integers(1, 8))
        p = random_projector(14, rank, rng)
        holds, slack = converse_check(chan, p, lambda2=spec.lambda2)
        assert holds and slack >= -1e-8


def test_converse_computes_lambda2_when_omitted():
    # lambda2 is required: a caller without a spectrum solves it first
    chan = build_channel("hermitian", 8, 4, SeededRng(7))
    p = random_projector(8, 2, SeededRng(8))
    with pytest.raises(TypeError):
        converse_check(chan, p)
    holds, _ = converse_check(chan, p, eigen_spectrum(chan).lambda2)
    assert holds


def test_converse_identity_channel_tight():
    # lambda2 = 1 makes the bound an equality: tr(P E(P)) = l
    chan = identity_channel(10)
    p = random_projector(10, 4, SeededRng(9))
    holds, slack = converse_check(chan, p, lambda2=1.0)
    assert holds and abs(slack) < 1e-10


def test_converse_rejects_large_rank():
    chan = build_channel("hermitian", 8, 4, SeededRng(10))
    p = random_projector(8, 5, SeededRng(11))  # rank > N/2
    with pytest.raises(ValidationError):
        converse_check(chan, p, 0.5)


def test_converse_rejects_nonhermitian():
    chan = build_channel("nonhermitian", 8, 3, SeededRng(12))
    p = random_projector(8, 2, SeededRng(13))
    with pytest.raises(ValidationError):
        converse_check(chan, p, 0.5)


def test_chain_holds_on_random_channels():
    for seed in range(4):
        chan = build_channel("hermitian", 16, 4, SeededRng(100 + seed))
        report = tanner_chain_check(chan, krylov_lambda2(chan))
        assert report.holds
        assert report.lhs <= report.rhs + 1e-8
        assert report.trace_residual <= 1e-8
        assert 0 < report.lambda2 < 1
        # cut weights are a probability-like profile: positive, decreasing
        f = report.f_values
        assert np.all(f > 0)
        assert np.all(np.diff(f) <= 1e-12)
        assert abs(np.sum(f**2) - 1.0) < 1e-10
        assert len(f) <= 8  # at most N/2 positive-eigenvalue directions
        assert np.all(report.ratios >= -1e-12)


def test_chain_identity_channel_degenerate_spectrum():
    # every eigenvalue 1: lambda2 = 1, both sides collapse to zero
    chan = identity_channel(8)
    report = tanner_chain_check(chan, krylov_lambda2(chan))
    assert report.holds
    assert abs(report.lambda2 - 1.0) < 1e-12
    assert report.rhs < 1e-6
    assert abs(report.lhs) < 1e-10
    # the eigenvector comes from the traceless block: no projection needed
    assert report.trace_residual <= 1e-14


def two_pauli_channel() -> Channel:
    """The two-Pauli mixture on N=2: superoperator eigenvalues {1, 0, 0, -1}."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return Channel(np.stack([x, y, x, y]), np.full(4, 0.25))


def test_chain_rejects_nonpositive_second_eigenvalue():
    chan = two_pauli_channel()
    top = krylov_lambda2(chan)
    with pytest.raises(ValidationError):
        tanner_chain_check(chan, top)


def test_chain_rejects_a_zero_eigenvalue_just_above_its_residual():
    # at theta = 0 the residual |E(X) - theta X| is |theta| to the last
    # bit, so theta may come out one ulp above it
    chan = two_pauli_channel()
    top = krylov_lambda2(chan)
    assert top.residual < 1e-15
    nudged = dataclasses.replace(top, theta=float(np.nextafter(top.residual, 1.0)))
    with pytest.raises(ValidationError, match="not positive beyond"):
        tanner_chain_check(chan, nudged)


def test_chain_rejects_nonhermitian():
    chan = build_channel("nonhermitian", 8, 3, SeededRng(14))
    top = krylov_lambda2(build_channel("hermitian", 8, 4, SeededRng(14)))
    with pytest.raises(ValidationError, match="hermitian channels"):
        tanner_chain_check(chan, top)


def test_chain_does_not_depend_on_the_solver_eigenvector_sign(monkeypatch):
    # seed 4 at N=8: the second eigenvector has exactly N/2 positive
    # eigenvalues, so both orientations pass the chain's flip rule
    chan = build_channel("hermitian", 8, 4, SeededRng(4))
    top = krylov_lambda2(chan)
    lam2, x = top.theta, top.vector
    assert 2 * int(np.sum(np.linalg.eigvalsh(x) > 0.0)) == 8
    lhs = tanner_chain_check(chan, top).lhs
    # both orientations pass the chain's flip rule and give different
    # cut profiles, so the solver's sign rule is what makes lhs a
    # function of the channel
    negated = tanner_chain_check(chan, dataclasses.replace(top, vector=-x))
    assert negated.holds and negated.lhs != lhs

    real_ritz = spectrum_mod._ritz_step

    calls = []

    def negated_ritz(hk, b, channel):
        estimate, (theta, theta_min, y) = real_ritz(hk, b, channel)
        calls.append(len(hk))
        return estimate, (theta, theta_min, -y)

    # a Ritz vector of either sign, as a start vector of either sign gives
    monkeypatch.setattr(spectrum_mod, "_ritz_step", negated_ritz)
    top_neg = krylov_lambda2(chan)
    assert calls  # the tridiagonal solve's vectors were negated
    assert top_neg.theta == lam2
    assert np.array_equal(top_neg.vector, x)
    assert tanner_chain_check(chan, top_neg).lhs == lhs
