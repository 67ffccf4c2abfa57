"""The real Hermitian-basis kernel R against the complex vec-basis oracle S.

Every production spectral path runs on R; S, built by `superoperator` in
tests/oracle_superop.py, is the definition, and `hermitian_coords` there
gives c(M). Tolerances: 1e-12 absolute on eigenvalues and on
R c(M) = c(E(M)), 1e-12 relative on traces and Frobenius norms of powers.
"""

import numpy as np
import pytest

from oracle_mc import haar_stack
from oracle_superop import hermitian_coords, superoperator
from qexpander.channel import Channel, apply, build_channel
from qexpander.edgex import tanner_chain_check
from qexpander.matrixcore import SeededRng
from qexpander.spectrum import (
    _Basis,
    eigen_spectrum,
    krylov_lambda2,
    moment_table,
    real_superoperator,
)

EIG_AGREE = 1e-12
MOMENT_REL = 1e-12


def criterion_8_channels():
    """The 20 channels of acceptance criterion 8, same seeds and order."""
    cases = []
    idx = 0
    for n in (8, 16, 32):
        for d in (4, 6):
            cases.append((n, d, True, idx)); idx += 1
            cases.append((n, d, False, idx)); idx += 1
    for n in (16, 32):
        for d in (4, 6):
            cases.append((n, d, True, idx)); idx += 1
            cases.append((n, d, False, idx)); idx += 1
    return [
        build_channel("hermitian" if herm else "nonhermitian", n, d, SeededRng(5, k))
        for n, d, herm, k in cases
    ]


def identity_channel(n):
    eye = np.eye(n, dtype=complex)
    return Channel(np.stack([eye] * 4), np.full(4, 0.25))


def two_pauli_channel():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return Channel(np.stack([x, y, x, y]), np.full(4, 0.25))


def weighted_nonhermitian_channel():
    us = haar_stack(6, 3, SeededRng(21))
    return Channel(us, np.array([0.5, 0.3, 0.2]))


EXTRA_CHANNELS = [
    identity_channel(5),
    two_pauli_channel(),
    build_channel("weighted", 10, 6, SeededRng(22)),
    weighted_nonhermitian_channel(),
]


def max_matched_distance(a, b):
    """Largest distance when each eigenvalue of a takes its nearest unused one in b."""
    left = list(np.asarray(b, dtype=complex))
    worst = 0.0
    for z in np.asarray(a, dtype=complex):
        dist = np.abs(np.array(left) - z)
        i = int(np.argmin(dist))
        worst = max(worst, float(dist[i]))
        left.pop(i)
    return worst


def random_hermitian(n, seed):
    g = SeededRng(seed).generator
    a = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
    return a + a.conj().T


def complex_power(chan, m):
    s = superoperator(chan)
    power = s
    for _ in range(m - 1):
        power = power @ s
    return power


@pytest.mark.parametrize("chan", criterion_8_channels() + EXTRA_CHANNELS)
def test_eigenvalues_match_complex_oracle(chan):
    s = superoperator(chan)
    want = np.linalg.eigvalsh(s) if chan.hermitian else np.linalg.eigvals(s)
    spec = eigen_spectrum(chan)
    got = spec.eigenvalues
    # B_0 = I/sqrt(N): R = [[1, 0], [0, R']] up to rounding for every unital,
    # trace-preserving channel, and R_00 is the removed unit eigenvalue
    r = real_superoperator(chan)
    assert abs(r[0, 0] - 1.0) <= 1e-14
    assert np.max(np.abs(r[1:, 0])) <= 1e-14 and np.max(np.abs(r[0, 1:])) <= 1e-14
    assert spec.removed_eigenvalue == r[0, 0]
    assert spec.unit_eigvec_residual <= 1e-14
    if chan.hermitian:
        assert np.max(np.abs(np.sort(got.real) - np.sort(want))) <= EIG_AGREE
        assert np.all(got.imag == 0.0)
    else:
        assert max_matched_distance(got, want) <= EIG_AGREE


def test_real_superoperator_exactly_symmetric_for_hermitian_channels():
    for chan in (
        build_channel("hermitian", 9, 4, SeededRng(23)),
        build_channel("hermitian", 7, 6, SeededRng(24)),
        build_channel("weighted", 8, 6, SeededRng(25)),
    ):
        r = real_superoperator(chan)
        assert r.dtype == np.float64 and r.shape == (chan.dim**2,) * 2
        assert np.array_equal(r, r.T)
    r = real_superoperator(build_channel("nonhermitian", 6, 3, SeededRng(26)))
    assert np.max(np.abs(r - r.T)) > 1e-3


def test_coordinate_round_trip():
    for n in (1, 2, 7):
        m = random_hermitian(n, 27 + n)
        c = hermitian_coords(m)
        assert c.dtype == np.float64 and c.shape == (n * n,)
        assert np.max(np.abs(_Basis(n).matrix(c) - m)) <= 1e-15 * np.max(np.abs(m))
        g = SeededRng(30 + n).generator
        c = g.standard_normal(n * n)
        back = _Basis(n).matrix(c)
        assert np.array_equal(back, back.conj().T)
        assert np.max(np.abs(hermitian_coords(back) - c)) <= 1e-15
        # the first basis element is I/sqrt(N)
        e0 = np.zeros(n * n)
        e0[0] = 1.0
        assert np.max(np.abs(hermitian_coords(np.eye(n) / np.sqrt(n)) - e0)) <= 1e-15
    # the basis is orthonormal: coordinates preserve the Hilbert-Schmidt norm
    m = random_hermitian(6, 33)
    assert abs(np.linalg.norm(hermitian_coords(m)) - np.linalg.norm(m)) <= 1e-12


@pytest.mark.parametrize(
    "chan",
    [
        build_channel("hermitian", 9, 4, SeededRng(34)),
        build_channel("nonhermitian", 9, 3, SeededRng(35)),
        build_channel("weighted", 8, 6, SeededRng(36)),
        weighted_nonhermitian_channel(),
    ],
)
def test_real_superoperator_is_the_channel_on_coordinates(chan):
    m = random_hermitian(chan.dim, 37)
    m /= np.linalg.norm(m)
    r = real_superoperator(chan)
    assert np.max(np.abs(r @ hermitian_coords(m) - hermitian_coords(apply(chan, m)))) <= 1e-12


def test_moments_match_complex_power_chain():
    for chan in (build_channel("hermitian", 8, 4, SeededRng(38)), build_channel("nonhermitian", 7, 3, SeededRng(39))):
        for row in moment_table(chan, range(1, 7)):
            power = complex_power(chan, row.m)
            want_frob = float(np.linalg.norm(power, "fro") ** 2)
            assert abs(row.frobenius_moment - want_frob) <= MOMENT_REL * want_frob
            if chan.hermitian and row.m % 2 == 0:
                want = float(np.trace(power).real)
                assert abs(row.moment_trace - want) <= MOMENT_REL * want


def complex_signed_lambda2(chan):
    eigvals = np.linalg.eigh(superoperator(chan))[0]
    unit_idx = int(np.lexsort((-eigvals, np.abs(eigvals - 1.0)))[0])
    return float(np.max(np.delete(eigvals, unit_idx)))


@pytest.mark.parametrize(
    "chan",
    [build_channel("hermitian", n, 4, SeededRng(40, n)) for n in (6, 10, 16)]
    + [build_channel("weighted", 10, 6, SeededRng(41)), identity_channel(6)],
)
def test_chain_second_eigenpair_matches_complex_eigh(chan):
    top = krylov_lambda2(chan)
    report = tanner_chain_check(chan, top)
    assert abs(report.lambda2 - complex_signed_lambda2(chan)) <= EIG_AGREE
    lam2, x = top.theta, top.vector
    assert lam2 == report.lambda2
    assert np.array_equal(x, x.conj().T)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert np.max(np.abs(apply(chan, x) - lam2 * x)) <= 1e-12
    assert abs(top.lambda2 - eigen_spectrum(chan).lambda2) <= EIG_AGREE


def test_eigenvectors_only_for_hermitian_channels():
    assert krylov_lambda2(build_channel("nonhermitian", 4, 3, SeededRng(42))).vector is None
