import numpy as np
import pytest

from oracle_mc import haar_stack
from qexpander import matrixcore
from qexpander.errors import ValidationError
from qexpander.matrixcore import (
    SeededRng,
    UNITARITY_TOL,
    complex_gaussian,
    haar_unitary,
    unitarity_residual,
)


def assert_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> None:
    res = unitarity_residual(u)
    if res > tol:
        raise ValidationError(f"matrix is not unitary: residual {res:.3e} > {tol:.1e}")


def test_seeded_rng_reproducible():
    a = SeededRng(123).generator.standard_normal(8)
    b = SeededRng(123).generator.standard_normal(8)
    assert np.array_equal(a, b)


def test_seeded_rng_streams_independent():
    a = SeededRng(123, 0).generator.standard_normal(8)
    b = SeededRng(123, 1).generator.standard_normal(8)
    assert not np.array_equal(a, b)
    # re-deriving the same stream replays it
    c = SeededRng(123, 1).generator.standard_normal(8)
    assert np.array_equal(b, c)


def test_complex_gaussian_unit_variance():
    rng = SeededRng(7)
    z = complex_gaussian(rng, (20000,))
    assert z.dtype == complex
    # E|z|^2 = 1 for (x + iy)/sqrt(2) with x, y standard normal
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.05


def test_haar_unitary_is_unitary():
    rng = SeededRng(11)
    for n in (2, 5, 16):
        u = haar_unitary(n, rng)
        assert u.shape == (n, n)
        assert unitarity_residual(u) <= UNITARITY_TOL
        assert_unitary(u)


def test_haar_unitaries_batch_matches_tolerance():
    rng = SeededRng(13)
    us = haar_stack(8, 6, rng)
    assert us.shape == (6, 8, 8)
    for u in us:
        assert unitarity_residual(u) <= UNITARITY_TOL


def test_haar_phase_convention_diagonal_positive():
    # with the R-diagonal phase fixed, Q^dag Z has positive real diagonal
    rng = SeededRng(17)
    z = complex_gaussian(rng, (6, 6))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    u = q / (d / np.abs(d))
    rr = u.conj().T @ z
    assert np.all(rr.diagonal().real > 0)
    assert np.max(np.abs(rr.diagonal().imag)) < 1e-10


def test_haar_eigenphase_uniformity():
    # eigenvalue angles of Haar unitaries are uniform on the circle;
    # check first circular moment is near zero
    rng = SeededRng(19)
    us = haar_stack(12, 400, rng)
    phases = np.angle(np.linalg.eigvals(us)).ravel()
    m1 = np.mean(np.exp(1j * phases))
    assert abs(m1) < 0.05


def test_haar_invariance_under_fixed_rotation():
    # V @ U has the same distribution as U; compare trace moments
    rng = SeededRng(23)
    v = haar_unitary(6, rng)
    us = haar_stack(6, 3000, SeededRng(23, 1))
    t0 = np.einsum("kii->k", us)
    t1 = np.einsum("kii->k", v[None] @ us)
    # E|tr U|^2 = 1 for Haar; both estimates agree within sampling error
    assert abs(np.mean(np.abs(t0) ** 2) - 1.0) < 0.1
    assert abs(np.mean(np.abs(t1) ** 2) - 1.0) < 0.1


@pytest.mark.parametrize("n", [2, 3, 8])
def test_sampler_has_the_haar_moments(n):
    # Haar moments that need no QR: E|tr U^k|^2 = min(k, n) for k <= 3
    # (Diaconis-Shahshahani), and per entry E|U_ij|^2 = 1/n and
    # E|U_ij|^4 = 2/(n(n+1)); each mean within 5 standard errors
    sampler, gen = matrixcore._HaarSampler(n), np.random.default_rng(100 + n)
    count, chunks = 20_000, 10
    sums, squares = 0.0, 0.0
    for _ in range(chunks):
        u = sampler.fill(np.empty((count, n, n), dtype=complex), gen)
        power, stats = u, []
        for _ in range(3):
            stats.append(np.abs(np.einsum("kii->k", power)) ** 2)
            power = power @ u
        e2 = (u.real**2 + u.imag**2).reshape(count, n * n)
        x = np.concatenate([np.stack(stats, axis=1), e2, e2**2], axis=1)
        sums, squares = sums + x.sum(axis=0), squares + (x**2).sum(axis=0)
    total = count * chunks
    mean = sums / total
    stderr = np.sqrt((squares / total - mean**2) / (total - 1))
    want = np.concatenate([[1, min(2, n), min(3, n)], np.full(n * n, 1 / n), np.full(n * n, 2 / (n * (n + 1)))])
    assert np.all(np.abs(mean - want) <= 5 * stderr), np.max(np.abs(mean - want) / stderr)


def test_sampler_gufunc_and_a_large_stack():
    # the sampler forms Q with numpy's private batched zungqr, the second
    # half of np.linalg.qr; a numpy that renames or reshapes it fails here
    gufunc = getattr(np.linalg._umath_linalg, "qr_reduced", None)
    assert gufunc is not None and gufunc.signature == "(m,n),(k)->(m,k)"
    us = matrixcore._HaarSampler(128).fill(np.empty((3, 128, 128), dtype=complex), np.random.default_rng(0))
    for u in us:
        assert unitarity_residual(u) <= UNITARITY_TOL


def test_assert_unitary_rejects_non_unitary():
    m = np.eye(4, dtype=complex)
    m[0, 0] = 1.5
    with pytest.raises(ValidationError):
        assert_unitary(m)
