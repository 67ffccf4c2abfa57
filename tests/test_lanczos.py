"""spectrum.krylov_lambda2 on Hermitian channels against the dense eigh it replaced.

The oracle is `dense_top_eigenpair` in tests/oracle_superop.py. Tolerances:
1e-12 on lambda2, theta and theta_min, 1e-8 entrywise on the signed eigenvector,
1e-10 on the chain inequality's lhs.
"""

import math

import numpy as np
import pytest

from oracle_mc import haar_stack
from oracle_superop import dense_top_eigenpair, hermitian_coords
from qexpander.channel import Channel, build_channel
from qexpander.edgex import tanner_chain_check
from qexpander.matrixcore import SeededRng
from qexpander.spectrum import krylov_lambda2

LAMBDA2_AGREE = 1e-12
VECTOR_AGREE = 1e-8
LHS_AGREE = 1e-10


def assert_matches_dense(chan, top):
    want = dense_top_eigenpair(chan)
    assert abs(top.lambda2 - want.lambda2) <= LAMBDA2_AGREE
    assert abs(top.theta - want.theta) <= LAMBDA2_AGREE
    assert abs(top.theta_min - want.theta_min) <= LAMBDA2_AGREE
    assert np.max(np.abs(top.vector - want.vector)) <= VECTOR_AGREE
    return want


def test_lambda2_and_eigenpair_on_criterion_1_channels(herm50):
    # the fixture's dense eigenvalues are the oracle: no further dense solve.
    # The eigenvector is held by the Davis-Kahan bound: the angle between
    # a unit x and the top eigenvector is at most |R'x - theta x| / gap.
    rows, _ = herm50
    for _, chan, spec in rows:
        top = krylov_lambda2(chan)
        assert abs(top.lambda2 - spec.lambda2) <= LAMBDA2_AGREE
        rest = np.sort(np.delete(spec.eigenvalues.real, 0))  # drop R_00, sorted first
        assert abs(top.theta - rest[-1]) <= LAMBDA2_AGREE
        assert abs(top.theta_min - rest[0]) <= LAMBDA2_AGREE
        distance = math.sqrt(2.0) * top.residual / (rest[-1] - rest[-2] - LAMBDA2_AGREE)
        assert distance <= VECTOR_AGREE
        # the largest |coordinate| leads the next by more than twice the
        # distance, so the dense vector's sign rule picks the same sign
        c = hermitian_coords(top.vector)
        first, second = np.sort(np.abs(c))[[-1, -2]]
        assert c[np.argmax(np.abs(c))] > 0.0 and first - second > 2.0 * distance


def test_lambda2_eigenpair_and_chain_on_criterion_9_channels(edge_channels):
    for chan in edge_channels:
        top = krylov_lambda2(chan)
        assert top.residual <= 1e-12
        want = assert_matches_dense(chan, top)
        lhs = tanner_chain_check(chan, top).lhs
        assert abs(lhs - tanner_chain_check(chan, want).lhs) <= LHS_AGREE


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_termination_at_small_n(n):
    for seed in range(3):
        chan = build_channel("hermitian", n, 4, SeededRng(50 + seed, n))
        top = krylov_lambda2(chan)
        # the Krylov space is exhausted or invariant within N^2 - 1 steps
        assert top.steps <= n * n - 1
        assert top.residual <= 1e-12
        want = dense_top_eigenpair(chan)
        assert abs(top.lambda2 - want.lambda2) <= LAMBDA2_AGREE
        assert abs(top.theta - want.theta) <= LAMBDA2_AGREE


def clustered_channel(n):
    """Pair weights 0.49 and 0.01: nearly one unitary's conjugation,
    whose spectrum clusters at +-1."""
    us = haar_stack(n, 2, SeededRng(60))
    us = np.concatenate([us, us.conj().swapaxes(-1, -2)])
    return Channel(us, np.array([0.49, 0.01, 0.49, 0.01]))


@pytest.mark.parametrize("n, min_steps", [(12, 143), (24, 16 * 24 + 1)])
def test_clustered_channel_converges_by_lanczos_and_matches_dense(n, min_steps):
    # N=12 spans the whole traceless space; N=24 runs past 16N steps,
    # which up to N=64 do not limit the solve
    chan = clustered_channel(n)
    top = krylov_lambda2(chan)
    assert min_steps <= top.steps <= n * n - 1
    assert top.residual <= 1e-12
    want = assert_matches_dense(chan, top)
    lhs = tanner_chain_check(chan, top).lhs
    assert abs(lhs - tanner_chain_check(chan, want).lhs) <= LHS_AGREE
