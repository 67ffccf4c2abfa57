import numpy as np
import pytest

from oracle_mc import haar_stack
from qexpander.channel import Channel, apply, build_channel
from qexpander.errors import ValidationError
from qexpander.matrixcore import SeededRng


def test_hermitian_build_shapes_and_pairing():
    chan = build_channel("hermitian", 8, 6, SeededRng(1))
    assert chan.dim == 8 and chan.kraus_count == 6 and chan.hermitian
    assert np.allclose(chan.weights, np.full(6, 1 / 6))
    for s in range(3):
        assert np.allclose(chan.unitaries[s + 3], chan.unitaries[s].conj().T)


def test_hermitian_needs_even_d_at_least_4():
    with pytest.raises(ValidationError):
        build_channel("hermitian", 8, 3, SeededRng(1))
    with pytest.raises(ValidationError):
        build_channel("hermitian", 8, 2, SeededRng(1))


def test_nonhermitian_allows_d2():
    chan = build_channel("nonhermitian", 8, 2, SeededRng(2))
    assert chan.kraus_count == 2 and not chan.hermitian


def test_unital_and_trace_preserving():
    # uniform unitary mixtures fix the identity and preserve traces
    for chan in (
        build_channel("hermitian", 10, 4, SeededRng(3)),
        build_channel("nonhermitian", 10, 3, SeededRng(4)),
    ):
        eye = np.eye(10, dtype=complex)
        assert np.linalg.norm(apply(chan, eye) - eye) < 1e-12
        g = SeededRng(5).generator
        m = g.standard_normal((10, 10)) + 1j * g.standard_normal((10, 10))
        assert abs(np.trace(apply(chan, m)) - np.trace(m)) < 1e-10


def test_apply_linearity():
    chan = build_channel("hermitian", 6, 4, SeededRng(6))
    g = SeededRng(7).generator
    a = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
    b = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
    lhs = apply(chan, 2.0 * a - 1j * b)
    rhs = 2.0 * apply(chan, a) - 1j * apply(chan, b)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_apply_hermiticity_preserved():
    chan = build_channel("hermitian", 6, 4, SeededRng(8))
    g = SeededRng(9).generator
    h = g.standard_normal((6, 6))
    h = h + h.T
    out = apply(chan, h.astype(complex))
    assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_apply_takes_a_stack_of_matrices():
    chan = Channel(haar_stack(5, 3, SeededRng(30)), np.array([0.5, 0.3, 0.2]), hermitian=False)
    g = SeededRng(31).generator
    ms = g.standard_normal((2, 3, 5, 5)) + 1j * g.standard_normal((2, 3, 5, 5))
    stacked = apply(chan, ms)
    assert stacked.shape == (2, 3, 5, 5)
    for i in range(2):
        for j in range(3):
            m = ms[i, j]
            assert np.max(np.abs(stacked[i, j] - apply(chan, m))) <= 1e-15
            # the Kraus sum written out term by term
            terms = [w * (u.conj().T @ m @ u) for w, u in zip(chan.weights, chan.unitaries)]
            assert np.max(np.abs(stacked[i, j] - sum(terms))) <= 1e-15
    with pytest.raises(ValidationError):
        apply(chan, np.zeros((2, 4, 4)))


def test_build_weighted_validates_weights():
    us = haar_stack(5, 2, SeededRng(10))
    with pytest.raises(ValidationError):
        Channel(us, np.array([0.7, 0.7]), hermitian=False)
    with pytest.raises(ValidationError):
        Channel(us, np.array([1.2, -0.2]), hermitian=False)


def test_build_weighted_hermitian_checks_adjoint_pairing():
    us = haar_stack(5, 4, SeededRng(11))
    # unpaired factors must be rejected when hermitian is claimed
    with pytest.raises(ValidationError):
        Channel(us, np.full(4, 0.25), hermitian=True)
    paired = np.empty_like(us)
    paired[0], paired[1] = us[0], us[1]
    paired[2], paired[3] = us[0].conj().T, us[1].conj().T
    chan = Channel(paired, np.array([0.3, 0.2, 0.3, 0.2]), hermitian=True)
    assert chan.hermitian


def test_weight_pairing_enforced_for_hermitian():
    us = haar_stack(5, 2, SeededRng(12))
    paired = np.concatenate([us, us.conj().swapaxes(1, 2)])
    with pytest.raises(ValidationError, match="weight pairing"):
        Channel(paired, np.array([0.3, 0.2, 0.2, 0.3]), hermitian=True)


def test_channel_arrays_read_only():
    chan = build_channel("hermitian", 6, 4, SeededRng(13))
    with pytest.raises(ValueError):
        chan.unitaries[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        chan.weights[0] = 0.5


def test_channel_rejects_a_bad_stack():
    us = haar_stack(4, 2, SeededRng(16))
    w = np.full(2, 0.5)
    corrupt = us.copy()
    corrupt[0, 0, 0] = 2.0
    with pytest.raises(ValidationError, match="not unitary"):
        Channel(corrupt, w, hermitian=False)
    corrupt[0, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        Channel(corrupt, w, hermitian=False)
    for shape in [(4, 4), (2, 4, 3), (1, 2, 4, 4)]:
        with pytest.raises(ValidationError, match="stack"):
            Channel(np.zeros(shape, dtype=complex), w, hermitian=False)
