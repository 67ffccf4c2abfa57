import json

import numpy as np
import pytest

from oracle_mc import haar_stack
from qexpander.channel import (
    Channel,
    apply,
    build_hermitian_random,
    build_nonhermitian_random,
    build_weighted,
    dumps,
    loads,
)
from qexpander.errors import ValidationError
from qexpander.matrixcore import SeededRng


def test_hermitian_build_shapes_and_pairing():
    chan = build_hermitian_random(8, 6, SeededRng(1))
    assert chan.dim == 8 and chan.kraus_count == 6 and chan.hermitian
    assert np.allclose(chan.weights, np.full(6, 1 / 6))
    for s in range(3):
        assert np.allclose(chan.unitaries[s + 3], chan.unitaries[s].conj().T)


def test_hermitian_needs_even_d_at_least_4():
    with pytest.raises(ValidationError):
        build_hermitian_random(8, 3, SeededRng(1))
    with pytest.raises(ValidationError):
        build_hermitian_random(8, 2, SeededRng(1))


def test_nonhermitian_allows_d2():
    chan = build_nonhermitian_random(8, 2, SeededRng(2))
    assert chan.kraus_count == 2 and not chan.hermitian


def test_unital_and_trace_preserving():
    # uniform unitary mixtures fix the identity and preserve traces
    for chan in (
        build_hermitian_random(10, 4, SeededRng(3)),
        build_nonhermitian_random(10, 3, SeededRng(4)),
    ):
        eye = np.eye(10, dtype=complex)
        assert np.linalg.norm(apply(chan, eye) - eye) < 1e-12
        g = SeededRng(5).generator
        m = g.standard_normal((10, 10)) + 1j * g.standard_normal((10, 10))
        assert abs(np.trace(apply(chan, m)) - np.trace(m)) < 1e-10


def test_apply_linearity():
    chan = build_hermitian_random(6, 4, SeededRng(6))
    g = SeededRng(7).generator
    a = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
    b = g.standard_normal((6, 6)) + 1j * g.standard_normal((6, 6))
    lhs = apply(chan, 2.0 * a - 1j * b)
    rhs = 2.0 * apply(chan, a) - 1j * apply(chan, b)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_apply_hermiticity_preserved():
    chan = build_hermitian_random(6, 4, SeededRng(8))
    g = SeededRng(9).generator
    h = g.standard_normal((6, 6))
    h = h + h.T
    out = apply(chan, h.astype(complex))
    assert np.linalg.norm(out - out.conj().T) < 1e-12


def test_apply_takes_a_stack_of_matrices():
    chan = build_weighted(haar_stack(5, 3, SeededRng(30)), np.array([0.5, 0.3, 0.2]), hermitian=False)
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
        build_weighted(us, np.array([0.7, 0.7]), hermitian=False)
    with pytest.raises(ValidationError):
        build_weighted(us, np.array([1.2, -0.2]), hermitian=False)


def test_build_weighted_hermitian_checks_adjoint_pairing():
    us = haar_stack(5, 4, SeededRng(11))
    # unpaired factors must be rejected when hermitian is claimed
    with pytest.raises(ValidationError):
        build_weighted(us, np.full(4, 0.25), hermitian=True)
    paired = np.empty_like(us)
    paired[0], paired[1] = us[0], us[1]
    paired[2], paired[3] = us[0].conj().T, us[1].conj().T
    chan = build_weighted(paired, np.array([0.3, 0.2, 0.3, 0.2]), hermitian=True)
    assert chan.hermitian


def test_weight_pairing_enforced_for_hermitian():
    us = haar_stack(5, 2, SeededRng(12))
    paired = np.stack([us[0], us[0].conj().T])
    with pytest.raises(ValidationError):
        build_weighted(paired, np.array([0.6, 0.4]), hermitian=True)


def test_channel_arrays_read_only():
    chan = build_hermitian_random(6, 4, SeededRng(13))
    with pytest.raises(ValueError):
        chan.unitaries[0, 0, 0] = 0.0
    with pytest.raises(ValueError):
        chan.weights[0] = 0.5


def test_json_round_trip():
    chan = build_hermitian_random(5, 4, SeededRng(14))
    text = dumps(chan)
    back = loads(text)
    assert back == chan
    payload = json.loads(text)
    assert payload["dim"] == 5 and payload["kraus_count"] == 4
    assert payload["hermitian"] is True


def test_json_round_trip_weighted_nonhermitian():
    us = haar_stack(4, 3, SeededRng(15))
    w = np.array([0.5, 0.25, 0.25])
    chan = build_weighted(us, w, hermitian=False)
    assert loads(dumps(chan)) == chan


def test_loads_rejects_corrupt_unitaries():
    chan = build_nonhermitian_random(4, 2, SeededRng(16))
    payload = json.loads(dumps(chan))
    payload["unitaries"][0][0][0] = [2.0, 0.0]
    with pytest.raises(ValidationError):
        loads(json.dumps(payload))


def test_loads_rejects_malformed_complex_pair():
    chan = build_nonhermitian_random(4, 2, SeededRng(16))
    payload = json.loads(dumps(chan))
    payload["unitaries"][0][0][0] = [1.0, 0.0, 0.0]
    with pytest.raises(ValidationError):
        loads(json.dumps(payload))


def test_seed_recorded_but_not_compared():
    a = build_hermitian_random(5, 4, SeededRng(17))
    b = loads(dumps(a))
    assert a.seed is not None and b.seed is None
    assert a == b
