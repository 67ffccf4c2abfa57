import numpy as np
import pytest

from oracle_mc import haar_stack
from oracle_superop import faithfulness_residual, superoperator, unvec, vec
from qexpander.channel import DEFAULT_DIM_CEILING, Channel, apply, build_channel
from qexpander.errors import NumericalError, ValidationError
from qexpander.matrixcore import SeededRng
from qexpander.spectrum import (
    MomentRow,
    benchmark_values,
    eigen_spectrum,
    moment_table,
    write_spectrum_csv,
)


def test_vec_unvec_round_trip_column_major():
    m = np.arange(9, dtype=complex).reshape(3, 3)
    v = vec(m)
    # column stacking: first column first
    assert np.array_equal(v[:3], m[:, 0])
    assert np.array_equal(unvec(v, 3), m)


def test_superoperator_matches_channel_action():
    for seed, construction, d in ((1, "hermitian", 4), (2, "nonhermitian", 3)):
        chan = build_channel(construction, 8, d, SeededRng(seed))
        s = superoperator(chan)
        g = SeededRng(seed + 10).generator
        m = g.standard_normal((8, 8)) + 1j * g.standard_normal((8, 8))
        assert np.linalg.norm(s @ vec(m) - vec(apply(chan, m))) < 1e-10
        assert faithfulness_residual(chan, s, m) < 1e-12


def test_superoperator_hermitian_iff_channel_hermitian():
    h = superoperator(build_channel("hermitian", 6, 4, SeededRng(3)))
    assert np.linalg.norm(h - h.conj().T) < 1e-12
    n = superoperator(build_channel("nonhermitian", 6, 3, SeededRng(4)))
    assert np.linalg.norm(n - n.conj().T) > 1e-3


def test_unit_eigenvector_identity():
    chan = build_channel("hermitian", 7, 4, SeededRng(5))
    s = superoperator(chan)
    v = vec(np.eye(7, dtype=complex)) / np.sqrt(7)
    assert np.linalg.norm(s @ v - v) < 1e-12


def test_eigen_spectrum_hermitian_fields():
    chan = build_channel("hermitian", 9, 4, SeededRng(6))
    spec = eigen_spectrum(chan)
    assert spec.hermitian and spec.dim == 9
    assert spec.eigenvalues.shape == (81,)
    # sorted by descending real part, all imag parts negligible
    assert np.all(np.diff(spec.eigenvalues.real) <= 1e-12)
    assert np.max(np.abs(spec.eigenvalues.imag)) <= 1e-8
    assert abs(spec.removed_eigenvalue - 1) < 1e-10
    assert 0 < spec.lambda2 < 1
    assert spec.unit_eigvec_residual < 1e-10


def test_eigen_spectrum_nonhermitian_sorted_by_modulus():
    chan = build_channel("nonhermitian", 9, 3, SeededRng(7))
    spec = eigen_spectrum(chan)
    assert not spec.hermitian
    mods = np.abs(spec.eigenvalues)
    assert np.all(np.diff(mods) <= 1e-12)
    assert abs(spec.removed_eigenvalue - 1) < 1e-10


def test_lambda2_removes_exactly_one_unit_eigenvalue():
    # identity channel: every eigenvalue is 1; lambda2 must stay 1
    eye = np.eye(5, dtype=complex)
    us = np.stack([eye, eye, eye, eye])
    chan = Channel(us, np.full(4, 0.25), hermitian=True)
    spec = eigen_spectrum(chan)
    assert abs(spec.lambda2 - 1.0) < 1e-12
    assert spec.eigenvalues.shape == (25,)


def test_dim_ceiling_enforced(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a random number was drawn")

    rng = SeededRng(8)
    monkeypatch.setattr(SeededRng, "generator", property(no_draw))
    with pytest.raises(ValidationError):
        build_channel("hermitian", DEFAULT_DIM_CEILING + 1, 4, rng)


def test_moment_trace_matches_eigenvalue_power_sum():
    chan = build_channel("hermitian", 8, 4, SeededRng(9))
    spec = eigen_spectrum(chan)
    for row in moment_table(chan, (2, 4, 6)):
        want = float(np.sum(spec.eigenvalues.real**row.m))
        assert abs(row.moment_trace - want) < 1e-8 * max(1.0, want)


def test_moment_trace_rejects_odd_or_nonhermitian():
    # the trace route is Hermitian-only at even m; other rows carry no trace
    (row,) = moment_table(build_channel("hermitian", 6, 4, SeededRng(10)), [3])
    assert row.moment_trace is None and row.lambda2_estimate is None
    (row,) = moment_table(build_channel("nonhermitian", 6, 3, SeededRng(11)), [2])
    assert row.moment_trace is None and row.lambda2_estimate is None


def test_estimate_lambda2_converges_from_above():
    chan = build_channel("hermitian", 10, 4, SeededRng(12))
    spec = eigen_spectrum(chan)
    estimates = [row.lambda2_estimate for row in moment_table(chan, (4, 8, 12, 16))]
    # (tr S^m - 1)^(1/m) decreases toward |lambda_2| as m grows
    assert all(a >= b - 1e-12 for a, b in zip(estimates, estimates[1:]))
    assert all(e >= spec.lambda2 - 1e-9 for e in estimates)
    assert estimates[-1] - spec.lambda2 < 0.25


def test_frobenius_moment_identities():
    chan = build_channel("hermitian", 8, 4, SeededRng(13))
    rows = {row.m: row for row in moment_table(chan, range(1, 7))}
    # hermitian S: tr((S^dag)^m S^m) = tr(S^(2m))
    for m in (1, 2, 3):
        assert abs(rows[m].frobenius_moment - rows[2 * m].moment_trace) < 1e-8
    n2 = 8 * 8
    for row in rows.values():
        assert row.frobenius_moment >= n2 * 4.0**-row.m - 1e-9
        assert row.frobenius_moment >= 1.0 - 1e-12


def test_benchmark_values():
    b = benchmark_values(4)
    assert abs(b.lambda_H - 2 * np.sqrt(3) / 4) < 1e-15
    assert abs(b.lambda_nH - 0.5) < 1e-15
    with pytest.raises(ValidationError):
        benchmark_values(1)


def test_spectrum_csv_schema(tmp_path):
    chan = build_channel("hermitian", 5, 4, SeededRng(14))
    spec = eigen_spectrum(chan)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,a_over_N2,eig_re,eig_im,eig_abs"
    assert len(lines) == 1 + 25
    first = lines[1].split(",")
    assert first[0] == "1"
    assert abs(float(first[1]) - 1 / 25) < 1e-12
    assert abs(float(first[2]) - 1.0) < 1e-9  # top eigenvalue is the unit one
    ranks = [int(row.split(",")[0]) for row in lines[1:]]
    assert ranks == list(range(1, 26))


def test_nan_weights_rejected_before_solver():
    us = haar_stack(4, 2, SeededRng(15))
    with pytest.raises(ValidationError):
        Channel(us, np.array([np.nan, 1.0]), hermitian=False)


def test_estimate_rejects_moment_at_most_one():
    # a real channel cannot yield tr S^m <= 1 (unit eigenvalue), so build
    # the row by hand to exercise the guard
    row = MomentRow(m=2, moment_trace=0.5, frobenius_moment=1.0)
    with pytest.raises(NumericalError):
        row.lambda2_estimate
