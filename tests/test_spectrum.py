import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qexpander
from oracle_mc import haar_stack
from oracle_superop import faithfulness_residual, full_superoperator, superoperator, unvec, vec
from qexpander import spectrum
from qexpander.channel import DEFAULT_DIM_CEILING, Channel, apply, build_channel
from qexpander.cli import main
from qexpander.errors import NumericalError, ValidationError
from qexpander.matrixcore import SeededRng
from qexpander.spectrum import (
    MomentRow,
    benchmark_values,
    eigen_spectrum,
    moment_table,
    real_superoperator,
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


# ---------------------------------------------------------------------------
# R built and solved in one buffer


def _numpy_bundles_openblas() -> bool:
    config = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return config.get("name") == "scipy-openblas"


@pytest.mark.parametrize(
    "construction, n, seed",
    [
        ("hermitian", 20, (4, 0)),  # criterion 10's N=20 and N=30 curves
        ("hermitian", 30, (4, 1)),
        ("hermitian", 50, (0, 0)),  # criterion 1's first channel, criterion 10's N=50 curve
        ("weighted", 30, (4, 2)),
        ("nonhermitian", 30, (1, 0)),  # criterion 7's seeds at smaller N
        ("nonhermitian", 40, (1, 1)),
    ],
)
def test_in_place_eigenvalues_are_the_bits_of_np_linalg(construction, n, seed, monkeypatch):
    chan = build_channel(construction, n, 4, SeededRng(*seed))
    block = real_superoperator(chan)[1:, 1:].copy()
    want = np.linalg.eigvalsh(block) if chan.hermitian else np.linalg.eigvals(block)
    lapack = "lapack" if spectrum._lapacke_eigensolvers() is not None else "numpy"
    for expected_solver in (lapack, "numpy"):
        if expected_solver == "numpy":
            monkeypatch.setattr(spectrum, "_lapacke_eigensolvers", lambda: None)
        got, solver = spectrum._traceless_eigenvalues(spectrum._image_coords(chan), chan)
        assert solver == expected_solver
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "construction, n, seed",
    [
        ("hermitian", 50, (0, 0)),  # criterion 1's first channel, criterion 10's N=50 curve
        ("hermitian", 20, (4, 0)),  # criterion 10's N=20 and N=30 curves
        ("hermitian", 30, (4, 1)),
        ("weighted", 17, (2, 1)),
        ("hermitian", 2, (2,)),
        ("hermitian", 17, (2,)),
        ("nonhermitian", 40, (1, 1)),
    ],
)
def test_mapped_build_and_eigenvalues_are_the_bits_of_the_one_piece_build(construction, n, seed, monkeypatch):
    # the oracle builds R in one piece on the heap; the stored half of a
    # Hermitian R (the row tails of R^T), all of a general R and the sorted
    # spectrum carry its bytes, on the LAPACKE path and on np.linalg's
    chan = build_channel(construction, n, 4, SeededRng(*seed))
    want = full_superoperator(chan)
    stored = spectrum._image_coords(chan)
    assert stored.flags.c_contiguous
    if chan.hermitian:
        assert all(stored[b, b:].tobytes() == want[b:, b].tobytes() for b in range(n * n))
    else:
        assert stored.tobytes() == want.T.tobytes()
    del stored
    rest = np.linalg.eigvalsh(want[1:, 1:]) if chan.hermitian else np.linalg.eigvals(want[1:, 1:])
    eigs = np.concatenate([[complex(want[0, 0])], rest.astype(complex)])
    eigs = eigs[np.argsort(-eigs.real if chan.hermitian else -np.abs(eigs), kind="stable")]
    lapack = "lapack" if spectrum._lapacke_eigensolvers() is not None else "numpy"
    for expected_solver in (lapack, "numpy"):
        if expected_solver == "numpy":
            monkeypatch.setattr(spectrum, "_lapacke_eigensolvers", lambda: None)
        spec = eigen_spectrum(chan)
        assert spec.solver == expected_solver and spec.eigenvalues.tobytes() == eigs.tobytes()


def _dense_solve_peak_bytes(construction: str) -> int:
    # Peak resident set (VmHWM) of one N=40 eigen_spectrum in a fresh
    # process, above the resident set (VmRSS) before the call. ru_maxrss
    # would not do: a child started from a large process can inherit that
    # process's peak, and imports can leave a peak above the resident set.
    script = (
        "from qexpander.channel import build_channel\n"
        "from qexpander.matrixcore import SeededRng\n"
        "from qexpander.spectrum import eigen_spectrum\n"
        "def status_kb(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(line.split()[1]) for line in fh if line.startswith(key + ':'))\n"
        f"chan = build_channel({construction!r}, 40, 4, SeededRng(1))\n"
        "live = status_kb('VmRSS')\n"
        "eigen_spectrum(chan)\n"
        "print((status_kb('VmHWM') - live) * 1024)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(qexpander.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_one_dense_solve_holds_one_copy_of_r():
    # R is 20.5 MB at N=40. Only the row tails of a Hermitian R are written
    # and solved in place: 4 KB pages holding part of a tail make 15.5 MB
    # (0.755 R), and the call measured 17.5 MB (0.85 R) with the build's
    # heap temporaries and LAPACK's workspace. A full R solved in place
    # measured 23.3 MB (1.14 R). The bound, 0.95 R, leaves 2 MB.
    if spectrum._lapacke_eigensolvers() is None:
        pytest.skip("no LAPACKE symbols in the loaded BLAS: R' is solved on a copy")
    assert _dense_solve_peak_bytes("hermitian") <= 0.95 * 8 * 40**4


def test_one_general_dense_solve_holds_one_copy_of_r():
    # A general R is all written; dgeev's workspace and Hessenberg
    # reduction come on top. Measured 26.4 MB (1.29 R); with R' copied for
    # np.linalg it would hold two copies. The bound, 1.4 R, leaves 2.3 MB.
    if spectrum._lapacke_eigensolvers() is None:
        pytest.skip("no LAPACKE symbols in the loaded BLAS: R' is solved on a copy")
    assert _dense_solve_peak_bytes("nonhermitian") <= 1.4 * 8 * 40**4


@pytest.mark.parametrize("construction", ["hermitian", "nonhermitian"])
@pytest.mark.parametrize(
    "failure", [OSError(errno.ENOMEM, "Cannot allocate memory"), MemoryError()], ids=["oserror", "memoryerror"]
)
def test_failed_mapping_of_r_ends_with_out_of_memory(construction, failure, monkeypatch, tmp_path, capsys):
    def refuse(*args):
        raise failure

    monkeypatch.setattr(spectrum.mmap, "mmap", refuse)
    assert main(["spectrum", "--construction", construction, "--n", "6", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory") and len(captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("construction", ["hermitian", "nonhermitian"])
def test_lapack_failure_ends_with_exit_3(construction, monkeypatch, tmp_path, capsys):
    def no_convergence(*args):
        return 1  # INFO > 0

    monkeypatch.setattr(spectrum, "_lapacke_eigensolvers", lambda: (no_convergence, no_convergence))
    assert main(["spectrum", "--construction", construction, "--n", "6", "--out", str(tmp_path)]) == 3
    assert "LAPACK info 1" in capsys.readouterr().err


@pytest.mark.skipif(not _numpy_bundles_openblas(), reason="numpy is not built with its bundled OpenBLAS")
def test_bundled_openblas_exports_the_lapacke_pair(tmp_path, capsys):
    assert spectrum._lapacke_eigensolvers() is not None
    assert main(["spectrum", "--n", "4", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["solver"] == "lapack"
