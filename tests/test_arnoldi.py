"""spectrum.krylov_lambda2 on general channels against the dense eigvals it replaced.

The oracle is `eigen_spectrum`, the dense solve of every eigenvalue of
R'. Tolerance: 1e-12 on lambda2.
"""

import json
import math

import numpy as np
import pytest

from oracle_mc import haar_stack
from qexpander import spectrum
from qexpander.channel import Channel, build_channel
from qexpander.cli import main
from qexpander.errors import NumericalError
from qexpander.matrixcore import SeededRng
from qexpander.spectrum import eigen_spectrum, krylov_lambda2

LAMBDA2_AGREE = 1e-12


def test_lambda2_on_criterion_7_channels(nonherm50):
    # the fixture's dense spectra are the oracle: no further dense solve
    for chan, spec in nonherm50:
        dom = krylov_lambda2(chan)
        assert dom.estimate <= 1e-12
        assert abs(dom.lambda2 - spec.lambda2) <= LAMBDA2_AGREE


@pytest.mark.parametrize("n", [2, 3, 4])
def test_exact_termination_at_small_n(n):
    for seed in range(3):
        chan = build_channel("nonhermitian", n, 3, SeededRng(70 + seed, n))
        dom = krylov_lambda2(chan)
        # the Krylov space is exhausted or invariant within N^2 - 1 steps
        assert dom.steps <= n * n - 1
        assert abs(dom.lambda2 - eigen_spectrum(chan).lambda2) <= LAMBDA2_AGREE


@pytest.mark.parametrize("d", [2, 3])
def test_few_kraus_terms_against_dense(d):
    for n in range(6, 17, 2):
        chan = build_channel("nonhermitian", n, d, SeededRng(80 + d, n))
        dom = krylov_lambda2(chan)
        assert abs(dom.lambda2 - eigen_spectrum(chan).lambda2) <= LAMBDA2_AGREE


def test_one_entry_point_picks_the_solver_by_the_channel():
    herm = build_channel("hermitian", 12, 4, SeededRng(90))
    top = krylov_lambda2(herm)
    x = top.vector
    assert top.solver == "lanczos" and top.residual <= 1e-12
    assert np.array_equal(x, x.conj().T) and abs(np.trace(x)) <= 1e-12
    general = build_channel("nonhermitian", 12, 4, SeededRng(90))
    dom = krylov_lambda2(general)
    assert dom.solver == "arnoldi"
    assert dom.theta_min is None and dom.vector is None and dom.residual is None
    for chan, solve in ((herm, top), (general, dom)):
        assert abs(solve.lambda2 - eigen_spectrum(chan).lambda2) <= LAMBDA2_AGREE


def lopsided_channel(n):
    """Two Haar unitaries at weights (0.9, 0.1): a general channel whose
    solve runs all N^2 - 1 steps."""
    return Channel(haar_stack(n, 2, SeededRng(60)), np.array([0.9, 0.1]))


@pytest.mark.parametrize("lopsided, min_steps", [(False, 1), (True, 16 * 24 + 1)])
def test_matches_dense(lopsided, min_steps):
    # the lopsided channel runs past 16N steps, which up to N=64 do not limit the solve
    chan = lopsided_channel(24) if lopsided else build_channel("nonhermitian", 12, 3, SeededRng(91))
    dom = krylov_lambda2(chan)
    assert min_steps <= dom.steps <= chan.dim**2 - 1 and dom.estimate <= 1e-12
    assert abs(dom.lambda2 - eigen_spectrum(chan).lambda2) <= LAMBDA2_AGREE


def test_unconverged_past_the_dense_ceiling_raises(monkeypatch):
    monkeypatch.setattr(spectrum, "KRYLOV_BUDGET_SCALE", 1)
    chan = build_channel("nonhermitian", 65, 2, SeededRng(92), "matrix-free")
    with pytest.raises(NumericalError, match="Arnoldi did not converge in 65 steps at N=65"):
        krylov_lambda2(chan)


def test_unconverged_sweep_record_fails_and_the_sweep_continues(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(spectrum, "KRYLOV_BUDGET_SCALE", 1)
    argv = ["sweep", "--n-list", "65,8", "--d", "2", "--construction", "nonhermitian", "--out", str(tmp_path)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["records"] == 2 and report["failed"] == 1
    # at N=8 the limit is N^2 - 1 = 63 steps whatever the budget scale
    assert report["solvers"] == {"arnoldi": 1} and 8 < report["max_steps"] <= 63
    (line,) = captured.err.splitlines()
    assert line.startswith("record (N=65, trial=0) failed: Arnoldi did not converge in 65 steps at N=65")
    rows = [r.split(",") for r in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    assert rows[0][4] == "nan" and 0.0 < float(rows[1][4]) < 1.0


def test_next_check_spacing_is_bounded():
    # at least k/16 and at most k steps on, so the checks' O(k^3) solves
    # cost a bounded multiple of the last one
    for k in (20, 100, 640):
        assert spectrum._next_check(k, 1e-3, None) == 2 * k
        assert spectrum._next_check(k, 1e-3, (k // 2, 1e-2)) == 2 * k  # slow decay: capped
        assert spectrum._next_check(k, 2e-12, (k // 2, 1e-2)) == k + math.ceil(k / 16)
        ahead = spectrum._next_check(k, 1e-6, (k - 10, 1e-7)) - k  # estimate rose
        assert ahead == k


def test_nonhermitian_sweep_past_the_dense_ceiling(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sweep", "--n-list", "72", "--construction", "nonhermitian", "--seed", "1",
                 "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["failed"] == 0 and report["solvers"] == {"arnoldi": 1}
    row = (out / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "72" and row[8] == ""
    assert 0.0 < float(row[4]) < 1.0
