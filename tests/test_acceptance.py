"""Ten acceptance checks, one verdict line each.

Each test prints `criterion N: PASS/FAIL ...` through the conftest
recorder and then asserts. Tolerances are pinned here and nowhere else.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import record_verdict
from oracle_superop import superoperator, vec
from oracle_walks import enumerate_length_counts, return_count_upper_bound
from qexpander.cayley import alon_boppana_lower_bound, walk_counts
from qexpander.channel import apply, build_channel
from qexpander.cli import collapse_curve, emit_collapse, quantile_distance
from qexpander.edgex import converse_check, random_projector, tanner_chain_check
from qexpander.matrixcore import SeededRng
from qexpander.sdengine import (
    RationalInN,
    evaluate_exact,
    evaluate_series,
    monte_carlo_expectation,
    parse_trace_expr,
)
from qexpander.spectrum import eigen_spectrum, krylov_lambda2, moment_table

LAMBDA_H = 0.86603  # 2 sqrt(3)/4 to five places
MEDIAN_TOL = 0.05
SEED_TOL = 0.10
GAP_SLACK = 1e-9
NONHERM_CEILING = 0.62
FROB_SLACK = 1e-9
CONTRACT_TOL = 1e-10
SLACK_TOL = 1e-8
CHAIN_TOL = 1e-8
TRACE_RESIDUAL_TOL = 1e-8
COLLAPSE_TOL = 0.08
CRIT1_BUDGET_S = 300.0
CRIT5_BUDGET_S = 180.0

CORPUS = [
    ("tr(U1) tr(U1')", "1"),
    ("tr(U1 U1) tr(U1' U1')", "2"),
    ("tr(U1 U1 U1) tr(U1' U1' U1')", "3"),
    ("tr(U1 U1 U1 U1) tr(U1' U1' U1' U1')", "4"),
    ("tr(U1 U2) tr(U2' U1')", "1"),
    ("tr(U1 U2) tr(U1' U2')", "1"),
    ("tr(U1) tr(U1)", "0"),
    ("tr(U1 U2) tr(U2 U1)", "0"),
    ("tr(U1 U1 U2) tr(U2' U1' U1')", "1"),
]


def test_criterion_1_lambda2_concentration(herm50):
    rows, elapsed = herm50
    values = np.array([spec.lambda2 for _, _, spec in rows])
    median = float(np.median(values))
    worst = float(np.max(np.abs(values - LAMBDA_H)))
    ok = (
        abs(median - LAMBDA_H) <= MEDIAN_TOL
        and worst <= SEED_TOL
        and elapsed <= CRIT1_BUDGET_S
    )
    record_verdict(
        f"criterion 1: {'PASS' if ok else 'FAIL'} - median lambda2 {median:.5f} "
        f"(target {LAMBDA_H} +- {MEDIAN_TOL}), worst seed deviation {worst:.5f} "
        f"(<= {SEED_TOL}), runtime {elapsed:.1f}s (<= {CRIT1_BUDGET_S:.0f}s)"
    )
    assert ok


def test_criterion_2_alon_boppana(herm50):
    rows, _ = herm50
    bound = alon_boppana_lower_bound(50, 4, 20).value
    failures = 0
    margins = []
    for _, _, spec in rows:
        margins.append(spec.lambda2 - bound)
        if spec.lambda2 < bound - GAP_SLACK:
            failures += 1
    for k in range(5):
        chan = build_channel("weighted", 50, 4, SeededRng(2, k))
        spec = eigen_spectrum(chan)
        margins.append(spec.lambda2 - bound)
        if spec.lambda2 < bound - GAP_SLACK:
            failures += 1
    ok = failures == 0
    record_verdict(
        f"criterion 2: {'PASS' if ok else 'FAIL'} - lower bound {bound:.5f}, "
        f"15 channels (10 uniform + 5 weighted), min margin {min(margins):.5f}, "
        f"{failures} failures"
    )
    assert ok


def test_criterion_1_channels_clear_the_best_order_bound(herm50):
    # the bound `sweep` reports takes the best even order up to 64: at N=50
    # that is m=24, tighter than criterion 2's m=20
    rows, _ = herm50
    best = alon_boppana_lower_bound(50, 4)
    assert best.attained_m == 24 and best.value > alon_boppana_lower_bound(50, 4, 20).value
    for _, _, spec in rows:
        assert spec.lambda2 >= best.value - GAP_SLACK


def test_criterion_3_sd_worked_examples():
    one = evaluate_exact(parse_trace_expr("tr(U1) tr(U1')").query)
    two_query = parse_trace_expr("tr(U1 U1) tr(U1' U1')").query
    two = evaluate_exact(two_query)
    series = evaluate_series(two_query, 16, n_max=12, tol=0.0)
    tail = series.level_sums[1:]
    ok = (
        one == RationalInN.from_int(1)  # reduced form: equality is exact
        and two == RationalInN.from_int(2)
        and series.level_sums[0] == Fraction(2)
        and len(series.level_sums) == 12
        and all(s == 0 for s in tail)
    )
    record_verdict(
        f"criterion 3: {'PASS' if ok else 'FAIL'} - exact values {one} and {two}, "
        f"level-1 sum {series.level_sums[0]}, levels 2..12 sums all zero: "
        f"{all(s == 0 for s in tail)}"
    )
    assert ok


def test_criterion_4_sd_invariant_audit():
    violations = 0
    terms_seen = 0
    for expr, _ in CORPUS:
        query = parse_trace_expr(expr).query
        result = evaluate_series(query, 16, n_max=9)
        for audit in result.level_audits:
            terms_seen += audit.term_count
            if audit.term_count > (query.m_total - 1) ** audit.level:
                violations += 1
            if audit.level == 2 and audit.terminated:
                violations += 1
            for (p, _sign), _mult in audit.terminated.items():
                if p > (2 + audit.level) // 3:
                    violations += 1
    ok = violations == 0 and len(CORPUS) >= 8
    record_verdict(
        f"criterion 4: {'PASS' if ok else 'FAIL'} - {len(CORPUS)} corpus queries "
        f"to level 9, {terms_seen} terms audited (p-bound, level-2 empty, "
        f"count bound), {violations} violations"
    )
    assert ok


def test_criterion_5_exact_vs_monte_carlo():
    start = time.perf_counter()
    worst_sigma = 0.0
    checks = 0
    for expr, _ in CORPUS:
        query = parse_trace_expr(expr).query
        exact = evaluate_exact(query)
        for n in (16, 32):
            want = float(exact.evaluate(n))
            mean, stderr = monte_carlo_expectation(query, n, 10_000, SeededRng(6, checks))
            sigma = abs(mean - want) / stderr if stderr > 0 else 0.0
            worst_sigma = max(worst_sigma, sigma)
            checks += 1
    elapsed = time.perf_counter() - start
    ok = worst_sigma <= 4.0 and elapsed <= CRIT5_BUDGET_S
    record_verdict(
        f"criterion 5: {'PASS' if ok else 'FAIL'} - {checks} exact-vs-MC checks "
        f"at N in {{16,32}}, worst deviation {worst_sigma:.2f} sigma (<= 4), "
        f"runtime {elapsed:.1f}s (<= {CRIT5_BUDGET_S:.0f}s)"
    )
    assert ok


def test_criterion_6_cayley_exactness():
    mismatches = 0
    for d in (4, 6):
        table = walk_counts(d, 10)
        for m in range(11):
            got = {l: table.count(l, m) for l in range(m + 1) if table.count(l, m)}
            if got != enumerate_length_counts(d, m):
                mismatches += 1
    closed_ok = all(
        walk_counts(d, 4).count(0, 2) == d and walk_counts(d, 4).count(0, 4) == d * (2 * d - 1)
        for d in (2, 4, 6)
    )
    bound_ok = all(
        walk_counts(d, 40).count(0, m) <= return_count_upper_bound(d, m)
        for d in (2, 4, 6)
        for m in range(2, 41, 2)
    )
    ok = mismatches == 0 and closed_ok and bound_ok
    record_verdict(
        f"criterion 6: {'PASS' if ok else 'FAIL'} - DP vs enumeration D in {{4,6}} "
        f"m <= 10: {mismatches} mismatches; closed forms N(0,2)=D, N(0,4)=D(2D-1): "
        f"{closed_ok}; upper bound to m=40: {bound_ok}"
    )
    assert ok


def test_criterion_7_nonhermitian_bounds(nonherm50):
    worst = 0.0
    frob_ok = True
    for chan, spec in nonherm50:
        worst = max(worst, spec.lambda2)
        for row in moment_table(chan, range(1, 7)):
            if row.frobenius_moment < 50**2 * 4.0**-row.m - FROB_SLACK:
                frob_ok = False
    ok = worst <= NONHERM_CEILING and frob_ok
    record_verdict(
        f"criterion 7: {'PASS' if ok else 'FAIL'} - 5 seeds at N=50, max non-unit "
        f"modulus {worst:.5f} (<= {NONHERM_CEILING}), Frobenius lower bound "
        f"m in 1..6: {frob_ok}"
    )
    assert ok


def test_criterion_8_channel_contracts():
    cases = []
    idx = 0
    for n in (8, 16, 32):
        for d in (4, 6):
            cases.append((n, d, True, idx)); idx += 1
            cases.append((n, d, False, idx)); idx += 1
    # 12 combos; repeat the N=16 and N=32 rows to reach 20 channels
    for n in (16, 32):
        for d in (4, 6):
            cases.append((n, d, True, idx)); idx += 1
            cases.append((n, d, False, idx)); idx += 1
    assert len(cases) == 20
    worst = 0.0
    for n, d, herm, k in cases:
        chan = build_channel("hermitian" if herm else "nonhermitian", n, d, SeededRng(5, k))
        eye = np.eye(n, dtype=complex)
        g = SeededRng(5, 100 + k).generator
        m = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        m /= np.linalg.norm(m, "fro")
        s = superoperator(chan)
        residuals = [
            np.linalg.norm(apply(chan, eye) - eye, "fro"),
            abs(np.trace(apply(chan, m)) - np.trace(m)),
            np.linalg.norm(s @ vec(m) - vec(apply(chan, m))),
            eigen_spectrum(chan).unit_eigvec_residual,
        ]
        if herm:
            residuals.append(np.linalg.norm(s - s.conj().T, "fro") / np.linalg.norm(s, "fro"))
        worst = max(worst, max(float(r) for r in residuals))
    ok = worst <= CONTRACT_TOL
    record_verdict(
        f"criterion 8: {'PASS' if ok else 'FAIL'} - 20 channels over N in {{8,16,32}}, "
        f"D in {{4,6}}, worst contract residual {worst:.3e} (<= {CONTRACT_TOL:.0e})"
    )
    assert ok


def test_criterion_9_edge_theorems(edge_channels):
    min_slack = np.inf
    chain_ok = True
    worst_trace = 0.0
    worst_chain_gap = -np.inf
    for i, chan in enumerate(edge_channels):
        n = chan.dim
        spec = eigen_spectrum(chan)
        rng = SeededRng(7, i)
        for _ in range(100):
            rank = int(rng.generator.integers(1, n // 2 + 1))
            p = random_projector(n, rank, rng)
            _, slack = converse_check(chan, p, lambda2=spec.lambda2)
            min_slack = min(min_slack, slack)
        report = tanner_chain_check(chan, krylov_lambda2(chan))
        worst_trace = max(worst_trace, report.trace_residual)
        worst_chain_gap = max(worst_chain_gap, report.lhs - report.rhs)
        if not report.holds:
            chain_ok = False
    ok = min_slack >= -SLACK_TOL and chain_ok and worst_trace <= TRACE_RESIDUAL_TOL
    record_verdict(
        f"criterion 9: {'PASS' if ok else 'FAIL'} - 1000 converse checks, min slack "
        f"{min_slack:.3e} (>= {-SLACK_TOL:.0e}); chain holds on 10 channels "
        f"(max lhs-rhs {worst_chain_gap:.3e}); max trace residual {worst_trace:.3e}"
    )
    assert ok


def test_criterion_10_scaling_collapse(tmp_path, herm50):
    rows, _ = herm50
    spectra = {50: rows[0][2]}
    for k, n in ((0, 20), (1, 30)):
        chan = build_channel("hermitian", n, 4, SeededRng(4, k))
        spectra[n] = eigen_spectrum(chan)
    emit_collapse(spectra, tmp_path)
    lines = (tmp_path / "collapse.csv").read_text().splitlines()[1:]
    per_n: dict[int, list[float]] = {}
    for line in lines:
        n_str, _, eig = line.split(",")
        per_n.setdefault(int(n_str), []).append(float(eig))
    counts_ok = all(len(per_n[n]) == n * n for n in (20, 30, 50))
    monotone_ok = all(
        all(a >= b - 1e-12 for a, b in zip(curve, curve[1:])) for curve in per_n.values()
    )
    dist = quantile_distance(collapse_curve(spectra[30]), collapse_curve(spectra[50]))
    ok = counts_ok and monotone_ok and dist <= COLLAPSE_TOL
    record_verdict(
        f"criterion 10: {'PASS' if ok else 'FAIL'} - curve sizes N^2: {counts_ok}, "
        f"monotone nonincreasing: {monotone_ok}, N=30 vs N=50 quantile distance "
        f"{dist:.4f} (<= {COLLAPSE_TOL})"
    )
    assert ok
