from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexpander.errors import NumericalError, ValidationError
from qexpander.matrixcore import SeededRng
from qexpander.sdengine import (
    ExpectationQuery,
    cyclic_reduce,
    evaluate_exact,
    evaluate_series,
    monte_carlo_expectation,
    parse_trace_expr,
    query_from_traces,
    sd_step,
)
from qexpander.sdengine.rational import RAT_ONE, RAT_ZERO, RationalInN
from qexpander.sdengine.words import MAX_GENERATORS, canonical_traces

# frozen regression corpus: 2-trace queries with verified constants.
# first eight come from hand derivations; the last was frozen after the
# exact solver, the level-wise series, and the Monte-Carlo route agreed.
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


# ---------------------------------------------------------------------------
# words and canonicalization


def test_cyclic_reduce_examples():
    assert cyclic_reduce((1, -1)) == ()
    assert cyclic_reduce((1, 2, -2, -1)) == ()
    assert cyclic_reduce((2, 1, -2)) == (1,)  # conjugation drops under the trace
    assert cyclic_reduce((1, 2, -1)) == (2,)  # wrap-around cancel
    assert cyclic_reduce((1, 2, 3)) == (1, 2, 3)


def test_query_from_traces_counts_empties():
    query, empties = query_from_traces([(1, -1), (2,)])
    assert empties == 1
    # relabeled to one generator; the adjoint flip picks the smaller encoding
    assert query.traces == ((-1,),)


def test_canonical_form_examples():
    # rotation, trace order, generator names, and adjoint flips wash out
    a = canonical_traces(((1, 2), (-2, -1)))
    b = canonical_traces(((-1, -2), (2, 1)))
    c = canonical_traces(((4, 3), (-3, -4)))
    d = canonical_traces(((2, 1), (-1, -2)))
    assert a == b == c == d


def test_query_validates_canonical_input():
    # any reduced input is stored in canonical form, however it was built
    query = ExpectationQuery(traces=((5, 7),))  # generators not renamed 1..g
    assert query == query_from_traces([(5, 7)])[0]
    assert query.traces == ((-2, -1),)  # the adjoint flips give the smaller encoding
    with pytest.raises(ValidationError):
        ExpectationQuery(traces=((1, -1),))  # not cyclically reduced
    with pytest.raises(ValidationError):
        ExpectationQuery(traces=((),))  # empty trace


def test_one_canonical_search_per_query(monkeypatch):
    calls = []

    def counting(traces):
        calls.append(traces)
        return canonical_traces(traces)

    monkeypatch.setattr("qexpander.sdengine.words.canonical_traces", counting)
    for traces in ([(1, 2), (-2, -1)], [(1, -1), (3,)], [(4, 3, 4, 3)], [(2, -2)]):
        before = len(calls)
        query_from_traces(traces)
        assert len(calls) == before + 1, traces


def test_generator_limit_is_checked_before_the_search(monkeypatch):
    def no_search(traces):
        raise AssertionError("the canonical-form search ran")

    monkeypatch.setattr("qexpander.sdengine.words.canonical_traces", no_search)
    with pytest.raises(ValidationError, match="generators"):
        query_from_traces([tuple(range(1, MAX_GENERATORS + 2))])
    # at the limit the search runs
    with pytest.raises(AssertionError):
        query_from_traces([tuple(range(1, MAX_GENERATORS + 1))])


@st.composite
def trace_lists(draw):
    n_traces = draw(st.integers(1, 3))
    traces = []
    for _ in range(n_traces):
        length = draw(st.integers(1, 4))
        trace = tuple(
            draw(st.integers(1, 3)) * draw(st.sampled_from((1, -1))) for _ in range(length)
        )
        traces.append(trace)
    return traces


@given(trace_lists(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_canonicalization_invariant_under_symmetries(traces, rnd):
    query, _ = query_from_traces(traces)
    if query.is_empty:
        return
    moved = [list(t) for t in query.traces]
    # rotate each trace
    moved = [t[k:] + t[:k] for t in moved for k in [rnd.randrange(len(t))]]
    # permute traces
    rnd.shuffle(moved)
    # rename generators by a random permutation of 1..5
    perm = list(range(1, 6))
    rnd.shuffle(perm)
    moved = [[(1 if s > 0 else -1) * perm[abs(s) - 1] for s in t] for t in moved]
    # flip a random subset of generators to their adjoints
    flips = {g: rnd.choice((1, -1)) for g in range(1, 6)}
    moved = [[s * flips[abs(s)] for s in t] for t in moved]
    again, empties = query_from_traces(moved)
    assert empties == 0
    assert again == query


# ---------------------------------------------------------------------------
# parser


def test_parse_simple():
    parsed = parse_trace_expr("tr(U1 U2) tr(U2' U1')")
    assert parsed.empty_traces == 0
    assert parsed.query.m_total == 4
    assert parsed.query.generator_count == 2


def test_parse_whitespace_tolerant():
    a = parse_trace_expr("tr( U1   U2 )tr(U2'U1')")
    b = parse_trace_expr("tr(U1 U2) tr(U2' U1')")
    assert a.query == b.query


def test_parse_counts_identity_traces():
    parsed = parse_trace_expr("tr(U1 U1') tr(U2)")
    assert parsed.empty_traces == 1
    assert parsed.query.m_total == 1


def test_parse_errors_carry_position():
    for text in ("tr(", "tr()", "tr(U1) x", "tr(V2)", "tr(U1))"):
        with pytest.raises(ValidationError) as err:
            parse_trace_expr(text)
        assert "position" in str(err.value)


def test_parse_rejects_empty_expression():
    with pytest.raises(ValidationError):
        parse_trace_expr("   ")


# ---------------------------------------------------------------------------
# rational functions of N


def test_rational_arithmetic():
    n = RationalInN.n_power(1)
    inv = RationalInN.n_power(-1)
    assert str(n * inv) == "1"
    assert str(n + RationalInN.from_int(1)) == "N + 1"
    two = RationalInN.from_int(2)
    assert str((n * n - two * n + RAT_ONE) / (n - RAT_ONE)) == "N - 1"
    assert (n - n).is_zero and RAT_ZERO.is_zero


def test_rational_evaluate():
    n = RationalInN.n_power(1)
    expr = (n + RationalInN.from_int(3)) / (n * n)
    assert expr.evaluate(4) == Fraction(7, 16)
    assert RationalInN.from_fraction(Fraction(3, 7)).evaluate(100) == Fraction(3, 7)


def test_rational_string_clears_denominators():
    half = RationalInN.from_fraction(Fraction(1, 2))
    n = RationalInN.n_power(1)
    assert str(half * n) == "N/2"
    assert str(half + half) == "1"
    assert str(RationalInN.n_power(-2)) == "1/N^2"


def test_rational_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RAT_ONE / RAT_ZERO


# ---------------------------------------------------------------------------
# one rewriting step


def test_sd_step_value_two_query():
    # tr(U1 U1) tr(U1' U1'): one split child and two full terminations
    parsed = parse_trace_expr("tr(U1 U1) tr(U1' U1')")
    children = sd_step(parsed.query)
    assert len(children) == 3
    terminated = [c for c in children if c.query.is_empty]
    live = [c for c in children if not c.query.is_empty]
    assert len(terminated) == 2
    assert all(c.sign == 1 and c.trivial_traces == 1 for c in terminated)
    assert len(live) == 1
    (child,) = live
    assert child.sign == -1
    assert child.query == query_from_traces([(1,), (1,), (-1, -1)])[0]


def test_sd_step_commutator():
    # tr(U1 U2 U1' U2') has exactly one child: + (1/N) tr(U2) tr(U2')
    parsed = parse_trace_expr("tr(U1 U2 U1' U2')")
    children = sd_step(parsed.query)
    assert len(children) == 1
    (child,) = children
    assert child.sign == 1 and child.trivial_traces == 0
    assert child.query == query_from_traces([(1,), (-1,)])[0]


def test_sd_step_child_count_bound():
    for expr, _ in CORPUS:
        query = parse_trace_expr(expr).query
        children = sd_step(query)
        assert len(children) <= query.m_total - 1
        for child in children:
            assert child.query.m_total <= query.m_total
            assert child.sign in (-1, 1)


def test_sd_step_children_canonical():
    query = parse_trace_expr("tr(U1 U2 U1 U2) tr(U2' U1' U2' U1')").query
    for child in sd_step(query):
        if not child.query.is_empty:
            assert child.query.traces == canonical_traces(child.query.traces)


# ---------------------------------------------------------------------------
# exact evaluation


def test_exact_corpus_values():
    for expr, want in CORPUS:
        value = evaluate_exact(parse_trace_expr(expr).query)
        assert str(value) == want, expr


def test_exact_commutator_pinned():
    # the nonvanishing single-trace case: value 1/N, all from level 2
    value = evaluate_exact(parse_trace_expr("tr(U1 U2 U1' U2')").query)
    assert str(value) == "1/N"
    result = evaluate_series(parse_trace_expr("tr(U1 U2 U1' U2')").query, 16, n_max=8)
    assert result.level_sums == (Fraction(0), Fraction(1, 16))
    assert result.levels_computed == 2  # frontier empties at level 2


def test_exact_three_trace_vanishing():
    value = evaluate_exact(parse_trace_expr("tr(U1) tr(U1) tr(U1' U1')").query)
    assert value.is_zero


def test_exact_phase_mismatch_vanishes():
    value = evaluate_exact(parse_trace_expr("tr(U1 U2 U1' U2') tr(U2)").query)
    assert value.is_zero


def test_exact_empty_query_is_one():
    parsed = parse_trace_expr("tr(U1 U1')")
    assert parsed.query.is_empty
    assert str(evaluate_exact(parsed.query)) == "1"


def test_exact_letter_budget():
    query = parse_trace_expr("tr(U1 U2 U3 U4 U5 U6 U1' U2' U3' U4' U5' U6')").query
    with pytest.raises(ValidationError):
        evaluate_exact(query, max_letters=10)


# ---------------------------------------------------------------------------
# level-wise series


def test_series_matches_exact_on_corpus():
    for expr, want in CORPUS:
        query = parse_trace_expr(expr).query
        result = evaluate_series(query, 16, n_max=12, tol=0.0)
        assert result.exact_partial_total() == Fraction(want), expr


def test_series_level1_sum_is_shift_symmetry():
    # for tr(W) tr(W^dag) the level-1 terminations count the shifts fixing W
    cases = [("tr(U1 U2) tr(U2' U1')", 1), ("tr(U1 U1) tr(U1' U1')", 2),
             ("tr(U1 U1 U1) tr(U1' U1' U1')", 3),
             ("tr(U1 U2 U1 U2) tr(U2' U1' U2' U1')", 2)]
    for expr, period in cases:
        query = parse_trace_expr(expr).query
        result = evaluate_series(query, 16, n_max=1)
        assert result.level_sums[0] == Fraction(period), expr


def test_series_level2_empty_for_two_trace_corpus():
    for expr, _ in CORPUS:
        query = parse_trace_expr(expr).query
        result = evaluate_series(query, 16, n_max=6)
        if result.levels_computed >= 2:
            audit = result.level_audits[1]
            assert audit.level == 2
            assert not audit.terminated, expr


def test_series_p_bound_on_corpus():
    for expr, _ in CORPUS:
        query = parse_trace_expr(expr).query
        result = evaluate_series(query, 16, n_max=9)
        for audit in result.level_audits:
            for (p, _q, _sign), _mult in audit.terminated.items():
                assert p <= (2 + audit.level) // 3, expr


def test_series_term_count_bound():
    query = parse_trace_expr("tr(U1 U1 U2) tr(U2' U1' U1')").query
    result = evaluate_series(query, 16, n_max=6)
    for audit in result.level_audits:
        assert audit.term_count <= (query.m_total - 1) ** audit.level


def test_series_truncation_bound_formula():
    query = parse_trace_expr("tr(U1 U1) tr(U1' U1')").query
    result = evaluate_series(query, 16, n_max=2, tol=0.0)
    # (m_total-1)^(n+1) N^(m_total-n-1) with m_total=4, n=2: 27 * 16
    assert result.truncation_bound == pytest.approx(27 * 16.0)


def test_series_tol_stops_early():
    query = parse_trace_expr("tr(U1) tr(U1')").query
    result = evaluate_series(query, 32, n_max=40, tol=1e30)
    assert result.levels_computed == 1


def test_series_requires_convergent_n():
    query = parse_trace_expr("tr(U1 U1 U1) tr(U1' U1' U1')").query  # m_total 6
    with pytest.raises(ValidationError):
        evaluate_series(query, 4, n_max=4)
    result = evaluate_series(query, 4, n_max=4, allow_divergent=True)
    assert result.levels_computed >= 1


def test_series_node_budget_raises():
    query = parse_trace_expr("tr(U1 U1 U1 U1) tr(U1' U1' U1' U1')").query
    with pytest.raises(NumericalError):
        evaluate_series(query, 16, n_max=10, node_budget=5)


def test_series_empty_query():
    parsed = parse_trace_expr("tr(U1 U1')")
    result = evaluate_series(parsed.query, 16, n_max=5)
    assert result.partial_total == 1.0
    assert result.truncation_bound == 0.0


# ---------------------------------------------------------------------------
# Monte-Carlo route


def test_mc_trace_of_single_unitary_vanishes():
    query = parse_trace_expr("tr(U1)").query
    mean, stderr = monte_carlo_expectation(query, 16, 4000, SeededRng(3))
    assert abs(mean) <= 4 * stderr + 1e-12


def test_mc_matches_exact_on_small_corpus():
    for expr, want in CORPUS[:4]:
        query = parse_trace_expr(expr).query
        mean, stderr = monte_carlo_expectation(query, 16, 4000, SeededRng(5))
        assert abs(mean - int(want)) <= 4 * stderr, expr


def test_mc_commutator():
    query = parse_trace_expr("tr(U1 U2 U1' U2')").query
    mean, stderr = monte_carlo_expectation(query, 16, 4000, SeededRng(7))
    assert abs(mean - 1 / 16) <= 4 * stderr


def test_mc_deterministic_under_seed():
    query = parse_trace_expr("tr(U1 U1) tr(U1' U1')").query
    a = monte_carlo_expectation(query, 8, 500, SeededRng(11))
    b = monte_carlo_expectation(query, 8, 500, SeededRng(11))
    assert a == b


def test_mc_validates_sample_count():
    query = parse_trace_expr("tr(U1) tr(U1')").query
    with pytest.raises(ValidationError):
        monte_carlo_expectation(query, 8, 10, SeededRng(13))
