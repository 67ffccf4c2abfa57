import functools
import random
import time
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
import oracle_sd_exact
from oracle_canonical import canonical_traces as brute_force_canonical
from qexpander.sdengine import engine, rational
from qexpander.sdengine.engine import _reachable
from qexpander.sdengine.rational import RAT_ONE, RAT_ZERO, RationalInN, _interpolate
from qexpander.sdengine.words import canonical_traces

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


def test_twelve_generators_parse_fast():
    forward = " ".join(f"U{i}" for i in range(1, 13))
    backward = " ".join(f"U{i}'" for i in range(12, 0, -1))
    start = time.perf_counter()
    query = parse_trace_expr(f"tr({forward}) tr({backward})").query
    assert time.perf_counter() - start < 0.1
    assert query.traces == (tuple(range(-12, 0)), tuple(range(1, 13)))


@st.composite
def trace_lists(draw):
    # up to 5 generators and 10 letters, where the brute force is still quick
    traces = []
    letters = 10
    for _ in range(draw(st.integers(1, 4))):
        if not letters:
            break
        length = draw(st.integers(1, letters))
        letters -= length
        trace = tuple(
            draw(st.integers(1, 5)) * draw(st.sampled_from((1, -1))) for _ in range(length)
        )
        traces.append(trace)
    return traces


@given(trace_lists())
@settings(max_examples=300, deadline=None)
def test_canonical_form_matches_brute_force(traces):
    assert canonical_traces(traces) == brute_force_canonical(traces)


# criterion 3-5's corpus, the five m_total = 10 queries and the two
# 12-letter queries of the benchmark, with everything sd_step reaches from them
ORACLE_ROOTS = [expr for expr, _ in CORPUS] + [
    "tr(U1 U2 U1' U2' U1) tr(U1' U2 U1 U2' U1')",
    "tr(U1 U2 U1' U2') tr(U1 U2 U1' U2') tr(U1) tr(U1')",
    "tr(U1 U2 U3 U1' U2' U3') tr(U1 U2) tr(U2' U1')",
    "tr(U1 U2 U3 U4 U1' U2' U3' U4') tr(U1) tr(U1')",
    "tr(U1 U2 U3 U4 U5 U1' U2' U3' U4' U5')",
    "tr(U1 U2 U3 U4 U5 U6) tr(U6' U5' U4' U3' U2' U1')",
    "tr(U1 U2 U1 U2 U1 U2) tr(U2' U1' U2' U1' U2' U1')",
]


@pytest.fixture(scope="module")
def reachable_queries():
    queries = set()
    for expr in ORACLE_ROOTS:
        queries |= _reachable(parse_trace_expr(expr).query)
    return sorted(queries, key=lambda q: q.traces)


def test_reachable_queries_match_brute_force(reachable_queries):
    assert len(reachable_queries) == 81
    for query in reachable_queries:
        assert query.traces == brute_force_canonical(query.traces)


def test_reachable_queries_canonical_under_symmetries(reachable_queries):
    rnd = random.Random(7)
    for query in reachable_queries:
        for _ in range(3):
            moved = _scramble(query.traces, rnd)
            assert canonical_traces(moved) == query.traces, moved


def _scramble(traces, rnd):
    """Rotate each trace, shuffle the traces, rename the generators and
    flip a random subset of them to their adjoints."""
    moved = [list(t) for t in traces]
    moved = [t[k:] + t[:k] for t in moved for k in [rnd.randrange(len(t))]]
    rnd.shuffle(moved)
    gens = sorted({abs(s) for t in moved for s in t})
    names = rnd.sample(range(1, 20), len(gens))
    rename = {g: name * rnd.choice((1, -1)) for g, name in zip(gens, names)}
    return [tuple((1 if s > 0 else -1) * rename[abs(s)] for s in t) for t in moved]


@given(trace_lists(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_canonicalization_invariant_under_symmetries(traces, rnd):
    query, _ = query_from_traces(traces)
    if query.is_empty:
        return
    again, empties = query_from_traces(_scramble(query.traces, rnd))
    assert empties == 0
    assert again == query


# ---------------------------------------------------------------------------
# parser


def test_parse_simple():
    parsed = parse_trace_expr("tr(U1 U2) tr(U2' U1')")
    assert parsed.empty_traces == 0
    assert parsed.query.m_total == 4
    assert len({abs(s) for t in parsed.query.traces for s in t}) == 2


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
    assert (n - n).is_zero() and RAT_ZERO.is_zero() and not n.is_zero()


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


def test_sd_step_cache_is_bounded_and_eviction_keeps_the_value(monkeypatch):
    assert sd_step.cache_info().maxsize == engine.SD_STEP_CACHE_SIZE
    # 43 reachable queries through a cache of 8: entries are evicted and
    # recomputed while the system is assembled
    query = parse_trace_expr("tr(U1 U2 U1' U2' U1) tr(U1' U2 U1 U2' U1')").query
    sd_step.cache_clear()
    want = evaluate_exact(query)
    bounded = functools.lru_cache(maxsize=8)(sd_step.__wrapped__)
    monkeypatch.setattr(engine, "sd_step", bounded)
    got = evaluate_exact(query)
    info = bounded.cache_info()
    assert info.misses > info.maxsize
    assert info.currsize <= info.maxsize
    assert got == want


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
    assert value.is_zero()


def test_exact_phase_mismatch_vanishes():
    value = evaluate_exact(parse_trace_expr("tr(U1 U2 U1' U2') tr(U2)").query)
    assert value.is_zero()


def test_exact_empty_query_is_one():
    parsed = parse_trace_expr("tr(U1 U1')")
    assert parsed.query.is_empty
    assert str(evaluate_exact(parsed.query)) == "1"


def test_exact_letter_budget():
    query = parse_trace_expr("tr(U1 U2 U3 U4 U5 U6 U1' U2' U3' U4' U5' U6')").query
    with pytest.raises(ValidationError):
        evaluate_exact(query)


def test_exact_matches_elimination_on_reachable_queries(reachable_queries):
    # every balanced reachable query within the budget: the interpolated
    # rational function is the one elimination over RationalInN gives
    balanced = [q for q in reachable_queries if not q.is_unbalanced and q.m_total <= 10]
    assert len(balanced) == 74
    for query in balanced:
        value, want = evaluate_exact(query), oracle_sd_exact.evaluate_exact(query)
        assert value == want and str(value) == str(want), query.traces


@st.composite
def balanced_queries(draw):
    # up to 3 generators, each letter as often as its adjoint, at most 8 letters
    letters = []
    for g in range(1, draw(st.integers(1, 3)) + 1):
        letters += [g, -g] * draw(st.integers(0, 4 - len(letters) // 2))
    letters = draw(st.permutations(letters))
    cuts = sorted(draw(st.sets(st.integers(1, max(1, len(letters) - 1)), max_size=3)))
    bounds = [0, *cuts, len(letters)]
    return query_from_traces([letters[a:b] for a, b in zip(bounds, bounds[1:]) if a < b])[0]


@given(balanced_queries())
@settings(max_examples=60, deadline=None)
def test_exact_matches_elimination_on_random_balanced_queries(query):
    value, want = evaluate_exact(query), oracle_sd_exact.evaluate_exact(query)
    assert value == want and str(value) == str(want)


def test_interpolation_rebuilds_rational_functions():
    n = RationalInN.n_power(1)
    one = RAT_ONE
    cases = [
        RAT_ZERO,
        one,
        RationalInN.from_int(2) / n,
        RationalInN.from_int(2) * RationalInN.n_power(-3),
        RationalInN.from_int(8) / (n * n - one),
        (n + RationalInN.from_int(3)) / (n * n),
    ]
    for want in cases:
        got = _interpolate(want.evaluate, 2)
        assert got == want and str(got) == str(want), str(want)
    # 1 at N = 2 and 3: the constant fits the next point, not the far one
    got = _interpolate(lambda n: 1 + Fraction((n - 2) * (n - 3), n * n), 2)
    assert str(got) == "(2*N^2 - 5*N + 6)/N^2"


def test_interpolation_cap_raises(monkeypatch):
    # 2/N^3 needs five points; with a cap of two no interpolant is accepted
    monkeypatch.setattr(rational, "MAX_POINTS", 2)
    with pytest.raises(NumericalError, match="2 solved points"):
        _interpolate(lambda n: Fraction(2, n**3), 2)
    assert str(_interpolate(lambda n: Fraction(n + 1), 2)) == "N + 1"


def test_exact_solve_stays_off_rational_function_arithmetic(monkeypatch):
    # elimination over RationalInN made thousands of reduced field
    # operations on this 43-query system; the integer-N solves make none
    query = parse_trace_expr("tr(U1 U2 U1' U2' U1) tr(U1' U2 U1 U2' U1')").query
    assert len(_reachable(query)) == 43
    calls = []
    make = RationalInN._make

    def counting(num, den):
        calls.append(1)
        return make(num, den)

    monkeypatch.setattr(RationalInN, "_make", staticmethod(counting))
    sd_step.cache_clear()
    assert str(evaluate_exact(query)) == "1"
    assert len(calls) <= 3


# ---------------------------------------------------------------------------
# level-wise series


def test_series_matches_exact_on_corpus():
    for expr, want in CORPUS:
        query = parse_trace_expr(expr).query
        result = evaluate_series(query, 16, n_max=12, tol=0.0)
        assert sum(result.level_sums, Fraction(0)) == Fraction(want), expr


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
            for (p, _sign), _mult in audit.terminated.items():
                assert p <= (2 + audit.level) // 3, expr


def test_series_term_count_bound():
    query = parse_trace_expr("tr(U1 U1 U2) tr(U2' U1' U1')").query
    result = evaluate_series(query, 16, n_max=6)
    for audit in result.level_audits:
        assert audit.term_count <= (query.m_total - 1) ** audit.level


def test_series_truncation_bound_formula():
    query = parse_trace_expr("tr(U1 U1) tr(U1' U1')").query
    result = evaluate_series(query, 16, n_max=2, tol=0.0)
    # level 2 leaves tr(U1 U1) tr(U1' U1') once and tr(U1) tr(U1') twice,
    # each with p = 0 and two traces: sum of mult N^(p - 2 + 2) = 1 + 2
    assert result.truncation_bound == 3.0


@pytest.mark.parametrize("n", [11, 16])
def test_series_bound_holds_at_every_level_on_the_corpus(n):
    for expr, want in CORPUS:
        query = parse_trace_expr(expr).query
        for levels in range(1, 13):
            result = evaluate_series(query, n, n_max=levels, tol=0.0)
            # exact: the level sums are Fractions, and a float compares exactly
            assert abs(Fraction(want) - sum(result.level_sums, Fraction(0))) <= result.truncation_bound, (
                expr, levels)


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


def test_series_node_budget_raises(monkeypatch):
    # the 8-letter query holds 6 distinct states at level 4
    monkeypatch.setattr(engine, "SERIES_STATE_CEILING", 5)
    query = parse_trace_expr("tr(U1 U1 U1 U1) tr(U1' U1' U1' U1')").query
    with pytest.raises(NumericalError):
        evaluate_series(query, 16, n_max=10)


def test_series_level_ceiling_is_checked_before_any_step(monkeypatch):
    def no_step(query):
        raise AssertionError("an expansion step ran")

    monkeypatch.setattr(engine, "sd_step", no_step)
    query = parse_trace_expr("tr(U1 U1) tr(U1' U1')").query
    with pytest.raises(ValidationError, match="level ceiling"):
        evaluate_series(query, 16, n_max=engine.SERIES_LEVEL_CEILING + 1)


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
