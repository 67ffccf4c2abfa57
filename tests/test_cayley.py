from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_walks import (
    enumerate_length_counts,
    inverse_letter,
    reduce_word,
    return_count_upper_bound,
    shift_symmetry_period,
    slow_return_counts,
)
from qexpander.cayley import MAX_WALK_LENGTH, alon_boppana_lower_bound, walk_counts
from qexpander.errors import ValidationError


def test_inverse_letter_pairs():
    # D=4: 1<->3, 2<->4
    assert inverse_letter(1, 4) == 3 and inverse_letter(3, 4) == 1
    assert inverse_letter(2, 4) == 4 and inverse_letter(4, 4) == 2
    for d in (2, 4, 6):
        for s in range(1, d + 1):
            assert inverse_letter(inverse_letter(s, d), d) == s


def test_reduce_word_examples():
    assert reduce_word(4, []) == ()
    assert reduce_word(4, [1, 3]) == ()  # s then s^-1
    assert reduce_word(4, [1, 2, 4, 3]) == ()  # full collapse inward
    assert reduce_word(4, [1, 1, 3]) == (1,)
    assert reduce_word(4, [1, 2, 1]) == (1, 2, 1)


def test_reduce_word_validates():
    with pytest.raises(ValidationError):
        reduce_word(3, [1])  # odd D
    with pytest.raises(ValidationError):
        reduce_word(4, [0])
    with pytest.raises(ValidationError):
        reduce_word(4, [5])


@given(st.lists(st.integers(1, 6), max_size=40))
@settings(max_examples=200, deadline=None)
def test_reduce_word_idempotent_and_reduced(letters):
    reduced = reduce_word(6, letters)
    assert reduce_word(6, reduced) == reduced
    # no adjacent inverse pair survives
    for a, b in zip(reduced, reduced[1:]):
        assert b != inverse_letter(a, 6)
    assert len(reduced) <= len(letters)
    assert (len(letters) - len(reduced)) % 2 == 0


@given(st.lists(st.integers(1, 4), max_size=12))
@settings(max_examples=100, deadline=None)
def test_word_times_inverse_cancels(letters):
    inverse = [inverse_letter(s, 4) for s in reversed(letters)]
    assert reduce_word(4, list(letters) + inverse) == ()


def test_walk_counts_base_cases():
    table = walk_counts(4, 6)
    assert table.count(0, 0) == 1
    assert table.count(1, 1) == 4  # D one-step walks, none return
    assert table.count(0, 1) == 0
    assert table.count(0, 2) == 4
    assert table.count(0, 4) == 28


def test_walk_counts_row_sums():
    for d in (2, 4, 6):
        table = walk_counts(d, 8)
        for m in range(9):
            assert sum(table.count(l, m) for l in range(m + 1)) == d**m


def test_walk_counts_parity():
    table = walk_counts(4, 7)
    for m in range(8):
        for l in range(m + 1):
            if (m - l) % 2 == 1:
                assert table.count(l, m) == 0


def test_closed_forms_small_m():
    for d in (2, 4, 6):
        table = walk_counts(d, 4)
        assert table.count(0, 2) == d
        assert table.count(0, 4) == d * (2 * d - 1)


def test_d2_walks_match_binomials():
    # D=2 walks live on the integers: N(0,2k) = C(2k,k)
    table = walk_counts(2, 12)
    for k in range(7):
        assert table.count(0, 2 * k) == comb(2 * k, k)


def test_enumerator_matches_slow_reference():
    # validate the vectorized oracle against the per-word reference
    for d, m in ((2, 6), (4, 5), (6, 4)):
        assert enumerate_length_counts(d, m) == slow_return_counts(d, m)


def test_walk_counts_match_enumeration_small():
    for d in (2, 4, 6):
        for m in range(8):
            table = walk_counts(d, m)
            got = {l: table.count(l, m) for l in range(m + 1) if table.count(l, m)}
            assert got == enumerate_length_counts(d, m)


def test_return_count_upper_bound():
    assert return_count_upper_bound(4, 2) == 3 * factorial(2) // 1  # (D-1)^1 * 2!/1!^2
    for d in (2, 4, 6):
        table = walk_counts(d, 20)
        for m in range(2, 21, 2):
            bound = return_count_upper_bound(d, m)
            assert table.count(0, m) <= bound


def test_return_count_upper_bound_rejects_odd():
    with pytest.raises(ValidationError):
        return_count_upper_bound(4, 3)


def test_alon_boppana_pinned_value():
    # N=50, D=4, m_max=2: ((N^2·N(0,2)/D^2 - 1)/N^2)^(1/2)
    got = alon_boppana_lower_bound(50, 4, 2)
    assert got.attained_m == 2
    want = float((Fraction(2500 * 4, 16) - 1) / 2500) ** 0.5
    assert abs(got.value - want) < 1e-12
    assert abs(got.value - 0.49959983987187186) < 1e-12


def test_alon_boppana_monotone_in_m_max():
    # a larger m_max can only improve (or keep) the bound, and the default
    # takes the best order the walk table reaches
    values = [alon_boppana_lower_bound(50, 4, m).value for m in range(2, MAX_WALK_LENGTH + 1, 2)]
    assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))
    best = alon_boppana_lower_bound(50, 4)
    assert best.value == max(values) and best.attained_m == 24


def test_alon_boppana_approaches_benchmark():
    # always below 2 sqrt(D-1)/D; the gap shrinks as N and m grow
    lam_h = 2 * (3**0.5) / 4
    at_50 = alon_boppana_lower_bound(50, 4, 40).value
    at_big = alon_boppana_lower_bound(10**6, 4, 40).value
    assert at_50 < at_big < lam_h
    assert lam_h - at_50 < 0.15
    assert lam_h - at_big < 0.09


def test_alon_boppana_trivial_at_n1():
    got = alon_boppana_lower_bound(1, 4, 10)
    assert got.value == 0.0 and got.attained_m is None


def test_alon_boppana_validates():
    with pytest.raises(ValidationError):
        alon_boppana_lower_bound(50, 3, 10)  # odd D
    with pytest.raises(ValidationError):
        alon_boppana_lower_bound(50, 4, 3)  # odd m_max
    with pytest.raises(ValidationError):
        alon_boppana_lower_bound(0, 4, 10)


def test_shift_symmetry_period():
    # largest o dividing the length with shift-by-len/o invariance
    assert shift_symmetry_period((1, 2, 1, 2)) == 2
    assert shift_symmetry_period((1, 1, 1)) == 3
    assert shift_symmetry_period((1, 2, 3)) == 1
    assert shift_symmetry_period((1,)) == 1
    assert shift_symmetry_period((1, 2, 1, 2, 1, 2)) == 3
