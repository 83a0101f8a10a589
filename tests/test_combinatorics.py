from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from oracles import alt_binom_sum
from thd.combinatorics import binom


def brute_binom(a: int, b: int) -> int:
    if not 0 <= b <= a:
        return 0
    value = Fraction(1)
    for k in range(b):
        value *= Fraction(a - k, k + 1)
    assert value.denominator == 1
    return value.numerator


def test_examples():
    assert binom(14, 6) == 3003
    assert binom(-3, 2) == 0
    assert binom(4, 4) == 1
    assert binom(4, -1) == 0


def test_negative_upper_index_vanishes():
    # not the generalized polynomial convention
    assert binom(-1, 0) == 0
    assert all(binom(a, b) == 0 for a in range(-10, 0) for b in range(0, 5))


@given(st.integers(-80, 60), st.integers(-10, 60))
def test_matches_product_division_evaluation(a, b):
    assert binom(a, b) == brute_binom(a, b)


@given(st.integers(0, 200), st.integers(0, 200))
def test_symmetry(a, b):
    if 0 <= b <= a:
        assert binom(a, b) == binom(a, a - b)


@given(st.integers(1, 200), st.integers(0, 200))
def test_pascal(a, b):
    if 0 <= b <= a:
        assert binom(a, b) == binom(a - 1, b) + binom(a - 1, b - 1)


@given(st.integers(0, 150), st.integers(0, 30))
def test_monotone_in_upper_index(a, b):
    if a >= b >= 0:
        assert binom(a + 1, b) >= binom(a, b)


def test_alt_binom_sum_empty():
    assert alt_binom_sum([]) == 0


def test_alt_binom_sum_single_term():
    k = 3
    assert alt_binom_sum([(+1, (2 * k + 1, 0), (2 * k, 2 * k))]) == 1


def test_alt_binom_sum_quadric_middle_entry():
    # the six-term evaluation of the central middle-line entry of the
    # 1-twisted diamond of the three-dimensional quadric
    terms = [((-1) ** mu, (6, mu), (4 - mu, 4)) for mu in range(6)]
    assert alt_binom_sum(terms) == 1


def test_alt_binom_sum_signed():
    assert alt_binom_sum([(-1, (4, 2), (2, 1))]) == -12
