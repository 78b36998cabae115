from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flecklab import combinatorics
from flecklab.combinatorics import (
    Polynomial,
    _binomial_row,
    _class_binomials,
    bernoulli_number,
    bernoulli_polynomial,
    binomial,
    binomial_inversion,
    falling_factorial,
    stirling2,
    weighted_inverse_sequence,
)
from flecklab.errors import InvalidParameterError
from flecklab.padic import NEG_INFINITY, PrimePowerModulus, padic_order

small_fraction = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)


class TestBinomial:
    @given(st.integers(0, 300), st.integers(-2, 300))
    def test_matches_math_comb_on_naturals(self, x, k):
        expected = math.comb(x, k) if 0 <= k <= x else 0
        assert binomial(x, k) == expected

    def test_negative_upper_index(self):
        assert binomial(-1, 0) == 1
        assert binomial(-1, 3) == -1
        assert binomial(-3, 2) == 6
        assert binomial(-2, 5) == -6

    def test_negative_lower_index_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(Fraction(1, 2), -2) == 0

    def test_fractional_upper_index(self):
        assert binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert binomial(Fraction(-1, 2), 1) == Fraction(-1, 2)

    @given(small_fraction, st.integers(0, 10))
    def test_pascal_rule(self, x, k):
        assert binomial(x, k) == binomial(x - 1, k - 1) + binomial(x - 1, k)

    @given(st.integers(-50, -1), st.integers(0, 20))
    def test_negative_upper_reflection(self, x, k):
        assert binomial(x, k) == (-1) ** k * math.comb(-x + k - 1, k)


class TestFallingFactorial:
    def test_values(self):
        assert falling_factorial(5, 3) == 60
        assert falling_factorial(5, 0) == 1
        assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)

    def test_rejects_negative_length(self):
        with pytest.raises(InvalidParameterError):
            falling_factorial(3, -1)

    @given(small_fraction, st.integers(0, 12))
    def test_consistent_with_binomial(self, x, j):
        assert binomial(x, j) * math.factorial(j) == falling_factorial(x, j)


class TestStirling:
    def test_second_kind_table(self):
        assert [stirling2(4, j) for j in range(5)] == [0, 1, 7, 6, 1]
        assert stirling2(0, 0) == 1
        assert stirling2(3, 5) == 0

    def test_second_kind_past_the_recursion_limit(self):
        l = 1500
        assert stirling2(l, 3) == (3**l - 3 * 2**l + 3) // 6
        assert stirling2(l, l) == 1 and stirling2(l, 1) == 1 and stirling2(l, 0) == 0

    @given(st.integers(-8, 8), st.integers(0, 10))
    def test_second_kind_expands_powers(self, x, l):
        # x**l == sum_j S(l, j) * falling_factorial(x, j)
        assert x**l == sum(
            stirling2(l, j) * falling_factorial(x, j) for j in range(l + 1)
        )

    def test_rejects_negative_indices(self):
        with pytest.raises(InvalidParameterError):
            stirling2(-1, 0)


class TestBernoulli:
    def test_number_table(self):
        expected = {
            0: Fraction(1),
            1: Fraction(-1, 2),
            2: Fraction(1, 6),
            3: Fraction(0),
            4: Fraction(-1, 30),
            6: Fraction(1, 42),
            8: Fraction(-1, 30),
            10: Fraction(5, 66),
            12: Fraction(-691, 2730),
        }
        for k, val in expected.items():
            assert bernoulli_number(k) == val

    def test_odd_numbers_vanish(self):
        for k in range(3, 21, 2):
            assert bernoulli_number(k) == 0

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            bernoulli_number(-1)

    @given(st.integers(0, 12), small_fraction)
    def test_polynomial_difference_identity(self, m, x):
        bp = bernoulli_polynomial(m)
        assert bp(x + 1) - bp(x) == m * x ** (m - 1) if m else bp(x + 1) == bp(x)

    def test_polynomial_constant_term(self):
        for m in range(10):
            assert bernoulli_polynomial(m)(0) == bernoulli_number(m)

    def test_polynomial_is_monic(self):
        for m in range(1, 10):
            assert bernoulli_polynomial(m).coeffs[-1] == 1
            assert bernoulli_polynomial(m).degree == m


class TestPolynomial:
    def test_trailing_zeros_trimmed(self):
        assert Polynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert Polynomial((0, 0)).coeffs == ()

    def test_degree_and_zero(self):
        assert Polynomial((1, 2)).degree == 1
        assert Polynomial(()).degree == NEG_INFINITY
        assert Polynomial(()).is_zero
        assert not Polynomial((3,)).is_zero

    def test_monomial(self):
        assert Polynomial.monomial(3).coeffs == (0, 0, 0, 1)
        assert Polynomial.monomial(0).coeffs == (1,)
        assert Polynomial.monomial(2, 5).coeffs == (0, 0, 5)
        with pytest.raises(InvalidParameterError):
            Polynomial.monomial(-1)

    def test_evaluation(self):
        f = Polynomial((1, 0, 2))  # 1 + 2x**2
        assert f(3) == 19
        assert f(Fraction(1, 2)) == Fraction(3, 2)
        assert Polynomial(())(7) == 0

    def test_immutability_and_hash(self):
        f = Polynomial((1, 2))
        with pytest.raises(AttributeError):
            f.coeffs = (3,)  # type: ignore[misc]
        assert f == Polynomial((1, 2, 0))
        assert hash(f) == hash(Polynomial((1, 2)))
        assert f != (1, 2)

    def test_integer_coefficient_detection(self):
        assert Polynomial((1, 2)).has_integer_coeffs
        assert Polynomial((Fraction(4, 2),)).has_integer_coeffs
        assert not Polynomial((Fraction(1, 2),)).has_integer_coeffs

    def test_repr_round_trips_through_eval(self):
        f = Polynomial((1, 0, 5))
        assert eval(repr(f)) == f


class TestClassBinomials:
    """The class-sum kernel against its definition: the signed binomials
    (-1)**k * binomial(n, k) for k = c, c+m, ... <= n, each from math.comb."""

    @given(st.integers(-3, 300), st.integers(0, 310), st.integers(1, 310))
    def test_matches_the_definition(self, n, c, m):
        want = tuple((-1) ** k * math.comb(n, k) for k in range(c, n + 1, m))
        assert _class_binomials(n, c, m) == want

    @given(st.integers(-3, 300))
    def test_row_is_the_unit_class(self, n):
        assert _binomial_row(n) == tuple((-1) ** k * math.comb(n, k) for k in range(n + 1))
        assert _class_binomials(n, 0, 1) == _binomial_row(n)

    def test_classes_share_the_row_and_past_n_are_empty(self):
        row = _binomial_row(40)
        terms = _class_binomials.__wrapped__(40, 3, 7)  # a miss
        assert len(terms) == 6 and all(t is row[k] for k, t in zip(range(3, 41, 7), terms))
        assert _class_binomials(40, 41, 3) == () == _class_binomials(-1, 0, 1)
        assert _class_binomials(5, 2, 9) == (math.comb(5, 2),)

    def test_memos_are_bounded(self):
        assert _binomial_row.cache_info().maxsize == combinatorics.BINOMIAL_ROW_MEMO
        assert _class_binomials.cache_info().maxsize == combinatorics.CLASS_TERMS_MEMO


class TestBinomialInversion:
    @given(st.lists(st.integers(-50, 50), max_size=12))
    def test_involution(self, seq):
        assert binomial_inversion(binomial_inversion(seq)) == seq

    def test_constant_sequence(self):
        # sum_k C(n,k)(-1)**k == 0 for n >= 1
        assert binomial_inversion([1] * 6) == [1, 0, 0, 0, 0, 0]

    def test_empty(self):
        assert binomial_inversion([]) == []


class TestWeightedInverseSequence:
    def test_validation(self):
        pm = PrimePowerModulus(2, 1)
        with pytest.raises(InvalidParameterError):
            weighted_inverse_sequence(PrimePowerModulus(2, 0), 0, Polynomial((1,)), 4)
        with pytest.raises(InvalidParameterError):
            weighted_inverse_sequence(pm, 0, Polynomial(()), 4)
        with pytest.raises(InvalidParameterError):
            weighted_inverse_sequence(pm, 0, Polynomial((Fraction(1, 2),)), 4)
        with pytest.raises(InvalidParameterError):
            weighted_inverse_sequence(pm, 0, Polynomial((1,)), -1)

    def test_hand_computed_prefix(self):
        # p=2, alpha=1, r=0, f(x)=x: weights are n!, first entries 0, 0, 1.
        seq = weighted_inverse_sequence(PrimePowerModulus(2, 1), 0, Polynomial((0, 1)), 2)
        assert seq == [Fraction(0), Fraction(0), Fraction(1)]

    def test_entries_are_p_integral(self):
        for p, alpha in ((2, 1), (2, 2), (3, 1), (5, 1)):
            pm = PrimePowerModulus(p, alpha)
            for r in (-1, 0, 1, pm.m):
                for f in (Polynomial((1,)), Polynomial((0, 1)), Polynomial((1, 0, 1))):
                    for a in weighted_inverse_sequence(pm, r, f, 24):
                        assert padic_order(p, a) >= 0
