from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from flecklab.combinatorics import binomial
from flecklab.errors import InvalidParameterError
from flecklab.padic import (
    INFINITY,
    _weisman,
    carries,
    factorial_order,
    padic_order,
    prime_power_modulus,
    scaled_residue,
    weisman_bound,
)
from flecklab.quantities import (
    _fleck_sums,
    _norm_sum_value,
    _norm_sums,
    _weisman_normalized,
    convolution_weight,
    fleck_sum_value,
    normalized_sum_value,
    order_gap,
)

prime_power = st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (2, 0), (3, 0)])


def defined_num(p, alpha, l, n, r):
    """Oracle: l! * p**l times the class sum, term by term over all k."""
    m = p**alpha
    s = sum(
        (-1) ** k * math.comb(n, k) * binomial((k - r) // m, l)
        for k in range(n + 1)
        if k % m == r % m
    )
    return math.factorial(l) * p**l * s


class TestNormalizedBinomialSum:
    def test_frozen_values(self):
        assert normalized_sum_value(2, 1, 1, 5, 0) == Fraction(1, 3)
        assert normalized_sum_value(2, 2, 0, 10, 2) == Fraction(32, 15)
        assert normalized_sum_value(2, 2, 1, 10, 2) == Fraction(53, 15)

    def test_degenerate_regime_closed_form_path(self):
        # alpha = 0 evaluates the definition and cross-checks the closed
        # form internally; a successful return certifies both agree.
        assert normalized_sum_value(2, 0, 0, 1, 0) == 0
        assert normalized_sum_value(2, 0, 0, 0, 5) == 1
        assert normalized_sum_value(3, 0, 2, 1, 2) == 6

    @given(prime_power, st.integers(0, 5), st.integers(0, 28), st.integers(-6, 12))
    def test_p_integrality(self, pa, l, n, r):
        p, alpha = pa
        value = normalized_sum_value(p, alpha, l, n, r)
        assert isinstance(value, Fraction)
        assert value.denominator % p != 0

    @given(prime_power, st.integers(0, 4), st.integers(0, 24), st.integers(-4, 10))
    def test_order_is_at_least_the_carry_count(self, pa, l, n, r):
        p, alpha = pa
        value = normalized_sum_value(p, alpha, l, n, r)
        tau = carries(
            p, scaled_residue(r, p, alpha - 1), scaled_residue(n - r, p, alpha - 1)
        )
        assert padic_order(p, value) >= tau

    @given(prime_power, st.integers(0, 6), st.integers(0, 40), st.integers(-10, 30))
    def test_integer_form_matches_the_definition(self, pa, l, n, r):
        # Oracle: the class sum term by term over all k, then the Fraction.
        p, alpha = pa
        d = n * p if alpha == 0 else n // p ** (alpha - 1)
        num = defined_num(p, alpha, l, n, r)
        assert _norm_sum_value(p, alpha, l, n, r) == num
        value = Fraction(num, math.factorial(d))
        assert normalized_sum_value(p, alpha, l, n, r) == value
        assert padic_order(p, num) - factorial_order(p, d) == padic_order(p, value)

    # Rows of scattered, unordered and repeated residues.  The examples hold
    # empty classes (r mod m > n) at several quotients r // m, several r
    # sharing one quotient, and alpha = 0, where the closed form is checked.
    @given(prime_power, st.integers(0, 6), st.integers(0, 40), st.lists(st.integers(-20, 30)))
    @example((3, 2), 1, 4, [8, 5, 6, 5, -1, 17, 0, -4, 8])
    @example((2, 3), 2, 5, [7, 6, 3, -1, 15, -10, 6, 0])
    @example((3, 0), 3, 2, [4, -1, 4, 0, 2])
    @example((2, 1), 0, 0, [])
    def test_rows_match_the_definition(self, pa, l, n, rs):
        p, alpha = pa
        want = tuple(defined_num(p, alpha, l, n, r) for r in rs)
        assert _norm_sums(p, alpha, l, n, rs) == want

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            normalized_sum_value(2, 1, -1, 5, 0)
        with pytest.raises(InvalidParameterError):
            normalized_sum_value(2, 1, 0, -5, 0)
        with pytest.raises(InvalidParameterError):
            normalized_sum_value(4, 1, 0, 5, 0)


class TestFleckNormalizedSum:
    def test_frozen_values(self):
        assert fleck_sum_value(3, 2, 0, 0) == 3
        assert fleck_sum_value(3, 2, 0, 9) == 3
        assert fleck_sum_value(3, 2, 0, 1) == 0
        assert fleck_sum_value(2, 3, 3, 2) == 33
        assert fleck_sum_value(2, 2, 3, 1) == -3
        assert fleck_sum_value(2, 3, 4, 2) == 1016
        assert fleck_sum_value(2, 2, 4, 1) == -8

    @given(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)]),
        st.integers(0, 30),
        st.integers(-5, 30),
    )
    def test_always_an_exact_integer(self, pa, n, r):
        # The library divides out p**floor((n-1)/(p-1)) and raises on any
        # remainder, so returning at all proves integrality.
        p, alpha = pa
        assert isinstance(fleck_sum_value(p, alpha, n, r), int)

    @given(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]),
        st.integers(0, 30),
        st.lists(st.integers(-40, 60), max_size=12),
        st.integers(0, 6),
    )
    def test_row_of_sums_matches_the_single_values(self, pa, n, rs, b):
        # The row reads each value mod p**(b+1), from residues of the row.
        p, alpha = pa
        got = list(_fleck_sums(p, alpha, n, rs, b))
        assert got == [fleck_sum_value(p, alpha, n, r) % p ** (b + 1) for r in rs]

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            fleck_sum_value(2, 0, 5, 0)
        with pytest.raises(InvalidParameterError):
            fleck_sum_value(2, 1, -1, 0)
        for args in ((2, 0, 5), (2, 1, -1), (4, 1, 3)):
            with pytest.raises(InvalidParameterError):
                _fleck_sums(*args, [0], 1)


class TestWeismanNormalization:
    @given(
        st.sampled_from((2, 3, 5, 7)),
        st.integers(1, 3),
        st.integers(0, 80),
        st.integers(-200, 200),
    )
    def test_exponent_divides_brute_force_class_sums(self, p, alpha, big_n, r):
        # Oracle: the class sum term by term over all k, with math.comb.
        m = p**alpha
        s = sum((-1) ** k * math.comb(big_n, k) for k in range(big_n + 1) if (k - r) % m == 0)
        w = _weisman(p, alpha, big_n)
        assert w == weisman_bound(prime_power_modulus(p, alpha), big_n)
        assert w <= 0 or s % p**w == 0
        assert _weisman_normalized(p, alpha, big_n, r, s) == s / Fraction(p) ** w

    @given(st.sampled_from((2, 3, 5, 7)), st.integers(1, 4), st.integers(-3, 60))
    def test_fleck_exponent_is_the_special_case(self, p, alpha, n):
        assert _weisman(p, alpha, p ** (alpha - 1) * n) == (n - 1) // (p - 1)


class TestConvolutionWeight:
    def test_level_one_weights_are_unit(self):
        for n in range(13):
            for j in range(n + 1):
                assert convolution_weight(2, 1, n, j) == 1

    def test_frozen_values(self):
        assert convolution_weight(2, 2, 4, 2) == 3
        assert convolution_weight(3, 2, 9, 3) == 28

    @given(
        st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]),
        st.integers(0, 40),
        st.data(),
    )
    def test_weights_are_p_integral(self, pa, n, data):
        p, alpha = pa
        j = data.draw(st.integers(0, n))
        w = convolution_weight(p, alpha, n, j)
        assert w.denominator % p != 0

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            convolution_weight(2, 0, 4, 2)
        with pytest.raises(InvalidParameterError):
            convolution_weight(2, 2, 4, -1)
        with pytest.raises(InvalidParameterError):
            convolution_weight(2, 2, 4, 5)


class TestOrderGap:
    def test_equality_window(self):
        # p = alpha = 2, n = 20, r = 1: the degree bound is attained for
        # every weight degree strictly between 0 and 5.
        for l in (1, 2, 3, 4):
            assert order_gap(2, 2, 20, 1, l) == 0
        assert order_gap(2, 2, 20, 1, 0) > 0

    def test_reference_gap_row(self):
        row = [order_gap(3, 2, 95, 2, l) for l in range(10)]
        assert row == [1, 0, 0, 0, 0, 1, 1, 0, 0, 0]

    def test_vanishing_sum_gives_infinite_gap(self):
        assert order_gap(2, 0, 2, 0, 1) == INFINITY

    def test_negative_n_is_rejected(self):
        # The sum over an empty row vanishes, but n < 0 has no degree bound.
        with pytest.raises(InvalidParameterError):
            order_gap(2, 1, -5, 0, 0)

    @given(prime_power, st.integers(0, 30), st.integers(-6, 12), st.integers(0, 5))
    def test_gap_is_never_negative(self, pa, n, r, l):
        p, alpha = pa
        assert order_gap(p, alpha, n, r, l) >= 0
