from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flecklab.errors import InvalidParameterError, UnsupportedRegimeError
from flecklab.padic import (
    INFINITY,
    NEG_INFINITY,
    PrimePowerModulus,
    carries,
    factorial_order,
    is_prime,
    padic_order,
    prime_power_modulus,
    scaled_floor,
    scaled_residue,
    weisman_bound,
)

PRIMES = (2, 3, 5, 7, 11, 13)
prime_st = st.sampled_from(PRIMES)


class TestIsPrime:
    def test_small_values_match_sieve(self):
        sieve = [True] * 500
        sieve[0] = sieve[1] = False
        for i in range(2, 500):
            if sieve[i]:
                for j in range(i * i, 500, i):
                    sieve[j] = False
        for n in range(500):
            assert is_prime(n) == sieve[n], n

    def test_negative_and_trivial(self):
        assert not is_prime(-7)
        assert not is_prime(0)
        assert not is_prime(1)

    def test_large_prime_and_composite(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
        assert not is_prime(561)  # Carmichael

    def test_carmichael_numbers_without_a_witness_factor(self):
        # No factor is a witness, so trial division passes them all and the
        # Miller-Rabin rounds, with n - 1 split into 2**s * d, must decide.
        for n in (252601, 410041, 1152271):  # 41*61*101, 41*73*137, 43*127*211
            assert not is_prime(n), n
        with pytest.raises(InvalidParameterError):
            prime_power_modulus(252601, 1)

    def test_beyond_deterministic_range_is_rejected(self):
        with pytest.raises(InvalidParameterError):
            is_prime(10**25)

    def test_rejects_floats_even_after_the_int_is_cached(self):
        assert is_prime(7)
        for x in (7.0, 41.0, 2.5):
            with pytest.raises(InvalidParameterError):
                is_prime(x)


class TestPadicOrder:
    def test_integers(self):
        assert padic_order(2, 48) == 4
        assert padic_order(3, 48) == 1
        assert padic_order(5, 48) == 0
        assert padic_order(2, -48) == 4
        assert padic_order(7, 1) == 0

    def test_zero_has_infinite_order(self):
        assert padic_order(2, 0) == INFINITY
        assert padic_order(3, Fraction(0)) == INFINITY

    def test_fractions_can_have_negative_order(self):
        assert padic_order(3, Fraction(2, 9)) == -2
        assert padic_order(3, Fraction(9, 2)) == 2
        assert padic_order(2, Fraction(9, 2)) == -1
        assert padic_order(5, Fraction(-50, 3)) == 2

    def test_rejects_nonprime(self):
        with pytest.raises(InvalidParameterError):
            padic_order(4, 16)
        with pytest.raises(InvalidParameterError):
            padic_order(1, 3)

    def test_rejects_floats(self):
        # 0.5 has order -1 at 2; a float has no exact order to give.
        for x in (0.5, 48.0):
            with pytest.raises(InvalidParameterError):
                padic_order(2, x)

    @given(prime_st, st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_multiplicative_on_nonzero(self, p, a, b):
        if a and b:
            assert padic_order(p, a * b) == padic_order(p, a) + padic_order(p, b)

    @given(prime_st, st.integers(min_value=1, max_value=10**9))
    def test_order_is_exact_divisibility(self, p, n):
        k = padic_order(p, n)
        assert n % p**k == 0
        assert n % p ** (k + 1) != 0

    def test_infinity_semantics(self):
        assert INFINITY > 10**100
        assert INFINITY + 5 == INFINITY
        assert NEG_INFINITY < -(10**100)


class TestCarries:
    def test_known_values(self):
        assert carries(2, 1, 3) == 2
        assert carries(2, 1, 1) == 1
        assert carries(2, 0, 0) == 0
        assert carries(3, 5, 4) == 2  # 12 + 11 in base 3: two carries
        assert carries(7, 0, 123) == 0

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            carries(2, -1, 3)

    def test_rejects_floats(self):
        for a, b in ((1.5, 1), (1, 1.5), (2.0, 2)):
            with pytest.raises(InvalidParameterError):
                carries(2, a, b)

    def test_rejects_nonprime_base(self):
        with pytest.raises(InvalidParameterError):
            carries(6, 1, 1)

    @given(prime_st, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_matches_binomial_order(self, p, a, b):
        # Kummer: carries when adding a and b base p == ord_p(binomial(a+b, a)).
        # Computed here through factorial orders, an independent code path.
        expected = factorial_order(p, a + b) - factorial_order(p, a) - factorial_order(p, b)
        assert carries(p, a, b) == expected

    @given(prime_st, st.integers(0, 4000), st.integers(0, 4000))
    def test_matches_direct_binomial_factorization(self, p, a, b):
        assert carries(p, a, b) == padic_order(p, math.comb(a + b, a))

    @given(prime_st, st.integers(0, 10**6), st.integers(0, 10**6))
    def test_symmetric(self, p, a, b):
        assert carries(p, a, b) == carries(p, b, a)


class TestFactorialOrder:
    def test_known_values(self):
        assert factorial_order(2, 10) == 8
        assert factorial_order(2, 20) == 18
        assert factorial_order(3, 9) == 4
        assert factorial_order(5, 4) == 0
        assert factorial_order(2, 0) == 0

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            factorial_order(2, -1)

    def test_rejects_floats(self):
        for n in (4.5, 4.0):
            with pytest.raises(InvalidParameterError):
                factorial_order(2, n)

    @given(prime_st, st.integers(0, 400))
    def test_matches_actual_factorial(self, p, n):
        assert factorial_order(p, n) == padic_order(p, math.factorial(n))

    @given(prime_st, st.integers(0, 10**9))
    def test_digit_sum_form(self, p, n):
        digit_sum = 0
        q = n
        while q:
            digit_sum += q % p
            q //= p
        assert factorial_order(p, n) == (n - digit_sum) // (p - 1)


class TestScaledHelpers:
    def test_degenerate_regime(self):
        assert scaled_floor(7, 3, -1) == 21
        assert scaled_floor(0, 2, -1) == 0
        assert scaled_residue(7, 3, -1) == 0
        assert scaled_residue(-7, 3, -1) == 0

    def test_ordinary_regime(self):
        assert scaled_floor(7, 3, 0) == 7
        assert scaled_floor(29, 3, 2) == 3
        assert scaled_residue(29, 3, 2) == 2
        assert scaled_residue(-1, 3, 2) == 8

    def test_rejects_small_exponent(self):
        with pytest.raises(InvalidParameterError):
            scaled_floor(3, 2, -2)
        with pytest.raises(InvalidParameterError):
            scaled_residue(3, 2, -2)

    @pytest.mark.parametrize("args", [(4.5, 2, 1), (5, 2, 1.0), (5, 2.0, 1), (4.5, 2, -1), (4.0, 2, 0)])
    @pytest.mark.parametrize("fn", [scaled_floor, scaled_residue])
    def test_rejects_floats(self, fn, args):
        with pytest.raises(InvalidParameterError):
            fn(*args)

    @given(st.integers(-10**6, 10**6), prime_st, st.integers(0, 6))
    def test_floor_residue_decomposition(self, a, p, e):
        if a >= 0:
            assert a == scaled_floor(a, p, e) * p**e + scaled_residue(a, p, e)


class TestPrimePowerModulus:
    def test_modulus_value(self):
        assert PrimePowerModulus(3, 2).m == 9
        assert PrimePowerModulus(2, 0).m == 1

    def test_totient(self):
        assert PrimePowerModulus(3, 2).totient == 6
        assert PrimePowerModulus(2, 1).totient == 1
        with pytest.raises(InvalidParameterError):
            PrimePowerModulus(2, 0).totient

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PrimePowerModulus(6, 2)
        with pytest.raises(InvalidParameterError):
            PrimePowerModulus(3, -1)

    def test_frozen(self):
        pm = PrimePowerModulus(2, 3)
        with pytest.raises(Exception):
            pm.p = 5  # type: ignore[misc]

    def test_cached_factory_validates_and_shares(self):
        assert prime_power_modulus(3, 2) == PrimePowerModulus(3, 2)
        assert prime_power_modulus(3, 2) is prime_power_modulus(3, 2)
        for bad in ((6, 2), (1, 1), (3, -1), (2.0, 1)):
            with pytest.raises(InvalidParameterError):
                prime_power_modulus(*bad)


class TestWeismanBound:
    def test_reference_value(self):
        # p=2, alpha=1, n=20: floor((20 - 1) / 1) == 19.
        assert weisman_bound(PrimePowerModulus(2, 1), 20) == 19
        assert weisman_bound(PrimePowerModulus(3, 2), 20) == 2

    def test_matches_formula(self):
        for p, alpha in ((2, 1), (2, 3), (3, 2), (5, 1)):
            pm = PrimePowerModulus(p, alpha)
            for n in range(0, 60):
                assert weisman_bound(pm, n) == (n - p ** (alpha - 1)) // pm.totient

    def test_degenerate_regime_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            weisman_bound(PrimePowerModulus(2, 0), 10)

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidParameterError):
            weisman_bound(PrimePowerModulus(2, 1), -1)

    def test_rejects_floats(self):
        for n in (4.5, 20.0):
            with pytest.raises(InvalidParameterError):
                weisman_bound(PrimePowerModulus(2, 1), n)
