from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flecklab import sums
from flecklab.combinatorics import Polynomial, binomial
from flecklab.errors import InvalidParameterError
from flecklab.padic import INFINITY, PrimePowerModulus, padic_order
from flecklab.sums import (
    RestrictedSumSpec,
    _class_residues,
    alt_sum_binom,
    alt_sum_f,
    alt_sum_power,
    convolution_identity_holds,
    degree_order_bound,
    floor_order_bound,
    integer_valued_order_bound,
    plain_alt_sum,
    restricted_sum,
    restricted_sum_order,
    series_coefficient,
    unsigned_class_sum,
)


def brute_sum(n: int, r: int, m: int, f) -> "int | Fraction":
    """Completely naive reference: iterate all k in [0, n].  Independent of
    the cached class-sum kernel every evaluator under test is built on."""
    acc = 0
    for k in range(n + 1):
        if (k - r) % m == 0:
            acc += math.comb(n, k) * (-1) ** k * f((k - r) // m)
    return acc


class TestSumEvaluators:
    def test_hand_values(self):
        assert alt_sum_power(20, 0, 2, 0) == 2**19
        assert alt_sum_power(5, -3, 3, 1) == -19
        assert alt_sum_power(0, 7, 3, 2) == 0  # class of 7 mod 3 misses k=0
        assert alt_sum_power(0, 9, 3, 2) == 9  # single term, weight (-3)**2
        assert plain_alt_sum(0, 0, 4) == 1
        assert plain_alt_sum(6, 0, 1) == 0
        assert unsigned_class_sum(4, 0, 2) == 8

    def test_power_weight_rejects_negative_degree(self):
        with pytest.raises(InvalidParameterError, match="weight degree"):
            alt_sum_power(5, 7, 2, -1)
        with pytest.raises(InvalidParameterError, match="weight degree"):
            alt_sum_power(5, 0, 1, -1)

    @given(
        st.integers(0, 60),
        st.integers(-40, 40),
        st.integers(1, 30),
        st.integers(0, 6),
    )
    def test_power_weight_matches_brute_force(self, n, r, m, l):
        assert alt_sum_power(n, r, m, l) == brute_sum(n, r, m, lambda x: x**l)

    @given(
        st.integers(0, 60),
        st.integers(-40, 40),
        st.integers(1, 30),
        st.integers(-3, 6),
    )
    def test_binomial_weight_matches_brute_force(self, n, r, m, l):
        assert alt_sum_binom(n, r, m, l) == brute_sum(n, r, m, lambda x: binomial(x, l))

    @given(
        st.integers(0, 30),
        st.integers(-10, 20),
        st.integers(1, 6),
        st.lists(st.integers(-5, 5) | st.fractions(max_denominator=6), max_size=4),
    )
    def test_alt_sum_f_matches_brute_force(self, n, r, m, coeffs):
        f = Polynomial(coeffs)
        assert alt_sum_f(n, r, m, f) == brute_sum(n, r, m, f)

    @given(st.integers(0, 60), st.integers(-40, 40), st.integers(1, 30))
    def test_plain_and_unsigned_sums_match_brute_force(self, n, r, m):
        assert plain_alt_sum(n, r, m) == brute_sum(n, r, m, lambda x: 1)
        unsigned = sum(math.comb(n, k) for k in range(n + 1) if k % m == r % m)
        assert unsigned_class_sum(n, r, m) == unsigned

    @given(st.integers(-40, 40), st.integers(0, 30), st.integers(0, 12))
    def test_binomial_weights_extend_binomial_to_negative_j(self, j0, count, l):
        assert sums._binomial_weights(j0, count, l) == [binomial(j, l) for j in range(j0, j0 + count)]

    def test_offsets_sharing_a_class_keep_their_own_weights(self):
        # r, r + m and r - m share one cached term list; every weight index
        # must still be taken relative to its own r.
        n, m = 30, 7
        for r in (-11, -4, 3, 10, 17, 24):
            for l in range(5):
                assert alt_sum_power(n, r, m, l) == brute_sum(n, r, m, lambda x: x**l)

    def test_shifting_r_by_modulus_changes_the_weight(self):
        # Same summation set, different weight argument.
        assert alt_sum_power(6, 0, 2, 1) != alt_sum_power(6, 2, 2, 1)

    @pytest.mark.parametrize("m", [0, -1, -2])
    def test_every_evaluator_rejects_a_modulus_below_one(self, m):
        # m = 0 used to divide by zero, and a negative m summed an empty
        # class to a silent 0.
        evaluators = [
            lambda: plain_alt_sum(5, 0, m),
            lambda: unsigned_class_sum(5, 0, m),
            lambda: alt_sum_power(5, 0, m, 1),
            lambda: alt_sum_binom(5, 0, m, 1),
            lambda: alt_sum_binom(5, 0, m, -1),
            lambda: alt_sum_f(5, 0, m, lambda x: x),
            lambda: _class_residues(5, m, 2, 3),
        ]
        for evaluate in evaluators:
            with pytest.raises(InvalidParameterError, match="modulus must be positive"):
                evaluate()


def exact_residues(n, m, p, k):
    """plain_alt_sum of each class of row n mod m, reduced mod p**k."""
    return [plain_alt_sum(n, c, m) % p**k for c in range(m)]


class TestClassResidues:
    """_class_residues walks the row in units mod p**k and exact orders;
    plain_alt_sum per class, reduced mod p**k, is its oracle.  Half the row
    is walked and mirrored, so odd and even rows take different paths."""

    @given(
        st.sampled_from((2, 3, 5, 7)),
        st.integers(0, 3),
        st.one_of(st.integers(-2, 300), st.sampled_from((-2, -1, 0, 1, 2))),
        st.integers(0, 10),
    )
    def test_residues_are_the_exact_sums_mod_p_to_k(self, p, a, n, k):
        m = p**a
        assert _class_residues(n, m, p, k) == exact_residues(n, m, p, k)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8])
    def test_small_rows_of_both_parities(self, n):
        # k = 20 holds every sum of these rows, so the residues are the
        # exact sums mod p**k, negative ones included.
        for p in (2, 3):
            for m in (1, 2, 3, n + 1, n + 2, n + 5):
                assert _class_residues(n, m, p, 20) == exact_residues(n, m, p, 20)

    @pytest.mark.parametrize("p, n, k", [(2, 64, 3), (3, 81, 2), (5, 250, 2), (7, 98, 1)])
    def test_terms_of_order_k_and_above_vanish(self, p, n, k):
        # Most of these rows' binomials have order k or more, and each of
        # them is 0 mod p**k.
        vanishing = sum(padic_order(p, math.comb(n, i)) >= k for i in range(n + 1))
        assert 2 * vanishing > n + 1
        for a in range(4):
            m = p**a
            assert _class_residues(n, m, p, k) == exact_residues(n, m, p, k)

    # Interleaved primes, rows that grow and shrink, and precisions that
    # rise past the table's and fall below it.
    INTERLEAVED = [
        (3, 2, 40, 2), (5, 1, 300, 9), (3, 0, 200, 7), (3, 2, 10, 25), (5, 2, 40, 1),
        (3, 1, 301, 3), (7, 3, 250, 12), (5, 0, 299, 30), (2, 2, 120, 17), (7, 1, 400, 2),
        (2, 0, 401, 40), (3, 3, 5, 1),
    ]  # fmt: skip

    def test_interleaved_calls_and_a_cleared_table(self):
        for _ in range(2):
            for p, a, n, k in self.INTERLEAVED:
                m = p**a
                assert _class_residues(n, m, p, k) == exact_residues(n, m, p, k)
            sums._unit_inverse_table.cache_clear()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from((2, 3, 5, 7)),
                st.integers(0, 3),
                st.integers(-2, 300),
                st.integers(0, 30),
            ),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
    )
    def test_any_order_of_calls(self, calls, clear):
        if clear:
            sums._unit_inverse_table.cache_clear()
        for p, a, n, k in calls:
            m = p**a
            assert _class_residues(n, m, p, k) == exact_residues(n, m, p, k)

    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_inverse_table_entries(self, p):
        sums._unit_inverse_table.cache_clear()
        for k, count in ((3, 50), (2, 120), (11, 80), (5, 10)):
            inv, ords = sums._unit_inverses(p, k, count)
            top = sums._unit_inverse_table(p)[0]
            assert len(inv) == len(ords) >= count and top >= k
            for i, (x, v) in enumerate(zip(inv, ords)):
                b, rem = divmod(i + 1, p**v)
                assert rem == 0 and b % p and b * x % p**top == 1

    def test_hand_values(self):
        assert _class_residues(0, 3, 3, 2) == [1, 0, 0]
        assert _class_residues(4, 2, 2, 2) == [0, 0]  # 8 and -8 mod 4
        assert _class_residues(3, 5, 5, 1) == [1, 2, 3, 4, 0]  # 1, -3, 3, -1, 0 mod 5
        assert _class_residues(6, 4, 2, 0) == [0, 0, 0, 0]
        assert _class_residues(-1, 3, 3, 4) == [0, 0, 0]


class TestRestrictedSumSpec:
    def test_validation(self):
        f = Polynomial((1,))
        with pytest.raises(InvalidParameterError):
            RestrictedSumSpec(n=-1, r=0, modulus=2, f=f)
        with pytest.raises(InvalidParameterError):
            RestrictedSumSpec(n=3, r=0, modulus=0, f=f)

    def test_value_and_order(self):
        spec = RestrictedSumSpec(n=20, r=0, modulus=2, f=Polynomial.monomial(0))
        assert restricted_sum(spec) == 2**19
        assert restricted_sum_order(spec, 2) == 19

    def test_order_requires_power_of_p_modulus(self):
        spec = RestrictedSumSpec(n=5, r=0, modulus=6, f=Polynomial((1,)))
        with pytest.raises(InvalidParameterError):
            restricted_sum_order(spec, 2)

    @pytest.mark.parametrize("p", [1, 0, -2, 4])
    def test_order_rejects_a_non_prime_base(self, p):
        # p = 1 used to loop forever splitting powers of 1 off the modulus,
        # and p = 0 divided by zero.
        spec = RestrictedSumSpec(n=5, r=0, modulus=1, f=Polynomial((1,)))
        with pytest.raises(InvalidParameterError, match="prime"):
            restricted_sum_order(spec, p)

    def test_vanishing_sum_has_infinite_order(self):
        spec = RestrictedSumSpec(n=2, r=0, modulus=1, f=Polynomial((0, 1)))
        assert restricted_sum(spec) == 0
        assert restricted_sum_order(spec, 3) == INFINITY

    @given(
        st.integers(0, 25),
        st.integers(-8, 12),
        st.integers(1, 6),
        st.lists(st.integers(-4, 4), max_size=3),
        st.lists(st.integers(-4, 4), max_size=3),
    )
    def test_linearity_in_the_weight(self, n, r, m, c1, c2):
        f, g = Polynomial(c1), Polynomial(c2)
        f_plus_g = Polynomial(a + b for a, b in zip_longest(c1, c2, fillvalue=0))
        lhs = restricted_sum(RestrictedSumSpec(n=n, r=r, modulus=m, f=f_plus_g))
        rhs = restricted_sum(RestrictedSumSpec(n=n, r=r, modulus=m, f=f)) + restricted_sum(
            RestrictedSumSpec(n=n, r=r, modulus=m, f=g)
        )
        assert lhs == rhs


def series_coefficient_oracle(n: int, m: int, l: int, r: int) -> int:
    """Coefficient of x**r in (1-x)**n / (1-x**m)**(l+1) by power-series division."""
    num = [(-1) ** k * math.comb(n, k) if k <= n else 0 for k in range(r + 1)]
    den = [0] * (r + 1)
    for j in range(0, r // m + 1):
        # (1 - x**m)**(l+1) = sum_j C(l+1, j) (-1)**j x**(m*j)
        if m * j <= r:
            den[m * j] = (-1) ** j * math.comb(l + 1, j)
    coeffs = [0] * (r + 1)
    for i in range(r + 1):
        acc = num[i]
        for j in range(1, i + 1):
            if den[j]:
                acc -= den[j] * coeffs[i - j]
        coeffs[i] = acc  # den[0] == 1
    return coeffs[r]


class TestSeriesCoefficient:
    def test_against_long_division(self):
        for p, alpha in ((2, 1), (2, 2), (3, 1), (3, 2), (2, 3)):
            pm = PrimePowerModulus(p, alpha)
            for n in (0, 1, 5, 11):
                for l in range(3):
                    for r in range(0, 25):
                        assert series_coefficient(pm, n, l, r) == series_coefficient_oracle(
                            n, pm.m, l, r
                        ), (p, alpha, n, l, r)

    @given(
        st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (2, 0)]),
        st.integers(0, 40),
        st.integers(0, 4),
        st.integers(0, 60),
    )
    def test_closed_form_matches_brute_force(self, pa, n, l, r):
        pm = PrimePowerModulus(*pa)
        expected = sum(
            (-1) ** k * math.comb(n, k) * math.comb(l + (r - k) // pm.m, l)
            for k in range(min(n, r) + 1)
            if k % pm.m == r % pm.m
        )
        assert series_coefficient(pm, n, l, r) == expected

    def test_geometric_series_base_case(self):
        # n=0, l=0: 1/(1-x**m) has coefficient 1 exactly at multiples of m.
        pm = PrimePowerModulus(3, 1)
        for r in range(12):
            assert series_coefficient(pm, 0, 0, r) == (1 if r % 3 == 0 else 0)

    def test_rejects_negative_parameters(self):
        pm = PrimePowerModulus(2, 1)
        for bad in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(InvalidParameterError):
                series_coefficient(pm, *bad)


class TestOrderBounds:
    def test_reference_row(self):
        # p=2, alpha=1, r=0, n=20: degree bound 18 - l, floor bound 8.
        pm = PrimePowerModulus(2, 1)
        for l in range(11):
            assert degree_order_bound(pm, 20, 0, l) == 18 - l
        assert floor_order_bound(pm, 20, 0) == 8

    def test_degree_bound_of_zero_weight_is_infinite(self):
        pm = PrimePowerModulus(2, 1)
        assert degree_order_bound(pm, 20, 0, Polynomial(()).degree) == INFINITY

    def test_integer_valued_bound_value(self):
        # ord_2(10!) - l - ord_2(l!) + carries at level h=1 (tau = 0 at r=0).
        pm = PrimePowerModulus(2, 1)
        assert integer_valued_order_bound(pm, 20, 0, 4) == 18 - 4 - 3

    def test_degenerate_regime(self):
        # alpha=0: floor(n/p**-1) = pn and residues vanish.
        pm = PrimePowerModulus(2, 0)
        assert degree_order_bound(pm, 3, 1, 0) == 4  # ord_2(6!) == 4
        assert floor_order_bound(pm, 3, 1) == 1  # ord_2(3!), mod-1 residues vanish

    def test_validation(self):
        pm = PrimePowerModulus(2, 1)
        with pytest.raises(InvalidParameterError):
            degree_order_bound(pm, -1, 0, 0)
        with pytest.raises(InvalidParameterError):
            integer_valued_order_bound(pm, 3, 0, -1)
        with pytest.raises(InvalidParameterError):
            floor_order_bound(pm, -2, 0)

    @given(
        st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1), (3, 0)]),
        st.integers(0, 48),
        st.integers(-30, 60),
        st.integers(0, 5),
    )
    def test_bounds_hold_on_random_instances(self, pa, n, r, l):
        p, alpha = pa
        pm = PrimePowerModulus(p, alpha)
        power_order = padic_order(p, alt_sum_power(n, r, pm.m, l))
        assert power_order >= degree_order_bound(pm, n, r, l)
        binom_order = padic_order(p, alt_sum_binom(n, r, pm.m, l))
        assert binom_order >= integer_valued_order_bound(pm, n, r, l)
        if alpha >= 1:
            assert power_order >= floor_order_bound(pm, n, r)


class TestConvolutionIdentity:
    def test_hand_case(self):
        assert convolution_identity_holds(2, 2, 2, 0, Polynomial((0, 1)))

    def test_validation(self):
        f = Polynomial((1,))
        with pytest.raises(InvalidParameterError):
            convolution_identity_holds(0, 2, 3, 0, f)
        with pytest.raises(InvalidParameterError):
            convolution_identity_holds(2, 0, 3, 0, f)
        with pytest.raises(InvalidParameterError):
            convolution_identity_holds(2, 2, -1, 0, f)

    @given(
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 10),
        st.integers(-4, 6),
        st.lists(st.integers(-3, 3), max_size=3),
    )
    def test_holds_generically(self, d, m, n, r, coeffs):
        assert convolution_identity_holds(d, m, n, r, Polynomial(coeffs))
