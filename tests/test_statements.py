from __future__ import annotations

import dataclasses
import inspect
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from flecklab import statements
from flecklab.cli import _AXIS_FLAGS
from flecklab.errors import EmptyGridError, InvalidParameterError
from flecklab.padic import padic_order
from flecklab.quantities import normalized_sum_value
from flecklab.statements import (
    SEARCH_IDS,
    SEARCHES,
    SKIP,
    STATEMENT_IDS,
    STATEMENTS,
    DerivedAxis,
    Statement,
    check_digit_product_congruence,
    check_exact_attainment,
    check_factorial_ceiling,
    check_fleck_reduction,
    check_fleck_shift_chain,
    check_harmonic_congruence,
    check_lucas_reduction,
    check_normalized_refinement,
    check_parity_criterion,
    check_parity_delta,
    check_scaled_binomial_congruence,
)
from flecklab.sums import alt_sum_power, plain_alt_sum
from flecklab.verifier import iter_instances, run_statement, search_conjecture

EXPECTED_STATEMENT_IDS = (
    "T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.6", "T1.7", "T1.8",
    "C1.1cor", "C1.2cor", "C3.1cor",
    "L2.1", "L2.2", "L2.3", "L2.4", "L2.5", "T2.1",
    "L3.1", "L3.2", "T3.1", "L4.1", "L4.2", "T4.1", "R1.6",
    "CONJ1.1", "CONJ1.2", "CONJ1.3", "CONJ3.1",
)

EXPECTED_SEARCH_IDS = ("CONJ1.1", "CONJ1.2", "CONJ1.3", "CONJ3.1", "T1.5-alpha1")


def frac_mod(x, p: int) -> int:
    """Residue of a p-integral rational modulo p."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


class TestRegistry:
    def test_catalog_ids(self):
        assert STATEMENT_IDS == EXPECTED_STATEMENT_IDS
        assert SEARCH_IDS == EXPECTED_SEARCH_IDS
        assert set(STATEMENTS) == set(STATEMENT_IDS)
        assert set(SEARCHES) == set(SEARCH_IDS)

    def test_kinds(self):
        for sid, st in STATEMENTS.items():
            expected = "conjecture" if sid.startswith("CONJ") else "theorem"
            assert st.kind == expected, sid
        assert all(st.kind == "conjecture" for st in SEARCHES.values())

    def test_searches_share_conjecture_objects(self):
        for sid in ("CONJ1.1", "CONJ1.2", "CONJ1.3", "CONJ3.1"):
            assert SEARCHES[sid] is STATEMENTS[sid]
        assert "T1.5-alpha1" not in STATEMENTS

    def test_check_parameters_are_the_axes_in_order(self):
        # Sweeps pass each instance's values positionally, in axes order.
        for st in list(STATEMENTS.values()) + list(SEARCHES.values()):
            params = tuple(inspect.signature(st.check).parameters)
            assert params == st.axes, st.id
            # A hypothesis reads the prefix: every axis but the last.
            if st.hypothesis:
                params = tuple(inspect.signature(st.hypothesis).parameters)
                assert params == st.axes[:-1], st.id

    def test_public_checks_are_the_catalog_checks(self):
        assert STATEMENTS["T1.5"].check is check_lucas_reduction
        assert STATEMENTS["T1.6"].check is check_digit_product_congruence
        assert STATEMENTS["T1.7"].check is check_normalized_refinement
        assert STATEMENTS["T1.8"].check is check_exact_attainment
        assert STATEMENTS["C1.2cor"].check is check_parity_criterion
        assert STATEMENTS["C3.1cor"].check is check_fleck_shift_chain
        assert STATEMENTS["L3.1"].check is check_harmonic_congruence
        assert STATEMENTS["L3.2"].check is check_scaled_binomial_congruence
        assert STATEMENTS["T3.1"].check is check_fleck_reduction
        assert STATEMENTS["L4.1"].check is check_factorial_ceiling
        assert STATEMENTS["T4.1"].check is check_parity_delta

    def test_axes_match_cli_flags_and_defaults(self):
        for st in list(STATEMENTS.values()) + [SEARCHES["T1.5-alpha1"]]:
            assert len(set(st.axes)) == len(st.axes), st.id
            assert set(st.axes) <= set(_AXIS_FLAGS), st.id
            assert st.axes == tuple(st.defaults), st.id
            for axis, values in st.defaults.items():
                if isinstance(values, DerivedAxis):
                    assert isinstance(values.description, str) and values.description
                    assert callable(values.fn)
                else:
                    assert isinstance(values, tuple) and values, (st.id, axis)
                    assert all(isinstance(v, int) for v in values), (st.id, axis)

    def test_statement_is_frozen(self):
        st = STATEMENTS["T1.1"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            st.kind = "conjecture"

    def test_descriptions_are_informative(self):
        for st in SEARCHES.values():
            assert "conjectur" in st.description


class TestDigitReduction:
    def test_accepts_verified_instance(self):
        assert check_lucas_reduction(2, 2, 0, 10, 2) is True
        assert check_lucas_reduction(3, 2, 1, 12, 5) is True

    def test_relates_nonzero_values(self):
        # The congruence is not vacuous: instances exist where the reduced
        # side is a p-adic unit, and the reduction still holds there.
        found = 0
        for n in range(4, 24):
            for r in range(8):
                rhs = (-1) ** (r % 2) * math.comb(n % 2, r % 2) * normalized_sum_value(
                    2, 2, 0, n // 2, r // 2
                )
                if rhs != 0 and frac_mod(rhs, 2) != 0:
                    assert check_lucas_reduction(2, 2, 0, n, r) is True
                    found += 1
        assert found > 0

    def test_needs_alpha_at_least_two(self):
        assert STATEMENTS["T1.5"](2, 1, 0, 10, 2) == SKIP


class TestDigitProductCongruence:
    def test_instance_recomputed_from_scratch(self):
        # p=2, alpha=2, l=1, n=6, r=2, s=1, t=0.  Left side sums over
        # k in {2, 6}: binomial(13, 4)*0 + binomial(13, 12)*2 = 26;
        # right side: binomial(6,6)*binomial(1,0)*2 = 2; the difference
        # over floor(6/2)! = 6 is 4, of 2-adic order 2 >= 1.
        lh = math.comb(13, 4) * 0 + math.comb(13, 12) * 2
        assert lh == 26
        rh = math.comb(6, 6) * math.comb(1, 0) * 2
        assert rh == 2
        assert padic_order(2, Fraction(lh - rh, math.factorial(3))) == 2
        assert check_digit_product_congruence(2, 2, 1, 6, 1, 0, 2) is True

    @given(
        hst.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3), (5, 2)]),
        hst.integers(0, 3),
        hst.integers(0, 24),
        hst.integers(-30, 40),
        hst.data(),
    )
    def test_matches_the_definition(self, pa, l, n, r, data):
        # Both class sums written out over k == r (mod p**alpha), as stated.
        p, alpha = pa
        s = data.draw(hst.integers(0, p - 1))
        t = data.draw(hst.integers(0, p - 1))
        m, h = p**alpha, p ** (alpha - 1)
        lh = rh = 0
        for k in range(n + 1):
            if k % m == r % m:
                lh += math.comb(p * n + s, p * k + t) * (-1) ** (p * k) * ((k - r) // h) ** l
                rh += math.comb(s, t) * math.comb(n, k) * (-1) ** k * ((k - r) // h) ** l
        o = padic_order(p, Fraction(lh - rh, math.factorial(n // h)))
        expected = True if o >= 1 else (f"difference order {o}", ">= 1")
        assert check_digit_product_congruence(p, alpha, l, n, s, t, r) == expected

    def test_validation(self):
        assert check_digit_product_congruence(2, 1, 0, 6, 1, 0, 2) == SKIP
        assert check_digit_product_congruence(2, 2, 0, 6, 2, 0, 2) == SKIP
        assert check_digit_product_congruence(2, 2, 0, 6, 0, -1, 2) == SKIP
        assert check_digit_product_congruence(2, 2, 0, -1, 0, 0, 2) == SKIP


class TestNormalizedRefinement:
    def test_instance_recomputed_from_scratch(self):
        # p=2, alpha=3, n=5, s=1, t=0, r=1: left side is
        # (binomial(11,2) + binomial(11,10)) / 2 = 33, right side is
        # -(binomial(5,1) + binomial(5,5)) / 2 = -3; difference 36.
        assert plain_alt_sum(11, 2, 8) == 66
        assert plain_alt_sum(5, 1, 4) == -6
        assert padic_order(2, Fraction(66, 2) - Fraction(-6, 2)) == 2
        assert check_normalized_refinement(2, 3, 5, 1, 0, 1) is True

    def test_validation(self):
        assert check_normalized_refinement(2, 1, 5, 0, 0, 1) == SKIP
        assert check_normalized_refinement(2, 3, 5, 2, 0, 1) == SKIP


class TestParityCriterion:
    def test_verified_instances(self):
        assert check_parity_criterion(2, 12, 4) is True
        assert check_parity_criterion(3, 16, 8) is True
        assert check_parity_criterion(4, 33, 1) is True

    def test_needs_alpha_at_least_two(self):
        assert check_parity_criterion(1, 12, 4) == SKIP


class TestExactAttainment:
    def test_spot_values(self):
        assert check_exact_attainment(1, 20, 10) is True
        assert check_exact_attainment(1, 20, 18) is True
        assert check_exact_attainment(0, 3, 3) is True

    def test_inadmissible_weights_skip(self):
        assert check_exact_attainment(1, 20, 11) == SKIP  # 11 - 10 not == 0 mod 8
        assert check_exact_attainment(1, 20, 9) == SKIP  # below floor(n/2)
        assert check_exact_attainment(3, 7, 5) == SKIP  # floor(7/8) == 0

    def test_validation(self):
        # alpha is the modulus exponent, so a negative one is an error.
        with pytest.raises(InvalidParameterError):
            check_exact_attainment(-1, 20, 10)
        assert check_exact_attainment(1, -1, 0) == SKIP


class TestFleckReductions:
    def test_divisible_class_instance(self):
        # fleck(2,3,3,2) = 33 and fleck(2,2,3,1) = -3 differ by 36,
        # of 2-adic order 2 >= (2-1)*(3-2).
        assert check_fleck_reduction(2, 3, 3, 2) is True

    def test_nondivisible_class_instance(self):
        assert check_fleck_reduction(2, 3, 3, 1) is True
        assert check_fleck_reduction(3, 3, 5, 2) is True

    def test_shift_chain_instance(self):
        # fleck(2,3,4,2) = 1016 vs fleck(2,2,4,1) = -8: difference 1024.
        assert check_fleck_shift_chain(2, 3, 1, 4, 1) is True
        assert check_fleck_shift_chain(3, 2, 0, 5, 1) is True

    def test_validation(self):
        assert STATEMENTS["T3.1"](2, 1, 3, 1) == SKIP
        assert check_fleck_shift_chain(2, 2, 2, 4, 1) == SKIP
        assert check_fleck_shift_chain(2, 2, -1, 4, 1) == SKIP


class TestHarmonicCongruence:
    def test_instance_recomputed_from_scratch(self):
        # m=4, n=2, r=1: (1/2)(1 + 1/5) = 3/5; subtracting 1/1 and m/2 = 2
        # leaves -12/5 of 2-adic order 2 = ord_2(4).
        lhs = Fraction(1, 2) * (Fraction(1, 1) + Fraction(1, 5))
        assert lhs - 1 - 2 == Fraction(-12, 5)
        assert check_harmonic_congruence(4, 2, 1) is True

    def test_composite_modulus(self):
        assert check_harmonic_congruence(6, 4, 5) is True
        assert check_harmonic_congruence(12, 6, 7) is True

    def test_validation(self):
        assert check_harmonic_congruence(4, 2, 2) == SKIP
        assert check_harmonic_congruence(0, 2, 1) == SKIP
        assert check_harmonic_congruence(4, 0, 1) == SKIP


class TestScaledBinomialCongruence:
    def test_instances(self):
        # binomial(9,3) - binomial(3,1) = 81 has 3-adic order 4 = 2*1 + 2.
        assert math.comb(9, 3) - math.comb(3, 1) == 81
        assert check_scaled_binomial_congruence(3, 3, 1) is True
        # p=2 sign flip: binomial(4,2) + binomial(2,1) = 8, order 3 = 2*1 + 1.
        assert math.comb(4, 2) + math.comb(2, 1) == 8
        assert check_scaled_binomial_congruence(2, 2, 1) is True

    def test_validation(self):
        assert check_scaled_binomial_congruence(2, 0, 1) == SKIP
        assert check_scaled_binomial_congruence(2, 3, -1) == SKIP


class TestFactorialCeiling:
    def test_attained_exactly_for_zero_quotient(self):
        assert check_factorial_ceiling(3, 0, 0, 1) is True
        assert check_factorial_ceiling(3, 0, 0, 2) is True
        assert check_factorial_ceiling(3, 0, 2, 2) is True  # low = (-2) % 2 = 0 < 2 < 3
        assert check_factorial_ceiling(2, 0, 0, 1) is True
        assert check_factorial_ceiling(2, 3, 4, 1) is True

    def test_validation(self):
        assert check_factorial_ceiling(3, 0, 1, 1) == SKIP  # r == low
        assert check_factorial_ceiling(3, 0, 0, 3) == SKIP  # r == p
        assert check_factorial_ceiling(3, -1, 0, 1) == SKIP
        assert check_factorial_ceiling(3, 0, -1, 2) == SKIP


class TestParityDelta:
    def test_instances(self):
        # Arguments (alpha, c, e, d, l).
        assert check_parity_delta(1, 1, 1, 0, 0) is True
        assert check_parity_delta(2, 3, 2, 2, 2) is True  # l == d: value must be odd
        assert check_parity_delta(2, 3, 2, 2, 1) is True  # l < d: value must be even

    def test_validation(self):
        assert check_parity_delta(1, 1, 1, 2, 0) == SKIP  # d >= 2**e
        assert check_parity_delta(1, 1, 1, 1, 2) == SKIP  # l > d


class TestAdapterSkips:
    def test_series_adapter_skips_out_of_range_offsets(self):
        check = STATEMENTS["T1.3"].check
        assert check(p=2, alpha=1, n=5, r=-1, l=0) == SKIP
        assert check(p=2, alpha=1, n=5, r=1, l=0) == SKIP  # r <= n - (l+1) m
        assert check(p=2, alpha=1, n=5, r=5, l=0) is True

    def test_harmonic_adapter_skips_noncoprime_classes(self):
        check = STATEMENTS["L3.1"].check
        assert check(m=4, n=2, r=2) == SKIP
        assert check(m=4, n=2, r=1) is True

    def test_attainment_adapter_skips_inadmissible_weights(self):
        check = STATEMENTS["T1.8"].check
        assert check(alpha=1, n=20, l=11) == SKIP
        assert check(alpha=3, n=7, l=3) == SKIP
        assert check(alpha=1, n=20, l=10) is True

    def test_digit_search_adapter_skips_top_digit_case(self):
        check = SEARCHES["CONJ1.2"].check
        assert check(p=3, n=7, s=2) == SKIP
        assert check(p=3, n=7, s=0) is True

    def test_unit_value_adapter_skips_small_n(self):
        # n >= 2 p**alpha - 1 is the hypothesis on a row's prefix, and j >= 0
        # the check's own.
        st = SEARCHES["CONJ1.3"]
        assert st(2, 2, 5, 0, 0) == SKIP
        assert not st.hypothesis(2, 2, 6, 0)
        assert st.hypothesis(2, 2, 7, 0)
        assert st.check(p=2, alpha=2, n=7, r=0, j=-1) == SKIP


class TestAdapterValidation:
    def test_recurrence_adapter_needs_alpha_at_least_one(self):
        assert STATEMENTS["L2.2"](2, 0, 1, 3, 0) == SKIP

    def test_convolution_adapter_needs_alpha_at_least_one(self):
        assert STATEMENTS["L2.4"].check(p=2, alpha=0, l=1, n=3, r=0) == SKIP

    def test_non_prime_p_is_rejected(self):
        for sid in ("T1.1", "T1.2", "T1.3", "L2.2", "T2.1"):
            st = STATEMENTS[sid]
            values = dict(p=4, alpha=1, l=1, n=3, r=0)
            with pytest.raises(InvalidParameterError, match="prime"):
                st.check(*(values[a] for a in st.axes))

    @pytest.mark.parametrize("p", [-1, 0, 1])
    def test_unit_value_adapter_rejects_p_without_looping(self, p):
        # Its weight window grows p**k past n, which never happens for |p| <= 1.
        with pytest.raises(InvalidParameterError, match="prime"):
            SEARCHES["CONJ1.3"].check(p, 1, 5, 0, 0)


class TestDigitSearchResidues:
    def test_residue_permutation_case(self):
        # p=3, n=7, s=0 falls in the exceptional clause: for each digit t
        # in {1, 2} the normalized sums are 3-integral with one residue
        # independent of r, and the residues form a permutation of {1, 2}.
        w1 = (3 * 7 + 0 - 3) // 6
        residues = {}
        for t in (1, 2):
            seen = set()
            for r in range(3):
                v = Fraction(plain_alt_sum(21, 3 * r + t, 9), 3**w1)
                seen.add(frac_mod(v, 3))
            assert len(seen) == 1, (t, seen)
            residues[t] = seen.pop()
        assert residues == {1: 2, 2: 1}


class TestPowerWeights:
    """CONJ1.3's weights i**l mod q, built from the powers at primes for a
    window from i0 >= 0 of three or more; pow at every i is their oracle."""

    @given(
        hst.integers(-20, 60),
        hst.integers(0, 200),
        hst.integers(0, 40),
        hst.sampled_from((1, 2, 3, 10, 7**5, 3**30, 2**64 + 1)),
    )
    def test_weights_are_the_powers(self, i0, count, l, q):
        got = statements._power_weights(i0, count, l, q)
        assert got == tuple(pow(i, l, q) for i in range(i0, i0 + count))

    @pytest.mark.parametrize(
        "i0, count, l, q",
        [
            (0, 9, 0, 7), (0, 9, 0, 1), (0, 2, 5, 9), (3, 1, 5, 9), (0, 0, 3, 9), (-4, 9, 3, 9),
            (-1, 2, 0, 9),
        ],  # fmt: skip
    )
    def test_edge_windows(self, i0, count, l, q):
        # l = 0 (0**0 is 1), windows of fewer than three, negative i0.
        got = statements._power_weights(i0, count, l, q)
        assert got == tuple(pow(i, l, q) for i in range(i0, i0 + count))

    @pytest.mark.parametrize("size", [1, 2, 4, 64, 1024])
    def test_least_factors(self, size):
        least = statements._least_factors(size)
        assert least[:2] == tuple(range(min(size, 2)))
        for i in range(2, size):
            assert least[i] == next(f for f in range(2, i + 1) if i % f == 0)


class TestUnitValueSigns:
    def test_both_signs_occur_on_the_default_grid(self):
        # The report schema does not record which unit (+1 or -1) each
        # instance produced; this documents that both genuinely occur.
        st = SEARCHES["CONJ1.3"]
        seen = set()
        for values in iter_instances(st, {"p": (3,)}):
            params = dict(zip(st.axes, values))
            p, alpha, n, r, j = (params[k] for k in ("p", "alpha", "n", "r", "j"))
            ma = p**alpha
            if n < 2 * ma - 1:
                continue
            n0 = n // ma
            e = 0
            while p ** (alpha + e + 1) <= n:
                e += 1
            step = (p - 1) * p**e
            base = r // ma + (n - r) // ma
            l = n0 + (base - n0) % step + j * step
            r_star = r % ma
            n_star = r_star + (n - r) % ma
            v = Fraction(
                alt_sum_power(n, r, ma, l), math.factorial(n0) * math.comb(n_star, r_star)
            )
            seen.add(frac_mod(v, p))
        assert seen == {1, 2}


# Every entry with a modulus axis, with an invalid value on that axis.
MODULUS_CASES = [
    (sid, axis, value)
    for sid, st in {**STATEMENTS, **SEARCHES}.items()
    for axis, value in (("alpha", -1), ("p", 1), ("p", 0))
    if axis in st.axes
]


def _size_case(sid: str, axis: str, inside=None):
    """A negative value on one size axis (n, l, m, d, fdeg) of a small grid,
    by default one sharing the main grid; L2.2 also needs n >= 1, since its
    recurrences read the sums at n - 1."""
    inside = inside or {"p": (2,), "alpha": (1,), "n": (1, 2), "l": (0, 1)}
    low = 1 if (sid, axis) == ("L2.2", "n") else 0
    widened = {axis: tuple(range(-1, low)) + inside[axis]}
    return sid, inside, widened, lambda v: v[axis] < low


# Small grids of the entries off the main grid; each case sets its axis to
# (1,) and then widens it to (-1, 1).
SMALL_GRIDS = {
    "T1.4": {"p": (2,), "alpha": (1,), "l": (0, 1)},
    "T1.5": {"p": (2,), "alpha": (2,), "l": (0, 1), "n": (1, 2)},
    "T1.7": {"p": (2,), "n": (1, 2)},
    "C1.2cor": {"alpha": (2,), "n": (1, 2)},
    "C1.1cor": {"p": (2,), "alpha": (1,), "m": (1, 2), "n": (1, 2)},
    "C3.1cor": {"p": (2,), "alpha": (2,), "n": (1, 2), "r": (0, 1)},
    "L2.3": {"d": (1, 2), "m": (1, 2), "n": (0, 2), "r": (0, 1), "fdeg": (0, 1)},
    "T3.1": {"p": (2,), "alpha": (2,), "n": (1, 2)},
    "CONJ1.1": {"p": (3,), "alpha": (1,), "l": (0, 1), "n": (1, 2)},
    "CONJ3.1": {"p": (3,), "alpha": (2,), "n": (1, 2)},
    "T1.5-alpha1": {"p": (2,), "l": (0, 1), "n": (1, 2)},
}


SIZE_CASES = [
    _size_case(sid, axis)
    for sid, axes in (
        ("T1.1", "n"),
        ("T1.2", "nl"),
        ("T1.3", "nl"),
        ("T2.1", "nl"),
        ("L2.2", "nl"),
        ("L2.4", "nl"),
    )
    for axis in axes
] + [
    _size_case(sid, axis, {**SMALL_GRIDS[sid], axis: (1,)})
    for sid, axes in (
        ("T1.4", ["l"]),
        ("T1.5", ["n", "l"]),
        ("T1.7", ["n"]),
        ("C1.1cor", ["m", "n"]),
        ("C1.2cor", ["n"]),
        ("C3.1cor", ["n"]),
        ("L2.3", ["d", "m", "n", "fdeg"]),
        ("T3.1", ["n"]),
        ("CONJ1.1", ["n", "l"]),
        ("CONJ3.1", ["n"]),
        ("T1.5-alpha1", ["n", "l"]),
    )
    for axis in axes
]


class TestPreconditionRule:
    @pytest.mark.parametrize("sid, axis, value", MODULUS_CASES)
    def test_invalid_modulus_raises_invalid_parameter_error(self, sid, axis, value):
        # Raised by prime_power_modulus from a derived window or the check;
        # any other exception type (TypeError from a float window, a
        # ZeroDivisionError, ...) fails this test.
        sweep = run_statement if sid in STATEMENTS else search_conjecture
        with pytest.raises(InvalidParameterError) as info:
            sweep(sid, grid={axis: (value,)})
        assert not isinstance(info.value, EmptyGridError)

    @pytest.mark.parametrize(
        "sid, inside, widened, excluded",
        [
            # digits s >= p
            (
                "T1.6",
                {"p": (2, 3), "alpha": (2,), "n": (3,)},
                {"s": (0, 1, 2)},
                lambda v: v["s"] >= v["p"],
            ),
            # alpha below the proven range
            (
                "T1.5",
                {"p": (2, 3), "alpha": (2,), "l": (0, 1), "n": tuple(range(11))},
                {"alpha": (1, 2)},
                lambda v: v["alpha"] < 2,
            ),
            (
                "T1.7",
                {"p": (2, 3), "alpha": (2,), "n": tuple(range(9))},
                {"alpha": (1, 2)},
                lambda v: v["alpha"] < 2,
            ),
            (
                "CONJ3.1",
                {"p": (3,), "alpha": (2,), "n": tuple(range(9))},
                {"alpha": (1, 2)},
                lambda v: v["alpha"] < 2,
            ),
            (
                "L2.5",
                {"p": (2, 3), "alpha": (1,), "n": tuple(range(9))},
                {"alpha": (0, 1)},
                lambda v: v["alpha"] < 1,
            ),
            # (p, 0) is a modulus; the inverse sequence needs alpha >= 1
            (
                "T1.4",
                {"p": (2, 3), "alpha": (1,), "l": (0, 1)},
                {"alpha": (0, 1)},
                lambda v: v["alpha"] < 1,
            ),
            # e < 0 leaves no digit d in [0, 2**e)
            ("T4.1", {"alpha": (1,), "e": (1, 2)}, {"e": (-1, 1, 2)}, lambda v: v["e"] < 0),
            # negative weight degrees, sizes and weight indices
            (
                "T1.1",
                {"p": (2,), "alpha": (1,), "n": tuple(range(9)), "l": (1,)},
                {"l": (-1, 1)},
                lambda v: v["l"] < 0,
            ),
            (
                "T1.6",
                {"p": (3,), "alpha": (2,), "n": (3,), "l": (1,)},
                {"l": (-1, 1)},
                lambda v: v["l"] < 0,
            ),
            ("R1.6", {"n": tuple(range(5)), "l": (1,)}, {"l": (-1, 1)}, lambda v: v["l"] < 0),
            ("R1.6", {"n": (1,), "l": tuple(range(5))}, {"n": (-1, 1)}, lambda v: v["n"] < 0),
            (
                "L2.1",
                {"p": (2,), "n": (1,), "l": tuple(range(5))},
                {"n": (-1, 1)},
                lambda v: v["n"] < 0,
            ),
            (
                "L2.1",
                {"p": (2,), "n": tuple(range(5)), "l": (1,)},
                {"l": (-1, 1)},
                lambda v: v["l"] < 0,
            ),
            (
                "CONJ1.3",
                {"p": (2,), "alpha": (1,), "j": (1,)},
                {"j": (-1, 1)},
                lambda v: v["j"] < 0,
            ),
            ("CONJ1.2", {"p": (3,), "n": (1,)}, {"n": (-1, 1)}, lambda v: v["n"] < 0),
            # s is a digit, 0 <= s < p
            (
                "CONJ1.2",
                {"p": (3,), "n": tuple(range(5)), "s": (1,)},
                {"s": (-1, 1, 3)},
                lambda v: not 0 <= v["s"] < v["p"],
            ),
            *SIZE_CASES,
        ],
    )
    def test_out_of_hypothesis_instances_are_skipped(self, sid, inside, widened, excluded):
        st = STATEMENTS.get(sid) or SEARCHES[sid]
        sweep = run_statement if sid in STATEMENTS else search_conjecture
        grid = {**inside, **widened}
        n_excluded = sum(excluded(dict(zip(st.axes, v))) for v in iter_instances(st, grid))
        assert n_excluded > 0
        base = sweep(sid, grid=inside)
        report = sweep(sid, grid=grid)
        assert report.status == "pass"
        assert report.checked == base.checked
        assert report.skipped == base.skipped + n_excluded
