"""Catalog of checkable statements.

Each entry couples a short opaque id (the token the CLI accepts) with a
check over one tuple of integer parameters.  A check returns True on
success, the SKIP marker when the instance fails the statement's
precondition, or an (observed, expected) pair describing the failure.
Default sweep grids are part of each entry, and their keys, in order, are
the entry's axes and its check's parameters; axes whose sensible range
depends on earlier axes (for example a residue window that scales with
the modulus) are derived on the fly and documented as such in reports.

A check may also have a row form, which checks one row of the grid
(every axis but the last fixed, the last axis's values in any order) in
one call.  It computes only what the row's instances share, such as the
class terms, the bound terms or the normalized sums at the row's
residues, and passes each value's to the verdict function its check
uses, so a verdict and its failure strings are written once.  T1.1-T1.3,
L2.2, T2.1, T1.5, T1.5-alpha1, CONJ1.1, T3.1, CONJ3.1, CONJ1.2 and
CONJ1.3 have one.  T3.1 and CONJ3.1 read every Fleck sum of a row from
quantities._fleck_sums, one residue fold of each binomial row they need,
mod p to one power past the bound their verdict holds the sums to
(_fleck_reduction_bound, _conj31_bound); their per-instance checks read
the exact sums.  CONJ1.2's verdict reads each normalized sum only mod p,
so its row form reads row n's class sums mod p, and row p*n + s's mod
p**2, from one residue fold each, to one power of p past Weisman's
exponent: row p*n + s once, at the row's least digit s, to the precision
of its greatest (the exponent does not fall as s grows), and each next
digit's row by Pascal's rule, S'[c] = S[c] - S[c - 1 mod p**2] (a property
of binomial rows, not the digit congruence it checks).  Its check reads
the exact class sums from the kernel, one plain_alt_sum per class; both
hand the sums to _conj12_verdict.
T1.5, T1.5-alpha1 and CONJ1.1 read the normalized sums of their two
levels from quantities._norm_sums, the one evaluator of normalized sums;
the p consecutive rows of T1.5 and T1.5-alpha1 that share n // p share
their right sums (_right_sums, dropped once n // p moves on), and no other
value is kept.  _difference_verdict decides their "order >= bound" by one
divisibility test.  CONJ1.3's row form reads D and od = ord_p(D) once,
steps each product t * i**l of a class term and its weight, mod
p**(od + 1), from one j to the next by a factor i**step (weights and
factors both read from _power_weights, which the rows of one
(p, alpha, n) share, and which powers only the primes of a window from
i = 0 up and multiplies every other weight from two smaller ones), and
decides each sum mod p**(od + 1).
Each of these twelve entries declares its hypothesis on a row's prefix once
(Statement.hypothesis), and a row outside it is skipped whole, so a row
form sees only rows inside it.  It returns one result per value, or None
to hand a row too sparse to share anything back: Statement.check_row then
runs the check once per value, as it does for a check with no row form.
Row forms are looked up by the check they were written for, and the tests
hold each to its check, the statement's spec.  A row form reads its whole
row before any verdict, so an InternalInvariantError it raises need not
be the one its first raising check would; a sweep names such an error by
running the row again one check at a time (verifier._named).
A residue class r mod m with r mod m > n has no terms, so its sum is 0, of
order INFINITY, and meets every bound: the row forms of T1.1-T1.3, T2.1
and L2.2 pass such values without computing a bound or a verdict.

Plain class sums are normalized in one place: T1.7, CONJ1.2 and the Fleck
sums divide them by p to Weisman's exponent through
quantities._weisman_normalized, which raises InternalInvariantError if
the division is not exact, and C1.2cor reads the same exponent from
padic._weisman.  Fleck's exponent floor((n-1)/(p-1)) is its special case
at row p**(alpha-1) * n.  Every normalized value is an exact integer, or,
in the Fleck row forms, its exact residue mod p**(b + 1), and in CONJ1.2's
row form a residue mod p.

Every check in the catalog runs in integers: a rational is carried as an
integer numerator and denominator, neither reduced, and its order is
ord_p(numerator) - ord_p(denominator).  A Fraction is built only to word a
failure; the public functions that return one (normalized_sum_value,
convolution_weight, bernoulli_polynomial, weighted_inverse_sequence) are
not on any sweep's value path; bernoulli_polynomial is read once per
index, to build the cached integer polynomial D_m * B_m.

Conjectural statements carry kind "conjecture".  They are searched, never
asserted: a failing instance is reported as a counterexample, it does not
invalidate the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .combinatorics import (
    Polynomial,
    _class_binomials,
    _inverse_products,
    _scaled_bernoulli,
    binomial,
    binomial_inversion,
    stirling2,
)
from .errors import InternalInvariantError
from .padic import (
    _carries,
    _factorial_order,
    _int_order,
    _scaled_residue,
    _weisman,
    # No check calls padic_order: each reads _int_order once p is validated.
    # The name stays because perfbench's tracer test looks it up here.
    padic_order,
    prime_power_modulus,
)
from .quantities import (
    _convolution_weight_order,
    _fleck_sums,
    _norm_denominator,
    _norm_index,
    _norm_sum_value,
    _norm_sum_window,
    _norm_sums,
    _weisman_normalized,
    fleck_sum_value,
)
from .sums import (
    _binomial_sums,
    _bound_terms,
    _class_residues,
    _power_sums,
    _series_sums,
    alt_sum_binom,
    alt_sum_power,
    convolution_identity_holds,
    degree_order_bound,
    floor_order_bound,
    integer_valued_order_bound,
    plain_alt_sum,
    series_coefficient,
    unsigned_class_sum,
)

__all__ = [
    "SKIP",
    "STATEMENTS",
    "SEARCHES",
    "STATEMENT_IDS",
    "SEARCH_IDS",
    "DerivedAxis",
    "Statement",
    "check_digit_product_congruence",
    "check_exact_attainment",
    "check_factorial_ceiling",
    "check_fleck_reduction",
    "check_fleck_shift_chain",
    "check_harmonic_congruence",
    "check_lucas_reduction",
    "check_normalized_refinement",
    "check_parity_criterion",
    "check_parity_delta",
    "check_scaled_binomial_congruence",
]

SKIP = "skip"


@dataclass(frozen=True)
class DerivedAxis:
    """An axis whose default values are computed from the axes before it."""

    description: str
    fn: Callable[[dict], Sequence[int]]


@dataclass(frozen=True)
class Statement:
    id: str
    kind: str  # "theorem" or "conjecture"
    description: str
    defaults: Mapping[str, object]  # axis -> tuple of ints, or DerivedAxis
    check: Callable[..., object]
    # The statement's hypothesis on a row's prefix (the values of every axis
    # but the last), or None: the check and the row form see only prefixes
    # for which it holds, and every value under any other prefix is SKIP.
    hypothesis: "Callable[..., bool] | None" = None

    @property
    def axes(self) -> tuple[str, ...]:
        """The sweep axes, in the order of the default grid's keys."""
        return tuple(self.defaults)

    def __call__(self, *params: int):
        """The result of one instance, params in axes order: SKIP outside
        the hypothesis, else the check's."""
        if self.hypothesis and not self.hypothesis(*params[:-1]):
            return SKIP
        return self.check(*params)

    def check_row(self, prefix: tuple[int, ...], values: Sequence[int]) -> list:
        """The results of one row: prefix holds the values of every axis but
        the last, values the last axis's values under it.  A row outside the
        hypothesis is all SKIP.  The row form is the one written for this
        entry's check (a swapped-in copy has none); a row it hands back, or
        without one, is checked once per value."""
        if self.hypothesis and not self.hypothesis(*prefix):
            return [SKIP] * len(values)
        row = _ROW_FORMS.get(self.check)
        results = row(*prefix, values) if row else None
        if results is None:
            check = self.check
            return [check(*prefix, v) for v in values]
        return results


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# Every rational a check reads is carried in integer form.  Normalized sums
# are (num, d!, ord_p(d!)), worth num / d!: num is quantities._norm_sum_value
# and (d!, ord_p(d!)) is quantities._norm_denominator, which depends on
# (p, alpha, n) alone.  A row form reads the numerators of its row from
# quantities._norm_sums and the denominator once (T2.1 only its order,
# from d = quantities._norm_index, as _norm_sums does); the lift verdicts
# take the numerators alone, with their row's constants.  L2.1 evaluates its
# own numerators over the same (p*n)!, as it checks the closed form that
# _norm_sums holds them to.  The other rationals of the catalog (the
# harmonic sums of L3.1, the Bernoulli values of C1.1cor, T1.4's inverse
# sequence, L2.5's weights and CONJ1.3's value) are an integer numerator
# and denominator.  Checks compare by cross-multiplying, take orders of the
# two integers, and build a Fraction only to describe a failure.  CONJ1.3
# reads its numerator S only mod p**(ord_p(D) + 1), the power its verdict
# tests, and sums the exact S only for a failure; its row form's weights
# i**l mod that power are powered at primes only (_power_weights).


def _norm_parts(p: int, alpha: int, l: int, n: int, r: int) -> tuple[int, int, int]:
    return (_norm_sum_value(p, alpha, l, n, r), *_norm_denominator(p, alpha, n))


def _reaches(p: int, x: int, k: int) -> bool:
    """ord_p(x) >= k for k >= 0, by one divisibility test."""
    return x % p**k == 0


def _difference_verdict(p: int, a: int, c: int, b: int, k: tuple[int, int, int], need: int):
    """True when ord_p(x - c*y) = ord_p(a*fb - c*b*fa) - oa - ob reaches need
    for normalized sums x = a / fa and y = b / fb, with k = (fa, fb, oa + ob)
    their row's constants, built once per row from the two denominators
    (fa, oa) and (fb, ob) (_norm_denominator), that is when p**(oa + ob +
    need) divides a*fb - c*b*fa; else _at_least's pair, from the exact order."""
    fa, fb, o = k
    diff = a * fb - c * b * fa
    if _reaches(p, diff, o + need):
        return True
    return _at_least(_int_order(p, diff) - o, need, "difference order")


def _lucas_constants(p: int, alpha: int, n: int) -> tuple[tuple[int, int, int], list[int]]:
    """What _lucas_verdict reads of a row (p, alpha, l, n): _difference_verdict's
    constants of the levels alpha + 1 at n and alpha at n // p, and the
    coefficients (-1)**t binomial({n}_p, t) for t = 0 .. p-1."""
    (fa, oa), (fb, ob) = _norm_denominator(p, alpha + 1, n), _norm_denominator(p, alpha, n // p)
    return (fa, fb, oa + ob), [(-1) ** t * math.comb(n % p, t) for t in range(p)]


def _lucas_verdict(p: int, r: int, a: int, b: int, k: tuple):
    """The result of T1.5 and T1.5-alpha1 at r from the numerators a of
    lhs = V(alpha+1; l, n, r) and b of rhs = V(alpha; l, n//p, r//p), with
    k = _lucas_constants(p, alpha, n): the order of
    lhs - (-1)**{r}_p binomial({n}_p, {r}_p) rhs must reach 1."""
    pair, coeffs = k
    return _difference_verdict(p, a, coeffs[r % p], b, pair, 1)


@lru_cache(maxsize=1)
def _right_sums(p: int, alpha: int, l: int, n: int) -> dict[int, int]:
    """The numerators of V(alpha; l, n, q) by q, filled in by _lucas_row as
    its rows read them: the p consecutive rows N with N // p = n share their
    right sums.  One entry is kept, so a new n drops the last one's."""
    return {}


def _lucas_row(p: int, alpha: int, l: int, n: int, rs: Sequence[int]) -> list:
    """check_lucas_reduction at each r of rs.  The right sums are read once
    at each distinct r // p, and once for the rows that share n // p."""
    lhs = _norm_sums(p, alpha + 1, l, n, rs)
    rhs = _right_sums(p, alpha, l, n // p)
    qs = [q for q in dict.fromkeys(r // p for r in rs) if q not in rhs]
    if qs:
        rhs.update(zip(qs, _norm_sums(p, alpha, l, n // p, qs)))
    k = _lucas_constants(p, alpha, n)
    return [_lucas_verdict(p, r, a, rhs[r // p], k) for r, a in zip(rs, lhs)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
#
# Preconditions follow one rule.  p and alpha define the modulus: an invalid
# pair raises InvalidParameterError from prime_power_modulus, whether a
# derived window or the check meets it first, and an override with one is
# rejected before any sweep.  Every other hypothesis of a statement is a
# SKIP; an entry with a row form declares the part that reads only the
# row's prefix as its hypothesis, and its check holds only the rest.
#
# Each verdict is written once.  _at_least forms every "order o reaches
# bound b" result.  A check with a row form passes its values to a verdict
# function that the row form also calls, once per value: _at_least (T1.2,
# T2.1), _t11_verdict, _t13_verdict, _l22_verdict, _lucas_verdict (T1.5,
# T1.5-alpha1), _conj11_verdict (CONJ1.1), _fleck_reduction_verdict (T3.1),
# _conj31_verdict (CONJ3.1) or _conj13_verdict (CONJ1.3).  A verdict that
# reads what its whole row shares takes it as the row's constants, built
# once per row by the row form and once per value by the check, through
# the same function: _lucas_constants (the two levels' denominators d!, the
# sum of their orders, and the coefficients (-1)**t binomial({n}_p, t)),
# _conj11_constants, and CONJ1.3's (D, ord_p(D)) from _conj13_terms, with
# the power q = p**(ord_p(D) + 1) its sums are read mod.  _conj12_verdict
# reads Weisman's exponent of each of its two rows once.  Every skip is
# the hypothesis's or the check's own (T1.3's row form also tests its series
# window, CONJ1.3's its j >= 0).  Every pass is the verdict function's, but
# for the values of an empty class, whose sum is 0 (r mod m > n): the row
# forms of T1.1-T1.3 and L2.2 pass them, and T2.1's every zero sum, without
# a bound, a carry count or a verdict call.


def _at_least(o: "int | float", need: int, what: str = "order", bound: str = ""):
    """True when the order o reaches need, else the failure pair: what names
    the order, and bound (with its trailing space) the bound."""
    return True if o >= need else (f"{what} {o}", f">= {bound}{need}")


def check_lucas_reduction(p: int, alpha: int, l: int, n: int, r: int):
    """One digit-reduction step for normalized sums at level alpha + 1:

        V(alpha+1; l, n, r) == (-1)**{r}_p * binomial({n}_p, {r}_p)
                               * V(alpha; l, n//p, r//p)   (mod p)

    Proven for alpha >= 2 and n, l >= 0, T1.5's hypothesis; the alpha = 1
    case is conjectural and lives under the search ids.
    """
    prime_power_modulus(p, alpha)
    a = _norm_sum_value(p, alpha + 1, l, n, r)
    b = _norm_sum_value(p, alpha, l, n // p, r // p)
    return _lucas_verdict(p, r, a, b, _lucas_constants(p, alpha, n))


def check_digit_product_congruence(p: int, alpha: int, l: int, n: int, s: int, t: int, r: int):
    """Splitting the top digit out of both binomial arguments:

        (1/floor(n/h)!) * sum_{k == r (m)} binomial(pn+s, pk+t) (-1)**(pk) ((k-r)/h)**l
          == (1/floor(n/h)!) * binomial(s,t) * sum_{k == r (m)} binomial(n,k) (-1)**k ((k-r)/h)**l
             (mod p)

    with m = p**alpha, h = p**(alpha-1), 0 <= s, t < p, alpha >= 2, n, l >= 0.

    Both sides are class sums with weight (p*(k-r)/m)**l: with K = pk+t the
    left one runs over K == pr+t (mod pm), and (-1)**(pk) = (-1)**(K+t).
    """
    m = prime_power_modulus(p, alpha).m
    if alpha < 2 or not (0 <= s < p and 0 <= t < p) or n < 0 or l < 0:
        return SKIP
    lh = (-1) ** t * alt_sum_power(p * n + s, p * r + t, p * m, l)
    rh = math.comb(s, t) * alt_sum_power(n, r, m, l)
    o = l + _int_order(p, lh - rh) - _factorial_order(p, n // (m // p))
    return _at_least(o, 1, "difference order")


def check_normalized_refinement(p: int, alpha: int, n: int, s: int, t: int, r: int):
    """Digit refinement of the normalized unweighted sums, alpha >= 2,
    0 <= s, t < p**(alpha-2):

        p**-floor((c*n+s-p**(alpha-1)) / phi(p**alpha))
            * sum_{k == c*r+t (mod p**alpha)} binomial(c*n+s, k) (-1)**k
          == (-1)**t * binomial(s, t)
             * p**-floor((n-p)/phi(p*p)) * sum_{k == r (mod p*p)} binomial(n, k) (-1)**k
             (mod p),   c = p**(alpha-2).
    """
    m = prime_power_modulus(p, alpha).m
    if alpha < 2 or n < 0:
        return SKIP
    c = m // (p * p)
    if not (0 <= s < c and 0 <= t < c):
        return SKIP
    big_n, big_r = c * n + s, c * r + t
    lhs = _weisman_normalized(p, alpha, big_n, big_r, plain_alt_sum(big_n, big_r, m))
    rhs = _weisman_normalized(p, 2, n, r, plain_alt_sum(n, r, p * p))
    return _at_least(_int_order(p, lhs - (-1) ** t * math.comb(s, t) * rhs), 1, "difference order")


def check_parity_criterion(alpha: int, n: int, r: int):
    """p = 2: the normalized unsigned class sum
    2**-floor((n - 2**(alpha-1)) / 2**(alpha-1)) * sum_{k == r (mod 2**alpha)} binomial(n, k)
    is an odd integer exactly when binomial({n}_c, {r}_c) is odd and, with
    n* = floor(n/c), r* = floor(r/c), c = 2**(alpha-2): either n* > 2 and
    n* != 2 r* + 2 (mod 4), or n* == 2 and r* is even.  Needs alpha >= 2."""
    m = prime_power_modulus(2, alpha).m
    if alpha < 2 or n < 0:
        return SKIP
    lhs_odd = _int_order(2, unsigned_class_sum(n, r, m)) == _weisman(2, alpha, n)
    c = m // 4
    n_star, r_star = n // c, r // c
    cond = math.comb(n % c, r % c) % 2 == 1 and (
        (n_star > 2 and (n_star - 2 * r_star - 2) % 4 != 0)
        or (n_star == 2 and r_star % 2 == 0)
    )
    if lhs_odd == cond:
        return True
    parity = {True: "odd", False: "not odd"}
    return (f"normalized sum {parity[lhs_odd]}", f"{parity[cond]} by the digit criterion")


def check_exact_attainment(alpha: int, n: int, l: int):
    """p = 2, zero class: for l >= floor(n/2**alpha) >= 1 with
    l == floor(n/2**alpha) (mod 2**floor(log2(n/2**alpha))), the order of
    sum binomial(n,k) (-1)**k (k/2**alpha)**l over k == 0 (mod 2**alpha)
    EQUALS the order of floor(n/2**alpha)!.
    """
    m = prime_power_modulus(2, alpha).m
    n0 = n // m
    if n0 < 1 or l < n0 or (l - n0) % 2 ** (n0.bit_length() - 1) != 0:
        return SKIP
    o = _int_order(2, alt_sum_power(n, 0, m, l))
    want = _factorial_order(2, n0)
    return True if o == want else (f"order {o}", f"exactly {want}")


def check_fleck_reduction(p: int, alpha: int, n: int, r: int):
    """Level reduction for Fleck-normalized sums, alpha >= 2, n >= 0 (T3.1's
    hypothesis): when p | r, F(alpha; n, r) == F(alpha-1; n, r/p) mod
    p**((2 - [p==2])(alpha-2)); otherwise F(alpha; n, r) == 0 mod p**(alpha-2)."""
    prime_power_modulus(p, alpha)
    sa = fleck_sum_value(p, alpha, n, r)
    sb = fleck_sum_value(p, alpha - 1, n, r // p) if r % p == 0 else None
    return _fleck_reduction_verdict(p, alpha, sa, sb)


def _fleck_reduction_bound(p: int, alpha: int) -> int:
    """T3.1's bound on the difference order when p | r; the bound alpha - 2
    on the order otherwise is no larger."""
    return (2 - (p == 2)) * (alpha - 2)


def _fleck_reduction_verdict(p: int, alpha: int, sa: int, sb: "int | None"):
    """check_fleck_reduction's result from F(alpha; n, r) and, when p | r,
    F(alpha-1; n, r/p) (None otherwise)."""
    if sb is not None:
        bound = _fleck_reduction_bound(p, alpha)
        return _at_least(_int_order(p, sa - sb), bound, "difference order")
    return _at_least(_int_order(p, sa), alpha - 2)


def _fleck_reduction_row(p, alpha, n, rs):
    bound = _fleck_reduction_bound(p, alpha)
    sas = _fleck_sums(p, alpha, n, rs, bound)
    qs = [r // p for r in rs if r % p == 0]
    sbs = dict(zip(qs, _fleck_sums(p, alpha - 1, n, qs, bound)))
    return [
        _fleck_reduction_verdict(p, alpha, sa, sbs[r // p] if r % p == 0 else None)
        for r, sa in zip(rs, sas)
    ]


def check_fleck_shift_chain(p: int, alpha: int, beta: int, n: int, r: int):
    """Iterated reduction, alpha > beta >= 0, n >= 0:
    F(alpha; n, p**beta * r) == F(alpha-beta; n, r) mod
    p**((2 - [p==2])(alpha-beta-1)); and when p does not divide r the order
    of F(alpha; n, p**beta r) is at least alpha - beta - 2."""
    prime_power_modulus(p, alpha)
    if not alpha > beta >= 0 or n < 0:
        return SKIP
    lhs = fleck_sum_value(p, alpha, n, p**beta * r)
    rhs = fleck_sum_value(p, alpha - beta, n, r)
    d = alpha - beta
    chain = _at_least(_int_order(p, lhs - rhs), (2 - (p == 2)) * (d - 1), "difference order")
    if chain is not True or r % p == 0:
        return chain
    return _at_least(_int_order(p, lhs), d - 2)


def check_harmonic_congruence(m: int, n: int, r: int):
    """(1/n) * sum_{k<n} 1/(km + r) == 1/r + (m/2)[n even]  (mod m), for
    m, n >= 1 and gcd(r, m) = 1 (r >= 1 when m = 1, so no term is 1/0).  The
    congruence between rationals means: for every prime q dividing m, the
    q-order of the difference is at least the q-order of m."""
    if m < 1 or n < 1 or math.gcd(m, r) != 1 or (m == 1 and r < 1):
        return SKIP
    for q, o in _harmonic_orders(m, n, r):
        need = _int_order(q, m)
        if o < need:
            return (f"{q}-adic order {o} of the difference", f">= {need}")
    return True


def _harmonic_orders(m: int, n: int, r: int) -> list[tuple[int, "int | float"]]:
    """(q, q-order of the difference) for each prime q dividing m, in
    increasing order, the difference being
    (1/n) sum_{k<n} 1/(km + r) - 1/r - (m/2)[n even]."""
    # The sum as num / den with den the product of its denominators, never
    # reduced: orders only need the two integers.
    num, den = 0, 1
    for k in range(n):
        d = k * m + r
        num, den = num * d + den, den * d
    half = m * n * den * r if n % 2 == 0 else 0
    diff_num, diff_den = 2 * r * num - 2 * n * den - half, 2 * n * den * r
    return [(q, _int_order(q, diff_num) - _int_order(q, diff_den)) for q in _prime_factors(m)]


def check_scaled_binomial_congruence(p: int, n: int, k: int):
    """binomial(pn, pk) == binomial(n, k) mod p**(2 ord_p(n) + 2) for odd p,
    n >= 1, k >= 0; for p = 2 the right side carries a (-1)**k and the
    exponent drops to 2 ord_2(n) + 1."""
    prime_power_modulus(p, 1)
    if n < 1 or k < 0:
        return SKIP
    if p == 2:
        diff = math.comb(2 * n, 2 * k) - (-1) ** k * math.comb(n, k)
        need = 2 * _int_order(2, n) + 1
    else:
        diff = math.comb(p * n, p * k) - math.comb(n, k)
        need = 2 * _int_order(p, n) + 2
    return _at_least(_int_order(p, diff), need, "difference order")


def check_factorial_ceiling(p: int, beta: int, q: int, r: int):
    """With n = p**beta (pq + r), beta, q >= 0 and {-q}_(p-1) < r < p: the
    order of n! at p attains its ceiling floor((n-1)/(p-1)) exactly when
    q == 0."""
    prime_power_modulus(p, 1)
    if beta < 0 or q < 0 or not (-q) % (p - 1) < r < p:
        return SKIP
    n = p**beta * (p * q + r)
    o, ceiling = _factorial_order(p, n), (n - 1) // (p - 1)
    if (o == ceiling) == (q == 0):
        return True
    return (f"order {o} of n!, ceiling {ceiling}, q={q}", "the ceiling exactly when q == 0")


def check_parity_delta(alpha: int, c: int, e: int, d: int, l: int):
    """p = 2 split arguments: for 0 <= l <= d < 2**e,
    V(alpha+1; l, 2**alpha (2**e + d), 2**alpha c) == [l == d]  (mod 2)."""
    m = prime_power_modulus(2, alpha).m
    if e < 0 or not 0 <= l <= d < 2**e:
        return SKIP
    num, fv, ov = _norm_parts(2, alpha + 1, l, m * (2**e + d), m * c)
    delta = 1 if l == d else 0
    o = _int_order(2, num - delta * fv) - ov
    return True if o >= 1 else (f"order {o} of the value minus {delta}", ">= 1")


def _t11(p, alpha, n, r, l):
    pm = prime_power_modulus(p, alpha)
    if l < 0:
        return SKIP
    o = _int_order(p, alt_sum_power(n, r, pm.m, l))
    return _t11_verdict(o, degree_order_bound(pm, n, r, l), floor_order_bound(pm, n, r))


def _t11_verdict(o, b1, b2):
    """_t11's result from the order o, degree bound b1 and floor bound b2."""
    if o >= b1 and o >= b2:
        return True
    return (f"order {o}", f">= {b1} (degree bound) and >= {b2} (floor bound)")


def _sparse(ls: Sequence[int]) -> bool:
    """True when a row's weight degrees include a negative one, or are too
    few for one pass over every degree up to the largest to pay (from max >=
    2 * count on, the per-instance checks measure as fast or faster)."""
    return min(ls) < 0 or max(ls) >= 2 * len(ls)


def _t11_row(p, alpha, n, r, ls):
    if _sparse(ls):
        return None
    m = prime_power_modulus(p, alpha).m
    terms = _class_binomials(n, r % m, m)
    if not terms:  # every sum is 0, of order INFINITY
        return [True] * len(ls)
    sums = _power_sums(terms, -(r // m), ls)
    fo, tau = _bound_terms(p, alpha - 1, n, r)
    b2 = sum(_bound_terms(p, alpha, n, r))
    return [_t11_verdict(_int_order(p, s), fo - l + tau, b2) for l, s in zip(ls, sums)]


def _t12(p, alpha, n, r, l):
    pm = prime_power_modulus(p, alpha)
    if l < 0:
        return SKIP
    o = _int_order(p, alt_sum_binom(n, r, pm.m, l))
    return _at_least(o, integer_valued_order_bound(pm, n, r, l))


def _t12_row(p, alpha, n, r, ls):
    if _sparse(ls):
        return None
    m = prime_power_modulus(p, alpha).m
    terms = _class_binomials(n, r % m, m)
    if not terms:
        return [True] * len(ls)
    sums = _binomial_sums(terms, -(r // m), ls)
    fo, tau = _bound_terms(p, alpha - 1, n, r)
    return [
        _at_least(_int_order(p, s), fo - l - _factorial_order(p, l) + tau)
        for l, s in zip(ls, sums)
    ]


def _t13(p, alpha, n, r, l):
    pm = prime_power_modulus(p, alpha)
    if l < 0 or r <= n - (l + 1) * pm.m:
        return SKIP
    coeff = series_coefficient(pm, n, l, r)
    b = integer_valued_order_bound(pm, n, r, l)
    alt = (-1) ** l * alt_sum_binom(n, r + pm.m, pm.m, l)
    return _t13_verdict(_int_order(p, coeff), b, coeff, alt)


def _t13_verdict(o, b, coeff, alt):
    """_t13's result from the coefficient, its order o and bound b, and the
    signed class sum alt at r + m that the coefficient must equal."""
    order = _at_least(o, b, "coefficient order")
    if order is not True or coeff == alt:
        return order
    return (f"coefficient {coeff}", f"shifted class sum {alt}")


def _t13_row(p, alpha, n, r, ls):
    if _sparse(ls):
        return None
    m = prime_power_modulus(p, alpha).m
    terms = _class_binomials(n, r % m, m)
    if not terms:
        # r > n, so no l is skipped, and the coefficient and the sum at
        # r + m are both 0.
        return [True] * len(ls)
    q = r // m
    # The coefficient and the class sum at r + m, each from its own formula.
    coeffs = _series_sums(terms, q, ls)
    alts = _binomial_sums(terms, -q - 1, ls)
    fo, tau = _bound_terms(p, alpha - 1, n, r)
    return [
        SKIP
        if r <= n - (l + 1) * m
        else _t13_verdict(
            _int_order(p, coeff), fo - l - _factorial_order(p, l) + tau, coeff, (-1) ** l * alt
        )
        for l, coeff, alt in zip(ls, coeffs, alts)
    ]


_ROUNDTRIP_N = 32


def _t14(p, alpha, r, l):
    m = prime_power_modulus(p, alpha).m
    if alpha < 1 or l < 0:
        return SKIP
    f = Polynomial.monomial(l)
    try:
        products = _inverse_products(p, alpha, r, f, _ROUNDTRIP_N)
    except InternalInvariantError as exc:
        return (str(exc), "a p-integral sequence")
    # w_n * a_n for the sequence of weighted_inverse_sequence, as integers.
    transform = binomial_inversion([b for b, _ in products])
    for n in range(_ROUNDTRIP_N + 1):
        want = p**l * f((n - r) // m) if (n - r) % m == 0 else 0
        if transform[n] != want:
            return (f"transform value {transform[n]} at n={n}", f"{want}")
    return True


def _c11cor(p, alpha, m, n, r):
    ma = prime_power_modulus(p, alpha).m
    if m < 1 or n < 1:
        return SKIP
    # The weight B_m(floor((k-r)/ma)) is constant on runs of ma consecutive
    # k, so the signed binomials of the full row are summed per run first.
    runs: dict[int, int] = {}
    for k, t in enumerate(_class_binomials(n, 0, 1)):
        q = (k - r) // ma
        runs[q] = runs.get(q, 0) + t
    # The value p**(m-1)/m * sum B_m(q) t is p**(m-1) S / (m D_m), with S
    # the same sum over the integer polynomial D_m B_m.
    d, scaled = _scaled_bernoulli(m)
    s = sum(scaled(q) * t for q, t in runs.items())
    o = _int_order(p, s) + (m - 1) - _int_order(p, m) - _int_order(p, d)
    return _at_least(o, sum(_bound_terms(p, alpha - 1, n - 1, r - 1)))


def _l21(p, n, r, l):
    m = prime_power_modulus(p, 0).m
    if n < 0 or l < 0:
        return SKIP
    # Both values are over (p*n)!, so they are compared by their numerators.
    scale = math.factorial(l) * p**l
    direct = scale * alt_sum_binom(n, r, m, l)
    closed = scale * (-1) ** n * binomial(-r, l - n)
    denom, od = _norm_denominator(p, 0, n)
    if direct == closed and _int_order(p, direct) >= od:
        return True
    return (
        f"direct value {Fraction(direct, denom)}",
        f"closed form {Fraction(closed, denom)}, p-integral",
    )


def _l22(p, alpha, l, n, r):
    m = prime_power_modulus(p, alpha).m
    terms = _l22_terms(p, alpha, n)
    a = _norm_sum_value(p, alpha, l, n - 1, r)
    b = _norm_sum_value(p, alpha, l, n - 1, r - 1)
    c = _norm_sum_value(p, alpha, l, n, r)
    first = _l22_verdict(terms, r, a, b, c)
    # The sums at l - 1 are read only once the first recurrence holds, as
    # one that is not p-integral raises.
    if first is not True or l == 0:
        return first
    e = _norm_sum_value(p, alpha, l - 1, n, r + m)
    f = _norm_sum_value(p, alpha, l - 1, n - 1, r + m - 1)
    return _l22_verdict(terms, r, a, b, c, e, f)


def _l22_terms(p: int, alpha: int, n: int) -> tuple:
    """What the recurrences read of (p, alpha, n) alone: h = p**(alpha-1),
    the denominators d0! and d1! of rows n and n - 1 (d0 = floor(n/h),
    d1 = floor((n-1)/h)) and each one's t/s as (t, s)."""
    h = p**alpha // p
    ratio, one = (n, h), (1, 1)
    factors = (ratio, one) if n % h == 0 else (one, ratio)
    f0, f1 = _norm_denominator(p, alpha, n)[0], _norm_denominator(p, alpha, n - 1)[0]
    return h, f0, f1, *factors


def _l22_verdict(terms: tuple, r: int, a: int, b: int, c: int, e=None, f=None):
    """_l22's result from its row's _l22_terms and the sums V = num / d!
    (V' taken at l - 1) that the recurrences read, a, b, c and c, e, f:

        V(n-1, r) - V(n-1, r-1) == t/s * V(n, r),            t/s = n/h or 1,
        V(n, r) + r/h * V'(n, r+m) == -t/s * V'(n-1, r+m-1),  t/s = 1 or n/h,

    each compared with both sides multiplied out to integers.  Without e
    and f (at l = 0) the second recurrence is not checked."""
    h, f0, f1, (t1, s1), (t2, s2) = terms
    if (a - b) * s1 * f0 != t1 * c * f1:
        return (f"first recurrence: {Fraction(a - b, f1)}", f"{Fraction(t1, s1) * Fraction(c, f0)}")
    if e is not None and (h * c + r * e) * s2 * f1 != -t2 * f * h * f0:
        lhs = Fraction(h * c + r * e, h * f0)
        return (f"second recurrence: {lhs}", f"{-Fraction(t2, s2) * Fraction(f, f1)}")
    return True


def _l22_row(p, alpha, l, n, rs):
    m = prime_power_modulus(p, alpha).m
    # One window of r covers every sum the recurrences read (r-1 .. r+m), so
    # the four rows below are also rows of the neighbouring prefixes, and
    # _norm_sum_window keeps them for those.  A row sparser than its window
    # is handed back.
    lo, hi = min(rs) - 1, max(rs) + m + 1
    if hi - lo > 2 * len(rs):
        return None
    row_a = _norm_sum_window(p, alpha, l, n - 1, range(lo, hi))
    row_c = _norm_sum_window(p, alpha, l, n, range(lo, hi))
    if l > 0:
        row_e = _norm_sum_window(p, alpha, l - 1, n, range(lo, hi))
        row_f = _norm_sum_window(p, alpha, l - 1, n - 1, range(lo, hi))
    else:  # no second recurrence
        row_e = row_f = (None,) * (hi - lo)
    terms = _l22_terms(p, alpha, n)
    # Past n, the classes r and r - 1 are empty at rows n and n - 1: all
    # five sums are 0, and both recurrences hold.
    return [
        _l22_verdict(terms, r, row_a[i], row_a[i - 1], row_c[i], row_e[i + m], row_f[i + m - 1])
        if r % m <= n
        else True
        for r in rs
        for i in [r - lo]
    ]


def _l23(d, m, n, r, fdeg):
    if d < 1 or m < 1 or n < 0 or fdeg < 0:
        return SKIP
    if convolution_identity_holds(d, m, n, r, Polynomial.monomial(fdeg)):
        return True
    return ("splitting identity fails", "exact equality")


def _l24(p, alpha, l, n, r):
    m = prime_power_modulus(p, alpha).m
    if alpha < 1 or n < 0 or l < 0:
        return SKIP
    lhs = _norm_sum_value(p, alpha, l, n, r)
    # Term j is binomial(n,j) floor(j/h)! floor((n-j)/h)! / floor(n/h)!
    # times V(0; j, r) = t0 / floor(j/h)! times a sum of V(l; n-j, .), each
    # over floor((n-j)/h)!: the weight's factorials cancel both denominators
    # and leave floor(n/h)!, the denominator of the left side.
    rhs = 0
    for j in range(n + 1):
        t0 = _norm_sum_value(p, alpha, 0, j, r)
        if t0 == 0:
            continue
        inner = sum(_norm_sum_value(p, alpha, l, n - j, r + i - j) for i in range(m))
        rhs += math.comb(n, j) * t0 * inner
    if lhs == rhs:
        return True
    f = _norm_denominator(p, alpha, n)[0]
    return (f"{Fraction(lhs, f)}", f"self-convolution value {Fraction(rhs, f)}")


def _l25(p, alpha, n, j):
    prime_power_modulus(p, alpha)
    if alpha < 1 or not 0 <= j <= n:
        return SKIP
    return _at_least(_convolution_weight_order(p, alpha, n, j), 0, "weight order")


def _t21(p, alpha, l, n, r):
    prime_power_modulus(p, alpha)
    num = _norm_sum_value(p, alpha, l, n, r)
    # At e = alpha - 1, fo is ord_p(d!) for the sum's denominator d!.
    fo, tau = _bound_terms(p, alpha - 1, n, r)
    return _at_least(_int_order(p, num) - fo, tau, bound="carry count ")


def _t21_row(p, alpha, l, n, rs):
    # Past the window cache: no T2.1 row is read twice.
    nums = _norm_sums(p, alpha, l, n, rs)
    # The terms _bound_terms(p, alpha - 1, n, r) gives, fo = ord_p(d!) once
    # per row.
    e = alpha - 1
    fo = _factorial_order(p, _norm_index(p, alpha, n))
    # A zero sum (an empty class, among others) has order INFINITY.
    return [
        _at_least(
            _int_order(p, x) - fo,
            _carries(p, _scaled_residue(r, p, e), _scaled_residue(n - r, p, e)),
            bound="carry count ",
        )
        if x
        else True
        for r, x in zip(rs, nums)
    ]


def _l42(alpha, n, r):
    c = prime_power_modulus(2, alpha).m
    if n < 1 or n % c or r % c:
        return SKIP
    num, f, o = _norm_parts(2, alpha + 1, 0, n, r)
    if (_int_order(2, num) == o) == (n & (n - 1) == 0):
        return True
    return (f"value {Fraction(num, f)}", "odd exactly when n is a power of two")


def _r16(n, l):
    if n < 0 or l < 0:
        return SKIP
    lhs = alt_sum_power(n, 0, 1, l)
    rhs = (-1) ** n * math.factorial(n) * stirling2(l, n)
    if lhs != rhs:
        return (f"alternating power sum {lhs}", f"{rhs}")
    if n >= 1 and l >= n and (l - n) % 2 ** (n.bit_length() - 1) == 0:
        if stirling2(l, n) % 2 != 1:
            return (f"stirling2({l},{n}) is even", "odd")
    return True


def _conj11(p, alpha, l, n, r):
    prime_power_modulus(p, alpha)
    a = _norm_sum_value(p, alpha + 1, l, p * n, p * r)
    b = _norm_sum_value(p, alpha, l, n, r)
    return _conj11_verdict(p, a, b, _conj11_constants(p, alpha, n))


def _conj11_constants(p: int, alpha: int, n: int) -> tuple[int, int, int]:
    """What _conj11_verdict reads of a row (p, alpha, l, n): _difference_verdict's
    constants of the levels alpha + 1 at p n and alpha at n."""
    (fa, oa), (fb, ob) = _norm_denominator(p, alpha + 1, p * n), _norm_denominator(p, alpha, n)
    return fa, fb, oa + ob


def _conj11_verdict(p: int, a: int, b: int, k: tuple[int, int, int]):
    """_conj11's result from the numerators a of V(alpha+1; l, p n, p r) and
    b of V(alpha; l, n, r), with k = _conj11_constants(p, alpha, n)."""
    return _difference_verdict(p, a, 1, b, k, 2 if p == 3 else 3)


def _conj11_row(p, alpha, l, n, rs):
    lhs = _norm_sums(p, alpha + 1, l, p * n, [p * r for r in rs])
    rhs = _norm_sums(p, alpha, l, n, rs)
    k = _conj11_constants(p, alpha, n)
    return [_conj11_verdict(p, a, b, k) for a, b in zip(lhs, rhs)]


def _conj12(p, n, s):
    prime_power_modulus(p, 2)
    if n < 0 or not 0 <= s < p:
        return SKIP
    top = [plain_alt_sum(p * n + s, c, p * p) for c in range(p * p)]
    return _conj12_verdict(p, n, s, top, [plain_alt_sum(n, c, p) for c in range(p)])


def _conj12_verdict(p: int, n: int, s: int, top: Sequence[int], low: Sequence[int]):
    """_conj12's result from the class sums of row p*n + s mod p**2 (top)
    and of row n mod p (low), each normalized only where it is read, by
    Weisman's exponent w of its row, read once.  A sum need only be right
    mod p**(w + 1): each normalized value is read only mod p, and p**w
    divides a sum exactly when it divides any residue of it mod p**(w + 1)."""
    big = p * n + s
    w = _weisman(p, 2, big)

    def lhs_val(t: int, r: int) -> int:
        return _weisman_normalized(p, 2, big, p * r + t, top[p * r + t], w)

    if n % p == 0 or (n - 1) % (p - 1) != 0:
        wl = _weisman(p, 1, n)
        coeffs = [(-1) ** t * math.comb(s, t) for t in range(p)]
        for r in range(p):
            rhs = _weisman_normalized(p, 1, n, r, low[r], wl)
            for t in range(p):
                o = _int_order(p, lhs_val(t, r) - coeffs[t] * rhs)
                if o < 1:
                    return (f"t={t} r={r}: difference order {o}", ">= 1")
        return True
    if s == p - 1:
        return SKIP
    residues = {}
    for t in range(s + 1, p):
        seen = {lhs_val(t, r) % p for r in range(p)}
        if len(seen) != 1:
            return (f"t={t}: residues {sorted(seen)} vary with r", "one residue for all r")
        residues[t] = seen.pop()
    if s == 0 and n != 1:
        got = sorted(residues[t] for t in range(1, p))
        if got != list(range(1, p)):
            return (f"residues {got}", f"a permutation of 1..{p - 1}")
    return True


def _conj12_row(p, n, ss):
    """_conj12 at each s of ss, in any order, from the class sums of row n
    mod p**(w + 1) and of row p*n + s mod p**(w' + 1), w and w' Weisman's
    exponents of row n and of the greatest wanted s: row p*n + s is folded
    once, at the least s in 0 .. p-1, and each next row stepped from the
    one before by Pascal's rule, S'[c] = S[c] - S[c - 1 mod p**2], which
    holds mod any power."""
    prime_power_modulus(p, 2)
    wanted = {s for s in ss if 0 <= s < p}
    results = {}
    if wanted:
        low = _class_residues(n, p, p, _weisman(p, 1, n) + 1)
        lo, hi = min(wanted), max(wanted)
        top = _class_residues(p * n + lo, p * p, p, _weisman(p, 2, p * n + hi) + 1)
        for s in range(lo, hi + 1):
            if s > lo:
                top = [a - b for a, b in zip(top, [top[-1], *top[:-1]])]
            if s in wanted:
                results[s] = _conj12_verdict(p, n, s, top, low)
    return [results.get(s, SKIP) for s in ss]


def _conj13(p, alpha, n, r, j):
    ma = prime_power_modulus(p, alpha).m
    if j < 0:
        return SKIP
    l0, step, q, k = _conj13_terms(p, alpha, n, r)
    l = l0 + j * step
    terms = _class_binomials(n, r % ma, ma)
    s = sum(t * pow(i, l, q) for i, t in enumerate(terms, -(r // ma)))
    return _conj13_verdict(p, alpha, n, r, l, k, s)


@lru_cache(maxsize=1 << 4)
def _conj13_prefix(p: int, alpha: int, n: int) -> tuple[int, int, int, int]:
    """What CONJ1.3 reads of (p, alpha, n), which its rows share: m =
    p**alpha, n0 = floor(n/m), the step of the weight degree and n0!."""
    ma = p**alpha
    n0 = n // ma
    e = 0
    while p ** (alpha + e + 1) <= n:
        e += 1
    return ma, n0, (p - 1) * p**e, math.factorial(n0)


def _conj13_terms(p: int, alpha: int, n: int, r: int) -> tuple[int, int, int, tuple[int, int]]:
    """What CONJ1.3 reads of a row's prefix: the weight degree l0 at j = 0,
    its step (l = l0 + j * step), the power q = p**(ord_p(D) + 1) its sums
    are read mod, and the verdict's constants (D, ord_p(D)), with D =
    floor(n/m)! * binomial(n*, r*)."""
    ma, n0, step, f0 = _conj13_prefix(p, alpha, n)
    l0 = n0 + (r // ma + (n - r) // ma - n0) % step
    r_star = r % ma
    d = f0 * math.comb(r_star + (n - r) % ma, r_star)
    od = _int_order(p, d)
    return l0, step, p ** (od + 1), (d, od)


def _conj13_verdict(p, alpha, n, r, l, k, s):
    """_conj13's result from s == S mod p**(od + 1), with k = (D, od) the
    constants of its row, od = ord_p(D): the value S / D is a unit +-1 mod
    p when ord_p(S -+ D) - od >= 1, that is when p**(od + 1) divides S -+ D,
    which s decides.  The exact S is summed only to word a failure."""
    d, od = k
    if _reaches(p, s - d, od + 1) or _reaches(p, s + d, od + 1):
        return True
    s = alt_sum_power(n, r, p**alpha, l)
    return (f"normalized value {Fraction(s, d)}", "congruent to +1 or -1 mod p")


@lru_cache(maxsize=1 << 4)
def _power_weights(i0: int, count: int, l: int, q: int) -> tuple[int, ...]:
    """i**l mod q for i = i0 .. i0 + count - 1.  The rows of one (p, alpha,
    n) mostly share their weights, so CONJ1.3's row form reads them here.
    i -> i**l is completely multiplicative, so for i0 >= 0 only a prime i
    (and 0, 1) is powered, and any other i is the product of the weights
    at its least prime factor f and at i / f, both below it."""
    if i0 < 0 or count < 3:
        return tuple(pow(i, l, q) for i in range(i0, i0 + count))
    end = i0 + count
    least = _least_factors(1 << (end - 1).bit_length())
    w = [pow(0, l, q), pow(1, l, q)]
    for i in range(2, end):
        f = least[i]
        w.append(pow(i, l, q) if f == i else w[f] * w[i // f] % q)
    return tuple(w[i0:])


@lru_cache(maxsize=None)
def _least_factors(size: int) -> tuple[int, ...]:
    """The least prime factor of each i < size (0 and 1 their own), by a
    sieve; read at power-of-two sizes, so one entry serves every size up to
    its own."""
    least = list(range(size))
    for f in range(2, math.isqrt(size - 1) + 1):
        if least[f] == f:
            for i in range(f * f, size, f):
                if least[i] == i:
                    least[i] = f
    return tuple(least)


def _conj13_row(p, alpha, n, r, js):
    """_conj13 at each j of js, in any order, from the products t * i**l of
    the terms and their weights, mod q: the products at j + 1 are those at
    j times i**step.  Each sum is S mod q, not reduced, which is all the
    verdict reads."""
    ma = prime_power_modulus(p, alpha).m
    l0, step, q, k = _conj13_terms(p, alpha, n, r)
    terms = _class_binomials(n, r % ma, ma)
    i0 = -(r // ma)
    results, last = {}, None
    for j in sorted({j for j in js if j >= 0}):
        if j - 1 == last:
            factors = _power_weights(i0, len(terms), step, q)
            products = [x * f % q for x, f in zip(products, factors)]
        else:
            weights = _power_weights(i0, len(terms), l0 + j * step, q)
            products = [t * w % q for t, w in zip(terms, weights)]
        results[j] = _conj13_verdict(p, alpha, n, r, l0 + j * step, k, sum(products))
        last = j
    return [results.get(j, SKIP) for j in js]


def _conj31(p, alpha, n, r):
    prime_power_modulus(p, alpha)
    d = fleck_sum_value(p, alpha, n, p * r) - fleck_sum_value(p, alpha - 1, n, r)
    return _conj31_verdict(p, alpha, d)


def _conj31_bound(p: int, alpha: int) -> int:
    """CONJ3.1's bound on the difference order."""
    return 2 * alpha - 2 - (p == 3)


def _conj31_verdict(p: int, alpha: int, d: int):
    """_conj31's result from d = F(alpha; n, p r) - F(alpha-1; n, r)."""
    return _at_least(_int_order(p, d), _conj31_bound(p, alpha), "difference order")


def _conj31_row(p, alpha, n, rs):
    bound = _conj31_bound(p, alpha)
    lhs = _fleck_sums(p, alpha, n, [p * r for r in rs], bound)
    rhs = _fleck_sums(p, alpha - 1, n, rs, bound)
    return [_conj31_verdict(p, alpha, a - b) for a, b in zip(lhs, rhs)]


def _t15_alpha1(p, l, n, r):
    return check_lucas_reduction(p, 1, l, n, r)


def _t15_alpha1_row(p, l, n, rs):
    return _lucas_row(p, 1, l, n, rs)


# ---------------------------------------------------------------------------
# default grids
# ---------------------------------------------------------------------------


# Windows that depend on the modulus take it from prime_power_modulus, so an
# invalid (p, alpha) in an overridden grid raises InvalidParameterError here.


def _modulus(ctx: dict) -> int:
    return prime_power_modulus(ctx["p"], ctx["alpha"]).m


def _r_window(ctx: dict) -> tuple[int, ...]:
    m = _modulus(ctx)
    return tuple(range(-m, 2 * m))


_R_WINDOW = DerivedAxis("-m .. 2m-1 with m = p**alpha", _r_window)


def _r_window_lifted(ctx: dict) -> tuple[int, ...]:
    hi = min(_modulus(ctx) * ctx["p"], ctx["n"] + ctx["p"] + 2)
    return tuple(range(-2, hi))


def _r_window_capped(ctx: dict) -> tuple[int, ...]:
    hi = min(_modulus(ctx), ctx["n"] + 3)
    return tuple(range(-1, hi))


def _r_window_refinement(ctx: dict) -> tuple[int, ...]:
    hi = min(ctx["p"] ** 2, ctx["n"] + 3)
    return tuple(range(-1, hi))


def _r_residues(ctx: dict) -> tuple[int, ...]:
    return tuple(range(_modulus(ctx)))


def _t18_l_values(ctx: dict) -> tuple[int, ...]:
    n0 = ctx["n"] // prime_power_modulus(2, ctx["alpha"]).m
    if n0 < 1:
        return ()
    e = n0.bit_length() - 1
    return (n0, n0 + 2**e, n0 + 2 ** (e + 1))


def _digits(ctx: dict) -> tuple[int, ...]:
    p = ctx["p"]
    prime_power_modulus(p, 1)
    return tuple(range(p))


def _refinement_digits(ctx: dict) -> tuple[int, ...]:
    # alpha < 2 keeps the single digit 0, so the check sees and skips it.
    _modulus(ctx)
    return tuple(range(ctx["p"] ** max(ctx["alpha"] - 2, 0)))


def _refinement_alpha(ctx: dict) -> tuple[int, ...]:
    return (2, 3, 4) if ctx["p"] < 5 else (2, 3)


def _beta_below_alpha(ctx: dict) -> tuple[int, ...]:
    _modulus(ctx)
    return tuple(range(ctx["alpha"]))


def _j_upto_n(ctx: dict) -> tuple[int, ...]:
    return tuple(range(ctx["n"] + 1))


def _coprime_window(ctx: dict) -> tuple[int, ...]:
    m = ctx["m"]
    if m == 1:
        return (1, 2)
    pos = [x for x in range(1, m + 1) if math.gcd(x, m) == 1]
    return tuple([-x for x in reversed(pos)] + pos)


def _k_upto_n(ctx: dict) -> tuple[int, ...]:
    return tuple(range(ctx["n"] + 2))


def _fleck_r_window(ctx: dict) -> tuple[int, ...]:
    return tuple(range(-2, _modulus(ctx)))


def _l41_r_window(ctx: dict) -> tuple[int, ...]:
    p = ctx["p"]
    prime_power_modulus(p, 1)
    return tuple(range((-ctx["q"]) % (p - 1) + 1, p))


def _l42_n_values(ctx: dict) -> tuple[int, ...]:
    c = prime_power_modulus(2, ctx["alpha"]).m
    return tuple(range(c, 65, c))


def _l42_r_values(ctx: dict) -> tuple[int, ...]:
    c = prime_power_modulus(2, ctx["alpha"]).m
    return tuple(c * j for j in range(-2, 4))


def _t41_d_values(ctx: dict) -> tuple[int, ...]:
    # e < 0 keeps the single value 0, so the check sees and skips it.
    return tuple(range(2 ** max(ctx["e"], 0)))


def _t41_l_values(ctx: dict) -> tuple[int, ...]:
    return tuple(range(ctx["d"] + 1))


def _conj13_n_values(ctx: dict) -> tuple[int, ...]:
    return tuple(range(2 * _modulus(ctx) - 1, 41))


def _t15a1_r_window(ctx: dict) -> tuple[int, ...]:
    hi = min(ctx["p"] ** 2, ctx["n"] + ctx["p"] + 2)
    return tuple(range(-2, hi))


_MAIN = {
    "p": (2, 3, 5),
    "alpha": (0, 1, 2, 3),
    "n": tuple(range(65)),
    "r": _R_WINDOW,
    "l": tuple(range(9)),
}


# Row forms, keyed by the check each was written for: row(*prefix, values)
# returns check(*prefix, v) for each v of the non-empty values, in order, or
# None to hand the row back to Statement.check_row, which runs the check.
_ROW_FORMS: dict[Callable, Callable[..., "list | None"]] = {
    _t11: _t11_row,
    _t12: _t12_row,
    _t13: _t13_row,
    _l22: _l22_row,
    _t21: _t21_row,
    check_lucas_reduction: _lucas_row,
    check_fleck_reduction: _fleck_reduction_row,
    _conj11: _conj11_row,
    _conj12: _conj12_row,
    _conj13: _conj13_row,
    _conj31: _conj31_row,
    _t15_alpha1: _t15_alpha1_row,
}


STATEMENTS: dict[str, Statement] = {
    s.id: s
    for s in [
        Statement(
            "T1.1",
            "theorem",
            "order of a power-weighted alternating class sum meets the degree bound "
            "and the degree-free floor bound",
            _MAIN,
            _t11,
            lambda p, alpha, n, r: n >= 0,
        ),
        Statement(
            "T1.2",
            "theorem",
            "binomial-coefficient weights obey the integer-valued order bound",
            _MAIN,
            _t12,
            lambda p, alpha, n, r: n >= 0,
        ),
        Statement(
            "T1.3",
            "theorem",
            "series coefficient of (1-x)**n/(1-x**m)**(l+1): order bound plus "
            "agreement with the shifted class sum",
            _MAIN,
            _t13,
            lambda p, alpha, n, r: n >= 0 and r >= 0,
        ),
        Statement(
            "T1.4",
            "theorem",
            "the weighted inverse sequence is p-integral and round-trips through "
            "binomial inversion",
            {
                "p": (2, 3, 5),
                "alpha": (1, 2),
                "r": DerivedAxis(
                    "-1 .. m with m = p**alpha",
                    lambda ctx: tuple(range(-1, _modulus(ctx) + 1)),
                ),
                "l": (0, 1, 2),
            },
            _t14,
        ),
        Statement(
            "T1.5",
            "theorem",
            "digit-reduction congruence for normalized sums between levels "
            "alpha+1 and alpha, alpha >= 2",
            {
                "p": (2, 3, 5),
                "alpha": (2, 3),
                "l": (0, 1, 2, 3),
                "n": tuple(range(31)),
                "r": DerivedAxis("-2 .. min(p**(alpha+1), n+p+2)-1", _r_window_lifted),
            },
            check_lucas_reduction,
            lambda p, alpha, l, n: alpha >= 2 and n >= 0 and l >= 0,
        ),
        Statement(
            "T1.6",
            "theorem",
            "top-digit product congruence for weighted class sums",
            {
                "p": (2, 3, 5),
                "alpha": (2, 3),
                "l": (0, 1, 2),
                "n": tuple(range(17)),
                "s": DerivedAxis("0 .. p-1", _digits),
                "t": DerivedAxis("0 .. p-1", _digits),
                "r": DerivedAxis("-1 .. min(p**alpha, n+3)-1", _r_window_capped),
            },
            check_digit_product_congruence,
        ),
        Statement(
            "T1.7",
            "theorem",
            "digit refinement of normalized unweighted sums down to level p**2",
            {
                "p": (2, 3, 5),
                "alpha": DerivedAxis("2..4 for p in {2,3}, 2..3 for p=5", _refinement_alpha),
                "n": tuple(range(21)),
                "s": DerivedAxis("0 .. p**(alpha-2)-1", _refinement_digits),
                "t": DerivedAxis("0 .. p**(alpha-2)-1", _refinement_digits),
                "r": DerivedAxis("-1 .. min(p**2, n+3)-1", _r_window_refinement),
            },
            check_normalized_refinement,
        ),
        Statement(
            "T1.8",
            "theorem",
            "exact attainment of the order floor for the zero class at p = 2",
            {
                "alpha": (0, 1, 2, 3),
                "n": tuple(range(65)),
                "l": DerivedAxis(
                    "n0, n0 + 2**e, n0 + 2**(e+1) with n0 = floor(n/2**alpha), "
                    "e = floor(log2 n0)",
                    _t18_l_values,
                ),
            },
            check_exact_attainment,
        ),
        Statement(
            "C1.1cor",
            "theorem",
            "Bernoulli-polynomial alternating sums obey the shifted order bound",
            {
                "p": (2, 3),
                "alpha": (1, 2),
                "m": (1, 2, 3, 4, 5, 6),
                "n": tuple(range(1, 41)),
                "r": DerivedAxis("0 .. p**alpha - 1", _r_residues),
            },
            _c11cor,
        ),
        Statement(
            "C1.2cor",
            "theorem",
            "digit criterion for oddness of the normalized unsigned class sum at p = 2",
            {
                "alpha": (2, 3, 4, 5),
                "n": tuple(range(49)),
                "r": DerivedAxis(
                    "-2 .. 2**alpha - 1",
                    lambda ctx: tuple(range(-2, prime_power_modulus(2, ctx["alpha"]).m)),
                ),
            },
            check_parity_criterion,
        ),
        Statement(
            "C3.1cor",
            "theorem",
            "iterated level reduction and order floor for Fleck-normalized sums",
            {
                "p": (2, 3, 5),
                "alpha": (1, 2, 3, 4),
                "beta": DerivedAxis("0 .. alpha-1", _beta_below_alpha),
                "n": tuple(range(13)),
                "r": tuple(range(-2, 10)),
            },
            check_fleck_shift_chain,
        ),
        Statement(
            "L2.1",
            "theorem",
            "degenerate-regime closed form of the normalized sum",
            {
                "p": (2, 3, 5),
                "n": tuple(range(65)),
                "r": (-1, 0, 1),
                "l": tuple(range(9)),
            },
            _l21,
        ),
        Statement(
            "L2.2",
            "theorem",
            "two exact contiguous recurrences for normalized sums",
            {
                "p": (2, 3, 5),
                "alpha": (1, 2, 3),
                "l": tuple(range(9)),
                "n": tuple(range(1, 65)),
                "r": _R_WINDOW,
            },
            _l22,
            # n >= 1 because the recurrences read the sums at n - 1.
            lambda p, alpha, l, n: alpha >= 1 and n >= 1 and l >= 0,
        ),
        Statement(
            "L2.3",
            "theorem",
            "class-d sums split exactly through class-m convolutions",
            {
                "d": tuple(range(1, 10)),
                "m": tuple(range(1, 10)),
                "n": tuple(range(9)),
                "r": (-2, -1, 0, 1, 3),
                "fdeg": (0, 1, 2),
            },
            _l23,
        ),
        Statement(
            "L2.4",
            "theorem",
            "self-convolution identity with integral weights",
            {
                "p": (2, 3),
                "alpha": (1, 2),
                "l": tuple(range(5)),
                "n": tuple(range(25)),
                "r": _R_WINDOW,
            },
            _l24,
        ),
        Statement(
            "L2.5",
            "theorem",
            "integrality of the convolution weights",
            {
                "p": (2, 3, 5),
                "alpha": (1, 2, 3),
                "n": tuple(range(65)),
                "j": DerivedAxis("0 .. n", _j_upto_n),
            },
            _l25,
        ),
        Statement(
            "T2.1",
            "theorem",
            "carry-count lower bound for orders of normalized sums",
            {
                "p": (2, 3, 5),
                "alpha": (0, 1, 2, 3),
                "l": tuple(range(9)),
                "n": tuple(range(65)),
                "r": _R_WINDOW,
            },
            _t21,
            lambda p, alpha, l, n: n >= 0 and l >= 0,
        ),
        Statement(
            "L3.1",
            "theorem",
            "congruence for averaged harmonic sums over an arithmetic progression",
            {
                "m": tuple(range(1, 13)),
                "n": tuple(range(1, 49)),
                "r": DerivedAxis("units mod m in -m .. m", _coprime_window),
            },
            check_harmonic_congruence,
        ),
        Statement(
            "L3.2",
            "theorem",
            "p-scaling congruence for binomial coefficients",
            {
                "p": (2, 3, 5),
                "n": tuple(range(1, 31)),
                "k": DerivedAxis("0 .. n+1", _k_upto_n),
            },
            check_scaled_binomial_congruence,
        ),
        Statement(
            "T3.1",
            "theorem",
            "one-step level reduction for Fleck-normalized sums",
            {
                "p": (2, 3, 5),
                "alpha": (2, 3, 4),
                "n": tuple(range(17)),
                "r": DerivedAxis("-2 .. p**alpha - 1", _fleck_r_window),
            },
            check_fleck_reduction,
            lambda p, alpha, n: alpha >= 2 and n >= 0,
        ),
        Statement(
            "L4.1",
            "theorem",
            "factorial order attains its ceiling exactly for single-digit quotients",
            {
                "p": (2, 3, 5),
                "beta": (0, 1, 2, 3),
                "q": tuple(range(9)),
                "r": DerivedAxis("({-q}_(p-1), p) window", _l41_r_window),
            },
            check_factorial_ceiling,
        ),
        Statement(
            "L4.2",
            "theorem",
            "oddness of the degree-zero normalized sum detects powers of two",
            {
                "alpha": (0, 1, 2, 3),
                "n": DerivedAxis("multiples of 2**alpha up to 64", _l42_n_values),
                "r": DerivedAxis("multiples of 2**alpha in [-2**(alpha+1), 2**(alpha+2))", _l42_r_values),
            },
            _l42,
        ),
        Statement(
            "T4.1",
            "theorem",
            "Kronecker-delta parity of normalized sums at split arguments",
            {
                "alpha": (0, 1, 2, 3),
                "c": tuple(range(6)),
                "e": (0, 1, 2, 3, 4),
                "d": DerivedAxis("0 .. 2**e - 1", _t41_d_values),
                "l": DerivedAxis("0 .. d", _t41_l_values),
            },
            check_parity_delta,
        ),
        Statement(
            "R1.6",
            "theorem",
            "alternating power sums reduce to Stirling partition numbers, with "
            "the derived parity consequence",
            {"n": tuple(range(11)), "l": tuple(range(15))},
            _r16,
        ),
        Statement(
            "CONJ1.1",
            "conjecture",
            "conjectured strength of the lift congruence between levels "
            "alpha+1 and alpha at scaled arguments (mod p**3, or p**2 at p=3)",
            {
                "p": (3, 5),
                "alpha": (1, 2),
                "l": tuple(range(6)),
                "n": tuple(range(25)),
                "r": DerivedAxis("0 .. p**alpha - 1", _r_residues),
            },
            _conj11,
            lambda p, alpha, l, n: n >= 0 and l >= 0,
        ),
        Statement(
            "CONJ1.2",
            "conjecture",
            "conjectured digit congruence at level p**2 with the residue "
            "permutation clause in the exceptional case",
            {
                "p": (2, 3, 5),
                "n": tuple(range(21)),
                "s": DerivedAxis("0 .. p-1", _digits),
            },
            _conj12,
            lambda p, n: n >= 0,
        ),
        Statement(
            "CONJ1.3",
            "conjecture",
            "conjectured unit value (+1 or -1 mod p) of the doubly normalized sum "
            "at admissible weights",
            {
                "p": (2, 3),
                "alpha": (0, 1, 2),
                "n": DerivedAxis("2 p**alpha - 1 .. 40", _conj13_n_values),
                "r": DerivedAxis("0 .. p**alpha - 1", _r_residues),
                "j": (0, 1, 2),
            },
            _conj13,
            lambda p, alpha, n, r: n >= 2 * prime_power_modulus(p, alpha).m - 1,
        ),
        Statement(
            "CONJ3.1",
            "conjecture",
            "conjectured strengthening of the Fleck-normalized shift congruence "
            "for odd p",
            {
                "p": (3, 5),
                "alpha": (2, 3),
                "n": tuple(range(17)),
                "r": tuple(range(-2, 12)),
            },
            _conj31,
            lambda p, alpha, n: alpha >= 2 and n >= 0,
        ),
    ]
}

_T15_ALPHA1 = Statement(
    "T1.5-alpha1",
    "conjecture",
    "digit-reduction congruence at the lowest level (conjectured analogue "
    "of the proven alpha >= 2 case)",
    {
        "p": (2, 3),
        "l": tuple(range(5)),
        "n": tuple(range(31)),
        "r": DerivedAxis("-2 .. min(p**2, n+p+2)-1", _t15a1_r_window),
    },
    _t15_alpha1,
    lambda p, l, n: n >= 0 and l >= 0,
)

SEARCHES: dict[str, Statement] = {
    **{k: v for k, v in STATEMENTS.items() if v.kind == "conjecture"},
    _T15_ALPHA1.id: _T15_ALPHA1,
}

STATEMENT_IDS: tuple[str, ...] = tuple(STATEMENTS)
SEARCH_IDS: tuple[str, ...] = tuple(SEARCHES)
