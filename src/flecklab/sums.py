"""Alternating binomial sums restricted to one residue class, and the
lower bounds for their p-adic orders.

The central object is

    S(n, r, m; f) = sum_{0 <= k <= n, k == r (mod m)} binomial(n, k) * (-1)**k * f((k - r) / m)

for a modulus m = p**alpha.  The argument of f is an exact integer on the
summation set, and f's argument uses r itself, not its residue: shifting r
by a multiple of m changes the value of the sum even though the summation
set only depends on {r}_m.

Three order bounds are provided.  With h = p**(alpha-1), residues and
floors taken in the alpha = 0 regime via the scaled_* helpers
(floor(n/p**-1) := n*p and {a}_{p**-1} := 0):

  degree bound          ord >= ord_p(floor(n/h)!) - deg f + carries_p({r}_h, {n-r}_h)
  integer-valued bound  ord >= ord_p(floor(n/h)!) - l - ord_p(l!) + carries_p({r}_h, {n-r}_h)
  floor bound           ord >= ord_p(floor(n/m)!) + carries_p({r}_m, {n-r}_m)

The degree bound needs integer (p-integral) coefficients; the
integer-valued bound covers rational-coefficient f of degree <= l taking
integer values on the integers, binomial(x, l) being the motivating case.

Every per-value evaluator sums one class's terms from the class-sum kernel
combinatorics._class_binomials.  A caller that needs the plain alternating
sum of every class of one row folds the row instead: _class_sums(n, m) walks
row n once by the recurrence binomial(n, k+1) = binomial(n, k) (n-k) / (k+1)
and adds each signed term to its class k mod m, with no math.comb call.  The
fold is made per call and never kept; plain_alt_sum stays its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Callable, Sequence

from .combinatorics import Polynomial, _class_binomials
from .errors import InvalidParameterError
from .padic import (
    Order,
    PrimePowerModulus,
    _carries,
    _factorial_order,
    _require_prime,
    _scaled_floor,
    _scaled_residue,
    padic_order,
)

__all__ = [
    "RestrictedSumSpec",
    "alt_sum_binom",
    "alt_sum_f",
    "alt_sum_power",
    "convolution_identity_holds",
    "degree_order_bound",
    "floor_order_bound",
    "integer_valued_order_bound",
    "plain_alt_sum",
    "restricted_sum",
    "restricted_sum_order",
    "series_coefficient",
    "unsigned_class_sum",
]


@dataclass(frozen=True)
class RestrictedSumSpec:
    """Parameters of one restricted alternating sum: n >= 0, any integer r,
    modulus m >= 1, and the weight polynomial f."""

    n: int
    r: int
    modulus: int
    f: Polynomial

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidParameterError(f"n must be nonnegative, got {self.n}")
        if self.modulus < 1:
            raise _modulus_error(self.modulus)


def _modulus_error(m: int) -> InvalidParameterError:
    return InvalidParameterError(f"modulus must be positive, got {m}")


def alt_sum_f(n: int, r: int, m: int, f_at: Callable[[int], "int | Fraction"]):
    """sum over k == r (mod m), 0 <= k <= n of binomial(n,k) * (-1)**k * f_at((k-r)/m)."""
    if m < 1:
        raise _modulus_error(m)
    acc: "int | Fraction" = 0
    j = -(r // m)
    for t in _class_binomials(n, r % m, m):
        acc += t * f_at(j)
        j += 1
    return acc


def alt_sum_power(n: int, r: int, m: int, l: int) -> int:
    """Weight ((k-r)/m)**l for a degree l >= 0; pure integer arithmetic."""
    if m < 1:
        raise _modulus_error(m)
    if l < 0:
        raise InvalidParameterError(f"weight degree must be nonnegative, got {l}")
    acc = 0
    j = -(r // m)
    for t in _class_binomials(n, r % m, m):
        acc += t * j**l
        j += 1
    return acc


def alt_sum_binom(n: int, r: int, m: int, l: int) -> int:
    """Weight binomial((k-r)/m, l); pure integer arithmetic."""
    if m < 1:
        raise _modulus_error(m)
    if l < 0:
        return 0
    acc = 0
    j = -(r // m)
    for t in _class_binomials(n, r % m, m):
        # binomial(j, l), as combinatorics.binomial extends it to j < 0
        acc += t * (math.comb(j, l) if j >= 0 else (-1) ** l * math.comb(l - j - 1, l))
        j += 1
    return acc


# Row forms of the weighted sums: one residue class's terms against every
# weight degree 0..top of a row, each term run through one recurrence in the
# degree.  The per-instance sums above stay as their oracle.


def _power_sums(terms: Sequence[int], j0: int, degrees: Sequence[int]) -> list:
    """sum_i terms[i] * (j0 + i)**l for each l in degrees, in order; None
    for l < 0."""
    top = max(degrees)
    acc = [0] * (top + 1)
    j = j0
    for t in terms:
        for l in range(top + 1):
            acc[l] += t
            t *= j
        j += 1
    return [acc[l] if l >= 0 else None for l in degrees]


def _binomial_sums(terms: Sequence[int], j0: int, degrees: Sequence[int]) -> list:
    """sum_i terms[i] * binomial(j0 + i, l) for each l in degrees, in order;
    None for l < 0.  binomial is extended to j < 0 as in alt_sum_binom."""
    top = max(degrees)
    acc = [0] * (top + 1)
    j = j0
    for t in terms:
        # binomial(j, l+1) == binomial(j, l) * (j-l) / (l+1), exactly for every j
        for l in range(top + 1):
            acc[l] += t
            t = t * (j - l) // (l + 1)
        j += 1
    return [acc[l] if l >= 0 else None for l in degrees]


def _series_sums(terms: Sequence[int], q: int, degrees: Sequence[int]) -> list:
    """series_coefficient's closed form, sum_{i <= q} terms[i] *
    binomial(l + q - i, l), for each l in degrees, in order; None for l < 0."""
    head = terms[: q + 1]
    top = max(degrees)
    acc = [0] * (top + 1)
    a = q
    for t in head:
        # binomial(a+l+1, l+1) == binomial(a+l, l) * (a+l+1) / (l+1)
        for l in range(top + 1):
            acc[l] += t
            t = t * (a + l + 1) // (l + 1)
        a -= 1
    return [acc[l] if l >= 0 else None for l in degrees]


def _binomial_weights(j0: int, count: int, l: int) -> list[int]:
    """binomial(j, l) for j = j0 .. j0 + count - 1, l >= 0, extended to j < 0
    as combinatorics.binomial extends it."""
    sign = (-1) ** l
    neg = [sign * math.comb(l - j - 1, l) for j in range(j0, min(j0 + count, 0))]
    return neg + list(map(math.comb, range(max(j0, 0), j0 + count), repeat(l)))


def plain_alt_sum(n: int, r: int, m: int) -> int:
    """Unweighted alternating class sum."""
    if m < 1:
        raise _modulus_error(m)
    return sum(_class_binomials(n, r % m, m))


def unsigned_class_sum(n: int, r: int, m: int) -> int:
    """sum of binomial(n, k) over k == r (mod m) with no signs."""
    if m < 1:
        raise _modulus_error(m)
    return sum(map(abs, _class_binomials(n, r % m, m)))


def _class_sums(n: int, m: int) -> list[int]:
    """plain_alt_sum(n, c, m) for every class c = 0 .. m-1, from one pass
    over row n (all zero for n < 0).

    Only half the row is walked: the term at n - k is (-1)**n times the
    term at k.  The sums are kept in one list of m, the largest thing a
    fold holds.
    """
    if m < 1:
        raise _modulus_error(m)
    out = [0] * m
    t = 1  # (-1)**k * binomial(n, k)
    half = (n + 1) // 2
    odd = n % 2
    for k in range(half):
        out[k % m] += t
        if odd:
            out[(n - k) % m] -= t
        else:
            out[(n - k) % m] += t
        t = -t * (n - k) // (k + 1)
    if n >= 0 and not odd:
        out[half % m] += t  # the middle term, k = n/2
    return out


def restricted_sum(spec: RestrictedSumSpec) -> "int | Fraction":
    """Exact value of the restricted alternating sum; an integer whenever
    f has integer coefficients."""
    return alt_sum_f(spec.n, spec.r, spec.modulus, spec.f)


def restricted_sum_order(spec: RestrictedSumSpec, p: int) -> Order:
    """p-adic order of the restricted sum; INFINITY when the sum vanishes.

    The modulus must be a power of p.
    """
    _require_prime(p)
    _modulus_exponent(spec.modulus, p)
    return padic_order(p, Fraction(restricted_sum(spec)))


def _modulus_exponent(m: int, p: int) -> int:
    a = 0
    while m % p == 0:
        m //= p
        a += 1
    if m != 1:
        raise InvalidParameterError(f"modulus is not a power of {p}")
    return a


def _bound_terms(p: int, e: int, n: int, r: int) -> tuple[int, int]:
    """ord_p(floor(n/p**e)!) and carries_p({r}_{p**e}, {n-r}_{p**e}), in the
    scaled_* conventions at e == -1: the terms every order bound adds up.
    The caller has checked that p is prime and n >= 0."""
    return (
        _factorial_order(p, _scaled_floor(n, p, e)),
        _carries(p, _scaled_residue(r, p, e), _scaled_residue(n - r, p, e)),
    )


def degree_order_bound(pm: PrimePowerModulus, n: int, r: int, deg_f: "int | float") -> Order:
    """Order bound from the weight's degree; INFINITY when f is zero
    (deg_f == NEG_INFINITY)."""
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n}")
    fo, tau = _bound_terms(pm.p, pm.alpha - 1, n, r)
    return fo - deg_f + tau


def integer_valued_order_bound(pm: PrimePowerModulus, n: int, r: int, l: int) -> Order:
    """Order bound for integer-valued weights of degree at most l."""
    if n < 0 or l < 0:
        raise InvalidParameterError("n and l must be nonnegative")
    fo, tau = _bound_terms(pm.p, pm.alpha - 1, n, r)
    return fo - l - _factorial_order(pm.p, l) + tau


def floor_order_bound(pm: PrimePowerModulus, n: int, r: int) -> int:
    """Degree-free order bound at the full modulus level."""
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n}")
    fo, tau = _bound_terms(pm.p, pm.alpha, n, r)
    return fo + tau


def series_coefficient(pm: PrimePowerModulus, n: int, l: int, r: int) -> int:
    """Coefficient of x**r in (1 - x)**n / (1 - x**m)**(l + 1), m = pm.m.

    Computed by the closed form
        sum_{0 <= k <= r, k == r (mod m)} binomial(n,k) * (-1)**k * binomial(l - (k-r)/m, l),
    which the test suite checks against direct polynomial long division.
    """
    if n < 0 or l < 0 or r < 0:
        raise InvalidParameterError("series coefficients need n, l, r >= 0")
    m = pm.m
    q = r // m  # term i of the class has k = r - (q - i)*m <= r
    acc = 0
    for i, t in enumerate(_class_binomials(n, r % m, m)[: q + 1]):
        acc += t * math.comb(l + q - i, l)
    return acc


def convolution_identity_holds(d: int, m: int, n: int, r: int, f: Polynomial) -> bool:
    """Exact splitting of a class-d sum through class-m pieces:

        sum_{k == r (d)} binomial(n,k)(-1)**k f(floor((k-r)/m))
          == sum_{j=0}^{n} binomial(n,j) * A_j * sum_{i=0}^{m-1} sigma_{i,j}

    with A_j the plain alternating class sum of binomial(j, .) over i == r
    (mod d) and sigma_{i,j} the class-m restricted sum at shifted offset
    r + i - j over n - j.  Entirely integer/rational arithmetic; no complex
    roots of unity are involved.
    """
    if d < 1 or m < 1:
        raise InvalidParameterError("d and m must be positive")
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n}")
    lhs: "int | Fraction" = 0
    k = r % d
    for t in _class_binomials(n, k, d):
        lhs += t * f((k - r) // m)
        k += d
    rhs: "int | Fraction" = 0
    for j in range(n + 1):
        a_j = plain_alt_sum(j, r, d)
        if a_j == 0:
            continue
        inner: "int | Fraction" = 0
        for i in range(m):
            inner += alt_sum_f(n - j, r + i - j, m, f)
        rhs += math.comb(n, j) * a_j * inner
    return lhs == rhs
