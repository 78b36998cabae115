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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .combinatorics import Polynomial, _class_binomials
from .errors import InvalidParameterError
from .padic import (
    Order,
    PrimePowerModulus,
    _carries,
    _factorial_order,
    _require_prime,
    padic_order,
    scaled_floor,
    scaled_residue,
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
            raise InvalidParameterError(f"modulus must be positive, got {self.modulus}")


def alt_sum_f(n: int, r: int, m: int, f_at: Callable[[int], "int | Fraction"]):
    """sum over k == r (mod m), 0 <= k <= n of binomial(n,k) * (-1)**k * f_at((k-r)/m)."""
    acc: "int | Fraction" = 0
    j = -(r // m)
    for t in _class_binomials(n, r % m, m):
        acc += t * f_at(j)
        j += 1
    return acc


def alt_sum_power(n: int, r: int, m: int, l: int) -> int:
    """Weight ((k-r)/m)**l for a degree l >= 0; pure integer arithmetic."""
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
    if l < 0:
        return 0
    acc = 0
    j = -(r // m)
    for t in _class_binomials(n, r % m, m):
        # binomial(j, l), as combinatorics.binomial extends it to j < 0
        acc += t * (math.comb(j, l) if j >= 0 else (-1) ** l * math.comb(l - j - 1, l))
        j += 1
    return acc


def plain_alt_sum(n: int, r: int, m: int) -> int:
    """Unweighted alternating class sum."""
    return sum(_class_binomials(n, r % m, m))


def unsigned_class_sum(n: int, r: int, m: int) -> int:
    """sum of binomial(n, k) over k == r (mod m) with no signs."""
    return sum(map(abs, _class_binomials(n, r % m, m)))


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


@lru_cache(maxsize=1 << 8)
def _bound_terms(p: int, e: int, n: int, r: int) -> tuple[int, int]:
    """ord_p(floor(n/p**e)!) and carries_p({r}_{p**e}, {n-r}_{p**e}), in the
    scaled_* conventions at e == -1: the terms every order bound adds up.
    Sweeps whose innermost axis is the weight degree ask for the same terms
    several times in a row, so a small cache serves them.  The caller has
    checked that p is prime and n >= 0."""
    return (
        _factorial_order(p, scaled_floor(n, p, e)),
        _carries(p, scaled_residue(r, p, e), scaled_residue(n - r, p, e)),
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
