"""Normalized class sums.

Two normalizations recur in every congruence this package checks.  For a
modulus p**alpha (alpha >= 0 for the first, alpha >= 1 for the second):

  normalized_sum_value
      (l! * p**l / floor(n/p**(alpha-1))!)
        * sum_{k == r (mod p**alpha)} binomial(n,k) * (-1)**k * binomial((k-r)/p**alpha, l)
      a p-adic integer for every (l, n, r); its order is bounded below by
      the carry count carries_p({r}_h, {n-r}_h) with h = p**(alpha-1).

  fleck_sum_value
      p**(-floor((n-1)/(p-1)))
        * sum_{k == r (mod p**alpha)} binomial(p**(alpha-1) * n, k) * (-1)**k
      always an exact integer.

In the degenerate alpha = 0 regime the first normalization has the closed
form (l! * p**l / (p*n)!) * (-1)**n * binomial(-r, l - n); values there are
computed from the definition and cross-checked against the closed form on
every call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .combinatorics import binomial
from .errors import InternalInvariantError, InvalidParameterError
from .padic import (
    INFINITY,
    Order,
    _factorial_order,
    _int_order,
    padic_order,
    prime_power_modulus,
    scaled_floor,
)
from .sums import alt_sum_binom, alt_sum_power, degree_order_bound, plain_alt_sum

__all__ = [
    "convolution_weight",
    "fleck_sum_value",
    "normalized_sum_value",
    "order_gap",
]


@lru_cache(maxsize=1 << 18)
def _norm_sum_value(p: int, alpha: int, l: int, n: int, r: int) -> int:
    """The normalized sum in integer form: num = l! * p**l * S, whose value
    is num / d! with d = scaled_floor(n, p, alpha - 1), i.e. floor(n/h).

    Sweeps compare these by cross-multiplying and take orders as
    ord_p(num) - ord_p(d!), so no Fraction (and no gcd) is ever built.  d
    depends on (p, alpha, n) alone and is not stored: the cache holds up to
    2**18 values, and a tuple per entry would cost several MB.
    """
    pm = prime_power_modulus(p, alpha)
    if l < 0 or n < 0:
        raise InvalidParameterError("l and n must be nonnegative")
    scale = math.factorial(l) * p**l
    num = scale * alt_sum_binom(n, r, pm.m, l)
    # At alpha == 0 the closed form has the same denominator (p*n)! as num.
    if alpha == 0 and num != scale * (-1) ** n * binomial(-r, l - n):
        raise InternalInvariantError(
            f"degenerate-regime closed form disagrees at (p={p}, l={l}, n={n}, r={r})"
        )
    if _int_order(p, num) < _factorial_order(p, scaled_floor(n, p, alpha - 1)):
        raise InternalInvariantError(
            f"normalized sum is not p-integral at (p={p}, alpha={alpha}, l={l}, n={n}, r={r})"
        )
    return num


def normalized_sum_value(p: int, alpha: int, l: int, n: int, r: int) -> Fraction:
    """Exact value of the factorial-normalized, binomial-weighted class sum,
    built from the cached integer form.

    p-integrality is asserted on evaluation: a negative order is an
    internal error, never a caller error.
    """
    num = _norm_sum_value(p, alpha, l, n, r)
    return Fraction(num, math.factorial(scaled_floor(n, p, alpha - 1)))


@lru_cache(maxsize=1 << 16)
def _fleck_sum_value(p: int, alpha: int, n: int, r: int) -> int:
    pm = prime_power_modulus(p, alpha)
    if alpha < 1:
        raise InvalidParameterError("the Fleck normalization needs alpha >= 1")
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n}")
    s = plain_alt_sum(p ** (alpha - 1) * n, r, pm.m)
    e = (n - 1) // (p - 1)
    if e <= 0:
        return s * p**-e if e else s
    q, rem = divmod(s, p**e)
    if rem:
        raise InternalInvariantError(
            f"Fleck-normalized sum is not an integer at (p={p}, alpha={alpha}, n={n}, r={r})"
        )
    return q


def fleck_sum_value(p: int, alpha: int, n: int, r: int) -> int:
    """Exact integer value of the Fleck-normalized alternating class sum
    (cached)."""
    return _fleck_sum_value(p, alpha, n, r)


def convolution_weight(p: int, alpha: int, n: int, j: int) -> Fraction:
    """binomial(n,j) * floor(j/h)! * floor((n-j)/h)! / floor(n/h)! with
    h = p**(alpha-1); a p-adic integer for 0 <= j <= n.

    At alpha == 1 every weight is exactly 1.
    """
    prime_power_modulus(p, alpha)
    if alpha < 1:
        raise InvalidParameterError("convolution weights need alpha >= 1")
    if not 0 <= j <= n:
        raise InvalidParameterError(f"j must lie in [0, n], got j={j}, n={n}")
    h = p ** (alpha - 1)
    return Fraction(
        math.comb(n, j) * math.factorial(j // h) * math.factorial((n - j) // h),
        math.factorial(n // h),
    )


def order_gap(p: int, alpha: int, n: int, r: int, l: int) -> Order:
    """Observed order of the power-weighted class sum minus its degree
    bound; INFINITY when the sum vanishes."""
    pm = prime_power_modulus(p, alpha)
    value = alt_sum_power(n, r, pm.m, l)
    if value == 0:
        return INFINITY
    return padic_order(p, value) - degree_order_bound(pm, n, r, l)
