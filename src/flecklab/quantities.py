"""Normalized class sums.

Two normalizations recur in every congruence this package checks.  For a
modulus p**alpha (alpha >= 0 for the first, alpha >= 1 for the second):

  normalized_sum_value
      (l! * p**l / floor(n/p**(alpha-1))!)
        * sum_{k == r (mod p**alpha)} binomial(n,k) * (-1)**k * binomial((k-r)/p**alpha, l)
      a p-adic integer for every (l, n, r); its order is bounded below by
      the carry count carries_p({r}_h, {n-r}_h) with h = p**(alpha-1).

  _weisman_normalized
      p**-w * sum_{k == r (mod p**alpha)} binomial(N, k) * (-1)**k
      with w = floor((N - p**(alpha-1)) / phi(p**alpha)), Weisman's
      exponent (padic._weisman): always an exact integer, and checked to be
      one on every call.  T1.7 and CONJ1.2 normalize their class sums with
      it.  fleck_sum_value is its special case N = p**(alpha-1) * n, where
      w is Fleck's floor((n-1)/(p-1)).

In the degenerate alpha = 0 regime the first normalization has the closed
form (l! * p**l / (p*n)!) * (-1)**n * binomial(-r, l - n); values there are
computed from the definition and cross-checked against the closed form on
every call.

Row forms read many sums of one row at once.  _norm_sums gives the
normalized sums of one (l, n) at a list of residues, sharing the weight
lists; _fleck_sums gives the Fleck sums of one (alpha, n) at a list of
residues from one fold of the binomial row (sums._class_sums).  Both hold
every value to the same invariants as the single-value path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence

from .combinatorics import _class_binomials, binomial
from .errors import InternalInvariantError, InvalidParameterError
from .padic import (
    Order,
    _factorial_order,
    _int_order,
    _scaled_floor,
    _weisman,
    prime_power_modulus,
    scaled_floor,
)
from .sums import (
    _binomial_weights,
    _class_sums,
    alt_sum_binom,
    alt_sum_power,
    degree_order_bound,
    plain_alt_sum,
)

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
    return _checked_norms(p, alpha, l, n, (r,), scale, [num])[0]


def _norm_sums(p: int, alpha: int, l: int, n: int, rs: Sequence[int]) -> list[int]:
    """_norm_sum_value at each r of rs, in order, from the definition.

    A row of residues shares its weights: r's class has weight indices
    j = i - r // m, so one list of binomial(j, l) serves every r with the
    same quotient r // m (three lists on a -m .. 2m-1 window).
    """
    pm = prime_power_modulus(p, alpha)
    if l < 0 or n < 0:
        raise InvalidParameterError("l and n must be nonnegative")
    m = pm.m
    scale = math.factorial(l) * p**l
    weights: dict[int, list[int]] = {}
    nums = []
    for r in rs:
        q, c = divmod(r, m)
        w = weights.get(q)
        if w is None:
            w = weights[q] = _binomial_weights(-q, n // m + 1, l)
        nums.append(scale * sum(map(mul, _class_binomials(n, c, m), w)))
    return _checked_norms(p, alpha, l, n, rs, scale, nums)


def _checked_norms(
    p: int, alpha: int, l: int, n: int, rs: Sequence[int], scale: int, nums: list[int]
) -> list[int]:
    """nums, the normalized sums at (l, n, r) for r in rs, after the two
    invariants every normalized sum is held to: the alpha = 0 closed form
    and p-integrality, ord_p(num) >= ord_p(d!)."""
    integral = p ** _factorial_order(p, _scaled_floor(n, p, alpha - 1))
    for r, num in zip(rs, nums):
        # At alpha == 0 the closed form has the same denominator (p*n)! as num.
        if alpha == 0 and num != scale * (-1) ** n * binomial(-r, l - n):
            raise InternalInvariantError(
                f"degenerate-regime closed form disagrees at (p={p}, l={l}, n={n}, r={r})"
            )
        if num % integral:
            raise InternalInvariantError(
                f"normalized sum is not p-integral at (p={p}, alpha={alpha}, l={l}, n={n}, r={r})"
            )
    return nums


@lru_cache(maxsize=1 << 8)
def _norm_sum_window(p: int, alpha: int, l: int, n: int, lo: int, hi: int) -> tuple[int, ...]:
    """_norm_sums over r = lo .. hi-1.  A sweep's neighbouring rows read the
    same windows again, and 2**8 windows hold the two weight degrees in
    flight of a sweep over n < 128."""
    return tuple(_norm_sums(p, alpha, l, n, range(lo, hi)))


def normalized_sum_value(p: int, alpha: int, l: int, n: int, r: int) -> Fraction:
    """Exact value of the factorial-normalized, binomial-weighted class sum,
    built from the cached integer form.

    p-integrality is asserted on evaluation: a negative order is an
    internal error, never a caller error.
    """
    num = _norm_sum_value(p, alpha, l, n, r)
    return Fraction(num, math.factorial(scaled_floor(n, p, alpha - 1)))


def _fleck_row(p: int, alpha: int, n: int) -> tuple[int, int]:
    """The row p**(alpha-1) * n and the modulus p**alpha a Fleck sum is
    taken over, once its parameters are checked."""
    pm = prime_power_modulus(p, alpha)
    if alpha < 1:
        raise InvalidParameterError("the Fleck normalization needs alpha >= 1")
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n}")
    return p ** (alpha - 1) * n, pm.m


def _weisman_normalized(p: int, alpha: int, row: int, r: int, s: int) -> int:
    """s * p**-w for the plain class sum s of row mod p**alpha at r, with w
    Weisman's exponent for (p, alpha, row).  p**w divides s by Weisman's
    theorem, so a remainder is an internal error."""
    w = _weisman(p, alpha, row)
    if w <= 0:
        return s * p**-w
    q, rem = divmod(s, p**w)
    if rem:
        raise InternalInvariantError(
            f"Weisman-normalized sum is not an integer at (p={p}, alpha={alpha}, N={row}, r={r})"
        )
    return q


@lru_cache(maxsize=1 << 16)
def _fleck_sum_value(p: int, alpha: int, n: int, r: int) -> int:
    row, m = _fleck_row(p, alpha, n)
    return _weisman_normalized(p, alpha, row, r, plain_alt_sum(row, r, m))


def _fleck_sums(p: int, alpha: int, n: int, rs: Sequence[int]) -> Iterator[int]:
    """_fleck_sum_value at each r of rs, in order, from one fold of the row.

    The row is folded on the call and the fold is dropped with the
    iterator.  Each value is normalized, and its integrality checked, as it
    is read, so a row form that reads two of these in step with its
    per-instance check raises at the same r.
    """
    row, m = _fleck_row(p, alpha, n)
    sums = _class_sums(row, m)
    return (_weisman_normalized(p, alpha, row, r, sums[r % m]) for r in rs)


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
    bound = degree_order_bound(pm, n, r, l)
    return _int_order(p, alt_sum_power(n, r, pm.m, l)) - bound
