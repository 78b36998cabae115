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

_norm_sums is the one evaluator of the first normalization: it gives the
numerators of one (l, n) at any residues, sharing the weight lists, gives 0
for a residue whose class is empty (r mod m > n) without a weight list or a
kernel call, and holds every value to both invariants.  _norm_index is
the one definition of d, and _norm_denominator gives the denominator d!
and its order; a reader of the order alone builds no d!.  _norm_sum_value
keeps single values (L2.4, L4.2, T4.1 and the per-instance checks), and
_norm_sum_window whole windows, which serves L2.2's neighbouring rows; the
row forms of T2.1, T1.5, T1.5-alpha1 and CONJ1.1 read no row twice and
take _norm_sums past both, so they keep none of the values they read.
_fleck_sums gives the Fleck sums of one (alpha, n) at a list of residues,
mod p**(b + 1) for the bound b of the check that reads them, from one
residue fold of the binomial row (sums._class_residues) mod p**(w + b + 1),
each held to the same integrality as fleck_sum_value, which stays exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Sequence

from .combinatorics import _class_binomials, binomial
from .errors import InternalInvariantError, InvalidParameterError
from .padic import (
    Order,
    _factorial_order,
    _int_order,
    _scaled_floor,
    _weisman,
    prime_power_modulus,
)
from .sums import (
    _binomial_weights,
    _class_residues,
    # Nothing here calls alt_sum_binom: _norm_sums evaluates every normalized
    # sum.  The name stays because perfbench's tracer test looks it up here.
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


def _norm_index(p: int, alpha: int, n: int) -> int:
    """d = scaled_floor(n, p, alpha - 1): every normalized sum of row n at
    level alpha has denominator d!."""
    return _scaled_floor(n, p, alpha - 1)


def _norm_denominator(p: int, alpha: int, n: int) -> tuple[int, int]:
    """d! and ord_p(d!) with d = _norm_index(p, alpha, n): the denominator
    of every normalized sum of row n at level alpha."""
    d = _norm_index(p, alpha, n)
    return math.factorial(d), _factorial_order(p, d)


def _norm_sums(p: int, alpha: int, l: int, n: int, rs: Sequence[int]) -> tuple[int, ...]:
    """The normalized sums of row n at each r of rs, in order, in integer
    form: num = l! * p**l * S, whose value is num / d! (_norm_denominator).

    Sweeps compare these by cross-multiplying and take orders as
    ord_p(num) - ord_p(d!), so no Fraction (and no gcd) is ever built.  The
    residues share their weights: r's class has weight indices
    j = i - r // m, so one list of binomial(j, l) serves every r with the
    same quotient r // m (three lists on a -m .. 2m-1 window).  A class
    past n has no terms, and its sum is 0 without either.  Each value is
    held to the two invariants of every normalized sum: the alpha = 0
    closed form and p-integrality, ord_p(num) >= ord_p(d!).
    """
    m = prime_power_modulus(p, alpha).m
    if l < 0 or n < 0:
        raise InvalidParameterError("l and n must be nonnegative")
    scale = math.factorial(l) * p**l
    integral = p ** _factorial_order(p, _norm_index(p, alpha, n))
    weights: dict[int, list[int]] = {}
    nums = []
    for r in rs:
        q, c = divmod(r, m)
        if c > n:  # an empty class
            nums.append(0)
            continue
        w = weights.get(q)
        if w is None:
            w = weights[q] = _binomial_weights(-q, n // m + 1, l)
        num = scale * sum(map(mul, _class_binomials(n, c, m), w))
        # At alpha == 0 the closed form has the same denominator (p*n)! as num.
        if alpha == 0 and num != scale * (-1) ** n * binomial(-r, l - n):
            raise InternalInvariantError(
                f"degenerate-regime closed form disagrees at (p={p}, l={l}, n={n}, r={r})"
            )
        if num % integral:
            raise InternalInvariantError(
                f"normalized sum is not p-integral at (p={p}, alpha={alpha}, l={l}, n={n}, r={r})"
            )
        nums.append(num)
    return tuple(nums)


@lru_cache(maxsize=1 << 18)
def _norm_sum_value(p: int, alpha: int, l: int, n: int, r: int) -> int:
    """_norm_sums at the one residue r, kept.  d depends on (p, alpha, n)
    alone and is not stored: the cache holds up to 2**18 values, and a
    tuple per entry would cost several MB.  Its sweep readers: L2.4, L4.2
    and T4.1."""
    return _norm_sums(p, alpha, l, n, (r,))[0]


@lru_cache(maxsize=1 << 8)
def _norm_sum_window(p: int, alpha: int, l: int, n: int, rs: Sequence[int]) -> tuple[int, ...]:
    """_norm_sums at rs, kept.  The cache serves L2.2, whose neighbouring
    rows read the same ranges of r again: 2**8 hold the two weight degrees
    in flight of a sweep over n < 128."""
    return _norm_sums(p, alpha, l, n, rs)


def normalized_sum_value(p: int, alpha: int, l: int, n: int, r: int) -> Fraction:
    """Exact value of the factorial-normalized, binomial-weighted class sum,
    built from the cached integer form.

    p-integrality is asserted on evaluation: a negative order is an
    internal error, never a caller error.
    """
    num = _norm_sum_value(p, alpha, l, n, r)
    return Fraction(num, _norm_denominator(p, alpha, n)[0])


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


def _fleck_sums(p: int, alpha: int, n: int, rs: Sequence[int], b: int) -> list[int]:
    """_fleck_sum_value mod p**(b + 1), in 0 .. p**(b+1) - 1, at each r of
    rs, in order, for a check's bound b >= 0, from one residue fold of the
    row.

    The fold keeps the row's class sums mod p**(w + b + 1), w Weisman's
    exponent: enough to check that p**w divides each sum, and to give each
    Fleck value mod p**(b + 1).  So the order of a value, or of the
    difference of two read with the same b, is exact when it is at most b,
    and INFINITY (the residue 0) when it is more: a verdict "order >= b"
    and the order its failure prints come out as from the exact values,
    with a digit to spare.  The fold is dropped once the values are read.
    """
    row, m = _fleck_row(p, alpha, n)
    sums = _class_residues(row, m, p, _weisman(p, alpha, row) + b + 1)
    q = p ** (b + 1)
    return [_weisman_normalized(p, alpha, row, r, sums[r % m]) % q for r in rs]


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


def _convolution_weight_order(p: int, alpha: int, n: int, j: int) -> int:
    """ord_p(convolution_weight(p, alpha, n, j)) for arguments the caller
    has checked: the order of the integer numerator minus that of the
    denominator, each summed over its factors (factorials by Legendre)."""
    h = p ** (alpha - 1)
    return (
        _int_order(p, math.comb(n, j))
        + _factorial_order(p, j // h)
        + _factorial_order(p, (n - j) // h)
        - _factorial_order(p, n // h)
    )


def order_gap(p: int, alpha: int, n: int, r: int, l: int) -> Order:
    """Observed order of the power-weighted class sum minus its degree
    bound; INFINITY when the sum vanishes."""
    pm = prime_power_modulus(p, alpha)
    bound = degree_order_bound(pm, n, r, l)
    return _int_order(p, alt_sum_power(n, r, pm.m, l)) - bound
