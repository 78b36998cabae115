"""Exact p-adic primitives.

Everything downstream reduces to a handful of operations on integers and
rationals: the p-adic order, Euclidean residues, base-p carry counts,
orders of factorials, and the prime-power modulus bundle.  All of it is
arbitrary-precision integer arithmetic; no floats enter any value path.
The only floating-point objects are the two infinities used as extended
order/degree sentinels, which carry the right comparison and addition
semantics natively (INFINITY + k == INFINITY, INFINITY > k for every int k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import InvalidParameterError, UnsupportedRegimeError

__all__ = [
    "INFINITY",
    "NEG_INFINITY",
    "Order",
    "PrimePowerModulus",
    "carries",
    "factorial_order",
    "is_prime",
    "padic_order",
    "prime_power_modulus",
    "scaled_floor",
    "scaled_residue",
    "weisman_bound",
]

# Extended order: an exact integer, or INFINITY for the order of zero.
INFINITY = math.inf
# Degree of the zero polynomial.
NEG_INFINITY = -math.inf

Order = int | float

# These witnesses make Miller-Rabin deterministic for n < 3.3e24 > 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


# Typed, so that a float never hits the entry of the int it equals.
@lru_cache(maxsize=None, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.3e24."""
    _require_int("n", n)
    if n >= _MR_LIMIT:
        raise InvalidParameterError(f"primality test not deterministic for {n}")
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n == w:
            return True
        if n % w == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_int(name: str, x: object) -> None:
    if not isinstance(x, int):
        raise InvalidParameterError(f"{name} must be an int, got {x!r}")


def _require_prime(p: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise InvalidParameterError(f"p must be prime, got {p!r}")


def padic_order(p: int, x: "int | Fraction") -> "int | float":
    """Order of x at the prime p; the order of 0 is INFINITY.

    For rationals the order is the order of the numerator minus the order
    of the denominator, so it can be negative.
    """
    _require_prime(p)
    if isinstance(x, Fraction):
        return _int_order(p, x.numerator) - _int_order(p, x.denominator)
    _require_int("x", x)
    return _int_order(p, x)


# The unchecked primitives below (leading underscore) trust their caller to
# have validated p, as the public functions and prime_power_modulus do; the
# sweep adapters call them once the instance's p has passed that check.


def _int_order(p: int, n: int) -> Order:
    """Order of the integer n at p; INFINITY at n == 0."""
    if n == 0:
        return INFINITY
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def carries(p: int, a: int, b: int) -> int:
    """Number of carries when adding a and b in base p.

    Counted by direct digit-by-digit simulation.  By Kummer's theorem this
    equals the order of binomial(a+b, a) at p; the test suite checks that
    equivalence independently rather than relying on it here.
    """
    _require_prime(p)
    _require_int("a", a)
    _require_int("b", b)
    if a < 0 or b < 0:
        raise InvalidParameterError("carry counts need nonnegative addends")
    return _carries(p, a, b)


def _carries(p: int, a: int, b: int) -> int:
    count = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        count += carry
        a //= p
        b //= p
    return count


def factorial_order(p: int, n: int) -> int:
    """Order of n! at p, by the telescoping floor sum; never computes n!."""
    _require_prime(p)
    _require_int("n", n)
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n}")
    return _factorial_order(p, n)


def _factorial_order(p: int, n: int) -> int:
    total = 0
    while n:
        n //= p
        total += n
    return total


def scaled_floor(n: int, p: int, e: int) -> int:
    """floor(n / p**e) for e >= 0, extended to e == -1 as n * p.

    The e == -1 extension is the degenerate-regime convention used when a
    modulus exponent of zero makes p**(alpha-1) formally equal 1/p.
    """
    if e == -1:
        return n * p
    if e < -1:
        raise InvalidParameterError(f"exponent must be >= -1, got {e}")
    return n // p**e


def scaled_residue(a: int, p: int, e: int) -> int:
    """Euclidean residue of a mod p**e for e >= 0; defined as 0 at e == -1.

    Companion of scaled_floor: every integer is congruent to 0 modulo the
    formal modulus 1/p, so residues vanish in the degenerate regime.
    """
    if e == -1:
        return 0
    if e < -1:
        raise InvalidParameterError(f"exponent must be >= -1, got {e}")
    return a % p**e


@dataclass(frozen=True)
class PrimePowerModulus:
    """A modulus m = p**alpha with p prime and alpha >= 0."""

    p: int
    alpha: int
    m: int = field(init=False)

    def __post_init__(self) -> None:
        _require_prime(self.p)
        if not isinstance(self.alpha, int) or self.alpha < 0:
            raise InvalidParameterError(f"alpha must be a nonnegative int, got {self.alpha!r}")
        object.__setattr__(self, "m", self.p**self.alpha)

    @property
    def totient(self) -> int:
        """Euler's totient of m; requires alpha >= 1."""
        if self.alpha < 1:
            raise InvalidParameterError("totient of a trivial modulus is not used here")
        return self.p ** (self.alpha - 1) * (self.p - 1)


@lru_cache(maxsize=1 << 10, typed=True)
def prime_power_modulus(p: int, alpha: int) -> PrimePowerModulus:
    """The validated PrimePowerModulus(p, alpha), built once per pair.

    Sweeps call this per instance: it checks p and alpha at the cost of a
    cache lookup, after which the instance may use the unchecked primitives.
    """
    return PrimePowerModulus(p, alpha)


def weisman_bound(pm: PrimePowerModulus, n: int) -> int:
    """floor((n - p**(alpha-1)) / totient(p**alpha)), a lower bound for the
    order of an alternating binomial sum over one residue class mod p**alpha.

    Undefined at alpha == 0: the classical statement has no degenerate
    extension, so that regime is rejected rather than guessed at.
    """
    if n < 0:
        raise InvalidParameterError(f"n must be nonnegative, got {n}")
    if pm.alpha == 0:
        raise UnsupportedRegimeError("the floor bound needs alpha >= 1")
    return _weisman(pm.p, pm.alpha, n)


def _weisman(p: int, alpha: int, n: int) -> int:
    """Weisman's exponent floor((n - p**(alpha-1)) / phi(p**alpha)) for
    alpha >= 1 and any integer n: p to this power divides every plain
    alternating class sum of row n mod p**alpha (C. S. Weisman, Michigan
    Math. J. 24, 1977).  At n = p**(alpha-1) * n' it is Fleck's
    floor((n'-1)/(p-1))."""
    h = p ** (alpha - 1)
    return (n - h) // (h * (p - 1))
