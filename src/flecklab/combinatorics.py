"""Exact combinatorial machinery.

Polynomials are dense coefficient tuples over int/Fraction, normalized so
the zero polynomial is the empty tuple with degree NEG_INFINITY.  The
binomial coefficient is the generalized one: binomial(x, k) is the
polynomial x(x-1)...(x-k+1)/k! evaluated at any integer or rational x,
zero for k < 0.  Bernoulli polynomials use the B_1 = -1/2 normalization,
i.e. B_m(x) is the unique polynomial with B_m(x+1) - B_m(x) = m*x**(m-1)
and constant term equal to the m-th Bernoulli number.

Sweeps evaluate D_m * B_m(x) instead, an integer polynomial (cached, and
built once per m from bernoulli_polynomial): D_m is the lcm of the
denominators of the coefficients binomial(m, k) * B_k, each of which
divides the denominator of B_k.  By von Staudt-Clausen that denominator
is the product of the primes q with (q - 1) | k for even k >= 2 (2 for
B_1, 1 for B_0 and the odd k >= 3), so D_m is squarefree and divides the
product of the primes q <= m + 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InternalInvariantError, InvalidParameterError
from .padic import NEG_INFINITY, PrimePowerModulus, _int_order

__all__ = [
    "Polynomial",
    "bernoulli_number",
    "bernoulli_polynomial",
    "binomial",
    "binomial_inversion",
    "falling_factorial",
    "stirling2",
    "weighted_inverse_sequence",
]

# Term lists of this many (n, class, modulus) keys are kept; a sweep over a
# residue window revisits the same few hundred classes for every weight.  On
# a miss a class is sliced from its binomial row, so it holds the row's ints.
CLASS_TERMS_MEMO = 1 << 10
# Signed binomial rows of this many n are kept: every row a suite pass or a
# frontier pass reads (at most about 240, the longest n = 1500).
BINOMIAL_ROW_MEMO = 1 << 8


@lru_cache(maxsize=BINOMIAL_ROW_MEMO)
def _binomial_row(n: int) -> tuple[int, ...]:
    """The signed row (-1)**k * binomial(n, k) for k = 0 .. n (empty for
    n < 0).  Its first half comes from binomial(n, k+1) == binomial(n, k) *
    (n-k) / (k+1); the rest mirrors it, as (-1)**(n-k) = (-1)**n * (-1)**k."""
    if n < 0:
        return ()
    half, c = [1], 1
    for k in range(n // 2):
        c = c * (n - k) // (k + 1)
        half.append(c if k % 2 else -c)
    tail = half[: (n + 1) // 2][::-1]
    return tuple(half + ([-t for t in tail] if n % 2 else tail))


@lru_cache(maxsize=CLASS_TERMS_MEMO)
def _class_binomials(n: int, c: int, m: int) -> tuple[int, ...]:
    """The signed binomials (-1)**k * binomial(n, k) for k = c, c+m, ... <= n
    (c >= 0, m >= 1): the class c mod m of _binomial_row(n).

    This is the one class-sum kernel: every alternating sum over a residue
    class multiplies these terms by its weights.  Callers pass c = r % m; term
    i then has k = c + i*m, so its weight index (k - r) / m is i - r // m.
    """
    return _binomial_row(n)[c::m]


def binomial(x: "int | Fraction", k: int) -> "int | Fraction":
    """Generalized binomial coefficient: falling_factorial(x, k) / k!.

    Zero for k < 0.  Integer for integer x (also when x is negative, via
    binomial(-x+k-1, k) up to sign).
    """
    if k < 0:
        return 0
    if isinstance(x, int):
        if x >= 0:
            return math.comb(x, k) if k <= x else 0
        return (-1) ** k * math.comb(-x + k - 1, k)
    return Fraction(falling_factorial(x, k), math.factorial(k))


def falling_factorial(x: "int | Fraction", j: int) -> "int | Fraction":
    """x(x-1)...(x-j+1), with the empty product 1 at j == 0."""
    if j < 0:
        raise InvalidParameterError(f"falling factorial needs j >= 0, got {j}")
    out: "int | Fraction" = 1
    for i in range(j):
        out *= x - i
    return out


@lru_cache(maxsize=1 << 10)
def stirling2(l: int, j: int) -> int:
    """Stirling number of the second kind: partitions of l labels into j blocks.

    Built row by row from S(i, k) = k S(i-1, k) + S(i-1, k-1), keeping only
    the columns k <= j: O(l*j) steps and no recursion.  Values are cached,
    rows are not."""
    if l < 0 or j < 0:
        raise InvalidParameterError("Stirling numbers need nonnegative indices")
    if j > l:
        return 0
    row = [1] + [0] * j  # S(0, k) for k = 0 .. j
    for i in range(1, l + 1):
        for k in range(min(i, j), 0, -1):
            row[k] = k * row[k] + row[k - 1]
        row[0] = 0
    return row[j]


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    """k-th Bernoulli number with B_1 = -1/2, via the defining recurrence
    sum_{j<=k} binomial(k+1, j) * B_j == 0 for k >= 1."""
    if k < 0:
        raise InvalidParameterError(f"Bernoulli index must be nonnegative, got {k}")
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli_number(j)
    return -acc / (k + 1)


class Polynomial:
    """Dense polynomial over exact coefficients (int or Fraction).

    Immutable and hashable; trailing zero coefficients are trimmed so equal
    polynomials compare equal.  Evaluation at int/Fraction points is exact.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable["int | Fraction"] = ()):  # low degree first
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def monomial(cls, k: int, coeff: "int | Fraction" = 1) -> "Polynomial":
        if k < 0:
            raise InvalidParameterError(f"monomial degree must be >= 0, got {k}")
        return cls((0,) * k + (coeff,))

    @property
    def degree(self) -> "int | float":
        return len(self.coeffs) - 1 if self.coeffs else NEG_INFINITY

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def has_integer_coeffs(self) -> bool:
        return all(isinstance(c, int) or c.denominator == 1 for c in self.coeffs)

    def __call__(self, x: "int | Fraction") -> "int | Fraction":
        acc: "int | Fraction" = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


def bernoulli_polynomial(m: int) -> Polynomial:
    """B_m(x) = sum_k binomial(m, k) * B_k * x**(m-k)."""
    if m < 0:
        raise InvalidParameterError(f"Bernoulli index must be nonnegative, got {m}")
    coeffs = [Fraction(0)] * (m + 1)
    for k in range(m + 1):
        coeffs[m - k] = math.comb(m, k) * bernoulli_number(k)
    return Polynomial(coeffs)


@lru_cache(maxsize=None)
def _scaled_bernoulli(m: int) -> tuple[int, Polynomial]:
    """(D_m, D_m * B_m(x)): D_m is the lcm of the denominators of B_m's
    coefficients, so the scaled polynomial has integer coefficients.  Built
    from bernoulli_polynomial on first use."""
    coeffs = bernoulli_polynomial(m).coeffs
    d = math.lcm(*(c.denominator for c in coeffs))
    return d, Polynomial(c.numerator * (d // c.denominator) for c in coeffs)


def binomial_inversion(seq: Sequence["int | Fraction"]) -> list:
    """d_n = sum_k binomial(n, k) * (-1)**k * b_k; applying it twice is the
    identity, which makes it its own inverse transform."""
    out = []
    for n in range(len(seq)):
        acc = 0
        for t, b in zip(_class_binomials(n, 0, 1), seq):
            acc += t * b
        out.append(acc)
    return out


def weighted_inverse_sequence(
    pm: PrimePowerModulus, r: int, f: Polynomial, n_max: int
) -> list[Fraction]:
    """The p-integral sequence (a_n) realizing a prescribed weighted transform.

    With h = p**(alpha-1) and weights w_n = floor(n/h)! * binomial({r}_h +
    {n-r}_h, {r}_h), each a_n is fixed by

        w_n * a_n = sum_{k == r mod p**alpha} binomial(n, k) * (-1)**k
                    * p**deg(f) * f((k - r) / p**alpha),

    equivalently: feeding b_n = w_n * a_n through binomial_inversion returns
    p**deg(f) * f((n-r)/p**alpha) when p**alpha divides n - r and 0 otherwise.
    Every a_n is guaranteed p-integral; a negative order would contradict the
    order bound for these sums, so it raises InternalInvariantError.
    """
    if pm.alpha < 1:
        raise InvalidParameterError("the inverse sequence needs alpha >= 1")
    if f.is_zero:
        raise InvalidParameterError("f must be nonzero")
    if not f.has_integer_coeffs:
        raise InvalidParameterError("f must have integer coefficients")
    if n_max < 0:
        raise InvalidParameterError(f"n_max must be nonnegative, got {n_max}")
    return [Fraction(b, w) for b, w in _inverse_products(pm.p, pm.alpha, r, f, n_max)]


def _inverse_products(
    p: int, alpha: int, r: int, f: Polynomial, n_max: int
) -> list[tuple[int, int]]:
    """(w_n * a_n, w_n) for n = 0 .. n_max, both integers, for the sequence
    of weighted_inverse_sequence, whose checks the caller has made.  a_n is
    p-integral when ord_p(w_n * a_n) >= ord_p(w_n); InternalInvariantError
    otherwise."""
    m, h = p**alpha, p ** (alpha - 1)
    scale = p**f.degree
    rh = r % h
    out = []
    for n in range(n_max + 1):
        acc = 0
        j = -(r // m)
        for t in _class_binomials(n, r % m, m):
            acc += t * f(j)
            j += 1
        b = scale * acc
        w = math.factorial(n // h) * math.comb(rh + (n - r) % h, rh)
        if _int_order(p, b) < _int_order(p, w):
            raise InternalInvariantError(
                f"inverse sequence left p-integrality at n={n} (p={p}, alpha={alpha}, r={r})"
            )
        out.append((b, w))
    return out
