"""The integer value paths of the checks that read rationals, against the
Fraction bodies they replaced.

C1.1cor, L3.1, T1.4, L2.1, L2.5 and CONJ1.3 once built a Fraction for
every value and took its order.  The oracles below are those bodies, kept
here only; hypothesis holds each integer check to its oracle beyond the
default grids, under the real class-sum kernel and under two perturbed
ones that make the failure branches run.  A last test sweeps every
catalog id with each module's Fraction replaced by a counter.
"""

from __future__ import annotations

import contextlib
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flecklab import combinatorics
from flecklab.combinatorics import (
    Polynomial,
    _scaled_bernoulli,
    bernoulli_polynomial,
    binomial,
    binomial_inversion,
    weighted_inverse_sequence,
)
from flecklab.errors import InternalInvariantError
from flecklab.padic import (
    carries,
    factorial_order,
    padic_order,
    prime_power_modulus,
    scaled_floor,
    scaled_residue,
)
from flecklab.quantities import convolution_weight
from flecklab.statements import (
    SEARCHES,
    SKIP,
    STATEMENTS,
    _harmonic_orders,
    _prime_factors,
    check_harmonic_congruence,
)
from flecklab.sums import alt_sum_binom, alt_sum_power
from flecklab.verifier import _rows, _specs, run_statement, search_conjecture
from test_rows import _bumped, _class_binomials, _scaled

_ROUNDTRIP_N = 32

# ---------------------------------------------------------------------------
# the Fraction bodies
# ---------------------------------------------------------------------------


def c11cor_oracle(p, alpha, m, n, r):
    ma = prime_power_modulus(p, alpha).m
    if m < 1 or n < 1:
        return SKIP
    runs: dict[int, int] = {}
    for k, t in enumerate(combinatorics._class_binomials(n, 0, 1)):
        q = (k - r) // ma
        runs[q] = runs.get(q, 0) + t
    bp = bernoulli_polynomial(m)
    val = Fraction(p ** (m - 1), m) * sum(bp(q) * t for q, t in runs.items())
    bound = factorial_order(p, scaled_floor(n - 1, p, alpha - 1)) + carries(
        p, scaled_residue(r - 1, p, alpha - 1), scaled_residue(n - r, p, alpha - 1)
    )
    o = padic_order(p, val)
    return True if o >= bound else (f"order {o}", f">= {bound}")


def harmonic_orders_oracle(m, n, r):
    acc = Fraction(0)
    for k in range(n):
        acc += Fraction(1, k * m + r)
    diff = acc / n - Fraction(1, r) - (Fraction(m, 2) if n % 2 == 0 else 0)
    return [(q, padic_order(q, diff)) for q in _prime_factors(m)]


def harmonic_oracle(m, n, r):
    if m < 1 or n < 1 or math.gcd(m, r) != 1 or (m == 1 and r < 1):
        return SKIP
    for q, o in harmonic_orders_oracle(m, n, r):
        need = padic_order(q, m)
        if o < need:
            return (f"{q}-adic order {o} of the difference", f">= {need}")
    return True


def inverse_sequence_oracle(p, alpha, r, f, n_max):
    """weighted_inverse_sequence as it was: one Fraction per term, its
    p-integrality read from the Fraction."""
    m, h = p**alpha, p ** (alpha - 1)
    scale = p**f.degree
    rh = r % h
    out = []
    for n in range(n_max + 1):
        acc = 0
        j = -(r // m)
        for t in combinatorics._class_binomials(n, r % m, m):
            acc += t * f(j)
            j += 1
        mult = math.factorial(n // h) * math.comb(rh + (n - r) % h, rh)
        a = Fraction(scale * acc, mult)
        if padic_order(p, a) < 0:
            raise InternalInvariantError(
                f"inverse sequence left p-integrality at n={n} (p={p}, alpha={alpha}, r={r})"
            )
        out.append(a)
    return out


def t14_oracle(p, alpha, r, l):
    pm = prime_power_modulus(p, alpha)
    if alpha < 1 or l < 0:
        return SKIP
    f = Polynomial.monomial(l)
    try:
        seq = inverse_sequence_oracle(p, alpha, r, f, _ROUNDTRIP_N)
    except InternalInvariantError as exc:
        return (str(exc), "a p-integral sequence")
    h = p ** (alpha - 1)
    rh = r % h
    weighted = [
        math.factorial(k // h) * math.comb(rh + (k - r) % h, rh) * seq[k]
        for k in range(_ROUNDTRIP_N + 1)
    ]
    transform = binomial_inversion(weighted)
    for n in range(_ROUNDTRIP_N + 1):
        want = p**l * f((n - r) // pm.m) if (n - r) % pm.m == 0 else 0
        if transform[n] != want:
            return (f"transform value {transform[n]} at n={n}", f"{want}")
    return True


def l21_oracle(p, n, r, l):
    m = prime_power_modulus(p, 0).m
    if n < 0 or l < 0:
        return SKIP
    denom = math.factorial(p * n)
    direct = Fraction(math.factorial(l) * p**l * alt_sum_binom(n, r, m, l), denom)
    closed = Fraction(math.factorial(l) * p**l * (-1) ** n * binomial(-r, l - n), denom)
    if direct == closed and padic_order(p, direct) >= 0:
        return True
    return (f"direct value {direct}", f"closed form {closed}, p-integral")


def l25_oracle(p, alpha, n, j):
    prime_power_modulus(p, alpha)
    if alpha < 1 or not 0 <= j <= n:
        return SKIP
    o = padic_order(p, convolution_weight(p, alpha, n, j))
    return True if o >= 0 else (f"weight order {o}", ">= 0")


def _conj13_value(p, alpha, n, r, j):
    """CONJ1.3's exact S = alt_sum_power(n, r, p**alpha, l) at its weight
    degree l, and D = floor(n/p**alpha)! * binomial(n*, r*); None outside
    its hypothesis."""
    ma = prime_power_modulus(p, alpha).m
    if n < 2 * ma - 1 or j < 0:
        return None
    n0 = n // ma
    e = 0
    while p ** (alpha + e + 1) <= n:
        e += 1
    step = (p - 1) * p**e
    base = r // ma + (n - r) // ma
    l = n0 + (base - n0) % step + j * step
    r_star = r % ma
    n_star = r_star + (n - r) % ma
    return alt_sum_power(n, r, ma, l), math.factorial(n0) * math.comb(n_star, r_star)


def conj13_oracle(p, alpha, n, r, j):
    sd = _conj13_value(p, alpha, n, r, j)
    if sd is None:
        return SKIP
    v = Fraction(*sd)
    if padic_order(p, v - 1) >= 1 or padic_order(p, v + 1) >= 1:
        return True
    return (f"normalized value {v}", "congruent to +1 or -1 mod p")


def conj13_exact(p, alpha, n, r, j):
    """The integer body CONJ1.3 had before it read S mod a power of p: the
    orders of the exact S -+ D."""
    sd = _conj13_value(p, alpha, n, r, j)
    if sd is None:
        return SKIP
    s, d = sd
    od = padic_order(p, d)
    if padic_order(p, s - d) - od >= 1 or padic_order(p, s + d) - od >= 1:
        return True
    return (f"normalized value {Fraction(s, d)}", "congruent to +1 or -1 mod p")


# ---------------------------------------------------------------------------
# perturbed kernels (test_rows's _bumped and _scaled)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def kernel(fn):
    """fn as the class-sum kernel of every flecklab module that imported the
    real one (the real kernel itself when fn is None).  None of the checks
    here reads a cache built from the kernel."""
    mods = [
        mod
        for name, mod in list(sys.modules.items())
        if name.startswith("flecklab")
        and mod is not None
        and vars(mod).get("_class_binomials") is _class_binomials
    ]
    for mod in mods:
        mod._class_binomials = fn or _class_binomials
    try:
        yield
    finally:
        for mod in mods:
            mod._class_binomials = _class_binomials


KERNELS = hst.sampled_from([None, _bumped, _scaled])


def outcome(fn, *args):
    try:
        return fn(*args)
    except InternalInvariantError as exc:
        return ("raised", str(exc))


def assert_same(check, oracle, args, fn):
    with kernel(fn):
        assert outcome(check, *args) == outcome(oracle, *args), args


# ---------------------------------------------------------------------------
# each integer check against its oracle, beyond the default grids
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7)


@settings(max_examples=200)
@given(
    p=hst.sampled_from(PRIMES),
    alpha=hst.integers(0, 3),
    m=hst.integers(1, 12),
    n=hst.integers(1, 60),
    r=hst.integers(-20, 60),
    fn=KERNELS,
)
def test_c11cor_matches_its_oracle(p, alpha, m, n, r, fn):
    assert_same(STATEMENTS["C1.1cor"].check, c11cor_oracle, (p, alpha, m, n, r), fn)


@settings(max_examples=200)
@given(m=hst.integers(1, 30), n=hst.integers(1, 60), r=hst.integers(-90, 90))
def test_harmonic_orders_match_the_fraction_orders(m, n, r):
    if math.gcd(m, r) != 1 or (m == 1 and r < 1):
        assert check_harmonic_congruence(m, n, r) == SKIP
        return
    assert _harmonic_orders(m, n, r) == harmonic_orders_oracle(m, n, r)
    assert check_harmonic_congruence(m, n, r) == harmonic_oracle(m, n, r)


@settings(max_examples=200)
@given(
    p=hst.sampled_from((2, 3, 5)),
    alpha=hst.integers(0, 3),
    r=hst.integers(-12, 40),
    l=hst.integers(-1, 4),
    fn=KERNELS,
)
def test_t14_matches_its_oracle(p, alpha, r, l, fn):
    assert_same(STATEMENTS["T1.4"].check, t14_oracle, (p, alpha, r, l), fn)


@given(
    p=hst.sampled_from((2, 3, 5)),
    alpha=hst.integers(1, 3),
    r=hst.integers(-12, 40),
    coeffs=hst.lists(hst.integers(-3, 3), min_size=1, max_size=4).filter(lambda c: c[-1]),
    fn=KERNELS,
)
def test_weighted_inverse_sequence_returns_the_same_fractions(p, alpha, r, coeffs, fn):
    f = Polynomial(coeffs)
    pm = prime_power_modulus(p, alpha)
    with kernel(fn):
        got = outcome(weighted_inverse_sequence, pm, r, f, 20)
        assert got == outcome(inverse_sequence_oracle, p, alpha, r, f, 20)
    if isinstance(got, list):
        assert all(type(a) is Fraction for a in got)


@settings(max_examples=200)
@given(
    p=hst.sampled_from(PRIMES),
    n=hst.integers(-1, 80),
    r=hst.integers(-4, 4),
    l=hst.integers(-1, 12),
    fn=KERNELS,
)
def test_l21_matches_its_oracle(p, n, r, l, fn):
    assert_same(STATEMENTS["L2.1"].check, l21_oracle, (p, n, r, l), fn)


@settings(max_examples=200)
@given(alpha=hst.integers(0, 4), n=hst.integers(0, 2500), data=hst.data())
def test_l25_matches_its_oracle(alpha, n, data):
    # p = 7 and alpha = 4 lie beyond the default grid (p <= 5, alpha <= 3).
    j = data.draw(hst.integers(-2, n + 2))
    assert STATEMENTS["L2.5"].check(7, alpha, n, j) == l25_oracle(7, alpha, n, j)


@settings(max_examples=200)
@given(
    p=hst.sampled_from((2, 3, 5)),
    alpha=hst.integers(0, 2),
    n=hst.integers(0, 90),
    r=hst.integers(-30, 130),
    j=hst.integers(-1, 3),
    fn=KERNELS,
)
def test_conj13_matches_its_oracle(p, alpha, n, r, j, fn):
    # The statement, not its bare check: n >= 2 p**alpha - 1 is its
    # hypothesis on a row's prefix.
    assert_same(STATEMENTS["CONJ1.3"], conj13_oracle, (p, alpha, n, r, j), fn)


@pytest.mark.parametrize("fn", [None, _scaled], ids=["real", "scaled"])
def test_conj13_matches_its_exact_body_on_a_frontier_slice(fn):
    # p = 7 and n up to 120, where the weight degrees and the order of D
    # run as high as on the frontier grid, through the check and through
    # the row form.  The scaled kernel multiplies S by n + 1, which fails
    # every instance with n + 1 not +-1 mod 7, so the wording of a failure
    # is compared too.
    st = SEARCHES["CONJ1.3"]
    grid = {"p": (7,), "alpha": (0, 1, 2), "n": tuple(range(121))}
    with kernel(fn):
        got = [
            (prefix + (j,), res, st(*prefix, j), conj13_exact(*prefix, j))
            for prefix, js in _rows(st.axes, _specs(st, grid))
            for j, res in zip(js, st.check_row(prefix, js))
        ]
    assert len(got) > 5000
    assert all(row == one == exact for _, row, one, exact in got), next(
        g for g in got if not g[1] == g[2] == g[3]
    )
    failures = sum(isinstance(res, tuple) for _, res, _, _ in got)
    assert (failures == 0) == (fn is None)


def test_scaled_bernoulli_is_the_integer_multiple():
    for m in range(16):
        d, scaled = _scaled_bernoulli(m)
        coeffs = bernoulli_polynomial(m).coeffs
        assert d == math.lcm(*(c.denominator for c in coeffs))
        assert scaled.coeffs == tuple(d * c for c in coeffs)
        assert all(type(c) is int for c in scaled.coeffs)
        # von Staudt-Clausen: squarefree, with primes q <= m + 1 only.
        assert all(d % (q * q) and q <= m + 1 for q in _prime_factors(d))


# ---------------------------------------------------------------------------
# no Fraction in any value path
# ---------------------------------------------------------------------------


def _slice(st) -> dict:
    """About three values of each fixed axis of st's default grid, spread
    over its range; derived axes keep their derivation."""
    return {
        axis: values[:: max(1, len(values) // 3)]
        for axis, values in st.defaults.items()
        if isinstance(values, tuple)
    }


class _Counted(Fraction):
    made: list = []

    def __new__(cls, *args, **kwargs):
        _Counted.made.append(args)
        return Fraction(*args, **kwargs)


@pytest.mark.parametrize("sid", [*STATEMENTS, *(s for s in SEARCHES if s not in STATEMENTS)])
def test_no_sweep_builds_a_fraction(monkeypatch, sid):
    st = STATEMENTS.get(sid) or SEARCHES[sid]
    grid = _slice(st)
    for m in grid.get("m", ()) if sid == "C1.1cor" else ():
        _scaled_bernoulli(m)  # the Bernoulli caches are built from Fractions once
    for name, mod in list(sys.modules.items()):
        if name.startswith("flecklab") and mod is not None and "Fraction" in vars(mod):
            monkeypatch.setattr(mod, "Fraction", _Counted)
    monkeypatch.setattr(_Counted, "made", [])
    sweep = run_statement if sid in STATEMENTS else search_conjecture
    report = sweep(sid, grid)
    assert report.checked > 0
    assert _Counted.made == []
