"""Row forms against the per-instance checks they stand for.

Statement.check_row must return exactly [st(*prefix, v) for v in values],
for any prefix and any values of the last axis, out-of-hypothesis ones
included: a row outside the entry's hypothesis is all SKIP before its
check or row form runs, and a row form either computes a row inside it or
hands it back (None, for sparsity alone) to be checked once per value.
excluded() below states each hypothesis again, independently of the
catalog.  Every row of the default grids inside the hypothesis is served
by its row form, so a row form that hands them back shows here and not
only as lost speed.  No default grid fails, so the report digests never
see a failure string; the perturbed-kernel cases make the failure
branches run and hold row and check to the same (observed, expected)
strings, and to the same InternalInvariantError where a perturbed sum
breaks one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import sys
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from flecklab import combinatorics, padic, quantities, statements, sums
from flecklab.errors import InternalInvariantError
from flecklab.statements import _ROW_FORMS, SEARCHES, SKIP, STATEMENTS
from flecklab.verifier import _rows, _specs, iter_instances, run_statement, search_conjecture

ROW_IDS = (
    "T1.1", "T1.2", "T1.3", "L2.2", "T2.1", "T3.1", "CONJ3.1", "T1.5", "CONJ1.1", "T1.5-alpha1",
    "CONJ1.2", "CONJ1.3",
)  # fmt: skip
CATALOG = {**STATEMENTS, **SEARCHES}
# Main-grid ids whose last axis is the weight degree l; the others end in r.
L_LAST = ("T1.1", "T1.2", "T1.3")
# Fleck level reductions: (p, alpha, n) prefixes, last axis r.
FLECK = ("T3.1", "CONJ3.1")
# Two levels of normalized sums: (p, alpha, l, n) prefixes, (p, l, n) for
# T1.5-alpha1, last axis r.
LIFTS = ("T1.5", "CONJ1.1", "T1.5-alpha1")
PRIMES = (2, 3, 5, 7)


def per_instance(st, prefix, values) -> list:
    return [st(*prefix, v) for v in values]


def outcome(fn):
    """fn's results, or the message of the InternalInvariantError it raised."""
    try:
        return fn()
    except InternalInvariantError as exc:
        return ("raised", str(exc))


def excluded(sid: str, prefix: tuple, v: int) -> bool:
    """Out of the statement's hypothesis: a negative n or l, a negative r
    for T1.3, n = 0 or alpha = 0 for L2.2 (its recurrences read the sums at
    n - 1 and divide by p**(alpha-1)), alpha < 2 for T3.1, CONJ3.1 and
    T1.5, for CONJ1.2 a negative n or a digit s outside 0 .. p-1, and for
    CONJ1.3 n < 2 p**alpha - 1 or a negative j."""
    q = dict(zip(CATALOG[sid].axes, prefix + (v,)))
    if sid == "CONJ1.2":
        return q["n"] < 0 or not 0 <= q["s"] < q["p"]
    if sid == "CONJ1.3":
        return q["n"] < 2 * q["p"] ** q["alpha"] - 1 or q["j"] < 0
    if sid in FLECK:
        return q["n"] < 0 or q["alpha"] < 2
    low_alpha = q.get("alpha", 1) < {"T1.5": 2, "L2.2": 1}.get(sid, 0)
    low_r = sid == "T1.3" and q["r"] < 0
    return q["n"] < (1 if sid == "L2.2" else 0) or q["l"] < 0 or low_alpha or low_r


def test_row_forms_are_the_main_grid_ids():
    with_rows = {sid for sid, st in CATALOG.items() if st.check in _ROW_FORMS}
    assert with_rows == set(ROW_IDS)
    assert {sid for sid, st in CATALOG.items() if st.hypothesis} == set(ROW_IDS)


def test_a_swapped_check_runs_per_instance():
    # A row form belongs to the check it was written for: an entry whose
    # check is replaced by a wrapped copy runs that copy once per value.
    st = STATEMENTS["T1.1"]
    calls = []

    def wrapped(*args):
        calls.append(args)
        return st.check(*args)

    prefix, ls = (3, 2, 10, 4), list(range(9))
    swapped = dataclasses.replace(st, check=wrapped)
    assert swapped.check_row(prefix, ls) == st.check_row(prefix, ls)
    assert calls == [prefix + (l,) for l in ls]


@hst.composite
def l_last_rows(draw):
    """(p, alpha, n, r) and a list of weight degrees l: scattered, a
    contiguous run such as the default 0..8, or a sparse pair that the row
    forms check one instance at a time."""
    prefix = (
        draw(hst.sampled_from(PRIMES)),
        draw(hst.integers(0, 3)),
        draw(hst.integers(-2, 70)),
        draw(hst.integers(-60, 80)),
    )
    ls = draw(
        hst.one_of(
            hst.lists(hst.integers(-2, 12), min_size=1, max_size=10),
            hst.integers(-2, 4).map(lambda lo: list(range(lo, lo + 9))),
            hst.tuples(hst.integers(-2, 2), hst.integers(13, 40)).map(list),
        )
    )
    return prefix, ls


@hst.composite
def r_last_rows(draw):
    """(p, alpha, l, n) and a list of residues r: a scattered list, or a
    contiguous window such as the default -m .. 2m-1."""
    p, alpha = draw(hst.sampled_from(PRIMES[:3])), draw(hst.integers(0, 3))
    prefix = (p, alpha, draw(hst.integers(-2, 10)), draw(hst.integers(-2, 70)))
    m = p**alpha
    rs = draw(
        hst.one_of(
            hst.lists(hst.integers(-3 * m - 2, 3 * m + 2), min_size=1, max_size=12),
            hst.integers(-2 * m, m).map(lambda lo: list(range(lo, lo + 3 * m))),
        )
    )
    return prefix, rs


@hst.composite
def fleck_rows(draw):
    """(p, alpha, n) and a list of residues r: scattered, or a contiguous
    window such as T3.1's -2 .. m-1."""
    p, alpha = draw(hst.sampled_from(PRIMES)), draw(hst.integers(0, 4))
    prefix = (p, alpha, draw(hst.integers(-2, 30)))
    m = p**alpha
    rs = draw(
        hst.one_of(
            hst.lists(hst.integers(-2 * m - 2, 2 * m + 2), min_size=1, max_size=12),
            hst.integers(-2, 2).map(lambda lo: list(range(lo, lo + min(m, 40)))),
        )
    )
    return prefix, rs


@hst.composite
def lift_rows(draw, sid):
    """A prefix of sid, with alpha from 0 and n, l from -2, and a list of
    residues r: scattered and unordered, with repeated values of r // p, or
    a contiguous window such as the default one."""
    p = draw(hst.sampled_from(PRIMES))
    alpha = 1 if sid == "T1.5-alpha1" else draw(hst.integers(0, 3 if sid == "T1.5" else 2))
    l = draw(hst.integers(-2, 5))
    n = draw(hst.integers(-2, 40 if sid == "T1.5" else 30))
    # T1.5 reads level alpha + 1 at r, CONJ1.1 level alpha at r.
    m = p ** (alpha + (sid != "CONJ1.1"))
    rs = draw(
        hst.one_of(
            hst.lists(hst.integers(-m - 3, 2 * m + 3), min_size=1, max_size=12),
            hst.integers(-3, 1).map(lambda lo: list(range(lo, lo + min(m, n + p + 2) + 2))),
        )
    )
    prefix = (p, l, n) if sid == "T1.5-alpha1" else (p, alpha, l, n)
    return prefix, rs


@hst.composite
def unit_value_rows(draw):
    """(p, alpha, n, r) with n from just below CONJ1.3's hypothesis and r
    from below 0 to past p**alpha, and a list of j: scattered, unordered and
    repeated, negative ones among them, or the default 0, 1, 2."""
    p, alpha = draw(hst.sampled_from(PRIMES)), draw(hst.integers(0, 2))
    m = p**alpha
    n, r = draw(hst.integers(2 * m - 4, 2 * m + 60)), draw(hst.integers(-m - 3, 2 * m + 3))
    js = draw(
        hst.one_of(
            hst.lists(hst.integers(-2, 6), min_size=1, max_size=8),
            hst.just([0, 1, 2]),
        )
    )
    return (p, alpha, n, r), js


@hst.composite
def digit_rows(draw):
    """(p, n) with n from -2, and a list of digits s: scattered, unordered
    and repeated, some outside 0 .. p-1, or the default 0 .. p-1."""
    p = draw(hst.sampled_from(PRIMES))
    ss = draw(
        hst.one_of(
            hst.lists(hst.integers(-2, p + 1), min_size=1, max_size=10),
            hst.just(list(range(p))),
        )
    )
    return (p, draw(hst.integers(-2, 60))), ss


def draw_row(sid, data):
    if sid == "CONJ1.2":
        return data.draw(digit_rows())
    if sid == "CONJ1.3":
        return data.draw(unit_value_rows())
    if sid in L_LAST:
        return data.draw(l_last_rows())
    if sid in LIFTS:
        return data.draw(lift_rows(sid))
    return data.draw(fleck_rows() if sid in FLECK else r_last_rows())


@pytest.mark.parametrize("sid", ROW_IDS)
@given(data=hst.data())
def test_row_form_equals_its_checks(sid, data):
    st = CATALOG[sid]
    prefix, values = draw_row(sid, data)
    got = st.check_row(prefix, values)
    assert got == per_instance(st, prefix, values)
    for v, res in zip(values, got):
        if excluded(sid, prefix, v):
            assert res == SKIP, (prefix, v)


@pytest.mark.parametrize("sid", ROW_IDS)
@given(data=hst.data())
def test_hypothesis_is_the_prefix_part_of_excluded(sid, data):
    prefix, _ = draw_row(sid, data)
    # A last-axis value of 0 (a weight degree, or a residue) excludes nothing.
    assert CATALOG[sid].hypothesis(*prefix) == (not excluded(sid, prefix, 0))


def _sum_residue(p, alpha, n, r, l, d, od, s):
    """In place of CONJ1.3's verdict: the weight degree and the residue of
    the power sum it would decide."""
    return l, s % p ** (od + 1)


def _skewed(n, c, m):
    """The kernel with i added to term i: where CONJ1.3 holds, S mod
    p**(ord_p(D) + 1) is +-D at every j, so a sum read at the wrong j shows
    only once the terms are perturbed."""
    return tuple(t + i for i, t in enumerate(_class_binomials(n, c, m)))


@given(row=unit_value_rows())
def test_conj13_row_reads_the_sums_of_its_check(row):
    # The row form is held to the residue of each power sum its check reads.
    prefix, js = row
    st = SEARCHES["CONJ1.3"]
    with mock.patch.object(statements, "_conj13_verdict", _sum_residue), mock.patch.object(
        statements, "_class_binomials", _skewed
    ):
        assert st.check_row(prefix, js) == per_instance(st, prefix, js)


OUTSIDE = [
    # n < 0, and r < 0 for T1.3
    *[(sid, (3, 2, -1, 4), list(range(9))) for sid in L_LAST],
    ("T1.3", (3, 2, 10, -1), list(range(9))),
    # n < 1, l < 0 or alpha < 1
    *[
        ("L2.2", prefix, list(range(-4, 8)))
        for prefix in ((2, 1, 0, 0), (3, 2, 1, -1), (2, 2, -1, 4), (2, 0, 1, 3))
    ],
    # n or l < 0
    ("T2.1", (3, 1, 2, -1), list(range(-3, 6))),
    ("T2.1", (3, 1, -1, 10), list(range(-3, 6))),
    # alpha < 2 and n < 0
    *[(sid, prefix, list(range(-2, 9))) for sid in FLECK for prefix in ((3, 1, 4), (3, 2, -1))],
    # n or l < 0, and alpha < 2 for T1.5
    *[
        (sid, (3, *alpha, *ln), list(range(-2, 9)))
        for sid, alpha in (("T1.5", (2,)), ("CONJ1.1", (2,)), ("T1.5-alpha1", ()))
        for ln in ((2, -1), (-1, 4))
    ],
    *[("T1.5", (3, alpha, 2, 4), list(range(-2, 9))) for alpha in (0, 1)],
    # n < 0, and s outside 0 .. p-1
    *[("CONJ1.2", (p, -1), [-1, 0, p - 1, p]) for p in (2, 5)],
    # n < 2 p**alpha - 1, and j < 0
    *[("CONJ1.3", prefix, [2, -1, 0, 1]) for prefix in ((3, 2, 16, 0), (2, 1, 2, 5), (7, 0, 0, 0))],
]


@pytest.mark.parametrize("sid, prefix, values", OUTSIDE)
def test_rows_outside_the_hypothesis_skip_before_any_check(monkeypatch, sid, prefix, values):
    assert all(excluded(sid, prefix, v) for v in values)
    calls = []

    def check(*args):
        calls.append(args)
        return True

    def row(*args):
        calls.append(args)
        return [True] * len(args[-1])

    # The entry with its check swapped for a spy that has a row form too.
    monkeypatch.setitem(_ROW_FORMS, check, row)
    spied = dataclasses.replace(CATALOG[sid], check=check)
    assert spied.check_row(prefix, values) == [SKIP] * len(values)
    assert [spied(*prefix, v) for v in values] == [SKIP] * len(values)
    assert calls == []


# Slices of the default grids: every axis the slice leaves out keeps its
# default values, derived windows included.
DEFAULT_SLICES = {
    "T1.1": {"p": (2, 5), "n": (0, 1, 9, 64)},
    "T1.2": {"p": (2, 5), "n": (0, 1, 9, 64)},
    "T1.3": {"p": (2, 5), "n": (0, 1, 9, 64)},
    "L2.2": {"p": (2, 5), "l": (0, 1, 8), "n": (1, 2, 64)},
    "T2.1": {"p": (2, 5), "l": (0, 1, 8), "n": (0, 1, 64)},
    "T3.1": {"n": (0, 1, 16)},
    "CONJ3.1": {"n": (0, 1, 16)},
    "T1.5": {"p": (2, 5), "n": (0, 1, 7, 30)},
    "CONJ1.1": {"l": (0, 1, 5), "n": (0, 1, 24)},
    "T1.5-alpha1": {"l": (0, 1, 4), "n": (0, 1, 7, 30)},
    "CONJ1.2": {"n": (0, 1, 2, 3, 20)},
    "CONJ1.3": {"p": (2, 3), "alpha": (1, 2)},
}


@pytest.mark.parametrize("sid", ROW_IDS)
def test_default_rows_are_served_by_their_row_forms(sid):
    st = CATALOG[sid]
    row = _ROW_FORMS[st.check]
    rows = [r for r in _rows(st.axes, _specs(st, DEFAULT_SLICES[sid])) if st.hypothesis(*r[0])]
    assert rows
    for prefix, values in rows:
        assert row(*prefix, values) is not None, prefix


# A row form hands back only rows too sparse to share anything.
HANDED_BACK = [
    # sparse weight degrees, and a negative degree
    *[(sid, (3, 2, 10, 4), ls) for sid in L_LAST for ls in ([0, 20], [-1, 0, 1], [3, 1, -2])],
    # a window sparser than its row
    ("L2.2", (3, 1, 2, 10), [-3, 0, 9]),
]


@pytest.mark.parametrize("sid, prefix, values", HANDED_BACK)
def test_rows_outside_a_row_form_are_handed_back(sid, prefix, values):
    st = CATALOG[sid]
    assert _ROW_FORMS[st.check](*prefix, values) is None
    assert st.check_row(prefix, values) == per_instance(st, prefix, values)


# T2.1 reads the normalized sums at its row's residues as given: scattered,
# unordered or repeated residues are one row, served by the row form.
T21_SERVED = [[0, 2, 3], [2, 1, 0], [7, -3, 0, 2], [4, 4, -9]]


@pytest.mark.parametrize("values", T21_SERVED)
def test_t21_serves_any_residues(values):
    st = STATEMENTS["T2.1"]
    prefix = (3, 1, 2, 10)
    assert _ROW_FORMS[st.check](*prefix, values) is not None
    assert st.check_row(prefix, values) == per_instance(st, prefix, values)


def test_t21_reads_past_the_window_cache():
    before = quantities._norm_sum_window.cache_info()
    _swept(STATEMENTS["T2.1"], DEFAULT_SLICES["T2.1"])
    assert quantities._norm_sum_window.cache_info() == before


# The Lucas-reduction and lift row forms read their residues as given too;
# T1.5's and T1.5-alpha1's read each right sum once, at each distinct r // p.
LIFT_PREFIXES = {"T1.5": (3, 2, 1, 10), "CONJ1.1": (3, 1, 1, 10), "T1.5-alpha1": (3, 1, 10)}
LIFT_SERVED = [
    (sid, prefix, values)
    for sid, prefix in LIFT_PREFIXES.items()
    for values in ([0, 2, 3], [5, 1, 4, 0], [7, -3, 8, 2, 6], [4, 4, -9, 3])
]


@pytest.mark.parametrize("sid, prefix, values", LIFT_SERVED)
def test_lifts_serve_any_residues(sid, prefix, values):
    st = CATALOG[sid]
    assert _ROW_FORMS[st.check](*prefix, values) is not None
    assert st.check_row(prefix, values) == per_instance(st, prefix, values)


def test_lift_sweeps_keep_no_normalized_sum():
    # Their row forms read every sum past both caches: a sweep that fell
    # back to the per-instance checks would fill _norm_sum_value's memo.
    quantities._norm_sum_value.cache_clear()
    window = quantities._norm_sum_window.cache_info()
    reports = [
        run_statement("T1.5", DEFAULT_SLICES["T1.5"]),
        search_conjecture("CONJ1.1", DEFAULT_SLICES["CONJ1.1"]),
        search_conjecture("T1.5-alpha1", DEFAULT_SLICES["T1.5-alpha1"]),
    ]
    assert all(report.passed and report.checked for report in reports)
    assert quantities._norm_sum_value.cache_info().currsize == 0
    assert quantities._norm_sum_window.cache_info() == window


# A value whose residue class is empty (r mod m > n) sums to 0, of order
# INFINITY: the row forms pass it without its bound, carry count or verdict.
EMPTY_CLASS_CALLS = [
    ("L2.2", (5, 3, 2, 10), range(-125, 250), statements, "_l22_verdict", 33),
    ("L2.2", (5, 3, 2, 10), range(-125, 250), quantities, "_class_binomials", 168),
    ("T2.1", (5, 3, 2, 10), range(-125, 250), statements, "_carries", 11),
    ("T2.1", (5, 3, 2, 10), range(-125, 250), quantities, "_class_binomials", 33),
    *[(sid, (5, 3, 10, 50), range(9), statements, "_bound_terms", 0) for sid in L_LAST],
]


@pytest.mark.parametrize(
    "sid, prefix, values, mod, name, calls",
    EMPTY_CLASS_CALLS,
    ids=[f"{c[0]}-{c[4]}" for c in EMPTY_CLASS_CALLS],
)
def test_empty_classes_pass_unevaluated(monkeypatch, sid, prefix, values, mod, name, calls):
    st = STATEMENTS[sid]
    real, seen = getattr(mod, name), []

    def counted(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(mod, name, counted)
    quantities._norm_sum_window.cache_clear()
    got = st.check_row(prefix, list(values))
    assert len(seen) == calls
    monkeypatch.undo()
    assert got == per_instance(st, prefix, values)


def test_l22_computes_each_window_once(monkeypatch):
    # The cache serves L2.2: of the windows its rows read, each distinct
    # one is computed once and every repeat is a hit.
    window = quantities._norm_sum_window
    reads = []

    def recorded(*key):
        reads.append(key)
        return window(*key)

    monkeypatch.setattr(statements, "_norm_sum_window", recorded)
    window.cache_clear()
    _swept(STATEMENTS["L2.2"], {"p": (2, 3), "alpha": (1, 2), "n": tuple(range(1, 20))})
    info = window.cache_info()
    assert info.misses == len(set(reads))
    assert info.hits == len(reads) - info.misses > 0


# ---------------------------------------------------------------------------
# failure branches, through a perturbed class-sum kernel
# ---------------------------------------------------------------------------

_class_binomials = combinatorics._class_binomials
_class_sums = sums._class_sums
_class_residues = sums._class_residues


def _bumped(n, c, m):
    """The kernel with 1 added to its first term: sums lose their order,
    and Fleck sums that divide out a power of p are no longer integers."""
    terms = list(_class_binomials(n, c, m))
    return tuple([terms[0] + 1, *terms[1:]]) if terms else ()


def _bumped_fold(n, m):
    """_bumped on every class of the row: each class with a term, c <= n."""
    out = _class_sums(n, m)
    for c in range(min(m, n + 1)):
        out[c] += 1
    return out


def _scaled(n, c, m):
    """The kernel times n + 1: orders only rise, so every normalized sum
    stays p-integral, but the contiguous recurrences between n - 1 and n
    break, and so do the congruences between two levels' Fleck sums."""
    return tuple((n + 1) * t for t in _class_binomials(n, c, m))


def _scaled_fold(n, m):
    return [(n + 1) * s for s in _class_sums(n, m)]


def _clear_caches():
    for name, mod in list(sys.modules.items()):
        if name.startswith("flecklab") and mod is not None:
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == name:
                    obj.cache_clear()


def _residues_of(fold):
    """The residue fold that reduces fold's exact sums mod p**k."""

    def residues(n, m, p, k):
        return [s % p**k for s in fold(n, m)]

    return residues


@pytest.fixture
def kernel(monkeypatch):
    """Install a perturbed class-sum kernel, and the same perturbation of the
    row fold if one is given, in every flecklab module that imported the
    real ones, with every cache cleared before and after.  A perturbed fold
    is installed as the residue fold too, reduced mod p**k."""

    def install(fn, fold=_class_sums):
        _clear_caches()
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("flecklab"):
                continue
            if vars(mod).get("_class_binomials") is _class_binomials:
                monkeypatch.setattr(mod, "_class_binomials", fn)
            if vars(mod).get("_class_sums") is _class_sums:
                monkeypatch.setattr(mod, "_class_sums", fold)
            if fold is not _class_sums and vars(mod).get("_class_residues") is _class_residues:
                monkeypatch.setattr(mod, "_class_residues", _residues_of(fold))

    yield install
    monkeypatch.undo()
    _clear_caches()


def _perturbed_rows(sid):
    if sid in FLECK:
        for p in (3, 5) if sid == "CONJ3.1" else (2, 3):
            for alpha in (2, 3, 4):
                for n in range(8):
                    yield (p, alpha, n), list(range(-2, min(p**alpha, 12)))
        return
    if sid in L_LAST:
        for p in (2, 3):
            for alpha in (1, 2):
                for n in (5, 9, 12):
                    for r in (-1, 0, 1, 3, 6):
                        yield (p, alpha, n, r), list(range(-1, 7))
                        yield (p, alpha, n, r), list(range(8))
                        yield (p, alpha, n, r), [-1, 6]
        return
    for p in (2, 3):
        for alpha in (0, 1, 2) if sid == "T2.1" else (1, 2):
            m = p**alpha
            for l in (0, 1, 2):
                for n in (1, 4, 7, 10):
                    yield (p, alpha, l, n), list(range(-m, 2 * m))


PERTURBED = [
    ("T1.1", _bumped, ["degree bound"]),
    ("T1.2", _bumped, ["order"]),
    ("T1.3", _bumped, ["coefficient order"]),
    ("T2.1", _bumped, ["order"]),
    ("L2.2", _scaled, ["first recurrence", "second recurrence"]),
]


@pytest.mark.parametrize("sid, fn, branches", PERTURBED, ids=[c[0] for c in PERTURBED])
def test_perturbed_kernel_fails_alike_in_row_and_check(kernel, sid, fn, branches):
    kernel(fn)
    st = STATEMENTS[sid]
    seen = []
    for prefix, values in _perturbed_rows(sid):
        got = outcome(lambda: st.check_row(prefix, values))
        assert got == outcome(lambda: per_instance(st, prefix, values)), prefix
        if isinstance(got, list):
            seen.extend(" ".join(res) for res in got if isinstance(res, tuple))
    # Each failure branch ran at least once.
    for branch in branches:
        assert any(branch in text for text in seen), branch


# The Fleck row forms read their sums from the row fold, the checks from
# the kernel: both are perturbed alike.  A perturbed Fleck sum that is no
# longer an integer raises.  A row form reads its whole row before any
# verdict, so it need not raise where its first raising check would: that
# row and check raise the same error here is checked, not given by
# construction.
NOT_INTEGER = "Weisman-normalized sum is not an integer"
FOLD_PERTURBED = [
    ("T3.1", _bumped, _bumped_fold, ["order 0", NOT_INTEGER]),
    ("T3.1", _scaled, _scaled_fold, ["difference order"]),
    ("CONJ3.1", _bumped, _bumped_fold, [NOT_INTEGER]),
    ("CONJ3.1", _scaled, _scaled_fold, ["difference order"]),
]


@pytest.mark.parametrize(
    "sid, fn, fold, branches",
    FOLD_PERTURBED,
    ids=[f"{c[0]}-{c[1].__name__.strip('_')}" for c in FOLD_PERTURBED],
)
def test_perturbed_fold_fails_alike_in_row_and_check(kernel, sid, fn, fold, branches):
    kernel(fn, fold)
    st = STATEMENTS[sid]
    seen = []
    for prefix, values in _perturbed_rows(sid):
        got = outcome(lambda: st.check_row(prefix, values))
        assert got == outcome(lambda: per_instance(st, prefix, values)), prefix
        if isinstance(got, list):
            seen.extend(" ".join(res) for res in got if isinstance(res, tuple))
        else:
            seen.append(got[1])
    # Each failure branch ran at least once.
    for branch in branches:
        assert any(branch in text for text in seen), branch


def _norm_difference_order(p, x, c, y):
    """ord_p(x - c*y) for normalized sums x and y in integer form: the order
    the lift verdicts read before they decided by divisibility."""
    (a, fa, oa), (b, fb, ob) = x, y
    return padic.padic_order(p, a * fb - c * b * fa) - oa - ob


@hst.composite
def normalized_pairs(draw):
    """p, x and y in integer form (num, d!, ord_p(d!)) and c, with x - c*y
    zero (y = x and c = 1, or both numerators 0) two times in three."""
    p = draw(hst.sampled_from(PRIMES))

    def normalized(num):
        d = draw(hst.integers(0, 14))
        return num, math.factorial(d), padic._factorial_order(p, d)

    def numerator():
        return draw(hst.integers(-(10**6), 10**6)) * p ** draw(hst.integers(0, 8))

    x = normalized(numerator())
    kind = draw(hst.sampled_from(["same", "zeros", "any"]))
    if kind == "same":
        return p, x, 1, x
    if kind == "zeros":
        return p, normalized(0), draw(hst.integers(-3, 3)), normalized(0)
    return p, x, draw(hst.integers(-3, 3)), normalized(numerator())


@given(pair=normalized_pairs(), need=hst.integers(0, 6))
def test_difference_verdict_is_the_order_verdict(pair, need):
    p, x, c, y = pair
    want = statements._at_least(_norm_difference_order(p, x, c, y), need, "difference order")
    assert statements._difference_verdict(p, x, c, y, need) == want


# The Lucas-reduction and lift checks read normalized sums at two levels.
# A perturbed sum that is not p-integral raises at the first r whose check
# reads it.  The row forms read each level's whole row at once, so that row
# and check raise the same error, on scattered rows too, is checked here,
# not given by the order of their reads.
NOT_P_INTEGRAL = "normalized sum is not p-integral"
LIFT_PERTURBED = [
    ("T1.5", _bumped, ["difference order 0 >= 1", NOT_P_INTEGRAL]),
    ("T1.5", _scaled, ["difference order 0 >= 1"]),
    ("CONJ1.1", _bumped, ["difference order 1 >= 3", NOT_P_INTEGRAL]),
    ("CONJ1.1", _scaled, ["difference order 2 >= 3", "difference order 1 >= 2"]),
    ("T1.5-alpha1", _bumped, ["difference order 0 >= 1", NOT_P_INTEGRAL]),
    ("T1.5-alpha1", _scaled, ["difference order 0 >= 1"]),
]


def _lift_rows(sid):
    for p in (2, 3, 5):
        for alpha in {"T1.5": (2, 3), "CONJ1.1": (1, 2), "T1.5-alpha1": (1,)}[sid]:
            m = p ** (alpha + (sid != "CONJ1.1"))
            for l in (0, 1, 2):
                for n in (1, 4, 7, 10):
                    prefix = (p, l, n) if sid == "T1.5-alpha1" else (p, alpha, l, n)
                    window = list(range(-2, min(m, n + p + 2)))
                    yield prefix, window
                    yield prefix, window[::-3] + window[1::3]


@pytest.mark.parametrize(
    "sid, fn, branches",
    LIFT_PERTURBED,
    ids=[f"{c[0]}-{c[1].__name__.strip('_')}" for c in LIFT_PERTURBED],
)
def test_perturbed_lifts_fail_alike_in_row_and_check(kernel, sid, fn, branches):
    kernel(fn)
    st = CATALOG[sid]
    seen = []
    for prefix, values in _lift_rows(sid):
        got = outcome(lambda: st.check_row(prefix, values))
        assert got == outcome(lambda: per_instance(st, prefix, values)), (prefix, values)
        if isinstance(got, list):
            seen.extend(" ".join(res) for res in got if isinstance(res, tuple))
        else:
            seen.append(got[1])
    # Each failure branch ran at least once.
    for branch in branches:
        assert any(branch in text for text in seen), branch


# What a user sees of such an error is the sweep's: the verifier runs the
# raising row again one check at a time and names the first instance that
# raises, at any job count.  One lift row and one Fleck row, each a one-row
# grid with its residues out of order.
NAMED_IN_A_ROW = [
    (
        "T1.5", _bumped, _class_sums,
        {"p": (2,), "alpha": (2,), "l": (0,), "n": (8,), "r": (5, -2, 3)},
        "T1.5 at {'p': 2, 'alpha': 2, 'l': 0, 'n': 8, 'r': 5}: "
        "normalized sum is not p-integral at (p=2, alpha=3, l=0, n=8, r=5)",
    ),
    (
        "T3.1", _bumped, _bumped_fold,
        {"p": (3,), "alpha": (2,), "n": (5,), "r": (4, 0, -2)},
        "T3.1 at {'p': 3, 'alpha': 2, 'n': 5, 'r': 4}: "
        "Weisman-normalized sum is not an integer at (p=3, alpha=2, N=15, r=4)",
    ),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("sid, fn, fold, grid, message", NAMED_IN_A_ROW, ids=["T1.5", "T3.1"])
def test_perturbed_row_errors_are_named_in_a_sweep(kernel, sid, fn, fold, grid, message, jobs):
    kernel(fn, fold)
    st = STATEMENTS[sid]
    prefix, values = next(_rows(st.axes, _specs(st, grid)))
    assert outcome(lambda: st.check_row(prefix, values))[0] == "raised"
    with pytest.raises(InternalInvariantError) as info:
        run_statement(sid, grid, jobs=jobs)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Weisman normalization, through a perturbed class-sum kernel
# ---------------------------------------------------------------------------
#
# T1.7, CONJ1.2 and the Fleck sums divide plain class sums by Weisman's
# power of p.  These perturbations scale every class sum by an integer, or
# bump sums that are not divided (Fleck sums at n <= 2 for p >= 3), so the
# division stays exact and each check fails through its own branches.  Their
# failures are pinned by count and by a digest of every (instance, result)
# pair in sweep order.  C3.1cor stands for the Fleck checks that have no row
# form.


def _prime_of(m):
    d = 2
    while m % d:
        d += 1
    return d


def _class_scaled_fold(n, m):
    """Class c's sum times c + 1: at level p**2 the scale of class p*r + t
    is t + 1 mod p, so the residues of one t stay constant in r but no
    longer run over 1 .. p-1."""
    return [(c + 1) * s for c, s in enumerate(_class_sums(n, m))]


def _quotient_scaled_fold(n, m):
    """Class c's sum times 1 + floor(c/p), p the prime of m: level p is
    untouched, and at level p**2 the residues of one t vary with r."""
    p = _prime_of(m)
    return [(1 + c // p) * s for c, s in enumerate(_class_sums(n, m))]


def _failures(st, grid=None):
    """Every (instance, result) of st's sweep that is neither True nor SKIP."""
    out = []
    for inst in iter_instances(st, grid):
        res = st.check(*inst)
        if res is not True and res != SKIP:
            out.append((inst, res))
    return out


def _digest(failures):
    return hashlib.sha256(repr(failures).encode()).hexdigest()


T17_GRID = {"p": (2, 3), "n": tuple(range(6))}
WEISMAN_PERTURBED = [
    (
        "T1.7", _scaled, _class_sums, T17_GRID, ["difference order 0"], 380,
        "df6d6bc8bd6f583cbd832abd67e71d2b683704a735c2c47218aeff03cbd9acc9",
    ),
    (
        "CONJ1.2", _class_binomials, _class_scaled_fold, None,
        ["difference order 0", "a permutation of 1..4"], 157,
        "243a18f5612644dd5d9ca6e885ddc824b259845201c2d86a8c98454e224517d3",
    ),
    (
        "CONJ1.2", _class_binomials, _quotient_scaled_fold, None,
        ["difference order 0", "vary with r"], 172,
        "9664564dd2d9cb25f32ad4d99474409caf2448e3d91b25ef0fb248705da25c35",
    ),
    (
        "C3.1cor", _scaled, _class_sums, None, ["difference order"], 242,
        "bd4480659b3efcea9943c5c7414292ec4d5b4b15443df25543780359e5af010c",
    ),
    (
        "C3.1cor", _bumped, _class_sums, {"p": (3, 5), "n": (0, 1, 2)}, ["order 0"], 84,
        "2aa403eac3006fe3df1f685b1f221c13f8767585fce599ef79ca5b623ecde05b",
    ),
]


@pytest.mark.parametrize(
    "sid, fn, fold, grid, branches, count, digest",
    WEISMAN_PERTURBED,
    ids=[
        "T1.7-scaled",
        "CONJ1.2-class-scaled",
        "CONJ1.2-quotient-scaled",
        "C3.1cor-scaled",
        "C3.1cor-bumped",
    ],
)
def test_weisman_normalized_checks_fail_as_pinned(
    kernel, sid, fn, fold, grid, branches, count, digest
):
    kernel(fn, fold)
    got = _failures(STATEMENTS[sid], grid)
    texts = [" ".join(res) for _, res in got]
    for branch in branches:
        assert any(branch in text for text in texts), branch
    assert len(got) == count
    assert _digest(got) == digest


# A perturbation that breaks Weisman divisibility: the normalizer raises,
# and the sweep names the first instance that reads such a sum.  At
# (p, n) = (2, 3), CONJ1.2's exceptional case, the value used to be reported
# as "not p-integral"; it raises like every other.
WEISMAN_BROKEN = [
    (
        "T1.7", _bumped, _class_sums, T17_GRID,
        "T1.7 at {'p': 2, 'alpha': 2, 'n': 4, 's': 0, 't': 0, 'r': -1}: "
        "Weisman-normalized sum is not an integer at (p=2, alpha=2, N=4, r=-1)",
    ),
    (
        "CONJ1.2", _class_binomials, _bumped_fold, None,
        "CONJ1.2 at {'p': 2, 'n': 2, 's': 0}: "
        "Weisman-normalized sum is not an integer at (p=2, alpha=1, N=2, r=0)",
    ),
    (
        "CONJ1.2", _class_binomials, _bumped_fold, {"p": (2,), "n": (3,)},
        "CONJ1.2 at {'p': 2, 'n': 3, 's': 0}: "
        "Weisman-normalized sum is not an integer at (p=2, alpha=2, N=6, r=1)",
    ),
]


@pytest.mark.parametrize(
    "sid, fn, fold, grid, message",
    WEISMAN_BROKEN,
    ids=["T1.7", "CONJ1.2", "CONJ1.2-exceptional"],
)
def test_broken_weisman_divisibility_is_named_in_a_sweep(kernel, sid, fn, fold, grid, message):
    kernel(fn, fold)
    with pytest.raises(InternalInvariantError) as info:
        run_statement(sid, grid)
    assert str(info.value) == message


# Weisman's exponent itself raised by 1 (padic._weisman, in every flecklab
# module that holds it): the normalizer divides by one power of p too many
# and raises where a class sum is not divisible by it, and at n = 0, where
# the exponent is -1, it multiplies by one power of p too few.  C1.2cor
# compares an order with the exponent.  Each id's report on a small slice is
# pinned by status, failure count and the digest of its JSON, or by the
# InternalInvariantError that named the first instance reading such a sum.
# The residue folds of T3.1's and CONJ3.1's row forms take their modulus
# from the same exponent, so these pins hold them to it as well.

_weisman = padic._weisman


@pytest.fixture
def weisman_raised(monkeypatch):
    _clear_caches()
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("flecklab"):
            continue
        if vars(mod).get("_weisman") is _weisman:
            monkeypatch.setattr(mod, "_weisman", lambda p, alpha, n: _weisman(p, alpha, n) + 1)
    yield
    monkeypatch.undo()
    _clear_caches()


def _reported(sid, grid):
    """(status, failure count, digest of the report's JSON) of sid's sweep
    over grid, or the message of the InternalInvariantError it raised."""
    sweep = search_conjecture if sid in SEARCHES else run_statement
    try:
        report = sweep(sid, grid)
    except InternalInvariantError as exc:
        return ("raised", str(exc))
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    return report.status, len(report.failures), digest


WEISMAN_RAISED = [
    (
        "T1.7", T17_GRID,
        ("raised", "T1.7 at {'p': 2, 'alpha': 2, 'n': 2, 's': 0, 't': 0, 'r': 0}: "
         "Weisman-normalized sum is not an integer at (p=2, alpha=2, N=2, r=0)"),
    ),
    (
        "C1.2cor", {"alpha": (2, 3), "n": tuple(range(12))},
        ("fail", 16, "ab6075bf8e89546881daa206f3a29362bcd5536328dccb1b9bd8af04fc22e01e"),
    ),
    (
        "CONJ1.2", {"p": (2, 3), "n": tuple(range(8))},
        ("raised", "CONJ1.2 at {'p': 2, 'n': 2, 's': 0}: "
         "Weisman-normalized sum is not an integer at (p=2, alpha=1, N=2, r=0)"),
    ),
    (
        "CONJ1.2", {"p": (2, 3, 5), "n": (0, 1)},
        ("counterexample-found", 7,
         "265c3b0e1fe1709bfdb76236f85683519d58a7b0e9956c1e5f6c800079bfc0b5"),
    ),
    (
        "T3.1", {"p": (2, 3), "alpha": (2, 3), "n": tuple(range(8))},
        ("raised", "T3.1 at {'p': 2, 'alpha': 2, 'n': 1, 'r': -2}: "
         "Weisman-normalized sum is not an integer at (p=2, alpha=2, N=2, r=-2)"),
    ),
    (
        "T3.1", {"p": (2, 3, 5), "alpha": (2, 3), "n": (0,)},
        ("pass", 0, "942ad4aeab474e76ca08ba96d75467fac6595ae5492824afa5ed5667510f2303"),
    ),
    (
        "CONJ3.1", {"p": (3, 5), "alpha": (2,), "n": tuple(range(8))},
        ("raised", "CONJ3.1 at {'p': 3, 'alpha': 2, 'n': 1, 'r': -2}: "
         "Weisman-normalized sum is not an integer at (p=3, alpha=2, N=3, r=-6)"),
    ),
    (
        "CONJ3.1", {"p": (3, 5), "alpha": (2, 3), "n": (0,)},
        ("pass", 0, "887685b24116c3c63655cce85c792e6066a7c9f4f447212d8d42e9178c980ea7"),
    ),
    (
        "C3.1cor", {"p": (2, 3), "alpha": (1, 2, 3), "n": tuple(range(6))},
        ("raised", "C3.1cor at {'p': 2, 'alpha': 1, 'beta': 0, 'n': 1, 'r': -2}: "
         "Weisman-normalized sum is not an integer at (p=2, alpha=1, N=1, r=-2)"),
    ),
]  # fmt: skip


@pytest.mark.parametrize(
    "sid, grid, expected",
    WEISMAN_RAISED,
    ids=[f"{c[0]}-{c[2][0]}" for c in WEISMAN_RAISED],
)
def test_raised_weisman_exponent_reports_as_pinned(weisman_raised, sid, grid, expected):
    assert _reported(sid, grid) == expected


# ---------------------------------------------------------------------------
# integer value paths, through a perturbed class-sum kernel
# ---------------------------------------------------------------------------
#
# C1.1cor, T1.4, L2.1 and CONJ1.3 compare orders of rationals.  Their
# outcomes on small slices under the perturbed kernels are pinned by the
# failure count and a digest of every (instance, result) pair in sweep
# order, so a change in how a check reaches its verdict (or words its
# failure) shows.


def _swept(st, grid):
    """The failure count and the digest of every (instance, result) pair of
    st's sweep, or the message of the InternalInvariantError it raised.  The
    sweep goes row by row through Statement.check_row, so an id with a row
    form runs it; any other runs its check once per value."""
    pairs = []
    try:
        for prefix, values in _rows(st.axes, _specs(st, grid)):
            results = st.check_row(prefix, values)
            pairs.extend((prefix + (v,), res) for v, res in zip(values, results))
    except InternalInvariantError as exc:
        return ("raised", str(exc))
    failures = [res for _, res in pairs if res is not True and res != SKIP]
    return len(failures), _digest(pairs)


C11_GRID = {"p": (2, 3), "m": (1, 2, 3, 4), "n": tuple(range(1, 13))}
T14_GRID = {"p": (2, 3), "l": (0, 1)}
L21_GRID = {"p": (2, 3), "n": tuple(range(9)), "l": (0, 1, 2, 3)}
CONJ13_GRID = {"p": (2, 3), "alpha": (1, 2), "n": tuple(range(3, 21)), "r": (-1, 0, 1, 2)}
RATIONAL_PINNED = [
    (
        "C1.1cor", _bumped, C11_GRID, 353,
        "018a1f8035f6001ea79d0f5ef197f3bb7ff2c848a988f99c559a249edf4369ea",
    ),
    (
        "C1.1cor", _scaled, C11_GRID, 0,
        "8dfd46ee9a29d0146f3bb77156c4223238a15e886066a90399d955863a91f58f",
    ),
    (
        "T1.4", _bumped, T14_GRID, 34,
        "c6ba279b1b54f625a5945ebce52812e3466be858f4666082594a4f89e10e3142",
    ),
    (
        "T1.4", _scaled, T14_GRID, 52,
        "0e898c4a200117d2f6ae1a5dea93ea66e18ce83bd201a567c20b17e35b3b07c3",
    ),
    (
        "L2.1", _bumped, L21_GRID, 126,
        "17daef67adfda01704bc877894c54dc5ffbbbdf8d3df6561d64dfafa5ad23736",
    ),
    (
        "L2.1", _scaled, L21_GRID, 28,
        "21ec138cda60c90ab0070c4657ab562f4474eaec81adb8e30d268998663fec68",
    ),
    (
        "CONJ1.3", _bumped, CONJ13_GRID, 210,
        "8412b945c7b5ac28c331ab85598102c986b1e4968446a4d9740f6b30aa42521c",
    ),
    (
        "CONJ1.3", _scaled, CONJ13_GRID, 288,
        "3462a73291e70617bef1196579da8ed28a2bca5e81ea201b4506d392ba079db0",
    ),
]


@pytest.mark.parametrize(
    "sid, fn, grid, count, digest",
    RATIONAL_PINNED,
    ids=[f"{c[0]}-{c[1].__name__.strip('_')}" for c in RATIONAL_PINNED],
)
def test_rational_order_checks_sweep_as_pinned(kernel, sid, fn, grid, count, digest):
    kernel(fn)
    assert _swept(STATEMENTS[sid], grid) == (count, digest)


# ---------------------------------------------------------------------------
# verdicts, through lowered orders
# ---------------------------------------------------------------------------
#
# Nearly every check decides by comparing an order with a bound.  Lowering
# the orders the checks read (statements._int_order and
# _convolution_weight_order) by a constant fails every instance that meets
# its bound with less than that to spare, and leaves values alone, so the
# pins below hold each verdict's comparison and failure strings.  The lift
# verdicts (T1.5, T1.5-alpha1, CONJ1.1) decide "order >= k" by one
# divisibility test (statements._reaches) and read the exact order only for
# a failure, so the test is raised to k + shift with them.  Each
# slice is swept through Statement.check_row, so the row forms run.  C1.1cor
# subtracts two of the orders it reads from the third, and L3.2's bound is
# twice an order it reads, so those two are swept with the orders raised
# instead (a negative shift).  L2.2 compares values, not orders, and is
# swept under the _scaled kernel.

_int_order = statements._int_order
_reaches = statements._reaches
_convolution_weight_order = statements._convolution_weight_order

MAIN_SLICE = {"p": (2, 3), "alpha": (1, 2), "n": tuple(range(13))}
LOWERED_PINNED = [
    (
        "T1.1", 1, MAIN_SLICE, 3558,
        "23d4e7ea95e024d36584bb5166acc630e7de4337f2c058ad2b430ba2ce642b14",
    ),
    (
        "T1.2", 1, MAIN_SLICE, 792,
        "091b3a4b915f8a24e39c5ac4d18d3bff59e7b2ab9f6a4a686bf350b0522b5aca",
    ),
    (
        "T1.3", 1, MAIN_SLICE, 417,
        "e53c9e42e2d435b9e9d83904157ceb7033ac9ce8a91c5eab5f3a983050c281c0",
    ),
    (
        "T1.5", 1, {"p": (2, 3), "alpha": (2,), "l": (0, 1), "n": tuple(range(10))}, 34,
        "0bef2ee486e30c7c17fcd8b211b2078d29098a80d9524a184ee5547095dcd4c2",
    ),
    (
        "T1.6", 1, {"p": (2, 3), "alpha": (2,), "l": (0, 1), "n": tuple(range(6))}, 88,
        "22b5495c73112324952ff1e371632a893b200cfd0067f16aad9d850f3b8c150d",
    ),
    (
        "T1.7", 1, T17_GRID, 360,
        "6b2f4cdaa7f1eff27b11cc80512af86bd096db9cf0e6dd968379f493bd4ebbcf",
    ),
    (
        "C1.1cor", -1, C11_GRID, 223,
        "36622f25f0bb098016d12f6085406d451316f301b88dfd7405b33388f601114f",
    ),
    (
        "C3.1cor", 1, {"p": (2, 3), "alpha": (1, 2, 3), "n": tuple(range(6))}, 108,
        "c2b59ffd08737348ead9bbcd6111024a7e105c4fa8c4f29de42584c3c8322d96",
    ),
    (
        "L2.5", 1, {"p": (2, 3), "alpha": (1, 2), "n": tuple(range(17))}, 531,
        "86c4a30a0305360581786a3cec6ec552bcc1c968c3342f56dd219492cf27b5b1",
    ),
    (
        "T2.1", 1, {"p": (2, 3), "alpha": (0, 1, 2), "l": (0, 1, 2), "n": tuple(range(13))}, 717,
        "c3f1b17db8f27493e732f75f312f4f2119c812a1e0bd96c28c0044640e264bce",
    ),
    (
        "L3.2", -1, {"p": (2, 3), "n": tuple(range(1, 13))}, 54,
        "fd5c1140baf520c2a307c4fe7fadc0842a7b3d0eb9edc04d175530119beb0d4d",
    ),
    (
        "T3.1", 1, {"p": (2, 3), "alpha": (2, 3), "n": tuple(range(8))}, 89,
        "53050353efa5cb096f7b15cb4a67fa1c8c9cdb5d4d89c1c40198844f10ed2879",
    ),
    (
        "CONJ1.1", 1, {"p": (3,), "alpha": (1,), "l": (0, 1, 2), "n": tuple(range(10))}, 16,
        "8d6e9b26949e47bd92a6fea208b0c1d832b0797814dcef76e261a01412014864",
    ),
    (
        "CONJ3.1", 1, {"p": (3, 5), "alpha": (2,), "n": tuple(range(8))}, 9,
        "4e1504ee370f533828a68d002fb1ff376b4f18ce6315825a3552f349be6c2e3a",
    ),
    (
        "T1.5-alpha1", 1, {"p": (2, 3), "l": (0, 1), "n": tuple(range(10))}, 65,
        "d3ac48f60ab1d28149b67c398a26dbb40ffc7abfca7c361ccf6462201507ed8c",
    ),
]


@pytest.mark.parametrize(
    "sid, shift, grid, count, digest", LOWERED_PINNED, ids=[c[0] for c in LOWERED_PINNED]
)
def test_verdicts_under_lowered_orders_sweep_as_pinned(
    monkeypatch, sid, shift, grid, count, digest
):
    monkeypatch.setattr(statements, "_int_order", lambda p, x: _int_order(p, x) - shift)
    monkeypatch.setattr(statements, "_reaches", lambda p, x, k: _reaches(p, x, k + shift))
    monkeypatch.setattr(
        statements,
        "_convolution_weight_order",
        lambda *args: _convolution_weight_order(*args) - shift,
    )
    assert _swept({**STATEMENTS, **SEARCHES}[sid], grid) == (count, digest)


# ---------------------------------------------------------------------------
# bounds, through a raised carry count
# ---------------------------------------------------------------------------
#
# T1.1, T1.2, T1.3 and T2.1 add a carry count (padic._carries) to every
# bound they hold a sum to.  Raising it by 1, in statements (T2.1's row
# form) and in sums (_bound_terms, which the other row forms and every
# check read), fails each instance that meets its bound with nothing to
# spare.  The default slices are swept through their row forms, so the pins
# hold every row form to reading the bound of each sum that is not zero.

CARRIES_RAISED = [
    ("T1.1", 3118, "f80923be7c732bc1c8aba4c3dc4fa9a8d229678289a72dda864e5d29df33e552"),
    ("T1.2", 732, "d845261c6445a7d434013c7f33741d5cdd63992f854231828fc0ec36bb94891b"),
    ("T1.3", 345, "4d0dffb0d6630abab21f4feb9cda6a815ea598be51f6250508c050ead9ca7ead"),
    ("T2.1", 447, "155324ee788f621af7f24ae3b94cf1a578e21d47f4cc82cae7703fa1bbf4cf04"),
]


@pytest.mark.parametrize("sid, count, digest", CARRIES_RAISED, ids=[c[0] for c in CARRIES_RAISED])
def test_bounds_under_raised_carry_counts_sweep_as_pinned(monkeypatch, sid, count, digest):
    carries = statements._carries
    for mod in (statements, sums):
        monkeypatch.setattr(mod, "_carries", lambda p, a, b: carries(p, a, b) + 1)
    assert _swept(STATEMENTS[sid], DEFAULT_SLICES[sid]) == (count, digest)


L22_SLICE = {"p": (2, 3), "alpha": (1, 2), "l": (0, 1, 2), "n": tuple(range(1, 8))}


def test_l22_sweeps_as_pinned_under_the_scaled_kernel(kernel):
    kernel(_scaled)
    assert _swept(STATEMENTS["L2.2"], L22_SLICE) == (
        741,
        "adb75aa1ce6a868561826521f76c16bfa635e2d83d899a502c222747b9426690",
    )
