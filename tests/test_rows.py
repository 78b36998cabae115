"""Row forms against the per-instance checks they stand for.

A row form must return exactly [check(*prefix, v) for v in values], for
any prefix and any values of the last axis, out-of-hypothesis ones
included.  No default grid fails, so the report digests never see a
failure string; the perturbed-kernel cases make the failure branches run
and hold row and check to the same (observed, expected) strings, and
to the same InternalInvariantError where a perturbed sum breaks one.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from flecklab import combinatorics, sums
from flecklab.errors import InternalInvariantError
from flecklab.statements import _ROW_FORMS, SEARCHES, SKIP, STATEMENTS

ROW_IDS = ("T1.1", "T1.2", "T1.3", "L2.2", "T2.1", "T3.1", "C3.1cor", "CONJ3.1")
# Main-grid ids whose last axis is the weight degree l; the others end in r.
L_LAST = ("T1.1", "T1.2", "T1.3")
# Fleck level reductions: (p, alpha[, beta], n) prefixes, last axis r.
FLECK = ("T3.1", "C3.1cor", "CONJ3.1")
PRIMES = (2, 3, 5, 7)


def per_instance(st, prefix, values) -> list:
    return [st.check(*prefix, v) for v in values]


def row_form(st):
    return _ROW_FORMS[st.check]


def outcome(fn):
    """fn's results, or the message of the InternalInvariantError it raised."""
    try:
        return fn()
    except InternalInvariantError as exc:
        return ("raised", str(exc))


def excluded(sid: str, prefix: tuple, v: int) -> bool:
    """Out of the statement's hypothesis: a negative n or l, n = 0 for
    L2.2 (its recurrences read the sums at n - 1), alpha < 2 for T3.1 and
    CONJ3.1, and beta outside 0 .. alpha-1 for C3.1cor."""
    q = dict(zip(STATEMENTS[sid].axes, prefix + (v,)))
    if sid == "C3.1cor":
        return q["n"] < 0 or not q["alpha"] > q["beta"] >= 0
    if sid in FLECK:
        return q["n"] < 0 or q["alpha"] < 2
    return q["n"] < (1 if sid == "L2.2" else 0) or q["l"] < 0


def test_row_forms_are_the_main_grid_ids():
    with_rows = {sid for sid, st in {**STATEMENTS, **SEARCHES}.items() if st.check in _ROW_FORMS}
    assert with_rows == set(ROW_IDS)


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
def fleck_rows(draw, sid):
    """(p, alpha, n), with beta before n for C3.1cor, and a list of
    residues r: scattered, or a contiguous window such as T3.1's -2 .. m-1."""
    p, alpha = draw(hst.sampled_from(PRIMES)), draw(hst.integers(0, 4))
    beta = (draw(hst.integers(-1, 5)),) if sid == "C3.1cor" else ()
    prefix = (p, alpha, *beta, draw(hst.integers(-2, 30)))
    m = p**alpha
    rs = draw(
        hst.one_of(
            hst.lists(hst.integers(-2 * m - 2, 2 * m + 2), min_size=1, max_size=12),
            hst.integers(-2, 2).map(lambda lo: list(range(lo, lo + min(m, 40)))),
        )
    )
    return prefix, rs


def draw_row(sid, data):
    if sid in L_LAST:
        return data.draw(l_last_rows())
    return data.draw(fleck_rows(sid) if sid in FLECK else r_last_rows())


@pytest.mark.parametrize("sid", ROW_IDS)
@given(data=hst.data())
def test_row_form_equals_its_checks(sid, data):
    st = STATEMENTS[sid]
    prefix, values = draw_row(sid, data)
    got = row_form(st)(*prefix, values)
    assert got == per_instance(st, prefix, values)
    for v, res in zip(values, got):
        if excluded(sid, prefix, v):
            assert res == SKIP, (prefix, v)


def test_l22_skips_n_zero_and_negative_sizes():
    st = STATEMENTS["L2.2"]
    for prefix in ((2, 1, 0, 0), (3, 2, 1, -1), (2, 2, -1, 4)):
        assert row_form(st)(*prefix, list(range(-4, 8))) == [SKIP] * 12


# ---------------------------------------------------------------------------
# failure branches, through a perturbed class-sum kernel
# ---------------------------------------------------------------------------

_class_binomials = combinatorics._class_binomials
_class_sums = sums._class_sums


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


@pytest.fixture
def kernel(monkeypatch):
    """Install a perturbed class-sum kernel, and the same perturbation of the
    row fold if one is given, in every flecklab module that imported the
    real ones, with every cache cleared before and after."""

    def install(fn, fold=_class_sums):
        _clear_caches()
        for name, mod in list(sys.modules.items()):
            if mod is None or not name.startswith("flecklab"):
                continue
            if vars(mod).get("_class_binomials") is _class_binomials:
                monkeypatch.setattr(mod, "_class_binomials", fn)
            if vars(mod).get("_class_sums") is _class_sums:
                monkeypatch.setattr(mod, "_class_sums", fold)

    yield install
    monkeypatch.undo()
    _clear_caches()


def _perturbed_rows(sid):
    if sid in FLECK:
        for p in (3, 5) if sid == "CONJ3.1" else (2, 3):
            for alpha in (2, 3, 4):
                for beta in range(alpha) if sid == "C3.1cor" else (None,):
                    for n in range(8):
                        prefix = (p, alpha, n) if beta is None else (p, alpha, beta, n)
                        yield prefix, list(range(-2, min(p**alpha, 12)))
        return
    if sid in L_LAST:
        for p in (2, 3):
            for alpha in (1, 2):
                for n in (5, 9, 12):
                    for r in (-1, 0, 1, 3, 6):
                        yield (p, alpha, n, r), list(range(-1, 7))
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
        got = outcome(lambda: row_form(st)(*prefix, values))
        assert got == outcome(lambda: per_instance(st, prefix, values)), prefix
        if isinstance(got, list):
            seen.extend(" ".join(res) for res in got if isinstance(res, tuple))
    # Each failure branch ran at least once.
    for branch in branches:
        assert any(branch in text for text in seen), branch


# The Fleck row forms read their sums from the row fold, the checks from
# the kernel: both are perturbed alike.  A perturbed Fleck sum that is no
# longer an integer raises, and row and check must raise the same error.
NOT_INTEGER = "Fleck-normalized sum is not an integer"
FOLD_PERTURBED = [
    ("T3.1", _bumped, _bumped_fold, ["order 0", NOT_INTEGER]),
    ("T3.1", _scaled, _scaled_fold, ["difference order"]),
    ("C3.1cor", _bumped, _bumped_fold, ["order 0", NOT_INTEGER]),
    ("C3.1cor", _scaled, _scaled_fold, ["difference order"]),
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
        got = outcome(lambda: row_form(st)(*prefix, values))
        assert got == outcome(lambda: per_instance(st, prefix, values)), prefix
        if isinstance(got, list):
            seen.extend(" ".join(res) for res in got if isinstance(res, tuple))
        else:
            seen.append(got[1])
    # Each failure branch ran at least once.
    for branch in branches:
        assert any(branch in text for text in seen), branch
