"""Row forms against the per-instance checks they stand for.

Statement.check_row must return exactly [check(*prefix, v) for v in
values], for any prefix and any values of the last axis, out-of-hypothesis
ones included: a row form either computes the row or hands it back (None)
to be checked once per value.  Every row of the default grids is served by
its row form, so a row form that hands them back shows here and not only
as lost speed.  No default grid fails, so the report digests never see a
failure string; the perturbed-kernel cases make the failure branches run
and hold row and check to the same (observed, expected) strings, and
to the same InternalInvariantError where a perturbed sum breaks one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from flecklab import combinatorics, quantities, statements, sums
from flecklab.errors import InternalInvariantError
from flecklab.statements import _ROW_FORMS, SEARCHES, SKIP, STATEMENTS
from flecklab.verifier import _rows, _specs, iter_instances, run_statement

ROW_IDS = ("T1.1", "T1.2", "T1.3", "L2.2", "T2.1", "T3.1", "CONJ3.1")
# Main-grid ids whose last axis is the weight degree l; the others end in r.
L_LAST = ("T1.1", "T1.2", "T1.3")
# Fleck level reductions: (p, alpha, n) prefixes, last axis r.
FLECK = ("T3.1", "CONJ3.1")
PRIMES = (2, 3, 5, 7)


def per_instance(st, prefix, values) -> list:
    return [st.check(*prefix, v) for v in values]


def outcome(fn):
    """fn's results, or the message of the InternalInvariantError it raised."""
    try:
        return fn()
    except InternalInvariantError as exc:
        return ("raised", str(exc))


def excluded(sid: str, prefix: tuple, v: int) -> bool:
    """Out of the statement's hypothesis: a negative n or l, n = 0 for
    L2.2 (its recurrences read the sums at n - 1), and alpha < 2 for T3.1
    and CONJ3.1."""
    q = dict(zip(STATEMENTS[sid].axes, prefix + (v,)))
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


def draw_row(sid, data):
    if sid in L_LAST:
        return data.draw(l_last_rows())
    return data.draw(fleck_rows() if sid in FLECK else r_last_rows())


@pytest.mark.parametrize("sid", ROW_IDS)
@given(data=hst.data())
def test_row_form_equals_its_checks(sid, data):
    st = STATEMENTS[sid]
    prefix, values = draw_row(sid, data)
    got = st.check_row(prefix, values)
    assert got == per_instance(st, prefix, values)
    for v, res in zip(values, got):
        if excluded(sid, prefix, v):
            assert res == SKIP, (prefix, v)


def test_l22_skips_n_zero_and_negative_sizes():
    st = STATEMENTS["L2.2"]
    for prefix in ((2, 1, 0, 0), (3, 2, 1, -1), (2, 2, -1, 4)):
        assert _ROW_FORMS[st.check](*prefix, list(range(-4, 8))) is None
        assert st.check_row(prefix, list(range(-4, 8))) == [SKIP] * 12


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
}


@pytest.mark.parametrize("sid", ROW_IDS)
def test_default_rows_are_served_by_their_row_forms(sid):
    st = STATEMENTS[sid]
    row = _ROW_FORMS[st.check]
    rows = list(_rows(st.axes, _specs(st, DEFAULT_SLICES[sid])))
    assert rows
    for prefix, values in rows:
        assert row(*prefix, values) is not None, prefix


HANDED_BACK = [
    # sparse weight degrees, a negative degree, and n < 0
    *[(sid, (3, 2, 10, 4), ls) for sid in L_LAST for ls in ([0, 20], [-1, 0, 1], [3, 1, -2])],
    *[(sid, (3, 2, -1, 4), list(range(9))) for sid in L_LAST],
    # a window sparser than its row, and n < 1 or l < 0
    ("L2.2", (3, 1, 2, 10), [-3, 0, 9]),
    ("L2.2", (3, 1, 2, 0), list(range(-3, 6))),
    ("L2.2", (3, 1, -1, 10), list(range(-3, 6))),
    # n or l < 0
    ("T2.1", (3, 1, 2, -1), list(range(-3, 6))),
    ("T2.1", (3, 1, -1, 10), list(range(-3, 6))),
    # alpha < 2 and n < 0
    *[(sid, prefix, list(range(-2, 9))) for sid in FLECK for prefix in ((3, 1, 4), (3, 2, -1))],
]


@pytest.mark.parametrize("sid, prefix, values", HANDED_BACK)
def test_rows_outside_a_row_form_are_handed_back(sid, prefix, values):
    st = STATEMENTS[sid]
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
# longer an integer raises, and row and check must raise the same error.
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
# pins below hold each verdict's comparison and failure strings.  Each
# slice is swept through Statement.check_row, so the row forms run.  C1.1cor
# subtracts two of the orders it reads from the third, and L3.2's bound is
# twice an order it reads, so those two are swept with the orders raised
# instead (a negative shift).  L2.2 compares values, not orders, and is
# swept under the _scaled kernel.

_int_order = statements._int_order
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
    monkeypatch.setattr(
        statements,
        "_convolution_weight_order",
        lambda *args: _convolution_weight_order(*args) - shift,
    )
    assert _swept({**STATEMENTS, **SEARCHES}[sid], grid) == (count, digest)


L22_SLICE = {"p": (2, 3), "alpha": (1, 2), "l": (0, 1, 2), "n": tuple(range(1, 8))}


def test_l22_sweeps_as_pinned_under_the_scaled_kernel(kernel):
    kernel(_scaled)
    assert _swept(STATEMENTS["L2.2"], L22_SLICE) == (
        741,
        "adb75aa1ce6a868561826521f76c16bfa635e2d83d899a502c222747b9426690",
    )
