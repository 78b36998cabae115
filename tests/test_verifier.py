from __future__ import annotations

import dataclasses
import itertools
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flecklab.errors import (
    EmptyGridError,
    InternalInvariantError,
    InvalidParameterError,
    UnknownStatementError,
)
from flecklab import statements, verifier
from flecklab.statements import SEARCHES, SKIP, STATEMENTS, DerivedAxis, Statement
from flecklab.verifier import (
    DEFAULT_FAILURE_CAP,
    VerificationReport,
    _block_rows,
    _plan,
    _rows,
    _specs,
    grid_description,
    iter_instances,
    run_statement,
    search_conjecture,
)


def in_process_pool(monkeypatch, cores):
    """Swap the verifier's fan-out for one that runs its blocks in this
    process, with os.cpu_count() reporting cores; returns the (workers,
    blocks) of each sweep that fanned out."""
    started = []

    def fan_out(run, count, workers):
        started.append((workers, count))
        return [run(i) for i in range(count)]

    monkeypatch.setattr(verifier, "_fan_out", fan_out)
    monkeypatch.setattr(verifier.os, "cpu_count", lambda: cores)
    return started


def synthetic_check(n):
    """Fails on n % 3 == 2, skips on n % 3 == 1, passes otherwise."""
    if n % 3 == 2:
        return (f"value at n={n}", "n % 3 != 2")
    if n % 3 == 1:
        return SKIP
    return True


def synthetic(statement_id: str, kind: str, check=synthetic_check) -> Statement:
    return Statement(
        id=statement_id,
        kind=kind,
        description="synthetic statement for harness tests",
        defaults={"n": tuple(range(12))},
        check=check,
    )


class TestIterInstances:
    def test_lexicographic_order(self):
        got = list(iter_instances(STATEMENTS["R1.6"], {"n": (0, 1), "l": (0, 1, 2)}))
        assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_derived_axis_sees_earlier_values(self):
        got = list(iter_instances(STATEMENTS["T1.8"], {"alpha": (1,), "n": (20,)}))
        assert got == [(1, 20, 10), (1, 20, 18), (1, 20, 26)]

    def test_derived_axis_may_be_empty(self):
        got = list(iter_instances(STATEMENTS["T1.8"], {"alpha": (3,), "n": (7,)}))
        assert got == []

    def test_default_grid_prefix(self):
        instances = list(iter_instances(STATEMENTS["L4.1"]))
        assert instances[0] == (2, 0, 0, 1)
        assert len([v for v in instances if v[0] == 2]) == 4 * 9


def recursive_instances(st: Statement, overrides=None):
    """The recursive enumerator iter_instances replaced, kept as its oracle."""
    overrides = dict(overrides or {})
    axes = st.axes

    def rec(i, ctx, acc):
        if i == len(axes):
            yield tuple(acc)
            return
        axis = axes[i]
        if axis in overrides:
            values = overrides[axis]
        else:
            spec = st.defaults[axis]
            values = spec.fn(ctx) if isinstance(spec, DerivedAxis) else spec
        for v in values:
            ctx[axis] = v
            acc.append(v)
            yield from rec(i + 1, ctx, acc)
            acc.pop()
            del ctx[axis]

    return rec(0, {}, [])


ALL_STATEMENTS = {**STATEMENTS, **SEARCHES}


def same_sequence(a, b) -> bool:
    marker = object()
    return all(x == y for x, y in itertools.zip_longest(a, b, fillvalue=marker))


class TestIterInstancesOracle:
    @pytest.mark.parametrize("sid", list(ALL_STATEMENTS))
    def test_default_grid_matches_recursive_enumeration(self, sid):
        st = ALL_STATEMENTS[sid]
        assert same_sequence(iter_instances(st), recursive_instances(st))

    def test_overridden_grid_matches_recursive_enumeration(self):
        # Overriding the derived r axis makes the whole grid a plain product;
        # overriding alpha changes what the derived axes of T1.6 see.
        for sid, grid in (
            ("T1.1", {"p": (3, 2), "alpha": (2, 0), "r": (5, -1, 0), "l": (1,)}),
            ("T1.6", {"alpha": (3,), "n": (4, 0), "t": (1,)}),
        ):
            st = STATEMENTS[sid]
            got = list(iter_instances(st, grid))
            assert got and got == list(recursive_instances(st, grid))


class TestGridDescription:
    def test_static_overridden_and_derived_axes(self):
        desc = grid_description(STATEMENTS["T1.8"], {"alpha": (1, 2)})
        assert desc["alpha"] == [1, 2]
        assert desc["n"] == list(range(65))
        assert isinstance(desc["l"], str) and "n0" in desc["l"]


class TestRunStatement:
    def test_passing_sweep(self):
        report = run_statement("R1.6")
        assert report.passed
        assert report.status == "pass"
        assert report.statement == "R1.6"
        assert report.checked == 11 * 15
        assert report.skipped == 0
        assert report.failures == ()
        assert report.grid == {"n": list(range(11)), "l": list(range(15))}

    def test_unknown_id(self):
        with pytest.raises(UnknownStatementError, match="T1.1"):
            run_statement("nope")

    def test_search_only_id_is_rejected(self):
        with pytest.raises(UnknownStatementError):
            run_statement("T1.5-alpha1")

    def test_unknown_axis(self):
        with pytest.raises(InvalidParameterError, match="has no axis"):
            run_statement("R1.6", grid={"p": (2,)})

    def test_empty_axis_values(self):
        with pytest.raises(InvalidParameterError):
            run_statement("R1.6", grid={"n": ()})

    def test_non_integer_axis_values(self):
        with pytest.raises(InvalidParameterError):
            run_statement("R1.6", grid={"n": ("2",)})
        # bool is an int subclass; swept, True would be echoed as true.
        with pytest.raises(InvalidParameterError, match="must be a sequence of integers"):
            run_statement("R1.6", grid={"n": (True, 2), "l": (3,)})

    def test_repeated_axis_value(self):
        # Swept as given, n = 2 would be checked and counted twice.
        with pytest.raises(InvalidParameterError, match=r"^axis 'n' repeats the value 2$"):
            run_statement("R1.6", grid={"n": (2, 2), "l": (3,)})

    def test_bad_jobs_and_cap(self):
        with pytest.raises(InvalidParameterError):
            run_statement("R1.6", jobs=0)
        with pytest.raises(InvalidParameterError):
            run_statement("R1.6", failure_cap=0)

    def test_all_skipped_grid_is_an_error(self):
        with pytest.raises(EmptyGridError, match="skipped by preconditions"):
            run_statement("T1.3", grid={"r": (-5,)})

    @pytest.mark.parametrize("sid", ["T1.7", "C1.2cor"])
    def test_negative_sizes_alone_are_an_empty_grid(self, sid):
        # Their row sums over 0 <= k <= n are empty, so nothing is checked.
        with pytest.raises(EmptyGridError, match="skipped by preconditions"):
            run_statement(sid, grid={"n": (-3, -1)})

    def test_zero_instance_grid_is_an_error(self):
        with pytest.raises(EmptyGridError):
            run_statement("T1.8", grid={"alpha": (3,), "n": (7,)})


class TestFailureHandling:
    def test_theorem_failure_status(self, monkeypatch):
        monkeypatch.setitem(STATEMENTS, "FAKE.T", synthetic("FAKE.T", "theorem"))
        report = run_statement("FAKE.T")
        assert report.status == "fail"
        assert not report.passed
        assert report.checked == 8
        assert report.skipped == 4
        assert [f["params"] for f in report.failures] == [{"n": 2}, {"n": 5}, {"n": 8}, {"n": 11}]
        assert report.failures[0]["observed"] == "value at n=2"
        assert report.failures[0]["expected"] == "n % 3 != 2"

    def test_conjecture_failure_is_a_counterexample(self, monkeypatch):
        monkeypatch.setitem(STATEMENTS, "FAKE.C", synthetic("FAKE.C", "conjecture"))
        monkeypatch.setitem(SEARCHES, "FAKE.C", synthetic("FAKE.C", "conjecture"))
        assert run_statement("FAKE.C").status == "counterexample-found"
        assert search_conjecture("FAKE.C").status == "counterexample-found"

    def test_failure_cap(self, monkeypatch):
        monkeypatch.setitem(STATEMENTS, "FAKE.T", synthetic("FAKE.T", "theorem"))
        report = run_statement("FAKE.T", failure_cap=2)
        assert len(report.failures) == 2
        assert report.checked == 8  # counting continues past the cap
        assert [f["params"]["n"] for f in report.failures] == [2, 5]

    def test_default_cap_value(self):
        assert DEFAULT_FAILURE_CAP == 16

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invariant_error_names_its_instance(self, monkeypatch, jobs):
        def check(n):
            if n == 7:
                raise InternalInvariantError("boom")
            return True

        monkeypatch.setitem(STATEMENTS, "FAKE.I", synthetic("FAKE.I", "theorem", check=check))
        with pytest.raises(InternalInvariantError, match=r"^FAKE\.I at \{'n': 7\}: boom$"):
            run_statement("FAKE.I", jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_invariant_error_in_a_row_form_names_its_instance(self, monkeypatch, jobs):
        # The planner keeps every row whole, so the row form sees all 12
        # values of n at once at any job count.
        def check(m, n):
            if (m, n) == (3, 7):
                raise InternalInvariantError("boom")
            return True

        def row(m, ns):
            if m == 3:
                raise InternalInvariantError("boom somewhere in the row")
            if m == 5:
                raise InternalInvariantError("row-level boom")
            return [True] * len(ns)

        st = Statement(
            id="FAKE.R",
            kind="theorem",
            description="synthetic statement with a row form",
            defaults={"m": tuple(range(20)), "n": tuple(range(12))},
            check=check,
        )
        monkeypatch.setitem(statements._ROW_FORMS, check, row)
        monkeypatch.setitem(STATEMENTS, "FAKE.R", st)
        # The row is run again one check at a time to find the instance.
        with pytest.raises(InternalInvariantError, match=r"^FAKE\.R at \{'m': 3, 'n': 7\}: boom$"):
            run_statement("FAKE.R", jobs=jobs)
        # An error no single check raises is named by its row's prefix.
        message = r"^FAKE\.R at \{'m': 5\}: row-level boom$"
        with pytest.raises(InternalInvariantError, match=message):
            run_statement("FAKE.R", grid={"m": tuple(range(4, 24))}, jobs=jobs)

    def test_non_tuple_check_result_is_still_reported(self, monkeypatch):
        monkeypatch.setitem(
            STATEMENTS, "FAKE.B", synthetic("FAKE.B", "theorem", check=lambda n: n == 0 or None)
        )
        report = run_statement("FAKE.B", grid={"n": (0, 3)})
        assert report.status == "fail"
        assert report.failures[0]["observed"] == "None"
        assert report.failures[0]["expected"] == "True"


class TestSearchConjecture:
    def test_rejects_theorem_ids(self):
        with pytest.raises(UnknownStatementError, match="conjecture ids"):
            search_conjecture("T1.1")

    def test_accepts_the_low_level_search_id(self):
        report = search_conjecture(
            "T1.5-alpha1", grid={"p": (2,), "l": (0, 1), "n": tuple(range(8))}
        )
        assert report.passed
        assert report.statement == "T1.5-alpha1"


class TestReportSerialization:
    def test_json_payload_shape(self):
        report = run_statement("R1.6", grid={"n": (0, 1, 2)})
        payload = json.loads(report.to_json())
        assert list(payload) == ["statement", "grid", "checked", "skipped", "failures", "status"]
        assert payload["statement"] == "R1.6"
        assert payload["grid"]["n"] == [0, 1, 2]
        assert payload["failures"] == []
        assert payload["status"] == "pass"

    def test_rows_and_csv(self, monkeypatch):
        monkeypatch.setitem(STATEMENTS, "FAKE.T", synthetic("FAKE.T", "theorem"))
        report = run_statement("FAKE.T", failure_cap=1)
        rows = report.to_rows()
        assert rows[0] == ["statement", "status", "checked", "skipped", "n", "observed", "expected"]
        assert rows[1] == ["FAKE.T", "fail", "8", "4", "", "", ""]
        assert rows[2] == ["FAKE.T", "fail", "", "", "2", "value at n=2", "n % 3 != 2"]
        assert report.to_csv().splitlines()[0] == "statement,status,checked,skipped,n,observed,expected"
        assert report.to_tsv().splitlines()[1] == "FAKE.T\tfail\t8\t4\t\t\t"

    def test_csv_quotes_embedded_delimiters(self, monkeypatch):
        monkeypatch.setitem(
            STATEMENTS,
            "FAKE.Q",
            synthetic("FAKE.Q", "theorem", check=lambda n: ("has,comma", "clean")),
        )
        report = run_statement("FAKE.Q", grid={"n": (0,)})
        assert '"has,comma"' in report.to_csv()

    def test_report_is_frozen(self):
        report = run_statement("R1.6", grid={"n": (1,)})
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.status = "fail"


class TestParallelDeterminism:
    TRIMMED = {"p": (2,), "alpha": (2,), "l": (0, 1), "n": tuple(range(12))}

    def test_reports_are_byte_identical_across_job_counts(self):
        serial = run_statement("T1.5", grid=self.TRIMMED, jobs=1)
        parallel = run_statement("T1.5", grid=self.TRIMMED, jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        assert serial.checked > 0

    # Override grids whose reports must not depend on the job count, swept
    # through real worker processes; the third value says whether the grid
    # has skips.  T2.1, T1.5, CONJ1.1 and T1.5-alpha1 read scattered,
    # unordered residues as given, each level of a row at once (T1.5's and
    # T1.5-alpha1's share values of r // p).  T2.1's grid of one row stays
    # one block.  The next five grids hold rows outside their statements'
    # hypotheses, which are skipped whole before any check or row form
    # runs.  Then two frontier grids decided from residues: CONJ3.1's
    # largest residue folds (p = 7, alpha = 4) and CONJ1.3 at p = 7 up to
    # n = 120.  CONJ1.3's row form reads j as given (out of order, with a
    # negative value) on rows inside and outside n >= 2 p**alpha - 1.
    JOB_COUNT_GRIDS = [
        pytest.param("T2.1", {"r": (7, -3, 0, 2)}, False, id="T2.1-scattered"),
        pytest.param("T1.5", {"r": (9, -2, 5, 4, 0)}, False, id="T1.5-scattered"),
        pytest.param("CONJ1.1", {"r": (4, -2, 0, 7)}, False, id="CONJ1.1-scattered"),
        pytest.param("T1.5-alpha1", {"r": (9, -2, 5, 4, 0)}, False, id="T1.5-alpha1-scattered"),
        pytest.param("T2.1", {"p": (5,), "alpha": (3,), "l": (8,), "n": (64,)}, False, id="T2.1-one-row"),
        pytest.param("T1.5", {"alpha": (1, 2, 3), "n": tuple(range(13))}, True, id="T1.5-low-alpha"),
        pytest.param("L2.2", {"n": tuple(range(5))}, True, id="L2.2-small-n"),
        pytest.param("T1.1", {"n": tuple(range(-2, 7))}, True, id="T1.1-negative-n"),
        pytest.param("CONJ3.1", {"alpha": (1, 2, 3)}, True, id="CONJ3.1-low-alpha"),
        pytest.param(
            "T1.3", {"n": tuple(range(-1, 7)), "r": tuple(range(-3, 6))}, True, id="T1.3-negative-n-r"
        ),
        pytest.param(
            "CONJ3.1", {"p": (7,), "alpha": (4,), "n": tuple(range(36, 41))}, False,
            id="CONJ3.1-frontier-rows",
        ),
        pytest.param(
            "CONJ1.3", {"p": (7,), "alpha": (0, 1, 2), "n": tuple(range(100, 121))}, False,
            id="CONJ1.3-frontier-rows",
        ),
        pytest.param(
            "CONJ1.3", {"p": (3,), "alpha": (1, 2), "n": (3, 4, 9, 16, 17, 20), "j": (2, -1, 0)}, True,
            id="CONJ1.3",
        ),
    ]

    @pytest.mark.parametrize("sid, grid, skips", JOB_COUNT_GRIDS)
    def test_override_grid_reports_do_not_depend_on_the_job_count(self, sid, grid, skips):
        # The conjectures are swept as `flecklab conjecture` sweeps them.
        sweep = search_conjecture if sid in SEARCHES else run_statement
        serial = sweep(sid, grid=grid, jobs=1)
        assert serial.checked > 0
        assert (serial.skipped > 0) == skips
        assert sweep(sid, grid=grid, jobs=2).to_json() == serial.to_json()


ROW_FORM_IDS = [sid for sid, st in ALL_STATEMENTS.items() if st.check in statements._ROW_FORMS]


@hst.composite
def row_form_grids(draw):
    """A row-form id and small overrides of its axes: every axis but a
    derived last one, which is overridden or kept.  At most 54 rows."""
    sid = draw(hst.sampled_from(ROW_FORM_IDS))
    st = ALL_STATEMENTS[sid]
    pools = {"p": (2, 3, 5), "alpha": range(4)}
    grid = {}
    for axis in st.axes:
        if axis == st.axes[-1] and isinstance(st.defaults[axis], DerivedAxis) and draw(hst.booleans()):
            continue
        pool = pools.get(axis, range(-2, 13))
        size = 2 if axis in pools else 3
        grid[axis] = tuple(draw(hst.lists(hst.sampled_from(pool), min_size=1, max_size=size, unique=True)))
    return sid, grid


def sweep_outcome(sid, grid, jobs):
    """The report's JSON, or the error's type and message."""
    sweep = search_conjecture if sid in SEARCHES else run_statement
    try:
        return sweep(sid, grid=grid, jobs=jobs).to_json()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestRowFormBlocks:
    @settings(max_examples=50, deadline=None)
    @given(row_form_grids())
    def test_one_row_blocks_report_as_one_worker(self, case):
        # 64 cores ask for 512 blocks: one a row on these grids.
        sid, grid = case
        st = ALL_STATEMENTS[sid]
        serial = sweep_outcome(sid, grid, 1)
        with pytest.MonkeyPatch.context() as patch:
            fanned = in_process_pool(patch, cores=64)
            assert sweep_outcome(sid, grid, 64) == serial
        if fanned:
            rows = sum(1 for _ in _rows(st.axes, _specs(st, grid)))
            assert fanned == [(min(64, rows), rows)]


def planned_sweep(st: Statement, overrides, blocks: int):
    """The planned blocks' instances, concatenated, after checking that each
    block's count is the number of instances it yields."""
    plan = _plan(st, overrides, blocks)
    assert len(plan) <= blocks
    out = []
    for prefixes, count in plan:
        rows = _block_rows(st, overrides, prefixes)
        instances = [prefix + (v,) for prefix, values in rows for v in values]
        assert count == len(instances) > 0
        out.extend(instances)
    return out


def pair_check(n, k):
    """Fails on every third (n, k) pair in sweep order, passes otherwise."""
    return True if (n + k) % 3 else (f"n={n} k={k}", "n + k not divisible by 3")


ONE_AXIS = synthetic("FAKE.1", "theorem")
PAIRS = Statement(
    id="FAKE.P",
    kind="theorem",
    description="synthetic statement with a derived axis",
    defaults={
        "n": tuple(range(20)),
        "k": DerivedAxis("0 .. n", lambda ctx: range(ctx["n"] + 1)),
    },
    check=pair_check,
)


def _window(src: str, lo: int, shift: int) -> DerivedAxis:
    """lo .. ctx[src] + shift - 1: empty whenever ctx[src] + shift <= lo."""
    return DerivedAxis(f"{lo} .. {src}{shift:+d}", lambda ctx: range(lo, ctx[src] + shift))


# Distinct values: a sweep admits no override that repeats one, and the
# planner's one-walk count relies on it.
AXIS_VALUES = hst.lists(hst.integers(-2, 6), min_size=1, max_size=6, unique=True).map(tuple)


@hst.composite
def synthetic_grids(draw):
    """A statement over 1-4 axes, each a fixed value list or a window
    derived from an earlier axis, and overrides of some of its axes
    (derived ones included)."""
    axes = [f"a{i}" for i in range(draw(hst.integers(1, 4)))]
    defaults: dict[str, object] = {}
    for i, axis in enumerate(axes):
        if i and draw(hst.booleans()):
            src = axes[draw(hst.integers(0, i - 1))]
            defaults[axis] = _window(src, draw(hst.integers(-2, 2)), draw(hst.integers(-3, 2)))
        else:
            defaults[axis] = draw(AXIS_VALUES)
    st = Statement("FAKE.G", "theorem", "synthetic grid", defaults, lambda *values: True)
    overrides = {axis: draw(AXIS_VALUES) for axis in axes if draw(hst.booleans())}
    return st, overrides


class TestBlockPlan:
    @settings(max_examples=200)
    @given(synthetic_grids(), hst.integers(1, 40))
    def test_synthetic_grid_blocks_concatenate_to_the_sweep(self, grid, blocks):
        st, overrides = grid
        assert planned_sweep(st, overrides, blocks) == list(iter_instances(st, overrides))

    @pytest.mark.parametrize("sid", list(ALL_STATEMENTS))
    def test_default_grid_blocks_concatenate_to_the_sweep(self, sid):
        st = ALL_STATEMENTS[sid]
        assert planned_sweep(st, {}, 16) == list(iter_instances(st))

    @pytest.mark.parametrize("blocks", [1, 3, 16, 24])
    @pytest.mark.parametrize(
        "st, grid",
        [
            # a derived second axis
            (STATEMENTS["L4.2"], {"alpha": (1, 2)}),
            # derived l windows that come out empty for n < 2**alpha
            (STATEMENTS["T1.8"], {"alpha": (2, 3), "n": tuple(range(20))}),
            # every derived window empty
            (STATEMENTS["T1.8"], {"alpha": (3,), "n": (7,)}),
            # no derived axis at all
            (STATEMENTS["L2.3"], {"d": (2, 3), "n": (0, 4)}),
            (ONE_AXIS, {}),
            (PAIRS, {}),
            # few (p, alpha) pairs, so the plan pins a derived axis
            (STATEMENTS["T1.4"], {"p": (2, 3)}),
        ],
    )
    def test_overridden_grid_blocks_concatenate_to_the_sweep(self, st, grid, blocks):
        assert planned_sweep(st, grid, blocks) == list(iter_instances(st, grid))

    @pytest.mark.parametrize("sid", list(ALL_STATEMENTS))
    def test_default_grid_yields_each_instance_once(self, sid):
        # Distinct prefixes, and distinct values within each row: so the rows
        # under any prefix of the planner's are one consecutive run.
        st = ALL_STATEMENTS[sid]
        rows = list(_rows(st.axes, _specs(st, {})))
        assert len({prefix for prefix, _ in rows}) == len(rows)
        assert all(len(set(values)) == len(values) for _, values in rows)

    @pytest.mark.parametrize("blocks", [16, 24])
    def test_fewer_rows_than_blocks_plan_whole_rows(self, blocks):
        st = STATEMENTS["T2.1"]
        grid = {"p": (5,), "alpha": (3,), "l": (8,), "n": (64,)}
        # One row of 375 residues stays one block: the last axis is never pinned.
        assert _plan(st, grid, blocks) == [([(5, 3, 8, 64)], 375)]

    @pytest.mark.parametrize("jobs, grid, started", [
        # One row is one block: streamed, with no fan-out.
        (8, {"p": (5,), "alpha": (3,), "l": (8,), "n": (64,)}, []),
        (3, {"p": (5,), "alpha": (3,), "l": (8,), "n": (63, 64)}, [(2, 2)]),
        (2, {"p": (5,), "alpha": (1, 2, 3), "l": (8,), "n": tuple(range(30))}, [(2, 16)]),
    ])
    def test_pool_never_outnumbers_its_blocks(self, monkeypatch, jobs, grid, started):
        fanned = in_process_pool(monkeypatch, cores=64)
        parallel = run_statement("T2.1", grid=grid, jobs=jobs)
        assert fanned == started
        assert parallel.to_json() == run_statement("T2.1", grid=grid).to_json()

    @pytest.mark.parametrize("cores, blocks", [(3, [24]), (1, []), (None, []), (64, [76])])
    def test_a_large_job_count_plans_for_the_cores(self, monkeypatch, cores, blocks):
        # 90 rows: planned from 10,000 jobs as given they would be 90 one-row
        # blocks.  Planned from the workers the cores allow, they are about 8
        # per core (64 cores ask for 512, and the 90 rows cut into 76); one
        # core plans nothing.
        grid = {"p": (5,), "alpha": (1, 2, 3), "l": (8,), "n": tuple(range(30))}
        fanned = in_process_pool(monkeypatch, cores)
        parallel = run_statement("T2.1", grid=grid, jobs=10_000)
        run_statement("T2.1", grid=grid, jobs=cores or 1)
        assert [count for _, count in fanned] == blocks * 2
        assert parallel.to_json() == run_statement("T2.1", grid=grid).to_json()

    def test_blocks_are_at_most_1024(self, monkeypatch):
        # Their indices, 4 bytes each, then fit the one page any pipe holds,
        # so the parent writes them all before it forks a worker.  4,096
        # cores would ask for 32,768 blocks of the 4,096 rows.
        fanned = in_process_pool(monkeypatch, cores=4096)
        monkeypatch.setitem(STATEMENTS, "FAKE.F", grid_statement(lambda m, n: True))
        assert run_statement("FAKE.F", grid={"m": tuple(range(4096)), "n": (0,)}, jobs=4096).checked == 4096
        assert fanned == [(1024, 1024)]

    @pytest.mark.parametrize("cores, workers", [(3, [3]), (1, []), (None, [])])
    def test_pool_never_outnumbers_the_cores(self, monkeypatch, cores, workers):
        # The fake pool runs the blocks in this process; with one core the
        # sweep streams and never reaches it.
        grid = {"p": (5,), "alpha": (1, 2, 3), "l": (8,), "n": tuple(range(30))}
        fanned = in_process_pool(monkeypatch, cores)
        parallel = run_statement("T2.1", grid=grid, jobs=10_000)
        assert [started for started, _ in fanned] == workers
        assert parallel.to_json() == run_statement("T2.1", grid=grid).to_json()

    def test_default_plans_name_at_most_1024_prefixes(self):
        # The workers inherit the plan, nothing is pickled on the way out,
        # and a plan stays small next to its grid: the largest, T1.1-T1.3's,
        # names 780 prefixes for 41,145 rows.
        for sid, st in ALL_STATEMENTS.items():
            assert sum(len(prefixes) for prefixes, _ in _plan(st, {}, 16)) <= 1024, sid

    def test_failure_cap_keeps_the_first_failures_in_sweep_order(self, monkeypatch):
        monkeypatch.setitem(STATEMENTS, "FAKE.P", PAIRS)
        serial = run_statement("FAKE.P", failure_cap=5)
        parallel = run_statement("FAKE.P", jobs=3, failure_cap=5)
        first = [v for v in iter_instances(PAIRS) if pair_check(*v) is not True][:5]
        assert [tuple(f["params"].values()) for f in parallel.failures] == first
        assert parallel.to_json() == serial.to_json()


def grid_statement(check) -> Statement:
    """A synthetic statement of 20 rows of 12 values: about one or two rows
    in each of the 16 blocks two workers are planned."""
    return Statement(
        id="FAKE.F",
        kind="theorem",
        description="synthetic statement for fan-out tests",
        defaults={"m": tuple(range(20)), "n": tuple(range(12))},
        check=check,
    )


def kill_own_worker_at(parent: int, where: tuple[int, int]):
    """A check that sends SIGKILL to its own process at `where`, in a forked
    worker only."""

    def check(m, n):
        if (m, n) == where and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return True

    return check


def raise_at(where: tuple[int, int]):
    def check(m, n):
        if (m, n) == where:
            raise ValueError(f"raised at {where}")
        return True

    return check


# Modules the fan-out imports on first use, or that a process pool would:
# none of them may load with the package, whose import every sweep pays.
FAN_OUT_MODULES = (
    "pickle", "signal", "traceback", "selectors", "threading", "subprocess",
    "multiprocessing", "concurrent.futures",
)  # fmt: skip


def test_importing_the_package_loads_no_fan_out_module():
    code = (
        "import sys; before = set(sys.modules); import flecklab; "
        "print(*sorted(set(sys.modules) - before))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(verifier.__file__).resolve().parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    new = set(out.stdout.split())
    assert "flecklab.verifier" in new
    assert not new & set(FAN_OUT_MODULES)


class TestFanOut:
    """A parallel sweep's workers: two forked children on any machine, every
    one of them reaped by the end of each test."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def sweep(monkeypatch, check):
        monkeypatch.setitem(STATEMENTS, "FAKE.F", grid_statement(check))
        return run_statement("FAKE.F", jobs=2)

    def test_the_lowest_block_error_is_raised(self, monkeypatch):
        def check(m, n):
            if (m, n) == (1, 0):
                time.sleep(0.2)  # the higher block raises first
                raise ValueError("low")
            if (m, n) == (18, 0):
                raise ValueError("high")
            return True

        with pytest.raises(ValueError, match="^low$"):
            self.sweep(monkeypatch, check)

    def test_a_worker_error_carries_the_worker_traceback(self, monkeypatch):
        def check_that_raises(m, n):
            if (m, n) == (9, 0):
                raise ValueError("raised in a worker")
            return True

        with pytest.raises(ValueError, match="^raised in a worker$") as info:
            self.sweep(monkeypatch, check_that_raises)
        cause = info.value.__cause__
        assert type(cause).__name__ == "_RemoteTraceback"
        assert "check_that_raises" in str(cause)
        assert 'raise ValueError("raised in a worker")' in str(cause)

    def test_a_killed_worker_is_named_with_its_block(self, monkeypatch):
        message = r"^block 0 has no result; worker exit statuses \[(-9, 0|0, -9)\]$"
        with pytest.raises(RuntimeError, match=message):
            self.sweep(monkeypatch, kill_own_worker_at(os.getpid(), (0, 0)))

    def test_an_unpicklable_error_comes_back_as_its_type_and_message(self, monkeypatch):
        class Unpicklable(Exception):
            pass

        def check(m, n):
            if (m, n) == (5, 0):
                raise Unpicklable("raised at m=5")
            return True

        with pytest.raises(RuntimeError, match="^Unpicklable: raised at m=5$"):
            self.sweep(monkeypatch, check)

    def test_an_interrupted_parent_kills_and_reaps_its_workers(self, monkeypatch):
        parent = os.getpid()

        def check(m, n):
            if (m, n) == (0, 0) and os.getpid() != parent:
                # Past the forks: an interrupt inside one is lost in its
                # at-fork hooks (Python reports it as unraisable).
                time.sleep(0.3)
                os.kill(parent, signal.SIGINT)
                time.sleep(60)
            return True

        with pytest.raises(KeyboardInterrupt):
            self.sweep(monkeypatch, check)

    def test_an_interrupt_during_the_forks_is_raised(self, monkeypatch):
        # Sent from an at-fork hook, in the parent, before the first fork.
        # A hook cannot be unregistered: emptied, this one does nothing.
        armed = [os.getpid()]
        os.register_at_fork(before=lambda: armed and os.kill(armed.pop(), signal.SIGINT))
        try:
            with pytest.raises(KeyboardInterrupt):
                self.sweep(monkeypatch, lambda m, n: True)
            assert not armed
        finally:
            armed.clear()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    @pytest.mark.parametrize("outcome", ["pass", "raise", "kill"])
    def test_a_sweep_leaves_no_file_descriptor_open(self, monkeypatch, outcome):
        check = {
            "pass": lambda m, n: True,
            "raise": raise_at((7, 0)),
            "kill": kill_own_worker_at(os.getpid(), (7, 0)),
        }[outcome]
        before = sorted(os.listdir("/proc/self/fd"))
        try:
            self.sweep(monkeypatch, check)
        except (ValueError, RuntimeError):
            assert outcome != "pass"
        assert sorted(os.listdir("/proc/self/fd")) == before

    def test_a_parallel_sweep_warns_of_nothing(self, monkeypatch):
        # Python 3.12 warns on a fork in a process that runs threads.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.sweep(monkeypatch, lambda m, n: True).checked == 240

    @pytest.mark.parametrize("cores, grid", [(1, {}), (2, {"m": (9,)})])
    def test_one_worker_forks_no_child(self, monkeypatch, cores, grid):
        # One core, or one block: the blocks run in the parent, in order (a
        # fork would call None and raise TypeError).
        monkeypatch.setattr(verifier.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(verifier.os, "fork", None)
        monkeypatch.setitem(STATEMENTS, "FAKE.F", grid_statement(raise_at((9, 0))))
        serial = run_statement("FAKE.F", grid={**grid, "n": (1, 2)}, jobs=1)
        assert run_statement("FAKE.F", grid={**grid, "n": (1, 2)}, jobs=2) == serial
        with pytest.raises(ValueError, match=r"^raised at \(9, 0\)$"):
            run_statement("FAKE.F", grid=grid, jobs=2)

    def test_without_fork_the_parent_runs_the_blocks(self, monkeypatch):
        monkeypatch.delattr(verifier.os, "fork")
        assert self.sweep(monkeypatch, lambda m, n: True).checked == 240
