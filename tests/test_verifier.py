from __future__ import annotations

import dataclasses
import itertools
import json
import pickle

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
    _payloads,
    _plan,
    _rows,
    _specs,
    grid_description,
    iter_instances,
    run_statement,
    search_conjecture,
)


def in_process_pool(monkeypatch, cores):
    """Swap the verifier's pool for one that runs its blocks in this process,
    with os.cpu_count() reporting cores; returns the list of max_workers
    each pool was started with."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", InProcessPool)
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

    @pytest.mark.parametrize("jobs, grid, workers", [
        (8, {"p": (5,), "alpha": (3,), "l": (8,), "n": (64,)}, 1),
        (3, {"p": (5,), "alpha": (3,), "l": (8,), "n": (63, 64)}, 2),
        (2, {"p": (5,), "alpha": (1, 2, 3), "l": (8,), "n": tuple(range(30))}, 2),
    ])
    def test_pool_never_outnumbers_its_blocks(self, monkeypatch, jobs, grid, workers):
        started = in_process_pool(monkeypatch, cores=64)
        parallel = run_statement("T2.1", grid=grid, jobs=jobs)
        assert started == [workers]
        assert parallel.to_json() == run_statement("T2.1", grid=grid).to_json()

    @pytest.mark.parametrize("cores, workers", [(3, 3), (1, 1), (None, 1)])
    def test_pool_never_outnumbers_the_cores(self, monkeypatch, cores, workers):
        # 90 rows, so a large job count plans 90 blocks; the fake pool runs
        # them in this process, and no worker is started.
        grid = {"p": (5,), "alpha": (1, 2, 3), "l": (8,), "n": tuple(range(30))}
        assert len(_payloads(STATEMENTS["T2.1"], grid, 10_000, DEFAULT_FAILURE_CAP)) == 90
        started = in_process_pool(monkeypatch, cores)
        parallel = run_statement("T2.1", grid=grid, jobs=10_000)
        assert started == [workers]
        assert parallel.to_json() == run_statement("T2.1", grid=grid).to_json()

    def test_payloads_carry_prefixes_not_instances(self):
        for sid, st in ALL_STATEMENTS.items():
            payloads = _payloads(st, {}, 2, DEFAULT_FAILURE_CAP)
            assert sum(len(pickle.dumps(p)) for p in payloads) < 128 * 1024, sid

    def test_failure_cap_keeps_the_first_failures_in_sweep_order(self, monkeypatch):
        monkeypatch.setitem(STATEMENTS, "FAKE.P", PAIRS)
        serial = run_statement("FAKE.P", failure_cap=5)
        parallel = run_statement("FAKE.P", jobs=3, failure_cap=5)
        first = [v for v in iter_instances(PAIRS) if pair_check(*v) is not True][:5]
        assert [tuple(f["params"].values()) for f in parallel.failures] == first
        assert parallel.to_json() == serial.to_json()
