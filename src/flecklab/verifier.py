"""Grid sweeps over the statement catalog.

A sweep enumerates every parameter tuple of a statement's grid in a fixed
lexicographic order, runs the statement's check on each, and collects the
result into a VerificationReport.  Reports are deterministic: the same
statement and grid produce byte-identical JSON and CSV no matter how many
worker processes are used.

The sweep walks the grid by rows: a row is a prefix (values of every axis
but the last) with the last axis's values under it, fixed or derived.  One
walker, _rows, is the only code that reads axis values, so the sweep order
is defined once.  Each row goes to Statement.check_row in one call, which
skips a row outside the statement's hypothesis, or runs its row form, or
the check once per value for a row handed back or without a row form.
iter_instances is the flattening of the rows.  An InternalInvariantError
raised in a row is named by its instance: the row is run again one check
at a time, and the first check that raises names it.  A row form reads
its whole row before any verdict, so this rule, not the row form's order
of reads, is what decides the instance a user sees.

A sweep's workers are the job count bounded by the cores, or one without
os.fork.  With one worker the sweep streams its rows and plans nothing.
With more, the parent never builds the instance list: it plans about 8
blocks per worker, each a run of whole rows named by prefixes of the
grid's leading axes (never the last), counted in one walk; a plan of one
block streams too.  Otherwise _fan_out runs one closure per block index in
at most one forked child per block and per core, at least two.  Every
index is in one pipe before the forks, made with SIGINT held; each child,
the closure inherited and not pickled, reads the next index when free,
stops at EOF or its first exception and sends its results back as one
pickle, an exception with its formatted traceback.  Every child is reaped
(killed first if the parent is interrupted) before the lowest block's
error, raised from that traceback, or one naming a block left without a
result, is raised.  Blocks merge in sweep order before the failure cap
applies: the report is one worker's.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyGridError,
    InternalInvariantError,
    InvalidParameterError,
    UnknownStatementError,
)
from .padic import prime_power_modulus
from .statements import SEARCHES, SKIP, STATEMENTS, DerivedAxis, Statement

__all__ = [
    "VerificationReport",
    "grid_description",
    "iter_instances",
    "run_statement",
    "search_conjecture",
]

DEFAULT_FAILURE_CAP = 16


def _clean_overrides(st: Statement, grid: "Mapping[str, Sequence[int]] | None") -> dict[str, tuple[int, ...]]:
    if not grid:
        return {}
    out: dict[str, tuple[int, ...]] = {}
    for axis, values in grid.items():
        if axis not in st.axes:
            raise InvalidParameterError(
                f"{st.id} has no axis {axis!r}; its axes are {', '.join(st.axes)}"
            )
        vals = tuple(values)
        if not vals:
            raise InvalidParameterError(f"axis {axis!r} was given no values")
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in vals):
            raise InvalidParameterError(f"axis {axis!r} must be a sequence of integers")
        # A repeated value would be swept, and counted, twice.
        if len(set(vals)) < len(vals):
            repeated = next(v for i, v in enumerate(vals) if v in vals[:i])
            raise InvalidParameterError(f"axis {axis!r} repeats the value {repeated}")
        out[axis] = vals
    # p and alpha are a modulus wherever an axis bears the name: checked here,
    # as rows outside a hypothesis never reach a check that would raise.
    for p in out.get("p", ()):
        prime_power_modulus(p, 0)
    for alpha in out.get("alpha", ()):
        prime_power_modulus(2, alpha)
    return out


def iter_instances(
    st: Statement, overrides: "Mapping[str, tuple[int, ...]] | None" = None
) -> Iterator[tuple[int, ...]]:
    """Yield parameter tuples (in st.axes order) in lexicographic sweep order:
    the sweep's rows, flattened."""
    return _instances(st.axes, _specs(st, overrides))


def _instances(axes: tuple[str, ...], specs: list) -> Iterator[tuple[int, ...]]:
    for prefix, values in _rows(axes, specs):
        for v in values:
            yield prefix + (v,)


def _rows(axes: tuple[str, ...], specs: list) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
    """Yield the rows of the grid of axes and their specs in sweep order:
    each prefix (values of every axis but the last) with the last axis's
    values under it, fixed or derived.  Prefixes whose last-axis window is
    empty are left out.  The one walk of a grid: everything else reads
    axis values through it."""
    last, depth = specs[-1], len(axes) - 1
    ctx: dict[str, int] = {}
    if depth == 0:
        values = _axis_values(last, ctx)
        if values:
            yield (), values
        return
    head = [0] * depth
    # One iterator per prefix axis, deepest last; an exhausted one is popped.
    # Axis values are ints, so None marks exhaustion.
    stack = [iter(_axis_values(specs[0], ctx))]
    while stack:
        d = len(stack) - 1
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        head[d] = ctx[axes[d]] = v
        if d + 1 < depth:
            stack.append(iter(_axis_values(specs[d + 1], ctx)))
            continue
        values = _axis_values(last, ctx)
        if values:
            yield tuple(head), values


def _specs(st: Statement, overrides: "Mapping[str, tuple[int, ...]] | None") -> list:
    """Each axis's values or DerivedAxis, in axis order."""
    overrides = overrides or {}
    return [overrides[axis] if axis in overrides else st.defaults[axis] for axis in st.axes]


def _axis_values(spec: "Sequence[int] | DerivedAxis", ctx: dict[str, int]) -> Sequence[int]:
    return spec.fn(ctx) if isinstance(spec, DerivedAxis) else spec


def _plan(
    st: Statement, overrides: dict[str, tuple[int, ...]], blocks: int
) -> list[tuple[list[tuple[int, ...]], int]]:
    """Cut the sweep order into about `blocks` contiguous blocks of whole rows
    and near-equal instance count.  The prefixes are the instances of the
    grid cut down to its leading axes, just deep enough to give at least
    `blocks` of them but never the last axis; a block is a run of prefixes
    and its instance count, in sweep order.  The counts come from one walk
    of the grid: its rows under a prefix are one consecutive run, since no
    axis repeats a value."""
    axes, specs = st.axes, _specs(st, overrides)
    depth, found = 0, 1
    while found < blocks and depth < len(axes) - 1:
        depth += 1
        found = sum(1 for _ in _instances(axes[:depth], specs[:depth]))
    # Past the prefix axes and the last derived axis every axis has fixed
    # values: a tail whose size is multiplied in instead of walked.
    walk = max([depth + 1] + [i + 1 for i, spec in enumerate(specs) if isinstance(spec, DerivedAxis)])
    tail = math.prod(len(spec) for spec in specs[walk:])
    runs = itertools.groupby(_rows(axes[:walk], specs[:walk]), key=lambda row: row[0][:depth])
    sizes = [(prefix, tail * sum(len(values) for _, values in rows)) for prefix, rows in runs]
    total = sum(size for _, size in sizes)
    plan: list[tuple[list[tuple[int, ...]], int]] = []
    run: list[tuple[int, ...]] = []
    count = done = 0
    cut = 1
    for prefix, size in sizes:
        run.append(prefix)
        count += size
        done += size
        # Close the run at the first prefix reaching the next cut point
        # total * k / blocks; the last prefix always reaches k = blocks.
        if done * blocks >= total * cut:
            plan.append((run, count))
            run, count = [], 0
            cut = done * blocks // total + 1
    return plan


def _block_rows(
    st: Statement, overrides: dict[str, tuple[int, ...]], prefixes: Iterable[tuple[int, ...]]
) -> Iterator[tuple[tuple[int, ...], Sequence[int]]]:
    """The rows under each prefix in turn: the full grid walked with the
    prefix's values pinned (derived axes included)."""
    specs = _specs(st, overrides)
    for prefix in prefixes:
        yield from _rows(st.axes, [(v,) for v in prefix] + specs[len(prefix) :])


def grid_description(
    st: Statement, overrides: "Mapping[str, tuple[int, ...]] | None" = None
) -> dict[str, object]:
    """Grid summary for reports: explicit value lists, or a text description
    for axes whose default values are derived from earlier axes."""
    return {
        axis: spec.description if isinstance(spec, DerivedAxis) else list(spec)
        for axis, spec in zip(st.axes, _specs(st, overrides))
    }


def _as_failure(st: Statement, values: tuple[int, ...], res: object) -> dict[str, object]:
    if isinstance(res, tuple) and len(res) == 2:
        observed, expected = res
    else:  # a check drifted from the return convention; still report it
        observed, expected = repr(res), "True"
    return {
        "params": dict(zip(st.axes, values)),
        "observed": str(observed),
        "expected": str(expected),
    }


def _run_chunk(
    st: Statement, rows: Iterable[tuple[tuple[int, ...], Sequence[int]]], cap: int
) -> tuple[int, int, list[dict]]:
    checked = skipped = 0
    failures: list[dict] = []
    for prefix, values in rows:
        try:
            results = st.check_row(prefix, values)
        except InternalInvariantError as exc:
            raise _named(st, prefix, values, exc) from exc
        for v, res in zip(values, results, strict=True):
            if res is True:
                checked += 1
            elif res == SKIP:
                skipped += 1
            else:
                checked += 1
                if len(failures) < cap:
                    failures.append(_as_failure(st, prefix + (v,), res))
    return checked, skipped, failures


def _named(
    st: Statement, prefix: tuple[int, ...], values: Sequence[int], exc: InternalInvariantError
) -> InternalInvariantError:
    """A row's InternalInvariantError, named by its instance: the row is run
    again one check at a time to find it.  An error that no single check
    raises (a row form's own) is named by the row's prefix."""
    for v in values:
        try:
            st(*prefix, v)
        except InternalInvariantError as inner:
            params = dict(zip(st.axes, prefix + (v,)))
            return InternalInvariantError(f"{st.id} at {params}: {inner}")
    return InternalInvariantError(f"{st.id} at {dict(zip(st.axes, prefix))}: {exc}")


def _fan_out(run: Callable[[int], object], count: int, workers: int) -> list:
    """run(i) for every i < count, in index order, from `workers` forked children."""
    import pickle  # here, so that importing the package does no new work
    import signal
    # Every index (1,024 fit one page of pipe) is written before a fork.
    todo, tickets = os.pipe()
    os.write(tickets, b"".join(i.to_bytes(4, "little") for i in range(count)))
    os.close(tickets)
    pids, outs, sent = [], [], []
    # Held while forking: a SIGINT in the at-fork hooks would be lost.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        for _ in range(workers):
            out, into = os.pipe()
            outs.append(out)
            if (pid := os.fork()) == 0:
                _work(run, todo, into, mask)
            os.close(into)
            pids.append(pid)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for out in outs:
            with open(out, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    finally:
        for fd in [todo, *outs]:
            os.close(fd)
        for pid in pids[len(sent) :]:  # not read to EOF: the parent was interrupted
            os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    results = {}
    for data in sent:
        for i, res, *tb in pickle.loads(data) if data else ():
            if tb:  # an exception, with the worker's traceback as its cause
                res.__cause__ = _RemoteTraceback(tb[0])
            results[i] = res
    lost = f"has no result; worker exit statuses {codes}"
    merged = [results[i] if i in results else RuntimeError(f"block {i} {lost}") for i in range(count)]
    if errors := [res for res in merged if isinstance(res, BaseException)]:
        raise errors[0]
    return merged


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, the __cause__ of the exception it sent."""

    def __str__(self) -> str:
        return self.args[0]


def _work(run: Callable[[int], object], todo: int, into: int, mask: set) -> None:
    """Run blocks until EOF or any exception, which the parent raises (an
    interrupt too) with this worker's formatted traceback; leave by
    os._exit, so no atexit handler or flush runs twice."""
    import pickle
    import signal
    done = []
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while ticket := os.read(todo, 4):
            i = int.from_bytes(ticket, "little")
            try:
                done.append((i, run(i)))
            except BaseException as exc:
                import traceback

                tb = traceback.format_exc()
                try:
                    pickle.loads(pickle.dumps(exc))
                except Exception:  # unpicklable: sent as its type and message
                    exc = RuntimeError(f"{type(exc).__name__}: {exc}")
                done.append((i, exc, f'\n"""\n{tb}"""'))
                break
        with open(into, "wb", closefd=False) as pipe:
            pickle.dump(done, pipe)
        os._exit(0)
    finally:
        os._exit(1)


def _sweep(
    st: Statement,
    overrides: dict[str, tuple[int, ...]],
    jobs: int,
    cap: int,
) -> tuple[int, int, list[dict]]:
    # Reports do not depend on the job count: workers are bounded by cores and blocks.
    workers = min(jobs, os.cpu_count() or 1) if hasattr(os, "fork") else 1
    plan = _plan(st, overrides, min(8 * workers, 1024)) if workers > 1 else []
    if len(plan) <= 1:
        return _run_chunk(st, _rows(st.axes, _specs(st, overrides)), cap)
    blocks = _fan_out(
        lambda i: _run_chunk(st, _block_rows(st, overrides, plan[i][0]), cap),
        len(plan),
        min(workers, len(plan)),
    )
    return sum(b[0] for b in blocks), sum(b[1] for b in blocks), [f for b in blocks for f in b[2]][:cap]


def delimited(rows: Iterable[Sequence[str]], delimiter: str) -> str:
    """Rows written as CSV (or TSV) text with newline line endings."""
    buf = io.StringIO()
    csv.writer(buf, delimiter=delimiter, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class VerificationReport:
    statement: str
    grid: Mapping[str, object]
    checked: int
    skipped: int
    failures: tuple[Mapping[str, object], ...]
    status: str  # "pass", "fail", or "counterexample-found"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    def to_rows(self) -> list[list[str]]:
        axes = list(self.grid)
        header = ["statement", "status", "checked", "skipped", *axes, "observed", "expected"]
        rows = [
            header,
            [
                self.statement,
                self.status,
                str(self.checked),
                str(self.skipped),
                *[""] * len(axes),
                "",
                "",
            ],
        ]
        for f in self.failures:
            rows.append(
                [
                    self.statement,
                    self.status,
                    "",
                    "",
                    *[str(f["params"][a]) for a in axes],
                    str(f["observed"]),
                    str(f["expected"]),
                ]
            )
        return rows

    def to_csv(self) -> str:
        return delimited(self.to_rows(), ",")

    def to_tsv(self) -> str:
        return delimited(self.to_rows(), "\t")


def _run(
    st: Statement,
    grid: "Mapping[str, Sequence[int]] | None",
    jobs: int,
    failure_cap: int,
) -> VerificationReport:
    if jobs < 1:
        raise InvalidParameterError("jobs must be at least 1")
    if failure_cap < 1:
        raise InvalidParameterError("failure_cap must be at least 1")
    overrides = _clean_overrides(st, grid)
    checked, skipped, failures = _sweep(st, overrides, jobs, failure_cap)
    if checked == 0:
        raise EmptyGridError(
            f"{st.id}: the grid produced no checkable instances "
            f"({skipped} skipped by preconditions)"
        )
    if failures:
        status = "counterexample-found" if st.kind == "conjecture" else "fail"
    else:
        status = "pass"
    return VerificationReport(
        statement=st.id,
        grid=grid_description(st, overrides),
        checked=checked,
        skipped=skipped,
        failures=tuple(failures),
        status=status,
    )


def _find(table: Mapping[str, Statement], statement_id: str, unknown: str) -> Statement:
    """The table's entry for statement_id; unknown, filled in with the id
    and the table's ids, is the error text when there is none."""
    st = table.get(statement_id)
    if st is None:
        raise UnknownStatementError(unknown.format(statement_id, ", ".join(table)))
    return st


def run_statement(
    statement_id: str,
    grid: "Mapping[str, Sequence[int]] | None" = None,
    jobs: int = 1,
    failure_cap: int = DEFAULT_FAILURE_CAP,
) -> VerificationReport:
    """Sweep one cataloged statement.  Conjectures are allowed here too; a
    failing conjecture instance is reported as a counterexample rather than
    as a library failure."""
    st = _find(STATEMENTS, statement_id, "unknown statement id {!r}; known ids: {}")
    return _run(st, grid, jobs, failure_cap)


def search_conjecture(
    statement_id: str,
    grid: "Mapping[str, Sequence[int]] | None" = None,
    jobs: int = 1,
    failure_cap: int = DEFAULT_FAILURE_CAP,
) -> VerificationReport:
    """Sweep one conjectural statement looking for counterexamples."""
    st = _find(SEARCHES, statement_id, "unknown conjecture id {!r}; known conjecture ids: {}")
    return _run(st, grid, jobs, failure_cap)
