"""Grid sweeps over the statement catalog.

A sweep enumerates every parameter tuple of a statement's grid in a fixed
lexicographic order, runs the statement's check on each, and collects the
result into a VerificationReport.  Reports are deterministic: the same
statement and grid produce byte-identical JSON and CSV no matter how many
worker processes are used.

With one worker the sweep streams its instances.  With more, the parent
never builds the instance list: it plans about 8 blocks per worker, each a
contiguous run of the sweep order given as prefixes (values of the leading
axes) of near-equal instance count, and each worker enumerates the
instances under its prefixes itself.  Block results are merged in sweep
order and the failure cap is applied after the merge, so the report is the
one a single worker produces.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    EmptyGridError,
    InternalInvariantError,
    InvalidParameterError,
    UnknownStatementError,
)
from .statements import SEARCHES, SKIP, STATEMENTS, DerivedAxis, Statement

__all__ = [
    "VerificationReport",
    "grid_description",
    "iter_instances",
    "run_statement",
    "search_conjecture",
]

DEFAULT_FAILURE_CAP = 16


def _lookup(statement_id: str) -> Statement:
    st = STATEMENTS.get(statement_id) or SEARCHES.get(statement_id)
    if st is None:
        raise UnknownStatementError(f"unknown statement id {statement_id!r}")
    return st


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
        if not all(isinstance(v, int) for v in vals):
            raise InvalidParameterError(f"axis {axis!r} must be a sequence of integers")
        out[axis] = vals
    return out


def iter_instances(
    st: Statement, overrides: "Mapping[str, tuple[int, ...]] | None" = None
) -> Iterator[tuple[int, ...]]:
    """Yield parameter tuples (in st.axes order) in lexicographic sweep order."""
    axes = st.axes
    specs, split = _specs(st, overrides)
    tail = tuple(itertools.product(*specs[split:]))
    if split == 0:
        yield from tail
        return
    ctx: dict[str, int] = {}
    head = [0] * split
    # One iterator per prefix axis, deepest last; an exhausted one is popped.
    stack = [iter(_axis_values(specs[0], ctx))]
    while stack:
        depth = len(stack) - 1
        try:
            v = next(stack[-1])
        except StopIteration:
            stack.pop()
            continue
        head[depth] = ctx[axes[depth]] = v
        if depth + 1 < split:
            stack.append(iter(_axis_values(specs[depth + 1], ctx)))
            continue
        prefix = tuple(head)
        for rest in tail:
            yield prefix + rest


def _specs(
    st: Statement, overrides: "Mapping[str, tuple[int, ...]] | None"
) -> tuple[list, int]:
    """Each axis's values or DerivedAxis, and the split: from the last derived
    axis on, every axis has fixed values, so that tail is one product shared
    by every prefix."""
    overrides = overrides or {}
    specs = [overrides[axis] if axis in overrides else st.defaults[axis] for axis in st.axes]
    split = max((i + 1 for i, spec in enumerate(specs) if isinstance(spec, DerivedAxis)), default=0)
    return specs, split


def _axis_values(spec: "Sequence[int] | DerivedAxis", ctx: dict[str, int]) -> Sequence[int]:
    return spec.fn(ctx) if isinstance(spec, DerivedAxis) else spec


def _extend(
    axes: tuple[str, ...], specs: list, prefixes: list[tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """Each prefix followed by each value of the next axis, in sweep order."""
    depth = len(prefixes[0])
    return [
        prefix + (v,)
        for prefix in prefixes
        for v in _axis_values(specs[depth], dict(zip(axes, prefix)))
    ]


def _size(axes: tuple[str, ...], specs: list, split: int, prefix: tuple[int, ...]) -> int:
    """How many instances lie under prefix, counted without building them:
    walk the derived axes below it and multiply by the fixed tail's size."""
    tail = math.prod(len(spec) for spec in specs[max(len(prefix), split) :])
    if len(prefix) >= split:
        return tail
    level = [prefix]
    while len(level[0]) < split - 1:
        level = _extend(axes, specs, level)
        if not level:
            return 0
    last = specs[split - 1]
    return tail * sum(len(_axis_values(last, dict(zip(axes, q)))) for q in level)


def _plan(
    st: Statement, overrides: dict[str, tuple[int, ...]], blocks: int
) -> tuple[tuple[str, ...], list[tuple[list[tuple[int, ...]], int]]]:
    """Cut the sweep order into about `blocks` contiguous blocks of near-equal
    instance count.  The leading axes are pinned just deep enough to give at
    least `blocks` prefixes; a block is a run of prefixes and its instance
    count.  Returns the pinned axes and the blocks, in sweep order."""
    axes = st.axes
    specs, split = _specs(st, overrides)
    prefixes: list[tuple[int, ...]] = [()]
    while prefixes and len(prefixes) < blocks and len(prefixes[0]) < len(axes):
        prefixes = _extend(axes, specs, prefixes)
    sizes = [_size(axes, specs, split, prefix) for prefix in prefixes]
    total = sum(sizes)
    plan: list[tuple[list[tuple[int, ...]], int]] = []
    run: list[tuple[int, ...]] = []
    count = done = 0
    cut = 1
    for prefix, size in zip(prefixes, sizes):
        if not size:
            continue
        run.append(prefix)
        count += size
        done += size
        # Close the run at the first prefix reaching the next cut point
        # total * k / blocks; the last prefix always reaches k = blocks.
        if done * blocks >= total * cut:
            plan.append((run, count))
            run, count = [], 0
            cut = done * blocks // total + 1
    depth = len(prefixes[0]) if prefixes else 0
    return axes[:depth], plan


def _block_instances(
    st: Statement,
    overrides: dict[str, tuple[int, ...]],
    pinned: tuple[str, ...],
    prefixes: Iterable[tuple[int, ...]],
) -> Iterator[tuple[int, ...]]:
    """The instances under each prefix in turn, each prefix pinned through
    single-value overrides (derived axes included)."""
    for prefix in prefixes:
        yield from iter_instances(st, {**overrides, **{a: (v,) for a, v in zip(pinned, prefix)}})


def grid_description(
    st: Statement, overrides: "Mapping[str, tuple[int, ...]] | None" = None
) -> dict[str, object]:
    """Grid summary for reports: explicit value lists, or a text description
    for axes whose default values are derived from earlier axes."""
    overrides = dict(overrides or {})
    desc: dict[str, object] = {}
    for axis in st.axes:
        if axis in overrides:
            desc[axis] = list(overrides[axis])
        else:
            spec = st.defaults[axis]
            desc[axis] = spec.description if isinstance(spec, DerivedAxis) else list(spec)
    return desc


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
    st: Statement, instances: Iterable[tuple[int, ...]], cap: int
) -> tuple[int, int, list[dict]]:
    # A check's parameters are its axes, in order, so values go positionally.
    check = st.check
    checked = skipped = 0
    failures: list[dict] = []
    for values in instances:
        try:
            res = check(*values)
        except InternalInvariantError as exc:
            raise InternalInvariantError(
                f"{st.id} at {dict(zip(st.axes, values))}: {exc}"
            ) from exc
        if res is True:
            checked += 1
        elif res == SKIP:
            skipped += 1
        else:
            checked += 1
            if len(failures) < cap:
                failures.append(_as_failure(st, values, res))
    return checked, skipped, failures


def _payloads(
    st: Statement, overrides: dict[str, tuple[int, ...]], jobs: int, cap: int
) -> list[tuple]:
    """What each worker is sent: (statement id, overrides, pinned axes,
    prefixes, failure cap), one per planned block, in sweep order."""
    pinned, plan = _plan(st, overrides, 8 * jobs)
    return [(st.id, overrides, pinned, prefixes, cap) for prefixes, _ in plan]


def _run_block(payload: tuple) -> tuple[int, int, list[dict]]:
    statement_id, overrides, pinned, prefixes, cap = payload
    st = _lookup(statement_id)
    return _run_chunk(st, _block_instances(st, overrides, pinned, prefixes), cap)


def _sweep(
    st: Statement,
    overrides: dict[str, tuple[int, ...]],
    jobs: int,
    cap: int,
) -> tuple[int, int, list[dict]]:
    if jobs <= 1:
        return _run_chunk(st, iter_instances(st, overrides), cap)
    payloads = _payloads(st, overrides, jobs, cap)
    if not payloads:
        return 0, 0, []
    checked = skipped = 0
    failures: list[dict] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for c, s, f in pool.map(_run_block, payloads):
            checked += c
            skipped += s
            failures.extend(f)
    return checked, skipped, failures[:cap]


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

    def _payload(self) -> dict[str, object]:
        return {
            "statement": self.statement,
            "grid": {k: v for k, v in self.grid.items()},
            "checked": self.checked,
            "skipped": self.skipped,
            "failures": [
                {
                    "params": dict(f["params"]),
                    "observed": f["observed"],
                    "expected": f["expected"],
                }
                for f in self.failures
            ],
            "status": self.status,
        }

    def to_json(self) -> str:
        return json.dumps(self._payload(), indent=2)

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


def run_statement(
    statement_id: str,
    grid: "Mapping[str, Sequence[int]] | None" = None,
    jobs: int = 1,
    failure_cap: int = DEFAULT_FAILURE_CAP,
) -> VerificationReport:
    """Sweep one cataloged statement.  Conjectures are allowed here too; a
    failing conjecture instance is reported as a counterexample rather than
    as a library failure."""
    st = STATEMENTS.get(statement_id)
    if st is None:
        raise UnknownStatementError(
            f"unknown statement id {statement_id!r}; known ids: {', '.join(STATEMENTS)}"
        )
    return _run(st, grid, jobs, failure_cap)


def search_conjecture(
    statement_id: str,
    grid: "Mapping[str, Sequence[int]] | None" = None,
    jobs: int = 1,
    failure_cap: int = DEFAULT_FAILURE_CAP,
) -> VerificationReport:
    """Sweep one conjectural statement looking for counterexamples."""
    st = SEARCHES.get(statement_id)
    if st is None:
        known = ", ".join(SEARCHES)
        raise UnknownStatementError(
            f"unknown conjecture id {statement_id!r}; known conjecture ids: {known}"
        )
    return _run(st, grid, jobs, failure_cap)
