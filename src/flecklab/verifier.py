"""Grid sweeps over the statement catalog.

A sweep enumerates every parameter tuple of a statement's grid in a fixed
lexicographic order, runs the statement's check on each, and collects the
result into a VerificationReport.  Reports are deterministic: the same
statement and grid produce byte-identical JSON and CSV no matter how many
worker processes are used, because chunks are merged back in submission
order and the failure cap is applied to the merged stream.
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

from .errors import EmptyGridError, InvalidParameterError, UnknownStatementError
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
    overrides = overrides or {}
    axes = st.axes
    specs = [overrides[axis] if axis in overrides else st.defaults[axis] for axis in axes]
    # From the last derived axis on, every axis has fixed values: that tail is
    # one product, shared by every prefix.
    split = max((i + 1 for i, spec in enumerate(specs) if isinstance(spec, DerivedAxis)), default=0)
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


def _axis_values(spec: "Sequence[int] | DerivedAxis", ctx: dict[str, int]) -> Sequence[int]:
    return spec.fn(ctx) if isinstance(spec, DerivedAxis) else spec


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
    payload: "tuple[str, Iterable[tuple[int, ...]], int]",
) -> tuple[int, int, list[dict]]:
    statement_id, chunk, cap = payload
    st = _lookup(statement_id)
    # A check's parameters are its axes, in order, so values go positionally.
    check = st.check
    checked = skipped = 0
    failures: list[dict] = []
    for values in chunk:
        res = check(*values)
        if res is True:
            checked += 1
        elif res == SKIP:
            skipped += 1
        else:
            checked += 1
            if len(failures) < cap:
                failures.append(_as_failure(st, values, res))
    return checked, skipped, failures


def _sweep(
    st: Statement,
    overrides: dict[str, tuple[int, ...]],
    jobs: int,
    cap: int,
) -> tuple[int, int, list[dict]]:
    if jobs <= 1:
        return _run_chunk((st.id, iter_instances(st, overrides), cap))
    instances = list(iter_instances(st, overrides))
    if not instances:
        return 0, 0, []
    size = max(1, math.ceil(len(instances) / (jobs * 4)))
    chunks = [instances[i : i + size] for i in range(0, len(instances), size)]
    checked = skipped = 0
    failures: list[dict] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for c, s, f in pool.map(_run_chunk, [(st.id, chunk, cap) for chunk in chunks]):
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
