"""Workload definitions: which sweeps a workload runs, on which grids, at
how many worker processes, and in which order for a given seed.

Nothing here imports flecklab: run.py plans a run before any interpreter
has paid for that import.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# The catalog the reference digests were recorded for, copied here so that a
# run can be planned (and its order shuffled) without importing the code
# under test; a test checks the copy against flecklab.  Proven
# ids go through run_statement, conjecture ids through search_conjecture,
# exactly as the two sweep scripts call them.
THEOREM_IDS = (
    "T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.6", "T1.7", "T1.8",
    "C1.1cor", "C1.2cor", "C3.1cor",
    "L2.1", "L2.2", "L2.3", "L2.4", "L2.5", "T2.1",
    "L3.1", "L3.2", "T3.1",
    "L4.1", "L4.2", "T4.1", "R1.6",
)  # fmt: skip
SEARCH_IDS = ("CONJ1.1", "CONJ1.2", "CONJ1.3", "CONJ3.1", "T1.5-alpha1")
SUITE_IDS = THEOREM_IDS + SEARCH_IDS

# Conjecture grids widened toward the frontier the roadmap aims at (n up to
# 64..160, p = 7 added, alpha up to 4).  Few instances, large integers: the
# time goes into the class-sum kernel rather than into dispatch.
FRONTIER_GRIDS: dict[str, dict[str, tuple[int, ...]]] = {
    "CONJ1.1": {"p": (3, 5, 7), "alpha": (1, 2), "l": tuple(range(6)), "n": tuple(range(65))},
    "CONJ1.2": {"p": (2, 3, 5, 7), "n": tuple(range(97))},
    "CONJ1.3": {"p": (2, 3, 5, 7), "alpha": (0, 1, 2), "n": tuple(range(161))},
    "CONJ3.1": {"p": (3, 5, 7), "alpha": (2, 3, 4), "n": tuple(range(41))},
    "T1.5-alpha1": {"p": (2, 3, 5, 7), "l": tuple(range(5)), "n": tuple(range(129))},
}


@dataclass(frozen=True)
class Sweep:
    """One call into the public API: run_statement or search_conjecture."""

    key: str  # name of the sweep's reference digest
    sid: str
    search: bool
    grid: "dict[str, tuple[int, ...]] | None"


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple[Sweep, ...]
    parallel: bool

    def jobs(self) -> int:
        return max(2, nproc()) if self.parallel else 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


_SUITE = tuple(Sweep(f"default/{sid}", sid, sid in SEARCH_IDS, None) for sid in SUITE_IDS)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # The user's "verify the whole catalog" run, about 2.0M instances.  It
        # is bound by dispatch, padic validation and Fraction building, so it
        # loads padic, statements, verifier and quantities, and the kernel
        # little.  quantities' caches are mostly hits here.
        Workload("suite-serial", _SUITE, parallel=False),
        # The same sweeps fanned out over a process pool: worker start,
        # pickling of flat instance lists, cold worker caches.  Its digests
        # are suite-serial's, which checks that reports do not depend on the
        # worker count.
        Workload("suite-parallel", _SUITE, parallel=True),
        # Few instances with large integers: the time goes into math.comb in
        # the class-sum kernel and dispatch does little.  quantities' caches
        # are mostly misses here (CONJ3.1).
        Workload(
            "frontier",
            tuple(Sweep(f"frontier/{sid}", sid, True, g) for sid, g in FRONTIER_GRIDS.items()),
            parallel=False,
        ),
    )
}


def ordered(workload: Workload, seed: int) -> tuple[Sweep, ...]:
    """Sweep order for a seed: catalog order at seed 0, a seeded shuffle
    otherwise.  Reports do not depend on order, so digests still hold."""
    sweeps = list(workload.sweeps)
    if seed != 0:
        random.Random(seed).shuffle(sweeps)
    return tuple(sweeps)
