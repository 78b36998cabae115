"""The frontier sweeps, pinned by digest.

CONJ1.2 reads every class sum of its binomial rows from residue folds
(sums._class_residues) mod p to one power past Weisman's exponent: one of
row n and one of row p*n + s at the least digit s, each next digit's row
stepped from it by Pascal's rule.  CONJ3.1 reads its Fleck sums from one
residue fold of each row, mod p to one power past its bound and Weisman's
exponent, its inverses read from one table per p, and
CONJ1.3 decides each instance from its power sum mod p**(ord_p(D) + 1), a
row of j at a time.  CONJ1.1 and T1.5-alpha1 read the normalized sums of
two levels and decide their lift congruences by one divisibility test.
On their default grids the rows are small; the frontier grids of
perfbench/workloads.py reach rows of several thousand terms, moduli up to
7**4 and weight degrees in the hundreds, so their reports are held here to
the digests perfbench/record_digests.py recorded, as test_acceptance holds
the default grids.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from flecklab.verifier import search_conjecture

DIGESTS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

# perfbench/workloads.py's FRONTIER_GRIDS, all five ids.
FRONTIER_GRIDS = {
    "CONJ1.1": {"p": (3, 5, 7), "alpha": (1, 2), "l": tuple(range(6)), "n": tuple(range(65))},
    "CONJ1.2": {"p": (2, 3, 5, 7), "n": tuple(range(97))},
    "CONJ1.3": {"p": (2, 3, 5, 7), "alpha": (0, 1, 2), "n": tuple(range(161))},
    "CONJ3.1": {"p": (3, 5, 7), "alpha": (2, 3, 4), "n": tuple(range(41))},
    "T1.5-alpha1": {"p": (2, 3, 5, 7), "l": tuple(range(5)), "n": tuple(range(129))},
}


@pytest.mark.parametrize("sid", sorted(FRONTIER_GRIDS))
def test_frontier_report_matches_its_digest(sid):
    digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    report = search_conjecture(sid, grid=FRONTIER_GRIDS[sid])
    assert report.checked > 0
    digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
    assert digest == digests[f"frontier/{sid}"]
