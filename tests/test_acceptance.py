"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE <k> PASS: ...` line (visible with -s or in
the captured-output section) and is named so `pytest -v` shows one pass/fail
line per criterion.  Time limits are asserted inside the tests; all sweeps
here run the full default grids with a single worker unless the criterion
is specifically about parallelism.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

from flecklab.cli import main
from flecklab.padic import carries, factorial_order, padic_order
from flecklab.quantities import order_gap
from flecklab.statements import SEARCHES, SKIP, Statement
from flecklab.sums import series_coefficient
from flecklab.padic import PrimePowerModulus
from flecklab.verifier import run_statement, search_conjecture

# --- frozen oracle data ----------------------------------------------------

# Order gaps (observed order minus degree bound) for p=3, alpha=2, r=2,
# n = 90..98, weight degrees 0..9; frozen from an independent exact run.
GAP_TABLE = {
    90: [1, 0, 2, 0, 1, 0, 1, 0, 3, 0],
    91: [1, 0, 1, 0, 3, 0, 1, 0, 1, 0],
    92: [0, 1, 0, 3, 0, 1, 0, 1, 0, 2],
    93: [0, 2, 0, 1, 0, 1, 0, 4, 0, 1],
    94: [0, 1, 0, 2, 0, 1, 0, 1, 0, 3],
    95: [1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
    96: [1, 0, 0, 0, 0, 1, 2, 0, 0, 0],
    97: [1, 0, 0, 0, 0, 1, 1, 0, 0, 0],
    98: [1, 3, 0, 1, 0, 1, 1, 4, 0, 1],
}

# 2-adic orders for p=2, alpha=1, r=0, n=20, weight degrees 0..21.
ORDERS_N20 = [19, 19, 17, 17, 14, 14, 12, 12, 10, 10, 8, 8, 8, 8, 11, 9, 9, 9, 8, 8, 8, 8]

CORE_SUITE = ("T1.1", "T1.2", "T1.3", "T1.4", "T2.1", "L2.1", "L2.2", "L2.5", "C1.1cor")
CONVOLUTION_SUITE = ("L2.3", "L2.4")
REDUCTION_SUITE = (
    "T1.5", "T1.6", "T1.7", "C1.2cor", "T3.1", "C3.1cor",
    "L3.1", "L3.2", "L4.1", "L4.2", "T4.1", "T1.8", "R1.6",
)
SEARCH_SUITE = ("CONJ1.1", "CONJ1.2", "CONJ1.3", "CONJ3.1", "T1.5-alpha1")


# SHA-256 of each default-grid report's to_json(), as perfbench/record_digests.py
# recorded them; the suites below sweep all 29 ids, so every report is pinned.
DIGESTS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def _passes(statement_ids, runner) -> list:
    digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    reports = [runner(sid) for sid in statement_ids]
    for report in reports:
        assert report.passed, f"{report.statement}: {report.status} {report.failures[:1]}"
        assert report.checked > 0 and report.failures == ()
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == digests[f"default/{report.statement}"], report.statement
    return reports


def test_acceptance_01_gap_table_is_byte_exact(capsys):
    start = time.perf_counter()
    assert main(["table1", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    expected_lines = ["n," + ",".join(f"l={l}" for l in range(10))]
    for n in range(90, 99):
        expected_lines.append(",".join([str(n), *map(str, GAP_TABLE[n])]))
    assert out == "\n".join(expected_lines) + "\n"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: gap table byte-exact on the fixed grid ({elapsed:.2f}s)")


def test_acceptance_02_order_profile_matches_frozen_row(capsys):
    start = time.perf_counter()
    assert main(["example13"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["orders"] == ORDERS_N20
    assert payload["degree_bounds"][:11] == [18 - l for l in range(11)]
    assert payload["floor_bound"] == 8
    # The degree bound is attained at l=4 and the floor bound from l=10 on.
    assert payload["orders"][4] == payload["degree_bounds"][4] == 14
    assert payload["orders"][10] == payload["floor_bound"]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 2 PASS: n=20 order profile and bounds match ({elapsed:.2f}s)")


def test_acceptance_03_equality_window_and_carry_increment(capsys):
    start = time.perf_counter()
    for l in (1, 2, 3, 4):
        assert order_gap(2, 2, 20, 1, l) == 0
    assert carries(2, 1, 3) == 2 == carries(2, 1, 1) + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    with capsys.disabled():
        print(
            "\nACCEPTANCE 3 PASS: degree bound attained for 0 < l < 5 at "
            f"p=alpha=2, n=20, r=1 ({elapsed:.2f}s)"
        )


def test_acceptance_04_core_order_bound_suite(capsys):
    start = time.perf_counter()
    reports = _passes(CORE_SUITE, run_statement)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    total = sum(r.checked for r in reports)
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 4 PASS: {len(reports)} order-bound statements, "
            f"{total} instances, single worker ({elapsed:.2f}s)"
        )


def test_acceptance_05_convolution_suite(capsys):
    start = time.perf_counter()
    reports = _passes(CONVOLUTION_SUITE, run_statement)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 5 PASS: splitting and self-convolution identities, "
            f"{sum(r.checked for r in reports)} instances ({elapsed:.2f}s)"
        )


def test_acceptance_06_reduction_and_parity_suite(capsys):
    start = time.perf_counter()
    reports = _passes(REDUCTION_SUITE, run_statement)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 6 PASS: {len(reports)} digit-reduction/parity statements, "
            f"{sum(r.checked for r in reports)} instances ({elapsed:.2f}s)"
        )


def test_acceptance_07_series_coefficients_against_long_division(capsys):
    start = time.perf_counter()

    def oracle(n: int, m: int, l: int, r: int) -> int:
        num = [(-1) ** k * math.comb(n, k) if k <= n else 0 for k in range(r + 1)]
        den = [0] * (r + 1)
        for j in range(r // m + 1):
            den[m * j] = (-1) ** j * math.comb(l + 1, j)
        coeffs = [0] * (r + 1)
        for i in range(r + 1):
            acc = num[i]
            for j in range(1, i + 1):
                if den[j]:
                    acc -= den[j] * coeffs[i - j]
            coeffs[i] = acc
        return coeffs[r]

    checked = 0
    for p, alpha in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        pm = PrimePowerModulus(p, alpha)
        for n in (0, 3, 7, 12, 20):
            for l in range(5):
                for r in range(61):
                    assert series_coefficient(pm, n, l, r) == oracle(n, pm.m, l, r)
                    checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 7 PASS: {checked} series coefficients equal the "
            f"long-division oracle ({elapsed:.2f}s)"
        )


def test_acceptance_08_carry_and_factorial_order_oracles(capsys):
    start = time.perf_counter()
    rng = random.Random(20260816)
    primes = (2, 3, 5, 7, 11, 13)
    for _ in range(10_000):
        p = rng.choice(primes)
        a, b = rng.randrange(4001), rng.randrange(4001)
        assert carries(p, a, b) == (
            factorial_order(p, a + b) - factorial_order(p, a) - factorial_order(p, b)
        )
    for _ in range(10_000):
        p = rng.choice(primes)
        n = rng.randrange(200_000)
        digit_sum = 0
        x = n
        while x:
            digit_sum += x % p
            x //= p
        assert factorial_order(p, n) == (n - digit_sum) // (p - 1)
    for _ in range(300):
        p = rng.choice(primes)
        n = rng.randrange(2000)
        assert factorial_order(p, n) == padic_order(p, math.factorial(n))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(
            "\nACCEPTANCE 8 PASS: 2x10^4 seeded carry/factorial-order samples "
            f"plus 300 direct factorial checks ({elapsed:.2f}s)"
        )


def test_acceptance_09_searches_find_no_counterexamples(capsys, monkeypatch):
    start = time.perf_counter()
    reports = _passes(SEARCH_SUITE, search_conjecture)
    # The exit-3 path itself, exercised through a synthetic failing search.
    refuted = Statement(
        id="FAKE.CONJ",
        kind="conjecture",
        description="synthetic refuted conjecture",
        defaults={"n": (0, 1, 2)},
        check=lambda n: True if n == 0 else ("observed 1", "expected 0"),
    )
    monkeypatch.setitem(SEARCHES, "FAKE.CONJ", refuted)
    assert main(["conjecture", "FAKE.CONJ"]) == 3
    capsys.readouterr()  # swallow the synthetic report
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 9 PASS: {len(reports)} conjecture sweeps clean "
            f"({sum(r.checked for r in reports)} instances), counterexample exit "
            f"code verified ({elapsed:.2f}s)"
        )


def test_acceptance_10_parallel_reports_are_byte_identical(capsys):
    start = time.perf_counter()
    serial = run_statement("T1.5", jobs=1)
    parallel = run_statement("T1.5", jobs=4)
    assert serial.to_json() == parallel.to_json()
    assert serial.to_csv() == parallel.to_csv()
    assert serial.passed and serial.checked > 0
    # Every default-grid report at jobs=2 hashes to its recorded digest.
    theorems = CORE_SUITE + CONVOLUTION_SUITE + REDUCTION_SUITE
    reports = _passes(theorems, lambda sid: run_statement(sid, jobs=2))
    reports += _passes(SEARCH_SUITE, lambda sid: search_conjecture(sid, jobs=2))
    assert len(reports) == 29
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 10 PASS: jobs=1 and jobs=4 reports byte-identical on "
            f"{serial.checked} instances, all 29 default-grid reports at jobs=2 "
            f"match their digests ({elapsed:.2f}s)"
        )
