"""Tests of the benchmark itself, on few-instance grids.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import flecklab  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    SEARCH_IDS,
    SUITE_IDS,
    THEOREM_IDS,
    WORKLOADS,
    Sweep,
    Workload,
    ordered,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = (
    Sweep("tiny/T1.1", "T1.1", False, {"p": (2, 3), "alpha": (1,), "n": (0, 2, 5), "l": (0, 1)}),
    Sweep("tiny/L2.2", "L2.2", False, {"p": (2,), "alpha": (1, 2), "l": (0, 1), "n": (1, 2, 3)}),
    Sweep("tiny/C1.1cor", "C1.1cor", False, {"p": (2,), "alpha": (1,), "m": (1, 2), "n": (1, 2)}),
    Sweep("tiny/CONJ3.1", "CONJ3.1", True, {"p": (3,), "alpha": (2,), "n": (0, 1, 2, 3)}),
)


def reference_digests(sweeps) -> dict[str, str]:
    """Digests computed in this process, independently of the worker."""
    out = {}
    for s in sweeps:
        api = flecklab.search_conjecture if s.search else flecklab.run_statement
        text = api(s.sid, grid=s.grid).to_json()
        out[s.key] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


@pytest.fixture(scope="module")
def digests() -> dict[str, str]:
    return reference_digests(TINY)


def spec_units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_end_to_end_run_reports_every_metric_and_checks_digests(digests, parallel):
    workload = Workload("tiny", TINY, parallel=parallel)
    result, lines = run.run(workload, seed=0, seconds=0.1, trace=False, digests=digests)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert f"error_rate: 0/{len(TINY)} sweeps" in lines


@pytest.mark.parametrize("parallel", [False, True], ids=["serial", "parallel"])
def test_per_layer_run_reports_every_metric(digests, parallel, tmp_path):
    workload = Workload("tiny", TINY, parallel=parallel)
    spans = tmp_path / "spans.txt"
    result, _ = run.run(workload, seed=0, seconds=0.1, trace=True, digests=digests, spans=spans)
    # Untraced, traced and cold passes all reproduce the reference reports.
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(TINY) * (4 if parallel else 3)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec_units("per_layer")
    for layer in ("padic", "combinatorics", "sums", "quantities", "statements"):
        assert metrics[f"{layer}.calls"] > 0
    assert metrics["sums.terms"] > 0
    assert metrics["verifier.instances"] == metrics["statements.calls"]
    assert 0 < metrics["verifier.useful_ratio"] <= 1
    assert metrics["verifier.sweep_s.T1.1"] > 0 and metrics["verifier.cold_sweep_s.T1.1"] > 0
    assert metrics["verifier.sweep_s.L3.1"] == 0  # not swept by this workload
    assert (metrics["verifier.pool.shipped_bytes"] > 0) == parallel
    assert (metrics["verifier.pool.child_cpu_s"] > 0) == parallel
    header = json.loads(spans.read_text(encoding="utf-8").splitlines()[0])
    assert "statements.check.T1.1" in header["names"]


def test_tampered_digest_is_an_error(digests):
    tampered = dict(digests, **{"tiny/L2.2": "0" * 64})
    workload = Workload("tiny", TINY, parallel=False)
    result, lines = run.run(workload, seed=0, seconds=0.1, trace=False, digests=tampered)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["failed"] / result["attempted"] > 0  # the error rate
    assert any("tiny/L2.2" in line and "differs" in line for line in lines)


def test_failed_sweeps_counts_raised_and_missing():
    result = {
        "sweeps": [
            {"key": "a", "seconds": 0.1, "error": "InvalidParameterError: bad"},
            {"key": "b", "seconds": 0.1, "digest": "x"},
            {"key": "c", "seconds": 0.1, "digest": "y"},
        ]
    }
    bad = run.failed_sweeps(result, {"b": "x"})
    assert [b.split(":")[0] for b in bad] == ["a", "c"]


def test_catalog_copy_matches_flecklab():
    assert THEOREM_IDS == tuple(
        sid for sid, st in flecklab.statements.STATEMENTS.items() if st.kind == "theorem"
    )
    assert SEARCH_IDS == flecklab.SEARCH_IDS


def test_seed_zero_keeps_catalog_order_and_others_shuffle():
    suite = WORKLOADS["suite-serial"]
    assert tuple(s.sid for s in ordered(suite, 0)) == SUITE_IDS
    shuffled = ordered(suite, 7)
    assert shuffled == ordered(suite, 7)
    assert shuffled != ordered(suite, 0)
    assert sorted(shuffled, key=lambda s: s.key) == sorted(suite.sweeps, key=lambda s: s.key)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    keys = {s.key for w in WORKLOADS.values() for s in w.sweeps}
    assert keys == set(json.loads(run.DIGESTS.read_text(encoding="utf-8")))


def test_tracer_restores_every_patched_object():
    mods = tracer.flecklab_modules()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    init = flecklab.padic.PrimePowerModulus.__init__
    t = tracer.Tracer()
    t.install()
    assert flecklab.statements.padic_order is not flecklab.padic.padic_order
    assert flecklab.quantities.alt_sum_binom is not flecklab.sums.alt_sum_binom
    assert flecklab.padic.PrimePowerModulus.__init__ is not init
    flecklab.run_statement("T1.1", grid={"p": (2,), "alpha": (1,), "n": (3,), "l": (0,)})
    terms = t.terms
    flecklab.statements.alt_sum_power(10, r=1, m=3, l=2)
    assert t.terms == terms + 4  # k = 1, 4, 7, 10
    t.uninstall()
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before
    assert flecklab.padic.PrimePowerModulus.__init__ is init
    calls = t.call_counts()
    assert calls["statements"] == t.instances == 6  # r runs over -m .. 2m-1 at m = 2
    assert calls["padic"] > 0 and calls["sums"] > 0 and calls["verifier"] == 2


def test_class_terms_counts_one_residue_class():
    assert tracer.class_terms("sums.alt_sum_power", (10, 1, 3, 2)) == 4  # k = 1, 4, 7, 10
    assert tracer.class_terms("sums.plain_alt_sum", (2, -1, 4)) == 0  # k = 3 > n
    pm = flecklab.PrimePowerModulus(2, 1)
    assert tracer.class_terms("sums.series_coefficient", (pm, 10, 1, 5)) == 3  # k = 1, 3, 5
    assert tracer.class_terms("sums.degree_order_bound", (pm, 10, 1, 5)) == 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "frontier", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no flecklab sources" in proc.stderr
