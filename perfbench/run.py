#!/usr/bin/env python3
"""flecklab benchmark: sweeps the statement catalog through the public API
and reports end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload suite-serial --seed 0 --seconds 33 --trace 0

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(perfbench/worker.py), so caches start cold and import time stays out of
the timed region.  Each report's JSON is hashed and compared with the
reference digests in perfbench/digests.json, recorded from the code before
any optimisation; a sweep that raises or whose digest differs is an error.

--trace 0 reports the end-to-end metrics over the passes that fit in
--seconds (at least one):
    wall_s           time of one pass: the sum over its sweeps of each
                     sweep's median time over the passes
    instances_per_s  (checked + skipped) / wall_s
    cpu_s            user + system CPU of one pass and its reaped children,
                     summed the same way
    peak_rss_mb      median peak RSS of a pass plus that of its largest child
    setup_s          fresh interpreter to `import flecklab` done, over
                     SETUP_RUNS interpreters
--trace 1 reports the per-layer metrics (see per_layer_units).  The traced
pass runs at jobs=1 on one core while an untraced pass and then a cold pass
(caches cleared before each sweep) run at jobs=1 on the other, so all three
are timed under the same load and the run stays well inside its time limit.
A parallel workload then adds an untraced pass at its own job count, on its
own, for the pool metrics.  These numbers compare across commits, not with
the end-to-end ones, which are timed with nothing running beside them.

The last line of stdout is one JSON object with the keys correct,
attempted, failed (sweeps) and metrics.  The lines before it give the
machine, the passes and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from workloads import SUITE_IDS, WORKLOADS, Workload, nproc, ordered  # noqa: E402

DIGESTS = HERE / "digests.json"
SPANS_DIR = HERE / "out"
SETUP_RUNS = 15
# A run must end within 180 s; stop waiting on a pass this long after start.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "instances_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Layers whose calls and self time the traced pass reports; the verifier's
# self time is reported with its own metrics.
CALL_LAYERS = ("padic", "combinatorics", "sums", "quantities", "statements")


def per_layer_units() -> dict[str, str]:
    """Per-layer metrics and their units.  Which end-to-end metric each
    should move, and on which workload:

        padic, statements .calls/.self_s     wall_s on suite-serial
        combinatorics .calls/.self_s         wall_s on suite-serial (little:
                                             C1.1cor, T1.4)
        sums .calls/.self_s/.terms           wall_s on frontier, little on
                                             suite-serial
        quantities .calls/.self_s and the    wall_s and peak_rss_mb on
        two cache hit ratios                 suite-serial
        verifier .self_s/.instances/         wall_s on suite-serial
        .useful_ratio
        verifier.sweep_s.<id>,               wall_s of whichever workload
        verifier.cold_sweep_s.<id>           sweeps the id
        verifier.pool.*                      wall_s and cpu_s on
                                             suite-parallel
    """
    units: dict[str, str] = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["sums.terms"] = "count"
    units["quantities.norm_cache.hit_ratio"] = "ratio"
    units["quantities.fleck_cache.hit_ratio"] = "ratio"
    units["verifier.self_s"] = "s"
    units["verifier.instances"] = "count"
    units["verifier.useful_ratio"] = "ratio"
    units["verifier.pool.child_cpu_s"] = "s"
    units["verifier.pool.idle_s"] = "s"
    units["verifier.pool.shipped_bytes"] = "B"
    units["trace.overhead_s"] = "s"
    for sid in SUITE_IDS:
        units[f"verifier.sweep_s.{sid}"] = "s"
    for sid in SUITE_IDS:
        units[f"verifier.cold_sweep_s.{sid}"] = "s"
    return units


class PassFailed(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str]) -> subprocess.Popen:
    """Start a child in its own process group, so that a timeout can kill it
    together with its pool workers."""
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        env=_worker_env(),
        start_new_session=True,
    )
    return proc


def _kill(proc: subprocess.Popen) -> None:
    """Kill a child still running, with its process group, and reap it."""
    if proc.returncode is None:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def _collect(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a child; kill its group if it passes the deadline or if
    waiting is interrupted."""
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"{proc.args[1]} did not finish before the deadline") from None
    finally:
        _kill(proc)
    if proc.returncode != 0:
        raise PassFailed(f"{proc.args[1]} exited {proc.returncode}:\n{err.strip()}")
    return out


def start_pass(sweeps, jobs: int, mode: str, **extra) -> subprocess.Popen:
    plan = {
        "sweeps": [
            {"key": s.key, "sid": s.sid, "search": s.search, "grid": s.grid} for s in sweeps
        ],
        "jobs": jobs,
        "mode": mode,
        **extra,
    }
    return _spawn([sys.executable, str(HERE / "worker.py"), json.dumps(plan)])


def finish_pass(proc: subprocess.Popen, deadline: float) -> dict:
    return json.loads(_collect(proc, deadline).strip().splitlines()[-1])


def run_pass(sweeps, jobs: int, mode: str, deadline: float, **extra) -> dict:
    return finish_pass(start_pass(sweeps, jobs, mode, **extra), deadline)


def measure_setup(runs: int, deadline: float) -> list[float]:
    """Seconds from spawning an interpreter to `import flecklab` returning."""
    code = "import time\nimport flecklab\nprint(time.monotonic_ns())"
    samples = []
    for _ in range(runs):
        t0 = time.monotonic_ns()
        out = _collect(_spawn([sys.executable, "-c", code]), deadline)
        samples.append((int(out.strip()) - t0) / 1e9)
    return samples


def failed_sweeps(result: dict, digests: dict[str, str]) -> list[str]:
    """Sweeps that raised or whose report differs from the reference."""
    bad = []
    for sweep in result["sweeps"]:
        if "error" in sweep:
            bad.append(f"{sweep['key']}: {sweep['error']}")
        elif sweep["digest"] != digests.get(sweep["key"]):
            bad.append(f"{sweep['key']}: report digest {sweep['digest'][:12]} differs")
    return bad


def _instances(result: dict) -> int:
    return sum(s.get("checked", 0) + s.get("skipped", 0) for s in result["sweeps"])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _sum_of_medians(passes: list[dict], field: str) -> float:
    """One pass's total, each sweep taken at its median over the passes, so
    that a burst of load on the machine during one sweep of one pass is not
    counted.  Every pass runs the same sweeps in the same order."""
    per_sweep = zip(*(p["sweeps"] for p in passes))
    return sum(statistics.median(s[field] for s in sweeps) for sweeps in per_sweep)


def end_to_end(workload: Workload, seed: int, seconds: float, deadline: float):
    """Passes that fit in `seconds` (at least one) and the set-up samples."""
    sweeps = ordered(workload, seed)
    setup = measure_setup(SETUP_RUNS, deadline)
    passes = []
    began = time.monotonic()
    while True:
        passes.append(run_pass(sweeps, workload.jobs(), "plain", deadline))
        spent = time.monotonic() - began
        if spent + spent / len(passes) > seconds:
            break
    walls = [p["wall_s"] for p in passes]
    wall = _sum_of_medians(passes, "seconds")
    metrics = {
        "wall_s": wall,
        "instances_per_s": _instances(passes[0]) / wall,
        "cpu_s": _sum_of_medians(passes, "cpu_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup),
    }
    lines = [
        f"passes: {len(passes)}, wall_s each: {', '.join(f'{w:.3f}' for w in walls)}",
        f"setup_s over {len(setup)} interpreters: min {min(setup):.4f} "
        f"median {metrics['setup_s']:.4f} max {max(setup):.4f}",
    ]
    return passes, {k: _metric(v, END_TO_END[k]) for k, v in metrics.items()}, lines


def _hit_ratio(result: dict, cache: str) -> float:
    hits, misses = result["caches"][f"flecklab.quantities.{cache}"]
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload: Workload, seed: int, deadline: float, spans: "Path | None"):
    """The traced pass at jobs=1, run beside an untraced pass and then a cold
    pass at jobs=1 on the other core; then, for a parallel workload, an
    untraced pass at its own job count on its own."""
    sweeps = ordered(workload, seed)
    tracing = start_pass(sweeps, 1, "traced", spans=str(spans) if spans else None)
    try:
        plain = run_pass(sweeps, 1, "plain", deadline)
        cold = run_pass(sweeps, 1, "cold", deadline)
    except BaseException:
        _kill(tracing)
        raise
    traced = finish_pass(tracing, deadline)
    passes = [plain, traced, cold]
    jobs = workload.jobs()
    pool = {"child_cpu_s": 0.0, "idle_s": 0.0, "shipped_bytes": 0}
    if jobs > 1:
        fan_out = run_pass(sweeps, jobs, "plain", deadline, shipped=True)
        passes.append(fan_out)
        pool = {
            "child_cpu_s": fan_out["child_cpu_s"],
            "idle_s": jobs * fan_out["wall_s"] - fan_out["child_cpu_s"],
            "shipped_bytes": fan_out["shipped_bytes"],
        }

    trace = traced["trace"]
    values: dict[str, float] = {}
    for layer in CALL_LAYERS:
        values[f"{layer}.calls"] = trace["calls"][layer]
        values[f"{layer}.self_s"] = trace["self_ns"][layer] / 1e9
    values["sums.terms"] = trace["terms"]
    values["quantities.norm_cache.hit_ratio"] = _hit_ratio(traced, "_norm_sum_value")
    values["quantities.fleck_cache.hit_ratio"] = _hit_ratio(traced, "_fleck_sum_value")
    # The sweep spans minus the check spans they contain: enumeration,
    # dispatch and report building.
    values["verifier.self_s"] = trace["self_ns"]["verifier"] / 1e9
    instances = _instances(traced)
    checked = sum(s.get("checked", 0) for s in traced["sweeps"])
    values["verifier.instances"] = instances
    values["verifier.useful_ratio"] = checked / instances if instances else 0.0
    for key, value in pool.items():
        values[f"verifier.pool.{key}"] = value
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    # Ids the workload does not sweep take 0 s.
    sid_of = {s.key: s.sid for s in sweeps}
    for prefix, result in (("sweep_s", plain), ("cold_sweep_s", cold)):
        times = {sid_of[s["key"]]: s["seconds"] for s in result["sweeps"]}
        for sid in SUITE_IDS:
            values[f"verifier.{prefix}.{sid}"] = times.get(sid, 0.0)

    units = per_layer_units()
    lines = [
        f"passes at jobs=1: untraced {plain['wall_s']:.3f} s, traced {traced['wall_s']:.3f} s, "
        f"cold {cold['wall_s']:.3f} s; {trace['kept_spans']} spans kept"
        + (f" in {spans}" if spans else ""),
    ]
    if jobs > 1:
        lines.append(f"pass at jobs={jobs}: {fan_out['wall_s']:.3f} s")
    return passes, {k: _metric(values[k], units[k]) for k in units}, lines


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    digests: dict[str, str],
    spans: "Path | None" = None,
) -> tuple[dict, list[str]]:
    """One benchmark run: the result object and the lines to print before it."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        passes, metrics, lines = per_layer(workload, seed, deadline, spans)
    else:
        passes, metrics, lines = end_to_end(workload, seed, seconds, deadline)
    attempted = sum(len(p["sweeps"]) for p in passes)
    errors = [e for p in passes for e in failed_sweeps(p, digests)]
    lines.append(f"error_rate: {len(errors)}/{attempted} sweeps")
    lines.extend(f"  error {e}" for e in errors)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": metrics,
    }
    return result, lines


def machine_facts(workload: Workload) -> list[str]:
    n = nproc()
    return [
        f"machine: nproc={n}, python {platform.python_version()}, {platform.platform()}",
        f"workload {workload.name} at jobs={workload.jobs()}",
        f"scaling beyond jobs={n} is not measured on this machine and not extrapolated",
    ]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 keeps catalog order")
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flecklab" / "__init__.py").is_file():
        print(f"error: no flecklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    spans = SPANS_DIR / f"spans-{workload.name}.txt" if args.trace else None
    try:
        result, lines = run(workload, args.seed, args.seconds, bool(args.trace), digests, spans)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in machine_facts(workload) + lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
