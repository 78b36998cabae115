"""One benchmark pass in a fresh interpreter.

Takes a plan as a JSON argument, sweeps it through flecklab's public API and
prints one JSON object on stdout.  The interpreter's start and the import of
flecklab happen before the timed region, so ``wall_s`` is sweep time only.

Plan keys:
    sweeps   list of {"key", "sid", "search", "grid"} in the order to run
    jobs     worker processes per sweep
    mode     "plain" (caches shared across sweeps, as in a user's run),
             "cold" (every flecklab lru_cache cleared before each sweep), or
             "traced" (plain, with the span tracer installed; jobs must be 1)
    shipped  also compute the pickled size of the instance lists the
             verifier sends to its pool (outside the timed region)
    spans    path to write the traced pass's spans to, or null

    PYTHONPATH=src python3 perfbench/worker.py "$(cat plan.json)"
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import resource
import sys
import time
from pathlib import Path

import flecklab
from flecklab import statements, verifier

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import Tracer, flecklab_modules  # noqa: E402


def flecklab_caches() -> dict[str, object]:
    """Every lru_cache in flecklab, by qualified name."""
    found = {}
    for name, mod in flecklab_modules().items():
        for attr, obj in vars(mod).items():
            if callable(getattr(obj, "cache_info", None)) and obj.__module__ == name:
                found[f"{name}.{attr}"] = obj
    return found


def cache_counts(caches: dict[str, object]) -> dict[str, list[int]]:
    return {name: list(fn.cache_info()[:2]) for name, fn in caches.items()}


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children; the
    verifier's pool is shut down, and so reaped, inside each sweep."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def sweep_once(sweep: dict, jobs: int) -> dict:
    """Run one sweep; its report is reduced to counts and a SHA-256 digest."""
    api = flecklab.search_conjecture if sweep["search"] else flecklab.run_statement
    cpu = cpu_seconds()
    start = time.perf_counter()
    try:
        report = api(sweep["sid"], grid=sweep["grid"], jobs=jobs)
        text = report.to_json()
    except Exception as exc:  # one broken sweep must not hide the others
        return {
            "key": sweep["key"],
            "seconds": time.perf_counter() - start,
            "cpu_s": cpu_seconds() - cpu,
            "error": f"{type(exc).__name__}: {exc}",
        }
    seconds = time.perf_counter() - start
    return {
        "key": sweep["key"],
        "seconds": seconds,
        "cpu_s": cpu_seconds() - cpu,
        "checked": report.checked,
        "skipped": report.skipped,
        "status": report.status,
        "digest": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }


def shipped_bytes(sweep: dict, jobs: int) -> int:
    """Pickled size of the chunk payloads the verifier maps over its pool,
    chunked as the verifier chunks them (len / (4 * jobs) per chunk)."""
    table = statements.SEARCHES if sweep["search"] else statements.STATEMENTS
    st = table[sweep["sid"]]
    overrides = {k: tuple(v) for k, v in (sweep["grid"] or {}).items()}
    instances = list(verifier.iter_instances(st, overrides))
    if not instances:
        return 0
    size = max(1, math.ceil(len(instances) / (jobs * 4)))
    return sum(
        len(pickle.dumps((st.id, instances[i : i + size], verifier.DEFAULT_FAILURE_CAP)))
        for i in range(0, len(instances), size)
    )


def run_pass(plan: dict) -> dict:
    jobs, mode = plan["jobs"], plan["mode"]
    if mode == "traced" and jobs != 1:
        raise ValueError("the traced pass runs at jobs=1")
    caches = flecklab_caches()
    tracer = Tracer() if mode == "traced" else None
    if tracer is not None:
        tracer.install()
    results = []
    start = time.perf_counter()
    try:
        for sweep in plan["sweeps"]:
            if mode == "cold":
                for fn in caches.values():
                    fn.cache_clear()
            results.append(sweep_once(sweep, jobs))
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "wall_s": wall,
        "sweeps": results,
        "child_cpu_s": kids.ru_utime + kids.ru_stime,
        # ru_maxrss is in KiB on Linux; for children it is the largest one's.
        "peak_rss_mb": (own.ru_maxrss + kids.ru_maxrss) / 1024,
        "caches": cache_counts(caches),
    }
    if plan.get("shipped"):
        out["shipped_bytes"] = sum(shipped_bytes(s, jobs) for s in plan["sweeps"])
    if tracer is not None:
        out["trace"] = {
            "kept_spans": len(tracer.start),
            "instances": tracer.instances,
            "calls": tracer.call_counts(),
            "self_ns": tracer.self_ns(),
            "terms": tracer.terms,
        }
        if plan.get("spans"):
            tracer.write(Path(plan["spans"]))
    return out


def main() -> int:
    plan = json.loads(sys.argv[1])
    json.dump(run_pass(plan), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
