"""infalex benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures set-up
(several fresh processes that import infalex and generate the inputs) and
then one timed run in a fresh process, and reports the end-to-end metrics
of BENCHMARK.json.  With ``--trace 1`` it runs the workload once untraced
and once with spans around infalex's public functions, and reports the
per-layer metrics plus the tracing overhead.  Times are rescaled to a fixed
machine speed by the probe in speed.py; the raw times are in the stamp.
Every item is checked; the last line of stdout is the JSON result, the line
before it a stamp with the hashes, sample counts and machine facts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metric_names
from speed import factor, reference_block

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

DEADLINE_S = 170          # the whole run must end within 180 s
SETUP_SAMPLES = 9         # fresh processes timed for setup_s
TAIL_BEYOND = 10          # items that must lie beyond the tail percentile


class BenchError(RuntimeError):
    """The run cannot produce a result; nothing is printed on stdout."""


def run_worker(args, deadline: float, *extra: str) -> tuple[float, dict | None]:
    """Run worker.py to completion; (elapsed seconds, its JSON document)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(extra)} did not finish in time") from None
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    return elapsed, (json.loads(lines[-1]) if lines else None)


def timed_setup(args, deadline: float) -> tuple[list[float], list[float]]:
    """Seconds of each --setup-only worker, and the speed probes this
    process took right before and after each of them."""
    elapsed, probes = [], []
    for _ in range(SETUP_SAMPLES):
        probes.extend(reference_block() for _ in range(5))
        elapsed.append(run_worker(args, deadline, "--setup-only")[0])
        probes.extend(reference_block() for _ in range(5))
    return elapsed, probes


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, items beyond) of the highest percentile with
    TAIL_BEYOND items beyond it; the maximum when there are too few items."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_BEYOND
    if k >= 1:
        return ordered[k - 1], 100.0 * k / len(ordered), TAIL_BEYOND
    return ordered[-1], 100.0, 0


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "infalex").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace: bool) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def measure_end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    setup, probes = timed_setup(args, deadline)
    # one speed factor for the whole set-up phase: a spawn is too short for
    # the probes next to it to say how fast the machine ran during it
    setup_factor = factor(statistics.median(probes))
    _elapsed, run = run_worker(args, deadline)
    item_ms = [1000.0 * s for s in run["item_s"]]
    tail_ms, tail_pct, beyond = tail(item_ms)
    metrics = {
        "wall_s": (run["wall_s"], "s"),
        "setup_s": (statistics.median(setup) * setup_factor, "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "item_p50_ms": (statistics.median(item_ms), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
    }
    raw_ms = [1000.0 * s for s in run["raw_item_s"]]
    samples = {"setup_processes": SETUP_SAMPLES, "items": len(item_ms),
               "item_tail_percentile": tail_pct, "items_beyond_tail": beyond,
               "speed": run["speed"],
               "raw": {"wall_s": run["raw_wall_s"],
                       "setup_s": statistics.median(setup),
                       "item_p50_ms": statistics.median(raw_ms),
                       "item_tail_ms": tail(raw_ms)[0]}}
    return run, metrics, samples


def measure_layers(args, deadline: float) -> tuple[dict, dict, dict]:
    _elapsed, plain = run_worker(args, deadline)
    spans_path = OUT / f"{args.workload}.spans"
    _elapsed, run = run_worker(args, deadline, "--trace", "--spans-out", str(spans_path))
    units = {name: unit for name, unit, _better in layer_metric_names()}
    metrics = {name: (value, units[name]) for name, value in run["layers"].items()}
    metrics["trace.wall_s"] = (run["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_s"] = (run["wall_s"] - plain["wall_s"], "s")
    metrics["trace.spans"] = (run["spans"], "count")
    # attempted and failed count the traced run; a failure in the plain
    # run still shows in the errors and makes the result incorrect
    run["errors"] = plain["errors"] + run["errors"]
    if plain["outputs_sha256"] != run["outputs_sha256"]:
        run["errors"].append("traced outputs differ from untraced outputs")
    run["errors"].extend(f"bypass: {p}" for p in run["bypass_problems"])
    samples = {"items": len(run["item_s"]), "spans": run["spans"],
               "spans_file": spans_path.relative_to(ROOT).as_posix(), "speed": run["speed"],
               "raw": {"trace.wall_s": run["raw_wall_s"],
                       "trace.untraced_wall_s": plain["raw_wall_s"]}}
    return run, metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "infalex" / "__init__.py").is_file():
            raise BenchError(f"no infalex sources under {ROOT / 'src'}")
        declared = declared_metrics(bool(args.trace))
        measure = measure_layers if args.trace else measure_end_to_end
        run, metrics, samples = measure(args, deadline)
        if set(metrics) != set(declared) or any(
                declared[k] != unit for k, (_v, unit) in metrics.items()):
            raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = len(run["item_s"])
    failed = run["failed"]
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": commit(),
        "source_sha256": source_digest(), "samples": samples,
        "inputs_sha256": run["inputs_sha256"], "outputs_sha256": run["outputs_sha256"],
        "error_rate": failed / attempted, "errors": run["errors"],
    }
    result = {
        "correct": not run["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
