"""One benchmark run of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--setup-only | --trace --spans-out FILE]

Imports infalex from the checkout's ``src/``, generates the inputs from the
seed, then (unless ``--setup-only``) computes and checks every item while
speed.py probes the machine speed.  The last line of stdout is one JSON
object with the raw and rescaled times, hashes and checks; run.py turns it
into metrics.  Caches start empty because the process is new.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import infalex  # noqa: E402  (needs the checkout's src on the path)

import workloads  # noqa: E402
from spans import Tracer, bypass_problems  # noqa: E402
from speed import SpeedSampler  # noqa: E402


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_items(name: str, items, tracer: Tracer | None) -> dict:
    """Compute and check every item.  Returns perf_counter stamps: one
    (start, end) per compute call, and the loop's own (start, end)."""
    _generate, compute, check = workloads.WORKLOADS[name]
    item_spans: list[tuple[float, float]] = []
    outputs = []
    errors = []
    clock = time.perf_counter
    wall_start = clock()
    for k, item in enumerate(items):
        try:
            t0 = clock()
            try:
                result = tracer.item(compute, item) if tracer else compute(item)
            finally:
                item_spans.append((t0, clock()))
            canonical, problems = check(item, result)
        except Exception as exc:  # an item that raises or fails its check counts as failed
            canonical, problems = None, [f"{type(exc).__name__}: {exc}"]
        outputs.append(canonical)
        if problems:
            errors.append(f"item {k}: {problems[0]}")
    return {"wall": (wall_start, clock()), "item_spans": item_spans, "failed": len(errors),
            "errors": errors[:10], "outputs_sha256": sha256_json(outputs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", type=Path, help="where the traced run writes its spans")
    args = ap.parse_args(argv)

    if Path(infalex.__file__).resolve().parent != SRC / "infalex":
        print(f"infalex imported from {infalex.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    generate = workloads.WORKLOADS[args.workload][0]
    items = generate(random.Random(args.seed), args.seconds)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        with SpeedSampler() as speed:
            doc = run_items(args.workload, items, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    wall, item_spans = doc.pop("wall"), doc.pop("item_spans")
    doc["raw_wall_s"] = wall[1] - wall[0]
    doc["raw_item_s"] = [b - a for a, b in item_spans]
    doc["wall_s"] = speed.rescale(*wall)
    doc["item_s"] = [speed.rescale(a, b) for a, b in item_spans]
    doc["speed"] = speed.summary()
    doc["inputs_sha256"] = sha256_json(items)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        stats = tracer.layer_stats()
        doc["layers"] = tracer.metrics(stats)
        doc["spans"] = len(tracer.start)
        doc["bypass_problems"] = bypass_problems(args.workload, stats)
        if args.spans_out:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans_out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
