"""Step-kernel throughput: ``simulator.run`` steps per second.

Run from the repository root:

    python3 bench/run_bench.py --label kernel --side change
    python3 bench/run_bench.py --label kernel --side parent --src OTHER_CHECKOUT/src

For random (``random:n,2n-1``) and clustered graphs at n = 16, 40, 80, 160,
each case runs ``simulator.run`` from ``init_arbitrary(g, INIT_SEED)`` under
the seeded uniform-random scheduler for at most MAX_ROUNDS rounds, with the
ground truth computed outside the timed region, and keeps the best steps per
second of REPEATS runs.  The numbers are stored under ``--side`` in
``BENCH_<label>.json`` at the repository root; other sides already in that
file are kept, so two checkouts timed by this one script share a file.
When both ``parent`` and ``change`` are present, their ratio is added.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 40, 80, 160)
CLUSTERS = {16: (4, 4), 40: (8, 5), 80: (16, 5), 160: (32, 5)}  # K x SIZE = n
GRAPH_SEED = 0
INIT_SEED = 7
MAX_ROUNDS = 40
REPEATS = 7


def cases(stabconn):
    for n in SIZES:
        yield f"random:{n},{2 * n - 1}", stabconn.generate_random_connected(n, n, GRAPH_SEED)
        k, size = CLUSTERS[n]
        yield f"clustered:{k}x{size}", stabconn.generate_clustered(k, size, GRAPH_SEED)


def measure(stabconn, g) -> dict:
    gt = stabconn.ground_truth(g)
    init = stabconn.init_arbitrary(g, INIT_SEED)
    best = 0.0
    for _ in range(REPEATS):
        scheduler = stabconn.make_scheduler("random", seed=GRAPH_SEED)
        t0 = time.perf_counter()
        _, report = stabconn.run(g, scheduler, init, max_rounds=MAX_ROUNDS, gt=gt)
        best = max(best, report.total_steps / (time.perf_counter() - t0))
    return {"steps": report.total_steps, "rounds": report.rounds, "steps_per_s": round(best)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--side", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import stabconn

    rows = {}
    for name, g in cases(stabconn):
        rows[name] = {"n": g.n, "m": g.edge_count, **measure(stabconn, g)}
        print(f"{args.side} {name}: {rows[name]}", flush=True)
    out = ROOT / f"BENCH_{args.label}.json"
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc["script"] = "bench/run_bench.py"
    doc.setdefault("sides", {})[args.side] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cases": rows,
    }
    if {"parent", "change"} <= doc["sides"].keys():
        before, after = doc["sides"]["parent"]["cases"], doc["sides"]["change"]["cases"]
        doc["change_over_parent"] = {
            k: round(after[k]["steps_per_s"] / before[k]["steps_per_s"], 2)
            for k in after if k in before
        }
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
