"""Interleaved A/B timing of the run's layers: a base checkout against this one.

Run from the repository root:

    python3 bench/run_bench.py --base OTHER_CHECKOUT --label slots

``--base`` is the root of another checkout (for example the parent commit,
made with ``git archive``).  Its ``src/stabconn`` tree is loaded into this
one process twice, as the base and as a null side, and this checkout's
once, as the change, so the sides share the host's state from moment to
moment.  For random (``random:n,2n-1``) and clustered graphs at each size,
which each side builds from the spec with its own ``cli.parse_generate_spec``,
each of ``PAIRS`` pairs times, on each side, one ``ground_truth(g)``, one
``init_arbitrary(g, INIT_SEED)``, the step kernel alone (``protocol.advance``
called for each of KERNEL_STEPS uniform-random activations, one fixed
stream per case, on fresh copies of the initial states, with no replay),
one ``analysis.certify`` of the
legitimate detection sets (extracted from the ground-truth registers)
against the brute-force oracles, one full ``simulator.run`` from the
initial states under the seeded uniform-random scheduler until
stabilization, and one ``cli.build_report`` of the run's report (which
certifies its detection sets again) with the ``json.dumps`` that
``stabconn run`` prints.  ``certify`` reads nothing of the run, so it is
timed before it, not in the wake of the same side's run.  The order of
the three sides cycles through all six orders from pair to pair.  The run
uses a ground truth computed outside its timed region, times are process
CPU seconds, and the garbage collector is off while a call is timed, so no
side pays for collecting another's objects.

Per case and layer the result holds the base's and the change's median
time, the median of the per-pair ratios base / change (above 1: the change
is faster), the share of pairs the change won, and the same ratio and share
for the null side, whose code is the base's: the null band, within which a
ratio of that layer and case is noise.  It also says whether all sides
agree: on the initial states, on the kernel's final states, on steps,
rounds, stabilization, final registers and the certification report, and on
the JSON report.  States and registers are compared by the references'
keys (``full_state`` and ``plain_register`` of ``tests/reference.py``),
which hold each path as a tuple of ints whatever the side holds it as.
The kernel's and the run's rows also give the change's steps per second.
It is written to ``BENCH_<label>.json`` at the repository root, or to
``--out``.  The exit status is 1 when the sides disagree on any case.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import itertools
import json
import platform
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import reference  # noqa: E402

SIZES = (16, 40, 80, 160, 320, 640)
#: clustered graph (clusters, cluster size) per n: K x 5 with K = n / 5, and 4 x 4 for n = 16
CLUSTERS = {16: (4, 4), 40: (8, 5), 80: (16, 5), 160: (32, 5), 320: (64, 5), 640: (128, 5)}
PAIRS = 7
LAYERS = ("ground_truth", "init_arbitrary", "kernel", "certify", "run", "build_report")
#: activations in the kernel layer's stream, whatever the size
KERNEL_STEPS = 50_000
GRAPH_SEED = 0
INIT_SEED = 7
SCHEDULER_SEED = 0


def load(checkout: Path, name: str):
    """Import ``checkout/src/stabconn`` as the top-level package ``name``."""
    init = checkout / "src" / "stabconn" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    package.cli = importlib.import_module(f"{name}.cli")
    return package


def cases():
    """The ``--generate`` spec of each case, which each side parses itself."""
    for n in SIZES:
        k, size = CLUSTERS[n]
        yield from (f"random:{n},{2 * n - 1}", f"clustered:{k}x{size}")


def _time(fn):
    gc.collect()
    gc.disable()
    try:
        t0 = time.process_time()
        result = fn()
        return time.process_time() - t0, result
    finally:
        gc.enable()


def kernel(pkg, g, init, pids):
    """Step ``protocol.advance`` once per pid of ``pids``, from copies of
    ``init``'s states, and time only the steps; return the time and the
    final states."""
    advance = pkg.protocol.advance
    states = [st.clone() for st in init.states]
    programs = [pkg.node_program(g, v) for v in range(1, g.n + 1)]
    nbrs = [tuple(states[w - 1] for w in g.neighbors(v)) for v in range(1, g.n + 1)]

    def steps():
        for pid in pids:
            advance(states[pid - 1], programs[pid - 1], nbrs[pid - 1])

    t, _ = _time(steps)
    return t, states


def one_side(pkg, g, gt, pids):
    """Time each of LAYERS once on one side; return times and outcome."""
    t_truth, _ = _time(lambda: pkg.ground_truth(g))
    t_init, init = _time(lambda: pkg.init_arbitrary(g, INIT_SEED))
    t_kernel, stepped = kernel(pkg, g, init, pids)
    detection = pkg.extract(g, gt.registers, gt=gt)
    t_certify, cert = _time(lambda: pkg.certify(detection, g))
    scheduler = pkg.make_scheduler("random", seed=SCHEDULER_SEED)
    t_run, (_, report) = _time(lambda: pkg.run(g, scheduler, init, gt=gt))
    t_report, doc = _time(
        lambda: json.dumps(pkg.cli.build_report(g, report, SCHEDULER_SEED, INIT_SEED), indent=2)
    )
    outcome = {
        "init": reference.full_state(init.states),
        "kernel": reference.full_state(stepped),
        "run": (report.total_steps, report.rounds, report.stabilized,
                tuple(map(reference.plain_register, report.final_registers)), cert.match, cert.mismatches),
        "report": doc,
    }
    times = {"ground_truth": t_truth, "init_arbitrary": t_init, "kernel": t_kernel,
             "certify": t_certify, "run": t_run, "build_report": t_report}
    return times, outcome


def _ratios(base: list[float], other: list[float]) -> tuple[float, float]:
    """Median of the per-pair ratios base / other, and the share above 1."""
    ratios = [b / o for b, o in zip(base, other)]
    return round(statistics.median(ratios), 3), round(sum(r > 1 for r in ratios) / len(ratios), 3)


def summarize(base: list[float], null: list[float], change: list[float]) -> dict:
    median_ratio, won_share = _ratios(base, change)
    null_median_ratio, null_won_share = _ratios(base, null)
    return {
        "base_median_s": round(statistics.median(base), 6),
        "change_median_s": round(statistics.median(change), 6),
        "median_ratio": median_ratio,
        "won_share": won_share,
        "null_median_ratio": null_median_ratio,
        "null_won_share": null_won_share,
    }


def measure(sides: dict, spec: str) -> dict:
    graphs = {name: pkg.cli.parse_generate_spec(spec, GRAPH_SEED) for name, pkg in sides.items()}
    truths = {name: pkg.ground_truth(graphs[name]) for name, pkg in sides.items()}
    rng = random.Random(SCHEDULER_SEED)
    pids = [rng.randint(1, graphs["change"].n) for _ in range(KERNEL_STEPS)]
    times = {name: {layer: [] for layer in LAYERS} for name in sides}
    outcomes = {}
    orders = list(itertools.permutations(sides))
    for k in range(PAIRS):
        for name in orders[k % len(orders)]:
            t, outcomes[name] = one_side(sides[name], graphs[name], truths[name], pids)
            for layer, seconds in t.items():
                times[name][layer].append(seconds)
    steps, rounds, stabilized = outcomes["change"]["run"][:3]
    base, null, change = (outcomes[name] for name in ("base", "null", "change"))
    row = {
        "n": graphs["change"].n,
        "m": graphs["change"].edge_count,
        "steps": steps,
        "rounds": rounds,
        "stabilized": stabilized,
        "pairs": PAIRS,
        "agree": {
            "graph": graphs["base"].ports == graphs["null"].ports == graphs["change"].ports,
            "init": base["init"] == null["init"] == change["init"],
            "kernel": base["kernel"] == null["kernel"] == change["kernel"],
            "run": base["run"] == null["run"] == change["run"],
            "report": base["report"] == null["report"] == change["report"],
        },
    }
    for layer in LAYERS:
        row[layer] = summarize(*(times[name][layer] for name in ("base", "null", "change")))
    row["kernel"]["change_steps_per_s"] = round(KERNEL_STEPS / row["kernel"]["change_median_s"])
    row["run"]["change_steps_per_s"] = round(steps / row["run"]["change_median_s"])
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="root of the checkout to compare against")
    parser.add_argument("--label", default="ab", help="writes BENCH_<label>.json")
    parser.add_argument("--out", type=Path, help="write here instead of BENCH_<label>.json")
    args = parser.parse_args(argv)
    base = args.base.resolve()
    sides = {
        "base": load(base, "stabconn_base"),
        "null": load(base, "stabconn_null"),
        "change": load(ROOT, "stabconn_change"),
    }

    rows = {}
    for name in cases():
        rows[name] = measure(sides, name)
        print(f"{name}: {json.dumps(rows[name])}", flush=True)
    doc = {
        "script": "bench/run_bench.py",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "init_seed": INIT_SEED,
        "kernel_steps": KERNEL_STEPS,
        "scheduler": f"random, seed {SCHEDULER_SEED}",
        "cases": rows,
    }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if all(all(row["agree"].values()) for row in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
