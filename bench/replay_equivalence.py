"""Long equivalence search: ``simulator.run``, whose quiet nodes replay
recorded cycles, against a loop that calls the kernel on every activation.

Run from the repository root:

    python3 bench/replay_equivalence.py --cases 1000 --seed 0

Case k is drawn from ``random.Random(f"{seed}:{k}")``:

  * a random graph (n 2..40, m up to 2n) or a clustered one (up to 8
    cycles of 3..5 nodes, generated from the scheduler's seed, as the CLI
    does);
  * an arbitrary start (``init_arbitrary``) or the legitimate configuration
    with consistent locals and pc 0;
  * 0-3 faults, each fired before a step in 0..40n or at a declaration,
    each on one (node, field) of every field kind, or on 1-3 random fields;
  * a scheduler of the three, and a closure window of 0-60 rounds.

Each case goes through ``reference.compare_with_loop`` (``tests/reference.py``),
the comparison the tier-1 tests make too: it runs with ``max_rounds=400``
and then through ``reference.run_loop`` with the same faults at the steps
``run`` fired them.  The two must give the same step stream, event by
event, and the same full processor states at the end; every round's
legitimate flag must match its registers.  Each run is also watched by
``reference.checked_loops``, so every loop it records must repeat one
more cycle against the frozen neighbours; one that does not is a
mismatch too.  A mismatch prints the case's
repro (this script with ``--seed`` and ``--first``, and the ``stabconn
run`` command where the case is one the CLI can express).  The summary
counts the steps compared, the faults fired, the loops checked and the
kernel calls (``advance`` calls) the replaying runs made; it is written as
JSON to ``--out`` if given.  The exit status is 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import reference  # noqa: E402
from stabconn.cli import parse_generate_spec  # noqa: E402
from stabconn.oracle import ground_truth  # noqa: E402
from stabconn.simulator import (  # noqa: E402
    FAULT_FIELDS,
    POST_STABILIZATION,
    SCHEDULER_NAMES,
    FaultSpec,
    init_arbitrary,
    make_scheduler,
)

MAX_ROUNDS = 400
MAX_CLOSURE = 60


def draw_case(seed: int, k: int) -> dict:
    """Case k of the search from ``seed``, as plain values."""
    rng = random.Random(f"{seed}:{k}")
    scheduler_seed = rng.randrange(1 << 30)
    graph_seed = scheduler_seed  # as the CLI's --seed sets both for clustered graphs
    if rng.random() < 0.5:
        graph_seed = rng.randrange(1 << 30)
        n = rng.randint(2, 40)
        m = n - 1 + rng.randint(0, min(n + 1, n * (n - 1) // 2 - (n - 1)))
        generate = f"random:{n},{m},{graph_seed}"
    else:
        kk = rng.randint(1, 8)
        size = rng.randint(3, 5)
        n = kk * size
        generate = f"clustered:{kk}x{size}"
    faults = []
    for _ in range(rng.randint(0, 3)):
        trigger = POST_STABILIZATION if rng.random() < 0.5 else rng.randint(0, 40 * n)
        if rng.random() < 0.8:
            target = (rng.randint(1, n), rng.choice(FAULT_FIELDS))
            faults.append((trigger, target, 0, rng.randrange(1 << 30)))
        else:
            faults.append((trigger, None, rng.randint(1, 3), rng.randrange(1 << 30)))
    return {
        "generate": generate,
        "graph_seed": graph_seed,
        "init_seed": None if rng.random() < 0.3 else rng.randrange(1 << 30),
        "scheduler": rng.choice(SCHEDULER_NAMES),
        "scheduler_seed": scheduler_seed,
        "faults": faults,
        "closure_rounds": rng.randint(0, MAX_CLOSURE),
    }


def build(case: dict):
    # the CLI's own parse, so the graph is the one the case's CLI repro builds
    g = parse_generate_spec(case["generate"], case["graph_seed"])
    specs = [
        FaultSpec(trigger=trigger, targets=(target,) if target else (), random_fields=k, seed=s)
        for trigger, target, k, s in case["faults"]
    ]
    if case["init_seed"] is None:
        init = reference.stabilized_configuration(g, ground_truth(g))
    else:
        init = init_arbitrary(g, case["init_seed"])
    return g, init, specs


def cli_repro(case: dict) -> str | None:
    """The ``stabconn run`` command of the case; None for a legitimate
    start, which the CLI cannot make."""
    if case["init_seed"] is None:
        return None
    parts = [
        "stabconn run", f"--generate {case['generate']}", f"--seed {case['scheduler_seed']}",
        f"--init-seed {case['init_seed']}", f"--scheduler {case['scheduler']}",
        f"--max-rounds {MAX_ROUNDS}", f"--closure-rounds {case['closure_rounds']}",
    ]
    for trigger, target, k, s in case["faults"]:
        when = "post" if trigger == POST_STABILIZATION else f"step={trigger}"
        what = f"node={target[0]},field={target[1]}" if target else f"random={k}"
        parts.append(f"--faults {when}:{what}:seed={s}")
    return " ".join(parts)


def check(case: dict) -> tuple[str | None, int, int, int, int]:
    """What differs between run and the replay-free loop, or the loop of
    run's that does not repeat (None if nothing), the steps compared, the
    faults fired, the loops checked and run's kernel calls."""
    g, init, specs = build(case)
    scheduler = make_scheduler(case["scheduler"], case["scheduler_seed"])
    return reference.compare_with_loop(
        g, scheduler, init, specs, MAX_ROUNDS, case["closure_rounds"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cases", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--first", type=int, default=0, help="index of the first case")
    parser.add_argument("--out", type=Path, help="write the JSON summary here")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    mismatches = []
    steps = fired = loops = kernel_calls = 0
    for k in range(args.first, args.first + args.cases):
        case = draw_case(args.seed, k)
        why, case_steps, case_fired, case_loops, case_calls = check(case)
        steps += case_steps
        fired += case_fired
        loops += case_loops
        kernel_calls += case_calls
        if why is not None:
            script = f"python3 bench/replay_equivalence.py --seed {args.seed} --first {k} --cases 1"
            repro = {"script": script, "cli": cli_repro(case)}
            mismatches.append({"case": k, **case, "why": why, "repro": repro})
            print(json.dumps(mismatches[-1]), flush=True)
    summary = {
        "script": "bench/replay_equivalence.py",
        "seed": args.seed,
        "first": args.first,
        "cases": args.cases,
        "steps": steps,
        "faults_fired": fired,
        "loops_checked": loops,
        "kernel_calls": kernel_calls,
        "mismatches": len(mismatches),
        "seconds": round(time.perf_counter() - start, 1),
        "found": mismatches,
    }
    print(json.dumps({k: v for k, v in summary.items() if k != "found"}))
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
