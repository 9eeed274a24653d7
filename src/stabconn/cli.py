"""Command-line front end: single runs, sweeps, and DOT exports.

Reports are JSON with a stable key order so identical flags produce
byte-identical output.  ``run`` and ``sweep`` certify each run once, in
``build_report``; ``dot`` draws the ground truth without simulating.  Exit
codes: 0 on a stabilized and certified run, 1 on non-convergence, 2 on a
certification mismatch, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import analysis, simulator
from .graph import (
    Graph,
    GraphError,
    figure1,
    generate_clustered,
    generate_random_connected,
    parse_graph,
)
from .oracle import GroundTruth, ground_truth
from .protocol import format_path
from .simulator import FaultSpec, POST_STABILIZATION

EXIT_OK = 0
EXIT_NOT_STABILIZED = 1
EXIT_MISMATCH = 2
EXIT_USAGE = 64


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2
        raise UsageError(message)


def exit_code(stabilized: bool, certified: bool | None) -> int:
    """Exit codes are a function of (stabilized, certified) only."""
    if not stabilized:
        return EXIT_NOT_STABILIZED
    return EXIT_OK if certified else EXIT_MISMATCH


def _certified(doc: dict) -> bool:
    certification = doc["certification"]
    return certification is not None and certification["match"]


# ---------------------------------------------------------------------------
# flag grammars

def parse_generate_spec(spec: str, seed: int) -> Graph:
    """Mini-grammar: 'random:n,m[,seed]', 'clustered:KxSIZE', or 'figure1'.

    For 'random', m is the total edge count (m >= n-1).  Specs without an
    inline seed use the provided one.
    """
    if spec == "figure1":
        return figure1()
    kind, _, rest = spec.partition(":")
    try:
        if kind == "random":
            parts = [int(p) for p in rest.split(",")]
            if len(parts) == 2:
                n, m = parts
            elif len(parts) == 3:
                n, m, seed = parts
            else:
                raise ValueError
            if m < n - 1:
                raise UsageError(
                    f"bad --generate spec {spec!r}: m={m} must be at least n-1={n - 1}"
                )
            return generate_random_connected(n, m - (n - 1), seed)
        if kind == "clustered":
            k_str, _, size_str = rest.partition("x")
            return generate_clustered(int(k_str), int(size_str), seed)
    except ValueError:
        pass
    raise UsageError(
        f"bad --generate spec {spec!r}; expected random:n,m[,seed], "
        f"clustered:KxSIZE, or figure1"
    )


def _fault_int(text: str, what: str, spec: str) -> int:
    """``int(text)``, or a UsageError that names ``what`` in the --faults ``spec``."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad --faults {what} in {spec!r}") from None


def parse_fault_spec(spec: str) -> FaultSpec:
    """Fault grammar: TRIGGER:TARGETS[:seed=S].

    TRIGGER is 'step=N' or 'post'; TARGETS is 'node=V,field=F' with F one of
    path|count|bcc|pc|locals|all, or 'random=K'.  Injected values are drawn
    randomly within type bounds.
    """
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"bad --faults spec {spec!r}")
    trigger_str, target_str = parts[0], parts[1]
    seed = 0
    if len(parts) == 3:
        if not parts[2].startswith("seed="):
            raise UsageError(f"bad --faults suffix {parts[2]!r}; expected seed=S")
        seed = _fault_int(parts[2][len("seed="):], "seed", spec)

    if trigger_str == "post":
        trigger: int | str = POST_STABILIZATION
    elif trigger_str.startswith("step="):
        trigger = _fault_int(trigger_str[len("step="):], "trigger", spec)
    else:
        raise UsageError(f"bad --faults trigger {trigger_str!r}; expected step=N or post")

    if target_str.startswith("random="):
        k = _fault_int(target_str[len("random="):], "target", spec)
        return FaultSpec(trigger=trigger, random_fields=k, seed=seed)

    node = None
    fname = None
    for item in target_str.split(","):
        key, _, value = item.partition("=")
        if (key == "node" and node is not None) or (key == "field" and fname is not None):
            raise UsageError(f"repeated --faults target key {key!r} in {spec!r}")
        if key == "node":
            node = _fault_int(value, "node", spec)
        elif key == "field":
            fname = value
        else:
            raise UsageError(f"bad --faults target item {item!r}")
    if node is None or fname is None:
        raise UsageError(f"--faults target needs node=V,field=F, got {target_str!r}")
    if fname == "all":
        targets = tuple((node, f) for f in simulator.REGISTER_FIELDS)
    elif fname in simulator.FAULT_FIELDS:
        targets = ((node, fname),)
    else:
        raise UsageError(f"unknown fault field {fname!r}")
    return FaultSpec(trigger=trigger, targets=targets, seed=seed)


def parse_seed_range(text: str) -> list[int]:
    """Seed ranges: 'A-B' inclusive or a single integer N meaning 0..N-1."""
    try:
        if "-" in text:
            lo_str, _, hi_str = text.partition("-")
            lo, hi = int(lo_str), int(hi_str)
            seeds = list(range(lo, hi + 1))
        else:
            seeds = list(range(int(text)))
    except ValueError:
        raise UsageError(f"bad --seeds range {text!r}") from None
    if not seeds:
        raise UsageError(f"empty --seeds range {text!r}")
    return seeds


def _int_at_least(low: int):
    """An argparse ``type=`` for integers >= low; argparse reports a ValueError."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _load_graph(args, seed: int) -> Graph:
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as fh:
            return parse_graph(fh.read())
    if args.generate:
        return parse_generate_spec(args.generate, seed)
    raise UsageError("one of --graph or --generate is required")


# ---------------------------------------------------------------------------
# report documents

def _detection_doc(detection: analysis.DetectionResult | None) -> dict | None:
    if detection is None:
        return None
    components = []
    for part in sorted(detection.partition(), key=min):
        members = sorted(part)
        components.append(
            {
                "label": format_path(detection.component_of[members[0]]),
                "members": members,
            }
        )
    return {
        "bridges": [list(e) for e in sorted(detection.bridges)],
        "articulation_points": sorted(detection.articulation_points),
        "components": components,
    }


def build_report(
    g: Graph,
    report: simulator.RunReport,
    scheduler_seed: int,
    init_seed: int,
) -> dict:
    certification = None
    if report.detection is not None:
        cert = analysis.certify(report.detection, g)
        certification = {"match": cert.match, "mismatches": list(cert.mismatches)}
    return {
        "graph": {
            "n": g.n,
            "m": g.edge_count,
            "d": g.diameter,
            "delta": g.max_degree,
        },
        "run": {
            "scheduler": report.scheduler,
            "seeds": {"scheduler": scheduler_seed, "init": init_seed},
            "rounds": report.rounds,
            "steps": report.total_steps,
            "stabilization_round": report.stabilization_round,
            "stabilized": report.stabilized,
        },
        "faults": [
            {
                "step": ev.step,
                "round": ev.round,
                "node": ev.node,
                "fields": list(ev.fields),
            }
            for ev in report.fault_events
        ],
        "detection": _detection_doc(report.detection),
        "certification": certification,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# DOT export

_FILL_COLORS = (
    "#a6cee3", "#b2df8a", "#fb9a99", "#fdbf6f", "#cab2d6",
    "#ffff99", "#1f78b4", "#33a02c", "#e31a1c", "#ff7f00",
)


def render_dot(g: Graph, detection: analysis.DetectionResult, gt: GroundTruth) -> str:
    """Annotated DOT text: tree edges solid, non-tree dashed, bridges bold
    red, articulation points double-circled, one fill color per component."""
    tree = {frozenset((v, p)) for v, p in gt.parent.items()}
    bridges = {frozenset(e) for e in detection.bridges}
    color_of = {}
    for idx, part in enumerate(sorted(detection.partition(), key=min)):
        for v in part:
            color_of[v] = _FILL_COLORS[idx % len(_FILL_COLORS)]
    lines = ["graph stabconn {", "  node [style=filled];"]
    for v in range(1, g.n + 1):
        shape = "doublecircle" if v in detection.articulation_points else "circle"
        lines.append(f'  v{v} [shape={shape}, fillcolor="{color_of[v]}"];')
    for u, v in g.edges:
        key = frozenset((u, v))
        if key in bridges:
            attrs = ' [style=bold, color=red, penwidth=2]'
        elif key in tree:
            attrs = ""
        else:
            attrs = " [style=dashed]"
        lines.append(f"  v{u} -- v{v}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    g = _load_graph(args, args.seed)
    scheduler = simulator.make_scheduler(args.scheduler, seed=args.seed)
    init = simulator.init_arbitrary(g, args.init_seed)
    faults = [parse_fault_spec(s) for s in args.faults]
    gt = ground_truth(g)
    _, report = simulator.run(
        g,
        scheduler,
        init,
        faults=faults,
        max_rounds=args.max_rounds,
        closure_rounds=args.closure_rounds,
        gt=gt,
    )
    doc = build_report(g, report, args.seed, args.init_seed)
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    if args.dot:
        if report.detection is None:
            print("cannot export DOT: run did not stabilize", file=sys.stderr)
        else:
            _emit(render_dot(g, report.detection, gt), args.dot)
    return exit_code(report.stabilized, _certified(doc))


def cmd_sweep(args) -> int:
    specs = [s for s in args.graphs.split(";") if s]
    if not specs:
        raise UsageError("--graphs needs at least one spec")
    seeds = parse_seed_range(args.seeds)
    schedulers = (
        list(simulator.SCHEDULER_NAMES) if args.scheduler == "all" else [args.scheduler]
    )
    runs = []
    for spec in specs:
        for i, seed in enumerate(seeds):
            g = parse_generate_spec(spec, seed)
            sched_name = schedulers[i % len(schedulers)]
            scheduler = simulator.make_scheduler(sched_name, seed=seed + 1)
            init = simulator.init_arbitrary(g, seed + 2)
            _, report = simulator.run(g, scheduler, init, max_rounds=args.max_rounds)
            doc = build_report(g, report, seed + 1, seed + 2)
            graph, round_ = doc["graph"], doc["run"]["stabilization_round"]
            ratio = None if round_ is None else round(round_ / simulator.round_bound(g), 4)
            runs.append(
                {
                    "graph": spec,
                    "seed": seed,
                    "scheduler": sched_name,
                    "n": graph["n"],
                    "m": graph["m"],
                    "stabilized": doc["run"]["stabilized"],
                    "certified": _certified(doc),
                    "stabilization_round": round_,
                    "round_ratio": ratio,
                }
            )
    # a run is certified only if it stabilized
    failures = [
        {"graph": r["graph"], "seed": r["seed"],
         "reason": "certification mismatch" if r["stabilized"] else "did not stabilize"}
        for r in runs
        if not r["certified"]
    ]
    runs.sort(key=lambda r: (r["graph"], r["seed"]))
    ratios = [r["round_ratio"] for r in runs if r["round_ratio"] is not None]
    doc = {
        "sweep": {
            "graphs": specs,
            "seeds": args.seeds,
            "schedulers": schedulers,
        },
        "summary": {
            "runs": len(runs),
            "stabilized": sum(r["stabilized"] for r in runs),
            "certified": sum(r["certified"] for r in runs),
            "max_round_ratio": max(ratios, default=0.0),
            "failures": failures,
        },
        "runs": runs,
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return max(exit_code(r["stabilized"], r["certified"]) for r in runs)


def cmd_export_dot(args) -> int:
    g = _load_graph(args, args.seed)
    gt = ground_truth(g)
    _emit(render_dot(g, analysis.extract(g, gt.registers, gt=gt), gt), args.out)
    return EXIT_OK


def _add_graph_flags(p: argparse.ArgumentParser, seed_help: str) -> None:
    p.add_argument("--graph", help="graph file to load")
    p.add_argument("--generate", help="generator spec: random:n,m[,seed] | clustered:KxSIZE | figure1")
    p.add_argument("--seed", type=int, default=0, help=seed_help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stabconn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one execution and certify it")
    _add_graph_flags(p_run, "scheduler (and generator) seed")
    p_run.add_argument("--scheduler", default="round-robin", choices=simulator.SCHEDULER_NAMES)
    p_run.add_argument("--init-seed", type=int, default=0, help="initial-configuration seed")
    p_run.add_argument("--max-rounds", type=_int_at_least(1), default=None)
    p_run.add_argument("--faults", action="append", default=[], metavar="SPEC",
                       help="fault spec: (step=N|post):(node=V,field=F|random=K)[:seed=S]")
    p_run.add_argument("--closure-rounds", type=_int_at_least(0), default=0)
    p_run.add_argument("--out", help="write the JSON report here instead of stdout")
    p_run.add_argument("--dot", help="also write an annotated DOT file")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a (graphs x seeds) matrix")
    p_sweep.add_argument("--graphs", required=True,
                         help="semicolon-separated generator specs")
    p_sweep.add_argument("--seeds", required=True, help="'A-B' inclusive or a count N")
    p_sweep.add_argument("--scheduler", default="all",
                         choices=simulator.SCHEDULER_NAMES + ("all",))
    p_sweep.add_argument("--max-rounds", type=_int_at_least(1), default=None)
    p_sweep.add_argument("--out", help="write the JSON report here instead of stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dot = sub.add_parser("dot", help="export an annotated DOT drawing of the ground truth")
    _add_graph_flags(p_dot, "generator seed")
    p_dot.add_argument("--out", help="write DOT here instead of stdout")
    p_dot.set_defaults(func=cmd_export_dot)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (GraphError, simulator.FaultTargetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
