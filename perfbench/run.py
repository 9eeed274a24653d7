"""stabconn benchmark: certified verdicts per second on two workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-small --seed 1 --seconds 55 --trace 0

Each instance does what ``stabconn run`` does, through the library: ground
truth, initial configuration, ``simulator.run``, ``cli.build_report`` and
``json.dumps``.  Its time runs from its start until its certified report is
serialized.  Instances run one at a time in this one process: a closed loop
with a single client and no threads.  A workload is a fixed list of
instances made from ``--seed``; the timed loop repeats the whole list while
another pass fits in ``--seconds``, and makes at least MIN_PASSES passes.

Times are measured against a reference.  On a shared cloud host the same
code runs up to 1.9 times slower while neighbours are busy, and the process's
CPU time tracks its wall time, so the slowdown is not visible as waiting.
The slow and fast spells alternate within seconds and sometimes last for
minutes, so an instance's minimum time over a minute's passes is not steady.
A fixed piece of pure-Python graph work (``reference_seconds``), which runs
no stabconn code, is timed before each pass, after its last instance, and
after any instance that ends REFERENCE_EVERY_S or more after the previous
reading.  Each instance's time is divided by the mean of the
readings just before and just after it, and multiplied by REFERENCE_S: that
gives seconds on a host where the reference reads REFERENCE_S.  An
instance's time in a run is the median of these over the passes.  The
program's own speed shows in full, since the reference does not change when
the program does.  ``--trace 0`` prints the end-to-end metrics:

    setup_s          median of 15 set-ups, each a fresh import plus input
                     generation, scaled like an instance
    wall_s           one pass: the sum of the instances' times
    instances_per_s  certified instances per second of wall_s
    verdict_p50_s    median instance time (with 100 or more instances the
                     90th percentile is printed on a line of its own)
    certified_frac   instances that passed every check, over those attempted
    peak_rss_mb      peak resident memory of the process

Simulated steps per pass and per second are printed on a line of their own:
on recover-large the steps depend on how far the fault cascades while the
time is mostly the oracle's, so their ratio is no measure of speed there.

Every instance is checked.  It fails if it raised, did not stabilize, was
not certified, ended with registers other than the ground truth, or changed
a register during its closure window.  Failures are counted, their repro is
printed, and the run goes on.  ``attempted`` and ``failed`` count distinct
instances, not instance runs, so they depend on the seed alone and not on
how many passes fit in ``--seconds``.  ``correct`` is false only if a report
certifies bridges, articulation points or components that differ from the
ground truth, or if two passes disagree on the digest of the simulated
statistics (steps, rounds, stabilization round and final registers of every
instance).

``--trace 1`` alternates untraced and traced passes, prints the per-layer
metrics and writes the spans to ``.bench_out/``.  Spans come from wrapping
public attributes of the stabconn modules (``layer_bindings``), so the
program is not edited.  What each per-layer metric should move, and where:

    layer metric                           moves                        on
    protocol.execute_step.calls/.self_s,   instances_per_s, wall_s      sweep-small
      protocol.step_us, protocol.share                                  (kernel ~60% of traced wall)
    protocol.writes, .changed_writes,      verdict_p50_s                ~0.24 useful on sweep-small,
      .useful_write_ratio                                               near 0 in recover-large
    simulator.run.self_s (scheduler,       instances_per_s              sweep-small
      round check, space meter, faults),
      simulator.rounds
    simulator.init_arbitrary.s             instances_per_s              sweep-small; absent in recover-large
    oracle.ground_truth.s/.calls           verdict_p50_s                recover-large; <=5% elsewhere
    oracle.brute.s, oracle.is_connected.   verdict_p50_s                recover-large (with ground truth
      calls, analysis.certify.s/.calls,                                 ~60% of traced wall); ~10% on sweep-small
      oracle_certify.share
    analysis.extract.s, graph.diameter.s,  verdict_p50_s                recover-large
      cli.build_report.self_s, cli.json_s
    trace.overhead_frac                    (traced / untraced wall - 1) all

Exit status is 0 when the run completes, failures included, and 2 when the
stabconn package cannot be imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from tracer import Binding, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

#: set-ups per run; setup_s is their median
SETUP_REPEATS = 15
#: untraced passes per run at least, so each instance's time is a median
MIN_PASSES = 3
#: Times are scaled to a host on which ``reference_seconds`` reads this
#: (a 2-vCPU 2.1 GHz cloud VM in its fast spells).  The host's speed is
#: sampled about every REFERENCE_EVERY_S during each pass.
REFERENCE_S = 0.013
REFERENCE_EVERY_S = 0.25
CLOSURE_ROUNDS = 20
SCHEDULERS = ("round-robin", "random", "weighted")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instances_per_s": "1/s",
    "verdict_p50_s": "s",
    "certified_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> (unit, layer whose wrapping it needs)
PER_LAYER = {
    "protocol.execute_step.calls": ("count", "protocol.execute_step"),
    "protocol.execute_step.self_s": ("s", "protocol.execute_step"),
    "protocol.step_us": ("us", "protocol.execute_step"),
    "protocol.share": ("ratio", "protocol.execute_step"),
    "protocol.writes": ("count", "protocol.execute_step"),
    "protocol.changed_writes": ("count", "protocol.execute_step"),
    "protocol.useful_write_ratio": ("ratio", "protocol.execute_step"),
    "simulator.run.self_s": ("s", "simulator.run"),
    "simulator.rounds": ("count", "simulator.run"),
    "simulator.init_arbitrary.s": ("s", "simulator.init_arbitrary"),
    "oracle.ground_truth.s": ("s", "oracle.ground_truth"),
    "oracle.ground_truth.calls": ("count", "oracle.ground_truth"),
    "oracle.brute.s": ("s", "oracle.brute"),
    "oracle.is_connected.calls": ("count", "oracle.is_connected"),
    "analysis.certify.s": ("s", "analysis.certify"),
    "analysis.certify.calls": ("count", "analysis.certify"),
    "oracle_certify.share": ("ratio", "analysis.certify"),
    "analysis.extract.s": ("s", "analysis.extract"),
    "graph.diameter.s": ("s", "graph.diameter"),
    "cli.build_report.self_s": ("s", "cli.build_report"),
    "cli.json_s": ("s", "cli.json"),
    "trace.overhead_frac": ("ratio", None),
}
#: metrics read from the StepEvent that execute_step returns
FROM_EVENTS = {"protocol.writes", "protocol.changed_writes", "protocol.useful_write_ratio"}


# ---------------------------------------------------------------------------
# the program under test

def import_stabconn() -> SimpleNamespace:
    """Import stabconn afresh from this checkout's ``src``, never elsewhere."""
    for name in [n for n in sys.modules if n == "stabconn" or n.startswith("stabconn.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("stabconn")
    if Path(package.__file__).resolve().parent != SRC / "stabconn":
        raise ImportError(f"stabconn came from {package.__file__}, not from {SRC}")
    names = ("graph", "oracle", "protocol", "simulator", "analysis", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"stabconn.{n}") for n in names})


def _count_writes(counts: dict, result) -> None:
    event = result[1]
    if event.kind == "write":
        counts["writes"] = counts.get("writes", 0) + 1
        if event.changed:
            counts["changed_writes"] = counts.get("changed_writes", 0) + 1


def layer_bindings(m: SimpleNamespace) -> list[Binding]:
    """The names wrapped for tracing.  A name is wrapped where its callers
    look it up: ``execute_step`` in ``simulator``, which imported it by name,
    and ``ground_truth`` and the brute-force oracles in every module that
    did so."""
    brute = ("brute_bridges", "brute_articulation_points", "brute_bcc_partition")
    return [
        Binding(m.simulator, "execute_step", "protocol.execute_step", _count_writes),
        Binding(m.simulator, "run", "simulator.run"),
        Binding(m.simulator, "init_arbitrary", "simulator.init_arbitrary"),
        *(Binding(mod, "ground_truth", "oracle.ground_truth")
          for mod in (m.oracle, m.simulator, m.analysis)),
        *(Binding(mod, name, "oracle.brute") for mod in (m.oracle, m.analysis) for name in brute),
        Binding(m.oracle, "is_connected", "oracle.is_connected"),
        Binding(m.analysis, "extract", "analysis.extract"),
        Binding(m.analysis, "certify", "analysis.certify"),
        Binding(m.graph.Graph, "diameter", "graph.diameter"),
        Binding(m.cli, "build_report", "cli.build_report"),
        Binding(json, "dumps", "cli.json"),
    ]


def _reference_graph(n: int = 400) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """A fixed random connected graph: a random tree plus n random edges."""
    rng = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(n + 1)]
    for v in range(2, n + 1):
        u = rng.randrange(1, v)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(n):
        u, v = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    edges = sorted({(min(u, v), max(u, v)) for u in range(1, n + 1) for v in adj[u]})
    return adj, edges


REFERENCE_ADJ, REFERENCE_EDGES = _reference_graph()


def reference_seconds() -> float:
    """Time a fixed piece of the interpreter work the program does most:
    depth-first reachability over a 400-node graph with one edge removed,
    with tuples, sets and list lookups, repeated for 20 edges."""
    start = time.perf_counter()
    adj = REFERENCE_ADJ
    for dead in REFERENCE_EDGES[:20]:
        reached = {1}
        frontier = [1]
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if (min(v, w), max(v, w)) != dead and w not in reached:
                    reached.add(w)
                    frontier.append(w)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# workloads

@dataclass(frozen=True)
class Instance:
    index: int
    graph: Any  # a stabconn Graph; every run works on a fresh copy of it
    generate: str  # generator spec, as ``--generate`` takes it
    graph_seed: int
    scheduler: str
    scheduler_seed: int
    init_seed: int | None  # None: start from the legitimate configuration
    faults: tuple = ()
    fault_specs: tuple[str, ...] = ()  # the faults, as ``--faults`` takes them
    closure_rounds: int = 0

    def repro(self) -> dict:
        return {
            "index": self.index,
            "generate": self.generate,
            "graph_seed": self.graph_seed,
            "scheduler": self.scheduler,
            "scheduler_seed": self.scheduler_seed,
            "init_seed": "legitimate" if self.init_seed is None else self.init_seed,
            "faults": list(self.fault_specs),
            "closure_rounds": self.closure_rounds,
        }


def _graph(m, kind: str, shape, graph_seed: int):
    if kind == "random":
        n, extra = shape
        spec = f"random:{n},{n - 1 + extra}"
        return m.graph.generate_random_connected(n, extra, graph_seed), spec
    k, size = shape
    return m.graph.generate_clustered(k, size, graph_seed), f"clustered:{k}x{size}"


def sweep_small(m, rng: random.Random, tiny: bool) -> list[Instance]:
    """Like the acceptance matrix: half random graphs with n cycling through
    3..40, half clustered graphs cycling through 1..8 cycles of 3..5 nodes,
    the three schedulers in turn, random initial states."""
    count, n_span, k_span = (6, 6, 2) if tiny else (300, 38, 8)
    out = []
    for i in range(count):
        j = i // 2
        if i % 2 == 0:
            n = 3 + j % n_span
            extra = rng.randint(0, min(n, n * (n - 1) // 2 - (n - 1)))
            kind, shape = "random", (n, extra)
        else:
            kind, shape = "clustered", (1 + j % k_span, 3 + (j // k_span) % 3)
        graph_seed = rng.randrange(1 << 30)
        g, spec = _graph(m, kind, shape, graph_seed)
        out.append(Instance(i, g, spec, graph_seed, SCHEDULERS[i % 3],
                            rng.randrange(1 << 30), rng.randrange(1 << 30)))
    return out


#: the reference graph of recover-large and a fault on it that shows the
#: premature stabilization verdict: the closure window ends off-legitimate
RECOVER_GRAPH = ((160, 160), 0)
RECOVER_REPRO = (18, "pc", "round-robin", 516819858)  # node, field, scheduler, seed
RECOVER_JOBS = 8
RECOVER_TINY_GRAPH = ((16, 8), 0)
#: the faults of recover-large are drawn once, from this seed
RECOVER_CORPUS_SEED = 0


def _fault_job(m, index, g, spec, graph_seed, node, field, scheduler, seed) -> Instance:
    fault = m.simulator.FaultSpec(
        trigger=m.simulator.POST_STABILIZATION, targets=((node, field),), seed=seed
    )
    return Instance(index, g, spec, graph_seed, scheduler, seed, None, (fault,),
                    (f"post:node={node},field={field}:seed={seed}",), CLOSURE_ROUNDS)


def recover_large(m, rng: random.Random, tiny: bool) -> list[Instance]:
    """Faults injected into the legitimate configuration of one fixed graph.

    The graph and the faults are the same on every seed, and the seed only
    orders the jobs.  How far a fault cascades is heavy-tailed (24 to 500
    rounds), and failures cost less than certified jobs, so drawing the
    faults per seed moved wall_s and instances_per_s between seeds by more
    than the benchmark's bounds allow for noise.  The faults are drawn once,
    from RECOVER_CORPUS_SEED, and were not picked by outcome.  The first job
    is the known repro of the premature verdict, kept so the baseline shows
    it.  Weighted scheduling is left out: its long rounds would make the
    kernel, not the oracle, dominate.  The graph has 160 nodes, so that one
    job takes about half a second and fits in a fast spell of the host, and
    a pass is short enough to be repeated five or more times in a run.
    """
    shape, graph_seed = RECOVER_TINY_GRAPH if tiny else RECOVER_GRAPH
    g, spec = _graph(m, "random", shape, graph_seed)
    jobs = [] if tiny else [_fault_job(m, 0, g, spec, graph_seed, *RECOVER_REPRO)]
    fields = ("count", "bcc", "pc")
    corpus = random.Random(RECOVER_CORPUS_SEED)
    for i in range(len(jobs), 3 if tiny else RECOVER_JOBS):
        node = corpus.randint(1, g.n)
        scheduler = ("round-robin", "random")[i % 2]
        jobs.append(_fault_job(m, i, g, spec, graph_seed, node, fields[i % 3],
                               scheduler, corpus.randrange(1 << 30)))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "sweep-small": sweep_small,
    "recover-large": recover_large,
}


# ---------------------------------------------------------------------------
# one instance

@dataclass
class Outcome:
    seconds: float
    steps: int
    rounds: int
    failure: str | None  # why the instance failed, None if it passed
    wrong: bool  # certified detection sets that differ from the ground truth
    digest_item: str  # hash of the simulated statistics; kept small, since
    # every pass's outcomes stay in memory and peak_rss_mb must not grow with them
    raised_at: str | None = None  # innermost frame of an exception


def legitimate_configuration(m, g, gt):
    """Registers, locals and program counters of a converged run."""
    regs = gt.registers
    return m.simulator.Configuration(
        g,
        [
            m.protocol.ProcessorState(
                register=reg,
                path=reg.path,
                count=reg.count,
                n_in=0,
                n_out=0,
                read_path=[regs[w - 1].path for w in g.neighbors(v)],
                read_count=[regs[w - 1].count for w in g.neighbors(v)],
                read_bcc=[regs[w - 1].bcc for w in g.neighbors(v)],
                pc=0,
            )
            for v, reg in enumerate(regs, start=1)
        ],
    )


def _verdict_failure(inst: Instance, gt, report, doc) -> str | None:
    if not report.stabilized:
        return "did not stabilize"
    certification = doc["certification"]
    if not certification["match"]:
        return "certification mismatch: " + "; ".join(certification["mismatches"])
    if report.final_registers != gt.registers:
        return "final registers differ from the ground truth"
    if inst.closure_rounds and report.post_stabilization_changes:
        return f"{report.post_stabilization_changes} register changes in the closure window"
    return None


def _contradicts(doc, gt) -> bool:
    detection = doc["detection"]
    return (
        detection["bridges"] != [list(e) for e in sorted(gt.bridges)]
        or detection["articulation_points"] != sorted(gt.articulation_points)
        or {frozenset(c["members"]) for c in detection["components"]} != gt.partition
    )


def _digest(item) -> str:
    return hashlib.sha256(repr(item).encode()).hexdigest()


def run_instance(m, inst: Instance) -> Outcome:
    start = time.perf_counter()
    try:
        g = dataclasses.replace(inst.graph)  # no cached diameter or port index
        gt = m.oracle.ground_truth(g)
        if inst.init_seed is None:
            init = legitimate_configuration(m, g, gt)
        else:
            init = m.simulator.init_arbitrary(g, inst.init_seed)
        scheduler = m.simulator.make_scheduler(inst.scheduler, seed=inst.scheduler_seed)
        _, report = m.simulator.run(
            g, scheduler, init, faults=inst.faults, closure_rounds=inst.closure_rounds, gt=gt
        )
        doc = m.cli.build_report(g, report, inst.scheduler_seed, inst.init_seed or 0)
        json.dumps(doc, indent=2)
    except Exception as exc:  # a failing instance is counted, never fatal
        error = f"{type(exc).__name__}: {exc}"
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}"
        return Outcome(time.perf_counter() - start, 0, 0, error, False,
                       _digest((inst.index, error)), where)
    seconds = time.perf_counter() - start
    failure = _verdict_failure(inst, gt, report, doc)
    return Outcome(
        seconds,
        report.total_steps,
        report.rounds,
        failure,
        failure is None and _contradicts(doc, gt),
        _digest((inst.index, report.total_steps, report.rounds, report.stabilization_round,
                 report.final_registers, failure)),
    )


# ---------------------------------------------------------------------------
# passes and metrics

@dataclass
class Pass:
    wall: float
    outcomes: list[Outcome]
    digest: str
    references: list[float]  # reference_seconds readings during the pass
    scaled: list[float]  # each instance's seconds, scaled by the readings around it
    tracer: Tracer | None = None


def run_pass(m, instances: list[Instance], tracer: Tracer | None = None) -> Pass:
    outcomes = []
    references = [reference_seconds()]
    before = []  # index of the last reading before each instance
    sampled = time.perf_counter()
    for inst in instances:
        if tracer is not None:
            tracer.begin_instance(inst.index)
        before.append(len(references) - 1)
        outcomes.append(run_instance(m, inst))
        if time.perf_counter() - sampled >= REFERENCE_EVERY_S or inst is instances[-1]:
            references.append(reference_seconds())
            sampled = time.perf_counter()
    scaled = [
        o.seconds * 2 * REFERENCE_S / (references[i] + references[i + 1])
        for o, i in zip(outcomes, before)
    ]
    digest = hashlib.sha256(
        "\n".join(o.digest_item for o in outcomes).encode()
    ).hexdigest()[:16]
    wall = sum(o.seconds for o in outcomes)
    return Pass(wall, outcomes, digest, references, scaled, tracer)


def instance_times(passes: list[Pass]) -> list[float]:
    """Each instance's median scaled time over the passes."""
    return [statistics.median(runs) for runs in zip(*(p.scaled for p in passes))]


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    per_instance = instance_times(passes)
    wall = sum(per_instance)
    first = passes[0].outcomes  # every pass has the same digest, so the same counts
    certified = sum(o.failure is None for o in first)
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "instances_per_s": certified / wall,
        "verdict_p50_s": statistics.median(per_instance),
        "certified_frac": certified / len(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(p: Pass) -> dict[str, float]:
    """Layer totals of one traced pass, times scaled by the pass's median
    reference reading."""
    t = p.tracer.totals()
    k = REFERENCE_S / statistics.median(p.references)
    step = t["protocol.execute_step"]
    writes = step.counts.get("writes", 0)
    changed = step.counts.get("changed_writes", 0)
    return {
        "protocol.execute_step.calls": step.calls,
        "protocol.execute_step.self_s": k * step.self_s,
        "protocol.step_us": 1e6 * k * step.self_s / step.calls if step.calls else 0.0,
        "protocol.share": step.self_s / p.wall,
        "protocol.writes": writes,
        "protocol.changed_writes": changed,
        "protocol.useful_write_ratio": changed / writes if writes else 0.0,
        "simulator.run.self_s": k * t["simulator.run"].self_s,
        "simulator.rounds": sum(o.rounds for o in p.outcomes),
        "simulator.init_arbitrary.s": k * t["simulator.init_arbitrary"].s,
        "oracle.ground_truth.s": k * t["oracle.ground_truth"].s,
        "oracle.ground_truth.calls": t["oracle.ground_truth"].calls,
        "oracle.brute.s": k * t["oracle.brute"].s,
        "oracle.is_connected.calls": t["oracle.is_connected"].calls,
        "analysis.certify.s": k * t["analysis.certify"].s,
        "analysis.certify.calls": t["analysis.certify"].calls,
        "oracle_certify.share": (t["oracle.ground_truth"].s + t["analysis.certify"].s) / p.wall,
        "analysis.extract.s": k * t["analysis.extract"].s,
        "graph.diameter.s": k * t["graph.diameter"].s,
        "cli.build_report.self_s": k * t["cli.build_report"].self_s,
        "cli.json_s": k * t["cli.json"].s,
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Set up, run the timed loop and return metrics, digest and failures.

    Raises ImportError when stabconn cannot be imported from the checkout.
    """
    setups = []
    reference = reference_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        m = import_stabconn()
        instances = WORKLOADS[workload](m, random.Random(seed), tiny)
        seconds_taken = time.perf_counter() - start
        after = reference_seconds()
        setups.append(seconds_taken * 2 * REFERENCE_S / (reference + after))
        reference = after
    setup_s = statistics.median(setups)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    bindings = layer_bindings(m)
    start = time.perf_counter()
    units = []
    while True:
        unit_start = time.perf_counter()
        if not trace:
            untraced.append(run_pass(m, instances))
        else:
            # alternate which side runs first, so warm-up favours neither
            for side in (("off", "on") if len(units) % 2 == 0 else ("on", "off")):
                if side == "off":
                    untraced.append(run_pass(m, instances))
                else:
                    with Tracer(bindings) as tracer:
                        traced.append(run_pass(m, instances, tracer))
        units.append(time.perf_counter() - unit_start)
        enough = trace or len(untraced) >= MIN_PASSES
        if enough and time.perf_counter() - start + statistics.median(units) > seconds:
            break

    passes = untraced + traced
    digests = {p.digest for p in passes}
    outcomes = [o for p in passes for o in p.outcomes]
    if trace:
        tracer = traced[0].tracer
        layers = [per_layer(p) for p in traced]
        metrics = {
            name: {"value": min(v[name] for v in layers), "unit": unit}
            for name, (unit, layer) in PER_LAYER.items()
            if layer is not None
            and layer not in tracer.unmeasured
            and not (name in FROM_EVENTS and layer in tracer.unobserved)
        }
        overhead = sum(instance_times(traced)) / sum(instance_times(untraced)) - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        trace_doc = {
            "workload": workload,
            "seed": seed,
            "passes": [
                {
                    "wall_s": p.wall,
                    "instances": [
                        {"instance": i.index, "s": o.seconds, "failure": o.failure}
                        for i, o in zip(instances, p.outcomes)
                    ],
                    "spans": p.tracer.records(),
                }
                for p in traced
            ],
            "untraced_walls_s": [p.wall for p in untraced],
            "unmeasured_layers": tracer.unmeasured,
            "missing_bindings": tracer.missing,
            "unobserved_layers": sorted(tracer.unobserved),
        }
    else:
        metrics = {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value in end_to_end(untraced, setup_s).items()
        }
        trace_doc = None
    failures = {}
    for p in passes:
        for inst, o in zip(instances, p.outcomes):
            if o.failure is not None:
                failures[inst.index] = {"workload": workload, **inst.repro(),
                                        "error": o.failure, "raised_at": o.raised_at}
    return {
        "result": {
            "correct": len(digests) == 1 and not any(o.wrong for o in outcomes),
            "attempted": len(instances),
            "failed": len(failures),
            "metrics": metrics,
        },
        "digests": sorted(digests),
        "failures": [failures[k] for k in sorted(failures)],
        "instances": len(instances),
        "steps": sum(o.steps for o in passes[0].outcomes),
        "passes": len(passes),
        "times": instance_times(untraced),
        "trace": trace_doc,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import stabconn from {SRC}: {exc}", file=sys.stderr)
        return 2
    if out["trace"] is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(out["trace"]) + "\n", encoding="utf-8")
        print(f"trace written to {path.relative_to(ROOT)}")
    print(
        f"{args.workload} seed {args.seed}: {out['instances']} instances per pass, "
        f"{out['passes']} passes, digest {' '.join(out['digests'])}"
    )
    for failure in out["failures"]:
        print("failed " + json.dumps(failure))
    times = out["times"]
    print(f"{out['steps']} simulated steps per pass, {out['steps'] / sum(times):.0f} per second")
    if len(times) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(times, n=10)[-1]
        print(f"verdict_p90_s {p90:.6f} over {len(times)} instances")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
