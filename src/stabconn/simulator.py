"""Scheduling daemon, fault injection, and stabilization detection.

One simulation serializes atomic steps: at every step a fair scheduler picks
a single processor, which performs exactly one register read or write.  Runs
start from arbitrary (seeded random) states, made by the fault injector
corrupting every field of every node.  An omniscient observer compares
registers against the centralized ground truth at the end of every round and
declares stabilization after one legitimate round followed by one legitimate
round that changed no register; the processors themselves never detect
termination.  Quiet nodes replay a recorded cycle instead of stepping (see
``run``).  A run returns the final registers and, once stabilized, the
detection sets read off them; certifying those sets is left to the caller.
``alpha_independence`` repeats whole runs under port re-orderings.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from . import analysis
from .graph import Graph, NodeId, shuffle_ports
from .oracle import GroundTruth, ground_truth
from .protocol import (
    NodeProgram,
    Path,
    ProcessorState,
    Register,
    StepEvent,
    advance,
    execute_step,
    initial_state,
    node_program,
    payload_bits,
)

POST_STABILIZATION = "post-stabilization"

REGISTER_FIELDS = ("path", "count", "bcc")
#: in the order init_arbitrary draws them
FAULT_FIELDS = REGISTER_FIELDS + ("locals", "pc")


@dataclass(eq=True)
class Configuration:
    """One state per processor; the graph rides along for port lookups."""

    graph: Graph
    states: list[ProcessorState]

    def registers(self) -> tuple[Register, ...]:
        return tuple(st.register for st in self.states)


# ---------------------------------------------------------------------------
# schedulers

class RoundRobin:
    """Activates 1..n forever; every round is exactly n steps."""

    name = "round-robin"

    def activations(self, n: int) -> Iterator[NodeId]:
        while True:
            yield from range(1, n + 1)


class UniformRandom:
    """Each step activates a uniformly random processor; fair with probability 1."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def activations(self, n: int) -> Iterator[NodeId]:
        rng = random.Random(self.seed)
        population = range(1, n + 1)
        while True:
            yield from rng.choices(population, k=512)


class WeightedRandom:
    """Random activations with per-node weights (all positive, hence fair)."""

    name = "weighted"

    def __init__(self, seed: int):
        self.seed = seed

    def activations(self, n: int) -> Iterator[NodeId]:
        rng = random.Random(self.seed)
        weights = tuple(rng.uniform(1.0, 10.0) for _ in range(n))
        population = range(1, n + 1)
        while True:
            yield from rng.choices(population, weights=weights, k=512)


SCHEDULER_NAMES = ("round-robin", "random", "weighted")


def make_scheduler(name: str, seed: int = 0):
    if name == "round-robin":
        return RoundRobin()
    if name == "random":
        return UniformRandom(seed)
    if name == "weighted":
        return WeightedRandom(seed)
    raise ValueError(f"unknown scheduler {name!r}; pick one of {SCHEDULER_NAMES}")


# ---------------------------------------------------------------------------
# arbitrary initial states and fault injection

def _below(bits, width: int) -> int:
    """``randrange(width)`` by its own rule, without its argument checks:
    ``width.bit_length()`` bits from ``bits`` (a ``getrandbits``), redrawn
    while the value is >= width, so values and generator state match it."""
    k = width.bit_length()
    r = bits(k)
    while r >= width:
        r = bits(k)
    return r


def _random_path(bits, path_bound: int, delta: int) -> Path:
    symbols = delta + 1
    k = symbols.bit_length()
    path = []
    for _ in range(1 + _below(bits, path_bound)):  # _below inlined: up to n symbols
        r = bits(k)
        while r >= symbols:
            r = bits(k)
        path.append(r)
    return tuple(path)


class FaultTargetError(ValueError):
    """Fault names a node or field that does not exist, or a bad trigger or count."""


@dataclass(frozen=True)
class FaultSpec:
    """A transient corruption event.

    ``trigger`` is a 0-based step index (fires before that step executes) or
    POST_STABILIZATION (fires when stabilization is declared, one such fault
    per declaration, in the order given); anything else is rejected.
    ``targets`` lists (node, field) pairs with field one of path / count /
    bcc / pc / locals; ``random_fields`` (an int >= 0) additionally corrupts
    that many random register-or-pc slots.  Every corrupted value is drawn
    randomly within type bounds from ``seed``.
    """

    trigger: int | str = 0
    targets: tuple[tuple[NodeId, str], ...] = ()
    random_fields: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        # type(), not isinstance(): a bool is an int and would fire
        if self.trigger != POST_STABILIZATION and (
            type(self.trigger) is not int or self.trigger < 0
        ):
            raise FaultTargetError(
                f"fault trigger {self.trigger!r} is neither a step index >= 0 "
                f"nor {POST_STABILIZATION!r}"
            )
        if type(self.random_fields) is not int or self.random_fields < 0:
            raise FaultTargetError(
                f"fault random_fields {self.random_fields!r} is not an int >= 0"
            )


@dataclass(frozen=True)
class FaultEvent:
    step: int
    round: int
    node: NodeId
    fields: tuple[str, ...]


def _check_fault_targets(g: Graph, spec: FaultSpec) -> None:
    """Raise ``FaultTargetError`` unless ``spec`` can fire on ``g``: every
    target names a node of g (an int, not a bool) and a fault field, and
    ``random_fields`` is at most the number of register-or-pc slots."""
    for v, fname in spec.targets:
        # type(), not isinstance(): a bool is an int and would hit node 1
        if type(v) is not int or not 1 <= v <= g.n:
            raise FaultTargetError(f"fault target node {v!r} outside 1..{g.n}")
        if fname not in FAULT_FIELDS:
            raise FaultTargetError(f"unknown fault field {fname!r}")
    pool = g.n * (len(REGISTER_FIELDS) + 1)
    if spec.random_fields > pool:
        raise FaultTargetError(f"cannot pick {spec.random_fields} distinct fields from {pool}")


def _apply_fault_targets(
    states: list[ProcessorState], programs: Sequence[NodeProgram], g: Graph, spec: FaultSpec
) -> list[tuple[NodeId, str]]:
    """Corrupt the caller's ``states`` in place, ``spec`` already checked;
    return the (node, field) pairs hit.  Each node's bounds come from its
    program, path symbols from [bottom, max degree]."""
    rng = random.Random(spec.seed)
    bits = rng.getrandbits
    delta = g.max_degree
    targets = list(spec.targets)
    if spec.random_fields:
        pool = [(v, f) for v in range(1, g.n + 1) for f in REGISTER_FIELDS + ("pc",)]
        targets.extend(rng.sample(pool, spec.random_fields))

    for v, fname in targets:
        st = states[v - 1]
        prog = programs[v - 1]
        path_bound, count_bound = prog.path_bound, prog.count_bound
        counts = 2 * count_bound + 1  # randint(-bound, bound) is -bound + _below(counts)
        reg = st.register
        if fname == "path":
            st.register = Register(_random_path(bits, path_bound, delta), reg.count, reg.bcc)
        elif fname == "count":
            st.register = Register(reg.path, _below(bits, counts) - count_bound, reg.bcc)
        elif fname == "bcc":
            st.register = Register(reg.path, reg.count, _random_path(bits, path_bound, delta))
        elif fname == "pc":
            st.pc = _below(bits, prog.length)
        else:  # locals
            d = prog.degree
            st.path = _random_path(bits, path_bound, delta)
            st.count = _below(bits, counts) - count_bound
            st.n_in = _below(bits, delta + 1)
            st.n_out = _below(bits, delta + 1)
            st.read_path = [_random_path(bits, path_bound, delta) for _ in range(d)]
            st.read_count = [_below(bits, counts) - count_bound for _ in range(d)]
            st.read_bcc = [_random_path(bits, path_bound, delta) for _ in range(d)]
    return targets


def inject_fault(c: Configuration, spec: FaultSpec) -> Configuration:
    """Return a corrupted copy of ``c``, owned by the caller; ``c`` is
    unchanged.  Values are drawn within each node's program bounds."""
    g = c.graph
    _check_fault_targets(g, spec)
    states = [st.clone() for st in c.states]
    _apply_fault_targets(states, [node_program(g, v) for v in range(1, g.n + 1)], g, spec)
    return Configuration(g, states)


def init_arbitrary(g: Graph, seed: int) -> Configuration:
    """Every register field, local variable, and pc independently random.

    This is a fault on every field of fresh zeroed states, in place, so all
    values respect each node's program bounds (path length <= n, symbols in
    [bottom, max degree], counts in [-n^2, n^2]); nothing else is assumed.
    """
    programs = [node_program(g, v) for v in range(1, g.n + 1)]
    states = [initial_state(prog) for prog in programs]
    every_field = tuple((v, f) for v in range(1, g.n + 1) for f in FAULT_FIELDS)
    _apply_fault_targets(states, programs, g, FaultSpec(targets=every_field, seed=seed))
    return Configuration(g, states)


# ---------------------------------------------------------------------------
# stepping

def _reader(states: list[ProcessorState], nbrs: Sequence[NodeId]):
    """The register reader of a node with neighbours ``nbrs``, by port."""

    def read_neighbor(port: int) -> Register:
        return states[nbrs[port - 1] - 1].register

    return read_neighbor


def step(c: Configuration, pid: NodeId) -> tuple[Configuration, StepEvent]:
    """Activate one processor for a single atomic step.

    Only states[pid] changes, and only its own register can be written;
    every other processor state is returned untouched, and so is ``c``.
    Returns the new configuration and the step's register access.
    """
    g = c.graph
    if not 1 <= pid <= g.n:
        raise ValueError(f"processor id {pid} outside 1..{g.n}")
    states = list(c.states)
    read_neighbor = _reader(states, g.neighbors(pid))
    states[pid - 1], event = execute_step(states[pid - 1], node_program(g, pid), read_neighbor)
    return Configuration(g, states), event


# ---------------------------------------------------------------------------
# full runs

@dataclass(frozen=True)
class RoundRecord:
    index: int
    end_step: int
    legitimate: bool
    changed: bool
    registers: tuple[Register, ...]


@dataclass
class Trace:
    """What a run records on request: one record per round, one entry per step."""

    rounds: list[RoundRecord] = field(default_factory=list)
    steps: list[tuple[int, NodeId, StepEvent]] = field(default_factory=list)


@dataclass
class RunReport:
    stabilized: bool
    stabilization_round: int | None
    rounds: int
    total_steps: int
    fault_events: list[FaultEvent]
    detection: analysis.DetectionResult | None
    post_stabilization_changes: int | None
    max_path_len: int
    max_register_bits: int
    scheduler: str
    final_registers: tuple[Register, ...] = ()


def default_max_rounds(g: Graph) -> int:
    """Engineering margin over the asymptotic round bound: 10 * d * n * delta."""
    return max(10, 10 * max(1, g.diameter) * g.n * max(1, g.max_degree))


def _fire(
    spec: FaultSpec, g: Graph, states: list[ProcessorState], programs: list[NodeProgram],
    steps: int, rounds: int,
) -> list[FaultEvent]:
    """Apply one fault to the run's ``states``; return one event per node it hit."""
    touched = _apply_fault_targets(states, programs, g, spec)
    nodes = sorted({v for v, _ in touched})
    return [FaultEvent(steps, rounds, v, tuple(f for w, f in touched if w == v)) for v in nodes]


def _widest(
    states: list[ProcessorState], max_path_len: int, max_symbols: int
) -> tuple[int, int]:
    """Fold every register into the space meter: the longest path or bcc,
    and the most path plus bcc symbols in one register."""
    for st in states:
        lp = len(st.register.path)
        lb = len(st.register.bcc)
        max_path_len = max(max_path_len, lp, lb)
        max_symbols = max(max_symbols, lp + lb)
    return max_path_len, max_symbols


#: a node's count in ``run`` while it replays; while it records, the count
#: is minus the slots recorded so far, never this low
_REPLAYING = -(1 << 62)


def run(
    g: Graph,
    scheduler,
    init: Configuration,
    faults: Sequence[FaultSpec] = (),
    max_rounds: int | None = None,
    closure_rounds: int = 0,
    record_rounds: bool = False,
    record_steps: bool = False,
    gt: GroundTruth | None = None,
) -> tuple[Trace, RunReport]:
    """Execute until stabilization (plus optional closure window) or max_rounds.

    Stabilization is declared at the end of round r when rounds r-1 and r
    both ended with every register equal to the ground truth and round r
    changed no register and fired no fault: one legitimate round, then one
    legitimate quiet round.  The stabilization round is r-1.  A declaration
    fires the next post-stabilization fault, if any, and the run goes on to
    re-stabilize; the last one opens the closure window, which counts the
    register changes of the next ``closure_rounds`` rounds.  Non-convergence
    within ``max_rounds`` (per attempt), or a closure window that ends
    outside the legitimate configuration, is reported as not stabilized, not
    raised.  A stabilized report carries the detection sets read off the
    final registers, uncertified.  ``trace`` is filled only on request.
    Every fault is checked against ``g`` before the first step; one that
    names a missing node or field, or more random fields than exist, raises
    ``FaultTargetError``.

    Quiet nodes replay their cycle instead of calling ``advance``.  Each
    node counts down 2L of its activations, L its schedule length; every
    changed write restarts the count of the writer and its neighbours, and
    every fault that of all nodes.  At 0 the node steps one more cycle and
    records, per start pc, the next pc, the event and the new ``count``,
    ``n_in`` and ``n_out``; once that cycle closes exactly L slots on, its
    activations apply the record.  This is exact:
      * ``advance`` is a deterministic function of the node's state and its
        neighbours' registers;
      * each value a cycle uses was written earlier in the same cycle:
        phase-A reads feed A_WRITE and phase B, and phase C reads the node's
        own register, and the parent's bcc just before writing it;
      * 2L activations cover at least 2L slots, so they hold a full cycle
        from pc 0 after the last change;
      * after it, ``path``, ``read_*`` and the register are only rewritten
        with equal values, and only ``count``, ``n_in``, ``n_out`` and
        ``pc`` vary within a cycle, which the record stores.
    So every state stays what ``advance`` would make it, and nothing is
    restored when replay stops.
    """
    if max_rounds is None:
        max_rounds = default_max_rounds(g)
    if max_rounds < 1 or closure_rounds < 0:
        raise ValueError("need max_rounds >= 1 and closure_rounds >= 0")
    # a fault that could never fire on g is an input error, whether or not
    # the run would reach its trigger
    for spec in faults:
        _check_fault_targets(g, spec)
    if gt is None:
        gt = ground_truth(g)
    gt_regs = gt.registers
    n = g.n

    # the run owns these copies: it steps them and fires faults into them in place
    states = [st.clone() for st in init.states]
    programs = [node_program(g, v) for v in range(1, n + 1)]
    readers = [_reader(states, g.neighbors(v)) for v in range(1, n + 1)]
    step_faults = deque(
        sorted(
            (f for f in faults if isinstance(f.trigger, int)), key=lambda f: f.trigger
        )
    )
    post_faults = deque(f for f in faults if f.trigger == POST_STABILIZATION)
    # hard safety net: a fair scheduler closes rounds almost surely, but a
    # bounded run must terminate even on pathological random tails
    step_cap = 1000 * n * (max_rounds + closure_rounds + 10)
    # the one per-step test is steps >= limit, where limit is the next step
    # fault's trigger or the step cap, whichever comes first; 0 sets it
    limit = 0

    trace = Trace()
    fault_events: list[FaultEvent] = []
    steps = 0
    rounds = 0
    attempt_start = 0  # max_rounds counts from the last post-stabilization fault
    # stamp[pid] == rounds once pid has stepped in the current round
    stamp = [-1] * (n + 1)
    unseen = n  # processors not yet stepped in the current round
    changed = False  # a register changed or a fault fired in the current round
    prev_legitimate = False
    stabilization_round: int | None = None
    closure_left: int | None = None  # rounds left once the closure window opens
    closure_changes = 0
    # register bits grow with the symbols of both paths, so the meter keeps
    # the largest symbol count and converts it to bits once, at the end
    max_path_len, max_symbols = _widest(states, 0, 0)
    # replay (see above), per node: 2L; activations left before it records,
    # minus the slots recorded while it does, or _REPLAYING; its recorded
    # cycle; and the nodes whose count a changed write of it restarts
    span = [0] + [2 * prog.length for prog in programs]
    left = span.copy()
    cycles: list[list | None] = [None] * (n + 1)
    around = [()] + [(v, *g.neighbors(v)) for v in range(1, n + 1)]

    for pid in scheduler.activations(n):
        if steps >= limit:
            if steps >= step_cap:
                break  # inside a round, which stays unfinished
            while step_faults and step_faults[0].trigger <= steps:
                fault_events += _fire(step_faults.popleft(), g, states, programs, steps, rounds)
                max_path_len, max_symbols = _widest(states, max_path_len, max_symbols)
                changed = True
                left = span.copy()
            limit = min(step_faults[0].trigger, step_cap) if step_faults else step_cap
        st = states[pid - 1]
        wait = left[pid]
        if wait > 0:
            left[pid] = wait - 1
            event = advance(st, programs[pid - 1], readers[pid - 1])
        elif wait == _REPLAYING:
            st.pc, event, st.count, st.n_in, st.n_out = cycles[pid][st.pc]
        else:  # record a cycle by start pc; replay it once it closes
            pc = st.pc
            event = advance(st, programs[pid - 1], readers[pid - 1])
            length = programs[pid - 1].length
            if not wait:
                cycles[pid] = [None] * length
            cycles[pid][pc] = (st.pc, event, st.count, st.n_in, st.n_out)
            covered = (st.pc - pc) % length - wait
            if covered == length:
                left[pid] = _REPLAYING
            else:  # still recording; an overshoot, which the argument rules out, restarts
                left[pid] = -covered if covered < length else 0
        steps += 1
        if record_steps:
            trace.steps.append((steps, pid, event))
        # only a changed write can grow the register; reads never change it
        if event.changed:
            changed = True
            for v in around[pid]:
                left[v] = span[v]
            if closure_left is not None:
                closure_changes += 1
            lp = len(st.register.path)
            lb = len(st.register.bcc)
            if lp + lb > max_symbols:
                max_symbols = lp + lb
            if lp > max_path_len:
                max_path_len = lp
            if lb > max_path_len:
                max_path_len = lb
        if stamp[pid] == rounds:
            continue
        stamp[pid] = rounds
        unseen -= 1
        if unseen:
            continue

        # round end: every round-level decision of the run is made here
        rounds += 1
        unseen = n
        registers = tuple(st.register for st in states)
        legitimate = registers == gt_regs
        if record_rounds:
            trace.rounds.append(RoundRecord(rounds, steps, legitimate, changed, registers))
        declared = prev_legitimate and legitimate and not changed
        prev_legitimate = legitimate
        changed = False
        if closure_left is not None:
            closure_left -= 1
            if closure_left == 0:
                break
        elif declared:
            if post_faults:
                # a new attempt: the fault counts as a change of the next
                # round, so that round cannot confirm a declaration
                fault_events += _fire(post_faults.popleft(), g, states, programs, steps, rounds)
                max_path_len, max_symbols = _widest(states, max_path_len, max_symbols)
                changed = True
                left = span.copy()
                attempt_start = rounds
            else:
                stabilization_round = rounds - 1
                if not closure_rounds:
                    break
                closure_left = closure_rounds
        if closure_left is None and rounds - attempt_start >= max_rounds:
            break
    else:
        raise ValueError(f"scheduler {scheduler!r} stopped activating processors")

    final_registers = tuple(st.register for st in states)
    # a closure window can end outside the legitimate configuration
    stabilized = stabilization_round is not None and final_registers == gt_regs
    report = RunReport(
        stabilized=stabilized,
        stabilization_round=stabilization_round if stabilized else None,
        rounds=rounds,
        total_steps=steps,
        fault_events=fault_events,
        detection=analysis.extract(g, final_registers, gt=gt) if stabilized else None,
        post_stabilization_changes=None if closure_left is None else closure_changes,
        max_path_len=max_path_len,
        max_register_bits=payload_bits(max_symbols, g.max_degree, programs[0].count_bound),
        scheduler=getattr(scheduler, "name", type(scheduler).__name__),
        final_registers=final_registers,
    )
    return trace, report


def alpha_independence(
    g: Graph,
    shuffles: int,
    seed: int,
    scheduler_name: str = "round-robin",
    max_rounds: int | None = None,
) -> bool:
    """Detection must not depend on the arbitrary port orderings.

    Runs the full pipeline under ``shuffles`` random port re-orderings of the
    same topology; true iff every run stabilizes and yields the same bridge
    set, articulation set, and component partition.  Labels are paths and may
    legitimately differ between orderings; the partition may not.
    """
    if shuffles < 2:
        raise ValueError("need at least 2 port orderings to compare")

    reference: tuple | None = None
    for i in range(shuffles):
        shuffled = shuffle_ports(g, seed + i) if i else g
        sched = make_scheduler(scheduler_name, seed=seed + 100 + i)
        init = init_arbitrary(shuffled, seed + 200 + i)
        _, report = run(shuffled, sched, init, max_rounds=max_rounds)
        if not report.stabilized or report.detection is None:
            return False
        d: analysis.DetectionResult = report.detection
        key = (d.bridges, d.articulation_points, frozenset(d.partition()))
        if reference is None:
            reference = key
        elif key != reference:
            return False
    return True
