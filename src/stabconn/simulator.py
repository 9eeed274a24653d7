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
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate, chain, cycle, repeat
from math import floor
from typing import Iterable, Iterator, Sequence

from . import analysis
from .graph import Graph, NodeId
from .oracle import GroundTruth, ground_truth
from .protocol import (
    B_READ_SELF,
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

REGISTER_FIELDS = Register._fields
#: in the order init_arbitrary draws them
FAULT_FIELDS = REGISTER_FIELDS + ("locals", "pc")
#: what ``FaultSpec.random_fields`` picks from, per node
_RANDOM_FIELDS = REGISTER_FIELDS + ("pc",)


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
        return cycle(range(1, n + 1))


class UniformRandom:
    """Each step activates a uniformly random processor; fair with probability 1.

    The stream is ``random.Random(seed).choices(range(1, n + 1), k=512)``
    repeated, drawn by that method's own rule: one ``random()`` per
    activation, which picks ``floor(random() * n) + 1``.  Batches skip its
    per-item population lookup; the values and the generator state match.
    """

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def activations(self, n: int) -> Iterator[NodeId]:
        draw = random.Random(self.seed).random
        nf = float(n)
        return chain.from_iterable(
            [floor(draw() * nf) + 1 for _ in repeat(None, 512)] for _ in repeat(None)
        )


class WeightedRandom:
    """Random activations with per-node weights (all positive, hence fair).

    The weights are n ``uniform(1.0, 10.0)`` draws; the stream is then
    ``choices(range(1, n + 1), weights, k=512)`` repeated on the same
    generator, drawn by that method's own rule: one ``random()`` per
    activation, placed by ``bisect_right`` among the cumulative weights
    (summed once here, not once per batch).
    """

    name = "weighted"

    def __init__(self, seed: int):
        self.seed = seed

    def activations(self, n: int) -> Iterator[NodeId]:
        rng = random.Random(self.seed)
        cum = list(accumulate(rng.uniform(1.0, 10.0) for _ in range(n)))
        total = cum[-1] + 0.0
        draw, hi = rng.random, n - 1
        return chain.from_iterable(
            [bisect_right(cum, draw() * total, 0, hi) + 1 for _ in repeat(None, 512)]
            for _ in repeat(None)
        )


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
    return bytes(path)


class FaultTargetError(ValueError):
    """Fault names a node or field that does not exist, or a bad trigger or count."""


@dataclass(frozen=True)
class FaultSpec:
    """A transient corruption event.

    ``trigger`` is a 0-based step index (fires before that step executes) or
    POST_STABILIZATION (fires when stabilization is declared, one such fault
    per declaration, in the order given); anything else is rejected.
    ``targets`` lists (node, field) pairs with field one of path / count /
    bcc / pc / locals; a target that is no pair is rejected here, its node
    and field once ``run`` or ``inject_fault`` gets the graph.
    ``random_fields`` (an int >= 0) additionally corrupts that many random
    register-or-pc slots.  Every corrupted value is drawn randomly within
    type bounds from ``seed``.
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
        pairs = (tuple, list)
        for target in self.targets if isinstance(self.targets, pairs) else (self.targets,):
            if not isinstance(target, pairs) or len(target) != 2:
                raise FaultTargetError(f"fault target {target!r} is not a (node, field) pair")


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
    pool = g.n * len(_RANDOM_FIELDS)
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
        pool = [(v, f) for v in range(1, g.n + 1) for f in _RANDOM_FIELDS]
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

def step(c: Configuration, pid: NodeId) -> tuple[Configuration, StepEvent]:
    """Activate one processor for a single atomic step.

    Only states[pid] changes, and only its own register can be written;
    every other processor state is returned untouched, and so is ``c``.
    Returns the new configuration and the step's register access.
    """
    g = c.graph
    # type(), not isinstance(): a bool is an int and would step node 1
    if type(pid) is not int or not 1 <= pid <= g.n:
        raise ValueError(f"processor id {pid!r} is not an int in 1..{g.n}")
    states = list(c.states)
    nbrs = tuple(states[w - 1] for w in g.neighbors(pid))
    states[pid - 1], event = execute_step(states[pid - 1], node_program(g, pid), nbrs)
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
    """What ``run(record=True)`` keeps: one record per round, one entry per step."""

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


def round_bound(g: Graph) -> int:
    """The asymptotic round bound d * n * delta, with d and delta at least 1."""
    return max(1, g.diameter) * g.n * max(1, g.max_degree)


def default_max_rounds(g: Graph) -> int:
    """Engineering margin over the asymptotic round bound: 10 * d * n * delta."""
    return max(10, 10 * round_bound(g))


#: a node's ``_Replay.left`` from a restart until it finishes slot 0, and
#: while it records its cycle; a replaying node holds -1 - owed
_WAITING = 1
_RECORDING = 0
#: per register field, the bit of its read on port 1 in a read mask; the
#: read on port p is that bit shifted left by 3 * (p - 1)
_READ_BIT = {f: 1 << k for k, f in enumerate(REGISTER_FIELDS)}


def _read_bit(event: StepEvent) -> int:
    """The read-mask bit of a remote read; 0 for an own-register access."""
    return _READ_BIT[event.field] << 3 * event.port - 3 if event.port else 0


class _Replay:
    """The replay bookkeeping of one ``run``, which steps ``states`` and
    binds these lists (changed only in place) for its per-activation path.

    Each node v is in one of three states, kept in ``left[v]``:
      * waiting (_WAITING), from a restart until an activation of v ends at
        pc 1, which finished slot 0;
      * recording (_RECORDING), from there to the next pc 1: each
        activation appends its next pc, its event and the new ``count``,
        ``n_in`` and ``n_out`` to ``loops[v]``;
      * replaying, once the record is one whole cycle: ``close`` makes it
        the loop v replays, and ``left[v]`` is then -1 - owed, where owed
        counts the activations replayed since.
    ``reads[v]`` is the mask of v's remote reads since it finished slot 0,
    that slot's read included: the record's so far, then the loop's.
    ``carried[v]`` is the number of slots strictly between slot 0 and
    B_READ_SELF in v's schedule (0 for the root, which has none).  Each is
    unconditional, so one activation, and together they give the first
    entries of every record: phase A's, which carry the counters in (see
    ``run``).  ``readers[v]`` holds v's neighbours w, each with i, w's
    port for v less one.
    """

    def __init__(self, g: Graph, states: list[ProcessorState], programs: list[NodeProgram]):
        n = g.n
        self.g, self.states, self.programs = g, states, programs
        self.left = [_WAITING] * (n + 1)
        self.loops: list[Sequence] = [()] * (n + 1)
        self.reads = [0] * (n + 1)
        self.carried = [0] + [
            next((pc - 1 for pc, (kind, _) in enumerate(prog.schedule) if kind == B_READ_SELF), 0)
            for prog in programs
        ]
        self.readers = [()] + [
            tuple(zip(nbrs, [j - 1 for j in prog.reverse_ports]))
            for nbrs, prog in zip(g.ports, programs)
        ]

    def close(self, v: NodeId) -> None:
        """Make v's record, one cycle from pc 1 to pc 1, the loop it
        replays.  Its first ``carried[v]`` entries hold the counters
        carried in from before the cycle; they take the closing ones,
        which the next cycle carries (see ``run``)."""
        loop = self.loops[v]
        _, _, count, n_in, n_out = loop[-1]
        k = self.carried[v]
        loop[:k] = [(pc, ev, count, n_in, n_out) for pc, ev, _, _, _ in loop[:k]]
        self.loops[v] = tuple(loop)
        self.left[v] = -1  # nothing owed yet

    def catch_up(self, nodes: Iterable[NodeId]) -> None:
        """Give each replaying one of ``nodes`` the pc, ``count``, ``n_in``
        and ``n_out`` of its last replayed activation, the four fields replay
        leaves unwritten.  It goes on replaying.  A second call before the
        next replayed activation writes the same values."""
        left, loops, states = self.left, self.loops, self.states
        for v in nodes:
            owed = -1 - left[v]
            if owed > 0:
                loop = loops[v]
                st = states[v - 1]
                st.pc, _, st.count, st.n_in, st.n_out = loop[(owed - 1) % len(loop)]

    def restart(self, v: NodeId, fld: str) -> None:
        """The restart rule for a change of v's register field ``fld``:
        restart v, and each recording or replaying neighbour whose read
        mask covers ``fld`` on its port to v, caught up first; never a
        waiting one (see ``run``).  It decides from the replay's own
        records alone."""
        left, reads = self.left, self.reads
        left[v] = _WAITING
        bit = _READ_BIT[fld]
        for w, i in self.readers[v]:
            if left[w] <= _RECORDING and reads[w] & bit << 3 * i:
                self.catch_up((w,))
                left[w] = _WAITING

    def fire(self, spec: FaultSpec, steps: int, rounds: int) -> list[FaultEvent]:
        """Fire one fault into the caught-up states; return one event per
        node it hit.  Every node it hit restarts before any reader of a
        register field it hit does, so no catch-up writes over what the
        fault drew."""
        self.catch_up(range(1, self.g.n + 1))
        touched = _apply_fault_targets(self.states, self.programs, self.g, spec)
        nodes = sorted({v for v, _ in touched})
        fired = [FaultEvent(steps, rounds, v, tuple(f for w, f in touched if w == v)) for v in nodes]
        for ev in fired:
            self.left[ev.node] = _WAITING
        for ev in fired:
            for fld in ev.fields:
                if fld in _READ_BIT:
                    self.restart(ev.node, fld)
        return fired


def _survey(
    states: list[ProcessorState], gt_regs: tuple[Register, ...], max_path_len: int, max_symbols: int
) -> tuple[set[NodeId], int, int]:
    """The nodes whose register differs from the ground truth, and the space
    meter with every register folded in: the longest path or bcc, and the
    most path plus bcc symbols in one register.  One pass, at the start of a
    run and after each fault."""
    wrong = set()
    for v, st in enumerate(states, start=1):
        reg = st.register
        if reg != gt_regs[v - 1]:
            wrong.add(v)
        lp, lb = len(reg.path), len(reg.bcc)
        max_path_len = max(max_path_len, lp, lb)
        max_symbols = max(max_symbols, lp + lb)
    return wrong, max_path_len, max_symbols


def run(
    g: Graph,
    scheduler,
    init: Configuration,
    faults: Iterable[FaultSpec] = (),
    max_rounds: int | None = None,
    closure_rounds: int = 0,
    record: bool = False,
    gt: GroundTruth | None = None,
) -> tuple[Trace, RunReport]:
    """Execute until stabilization (plus optional closure window) or max_rounds.

    Stabilization is declared at the end of round r > 1 when it ended with
    every register equal to the ground truth, changed no register and fired
    no fault.  Such a round ends in the registers round r-1 ended in, so
    this is one legitimate round, then one legitimate quiet round.  The
    stabilization round is r-1.  A declaration fires the next
    post-stabilization fault, if any, and the run goes on to re-stabilize;
    the last one opens the closure window, which counts the register
    changes of the next ``closure_rounds`` rounds.  Non-convergence
    within ``max_rounds`` (per attempt), or a closure window that ends
    outside the legitimate configuration, is reported as not stabilized, not
    raised.  A stabilized report carries the detection sets read off the
    final registers, uncertified.  ``trace`` is filled only when ``record``
    is set: one ``RoundRecord`` per round and one entry per step.
    Every fault is checked against ``g`` before the first step; one that
    names a missing node or field, or more random fields than exist, raises
    ``FaultTargetError``.  An ``init`` made for another graph, or for ``g``
    under other port orders, raises ``ValueError``.

    The round-end test needs no scan: the run keeps the set of nodes whose
    register differs from the ground truth, updates the writer's entry at
    each changed write (no other step changes a register) and rebuilds the
    set after each fault.  A round ends legitimate when the set is empty.

    Quiet nodes replay their cycle instead of calling ``advance``; the
    bookkeeping is ``_Replay``'s.  Slot 0 of every schedule is a register
    access (the A_READ of port 1, or the root's path write), so exactly one
    activation per cycle ends at pc 1.  From its last restart a node waits,
    stepping with the kernel, until an activation ends at pc 1; it then
    records the cycle from there to the next pc 1, and replays it from
    then on.  One rule, ``_Replay.restart``, serves changed writes and
    faults: a changed write of field f by node v restarts:
      * v itself;
      * a recording or replaying neighbour w that has read f on w's port
        to v since it finished slot 0, that slot's read included;
      * never a waiting neighbour.
    A fault first writes the lazy fields (below) of every replaying node,
    which goes on replaying; then it restarts every node it hit and only
    then applies the same rule to each register field it hit, so no
    reader's catch-up writes over a value the fault drew.  This is exact:
      * ``advance`` is a deterministic function of the node's state and of
        the register fields it reads.
      * A cycle from slot 0 writes each local before it reads it (the
        root's reads none), except that phase A, from the A_READ of port 2
        to A_WRITE, carries ``count``, ``n_in`` and ``n_out`` in unread,
        until B_READ_SELF resets them.  So the state a cycle starts from
        shows only in its phase-A entries, which record those counters.
        At close they take the closing counters, which are exactly what
        the next cycle carries: the carry patch.
      * A waiting node's state is the kernel's own, and everything its
        record will hold is read from slot 0 on, so after any change it
        was spared.  A recording or replaying node restarts on each change
        of a neighbour field it has read since slot 0, and on each change
        of its own register (only its own changed writes and faults make
        one).  So every field its cycle reads keeps, from the read until
        the node restarts, the value read.
    So the patched record is also each next cycle, until a restart.
    Replay is lazy: each replayed activation only counts itself.  A
    replaying node's other fields would only be rewritten with the
    values they hold, and nothing reads the four replayed ones while it
    replays: neighbours read only its register, and so do the round-end
    test and the space meter.  They are written from the loop when a
    restart ends its replay, before any fault fires (so the fault meets
    caught-up states) and before the run returns.
    """
    if max_rounds is None:
        max_rounds = default_max_rounds(g)
    # type(), not isinstance(): a bool is an int; a fractional count runs on
    # past its bound, and a fractional window never closes
    ints = type(max_rounds) is int and type(closure_rounds) is int
    if not ints or max_rounds < 1 or closure_rounds < 0:
        raise ValueError("need int max_rounds >= 1 and int closure_rounds >= 0")
    # a fault that could never fire on g is an input error, whether or not
    # the run would reach its trigger; one tuple, so a one-shot iterable is
    # checked and fired alike
    faults = tuple(faults)
    for spec in faults:
        _check_fault_targets(g, spec)
    if init.graph != g:
        raise ValueError("init is a configuration of another graph or port order")
    if gt is None:
        gt = ground_truth(g)
    gt_regs = gt.registers
    n = g.n
    nodes = range(1, n + 1)

    # the run owns these copies: it steps them, replays into them and fires
    # faults into them, all in place, so each node's neighbour tuple, in port
    # order, stays valid for the whole run
    states = [st.clone() for st in init.states]
    programs = [node_program(g, v) for v in nodes]
    nbr_states = [tuple(states[w - 1] for w in g.neighbors(v)) for v in nodes]
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
    stabilization_round: int | None = None
    closure_left: int | None = None  # rounds left once the closure window opens
    closure_changes = 0
    # register bits grow with the symbols of both paths, so the meter keeps
    # the largest symbol count and converts it to bits once, at the end
    wrong, max_path_len, max_symbols = _survey(states, gt_regs, 0, 0)
    replay = _Replay(g, states, programs)
    left, loops, reads = replay.left, replay.loops, replay.reads
    restart = replay.restart

    for pid in scheduler.activations(n):
        if steps >= limit:
            if steps >= step_cap:
                break  # inside a round, which stays unfinished
            while step_faults and step_faults[0].trigger <= steps:
                fault_events += replay.fire(step_faults.popleft(), steps, rounds)
                wrong, max_path_len, max_symbols = _survey(states, gt_regs, max_path_len, max_symbols)
                changed = True
            limit = min(step_faults[0].trigger, step_cap) if step_faults else step_cap
        steps += 1
        wait = left[pid]
        if wait < 0:  # replaying: count the activation, one more owed
            left[pid] = wait - 1
            if record:
                loop = loops[pid]
                trace.steps.append((steps, pid, loop[(-1 - wait) % len(loop)][1]))
        else:
            st = states[pid - 1]
            event = advance(st, programs[pid - 1], nbr_states[pid - 1])
            if not wait:  # record the cycle; replay it once pc 1 recurs
                loops[pid].append((st.pc, event, st.count, st.n_in, st.n_out))
                port = event.port
                if port:  # _read_bit(event), inlined on this per-step path
                    reads[pid] |= _READ_BIT[event.field] << 3 * port - 3
                if st.pc == 1:
                    replay.close(pid)
            elif st.pc == 1:  # slot 0 finished: record from here
                left[pid] = _RECORDING
                loops[pid] = []
                reads[pid] = _read_bit(event)
            if record:
                trace.steps.append((steps, pid, event))
            # only a changed write can grow the register; reads never change it
            if event.changed:
                changed = True
                restart(pid, event.field)
                if st.register == gt_regs[pid - 1]:
                    wrong.discard(pid)
                else:
                    wrong.add(pid)
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
        legitimate = not wrong
        if record:
            registers = tuple(st.register for st in states)
            trace.rounds.append(RoundRecord(rounds, steps, legitimate, changed, registers))
        # a round with no changed write and no fault ends in the registers
        # the previous round ended in, so that round was legitimate too
        declared = legitimate and not changed and rounds > 1
        changed = False
        if closure_left is not None:
            closure_left -= 1
            if closure_left == 0:
                break
        elif declared:
            if post_faults:
                # a new attempt: the fault counts as a change of the next
                # round, so that round cannot confirm a declaration
                fault_events += replay.fire(post_faults.popleft(), steps, rounds)
                wrong, max_path_len, max_symbols = _survey(states, gt_regs, max_path_len, max_symbols)
                changed = True
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

    replay.catch_up(nodes)
    final_registers = tuple(st.register for st in states)
    # a closure window can end outside the legitimate configuration
    stabilized = stabilization_round is not None and not wrong
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
