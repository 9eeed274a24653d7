"""Plain reference implementations that the tests compare the package against.

Each one restates a definition in the most direct way, with no attention to
speed, so a test can check the package's faster or more indirect route
against it.  None of them is part of the ``stabconn`` API.  ``watch_runs``
and ``checked_loops`` are no references but probes: the first shows the
full processor states that ``simulator.run`` keeps to itself, the second
checks each cycle it records before it replays it; ``compare_with_loop``
runs both on one case and compares ``run`` with ``run_loop``.
``stabilized_configuration`` is a start that tests and benches share, and
``alpha_independence`` a check that repeats whole runs under port orders.

The package holds a path as ``bytes``.  The references here compute on
paths as tuples of ints: ``symbols_of`` turns a path into one, and
``path_of`` turns symbols back into a path, for the states they write and
for the path literals of the tests.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from functools import cmp_to_key
from types import SimpleNamespace
from typing import Iterator, Sequence
from unittest.mock import patch

from stabconn import protocol, simulator
from stabconn.graph import ROOT, Graph, NodeId, shuffle_ports
from stabconn.oracle import GroundTruth, ground_truth
from stabconn.protocol import (
    A_READ,
    A_WRITE,
    B_PORT,
    B_READ_SELF,
    B_WRITE,
    C_DECIDE,
    C_READ_COUNT,
    C_READ_PARENT_BCC,
    C_READ_PATH,
    C_WRITE_PARENT_BCC,
    R_WRITE_BCC,
    R_WRITE_COUNT,
    R_WRITE_PATH,
    ROOT_PATH,
    CHILD,
    INCOMING_NONTREE,
    OUTGOING_NONTREE,
    PARENT,
    UNCLASSIFIED,
    NodeProgram,
    Path,
    ProcessorState,
    StepEvent,
    clamp,
    node_program,
)


def path_of(*symbols: int) -> Path:
    """The path with these symbols: ``path_of(BOTTOM, 2)`` is BOTTOM, then port 2."""
    return bytes(symbols)


def symbols_of(p: Path) -> tuple[int, ...]:
    """A path's symbols as a tuple of ints, the form the references compute on
    and the behaviour-lock digests hash."""
    return tuple(p)


def plain_register(reg: protocol.Register) -> tuple:
    """(path symbols, count, bcc symbols) of a register."""
    return (symbols_of(reg.path), reg.count, symbols_of(reg.bcc))


def tuple_prefix(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """True when the symbols p are a (not necessarily proper) prefix of q."""
    return len(p) <= len(q) and q[: len(p)] == p


def lex_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """Total lexicographic order on symbol sequences: -1, 0, or 1.

    BOTTOM sorts below every edge index and a proper prefix sorts below all
    of its extensions.
    """
    for x, y in zip(a, b):
        if x != y:
            return -1 if x < y else 1
    if len(a) == len(b):
        return 0
    return -1 if len(a) < len(b) else 1


def round_boundaries(schedule: Sequence[NodeId], n: int) -> list[int]:
    """Greedy round segmentation: 1-based indices of the steps that end rounds.

    A round ends at the first step by which every one of the n processors
    has been activated since the previous boundary; a trailing incomplete
    segment contributes no boundary.
    """
    boundaries = []
    seen: set[NodeId] = set()
    for i, pid in enumerate(schedule, start=1):
        seen.add(pid)
        if len(seen) == n:
            boundaries.append(i)
            seen = set()
    return boundaries


def activations(name: str, n: int, seed: int) -> Iterator[NodeId]:
    """A scheduler's activation stream, drawn by ``random.choices``: 1..n in
    turn for round-robin; otherwise batches of 512 choices from
    ``random.Random(seed)``, weighted by n ``uniform(1, 10)`` draws taken
    first from the same generator for the weighted scheduler."""
    population = range(1, n + 1)
    if name == "round-robin":
        while True:
            yield from population
    rng = random.Random(seed)
    weights = tuple(rng.uniform(1.0, 10.0) for _ in population) if name == "weighted" else None
    while True:
        yield from rng.choices(population, weights, k=512)


def classify_counts(g: Graph, gt: GroundTruth, v: NodeId) -> tuple[int, int]:
    """(incoming, outgoing) non-tree edge counts at v, from path prefixes."""
    n_in = n_out = 0
    mine = symbols_of(gt.paths[v])
    for w in g.neighbors(v):
        if gt.parent.get(v) == w or gt.parent.get(w) == v:
            continue
        theirs = symbols_of(gt.paths[w])
        if tuple_prefix(mine, theirs):
            n_in += 1
        elif tuple_prefix(theirs, mine):
            n_out += 1
    return n_in, n_out


def children(gt: GroundTruth) -> dict[NodeId, list[NodeId]]:
    """Tree children of every node, in ascending order, from the parent map."""
    kids: dict[NodeId, list[NodeId]] = {v: [] for v in range(1, gt.graph.n + 1)}
    for v in sorted(gt.parent):
        kids[gt.parent[v]].append(v)
    return kids


def representatives(gt: GroundTruth) -> frozenset[NodeId]:
    """Component representatives: the root and every node whose bypass count is 0."""
    return frozenset({ROOT} | {v for v, count in gt.counts.items() if count == 0})


def diameter(g: Graph) -> int:
    """Largest shortest-path distance, by a BFS with a distance dict per source."""
    best = 0
    for src in range(1, g.n + 1):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.ports[v - 1]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        best = max(best, max(dist.values()))
    return best


def link_class(my_path: tuple, their_path: tuple, my_port: int, their_port: int) -> str:
    """The class of one link, from the prefix relation of the two paths,
    each given as its symbols."""
    if len(their_path) < len(my_path) and tuple_prefix(their_path, my_path):
        if my_path == their_path + (their_port,):
            return PARENT
        return OUTGOING_NONTREE
    if len(my_path) < len(their_path) and tuple_prefix(my_path, their_path):
        if their_path == my_path + (my_port,):
            return CHILD
        return INCOMING_NONTREE
    return UNCLASSIFIED


def advance(s: ProcessorState, prog: NodeProgram, nbrs: Sequence[ProcessorState]) -> StepEvent:
    """One activation of the micro-step machine, as a plain ``if`` chain.

    ``nbrs[j - 1]`` is the neighbour on port j; only its ``register`` is read.

    It walks ``prog.schedule`` from ``s.pc`` modulo its length and folds a
    conditional slot whose guard fails into the same activation, until a
    slot accesses a register.  Nothing is memoised or precomputed: every
    link is classified afresh, every write builds a new register, and every
    event is a new object.  Paths are computed on as tuples of symbols and
    written back as paths.
    """
    n_slots = len(prog.schedule)
    bound = prog.path_bound

    def parent_port() -> int:
        for j in range(1, prog.degree + 1):
            cls = link_class(symbols_of(s.path), symbols_of(s.read_path[j - 1]), j,
                             prog.reverse_ports[j - 1])
            if cls is PARENT:
                return j
        return 0

    def write(field: str, value) -> StepEvent:
        before = s.register
        s.register = before._replace(**{field: value})
        return StepEvent("write", field, None, s.register != before)

    pc = s.pc % n_slots
    for _ in range(n_slots):
        kind, port = prog.schedule[pc]
        pc = (pc + 1) % n_slots
        s.pc = pc
        if kind == A_READ:
            s.read_path[port - 1] = nbrs[port - 1].register.path
            return StepEvent("read", "path", port)
        if kind == A_WRITE:
            candidates = [symbols_of(p) + (r,) for p, r in zip(s.read_path, prog.reverse_ports)]
            eligible = [c for c in candidates if len(c) <= bound]
            if not eligible:
                eligible = [c[:bound] for c in candidates]
            return write("path", path_of(*min(eligible, key=cmp_to_key(lex_compare))))
        if kind == B_READ_SELF:
            s.path = s.register.path
            s.count = s.n_in = s.n_out = 0
            return StepEvent("read", "path", None)
        if kind == B_PORT:
            cls = link_class(symbols_of(s.path), symbols_of(s.read_path[port - 1]), port,
                             prog.reverse_ports[port - 1])
            if cls is CHILD:
                s.read_count[port - 1] = nbrs[port - 1].register.count
                s.count += s.read_count[port - 1]
                return StepEvent("read", "count", port)
            if cls is INCOMING_NONTREE:
                s.n_in += 1
                s.count -= 1
            elif cls is OUTGOING_NONTREE:
                s.n_out += 1
                s.count += 1
            continue
        if kind == B_WRITE:
            return write("count", clamp(s.count, prog.count_bound))
        if kind == C_READ_COUNT:
            s.count = s.register.count
            return StepEvent("read", "count", None)
        if kind == C_READ_PATH:
            s.path = s.register.path
            return StepEvent("read", "path", None)
        if kind == C_DECIDE:
            if s.count == 0:
                return write("bcc", path_of(*symbols_of(s.path)[:bound]))
            continue
        if kind == C_READ_PARENT_BCC:
            j = parent_port() if s.count != 0 else 0
            if j:
                s.read_bcc[j - 1] = nbrs[j - 1].register.bcc
                return StepEvent("read", "bcc", j)
            continue
        if kind == C_WRITE_PARENT_BCC:
            j = parent_port() if s.count != 0 else 0
            if j:
                return write("bcc", path_of(*symbols_of(s.read_bcc[j - 1])[:bound]))
            continue
        if kind == R_WRITE_PATH:
            return write("path", ROOT_PATH)
        if kind == R_WRITE_COUNT:
            return write("count", 0)
        if kind == R_WRITE_BCC:
            return write("bcc", ROOT_PATH)
        raise AssertionError(f"unknown micro-step kind {kind}")
    raise AssertionError("schedule contains no unconditional register access")


def stabilized_configuration(g: Graph, gt: GroundTruth) -> simulator.Configuration:
    """The ground truth's registers, with every pc at 0 and locals that
    agree with them: each node's own path and count, and its neighbours'
    register fields as its read lists.  ``n_in`` and ``n_out`` are 0, which
    a converged phase B does not leave; the first phase B rewrites them,
    and no write reads them."""
    return simulator.Configuration(
        g,
        [
            ProcessorState(
                register=reg,
                path=reg.path,
                count=reg.count,
                n_in=0,
                n_out=0,
                read_path=[gt.registers[w - 1].path for w in g.neighbors(v)],
                read_count=[gt.registers[w - 1].count for w in g.neighbors(v)],
                read_bcc=[gt.registers[w - 1].bcc for w in g.neighbors(v)],
                pc=0,
            )
            for v, reg in enumerate(gt.registers, start=1)
        ],
    )


def alpha_independence(g: Graph, shuffles: int, seed: int) -> bool:
    """Detection must not depend on the arbitrary port orderings.

    Runs the full pipeline, round-robin within ``default_max_rounds``, under
    ``shuffles`` random port re-orderings of the same topology; true iff
    every run stabilizes and yields the same bridge set, articulation set,
    and component partition.  Labels are paths and may legitimately differ
    between orderings; the partition may not.
    """
    if shuffles < 2:
        raise ValueError("need at least 2 port orderings to compare")

    reference: tuple | None = None
    for i in range(shuffles):
        shuffled = shuffle_ports(g, seed + i) if i else g
        init = simulator.init_arbitrary(shuffled, seed + 200 + i)
        _, report = simulator.run(shuffled, simulator.RoundRobin(), init)
        if not report.stabilized or report.detection is None:
            return False
        d = report.detection
        key = (d.bridges, d.articulation_points, frozenset(d.partition()))
        if reference is None:
            reference = key
        elif key != reference:
            return False
    return True


def full_state(states: Sequence[ProcessorState]) -> tuple:
    """Every protocol field of every state, as plain tuples, paths included."""
    return tuple(
        (
            plain_register(st.register),
            symbols_of(st.path),
            st.count,
            st.n_in,
            st.n_out,
            tuple(map(symbols_of, st.read_path)),
            tuple(st.read_count),
            tuple(map(symbols_of, st.read_bcc)),
            st.pc,
        )
        for st in states
    )


def run_loop(
    g: Graph,
    scheduler,
    init: Sequence[ProcessorState],
    firings: Sequence[tuple[int, simulator.FaultSpec]],
    steps: int,
) -> tuple[list[tuple[int, NodeId, StepEvent]], list[ProcessorState]]:
    """Take ``steps`` activations of ``scheduler`` from copies of ``init``,
    every one stepped by ``advance`` above, nothing skipped or replayed.

    ``firings`` lists (steps, fault) in firing order; each fault is applied
    once that many steps are done.  Returns the step stream, as
    ``Trace.steps`` holds it, and the final states.  ``inject_fault``
    returns new state objects, so the neighbour tuples are rebuilt after it.
    """
    states = [st.clone() for st in init]

    def neighbour_states():
        return [tuple(states[w - 1] for w in g.neighbors(v)) for v in range(1, g.n + 1)]

    nbrs = neighbour_states()
    programs = [node_program(g, v) for v in range(1, g.n + 1)]
    activations = scheduler.activations(g.n)
    pending = list(firings)
    stream = []
    for done in range(steps + 1):
        while pending and pending[0][0] == done:
            spec = pending.pop(0)[1]
            states = simulator.inject_fault(simulator.Configuration(g, states), spec).states
            nbrs = neighbour_states()
        if done == steps:
            return stream, states
        pid = next(activations)
        event = advance(states[pid - 1], programs[pid - 1], nbrs[pid - 1])
        stream.append((done + 1, pid, event))


@contextmanager
def watch_runs():
    """Log the full processor states of the ``simulator.run`` calls in the block.

    ``run`` keeps its states to itself, so this wraps two methods of its
    private ``_Replay``: ``__init__``, which every run calls with its live
    states list, and ``fire``, which fires one fault into that list.  The
    log's ``states`` is the live list of the latest run; ``firings`` gets
    one (steps, spec, states before, states after) per fault fired, the
    states as ``full_state`` tuples.  "Before" is taken once every node is
    caught up, which ``fire`` does first anyway; a second catch-up writes
    the same values.
    """
    log = SimpleNamespace(states=None, firings=[])
    init, fire = simulator._Replay.__init__, simulator._Replay.fire

    def logged_init(replay, g, states, programs):
        log.states = states
        init(replay, g, states, programs)

    def logged_fire(replay, spec, steps, rounds):
        replay.catch_up(range(1, replay.g.n + 1))
        before = full_state(replay.states)
        events = fire(replay, spec, steps, rounds)
        log.firings.append((steps, spec, before, full_state(replay.states)))
        return events

    with patch.object(simulator._Replay, "__init__", logged_init), patch.object(
        simulator._Replay, "fire", logged_fire
    ):
        yield log


@contextmanager
def checked_loops():
    """Check every cycle the ``simulator.run`` calls in the block record.

    This wraps ``simulator._Replay.close``: when a node's record closes, a
    clone of its state steps one more cycle with ``protocol.advance``
    against the live neighbour states, and each activation's (pc, event,
    count, n_in, n_out) must equal the recorded entry, or an
    ``AssertionError`` names the node and the entry.  The yielded counter's
    ``closes`` is the number of closes checked so far.
    """
    close = simulator._Replay.close
    checked = SimpleNamespace(closes=0)

    def checked_close(replay, v):
        close(replay, v)
        st = replay.states[v - 1].clone()
        prog = replay.programs[v - 1]
        nbrs = tuple(replay.states[w - 1] for w in replay.g.neighbors(v))
        for k, entry in enumerate(replay.loops[v]):
            event = protocol.advance(st, prog, nbrs)
            again = (st.pc, event, st.count, st.n_in, st.n_out)
            assert again == entry, (v, k, again, entry)
        checked.closes += 1

    with patch.object(simulator._Replay, "close", checked_close):
        yield checked


def compare_with_loop(g, scheduler, init, faults, max_rounds, closure_rounds):
    """Run ``simulator.run`` on one case under ``watch_runs`` and
    ``checked_loops``, feed its fault firings through ``run_loop``, and
    compare the two.

    Returns (why, steps, faults fired, loops checked, kernel calls).  ``why``
    names the first difference, or is None: a recorded loop that does not
    repeat, fault firings at other steps than the report's fault events,
    step streams that part, final full states that differ, or a round whose
    legitimate flag disagrees with its registers (``run`` keeps that flag
    from a set of wrong nodes, updated at each write).  Kernel calls are
    ``run``'s ``simulator.advance`` calls.
    """
    calls = []
    kernel = simulator.advance
    with watch_runs() as log, checked_loops() as checked, patch.object(
        simulator, "advance", lambda *a: calls.append(1) or kernel(*a)
    ):
        try:
            trace, report = simulator.run(
                g, scheduler, init, faults=faults, max_rounds=max_rounds,
                closure_rounds=closure_rounds, record=True,
            )
        except AssertionError as exc:
            why = f"a recorded loop does not repeat: {exc}"
            return why, 0, len(log.firings), checked.closes, len(calls)
    firings = [(steps, spec) for steps, spec, _, _ in log.firings]
    stream, states = run_loop(g, scheduler, init.states, firings, report.total_steps)
    fired = sorted({steps for steps, _ in firings})
    reported = sorted({ev.step for ev in report.fault_events})
    why = None
    if fired != reported:
        why = f"faults fired at steps {fired}, reported at {reported}"
    elif trace.steps != stream:
        k = next(i for i, (a, b) in enumerate(zip(trace.steps, stream)) if a != b)
        why = f"step streams part at step {k + 1}: run {trace.steps[k]}, loop {stream[k]}"
    elif full_state(log.states) != full_state(states):
        why = "final full states differ"
    else:
        gt_regs = ground_truth(g).registers
        for r in trace.rounds:
            if r.legitimate != (r.registers == gt_regs):
                why = f"round {r.index} ends with legitimate={r.legitimate} against its registers"
                break
    return why, report.total_steps, len(firings), checked.closes, len(calls)
