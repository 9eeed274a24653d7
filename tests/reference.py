"""Plain reference implementations that the tests compare the package against.

Each one restates a definition in the most direct way, with no attention to
speed, so a test can check the package's faster or more indirect route
against it.  None of them is part of the ``stabconn`` API.  ``watch_runs``
is no reference but a probe: it shows the full processor states that
``simulator.run`` keeps to itself.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import cmp_to_key
from types import SimpleNamespace
from typing import Callable, Sequence
from unittest.mock import patch

from stabconn import simulator
from stabconn.graph import ROOT, Graph, NodeId
from stabconn.oracle import GroundTruth
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
    LinkClass,
    NodeProgram,
    Path,
    ProcessorState,
    Register,
    StepEvent,
    clamp,
    is_prefix,
    node_program,
)


def lex_compare(a: Path, b: Path) -> int:
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


def classify_counts(g: Graph, gt: GroundTruth, v: NodeId) -> tuple[int, int]:
    """(incoming, outgoing) non-tree edge counts at v, from path prefixes."""
    n_in = n_out = 0
    for w in g.neighbors(v):
        if gt.parent.get(v) == w or gt.parent.get(w) == v:
            continue
        if is_prefix(gt.paths[v], gt.paths[w]):
            n_in += 1
        elif is_prefix(gt.paths[w], gt.paths[v]):
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


def link_class(my_path: Path, their_path: Path, my_port: int, their_port: int) -> LinkClass:
    """The class of one link, from the prefix relation of the two paths."""
    if len(their_path) < len(my_path) and is_prefix(their_path, my_path):
        if my_path == their_path + (their_port,):
            return LinkClass.PARENT
        return LinkClass.OUTGOING_NONTREE
    if len(my_path) < len(their_path) and is_prefix(my_path, their_path):
        if their_path == my_path + (my_port,):
            return LinkClass.CHILD
        return LinkClass.INCOMING_NONTREE
    return LinkClass.UNCLASSIFIED


def advance(
    s: ProcessorState, prog: NodeProgram, read_neighbor: Callable[[int], Register]
) -> StepEvent:
    """One activation of the micro-step machine, as a plain ``if`` chain.

    It walks ``prog.schedule`` from ``s.pc`` modulo its length and folds a
    conditional slot whose guard fails into the same activation, until a
    slot accesses a register.  Nothing is memoised or precomputed: every
    link is classified afresh, every write builds a new register, and every
    event is a new object.
    """
    n_slots = len(prog.schedule)
    bound = prog.path_bound

    def parent_port() -> int:
        for j in range(1, prog.degree + 1):
            cls = link_class(s.path, s.read_path[j - 1], j, prog.reverse_ports[j - 1])
            if cls is LinkClass.PARENT:
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
            s.read_path[port - 1] = read_neighbor(port).path
            return StepEvent("read", "path", port)
        if kind == A_WRITE:
            candidates = [p + (r,) for p, r in zip(s.read_path, prog.reverse_ports)]
            eligible = [c for c in candidates if len(c) <= bound]
            if not eligible:
                eligible = [c[:bound] for c in candidates]
            return write("path", min(eligible, key=cmp_to_key(lex_compare)))
        if kind == B_READ_SELF:
            s.path = s.register.path
            s.count = s.n_in = s.n_out = 0
            return StepEvent("read", "path", None)
        if kind == B_PORT:
            cls = link_class(s.path, s.read_path[port - 1], port, prog.reverse_ports[port - 1])
            if cls is LinkClass.CHILD:
                s.read_count[port - 1] = read_neighbor(port).count
                s.count += s.read_count[port - 1]
                return StepEvent("read", "count", port)
            if cls is LinkClass.INCOMING_NONTREE:
                s.n_in += 1
                s.count -= 1
            elif cls is LinkClass.OUTGOING_NONTREE:
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
                return write("bcc", s.path[:bound])
            continue
        if kind == C_READ_PARENT_BCC:
            j = parent_port() if s.count != 0 else 0
            if j:
                s.read_bcc[j - 1] = read_neighbor(j).bcc
                return StepEvent("read", "bcc", j)
            continue
        if kind == C_WRITE_PARENT_BCC:
            j = parent_port() if s.count != 0 else 0
            if j:
                return write("bcc", s.read_bcc[j - 1][:bound])
            continue
        if kind == R_WRITE_PATH:
            return write("path", ROOT_PATH)
        if kind == R_WRITE_COUNT:
            return write("count", 0)
        if kind == R_WRITE_BCC:
            return write("bcc", ROOT_PATH)
        raise AssertionError(f"unknown micro-step kind {kind}")
    raise AssertionError("schedule contains no unconditional register access")


def full_state(states: Sequence[ProcessorState]) -> tuple:
    """Every protocol field of every state, as plain tuples."""
    return tuple(
        (
            tuple(st.register),
            st.path,
            st.count,
            st.n_in,
            st.n_out,
            tuple(st.read_path),
            tuple(st.read_count),
            tuple(st.read_bcc),
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
    ``Trace.steps`` holds it, and the final states.
    """
    states = [st.clone() for st in init]
    programs = [node_program(g, v) for v in range(1, g.n + 1)]
    activations = scheduler.activations(g.n)
    pending = list(firings)
    stream = []
    for done in range(steps + 1):
        while pending and pending[0][0] == done:
            spec = pending.pop(0)[1]
            states = simulator.inject_fault(simulator.Configuration(g, states), spec).states
        if done == steps:
            return stream, states
        pid = next(activations)
        nbrs = g.neighbors(pid)
        event = advance(
            states[pid - 1], programs[pid - 1], lambda port: states[nbrs[port - 1] - 1].register
        )
        stream.append((done + 1, pid, event))


@contextmanager
def watch_runs():
    """Log the full processor states of the ``simulator.run`` calls in the block.

    ``run`` keeps its states to itself, so this wraps two private helpers it
    calls: ``_widest``, which every run calls first with its live states
    list, and ``_fire``, which applies one fault to that list.  The log's
    ``states`` is the live list of the latest run; ``firings`` gets one
    (steps, spec, states before, states after) per fault fired, the states
    as ``full_state`` tuples.
    """
    log = SimpleNamespace(states=None, firings=[])
    fire, widest = simulator._fire, simulator._widest

    def logged_fire(spec, g, states, programs, steps, rounds):
        before = full_state(states)
        events = fire(spec, g, states, programs, steps, rounds)
        log.firings.append((steps, spec, before, full_state(states)))
        return events

    def logged_widest(states, *meter):
        log.states = states
        return widest(states, *meter)

    with patch.object(simulator, "_fire", logged_fire), patch.object(
        simulator, "_widest", logged_widest
    ):
        yield log
