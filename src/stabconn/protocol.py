"""Per-processor protocol: shared registers and the micro-step machine.

Each processor exposes one register with three fields: ``path`` (the edge-index
sequence of a root path), ``count`` (number of non-tree edges bypassing its
parent link), and ``bcc`` (the path of its component's representative node).
The root forever rewrites the fixed values; every other node cycles through
three phases:

  A. read every neighbor's path, then write the lexicographic minimum of
     (neighbor path + neighbor's port for me);
  B. read its own path, read the count of every port that classifies as a
     child, adjust for incoming/outgoing non-tree ports, then write count;
  C. read its own count and path; a node with count 0 labels itself with its
     own path, anyone else copies the parent's label.

Every activation performs exactly one register read or write (plus attached
local computation), so an adversarial scheduler interleaves at register
granularity.  All operations are total: corrupted registers, locals, and
program counters never raise.

There is one step kernel, ``advance``: it updates a ``ProcessorState`` in
place and returns a shared, immutable ``StepEvent``.  ``execute_step`` is its
copying wrapper, which steps a copy and leaves its input untouched;
``simulator.run`` copies each initial state once and calls ``advance``,
except for quiet nodes, which replay a cycle ``advance`` recorded.

``NodeProgram.schedule`` is the readable spec of a cycle: (kind, port) pairs.
The kernel walks its slot table instead, derived on first use and shared
by every program with the same schedule and degree.  Each slot holds its
kind, port - 1, the next pc (the wrap is precomputed), and the events it can
return, so a step neither builds nor looks up an event.  The kernel loops
with a fold budget of one schedule length instead of a ``range`` over it: a
failed guard costs one decrement, and folding a whole schedule, which no
activation of a valid schedule does, raises.  Link classes are compared
with module-level aliases (``_CHILD`` and so on) because an ``Enum`` member
lookup costs about ten times a global one, and a folded port makes several.

``advance`` also skips recomputation on unchanged inputs.  A legitimate path
has DFS depth + 1 symbols, so classifying a link and building the A_WRITE
candidates cost O(depth) each, and a cycle classifies the same links up to
three times (B_PORT and the two parent-port scans of phase C).
  * Link classes are memoised per port, keyed by the identity of the node's
    own ``path`` and of the port's ``read_path`` entry, and checked inline in
    B_PORT and in the one parent-port scan that both phase-C bcc slots share.
    The memo holds references to both immutable tuples, so neither id can be
    reused by another object, and a key that matches by identity matches by
    value.
  * The A_WRITE minimum is kept with a copy of the ``read_path`` list it was
    computed from and reused while the list compares equal to that copy.
  * A non-root write that changes no field keeps the register object, so a
    neighbour's A_READ stores the same tuple again and its memo hits.  (The
    root writes only the constant ``ROOT_PATH`` object and 0.)
Both results are pure functions of their keys and of the ``NodeProgram``
(ports, reverse ports, bound), and the memo is emptied whenever a state is
stepped under another program object, so every step equals the step of an
unmemoised kernel.  The memo lives on ``ProcessorState`` as fields that
equality and repr ignore, and ``clone()`` starts empty.  Faults cannot make
it stale: a fault corrupts a state in place and keeps its memo, but an
identity key matches only the very tuple it was computed from, and the
A_WRITE key is a private copy compared by value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from math import ceil, log2
from typing import Callable, NamedTuple

from .graph import Graph, NodeId, ROOT

#: Minimal path symbol; strictly smaller than every edge index.
BOTTOM = 0

Path = tuple[int, ...]

ROOT_PATH: Path = (BOTTOM,)


def is_prefix(p: Path, q: Path) -> bool:
    """True when p is a (not necessarily proper) prefix of q."""
    return len(p) <= len(q) and q[: len(p)] == p


def format_path(p: Path) -> str:
    return ".".join("⊥" if s == BOTTOM else str(s) for s in p)


class LinkClass(Enum):
    PARENT = "parent"
    CHILD = "child"
    OUTGOING_NONTREE = "outgoing"
    INCOMING_NONTREE = "incoming"
    UNCLASSIFIED = "unclassified"


# Module-level aliases: the kernel compares link classes several times per
# folded port, and a global costs about a tenth of an ``Enum`` member lookup.
_PARENT = LinkClass.PARENT
_CHILD = LinkClass.CHILD
_OUTGOING = LinkClass.OUTGOING_NONTREE
_INCOMING = LinkClass.INCOMING_NONTREE
_UNCLASSIFIED = LinkClass.UNCLASSIFIED


def classify_link(my_path: Path, their_path: Path, my_port: int, their_port: int) -> LinkClass:
    """Classify one incident link from the two endpoint paths.

    The link is a parent link when my path extends theirs by exactly their
    port for me, a child link when theirs extends mine by exactly my port for
    them; any other proper prefix relation is a non-tree link (outgoing when
    they are my ancestor, incoming when they are my descendant).  Corrupted
    paths that match no rule are UNCLASSIFIED.
    """
    mine, theirs = len(my_path), len(their_path)
    if theirs < mine and my_path[:theirs] == their_path:
        if mine == theirs + 1 and my_path[theirs] == their_port:
            return _PARENT
        return _OUTGOING
    if mine < theirs and their_path[:mine] == my_path:
        if theirs == mine + 1 and their_path[mine] == my_port:
            return _CHILD
        return _INCOMING
    return _UNCLASSIFIED


class Register(NamedTuple):
    """The shared triple one processor exposes to its neighbors."""

    path: Path
    count: int
    bcc: Path


def clamp(value: int, bound: int) -> int:
    return -bound if value < -bound else (bound if value > bound else value)


def payload_bits(symbols: int, delta: int, count_bound: int) -> int:
    """Size in bits of a register whose two paths hold ``symbols`` symbols.

    Path symbols come from an alphabet of delta+2 code points (BOTTOM, the
    edge indices 1..delta, and a terminator); the count field needs one code
    for each value in [-count_bound, count_bound].  The size grows with
    ``symbols``, so the largest register is the one with the most symbols.
    """
    return symbols * ceil(log2(delta + 2)) + ceil(log2(2 * count_bound + 1))


def register_bits(reg: Register, delta: int, count_bound: int) -> int:
    """Serialized register size in bits."""
    return payload_bits(len(reg.path) + len(reg.bcc), delta, count_bound)


def register_bit_budget(path_bound: int, delta: int, count_bound: int) -> int:
    """Upper bound on register_bits when both paths respect the length bound."""
    return payload_bits(2 * path_bound, delta, count_bound)


# Micro-step kinds.  A schedule is a tuple of (kind, port) pairs; port is 0
# for steps that do not address a specific neighbor.
R_WRITE_PATH = 0
R_WRITE_COUNT = 1
R_WRITE_BCC = 2
A_READ = 3
A_WRITE = 4
B_READ_SELF = 5
B_PORT = 6
B_WRITE = 7
C_READ_COUNT = 8
C_READ_PATH = 9
C_DECIDE = 10
C_READ_PARENT_BCC = 11
C_WRITE_PARENT_BCC = 12

MicroStep = tuple[int, int]


def root_program() -> tuple[MicroStep, ...]:
    """The root's cycle: three unconditional register writes."""
    return ((R_WRITE_PATH, 0), (R_WRITE_COUNT, 0), (R_WRITE_BCC, 0))


@cache  # every program of a degree shares one schedule
def nonroot_program(degree: int) -> tuple[MicroStep, ...]:
    """Cyclic micro-step schedule of a non-root node with the given degree.

    The schedule has 2*degree + 8 slots; conditional slots that end up with
    no register access are skipped within the activation that reaches them,
    so a full cycle performs at most 2*degree + 6 atomic steps.
    """
    if degree < 1:
        raise ValueError("non-root nodes have degree >= 1")
    schedule: list[MicroStep] = []
    schedule.extend((A_READ, j) for j in range(1, degree + 1))
    schedule.append((A_WRITE, 0))
    schedule.append((B_READ_SELF, 0))
    schedule.extend((B_PORT, j) for j in range(1, degree + 1))
    schedule.append((B_WRITE, 0))
    schedule.append((C_READ_COUNT, 0))
    schedule.append((C_READ_PATH, 0))
    schedule.append((C_DECIDE, 0))
    schedule.append((C_READ_PARENT_BCC, 0))
    schedule.append((C_WRITE_PARENT_BCC, 0))
    return tuple(schedule)


@dataclass(frozen=True)
class NodeProgram:
    """Static execution context of one node: schedule, ports, and bounds.

    ``schedule`` is the readable spec; ``table`` is what the kernel walks,
    derived from it on first use.  It cannot go stale: the fields are
    frozen, and a ``dataclasses.replace`` copy starts without it.
    """

    degree: int
    schedule: tuple[MicroStep, ...]
    #: reverse_ports[j-1] is the port number the neighbor on my port j uses for me
    reverse_ports: tuple[int, ...]
    path_bound: int
    count_bound: int

    @property
    def length(self) -> int:
        return len(self.schedule)

    @cached_property
    def table(self) -> tuple[tuple[int, int, int, object], ...]:
        """Per slot: its kind, port - 1, the pc after it, and what it returns.

        That is a read's ``StepEvent``, a write's (unchanged, changed) pair
        indexed by its changed flag, or for C_READ_PARENT_BCC one read event
        per port.
        """
        return _slot_table(self.schedule, self.degree)


def node_program(g: Graph, v: NodeId) -> NodeProgram:
    """Build the program of node v for graph g (path bound n, count bound n^2)."""
    nbrs = g.neighbors(v)
    return NodeProgram(
        degree=len(nbrs),
        schedule=root_program() if v == ROOT else nonroot_program(len(nbrs)),
        reverse_ports=tuple(g.port_to(w, v) for w in nbrs),
        path_bound=g.n,
        count_bound=g.n * g.n,
    )


@dataclass(slots=True, eq=True)
class ProcessorState:
    """Register plus local variables and program counter of one processor.

    The underscored fields are ``advance``'s memo, a simulator cache and not
    protocol state: equality and repr ignore them, the constructor does not
    take them, and every new state, ``clone()`` included, starts without one.
    """

    register: Register
    path: Path
    count: int
    n_in: int
    n_out: int
    read_path: list[Path]
    read_count: list[int]
    read_bcc: list[Path]
    pc: int
    #: the program the memo was filled under
    _prog: NodeProgram | None = field(default=None, init=False, compare=False, repr=False)
    #: per port, (path, read path, class) of its last classification
    _links: list[tuple] | None = field(default=None, init=False, compare=False, repr=False)
    #: the read paths of the last A_WRITE, and the minimum they gave
    _min_key: list[Path] | None = field(default=None, init=False, compare=False, repr=False)
    _min_path: Path | None = field(default=None, init=False, compare=False, repr=False)

    def clone(self) -> "ProcessorState":
        return ProcessorState(
            register=self.register,
            path=self.path,
            count=self.count,
            n_in=self.n_in,
            n_out=self.n_out,
            read_path=list(self.read_path),
            read_count=list(self.read_count),
            read_bcc=list(self.read_bcc),
            pc=self.pc,
        )


def initial_state(prog: NodeProgram) -> ProcessorState:
    """A zeroed state; ``init_arbitrary`` corrupts every field of it."""
    d = prog.degree
    return ProcessorState(
        register=Register(ROOT_PATH, 0, ROOT_PATH),
        path=ROOT_PATH,
        count=0,
        n_in=0,
        n_out=0,
        read_path=[ROOT_PATH] * d,
        read_count=[0] * d,
        read_bcc=[ROOT_PATH] * d,
        pc=0,
    )


@dataclass(frozen=True)
class StepEvent:
    """The single register access performed by one activation."""

    kind: str  # "read" | "write"
    field: str  # "path" | "count" | "bcc"
    port: int | None  # neighbor port for remote reads, None for own register
    changed: bool = False  # writes only: did the register value change


# The kernel returns shared constants instead of allocating an event per
# step.  A write's event is picked by indexing with its changed flag.
_PATH_WRITE = (StepEvent("write", "path", None, False), StepEvent("write", "path", None, True))
_COUNT_WRITE = (StepEvent("write", "count", None, False), StepEvent("write", "count", None, True))
_BCC_WRITE = (StepEvent("write", "bcc", None, False), StepEvent("write", "bcc", None, True))
_OWN_PATH_READ = StepEvent("read", "path", None)
_OWN_COUNT_READ = StepEvent("read", "count", None)


@cache  # at most three entries per port number, so it stays small
def _remote_read(field: str, port: int) -> StepEvent:
    return StepEvent("read", field, port)


#: what the slots that touch only the node's own register return
_OWN_EVENTS = {
    B_READ_SELF: _OWN_PATH_READ,
    C_READ_PATH: _OWN_PATH_READ,
    C_READ_COUNT: _OWN_COUNT_READ,
    A_WRITE: _PATH_WRITE,
    R_WRITE_PATH: _PATH_WRITE,
    B_WRITE: _COUNT_WRITE,
    R_WRITE_COUNT: _COUNT_WRITE,
    C_DECIDE: _BCC_WRITE,
    C_WRITE_PARENT_BCC: _BCC_WRITE,
    R_WRITE_BCC: _BCC_WRITE,
}


def _slot_events(kind: int, port: int, degree: int):
    if kind == A_READ:
        return _remote_read("path", port)
    if kind == B_PORT:
        return _remote_read("count", port)
    if kind == C_READ_PARENT_BCC:
        return tuple(_remote_read("bcc", j) for j in range(1, degree + 1))
    return _OWN_EVENTS[kind]  # an unknown kind raises here, not in the kernel


@cache  # one table per schedule and degree, shared by every program with them
def _slot_table(schedule: tuple[MicroStep, ...], degree: int) -> tuple:
    n = len(schedule)
    return tuple(
        (kind, port - 1, (pc + 1) % n, _slot_events(kind, port, degree))
        for pc, (kind, port) in enumerate(schedule)
    )


ReadNeighbor = Callable[[int], Register]


#: an empty link memo entry: no path is None, so it never matches
_NO_LINK = (None, None, None)


def advance(s: ProcessorState, prog: NodeProgram, read_neighbor: ReadNeighbor) -> StepEvent:
    """Perform one atomic step on ``s`` in place: exactly one register access.

    This is the only step kernel.  It walks ``prog.table`` from ``s.pc``
    (normalized modulo the schedule length, so it is total on corrupted
    states), writes the ``read_*`` lists of ``s`` in place and replaces
    ``s.register`` on writes, except that a non-root write that changes
    nothing keeps the register object.  A conditional slot whose guard fails
    is pure-local and folded into the same activation, fewer than one
    schedule length of them; the slot that accesses a register returns its
    precomputed event.

    Two results are memoised on ``s`` (see the module docstring): each
    port's link class, keyed by the identity of ``s.path`` and of the port's
    read path, and the A_WRITE minimum, keyed by a copy of ``s.read_path``
    compared by value.  Both are pure functions of their keys and of
    ``prog``, and the memo is emptied when ``prog`` is not the program it was
    filled under, so every step is the one an unmemoised kernel would take,
    also after a fault has rewritten any field of ``s``.
    """
    if s._prog is not prog:
        s._prog = prog
        s._links = [_NO_LINK] * prog.degree
        s._min_key = None
    slots = prog.table
    budget = len(slots)
    pc = s.pc % budget
    while budget > 0:
        kind, i, pc, event = slots[pc]
        s.pc = pc

        # the most frequent slots first: each cycle has degree many of both
        if kind == A_READ:
            s.read_path[i] = read_neighbor(i + 1).path
            return event

        if kind == B_PORT:
            mine = s.path
            theirs = s.read_path[i]
            memo = s._links[i]
            if memo[0] is mine and memo[1] is theirs:
                cls = memo[2]
            else:
                cls = classify_link(mine, theirs, i + 1, prog.reverse_ports[i])
                s._links[i] = (mine, theirs, cls)
            if cls is _CHILD:
                value = read_neighbor(i + 1).count
                s.read_count[i] = value
                s.count += value
                return event
            if cls is _INCOMING:
                s.n_in += 1
                s.count -= 1
            elif cls is _OUTGOING:
                s.n_out += 1
                s.count += 1
            budget -= 1
            continue

        reg = s.register
        if kind == A_WRITE:
            # Prefer candidates that respect the length bound: an over-long
            # neighbor path means "my path via that neighbor" is not a simple
            # root path, and blindly truncating it can freeze a corrupted value
            # into a stable cycle between neighbors.  Legitimate candidates are
            # never over-long, so the rule is invisible after convergence.
            # Python's tuple order is the paths' lexicographic order (BOTTOM
            # lowest, a proper prefix before its extensions), so min applies.
            if s.read_path == s._min_key:
                path = s._min_path
            else:
                bound = prog.path_bound
                candidates = [p + (r,) for p, r in zip(s.read_path, prog.reverse_ports)]
                eligible = [c for c in candidates if len(c) <= bound]
                path = min(eligible) if eligible else min(c[:bound] for c in candidates)
                s._min_key = s.read_path.copy()
                s._min_path = path
            changed = path != reg.path
            if changed:
                s.register = Register(path, reg.count, reg.bcc)
            return event[changed]

        if kind == B_READ_SELF:
            s.path = reg.path
            s.count = s.n_in = s.n_out = 0
            return event

        if kind == B_WRITE:
            count = clamp(s.count, prog.count_bound)
            changed = count != reg.count
            if changed:
                s.register = Register(reg.path, count, reg.bcc)
            return event[changed]

        if kind == C_READ_COUNT:
            s.count = reg.count
            return event

        if kind == C_READ_PATH:
            s.path = reg.path
            return event

        if kind == C_DECIDE:
            if s.count == 0:
                bcc = s.path[: prog.path_bound]
                changed = bcc != reg.bcc
                if changed:
                    s.register = Register(reg.path, reg.count, bcc)
                return event[changed]
            budget -= 1
            continue

        if kind == C_READ_PARENT_BCC or kind == C_WRITE_PARENT_BCC:
            # both act on the lowest port that classifies as the parent link
            if s.count != 0:
                mine = s.path
                links = s._links
                for j in range(prog.degree):
                    theirs = s.read_path[j]
                    memo = links[j]
                    if memo[0] is mine and memo[1] is theirs:
                        cls = memo[2]
                    else:
                        cls = classify_link(mine, theirs, j + 1, prog.reverse_ports[j])
                        links[j] = (mine, theirs, cls)
                    if cls is _PARENT:
                        if kind == C_READ_PARENT_BCC:
                            s.read_bcc[j] = read_neighbor(j + 1).bcc
                            return event[j]
                        bcc = s.read_bcc[j][: prog.path_bound]
                        changed = bcc != reg.bcc
                        if changed:
                            s.register = Register(reg.path, reg.count, bcc)
                        return event[changed]
            budget -= 1
            continue

        if kind == R_WRITE_PATH:
            s.register = Register(ROOT_PATH, reg.count, reg.bcc)
            return event[reg.path != ROOT_PATH]
        if kind == R_WRITE_COUNT:
            s.register = Register(reg.path, 0, reg.bcc)
            return event[reg.count != 0]
        # R_WRITE_BCC: the slot table admits no other kind
        s.register = Register(reg.path, reg.count, ROOT_PATH)
        return event[reg.bcc != ROOT_PATH]
    raise AssertionError("schedule contains no unconditional register access")


def execute_step(
    state: ProcessorState, prog: NodeProgram, read_neighbor: ReadNeighbor
) -> tuple[ProcessorState, StepEvent]:
    """Copying wrapper of ``advance``: step a copy, leave ``state`` untouched."""
    s = state.clone()
    return s, advance(s, prog, read_neighbor)
