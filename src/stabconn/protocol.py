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

A path is a ``bytes`` object, one byte per symbol.  BOTTOM is 0 and the
ports are 1..delta, so while delta <= MAX_DEGREE (255) bytes order is the
paths' lexicographic order (BOTTOM lowest, a proper prefix before its
extensions), and a prefix test is ``startswith``.  ``node_program`` and
``oracle.first_dfs`` reject a graph with a larger degree before any path is
built.

Every activation performs exactly one register read or write (plus attached
local computation), so an adversarial scheduler interleaves at register
granularity.  All operations are total: corrupted registers, locals, and
program counters never raise.

There is one step kernel, ``advance``: it updates a ``ProcessorState`` in
place and returns a shared, immutable ``StepEvent``.  It is given the
neighbours' states in port order and touches only their ``register``: a
remote read takes one field of one neighbour's register, as in the paper's
read/write atomicity.  ``execute_step`` is its copying wrapper, which steps
a copy and leaves its input untouched; ``simulator.run`` copies each
initial state once and calls ``advance``, except for quiet nodes, which
replay a cycle ``advance`` recorded.  A step reads nothing but the node's
protocol state, its program and those registers: no cache lives between
steps.

``NodeProgram.schedule`` is the readable spec of a cycle: (kind, port) pairs.
The kernel dispatches through its slot table instead, built with the
program and shared by every program with the same schedule and degree.
The table holds one function per slot (threaded code), made by the
factory of the slot's kind with the slot's port - 1, its next pc (the wrap
is precomputed) and the events it can return bound in, so a step decodes
no slot and neither builds nor looks up an event.  A conditional slot whose
guard fails calls the next slot's function, so one activation folds a run
of failed guards into the slot that ends it.  Building a program refuses
a schedule with no unconditional slot, where such a run could never end;
on the generated schedules an activation folds at most max(degree, 3)
slots (all B_PORT slots, or C_DECIDE and the two parent-bcc slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import ceil, log2
from typing import Callable, NamedTuple, Sequence

from .graph import Graph, GraphError, NodeId, ROOT

#: Minimal path symbol; strictly smaller than every edge index.
BOTTOM = 0
#: The largest degree whose ports fit in a one-byte path symbol.
MAX_DEGREE = 255

#: One byte per symbol: BOTTOM, or a port in 1..MAX_DEGREE (see the module docstring).
Path = bytes

#: ``SYMBOLS[k]`` is the one-symbol path k, which extends a path by port k
SYMBOLS: tuple[Path, ...] = tuple(bytes((k,)) for k in range(MAX_DEGREE + 1))

ROOT_PATH: Path = SYMBOLS[BOTTOM]


class DegreeLimitError(GraphError):
    """A node has more ports than a one-byte path symbol can name."""


def check_degrees(g: Graph) -> None:
    """Raise ``DegreeLimitError`` naming a node of g whose degree exceeds MAX_DEGREE."""
    if g.max_degree > MAX_DEGREE:
        v = next(v for v in range(1, g.n + 1) if g.degree(v) > MAX_DEGREE)
        raise DegreeLimitError(
            f"node {v} has degree {g.degree(v)}; path symbols name ports up to {MAX_DEGREE}"
        )


def format_path(p: Path) -> str:
    return ".".join("⊥" if s == BOTTOM else str(s) for s in p)


#: the link classes ``classify_link`` returns; compare them with ``is``
PARENT = "parent"
CHILD = "child"
OUTGOING_NONTREE = "outgoing"
INCOMING_NONTREE = "incoming"
UNCLASSIFIED = "unclassified"


def classify_link(my_path: Path, their_path: Path, my_port: int, their_port: int) -> str:
    """Classify one incident link from the two endpoint paths.

    The link is a parent link when my path extends theirs by exactly their
    port for me, a child link when theirs extends mine by exactly my port for
    them; any other proper prefix relation is a non-tree link (outgoing when
    they are my ancestor, incoming when they are my descendant).  Corrupted
    paths that match no rule are UNCLASSIFIED.
    """
    mine, theirs = len(my_path), len(their_path)
    if theirs < mine and my_path.startswith(their_path):
        if mine == theirs + 1 and my_path[theirs] == their_port:
            return PARENT
        return OUTGOING_NONTREE
    if mine < theirs and their_path.startswith(my_path):
        if theirs == mine + 1 and their_path[mine] == my_port:
            return CHILD
        return INCOMING_NONTREE
    return UNCLASSIFIED


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


@dataclass(frozen=True, slots=True)
class NodeProgram:
    """Static execution context of one node: schedule, ports, and bounds.

    ``schedule`` is the readable spec; ``table`` is what the kernel calls,
    built with the program from it, and ``suffixes`` the reverse ports as
    A_WRITE appends them.  Neither can go stale: the fields are frozen, and
    a ``dataclasses.replace`` copy builds its own.  Both are plain slots,
    not cached on first read, so a program's layout never changes and the
    kernel's loads from it stay on CPython's fast path.
    """

    degree: int
    schedule: tuple[MicroStep, ...]
    #: row v of ``Graph.reverse_ports``: [j-1] is the port the neighbour on my port j uses for me
    reverse_ports: tuple[int, ...]
    path_bound: int
    count_bound: int
    #: [j-1] is ``reverse_ports[j-1]`` as a one-symbol path, which A_WRITE appends
    suffixes: tuple[Path, ...] = field(init=False, repr=False, compare=False)
    #: per slot, the function that performs it: ``table[pc](s, prog, nbrs)``.
    #: It sets ``s.pc`` to the slot after it and returns its precomputed
    #: event: a read's ``StepEvent``, a write's unchanged or changed one, or
    #: C_READ_PARENT_BCC's read event of the parent port.  A slot whose guard
    #: fails returns what the next slot's function returns.
    table: tuple[Callable[..., StepEvent], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # A schedule with an unknown kind (``KeyError``) or with no
        # unconditional slot (``ValueError``) raises here, before any step.
        object.__setattr__(self, "suffixes", tuple(SYMBOLS[r] for r in self.reverse_ports))
        object.__setattr__(self, "table", _slot_table(self.schedule, self.degree))

    @property
    def length(self) -> int:
        return len(self.schedule)


def node_program(g: Graph, v: NodeId) -> NodeProgram:
    """Build the program of node v for graph g (path bound n, count bound n^2).

    A graph with a degree above MAX_DEGREE raises ``DegreeLimitError``.
    """
    check_degrees(g)
    degree = g.degree(v)
    return NodeProgram(
        degree=degree,
        schedule=root_program() if v == ROOT else nonroot_program(degree),
        reverse_ports=g.reverse_ports[v - 1],
        path_bound=g.n,
        count_bound=g.n * g.n,
    )


@dataclass(slots=True, eq=True)
class ProcessorState:
    """Register plus local variables and program counter of one processor:
    its whole protocol state, and all a step of ``advance`` reads of it."""

    register: Register
    path: Path
    count: int
    n_in: int
    n_out: int
    read_path: list[Path]
    read_count: list[int]
    read_bcc: list[Path]
    pc: int

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


#: per register field, its unchanged and its changed write: the events every
#: write slot of that field returns
WRITE_EVENTS = {f: (StepEvent("write", f, None, False), StepEvent("write", f, None, True))
                for f in Register._fields}
#: the register field each slot kind writes, or else reads (on its port, or its own)
_WRITES = {A_WRITE: "path", R_WRITE_PATH: "path", B_WRITE: "count", R_WRITE_COUNT: "count",
           C_DECIDE: "bcc", C_WRITE_PARENT_BCC: "bcc", R_WRITE_BCC: "bcc"}
_READS = {A_READ: "path", B_READ_SELF: "path", C_READ_PATH: "path",
          B_PORT: "count", C_READ_COUNT: "count", C_READ_PARENT_BCC: "bcc"}
#: the slot kinds whose guard can fail, folding the activation into the next slot
_CONDITIONAL = frozenset({B_PORT, C_DECIDE, C_READ_PARENT_BCC, C_WRITE_PARENT_BCC})

#: builds a register without the namedtuple's Python-level ``__new__``
_new = tuple.__new__


def _slot_events(kind: int, port: int, degree: int):
    """What the slot returns (see ``NodeProgram.table``): a write slot its
    field's ``WRITE_EVENTS`` pair, a read slot events built once per table."""
    if kind in _WRITES:
        return WRITE_EVENTS[_WRITES[kind]]
    read = _READS[kind]
    if kind == C_READ_PARENT_BCC:
        return tuple(StepEvent("read", read, j) for j in range(1, degree + 1))
    return StepEvent("read", read, port or None)


def _parent_port(s: ProcessorState, prog: NodeProgram) -> int:
    """The index (port - 1) of the lowest port that classifies as the parent link, or -1.

    A port j classifies as PARENT exactly when my path is the read path
    extended by one symbol, their port for me: A_WRITE's candidate
    ``read_path[j] + suffixes[j]``.  So the scan compares candidates and
    runs no ``classify_link``.
    """
    mine = s.path
    read_path = s.read_path
    suffixes = prog.suffixes
    for j in range(prog.degree):
        if read_path[j] + suffixes[j] == mine:
            return j
    return -1


# One factory per slot kind (``_r_write`` makes the root's three).  Each
# takes the slot's port - 1, the pc after it, its events (see
# ``_slot_events``) and the table's list of slot functions, and returns the
# slot function ``advance`` calls.  A slot whose guard fails hands the
# activation to the next slot's function.

def _a_read(i, nxt, event, fns):
    def a_read(s, prog, nbrs):
        s.pc = nxt
        s.read_path[i] = nbrs[i].register.path
        return event
    return a_read


def _a_write(i, nxt, events, fns):
    same, changed = events

    def a_write(s, prog, nbrs):
        s.pc = nxt
        # Prefer candidates that respect the length bound: an over-long
        # neighbor path means "my path via that neighbor" is not a simple
        # root path, and blindly truncating it can freeze a corrupted value
        # into a stable cycle between neighbors.  Legitimate candidates are
        # never over-long, so the rule is invisible after convergence.
        # Bytes order is the paths' lexicographic order (BOTTOM lowest, a
        # proper prefix before its extensions), so min applies.  A
        # candidate p + r fits the bound exactly when p is shorter than
        # it, so the filter runs before the concatenation; in the
        # fallback every p has at least ``bound`` symbols, so truncating
        # p + r to ``bound`` would drop the port anyway.
        bound = prog.path_bound
        eligible = [p + r for p, r in zip(s.read_path, prog.suffixes) if len(p) < bound]
        path = min(eligible) if eligible else min(p[:bound] for p in s.read_path)
        reg = s.register
        if path == reg.path:
            return same
        s.register = _new(Register, (path, reg.count, reg.bcc))
        return changed
    return a_write


def _b_read_self(i, nxt, event, fns):
    def b_read_self(s, prog, nbrs):
        s.pc = nxt
        s.path = s.register.path
        s.count = s.n_in = s.n_out = 0
        return event
    return b_read_self


def _b_port(i, nxt, event, fns):
    port = i + 1

    def b_port(s, prog, nbrs):
        s.pc = nxt
        cls = classify_link(s.path, s.read_path[i], port, prog.reverse_ports[i])
        if cls is CHILD:
            value = nbrs[i].register.count
            s.read_count[i] = value
            s.count += value
            return event
        if cls is INCOMING_NONTREE:
            s.n_in += 1
            s.count -= 1
        elif cls is OUTGOING_NONTREE:
            s.n_out += 1
            s.count += 1
        return fns[nxt](s, prog, nbrs)
    return b_port


def _b_write(i, nxt, events, fns):
    same, changed = events

    def b_write(s, prog, nbrs):
        s.pc = nxt
        count = clamp(s.count, prog.count_bound)
        reg = s.register
        if count == reg.count:
            return same
        s.register = _new(Register, (reg.path, count, reg.bcc))
        return changed
    return b_write


def _c_read_count(i, nxt, event, fns):
    def c_read_count(s, prog, nbrs):
        s.pc = nxt
        s.count = s.register.count
        return event
    return c_read_count


def _c_read_path(i, nxt, event, fns):
    def c_read_path(s, prog, nbrs):
        s.pc = nxt
        s.path = s.register.path
        return event
    return c_read_path


def _c_decide(i, nxt, events, fns):
    same, changed = events

    def c_decide(s, prog, nbrs):
        s.pc = nxt
        if s.count != 0:
            return fns[nxt](s, prog, nbrs)
        bcc = s.path[: prog.path_bound]
        reg = s.register
        if bcc == reg.bcc:
            return same
        s.register = _new(Register, (reg.path, reg.count, bcc))
        return changed
    return c_decide


def _c_read_parent_bcc(i, nxt, events, fns):
    def c_read_parent_bcc(s, prog, nbrs):
        s.pc = nxt
        j = _parent_port(s, prog) if s.count != 0 else -1
        if j < 0:
            return fns[nxt](s, prog, nbrs)
        s.read_bcc[j] = nbrs[j].register.bcc
        return events[j]
    return c_read_parent_bcc


def _c_write_parent_bcc(i, nxt, events, fns):
    same, changed = events

    def c_write_parent_bcc(s, prog, nbrs):
        s.pc = nxt
        j = _parent_port(s, prog) if s.count != 0 else -1
        if j < 0:
            return fns[nxt](s, prog, nbrs)
        bcc = s.read_bcc[j][: prog.path_bound]
        reg = s.register
        if bcc == reg.bcc:
            return same
        s.register = _new(Register, (reg.path, reg.count, bcc))
        return changed
    return c_write_parent_bcc


def _r_write(field_index, value):
    """The factory of a root slot that writes the constant ``value`` into
    register field ``field_index``; a write that changes nothing keeps the
    register object, as every other write slot does."""
    def factory(i, nxt, events, fns):
        same, changed = events

        def r_write(s, prog, nbrs):
            s.pc = nxt
            reg = s.register
            if reg[field_index] == value:
                return same
            fields = list(reg)
            fields[field_index] = value
            s.register = _new(Register, fields)
            return changed
        return r_write
    return factory


_SLOT_FACTORIES = {
    A_READ: _a_read, A_WRITE: _a_write, B_READ_SELF: _b_read_self, B_PORT: _b_port,
    B_WRITE: _b_write, C_READ_COUNT: _c_read_count, C_READ_PATH: _c_read_path,
    C_DECIDE: _c_decide, C_READ_PARENT_BCC: _c_read_parent_bcc,
    C_WRITE_PARENT_BCC: _c_write_parent_bcc, R_WRITE_PATH: _r_write(0, ROOT_PATH),
    R_WRITE_COUNT: _r_write(1, 0), R_WRITE_BCC: _r_write(2, ROOT_PATH),
}


@cache  # one table per schedule and degree, shared by every program with them
def _slot_table(schedule: tuple[MicroStep, ...], degree: int) -> tuple:
    if all(kind in _CONDITIONAL for kind, _ in schedule):
        raise ValueError("schedule has no unconditional register access to end an activation")
    n = len(schedule)
    fns: list = []
    for pc, (kind, port) in enumerate(schedule):
        make = _SLOT_FACTORIES[kind]  # an unknown kind raises here, not in the kernel
        fns.append(make(port - 1, (pc + 1) % n, _slot_events(kind, port, degree), fns))
    return tuple(fns)


def advance(s: ProcessorState, prog: NodeProgram, nbrs: Sequence[ProcessorState]) -> StepEvent:
    """Perform one atomic step on ``s`` in place: exactly one register access.

    This is the only step kernel.  It calls the function of slot ``s.pc``
    in ``prog.table`` (the pc normalized modulo the schedule length, so it
    is total on corrupted states).  The slot functions write the ``read_*``
    lists of ``s`` in place and replace ``s.register`` on writes, except
    that a write that changes nothing keeps the register object.
    A conditional slot whose guard fails is pure-local and calls the next
    slot's function within the same activation; the slot that accesses a
    register sets ``s.pc`` past itself and returns its precomputed event.
    ``nbrs[j - 1]`` is the neighbour on port j; a remote read takes one
    field of its ``register`` and nothing else of it.  Nothing but the
    protocol state ``s``, ``prog`` and those registers decides the step.
    """
    slots = prog.table
    return slots[s.pc % len(slots)](s, prog, nbrs)


def execute_step(
    state: ProcessorState, prog: NodeProgram, nbrs: Sequence[ProcessorState]
) -> tuple[ProcessorState, StepEvent]:
    """Copying wrapper of ``advance``: step a copy, leave ``state`` untouched."""
    s = state.clone()
    return s, advance(s, prog, nbrs)
