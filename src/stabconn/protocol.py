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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import ceil, log2
from typing import Callable, NamedTuple

from .graph import Graph, NodeId, ROOT

#: Minimal path symbol; strictly smaller than every edge index.
BOTTOM = 0

Path = tuple[int, ...]

ROOT_PATH: Path = (BOTTOM,)


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


def lex_min(values) -> Path:
    best = None
    for v in values:
        if best is None or lex_compare(v, best) < 0:
            best = v
    if best is None:
        raise ValueError("lex_min of empty iterable")
    return best


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


def classify_link(my_path: Path, their_path: Path, my_port: int, their_port: int) -> LinkClass:
    """Classify one incident link from the two endpoint paths.

    The link is a parent link when my path extends theirs by exactly their
    port for me, a child link when theirs extends mine by exactly my port for
    them; any other proper prefix relation is a non-tree link (outgoing when
    they are my ancestor, incoming when they are my descendant).  Corrupted
    paths that match no rule are UNCLASSIFIED.
    """
    if len(their_path) < len(my_path) and is_prefix(their_path, my_path):
        if my_path[len(their_path):] == (their_port,):
            return LinkClass.PARENT
        return LinkClass.OUTGOING_NONTREE
    if len(my_path) < len(their_path) and is_prefix(my_path, their_path):
        if their_path[len(my_path):] == (my_port,):
            return LinkClass.CHILD
        return LinkClass.INCOMING_NONTREE
    return LinkClass.UNCLASSIFIED


class Register(NamedTuple):
    """The shared triple one processor exposes to its neighbors."""

    path: Path
    count: int
    bcc: Path


def clamp(value: int, bound: int) -> int:
    return -bound if value < -bound else (bound if value > bound else value)


def register_bits(reg: Register, delta: int, count_bound: int) -> int:
    """Serialized register size in bits.

    Path symbols come from an alphabet of delta+2 code points (BOTTOM, the
    edge indices 1..delta, and a terminator); the count field needs one code
    for each value in [-count_bound, count_bound].
    """
    symbol = ceil(log2(delta + 2))
    return (len(reg.path) + len(reg.bcc)) * symbol + ceil(log2(2 * count_bound + 1))


def register_bit_budget(path_bound: int, delta: int, count_bound: int) -> int:
    """Upper bound on register_bits when both paths respect the length bound."""
    return 2 * path_bound * ceil(log2(delta + 2)) + ceil(log2(2 * count_bound + 1))


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
    """Static execution context of one node: schedule, ports, and bounds."""

    node: NodeId
    is_root: bool
    degree: int
    schedule: tuple[MicroStep, ...]
    #: reverse_ports[j-1] is the port number the neighbor on my port j uses for me
    reverse_ports: tuple[int, ...]
    path_bound: int
    count_bound: int

    @property
    def length(self) -> int:
        return len(self.schedule)


def node_program(g: Graph, v: NodeId) -> NodeProgram:
    """Build the program of node v for graph g (path bound n, count bound n^2)."""
    nbrs = g.neighbors(v)
    is_root = v == ROOT
    return NodeProgram(
        node=v,
        is_root=is_root,
        degree=len(nbrs),
        schedule=root_program() if is_root else nonroot_program(len(nbrs)),
        reverse_ports=tuple(g.port_to(w, v) for w in nbrs),
        path_bound=g.n,
        count_bound=g.n * g.n,
    )


@dataclass(slots=True, eq=True)
class ProcessorState:
    """Register plus local variables and program counter of one processor."""

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
        # lists are shared; execute_step copies one before mutating it
        return ProcessorState(
            register=self.register,
            path=self.path,
            count=self.count,
            n_in=self.n_in,
            n_out=self.n_out,
            read_path=self.read_path,
            read_count=self.read_count,
            read_bcc=self.read_bcc,
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


ReadNeighbor = Callable[[int], Register]


def _first_parent_port(s: ProcessorState, prog: NodeProgram) -> int:
    """Lowest port currently classified as the parent link, or 0 if none."""
    for j in range(1, prog.degree + 1):
        if (
            classify_link(s.path, s.read_path[j - 1], j, prog.reverse_ports[j - 1])
            is LinkClass.PARENT
        ):
            return j
    return 0


def execute_step(
    state: ProcessorState, prog: NodeProgram, read_neighbor: ReadNeighbor
) -> tuple[ProcessorState, StepEvent]:
    """Perform one atomic step: exactly one register access.

    Conditional slots whose guard fails are pure-local and are folded into
    the same activation; the program counter is normalized modulo the
    schedule length, so the function is total on corrupted states.
    """
    s = state.clone()
    n_slots = prog.length
    pc = s.pc % n_slots
    for _ in range(n_slots):
        kind, port = prog.schedule[pc]
        pc = (pc + 1) % n_slots
        event = _apply_slot(s, prog, kind, port, read_neighbor)
        if event is not None:
            s.pc = pc
            return s, event
    raise AssertionError("schedule contains no unconditional register access")


def _write_register(s: ProcessorState, **fields) -> bool:
    new = s.register._replace(**fields)
    changed = new != s.register
    s.register = new
    return changed


def _apply_slot(
    s: ProcessorState,
    prog: NodeProgram,
    kind: int,
    port: int,
    read_neighbor: ReadNeighbor,
) -> StepEvent | None:
    bound = prog.path_bound

    if kind == R_WRITE_PATH:
        return StepEvent("write", "path", None, _write_register(s, path=ROOT_PATH))
    if kind == R_WRITE_COUNT:
        return StepEvent("write", "count", None, _write_register(s, count=0))
    if kind == R_WRITE_BCC:
        return StepEvent("write", "bcc", None, _write_register(s, bcc=ROOT_PATH))

    if kind == A_READ:
        value = read_neighbor(port).path
        s.read_path = list(s.read_path)
        s.read_path[port - 1] = value
        return StepEvent("read", "path", port)

    if kind == A_WRITE:
        # Prefer candidates that respect the length bound: an over-long
        # neighbor path means "my path via that neighbor" is not a simple
        # root path, and blindly truncating it can freeze a corrupted value
        # into a stable cycle between neighbors.  Legitimate candidates are
        # never over-long, so the rule is invisible after convergence.
        candidates = [
            s.read_path[j - 1] + (prog.reverse_ports[j - 1],)
            for j in range(1, prog.degree + 1)
        ]
        eligible = [c for c in candidates if len(c) <= bound]
        if eligible:
            new_path = lex_min(eligible)
        else:
            new_path = lex_min(c[:bound] for c in candidates)
        return StepEvent("write", "path", None, _write_register(s, path=new_path))

    if kind == B_READ_SELF:
        s.path = s.register.path
        s.count = 0
        s.n_in = 0
        s.n_out = 0
        return StepEvent("read", "path", None)

    if kind == B_PORT:
        cls = classify_link(
            s.path, s.read_path[port - 1], port, prog.reverse_ports[port - 1]
        )
        if cls is LinkClass.CHILD:
            value = read_neighbor(port).count
            s.read_count = list(s.read_count)
            s.read_count[port - 1] = value
            s.count += value
            return StepEvent("read", "count", port)
        if cls is LinkClass.INCOMING_NONTREE:
            s.n_in += 1
            s.count -= 1
        elif cls is LinkClass.OUTGOING_NONTREE:
            s.n_out += 1
            s.count += 1
        return None

    if kind == B_WRITE:
        value = clamp(s.count, prog.count_bound)
        return StepEvent("write", "count", None, _write_register(s, count=value))

    if kind == C_READ_COUNT:
        s.count = s.register.count
        return StepEvent("read", "count", None)

    if kind == C_READ_PATH:
        s.path = s.register.path
        return StepEvent("read", "path", None)

    if kind == C_DECIDE:
        if s.count == 0:
            return StepEvent("write", "bcc", None, _write_register(s, bcc=s.path[:bound]))
        return None

    if kind == C_READ_PARENT_BCC:
        if s.count != 0:
            j = _first_parent_port(s, prog)
            if j:
                value = read_neighbor(j).bcc
                s.read_bcc = list(s.read_bcc)
                s.read_bcc[j - 1] = value
                return StepEvent("read", "bcc", j)
        return None

    if kind == C_WRITE_PARENT_BCC:
        if s.count != 0:
            j = _first_parent_port(s, prog)
            if j:
                value = s.read_bcc[j - 1][:bound]
                return StepEvent("write", "bcc", None, _write_register(s, bcc=value))
        return None

    raise AssertionError(f"unknown micro-step kind {kind}")
