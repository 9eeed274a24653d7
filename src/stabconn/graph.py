"""Topology representation: undirected connected graphs with per-node port orderings.

Every node numbers its incident edges 1..degree (its "ports"); both endpoints
of an edge can look up the other side's port number.  Node 1 is always the
root.  Graphs are immutable after construction and safe to share between
concurrent simulations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

NodeId = int
Edge = tuple[int, int]

ROOT: NodeId = 1


class GraphError(Exception):
    """Base class for all topology construction and parsing failures."""


class GraphParseError(GraphError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NodeRangeError(GraphParseError):
    """Node index outside [1, n]."""


class SelfLoopError(GraphParseError):
    """Edge from a node to itself."""


class DuplicateEdgeError(GraphParseError):
    """The same unordered node pair listed twice."""


class PortAssignmentError(GraphParseError):
    """Explicit port list is not a bijection onto the node's neighbors."""


class DisconnectedGraphError(GraphError):
    """The edge set does not connect all nodes."""


class GenerationError(GraphError):
    """Generator parameters are infeasible."""


def canonical_edge(u: NodeId, v: NodeId) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected connected simple graph with explicit port orderings.

    ``ports[i-1]`` lists the neighbors of node ``i`` in port order, so the
    neighbor at port ``j`` of node ``i`` is ``ports[i-1][j-1]``.
    """

    n: int
    edges: tuple[Edge, ...]
    ports: tuple[tuple[NodeId, ...], ...] = field(default=())

    def neighbors(self, v: NodeId) -> tuple[NodeId, ...]:
        return self.ports[v - 1]

    def degree(self, v: NodeId) -> int:
        return len(self.ports[v - 1])

    def port_to(self, v: NodeId, w: NodeId) -> int:
        """Port number of node v for the edge to neighbor w."""
        return self._port_index[v - 1][w]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def _port_index(self) -> tuple[dict[NodeId, int], ...]:
        return tuple(
            {w: j for j, w in enumerate(nbrs, start=1)} for nbrs in self.ports
        )

    @cached_property
    def reverse_ports(self) -> tuple[tuple[int, ...], ...]:
        """``reverse_ports[v-1][j-1]`` is the port the neighbour on v's port j uses for v."""
        index = self._port_index
        return tuple(
            tuple([index[w - 1][v] for w in nbrs]) for v, nbrs in enumerate(self.ports, start=1)
        )

    @cached_property
    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self.ports), default=0)

    @cached_property
    def diameter(self) -> int:
        """Largest eccentricity of a node within its component.

        A breadth-first search from every node at once over Python-int
        bitsets: after k passes, bit w of ``reach[v]`` is set when w lies
        within distance k of v.  Every set stops growing at its node's
        eccentricity, so the number of passes that grow some set is the
        diameter.  That is d + 1 passes of 2m ORs of n-bit integers.
        """
        nbrs = [[w - 1 for w in ws] for ws in self.ports]
        reach = [1 << v for v in range(self.n)]
        d = 0
        while True:
            nxt = []
            for r, ws in zip(reach, nbrs):
                for w in ws:
                    r |= reach[w]
                nxt.append(r)
            if nxt == reach:
                return d
            reach = nxt
            d += 1

    def validate(self) -> None:
        """Check all structural invariants, raising a GraphError subclass."""
        if self.n < 1:
            raise GraphParseError(f"node count must be >= 1, got {self.n}")
        if len(self.ports) != self.n:
            raise PortAssignmentError(
                f"need port lists for all {self.n} nodes, got {len(self.ports)}"
            )
        seen: set[Edge] = set()
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise NodeRangeError(f"edge ({u}, {v}) outside node range 1..{self.n}")
            if u == v:
                raise SelfLoopError(f"self-loop at node {u}")
            e = canonical_edge(u, v)
            if e in seen:
                raise DuplicateEdgeError(f"duplicate edge ({e[0]}, {e[1]})")
            seen.add(e)
        adjacency: dict[NodeId, set[NodeId]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adjacency[u].add(v)
            adjacency[v].add(u)
        for v in range(1, self.n + 1):
            listed = self.ports[v - 1]
            if len(set(listed)) != len(listed) or set(listed) != adjacency[v]:
                raise PortAssignmentError(
                    f"ports of node {v} are not a bijection onto its neighbors"
                )
        parent = search_tree(self)
        missing = [v for v in range(2, self.n + 1) if not parent[v]]
        if missing:
            raise DisconnectedGraphError(f"graph is disconnected; unreachable nodes: {missing}")


def search_tree(g: Graph) -> list[NodeId]:
    """Parent list (n + 1 entries) of a spanning tree from a stack search at
    node 1: ``parent[v]`` is the node that reached v, for v in 2..n, or 0 if
    the search missed v, which only a disconnected graph allows."""
    n = g.n
    parent = [0] * (n + 1)
    if n < 1:
        return parent
    ports = g.ports
    seen = bytearray(n + 1)
    seen[ROOT] = 1
    frontier = [ROOT]
    while frontier:
        v = frontier.pop()
        for w in ports[v - 1]:
            if not seen[w]:
                seen[w] = 1
                parent[w] = v
                frontier.append(w)
    return parent


def build_graph(
    n: int,
    edge_list: list[Edge],
    explicit_ports: dict[NodeId, tuple[NodeId, ...]] | None = None,
) -> Graph:
    """Assemble and validate a Graph.

    Default port order is the order in which each node's edges appear in
    ``edge_list``; ``explicit_ports`` overrides individual nodes.
    """
    order: list[list[NodeId]] = [[] for _ in range(max(n, 0))]
    for u, v in edge_list:
        if 1 <= u <= n and 1 <= v <= n and u != v:
            if v not in order[u - 1]:
                order[u - 1].append(v)
            if u not in order[v - 1]:
                order[v - 1].append(u)
    if explicit_ports:
        for v, listed in explicit_ports.items():
            if not 1 <= v <= n:
                raise NodeRangeError(f"ports for node {v} outside 1..{n}")
            order[v - 1] = list(listed)
    g = Graph(
        n=n,
        edges=tuple(sorted(canonical_edge(u, v) for u, v in edge_list)),
        ports=tuple(tuple(nbrs) for nbrs in order),
    )
    g.validate()
    return g


def parse_graph(text: str) -> Graph:
    """Parse the textual edge-list format.

    Line 1 is ``n m``, followed by m lines ``u v`` and optional
    ``ports i: j1 j2 ... jd`` overrides.  ``#`` starts a comment.
    """
    header: tuple[int, int] | None = None
    edge_list: list[Edge] = []
    edges_seen: set[Edge] = set()
    explicit_ports: dict[NodeId, tuple[NodeId, ...]] = {}
    port_lines: dict[NodeId, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 2:
                raise GraphParseError("expected header 'n m'", lineno)
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphParseError("header values must be integers", lineno) from None
            if n < 1 or m < 0:
                raise GraphParseError(f"invalid header n={n} m={m}", lineno)
            header = (n, m)
            continue
        if line.startswith("ports"):
            body = line[len("ports"):].strip()
            if ":" not in body:
                raise GraphParseError("ports line needs 'ports i: j1 j2 ...'", lineno)
            node_part, _, list_part = body.partition(":")
            try:
                v = int(node_part)
                listed = tuple(int(tok) for tok in list_part.split())
            except ValueError:
                raise GraphParseError("ports line values must be integers", lineno) from None
            if not (1 <= v <= header[0]):
                raise NodeRangeError(f"ports for node {v} outside 1..{header[0]}", lineno)
            if v in explicit_ports:
                raise GraphParseError(f"duplicate ports line for node {v}", lineno)
            explicit_ports[v] = listed
            port_lines[v] = lineno
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected edge 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError("edge endpoints must be integers", lineno) from None
        n = header[0]
        if not (1 <= u <= n and 1 <= v <= n):
            raise NodeRangeError(f"edge ({u}, {v}) outside node range 1..{n}", lineno)
        if u == v:
            raise SelfLoopError(f"self-loop at node {u}", lineno)
        if canonical_edge(u, v) in edges_seen:
            raise DuplicateEdgeError(f"duplicate edge ({u}, {v})", lineno)
        edges_seen.add(canonical_edge(u, v))
        edge_list.append((u, v))

    if header is None:
        raise GraphParseError("empty graph file")
    n, m = header
    if len(edge_list) != m:
        raise GraphParseError(f"header promises {m} edges, found {len(edge_list)}")

    adjacency: dict[NodeId, set[NodeId]] = {v: set() for v in range(1, n + 1)}
    for u, v in edge_list:
        adjacency[u].add(v)
        adjacency[v].add(u)
    for v, listed in explicit_ports.items():
        if len(set(listed)) != len(listed) or set(listed) != adjacency[v]:
            raise PortAssignmentError(
                f"ports of node {v} are not a bijection onto its neighbors",
                port_lines[v],
            )

    return build_graph(n, edge_list, explicit_ports)


def render_graph(g: Graph) -> str:
    """Canonical renderer: edges sorted by (u, v), all port lists explicit.

    ``parse_graph(render_graph(g)) == g`` for every valid graph.
    """
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    for v in range(1, g.n + 1):
        if g.ports[v - 1]:
            lines.append(f"ports {v}: " + " ".join(str(w) for w in g.ports[v - 1]))
    return "\n".join(lines) + "\n"


#: Edge list of the 16-node worked example: five small cycles joined by four
#: bridge edges.  Port order is the order edges appear here.
_FIGURE1_EDGES: list[Edge] = [
    (1, 2), (2, 3), (3, 1),
    (4, 5), (5, 10), (10, 4),
    (6, 7), (7, 8), (8, 9), (9, 6),
    (11, 12), (12, 13), (13, 11),
    (14, 15), (15, 16), (16, 14),
    (1, 4), (5, 6), (10, 11), (11, 14),
]


def figure1() -> Graph:
    """The 16-node, 20-edge worked-example topology."""
    return build_graph(16, list(_FIGURE1_EDGES))


def _shuffled_ports(n: int, edge_list: list[Edge], rng: random.Random) -> dict[NodeId, tuple[NodeId, ...]]:
    order: dict[NodeId, list[NodeId]] = {v: [] for v in range(1, n + 1)}
    for u, v in edge_list:
        order[u].append(v)
        order[v].append(u)
    out = {}
    for v, nbrs in order.items():
        rng.shuffle(nbrs)
        out[v] = tuple(nbrs)
    return out


def generate_random_connected(n: int, extra_edges: int, seed: int) -> Graph:
    """Random spanning tree plus ``extra_edges`` distinct chords.

    Deterministic for a given (n, extra_edges, seed); ports are shuffled
    per node from the same seed.
    """
    if n < 1:
        raise GenerationError(f"need n >= 1, got {n}")
    if extra_edges < 0:
        raise GenerationError(f"need extra_edges >= 0, got {extra_edges}")
    max_edges = n * (n - 1) // 2
    if (n - 1) + extra_edges > max_edges:
        raise GenerationError(
            f"{n - 1} tree edges + {extra_edges} chords exceed the {max_edges} "
            f"possible edges of a {n}-node simple graph"
        )
    rng = random.Random(seed)
    edge_list: list[Edge] = []
    for v in range(2, n + 1):
        edge_list.append((rng.randrange(1, v), v))
    present = {canonical_edge(u, v) for u, v in edge_list}
    candidates = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in present
    ]
    edge_list.extend(rng.sample(candidates, extra_edges))
    return build_graph(n, edge_list, _shuffled_ports(n, edge_list, rng))


def generate_clustered(k: int, cluster_size: int, seed: int) -> Graph:
    """k cycles of ``cluster_size`` nodes joined into a random tree by k-1 bridges."""
    if k < 1:
        raise GenerationError(f"need k >= 1, got {k}")
    if cluster_size < 3:
        raise GenerationError(f"need cluster_size >= 3, got {cluster_size}")
    rng = random.Random(seed)
    n = k * cluster_size

    def members(c: int) -> list[NodeId]:
        return list(range(c * cluster_size + 1, (c + 1) * cluster_size + 1))

    edge_list: list[Edge] = []
    for c in range(k):
        ring = members(c)
        for i, u in enumerate(ring):
            edge_list.append((u, ring[(i + 1) % len(ring)]))
    for c in range(1, k):
        parent = rng.randrange(0, c)
        edge_list.append((rng.choice(members(parent)), rng.choice(members(c))))
    return build_graph(n, edge_list, _shuffled_ports(n, edge_list, rng))


def shuffle_ports(g: Graph, seed: int) -> Graph:
    """Same topology, freshly shuffled port orderings."""
    rng = random.Random(seed)
    return build_graph(g.n, list(g.edges), _shuffled_ports(g.n, list(g.edges), rng))
