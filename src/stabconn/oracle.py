"""Centralized ground truth, independent of the distributed protocol.

Bridges, articulation points, and bridge-connected components are computed by
brute force (remove one element, test connectivity), and the target register
contents are assembled from the lexicographically-first depth-first search
tree: per-node root paths, bypass counts for each parent link, and component
labels.  The two routes are deliberately independent so each can certify the
other.

The brute-force route first finds a spanning tree of its own with
``graph.search_tree``, the stack search from node 1 that ``Graph.validate``
also runs; it shares nothing with ``first_dfs``.  It then tests only the
removals that can disconnect.  Removing an edge outside that tree, or a node
of tree degree at most 1, leaves the rest of the tree connected, so only the
n - 1 tree edges and the nodes of tree degree 2 or more are tested.  Each
test removes the element and searches, but stops as soon as the answer is
known.  In a connected graph every part left by removing a node x holds a
neighbour of x, and every part left by removing an edge holds one of its
endpoints.  So G - x is connected iff the neighbours of x (the endpoints of
an edge x) stay joined in G - x.  One search starts at each of these
terminals, the searches take turns expanding one node each and merge where
they meet; the test ends when all have merged, or as soon as a merged search
runs out of nodes to expand, which means it has reached the whole of one
part.  So a cut costs about the number of terminals times the smaller side,
and a non-cut ends at the last meeting.  The worst case is still O(m) per
test and O(n * m) in all.  When the stack search misses a node (an
unvalidated, disconnected graph), every edge and every node is tested by one
whole-graph ``is_connected`` call each, which ``components_without``, the
one component search, answers.

One traversal yields the paths and the parent map.  Counts then come straight
from their definition: every non-tree edge joins a node k to a proper
ancestor l, and walking from k up the parent pointers to the child of l adds
one to the count of each node passed, since the edge bypasses exactly those
parent links.  The last node of the walk is the child of l the edge arrives
from, so the same walk tallies incoming edges per child subtree, and a
non-root node is an articulation point when some child's count equals its
tally.  The walks cost O(m * depth).  They never sum counts over children,
so the protocol's child-sum recursion stays a property to check against this
oracle rather than a restatement of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Container, Iterable, Mapping

from .graph import Edge, Graph, NodeId, ROOT, canonical_edge, search_tree
from .protocol import Path, Register, ROOT_PATH, SYMBOLS, check_degrees


def is_connected(
    g: Graph,
    removed_nodes: Iterable[NodeId] = (),
    removed_edges: Iterable[Edge] = (),
) -> bool:
    """True iff the surviving nodes form at most one connected component.

    Ids outside 1..n in ``removed_nodes`` and pairs that are no edge in
    ``removed_edges`` remove nothing.
    """
    cut = {canonical_edge(u, w) for u, w in removed_edges}
    return len(components_without(g, cut, removed_nodes)) <= 1


def _disconnects(g: Graph, node: NodeId = 0, edge: Edge = (0, 0)) -> bool:
    """True iff removing ``node``, or else ``edge``, disconnects the connected graph g.

    One search per terminal (the node's neighbours, or the edge's
    endpoints) runs in g minus the removed element, each expanding one node
    in turn.  A search that reaches a node another one owns merges with it,
    through a union-find over terminal labels.  One search left: joined.  A
    search with nothing left to expand has reached a whole part of g minus
    the element without meeting the others: cut.  O(m) in the worst case.
    """
    ports = g.ports
    a, b = edge
    owner = [-1] * (g.n + 1)  # label of the search that reached each node
    frontiers: list[list[NodeId] | None] = []
    for t in ports[node - 1] if node else edge:
        if owner[t] < 0 and t != node:  # repeats and self-loops of unvalidated graphs
            owner[t] = len(frontiers)
            frontiers.append([t])
    k = len(frontiers)
    union = list(range(k))  # union[label]: a label of the same merged search
    searches = k
    while searches > 1:
        for i in range(k):
            frontier = frontiers[i]
            if frontier is None:  # merged into another search
                continue
            v = frontier.pop()
            dead = node or (b if v == a else a if v == b else 0)
            for w in ports[v - 1]:
                if w == dead:
                    continue
                j = owner[w]
                if j < 0:
                    owner[w] = i
                    frontier.append(w)
                    continue
                while union[j] != j:
                    union[j] = j = union[union[j]]
                if j != i:
                    union[j] = i
                    searches -= 1
                    if searches == 1:
                        return False
                    other = frontiers[j]
                    frontiers[j] = None
                    if len(other) > len(frontier):
                        frontier, other = other, frontier
                    frontier.extend(other)
                    frontiers[i] = frontier
            if not frontier:
                return True
    return False


def brute_bridges(g: Graph) -> set[Edge]:
    """Edges whose single removal disconnects the graph.

    Only spanning-tree edges are tested: removing any other edge leaves the
    tree, and so the graph, connected.  Each test searches from both
    endpoints in g minus the edge and stops once the two searches meet or
    one of them runs out of nodes; see the module docstring.
    """
    parent = search_tree(g)
    if 0 in parent[2:]:  # a node was missed: g is disconnected
        return {e for e in g.edges if not is_connected(g, removed_edges=[e])}
    tree_edges = [canonical_edge(parent[v], v) for v in range(2, g.n + 1)]
    return {e for e in tree_edges if _disconnects(g, edge=e)}


def brute_articulation_points(g: Graph) -> set[NodeId]:
    """Nodes whose single removal disconnects the remaining nodes.

    Only nodes of spanning-tree degree 2 or more are tested: removing a
    tree leaf leaves the rest of the tree, and so the graph, connected.
    Each test searches from every neighbour of the node in g minus the node
    and stops once all searches have met or one runs out of nodes; see the
    module docstring.
    """
    parent = search_tree(g)
    if 0 in parent[2:]:
        return {v for v in range(1, g.n + 1) if not is_connected(g, removed_nodes=[v])}
    tree_degree = [0] * (g.n + 1)
    for v in range(2, g.n + 1):
        tree_degree[v] += 1
        tree_degree[parent[v]] += 1
    return {v for v in range(1, g.n + 1) if tree_degree[v] >= 2 and _disconnects(g, node=v)}


def brute_bcc_partition(g: Graph) -> set[frozenset[NodeId]]:
    """Connected components left after deleting every bridge."""
    return components_without(g, brute_bridges(g))


def components_without(
    g: Graph, removed_edges: Container[Edge], removed_nodes: Iterable[NodeId] = ()
) -> set[frozenset[NodeId]]:
    """Connected components left after deleting the given edges, each a
    ``canonical_edge`` pair, and nodes.  Ids outside 1..n remove nothing."""
    ports = g.ports
    # removed nodes start out seen, so no search starts at or enters them
    seen = bytearray(g.n + 1)
    for v in removed_nodes:
        if 1 <= v <= g.n:
            seen[v] = 1
    parts: set[frozenset[NodeId]] = set()
    for start in range(1, g.n + 1):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in ports[v - 1]:
                if seen[w] or canonical_edge(v, w) in removed_edges:
                    continue
                seen[w] = 1
                comp.append(w)
                frontier.append(w)
        parts.add(frozenset(comp))
    return parts


def first_dfs(g: Graph) -> tuple[dict[NodeId, Path], dict[NodeId, NodeId]]:
    """Root paths and parent map of the first depth-first search tree.

    The traversal always descends through the smallest unused port index, and
    each path extends the parent's path by the parent's port number for the
    child; the result is the lexicographically minimal simple root path of
    every node.  ``parent[w] = v`` is recorded when v discovers w, and
    ``paths`` lists the nodes in discovery order, each after its parent.
    A graph with a degree above ``protocol.MAX_DEGREE`` raises
    ``DegreeLimitError``.
    """
    check_degrees(g)
    paths: dict[NodeId, Path] = {ROOT: ROOT_PATH}
    parent: dict[NodeId, NodeId] = {}
    ports = g.ports
    # stack entries: (node, its (port, neighbour) pairs not yet tried)
    stack = [(ROOT, enumerate(ports[ROOT - 1], start=1))]
    while stack:
        v, untried = stack[-1]
        for port, w in untried:
            if w not in paths:
                paths[w] = paths[v] + SYMBOLS[port]
                parent[w] = v
                stack.append((w, enumerate(ports[w - 1], start=1)))
                break
        else:
            stack.pop()
    return paths, parent


def label_partition(labels: Mapping[NodeId, Path]) -> set[frozenset[NodeId]]:
    """Group the nodes that carry equal labels: one part per label."""
    groups: dict[Path, set[NodeId]] = {}
    for v, label in labels.items():
        groups.setdefault(label, set()).add(v)
    return {frozenset(vs) for vs in groups.values()}


@dataclass(frozen=True)
class GroundTruth:
    """Everything a stabilized run must agree with."""

    graph: Graph
    paths: dict[NodeId, Path]
    parent: dict[NodeId, NodeId]
    counts: dict[NodeId, int]
    bcc_labels: dict[NodeId, Path]
    bridges: frozenset[Edge]
    articulation_points: frozenset[NodeId]

    @cached_property
    def registers(self) -> tuple[Register, ...]:
        return tuple(
            Register(self.paths[v], self.counts[v], self.bcc_labels[v])
            for v in range(1, self.graph.n + 1)
        )

    @cached_property
    def partition(self) -> set[frozenset[NodeId]]:
        return label_partition(self.bcc_labels)


def ground_truth(g: Graph) -> GroundTruth:
    """Assemble the stabilized register contents and the detection sets."""
    paths, parent = first_dfs(g)

    # counts[c]: non-tree edges bypassing the link parent(c)-c;
    # splits[c]: those among them that end at parent(c).
    counts = {v: 0 for v in range(1, g.n + 1)}
    splits = {v: 0 for v in range(1, g.n + 1)}
    for u, w in g.edges:
        if parent.get(u) == w or parent.get(w) == u:
            continue
        k, l = (u, w) if len(paths[u]) > len(paths[w]) else (w, u)
        c = k
        while True:
            counts[c] += 1
            if parent[c] == l:
                break
            c = parent[c]
        splits[c] += 1

    representatives = {ROOT} | {v for v in range(2, g.n + 1) if counts[v] == 0}
    # discovery order: a parent is labelled before its children
    bcc_labels: dict[NodeId, Path] = {}
    for v in paths:
        if v in representatives:
            bcc_labels[v] = paths[v]
        else:
            bcc_labels[v] = bcc_labels[parent[v]]

    bridges = {
        canonical_edge(parent[v], v) for v in range(2, g.n + 1) if counts[v] == 0
    }

    aps = {parent[c] for c in range(2, g.n + 1) if counts[c] == splits[c]} - {ROOT}
    if sum(parent[v] == ROOT for v in range(2, g.n + 1)) >= 2:
        aps.add(ROOT)

    return GroundTruth(
        graph=g,
        paths=paths,
        parent=parent,
        counts=counts,
        bcc_labels=bcc_labels,
        bridges=frozenset(bridges),
        articulation_points=frozenset(aps),
    )
