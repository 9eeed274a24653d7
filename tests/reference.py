"""Plain reference implementations that the tests compare the package against.

Each one restates a definition in the most direct way, with no attention to
speed, so a test can check the package's faster or more indirect route
against it.  None of them is part of the ``stabconn`` API.
"""

from __future__ import annotations

from typing import Sequence

from stabconn.graph import ROOT, Graph, NodeId
from stabconn.oracle import GroundTruth
from stabconn.protocol import Path, is_prefix


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
