"""Decision layer: read bridges, articulation points, and component labels
off stabilized registers, then certify them against brute force.

Extraction only uses information each node can see locally: its own register,
its neighbors' registers, and the port maps.  Which child subtree an incoming
non-tree edge belongs to is decided by a path prefix test, so no extra
protocol fields are needed.  The simulator extracts when a run stabilizes;
certification runs once per result, in the caller (``cli.build_report``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Edge, Graph, NodeId, ROOT, canonical_edge
from .oracle import (
    GroundTruth,
    brute_articulation_points,
    brute_bridges,
    components_without,
    ground_truth,
    label_partition,
)
from .protocol import CHILD, INCOMING_NONTREE, PARENT, Path, Register, classify_link


class NotStabilizedError(Exception):
    """Extraction refuses configurations whose registers differ from ground truth."""


@dataclass(frozen=True)
class DetectionResult:
    bridges: frozenset[Edge]
    articulation_points: frozenset[NodeId]
    component_of: dict[NodeId, Path]

    def partition(self) -> set[frozenset[NodeId]]:
        return label_partition(self.component_of)


def extract(
    g: Graph, registers: tuple[Register, ...], gt: GroundTruth | None = None
) -> DetectionResult:
    """Read the detection sets out of the registers of a legitimate configuration.

    Bridges are the parent links of nodes with register count 0; a non-root
    node is an articulation point when some child's count equals the number
    of incoming non-tree edges arriving from that child's subtree, and the
    root is one when it has two or more children.  Component labels are the
    bcc registers verbatim.
    """
    if gt is None:
        gt = ground_truth(g)
    if registers != gt.registers:
        raise NotStabilizedError(
            "configuration is not legitimate; refusing to extract from garbage"
        )

    paths = {v: registers[v - 1].path for v in range(1, g.n + 1)}
    counts = {v: registers[v - 1].count for v in range(1, g.n + 1)}

    # per-node link classification from local information only
    parent: dict[NodeId, NodeId] = {}
    children: dict[NodeId, list[NodeId]] = {v: [] for v in range(1, g.n + 1)}
    incoming_nbrs: dict[NodeId, list[NodeId]] = {v: [] for v in range(1, g.n + 1)}
    for v, (nbrs, back) in enumerate(zip(g.ports, g.reverse_ports), start=1):
        mine = paths[v]
        for j, (w, r) in enumerate(zip(nbrs, back), start=1):
            cls = classify_link(mine, paths[w], j, r)
            if cls is PARENT:
                parent[v] = w
            elif cls is CHILD:
                children[v].append(w)
            elif cls is INCOMING_NONTREE:
                incoming_nbrs[v].append(w)

    bridges = frozenset(
        canonical_edge(parent[v], v)
        for v in range(2, g.n + 1)
        if counts[v] == 0
    )

    aps: set[NodeId] = set()
    if len(children[ROOT]) >= 2:
        aps.add(ROOT)
    for v in range(2, g.n + 1):
        for child in children[v]:
            # a child's path is paths[v] plus v's port for it (CHILD rule)
            arrivals = sum(
                1 for l in incoming_nbrs[v] if paths[l].startswith(paths[child])
            )
            if counts[child] == arrivals:
                aps.add(v)
                break

    # bridge-endpoint cross-check: both endpoints of degree >= 2 must already
    # carry the articulation mark; disagreement would mean the two detection
    # rules diverged on a legitimate configuration
    for u, v in bridges:
        for endpoint in (u, v):
            if g.degree(endpoint) >= 2 and endpoint not in aps:
                raise AssertionError(
                    f"bridge endpoint {endpoint} of degree >= 2 escaped the "
                    f"articulation rule"
                )

    component_of = {v: registers[v - 1].bcc for v in range(1, g.n + 1)}
    return DetectionResult(
        bridges=bridges,
        articulation_points=frozenset(aps),
        component_of=component_of,
    )


@dataclass(frozen=True)
class CertificationReport:
    match: bool
    mismatches: tuple[str, ...]


def certify(result: DetectionResult, g: Graph) -> CertificationReport:
    """Compare a detection result against the brute-force oracles."""
    mismatches: list[str] = []

    expected_bridges = frozenset(brute_bridges(g))
    for e in sorted(result.bridges - expected_bridges):
        mismatches.append(f"edge {e} reported as bridge but is not")
    for e in sorted(expected_bridges - result.bridges):
        mismatches.append(f"bridge {e} missed")

    expected_aps = frozenset(brute_articulation_points(g))
    for v in sorted(result.articulation_points - expected_aps):
        mismatches.append(f"node {v} reported as articulation point but is not")
    for v in sorted(expected_aps - result.articulation_points):
        mismatches.append(f"articulation point {v} missed")

    expected_parts = components_without(g, expected_bridges)
    got_parts = result.partition()
    for part in sorted(got_parts - expected_parts, key=min):
        mismatches.append(f"component {sorted(part)} does not match any brute-force component")
    for part in sorted(expected_parts - got_parts, key=min):
        mismatches.append(f"brute-force component {sorted(part)} missed")

    return CertificationReport(match=not mismatches, mismatches=tuple(mismatches))
