import random

import pytest

from stabconn.graph import build_graph, canonical_edge, generate_clustered, generate_random_connected, parse_graph
from stabconn.oracle import (
    brute_articulation_points,
    brute_bcc_partition,
    brute_bridges,
    classify_counts,
    first_dfs,
    ground_truth,
    is_connected,
)
from stabconn.protocol import BOTTOM, is_prefix, lex_compare

FIG1_BRIDGES = {(1, 4), (5, 6), (10, 11), (11, 14)}
FIG1_APS = {1, 4, 5, 6, 10, 11, 14}
FIG1_PARTS = {
    frozenset({1, 2, 3}),
    frozenset({4, 5, 10}),
    frozenset({6, 7, 8, 9}),
    frozenset({11, 12, 13}),
    frozenset({14, 15, 16}),
}


def sample_graphs(count, max_n=40, seed=123):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        if i % 3 == 2:
            out.append(generate_clustered(rng.randint(1, 6), rng.randint(3, 5), i))
        else:
            n = rng.randint(2, max_n)
            cap = n * (n - 1) // 2 - (n - 1)
            out.append(generate_random_connected(n, rng.randint(0, min(n, cap)), i))
    return out


# ---------------------------------------------------------------------------
# connectivity probes

def test_is_connected_trivial(triangle, path3):
    assert is_connected(triangle, removed_edges=[(1, 2)])
    assert not is_connected(path3, removed_nodes=[2])


def test_is_connected_vacuous(single_edge):
    assert is_connected(single_edge, removed_nodes=[1])


def test_figure1_bridge_removal_disconnects(fig1):
    assert not is_connected(fig1, removed_edges=[(1, 4)])


def test_brute_bridges(triangle, path3, fig1):
    assert brute_bridges(triangle) == set()
    assert brute_bridges(path3) == {(1, 2), (2, 3)}
    assert brute_bridges(fig1) == FIG1_BRIDGES


def test_brute_articulation_points(triangle, star4, fig1):
    assert brute_articulation_points(triangle) == set()
    assert brute_articulation_points(star4) == {1}
    assert brute_articulation_points(fig1) == FIG1_APS


def test_brute_partition(triangle, path3, fig1):
    assert brute_bcc_partition(triangle) == {frozenset({1, 2, 3})}
    assert brute_bcc_partition(path3) == {frozenset({1}), frozenset({2}), frozenset({3})}
    assert brute_bcc_partition(fig1) == FIG1_PARTS


# ---------------------------------------------------------------------------
# first DFS paths

def test_first_paths_single_edge(single_edge):
    assert first_dfs(single_edge)[0] == {1: (BOTTOM,), 2: (BOTTOM, 1)}


def test_first_paths_triangle_hand_simulated(triangle):
    # root descends port 1 to node 2; node 2 lists node 3 at port 2
    paths = first_dfs(triangle)[0]
    assert paths[2] == (BOTTOM, 1)
    assert paths[3] == (BOTTOM, 1, 2)


def _all_simple_paths_lexmin(g):
    """Independent oracle: enumerate every simple root path and take the
    lexicographic minimum of the port-sequence encodings per node."""
    best = {1: (BOTTOM,)}

    def walk(v, visited, encoding):
        for j, w in enumerate(g.neighbors(v), start=1):
            if w in visited:
                continue
            enc = encoding + (j,)
            if w not in best or lex_compare(enc, best[w]) < 0:
                best[w] = enc
            walk(w, visited | {w}, enc)

    walk(1, {1}, (BOTTOM,))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_first_paths_equal_enumeration_minimum(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    cap = n * (n - 1) // 2 - (n - 1)
    g = generate_random_connected(n, rng.randint(0, cap), seed)
    assert first_dfs(g)[0] == _all_simple_paths_lexmin(g)


def test_paths_extend_parent_by_parent_port(fig1):
    paths, parent = first_dfs(fig1)
    for v, p in parent.items():
        assert paths[v] == paths[p] + (fig1.port_to(p, v),)
    assert max(len(path) for path in paths.values()) <= fig1.n


# ---------------------------------------------------------------------------
# bypass counts

def test_bypass_leaf_with_two_ancestor_edges():
    # chain 1-2-3-4 plus chords 4-1 and 4-2: the deepest node has two
    # outgoing non-tree edges to proper ancestors
    g = build_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 2)])
    gt = ground_truth(g)
    n_in, n_out = classify_counts(g, gt, 4)
    assert (n_in, n_out) == (0, 2)
    assert gt.counts[4] == 2


def test_bypass_zero_across_bridge(path3):
    gt = ground_truth(path3)
    assert gt.counts[2] == 0
    assert gt.counts[3] == 0


@pytest.mark.parametrize("gi", range(10))
def test_count_recursion_identity(gi):
    g = sample_graphs(10, seed=77)[gi]
    gt = ground_truth(g)
    for v in range(2, g.n + 1):
        n_in, n_out = classify_counts(g, gt, v)
        total = sum(gt.counts[c] for c in gt.children[v]) - n_in + n_out
        assert gt.counts[v] == total


def test_incoming_split_sums_to_node_incoming(fig1):
    # every incoming non-tree edge arrives from exactly one child subtree
    gt = ground_truth(fig1)
    for v in range(1, 17):
        n_in, _ = classify_counts(fig1, gt, v)
        # neighbours deeper than v that are not its children
        ends = [w for w in fig1.neighbors(v) if len(gt.paths[w]) > len(gt.paths[v]) + 1]
        assert n_in == sum(is_prefix(gt.paths[c], gt.paths[w]) for c in gt.children[v] for w in ends)


# ---------------------------------------------------------------------------
# assembled ground truth

def test_ground_truth_figure1(fig1):
    gt = ground_truth(fig1)
    assert {v for v in range(2, 17) if gt.counts[v] == 0} == {4, 6, 11, 14}
    assert gt.bridges == FIG1_BRIDGES
    assert gt.articulation_points == FIG1_APS
    assert gt.partition == FIG1_PARTS


def test_ground_truth_matches_brute_everywhere():
    large = [
        generate_random_connected(160, 160, 0),  # random:160,319
        build_graph(120, [(v, v % 120 + 1) for v in range(1, 121)]),  # DFS tree is a path
        generate_clustered(8, 20, 0),
    ]
    for g in sample_graphs(25) + large:
        gt = ground_truth(g)
        assert gt.bridges == brute_bridges(g), g
        assert gt.articulation_points == brute_articulation_points(g), g
        assert gt.partition == brute_bcc_partition(g), g


def test_every_bridge_is_a_tree_edge():
    for g in sample_graphs(12, seed=5):
        tree = {canonical_edge(p, v) for v, p in ground_truth(g).parent.items()}
        assert brute_bridges(g) <= tree


def test_bridge_endpoints_are_articulation_points_unless_leaves():
    for g in sample_graphs(12, seed=9):
        aps = brute_articulation_points(g)
        for u, v in brute_bridges(g):
            for endpoint in (u, v):
                assert (g.degree(endpoint) == 1) or (endpoint in aps)


def test_representatives_are_lexmin_of_components():
    for g in sample_graphs(12, seed=31):
        gt = ground_truth(g)
        for part in brute_bcc_partition(g):
            rep = min(part, key=lambda v: tuple(gt.paths[v]))
            assert rep in gt.representatives
            assert {v for v in part if v in gt.representatives} == {rep}
            for v in part:
                assert gt.bcc_labels[v] == gt.paths[rep]


def test_root_count_is_zero(fig1):
    gt = ground_truth(fig1)
    assert gt.counts[1] == 0
    assert gt.paths[1] == (BOTTOM,)
    assert gt.bcc_labels[1] == (BOTTOM,)


def test_single_node_ground_truth():
    g = parse_graph("1 0\n")
    gt = ground_truth(g)
    assert gt.bridges == frozenset()
    assert gt.articulation_points == frozenset()
    assert gt.partition == {frozenset({1})}
