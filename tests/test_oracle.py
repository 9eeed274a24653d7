import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies

from stabconn.graph import (
    Graph,
    build_graph,
    canonical_edge,
    generate_clustered,
    generate_random_connected,
    parse_graph,
    shuffle_ports,
)
from stabconn.oracle import (
    _disconnects,
    brute_articulation_points,
    brute_bcc_partition,
    brute_bridges,
    first_dfs,
    ground_truth,
    is_connected,
)
from stabconn.protocol import BOTTOM

from reference import children, classify_counts, lex_compare, path_of, representatives, symbols_of

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


# Robustness: ids outside 1..n and pairs that are no edge remove nothing.
# Expected values are what a plain set-based search gives.
_PATH4 = build_graph(4, [(1, 2), (2, 3), (3, 4)])
_STAR_AT_N = build_graph(3, [(1, 3), (2, 3)])


@pytest.mark.parametrize(
    "g, nodes, edges, expected",
    [
        (_PATH4, [0], [], True),
        (_PATH4, [-1], [], True),
        (_PATH4, [5], [], True),
        (_PATH4, [2, 0], [], False),
        (_PATH4, [2, -1], [], False),
        (_PATH4, [2, 5], [], False),
        (_PATH4, [3, -1, 0, 5], [], False),
        (_PATH4, [1, 1], [], True),
        (_PATH4, [2, 2], [], False),
        (_PATH4, [4, 4, 1, 1], [], True),
        (_STAR_AT_N, [-1], [], True),
        (_STAR_AT_N, [3, 3], [], False),
        (_STAR_AT_N, [1, 2, 2], [], True),
        (_PATH4, [], [(1, 3)], True),
        (_PATH4, [], [(1, 4), (4, 1)], True),
        (_PATH4, [], [(0, 9), (5, 6)], True),
        (_PATH4, [], [(1, 3), (3, 2)], False),
        (_PATH4, [], [(3, 2), (3, 2)], False),
        (_PATH4, [1], [(2, 3)], False),
        (_PATH4, [1, -1], [(1, 2), (1, 4)], True),
    ],
)
def test_is_connected_ignores_ids_that_name_nothing(g, nodes, edges, expected):
    assert is_connected(g, removed_nodes=nodes, removed_edges=edges) is expected


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


def test_brute_force_agrees_with_networkx():
    # a third, independent oracle; connected graphs only, since on a
    # disconnected graph the brute-force oracles deliberately call every
    # edge and node a cut
    for g in sample_graphs(300, seed=7):
        h = nx.Graph(g.edges)
        bridges = {canonical_edge(u, v) for u, v in nx.bridges(h)}
        assert brute_bridges(g) == bridges, g
        assert brute_articulation_points(g) == set(nx.articulation_points(h)), g
        h.remove_edges_from(bridges)
        assert brute_bcc_partition(g) == {frozenset(c) for c in nx.connected_components(h)}, g


# ---------------------------------------------------------------------------
# first DFS paths

def test_first_paths_single_edge(single_edge):
    assert first_dfs(single_edge)[0] == {1: path_of(BOTTOM), 2: path_of(BOTTOM, 1)}


def test_first_paths_triangle_hand_simulated(triangle):
    # root descends port 1 to node 2; node 2 lists node 3 at port 2
    paths = first_dfs(triangle)[0]
    assert paths[2] == path_of(BOTTOM, 1)
    assert paths[3] == path_of(BOTTOM, 1, 2)


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
    assert {v: symbols_of(p) for v, p in first_dfs(g)[0].items()} == _all_simple_paths_lexmin(g)


def test_paths_extend_parent_by_parent_port(fig1):
    paths, parent = first_dfs(fig1)
    for v, p in parent.items():
        assert paths[v] == paths[p] + path_of(fig1.port_to(p, v))
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
    kids = children(gt)
    for v in range(2, g.n + 1):
        n_in, n_out = classify_counts(g, gt, v)
        total = sum(gt.counts[c] for c in kids[v]) - n_in + n_out
        assert gt.counts[v] == total


def test_incoming_split_sums_to_node_incoming(fig1):
    # every incoming non-tree edge arrives from exactly one child subtree
    gt = ground_truth(fig1)
    kids = children(gt)
    for v in range(1, 17):
        n_in, _ = classify_counts(fig1, gt, v)
        # neighbours deeper than v that are not its children
        ends = [w for w in fig1.neighbors(v) if len(gt.paths[w]) > len(gt.paths[v]) + 1]
        assert n_in == sum(gt.paths[w].startswith(gt.paths[c]) for c in kids[v] for w in ends)


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
        reps = representatives(gt)
        for part in brute_bcc_partition(g):
            rep = min(part, key=lambda v: tuple(gt.paths[v]))
            assert rep in reps
            assert {v for v in part if v in reps} == {rep}
            for v in part:
                assert gt.bcc_labels[v] == gt.paths[rep]


def test_root_count_is_zero(fig1):
    gt = ground_truth(fig1)
    assert gt.counts[1] == 0
    assert gt.paths[1] == path_of(BOTTOM)
    assert gt.bcc_labels[1] == path_of(BOTTOM)


def test_single_node_ground_truth():
    g = parse_graph("1 0\n")
    gt = ground_truth(g)
    assert gt.bridges == frozenset()
    assert gt.articulation_points == frozenset()
    assert gt.partition == {frozenset({1})}


# ---------------------------------------------------------------------------
# brute force against the every-candidate definition

def _reference_connected(g, dead_nodes=(), dead_edge=None):
    alive = [v for v in range(1, g.n + 1) if v not in dead_nodes]
    if len(alive) <= 1:
        return True
    reached = {alive[0]}
    frontier = [alive[0]]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors(v):
            if w in dead_nodes or canonical_edge(v, w) == dead_edge or w in reached:
                continue
            reached.add(w)
            frontier.append(w)
    return len(reached) == len(alive)


def reference_bridges(g):
    """Every edge whose single removal disconnects the graph."""
    return {e for e in g.edges if not _reference_connected(g, dead_edge=e)}


def reference_articulation_points(g):
    """Every node whose single removal disconnects the remaining nodes."""
    return {v for v in range(1, g.n + 1) if not _reference_connected(g, dead_nodes={v})}


def reference_partition(g):
    bridges = reference_bridges(g)
    label = {}
    for start in range(1, g.n + 1):
        if start in label:
            continue
        label[start] = start
        frontier = [start]
        while frontier:
            v = frontier.pop()
            for w in g.neighbors(v):
                if w not in label and canonical_edge(v, w) not in bridges:
                    label[w] = start
                    frontier.append(w)
    groups = {}
    for v, root in label.items():
        groups.setdefault(root, set()).add(v)
    return {frozenset(vs) for vs in groups.values()}


def assert_brute_matches_reference(g):
    assert brute_bridges(g) == reference_bridges(g), g
    assert brute_articulation_points(g) == reference_articulation_points(g), g
    assert brute_bcc_partition(g) == reference_partition(g), g


@strategies.composite
def generated_graphs(draw):
    seed = draw(strategies.integers(0, 10**6))
    if draw(strategies.booleans()):
        n = draw(strategies.integers(1, 40))
        cap = n * (n - 1) // 2 - (n - 1)
        g = generate_random_connected(n, draw(strategies.integers(0, min(2 * n, cap))), seed)
    else:
        k = draw(strategies.integers(1, 8))
        g = generate_clustered(k, draw(strategies.integers(3, 40 // k)), seed)
    if draw(strategies.booleans()):
        g = shuffle_ports(g, draw(strategies.integers(0, 10**6)))
    return g


@strategies.composite
def family_graphs(draw):
    family = draw(strategies.sampled_from(["path", "cycle", "star"]))
    n = draw(strategies.integers(3 if family == "cycle" else 1, 40))
    if family == "path":
        edges = [(v, v + 1) for v in range(1, n)]
    elif family == "cycle":
        edges = [(v, v % n + 1) for v in range(1, n + 1)]
    else:
        edges = [(1, v) for v in range(2, n + 1)]
    label = draw(strategies.permutations(range(1, n + 1)))  # node v becomes label[v - 1]
    return build_graph(n, [(label[u - 1], label[v - 1]) for u, v in edges])


@strategies.composite
def disconnected_graphs(draw):
    """Unvalidated graphs whose edges never cross a random split of the nodes."""
    n = draw(strategies.integers(2, 16))
    side = draw(strategies.lists(strategies.booleans(), min_size=n, max_size=n))
    side[draw(strategies.integers(1, n - 1))] = not side[0]  # both sides non-empty
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if side[u - 1] == side[v - 1]]
    edges = sorted(draw(strategies.sets(strategies.sampled_from(pairs), max_size=3 * n)) if pairs else [])
    ports = [[] for _ in range(n)]
    for u, v in draw(strategies.permutations(edges)):
        ports[u - 1].append(v)
        ports[v - 1].append(u)
    return Graph(n=n, edges=tuple(edges), ports=tuple(tuple(p) for p in ports))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(generated_graphs())
def test_brute_force_matches_reference_on_generated_graphs(g):
    assert_brute_matches_reference(g)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(family_graphs())
def test_brute_force_matches_reference_on_families(g):
    assert_brute_matches_reference(g)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(disconnected_graphs())
def test_brute_force_matches_reference_on_disconnected_graphs(g):
    assert not _reference_connected(g)
    assert_brute_matches_reference(g)


@strategies.composite
def clique_graphs(draw):
    """A complete graph, or two cliques joined by a path: many terminals at
    one node and sides of very different sizes."""
    a = draw(strategies.integers(1, 12))
    edges = [(u, v) for u in range(1, a + 1) for v in range(u + 1, a + 1)]
    n = a
    if draw(strategies.booleans()):
        b = draw(strategies.integers(1, 12))
        length = draw(strategies.integers(1, 4))  # edges on the joining path
        path = [draw(strategies.integers(1, a))] + list(range(a + 1, a + length))
        n = a + length - 1 + b
        path.append(draw(strategies.integers(a + length, n)))
        edges += list(zip(path, path[1:]))
        edges += [(u, v) for u in range(a + length, n + 1) for v in range(u + 1, n + 1)]
    label = draw(strategies.permutations(range(1, n + 1)))  # node v becomes label[v - 1]
    g = build_graph(n, [(label[u - 1], label[v - 1]) for u, v in edges])
    return shuffle_ports(g, draw(strategies.integers(0, 10**6)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(strategies.one_of(generated_graphs(), family_graphs(), clique_graphs()))
def test_local_removal_test_agrees_with_whole_graph_search(g):
    # every node and every edge, not only the candidates the oracles test
    for v in range(1, g.n + 1):
        assert _disconnects(g, node=v) == (not is_connected(g, removed_nodes=[v])), (g, v)
    for e in g.edges:
        assert _disconnects(g, edge=e) == (not is_connected(g, removed_edges=[e])), (g, e)
