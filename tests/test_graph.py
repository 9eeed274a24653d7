import random

import pytest

from stabconn.graph import (
    DisconnectedGraphError,
    DuplicateEdgeError,
    GenerationError,
    Graph,
    GraphParseError,
    NodeRangeError,
    PortAssignmentError,
    SelfLoopError,
    build_graph,
    figure1,
    generate_clustered,
    generate_random_connected,
    parse_graph,
    render_graph,
    search_tree,
    shuffle_ports,
)
from stabconn.oracle import brute_bridges

from reference import diameter as reference_diameter


def test_parse_triangle():
    g = parse_graph("3 3\n1 2\n2 3\n3 1\n")
    assert g.n == 3
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert all(g.degree(v) == 2 for v in (1, 2, 3))


def test_parse_single_edge_forces_ports():
    g = parse_graph("2 1\n1 2\n")
    assert g.port_to(1, 2) == 1
    assert g.port_to(2, 1) == 1


def test_parse_comments_and_blank_lines():
    g = parse_graph("# tiny\n\n2 1  # header\n1 2\n")
    assert g.n == 2 and g.edge_count == 1


def test_default_ports_follow_appearance_order():
    g = parse_graph("3 3\n3 1\n1 2\n2 3\n")
    assert g.neighbors(1) == (3, 2)
    assert g.port_to(1, 3) == 1
    assert g.port_to(1, 2) == 2


def test_explicit_ports_override():
    g = parse_graph("3 3\n1 2\n2 3\n3 1\nports 1: 3 2\n")
    assert g.neighbors(1) == (3, 2)
    assert g.neighbors(2) == (1, 3)


@pytest.mark.parametrize("key", [0, -1, 4])
def test_build_graph_rejects_explicit_ports_outside_node_range(key):
    # 0 and -1 are valid Python indices into the port table, so range is checked explicitly
    with pytest.raises(NodeRangeError):
        build_graph(3, [(1, 2), (2, 3), (3, 1)], {key: (2, 1)})


@pytest.mark.parametrize(
    "text, exc, line",
    [
        ("3 1\n1 2\n", DisconnectedGraphError, None),
        ("2 1\n2 2\n", SelfLoopError, 2),
        ("3 3\n1 2\n2 1\n2 3\n", DuplicateEdgeError, 3),
        ("2 1\n1 5\n", NodeRangeError, 2),
        ("3 3\n1 2\n2 3\n3 1\nports 1: 2 2\n", PortAssignmentError, 5),
        ("3 3\n1 2\n2 3\n3 1\nports 1: 2\n", PortAssignmentError, 5),
        ("nonsense\n", GraphParseError, 1),
        ("2 2\n1 2\n", GraphParseError, None),
        ("", GraphParseError, None),
    ],
)
def test_parse_errors_are_distinct(text, exc, line):
    with pytest.raises(exc) as err:
        parse_graph(text)
    if line is not None:
        assert getattr(err.value, "line", None) == line


@pytest.mark.parametrize(
    "text, exc, line",
    [
        ("3 x\n", GraphParseError, 1),
        ("0 0\n", GraphParseError, 1),
        ("2 -1\n", GraphParseError, 1),
        ("2 1\n1 2\nports 1 2\n", GraphParseError, 3),
        ("2 1\n1 2\nports 1: x\n", GraphParseError, 3),
        ("2 1\n1 2\nports x: 2\n", GraphParseError, 3),
        ("2 1\n1 2\nports 3: 1\n", NodeRangeError, 3),
        ("2 1\n1 2\nports 1: 2\nports 1: 2\n", GraphParseError, 4),
        ("2 1\n1 2 3\n", GraphParseError, 2),
        ("2 1\n1\n", GraphParseError, 2),
        ("# comment\n2 1\n\n1 x\n", GraphParseError, 4),
    ],
    ids=[
        "header-integers", "header-n", "header-m", "ports-colon", "ports-list-integers",
        "ports-node-integer", "ports-node-range", "ports-duplicate", "edge-three-tokens",
        "edge-one-token", "edge-integers",
    ],
)
def test_parse_graph_names_the_line_of_each_error(text, exc, line):
    with pytest.raises(GraphParseError) as err:
        parse_graph(text)
    assert type(err.value) is exc
    assert err.value.line == line


def test_figure1_shape():
    g = figure1()
    assert g.n == 16
    assert g.edge_count == 20
    assert g.max_degree == 4
    assert g.degree(11) == 4


def test_roundtrip_fixture_graphs(fig1, triangle, single_edge):
    for g in (fig1, triangle, single_edge):
        assert parse_graph(render_graph(g)) == g


def test_roundtrip_generated():
    for seed in range(8):
        g = generate_random_connected(9, 4, seed)
        assert parse_graph(render_graph(g)) == g
        c = generate_clustered(3, 4, seed)
        assert parse_graph(render_graph(c)) == c


def test_generate_single_node():
    g = generate_random_connected(1, 0, 5)
    assert g.n == 1 and g.edge_count == 0


def test_generate_tree_is_all_bridges():
    g = generate_random_connected(5, 0, 11)
    assert brute_bridges(g) == set(g.edges)
    assert g.edge_count == 4


def test_generate_with_chords():
    g = generate_random_connected(6, 3, 17)
    assert g.edge_count == 8
    g.validate()


def test_generate_deterministic():
    assert generate_random_connected(12, 5, 3) == generate_random_connected(12, 5, 3)
    assert generate_clustered(4, 3, 9) == generate_clustered(4, 3, 9)


def test_generate_seed_changes_graph():
    assert generate_random_connected(12, 5, 3) != generate_random_connected(12, 5, 4)


def test_generate_infeasible():
    with pytest.raises(GenerationError):
        generate_random_connected(3, 2, 0)
    with pytest.raises(GenerationError):
        generate_random_connected(0, 0, 0)
    with pytest.raises(GenerationError):
        generate_random_connected(3, -1, 0)
    with pytest.raises(GenerationError):
        generate_clustered(2, 2, 0)
    with pytest.raises(GenerationError):
        generate_clustered(0, 3, 0)


def test_clustered_bridge_counts():
    assert brute_bridges(generate_clustered(1, 3, 2)) == set()
    assert len(brute_bridges(generate_clustered(2, 3, 2))) == 1
    assert len(brute_bridges(generate_clustered(5, 3, 2))) == 4
    assert len(brute_bridges(generate_clustered(5, 4, 7))) == 4


def test_generated_graphs_satisfy_invariants():
    rng = random.Random(0)
    for _ in range(20):
        n = rng.randint(1, 25)
        cap = n * (n - 1) // 2 - (n - 1)
        g = generate_random_connected(n, rng.randint(0, min(5, cap)), rng.randint(0, 999))
        g.validate()
    for _ in range(10):
        g = generate_clustered(rng.randint(1, 6), rng.randint(3, 6), rng.randint(0, 999))
        g.validate()


def test_validate_rejects_bad_hand_built():
    with pytest.raises(PortAssignmentError):
        Graph(n=2, edges=((1, 2),), ports=((2,), ())).validate()
    with pytest.raises(DisconnectedGraphError):
        build_graph(4, [(1, 2), (3, 4)])


def test_search_tree_leaves_0_for_a_missed_node_and_validate_names_it():
    g = Graph(n=5, edges=((1, 2), (2, 3), (4, 5)), ports=((2,), (1, 3), (2,), (5,), (4,)))
    assert search_tree(g) == [0, 0, 1, 2, 0, 0]
    with pytest.raises(DisconnectedGraphError, match=r"unreachable nodes: \[4, 5\]$"):
        g.validate()
    assert search_tree(Graph(n=0, edges=())) == [0]


@pytest.mark.parametrize(
    "graph, exc",
    [
        (Graph(n=0, edges=(), ports=()), GraphParseError),
        (Graph(n=2, edges=((1, 2),), ports=((2,),)), PortAssignmentError),
        (Graph(n=2, edges=((1, 3),), ports=((2,), (1,))), NodeRangeError),
        (Graph(n=2, edges=((1, 1),), ports=((), ())), SelfLoopError),
        (Graph(n=2, edges=((1, 2), (2, 1)), ports=((2,), (1,))), DuplicateEdgeError),
    ],
    ids=["node-count", "port-lists", "edge-range", "self-loop", "duplicate"],
)
def test_validate_checks_what_parse_graph_checks_first(graph, exc):
    # parse_graph rejects these before it builds a Graph, so only a
    # hand-built one reaches validate's own checks
    with pytest.raises(GraphParseError) as err:
        graph.validate()
    assert type(err.value) is exc


def test_shuffle_ports_keeps_topology():
    g = figure1()
    s = shuffle_ports(g, 71)
    assert s.edges == g.edges
    assert all(s.degree(v) == g.degree(v) for v in range(1, 17))
    assert all(set(s.neighbors(v)) == set(g.neighbors(v)) for v in range(1, 17))
    assert shuffle_ports(g, 71) == s
    assert any(s.neighbors(v) != g.neighbors(v) for v in range(1, 17))


@pytest.mark.parametrize(
    "g",
    [
        figure1(),
        shuffle_ports(figure1(), 71),
        generate_random_connected(12, 9, seed=4),
        shuffle_ports(generate_random_connected(12, 9, seed=4), 2),
        generate_clustered(3, 4, seed=5),
        shuffle_ports(generate_clustered(3, 4, seed=5), 6),
        generate_random_connected(1, 0, seed=0),
    ],
    ids=["figure1", "figure1-shuffled", "random", "random-shuffled",
         "clustered", "clustered-shuffled", "single"],
)
def test_reverse_ports_is_port_to_from_the_other_side(g):
    from stabconn.protocol import node_program

    for v in range(1, g.n + 1):
        row = g.reverse_ports[v - 1]
        # row[j - 1] is the port the neighbour on v's port j uses for v
        assert row == tuple(g.port_to(w, v) for w in g.ports[v - 1])
        assert node_program(g, v).reverse_ports is row


def test_diameter_matches_reference():
    def path(n):
        return build_graph(n, [(v, v + 1) for v in range(1, n)])

    def cycle(n):
        return build_graph(n, [(v, v + 1) for v in range(1, n)] + [(1, n)])

    def star(n):
        return build_graph(n, [(1, v) for v in range(2, n + 1)])

    def unvalidated(n, edges):
        ports = [[] for _ in range(n)]
        for u, v in edges:
            ports[u - 1].append(v)
            ports[v - 1].append(u)
        return Graph(n, tuple(edges), tuple(map(tuple, ports)))

    known = [(path(1), 0), (path(2), 1), (figure1(), 7), (Graph(1, (), ((),)), 0)]
    known += [(path(n), n - 1) for n in (3, 4, 9)]
    known += [(cycle(n), n // 2) for n in (3, 4, 7, 10)]
    known += [(star(n), 2) for n in (3, 5, 8)]
    # disconnected: the largest eccentricity within a component
    known += [
        (unvalidated(3, []), 0),
        (unvalidated(7, [(1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]), 3),
        (unvalidated(8, [(1, 2), (3, 4), (4, 5), (5, 3), (7, 8)]), 1),
        (unvalidated(6, [(2, 3), (3, 4), (4, 5), (5, 6)]), 4),
    ]
    for g, d in known:
        assert g.diameter == reference_diameter(g) == d, g
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 40)
        cap = n * (n - 1) // 2 - (n - 1)
        g = generate_random_connected(n, rng.randint(0, min(2 * n, cap)), rng.randint(0, 999))
        assert g.diameter == reference_diameter(g), g
    for _ in range(15):
        g = generate_clustered(rng.randint(1, 6), rng.randint(3, 6), rng.randint(0, 999))
        assert g.diameter == reference_diameter(g), g
