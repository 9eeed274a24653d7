import random

import pytest

from stabconn.analysis import (
    DetectionResult,
    NotStabilizedError,
    certify,
    extract,
)
from stabconn.cli import parse_generate_spec
from stabconn.graph import build_graph, canonical_edge, generate_clustered, generate_random_connected, shuffle_ports
from stabconn.oracle import brute_bcc_partition, ground_truth
from stabconn.protocol import BOTTOM
from stabconn.simulator import init_arbitrary, make_scheduler, run

from reference import alpha_independence, lex_compare, path_of

FIG1_BRIDGES = frozenset({(1, 4), (5, 6), (10, 11), (11, 14)})
FIG1_APS = frozenset({1, 4, 5, 6, 10, 11, 14})


def run_to_stabilization(g, seed=0, scheduler="round-robin"):
    _, report = run(g, make_scheduler(scheduler, seed=seed), init_arbitrary(g, seed))
    assert report.stabilized, "run failed to stabilize"
    return report


def test_extract_figure1_from_simulation(fig1):
    report = run_to_stabilization(fig1, seed=4)
    d = report.detection
    assert d.bridges == FIG1_BRIDGES
    assert d.articulation_points == FIG1_APS
    assert 2 not in d.articulation_points
    assert d.partition() == {
        frozenset({1, 2, 3}),
        frozenset({4, 5, 10}),
        frozenset({6, 7, 8, 9}),
        frozenset({11, 12, 13}),
        frozenset({14, 15, 16}),
    }


def test_extract_refuses_garbage(fig1):
    gt = ground_truth(fig1)
    conf = init_arbitrary(fig1, 3)
    with pytest.raises(NotStabilizedError):
        extract(fig1, conf.registers(), gt=gt)


def test_extract_on_oracle_configuration(triangle, single_edge, star4):
    for g in (triangle, single_edge, star4):
        gt = ground_truth(g)
        d = extract(g, gt.registers, gt=gt)
        assert certify(d, g).match


def test_certify_triangle(triangle):
    gt = ground_truth(triangle)
    d = extract(triangle, gt.registers, gt=gt)
    assert d.bridges == frozenset()
    assert d.articulation_points == frozenset()
    assert d.partition() == {frozenset({1, 2, 3})}
    report = certify(d, triangle)
    assert report.match and report.mismatches == ()


def test_certify_reports_planted_mismatches(triangle):
    bogus = DetectionResult(
        bridges=frozenset({(1, 2)}),
        articulation_points=frozenset({3}),
        component_of={1: path_of(BOTTOM), 2: path_of(BOTTOM), 3: path_of(BOTTOM, 1)},
    )
    report = certify(bogus, triangle)
    assert not report.match
    assert report.mismatches == (
        "edge (1, 2) reported as bridge but is not",
        "node 3 reported as articulation point but is not",
        "component [1, 2] does not match any brute-force component",
        "component [3] does not match any brute-force component",
        "brute-force component [1, 2, 3] missed",
    )


def test_certify_reports_what_an_empty_result_misses(path3):
    empty = DetectionResult(bridges=frozenset(), articulation_points=frozenset(), component_of={})
    report = certify(empty, path3)
    assert not report.match
    assert report.mismatches == (
        "bridge (1, 2) missed",
        "bridge (2, 3) missed",
        "articulation point 2 missed",
        "brute-force component [1] missed",
        "brute-force component [2] missed",
        "brute-force component [3] missed",
    )


def test_certified_random_sample():
    rng = random.Random(17)
    for i in range(20):
        if i % 2:
            g = generate_clustered(rng.randint(1, 5), rng.randint(3, 5), i)
        else:
            n = rng.randint(3, 20)
            cap = n * (n - 1) // 2 - (n - 1)
            g = generate_random_connected(n, rng.randint(0, min(4, cap)), i)
        report = run_to_stabilization(g, seed=i, scheduler=("random", "weighted")[i % 2])
        cert = certify(report.detection, g)
        assert cert.match, cert.mismatches


def test_labels_are_lexmin_paths_of_components():
    rng = random.Random(5)
    for i in range(10):
        g = generate_clustered(rng.randint(2, 5), rng.randint(3, 4), 100 + i)
        gt = ground_truth(g)
        d = extract(g, gt.registers, gt=gt)
        for part in brute_bcc_partition(g):
            labels = {d.component_of[v] for v in part}
            assert len(labels) == 1
            label = labels.pop()
            assert label == min((gt.paths[v] for v in part), key=lambda p: tuple(p))
            assert all(lex_compare(label, gt.paths[v]) <= 0 for v in part)


def test_alpha_independence_examples(fig1, triangle):
    assert alpha_independence(fig1, 5, seed=3)
    assert alpha_independence(triangle, 3, seed=1)
    tree = generate_random_connected(7, 0, 2)
    assert alpha_independence(tree, 3, seed=4)


def test_alpha_independence_requires_two(fig1):
    with pytest.raises(ValueError):
        alpha_independence(fig1, 1, seed=0)


def test_partition_invariant_under_port_shuffles(fig1):
    reference = None
    for k in range(5):
        g = shuffle_ports(fig1, 50 + k)
        report = run_to_stabilization(g, seed=k)
        d = report.detection
        key = (d.bridges, d.articulation_points, frozenset(d.partition()))
        if reference is None:
            reference = key
        assert key == reference


def test_certify_runs_each_single_removal_once(fig1, monkeypatch):
    # certify tests single removals along a spanning tree of its own: each
    # tree edge, and each node of tree degree >= 2, exactly once, by the
    # local test; the whole-graph search is left to disconnected graphs
    from stabconn import oracle

    calls = []
    real = oracle._disconnects

    def recording(g, node=0, edge=(0, 0)):
        calls.append(((node,), ()) if node else ((), (canonical_edge(*edge),)))
        return real(g, node, edge)

    def whole_graph(*args, **kwargs):
        raise AssertionError("a connected graph needs no whole-graph search")

    detection = extract(fig1, ground_truth(fig1).registers)
    monkeypatch.setattr(oracle, "_disconnects", recording)
    monkeypatch.setattr(oracle, "is_connected", whole_graph)
    assert certify(detection, fig1).match

    assert all(len(nodes) + len(edges) == 1 for nodes, edges in calls)
    assert len(set(calls)) == len(calls)
    tested_nodes = {v for nodes, _ in calls for v in nodes}
    tested_edges = [e for _, edges in calls for e in edges]
    assert set(tested_edges) <= set(fig1.edges)
    assert len(tested_edges) == fig1.n - 1
    tree = build_graph(fig1.n, tested_edges)  # raises unless they connect all n nodes
    for v in range(1, fig1.n + 1):
        if v not in tested_nodes:
            assert tree.degree(v) <= 1
    assert len(calls) < fig1.edge_count + fig1.n


@pytest.mark.parametrize("spec", ["figure1", "random:12,18"])
def test_certify_needs_no_ground_truth(spec, monkeypatch):
    # the brute-force route shares no code with the DFS-based ground truth
    from stabconn import oracle

    g = parse_generate_spec(spec, 0)
    detection = extract(g, ground_truth(g).registers)

    def forbidden(*args, **kwargs):
        raise AssertionError("the certifier must not use the ground-truth oracle")

    monkeypatch.setattr(oracle, "first_dfs", forbidden)
    monkeypatch.setattr(oracle, "ground_truth", forbidden)
    assert certify(detection, g).match
