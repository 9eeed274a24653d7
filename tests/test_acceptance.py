"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random
import time
from dataclasses import dataclass

import pytest

from stabconn.analysis import certify
from stabconn.graph import (
    Graph,
    figure1,
    generate_clustered,
    generate_random_connected,
)
from stabconn.oracle import (
    GroundTruth,
    brute_articulation_points,
    brute_bcc_partition,
    brute_bridges,
    ground_truth,
)
from stabconn.protocol import payload_bits
from stabconn.simulator import (
    FaultSpec,
    RunReport,
    init_arbitrary,
    make_scheduler,
    run,
)

from reference import alpha_independence, children, classify_counts, stabilized_configuration

SCHEDULERS = ("round-robin", "random", "weighted")

FIG1_BRIDGES = frozenset({(1, 4), (5, 6), (10, 11), (11, 14)})
FIG1_APS = frozenset({1, 4, 5, 6, 10, 11, 14})
FIG1_PARTS = {
    frozenset({1, 2, 3}),
    frozenset({4, 5, 10}),
    frozenset({6, 7, 8, 9}),
    frozenset({11, 12, 13}),
    frozenset({14, 15, 16}),
}


def _pass(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


@dataclass
class SweepRun:
    graph: Graph
    gt: GroundTruth
    report: RunReport
    scheduler: str


@pytest.fixture(scope="module")
def sweep():
    """200 instances: random graphs with n in [3, 40] and clustered graphs
    up to 8x5, scheduler strategies cycled, random initial states."""
    rng = random.Random(20240601)
    runs = []
    for i in range(200):
        if i % 2 == 0:
            n = rng.randint(3, 40)
            cap = n * (n - 1) // 2 - (n - 1)
            g = generate_random_connected(n, rng.randint(0, min(n, cap)), seed=10_000 + i)
        else:
            g = generate_clustered(rng.randint(1, 8), rng.randint(3, 5), seed=20_000 + i)
        sched_name = SCHEDULERS[i % 3]
        scheduler = make_scheduler(sched_name, seed=30_000 + i)
        gt = ground_truth(g)
        _, report = run(g, scheduler, init_arbitrary(g, 40_000 + i), gt=gt)
        runs.append(SweepRun(graph=g, gt=gt, report=report, scheduler=sched_name))
    return runs


def test_acceptance_1_paper_example_reproduction():
    g = figure1()
    t0 = time.perf_counter()
    gt = ground_truth(g)
    _, report = run(g, make_scheduler("round-robin"), init_arbitrary(g, 0), gt=gt)
    elapsed = time.perf_counter() - t0
    assert report.stabilized
    d = report.detection
    assert d.bridges == FIG1_BRIDGES
    assert d.articulation_points == FIG1_APS
    assert d.partition() == FIG1_PARTS
    for v in (4, 6, 11, 14):
        assert report.final_registers[v - 1].count == 0
    assert elapsed < 1.0
    _pass(1, f"figure-1 bridges/APs/components exact, counts 0 at 4,6,11,14 ({elapsed:.3f}s)")


def test_acceptance_2_oracle_equivalence_sweep(sweep):
    assert len(sweep) == 200
    assert {r.scheduler for r in sweep} == set(SCHEDULERS)
    for r in sweep:
        assert r.report.stabilized, f"n={r.graph.n} did not stabilize"
        d = r.report.detection
        assert d.bridges == frozenset(brute_bridges(r.graph))
        assert d.articulation_points == frozenset(brute_articulation_points(r.graph))
        assert d.partition() == brute_bcc_partition(r.graph)
        assert certify(d, r.graph).match
    _pass(2, "200/200 runs stabilized and matched brute-force oracles exactly")


def test_acceptance_3_count_identity(sweep):
    checked = 0
    for r in sweep:
        g, gt = r.graph, r.gt
        regs = r.report.final_registers
        kids = children(gt)
        assert regs[0].count == 0
        for v in range(2, g.n + 1):
            assert regs[v - 1].count == gt.counts[v]
            n_in, n_out = classify_counts(g, gt, v)
            total = sum(regs[c - 1].count for c in kids[v]) - n_in + n_out
            assert regs[v - 1].count == total
            checked += 1
    _pass(3, f"register counts equal oracle bypass counts; recursion exact at {checked} nodes")


def test_acceptance_4_representatives_and_labels(sweep):
    for r in sweep:
        g, gt = r.graph, r.gt
        regs = r.report.final_registers
        expected_reps = set()
        for part in brute_bcc_partition(g):
            rep = min(part, key=lambda v: tuple(gt.paths[v]))
            expected_reps.add(rep)
            label = gt.paths[rep]
            for v in part:
                assert regs[v - 1].bcc == label
        nonroot_zero = {v for v in range(2, g.n + 1) if regs[v - 1].count == 0}
        assert nonroot_zero | {1} == expected_reps
    _pass(4, "count 0 exactly at each component's minimal node; labels equal its path")


def test_acceptance_5_round_bound(sweep):
    worst = 0.0
    for r in sweep:
        g = r.graph
        bound = 10 * max(1, g.diameter) * g.n * max(1, g.max_degree)
        assert r.report.stabilization_round <= bound
        worst = max(worst, r.report.stabilization_round / (bound / 10))
    _pass(5, f"stabilization within 10*d*n*delta everywhere; max observed ratio {worst:.3f}")


def test_acceptance_6_register_space(sweep):
    for r in sweep:
        g = r.graph
        budget = payload_bits(2 * g.n, g.max_degree, g.n * g.n)
        assert r.report.max_path_len <= g.n
        assert r.report.max_register_bits <= budget
    _pass(6, "every register stayed within the serialized bit budget; paths within n symbols")


def test_acceptance_7_closure():
    graphs = [
        figure1(),
        generate_clustered(4, 4, seed=71),
        generate_random_connected(20, 8, seed=72),
    ]
    total = 0
    for g in graphs:
        gt = ground_truth(g)
        for i, name in enumerate(SCHEDULERS):
            _, report = run(
                g,
                make_scheduler(name, seed=80 + i),
                init_arbitrary(g, 90 + i),
                closure_rounds=50,
                gt=gt,
            )
            assert report.stabilized
            assert report.post_stabilization_changes == 0
            total += 1
    _pass(7, f"50 post-stabilization rounds with zero register changes in {total} runs")


def test_acceptance_8_fault_recovery():
    graphs = [
        figure1(),
        generate_clustered(3, 4, seed=81),
        generate_random_connected(12, 6, seed=82),
    ]
    injections = 0
    for gi, g in enumerate(graphs):
        gt = ground_truth(g)
        snapshot = stabilized_configuration(g, gt)
        pre_fault = snapshot.registers()
        all_registers = tuple(
            (v, f) for v in range(1, g.n + 1) for f in ("path", "count", "bcc")
        )
        for k in range(50):
            if k % 2 == 0:
                spec = FaultSpec(trigger=0, random_fields=1, seed=1000 * gi + k)
            else:
                spec = FaultSpec(trigger=0, targets=all_registers, seed=1000 * gi + k)
            scheduler = make_scheduler(SCHEDULERS[k % 3], seed=500 + k)
            _, report = run(g, scheduler, snapshot, faults=[spec], gt=gt)
            assert report.stabilized, (gi, k)
            assert report.final_registers == pre_fault
            assert certify(report.detection, g).match
            injections += 1
    assert injections == 150
    _pass(8, "150 fault injections re-stabilized to byte-identical registers and re-certified")


def test_acceptance_9_alpha_independence():
    rng = random.Random(9)
    graphs = [figure1()]
    while len(graphs) < 20:
        if len(graphs) % 2:
            graphs.append(generate_clustered(rng.randint(1, 5), rng.randint(3, 5), rng.randint(0, 9999)))
        else:
            n = rng.randint(4, 16)
            cap = n * (n - 1) // 2 - (n - 1)
            graphs.append(
                generate_random_connected(n, rng.randint(0, min(5, cap)), rng.randint(0, 9999))
            )
    for i, g in enumerate(graphs):
        assert alpha_independence(g, 5, seed=300 + i)
    _pass(9, "bridges, APs, and partition invariant across 20 graphs x 5 port orderings")
