import dataclasses
import random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies

from stabconn import simulator
from stabconn.analysis import certify
from stabconn.graph import (
    figure1,
    generate_clustered,
    generate_random_connected,
    parse_graph,
    shuffle_ports,
)
from stabconn.oracle import ground_truth
from stabconn.protocol import BOTTOM, ProcessorState, Register, ROOT_PATH, advance, node_program
from stabconn.simulator import (
    FAULT_FIELDS,
    Configuration,
    FaultSpec,
    FaultTargetError,
    POST_STABILIZATION,
    SCHEDULER_NAMES,
    default_max_rounds,
    init_arbitrary,
    inject_fault,
    make_scheduler,
    run,
    step,
)

import reference
from reference import round_boundaries


def stabilized_configuration(g, gt):
    """A fully consistent legitimate configuration (registers, locals, pcs)."""
    return Configuration(
        g,
        [
            ProcessorState(
                register=reg,
                path=reg.path,
                count=reg.count,
                n_in=0,
                n_out=0,
                read_path=[gt.registers[w - 1].path for w in g.neighbors(v)],
                read_count=[gt.registers[w - 1].count for w in g.neighbors(v)],
                read_bcc=[gt.registers[w - 1].bcc for w in g.neighbors(v)],
                pc=0,
            )
            for v, reg in enumerate(gt.registers, start=1)
        ],
    )


# ---------------------------------------------------------------------------
# arbitrary initialization

def test_init_deterministic(fig1):
    assert init_arbitrary(fig1, 5) == init_arbitrary(fig1, 5)
    assert init_arbitrary(fig1, 5) != init_arbitrary(fig1, 6)


def test_init_respects_type_bounds(fig1):
    conf = init_arbitrary(fig1, 9)
    bound = fig1.n * fig1.n
    for v, st in enumerate(conf.states, start=1):
        for p in (st.register.path, st.register.bcc, st.path, *st.read_path, *st.read_bcc):
            assert 1 <= len(p) <= fig1.n
            assert all(0 <= s <= fig1.max_degree for s in p)
        assert abs(st.register.count) <= bound
        assert 0 <= st.pc < node_program(fig1, v).length


@pytest.mark.parametrize(
    "width", [1, 2, 3, 4, 5, 8, 15, 17, 2**32 - 1, 2**32 + 1, 2**40 - 1, 2**40 + 1, 1601]
)
def test_below_draws_like_randrange(width):
    mine, theirs = random.Random(width), random.Random(width)
    drawn = [simulator._below(mine.getrandbits, width) for _ in range(300)]
    assert drawn == [theirs.randrange(width) for _ in range(300)]
    assert mine.getstate() == theirs.getstate()


def test_init_almost_never_legitimate(fig1, triangle):
    for g in (fig1, triangle):
        gt = ground_truth(g)
        legit = sum(init_arbitrary(g, seed).registers() == gt.registers for seed in range(100))
        assert legit == 0


def test_single_node_converges_within_three_steps():
    g = parse_graph("1 0\n")
    gt = ground_truth(g)
    conf = init_arbitrary(g, 1234)
    for _ in range(3):
        conf = step(conf, 1)[0]
    assert conf.registers() == gt.registers
    _, report = run(g, make_scheduler("round-robin"), init_arbitrary(g, 7))
    assert report.stabilized


# ---------------------------------------------------------------------------
# stepping

def test_step_locality(fig1):
    conf = init_arbitrary(fig1, 21)
    for pid in (1, 5, 16):
        after, _ = step(conf, pid)
        for v in range(1, 17):
            if v == pid:
                # the pc always advances, so the activated state must differ
                assert after.states[v - 1] != conf.states[v - 1]
            else:
                assert after.states[v - 1] == conf.states[v - 1]
                assert after.states[v - 1] is conf.states[v - 1]


def test_two_pids_change_disjoint_states(fig1):
    conf = init_arbitrary(fig1, 22)
    a, _ = step(conf, 3)
    b, _ = step(conf, 9)
    assert a.states[8] == conf.states[8]
    assert b.states[2] == conf.states[2]


def test_read_steps_change_no_register(fig1):
    conf = init_arbitrary(fig1, 23)
    regs = conf.registers()
    # drive node 7 through its phase-A reads: register can only change on writes
    c = conf
    for _ in range(4):
        c, ev = step(c, 7)
        if ev.kind == "read":
            assert c.registers() == regs
        else:
            regs = c.registers()


def test_step_rejects_bad_pid(triangle):
    with pytest.raises(ValueError):
        step(init_arbitrary(triangle, 0), 9)


def test_root_activation_writes_its_program_value(triangle):
    conf = init_arbitrary(triangle, 31)
    st = conf.states[0]
    st.pc = 0
    after, _ = step(conf, 1)
    assert after.states[0].register.path == ROOT_PATH


# ---------------------------------------------------------------------------
# rounds

def test_round_boundaries_spec_examples():
    assert round_boundaries([1, 2, 1, 3, 3, 2, 1], 3) == [4, 7]
    assert round_boundaries([1, 2, 3, 1, 2, 3], 3) == [3, 6]
    assert round_boundaries([1, 1, 1, 2], 2) == [4]


def test_round_boundaries_trailing_incomplete():
    assert round_boundaries([1, 2, 1, 1], 3) == []


def test_round_robin_rounds_are_exactly_n():
    sched = make_scheduler("round-robin")
    prefix = [pid for _, pid in zip(range(12), sched.activations(4))]
    assert round_boundaries(prefix, 4) == [4, 8, 12]


def test_schedulers_are_fair_and_deterministic():
    n = 25
    for name in ("round-robin", "random", "weighted"):
        sched = make_scheduler(name, seed=3)
        first = [pid for _, pid in zip(range(10000), sched.activations(n))]
        again = [pid for _, pid in zip(range(10000), sched.activations(n))]
        assert first == again
        assert set(first) == set(range(1, n + 1))
        assert len(round_boundaries(first, n)) > 10


def test_make_scheduler_rejects_unknown_name():
    with pytest.raises(ValueError):
        make_scheduler("nope")


# ---------------------------------------------------------------------------
# full runs

def test_run_single_edge_exact_registers(single_edge):
    _, report = run(
        single_edge, make_scheduler("round-robin"), init_arbitrary(single_edge, 77)
    )
    assert report.stabilized
    assert report.final_registers == (
        Register((BOTTOM,), 0, (BOTTOM,)),
        Register((BOTTOM, 1), 0, (BOTTOM, 1)),
    )


def test_run_figure1_counts_and_certification(fig1):
    gt = ground_truth(fig1)
    for name in ("round-robin", "random", "weighted"):
        _, report = run(fig1, make_scheduler(name, seed=11), init_arbitrary(fig1, 42))
        assert report.stabilized and certify(report.detection, fig1).match
        for v in (4, 6, 11, 14):
            assert report.final_registers[v - 1].count == 0
        assert report.final_registers == gt.registers


def test_run_deterministic(fig1):
    def one():
        return run(
            fig1,
            make_scheduler("random", seed=5),
            init_arbitrary(fig1, 6),
            closure_rounds=5,
        )[1]

    a, b = one(), one()
    assert a.final_registers == b.final_registers
    assert (a.stabilization_round, a.rounds, a.total_steps) == (
        b.stabilization_round,
        b.rounds,
        b.total_steps,
    )
    assert a.detection == b.detection


def test_run_round_bound(fig1):
    bound = 10 * fig1.diameter * fig1.n * fig1.max_degree
    for seed in range(5):
        _, report = run(fig1, make_scheduler("random", seed=seed), init_arbitrary(fig1, seed))
        assert report.stabilized
        assert report.stabilization_round <= bound


def test_run_closure_no_changes(fig1):
    for name in ("round-robin", "random", "weighted"):
        _, report = run(
            fig1,
            make_scheduler(name, seed=2),
            init_arbitrary(fig1, 3),
            closure_rounds=50,
        )
        assert report.stabilized
        assert report.post_stabilization_changes == 0


def test_run_reports_non_convergence(fig1):
    _, report = run(fig1, make_scheduler("round-robin"), init_arbitrary(fig1, 1), max_rounds=2)
    assert not report.stabilized
    assert report.stabilization_round is None
    assert report.detection is None


def test_run_trace_rounds(fig1):
    trace, report = run(
        fig1,
        make_scheduler("round-robin"),
        init_arbitrary(fig1, 8),
        record_rounds=True,
    )
    assert len(trace.rounds) == report.rounds
    assert trace.rounds[-1].legitimate
    assert trace.rounds[0].registers is not None
    # round-robin: every round is exactly n steps
    assert all(r.end_step == i * fig1.n for i, r in enumerate(trace.rounds, start=1))


def _scanned_stabilization_round(rounds, post_faults):
    """The first legitimate round followed by a legitimate round with no
    changes, skipping one such pair for each post-stabilization fault."""
    start = 0
    for a, b in zip(rounds, rounds[1:]):
        if a.index > start and a.legitimate and b.legitimate and not b.changed:
            if not post_faults:
                return a.index
            post_faults -= 1
            start = b.index
    return None


@pytest.mark.parametrize("faulted", [False, True])
@pytest.mark.parametrize("scheduler", ["round-robin", "random", "weighted"])
@pytest.mark.parametrize("graph", ["figure1", "random:12,18"])
def test_round_trace_matches_reference_scans(graph, scheduler, faulted):
    g = figure1() if graph == "figure1" else generate_random_connected(12, 7, seed=6)
    faults = []
    if faulted:
        faults = [
            FaultSpec(trigger=40, random_fields=4, seed=5),
            FaultSpec(trigger=POST_STABILIZATION, random_fields=3, seed=6),
        ]
    trace, report = run(
        g,
        make_scheduler(scheduler, seed=3),
        init_arbitrary(g, 21),
        faults=faults,
        closure_rounds=10 if faulted else 0,
        record_rounds=True,
        record_steps=True,
    )
    assert report.stabilized
    pids = [pid for _, pid, _ in trace.steps]
    assert round_boundaries(pids, g.n) == [r.end_step for r in trace.rounds]
    post_faults = sum(f.trigger == POST_STABILIZATION for f in faults)
    assert report.stabilization_round == _scanned_stabilization_round(trace.rounds, post_faults)


def test_run_from_legitimate_configuration_needs_two_rounds(fig1):
    # round 1 is quiet too, but no round before it ended legitimate
    gt = ground_truth(fig1)
    trace, report = run(
        fig1, make_scheduler("round-robin"), stabilized_configuration(fig1, gt), record_rounds=True
    )
    assert [(r.legitimate, r.changed) for r in trace.rounds] == [(True, False)] * 2
    assert report.stabilized and report.stabilization_round == 1


def test_run_step_log_debug_flag(triangle):
    trace, report = run(
        triangle,
        make_scheduler("round-robin"),
        init_arbitrary(triangle, 13),
        record_steps=True,
    )
    assert len(trace.steps) == report.total_steps
    assert trace.rounds == []
    steps, pids, events = zip(*trace.steps)
    assert list(steps) == list(range(1, report.total_steps + 1))
    assert set(pids) == {1, 2, 3}
    assert all(ev.kind in ("read", "write") for ev in events)


def _deep_snapshot(c):
    return [
        (st.register, st.path, st.count, st.n_in, st.n_out,
         tuple(st.read_path), tuple(st.read_count), tuple(st.read_bcc), st.pc)
        for st in c.states
    ]


#: faults that a run applies in place to the states it owns
_RUN_FAULTS = {
    "no-fault": (),
    "step-locals-pc": (
        FaultSpec(trigger=20, targets=((5, "locals"), (5, "pc"), (9, "pc")), seed=4),
    ),
    "post-pc": (FaultSpec(trigger=POST_STABILIZATION, targets=((7, "pc"),), seed=2),),
}


@pytest.mark.parametrize("faults", list(_RUN_FAULTS.values()), ids=list(_RUN_FAULTS))
def test_run_does_not_mutate_init(fig1, faults):
    # tuples, not a clone: a clone holding the same lists would change along
    init = init_arbitrary(fig1, 55)
    snapshot = _deep_snapshot(init)
    _, report = run(fig1, make_scheduler("round-robin"), init, faults=faults)
    assert {ev.node for ev in report.fault_events} == {v for f in faults for v, _ in f.targets}
    assert _deep_snapshot(init) == snapshot


def test_init_and_run_build_one_program_per_node(fig1, monkeypatch):
    built = []
    real = simulator.node_program
    monkeypatch.setattr(simulator, "node_program", lambda g, v: built.append(v) or real(g, v))
    init = init_arbitrary(fig1, 55)
    assert sorted(built) == list(range(1, fig1.n + 1))
    built.clear()
    faults = _RUN_FAULTS["step-locals-pc"] + _RUN_FAULTS["post-pc"]
    _, report = run(fig1, make_scheduler("round-robin"), init, faults=faults)
    assert len(report.fault_events) == 3
    assert sorted(built) == list(range(1, fig1.n + 1))


@pytest.mark.parametrize("scheduler", ["round-robin", "random", "weighted"])
@pytest.mark.parametrize("graph", ["figure1", "random:12,18"])
def test_run_steps_match_replay_through_step(graph, scheduler):
    # run steps states it owns in place; step goes through the copying
    # wrapper, so both must produce the same events and registers
    g = figure1() if graph == "figure1" else generate_random_connected(12, 7, seed=6)
    init = init_arbitrary(g, 17)
    fault = FaultSpec(trigger=40, random_fields=4, seed=5)
    trace, report = run(
        g, make_scheduler(scheduler, seed=2), init, faults=[fault], record_steps=True
    )
    assert report.stabilized and [ev.step for ev in report.fault_events] == [40] * len(report.fault_events)
    c = init
    for i, (k, pid, event) in enumerate(trace.steps):
        if i == fault.trigger:
            c = inject_fault(c, fault)
        c, replayed = step(c, pid)
        assert replayed == event, (k, pid)
    assert c.registers() == report.final_registers


@strategies.composite
def _replay_cases(draw):
    """A graph with n <= 12, a scheduler, a start, step and post faults of
    every field kind, and a closure window of up to 100 rounds."""
    seed = draw(strategies.integers(0, 10**6))
    if draw(strategies.booleans()):
        n = draw(strategies.integers(1, 12))
        extra = draw(strategies.integers(0, min(n, n * (n - 1) // 2 - (n - 1))))
        g = generate_random_connected(n, extra, seed)
    else:
        k = draw(strategies.integers(1, 4))
        g = generate_clustered(k, draw(strategies.integers(3, 12 // k)), seed)
    if draw(strategies.booleans()):
        init = init_arbitrary(g, seed)
    else:
        init = stabilized_configuration(g, ground_truth(g))
    target = strategies.tuples(strategies.integers(1, g.n), strategies.sampled_from(FAULT_FIELDS))
    fault = strategies.builds(
        FaultSpec,
        trigger=strategies.just(POST_STABILIZATION) | strategies.integers(0, 40 * g.n),
        targets=strategies.lists(target, min_size=1, max_size=3).map(tuple),
        random_fields=strategies.integers(0, 2),
        seed=strategies.integers(0, 10**6),
    )
    faults = draw(strategies.lists(fault, max_size=3))
    scheduler = make_scheduler(draw(strategies.sampled_from(SCHEDULER_NAMES)), seed)
    return g, scheduler, init, faults, draw(strategies.integers(0, 100))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_replay_cases())
def test_run_steps_like_a_loop_without_replay(case):
    # quiet nodes replay recorded cycles; a loop that calls the kernel on
    # every activation must give the same steps and the same full states.
    # max_rounds is above every attempt these cases need, and keeps a run
    # that a faulty replay stops from converging short
    g, scheduler, init, faults, closure_rounds = case
    with reference.watch_runs() as log:
        trace, report = run(
            g,
            scheduler,
            init,
            faults=faults,
            max_rounds=200,
            closure_rounds=closure_rounds,
            record_steps=True,
        )
    firings = [(steps, spec) for steps, spec, _, _ in log.firings]
    assert {steps for steps, _ in firings} == {ev.step for ev in report.fault_events}
    stream, states = reference.run_loop(g, scheduler, init.states, firings, report.total_steps)
    assert trace.steps == stream
    assert reference.full_state(log.states) == reference.full_state(states)


def test_quiet_nodes_replay_their_cycle(fig1):
    # each node steps with the kernel for 2L activations, then for one
    # recorded cycle of at most L, and replays that cycle from then on
    calls = []
    with patch.object(simulator, "advance", lambda *a: calls.append(1) or advance(*a)):
        _, report = run(
            fig1,
            make_scheduler("round-robin"),
            stabilized_configuration(fig1, ground_truth(fig1)),
            closure_rounds=200,
        )
    bound = sum(3 * node_program(fig1, v).length for v in range(1, fig1.n + 1))
    assert len(calls) <= bound < report.total_steps // 3


def test_default_max_rounds(fig1):
    assert default_max_rounds(fig1) == 10 * 7 * 16 * 4
    assert default_max_rounds(parse_graph("1 0\n")) == 10


# ---------------------------------------------------------------------------
# faults

def test_empty_fault_is_identity(fig1):
    conf = init_arbitrary(fig1, 1)
    assert inject_fault(conf, FaultSpec(trigger=0)) == conf


def test_fault_targets_only_listed_fields(fig1):
    conf = init_arbitrary(fig1, 2)
    spec = FaultSpec(trigger=0, targets=((3, "count"),))
    after = inject_fault(conf, spec)
    assert after.states[2].register.count != conf.states[2].register.count
    assert after.states[2].register.path == conf.states[2].register.path
    for v in range(1, 17):
        if v != 3:
            assert after.states[v - 1] == conf.states[v - 1]


def test_fault_deterministic(fig1):
    conf = init_arbitrary(fig1, 3)
    spec = FaultSpec(trigger=0, random_fields=4, seed=9)
    assert inject_fault(conf, spec) == inject_fault(conf, spec)
    assert inject_fault(conf, spec) != inject_fault(conf, dataclasses.replace(spec, seed=10))


def _fault_on(kind, nodes, seed):
    """A fault on field ``kind`` of every node in ``nodes``, or, for
    "random_fields", on as many random fields."""
    if kind == "random_fields":
        return FaultSpec(random_fields=len(nodes), seed=seed)
    return FaultSpec(targets=tuple((v, kind) for v in nodes), seed=seed)


@pytest.mark.parametrize("kind", FAULT_FIELDS + ("random_fields",))
def test_inject_fault_leaves_its_input_unchanged(fig1, kind):
    conf = init_arbitrary(fig1, 4)
    snapshot = _deep_snapshot(conf)
    after = inject_fault(conf, _fault_on(kind, (1, 6, 16), seed=3))
    assert _deep_snapshot(conf) == snapshot
    assert _deep_snapshot(after) != snapshot


@pytest.mark.parametrize("kind", FAULT_FIELDS + ("random_fields",))
@pytest.mark.parametrize("shuffled", [False, True], ids=["figure1", "figure1-shuffled"])
def test_memo_stays_sound_across_an_in_place_fault(shuffled, kind):
    """Each node fills its kernel memo over one cycle from the legitimate
    configuration; a fault on it and its neighbours then corrupts the states
    in place, memo kept.  Every step before and after must equal the step of
    the plain reference machine on a twin configuration given the same
    fault."""
    g = shuffle_ports(figure1(), 5) if shuffled else figure1()
    gt = ground_truth(g)
    programs = [node_program(g, v) for v in range(1, g.n + 1)]
    for v in range(1, g.n + 1):
        prog = programs[v - 1]
        nbrs = g.neighbors(v)
        spec = _fault_on(kind, (v, *nbrs), seed=v)
        mine = stabilized_configuration(g, gt).states
        twin = stabilized_configuration(g, gt).states

        def read_mine(j):
            return mine[nbrs[j - 1] - 1].register

        def read_twin(j):
            return twin[nbrs[j - 1] - 1].register

        for k in range(3 * prog.length):
            if k == prog.length:
                simulator._apply_fault_targets(mine, programs, g, spec)
                simulator._apply_fault_targets(twin, programs, g, spec)
                assert mine[v - 1]._prog is prog  # the memo survived the fault
            event = advance(mine[v - 1], prog, read_mine)
            assert event == reference.advance(twin[v - 1], prog, read_twin), (v, k)
            assert mine == twin, (v, k)


def test_fault_rejects_bad_targets(triangle):
    conf = init_arbitrary(triangle, 4)
    with pytest.raises(FaultTargetError):
        inject_fault(conf, FaultSpec(trigger=0, targets=((9, "path"),)))
    with pytest.raises(FaultTargetError):
        inject_fault(conf, FaultSpec(trigger=0, targets=((1, "nope"),)))
    with pytest.raises(FaultTargetError):  # a bool is an int, but no node id
        inject_fault(conf, FaultSpec(trigger=0, targets=((True, "path"),)))


class _RecordingScheduler:
    """Activates node 1 forever and records every activation it hands out."""

    name = "recording"

    def __init__(self, limit=None):
        self.drawn = 0
        self.limit = limit

    def activations(self, n):
        while self.limit is None or self.drawn < self.limit:
            self.drawn += 1
            yield 1


@pytest.mark.parametrize(
    "spec",
    [
        FaultSpec(trigger=10**8, targets=((99, "path"),)),
        FaultSpec(trigger=POST_STABILIZATION, targets=((0, "path"),)),
        FaultSpec(trigger=5, targets=((2, "nope"),)),
        FaultSpec(trigger=5, targets=((True, "pc"),)),
        FaultSpec(trigger=POST_STABILIZATION, random_fields=16 * 4 + 1),
    ],
    ids=["node-99-late", "node-0-post", "field", "bool-node", "random-oversized"],
)
def test_run_rejects_bad_fault_before_the_first_step(fig1, spec):
    """Even a fault whose trigger the run never reaches is checked up front."""
    scheduler = _RecordingScheduler()
    with pytest.raises(FaultTargetError):
        run(fig1, scheduler, init_arbitrary(fig1, 1), faults=[FaultSpec(), spec], max_rounds=2)
    assert scheduler.drawn == 0


def test_run_accepts_every_field_at_the_pool_size(fig1):
    spec = FaultSpec(trigger=3, random_fields=16 * 4)
    _, report = run(fig1, make_scheduler("round-robin"), init_arbitrary(fig1, 1), faults=[spec])
    assert len(report.fault_events) == 16


def test_run_rejects_negative_closure_rounds(fig1):
    # unchecked, the closure window never closes and the run goes on to the step cap
    scheduler = _RecordingScheduler()
    with pytest.raises(ValueError, match="closure_rounds"):
        run(fig1, scheduler, init_arbitrary(fig1, 1), max_rounds=200, closure_rounds=-1)
    assert scheduler.drawn == 0


def test_run_rejects_a_scheduler_that_stops(fig1):
    with pytest.raises(ValueError, match="stopped activating"):
        run(fig1, _RecordingScheduler(limit=20), init_arbitrary(fig1, 1))


@pytest.mark.parametrize("trigger", ["post", True, -1, 2.0, None])
def test_fault_rejects_unknown_trigger(trigger):
    # a run would otherwise drop them silently or fire them early
    with pytest.raises(FaultTargetError):
        FaultSpec(trigger=trigger, targets=((2, "path"),))


@pytest.mark.parametrize("count", [-1, True, 2.0, None, "3"])
def test_fault_rejects_bad_random_field_count(count):
    with pytest.raises(FaultTargetError):
        FaultSpec(trigger=0, random_fields=count)


def test_corrupt_root_count_restored_by_next_cycle(triangle):
    gt = ground_truth(triangle)
    conf = stabilized_configuration(triangle, gt)
    root = conf.states[0].clone()
    root.register = root.register._replace(count=7)
    c = Configuration(triangle, [root, *conf.states[1:]])
    for _ in range(3):
        c = step(c, 1)[0]
    assert c.states[0].register.count == 0


def test_step_fault_fires_at_trigger(fig1):
    spec = FaultSpec(trigger=40, targets=((5, "path"),), seed=3)
    _, report = run(fig1, make_scheduler("round-robin"), init_arbitrary(fig1, 6), faults=[spec])
    assert len(report.fault_events) == 1
    assert report.fault_events[0].step == 40
    assert report.fault_events[0].node == 5
    assert report.stabilized


def test_post_stabilization_fault_recovery(fig1):
    gt = ground_truth(fig1)
    spec = FaultSpec(trigger=POST_STABILIZATION, targets=((11, "bcc"),), seed=8)
    _, report = run(
        fig1, make_scheduler("round-robin"), init_arbitrary(fig1, 9), faults=[spec]
    )
    assert report.stabilized
    assert len(report.fault_events) == 1
    assert report.fault_events[0].node == 11
    # re-stabilized to registers identical to the unique ground truth
    assert report.final_registers == gt.registers
    assert certify(report.detection, fig1).match


def test_post_stab_fault_recovery_from_snapshot(fig1):
    gt = ground_truth(fig1)
    rng = random.Random(0)
    stabilized = stabilized_configuration(fig1, gt)
    pre_fault = stabilized.registers()
    for trial in range(5):
        spec = FaultSpec(trigger=0, random_fields=rng.randint(1, 6), seed=trial)
        corrupted = inject_fault(stabilized, spec)
        _, rep = run(fig1, make_scheduler("random", seed=trial), corrupted)
        assert rep.stabilized
        assert rep.final_registers == pre_fault


def test_planted_adversarial_pair_recovers(k4_adversarial):
    # registers of two adjacent nodes hold a maximal-length all-ones path
    # that lexicographically undercuts their legitimate paths; under a naive
    # truncating minimum this is a stable illegitimate fixpoint
    g = k4_adversarial
    conf = init_arbitrary(g, 0)
    for v in (3, 4):
        st = conf.states[v - 1]
        st.register = st.register._replace(path=(BOTTOM, 1, 1, 1))
        st.pc = 0
    for v in (1, 2):
        conf.states[v - 1].pc = 0
    _, report = run(g, make_scheduler("round-robin"), conf)
    assert report.stabilized
    assert certify(report.detection, g).match


def test_space_bound_tracking(fig1):
    from stabconn.protocol import register_bit_budget

    _, report = run(fig1, make_scheduler("random", seed=1), init_arbitrary(fig1, 12))
    assert report.max_path_len <= fig1.n
    assert report.max_register_bits <= register_bit_budget(
        fig1.n, fig1.max_degree, fig1.n * fig1.n
    )
