import dataclasses
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies

from stabconn.graph import (
    build_graph,
    figure1,
    generate_clustered,
    generate_random_connected,
    shuffle_ports,
)
from stabconn.oracle import first_dfs, ground_truth
from stabconn.protocol import (
    BOTTOM,
    A_READ,
    A_WRITE,
    B_PORT,
    B_WRITE,
    C_DECIDE,
    C_READ_COUNT,
    C_READ_PARENT_BCC,
    C_WRITE_PARENT_BCC,
    R_WRITE_BCC,
    R_WRITE_COUNT,
    R_WRITE_PATH,
    CHILD,
    INCOMING_NONTREE,
    OUTGOING_NONTREE,
    PARENT,
    UNCLASSIFIED,
    DegreeLimitError,
    NodeProgram,
    ProcessorState,
    Register,
    ROOT_PATH,
    SYMBOLS,
    advance,
    classify_link,
    execute_step,
    format_path,
    node_program,
    nonroot_program,
    payload_bits,
    root_program,
)
from stabconn.simulator import init_arbitrary

import reference
from reference import lex_compare, path_of, stabilized_configuration


def random_path(rng, max_len=6, max_symbol=4, allow_empty=False):
    length = rng.randint(0 if allow_empty else 1, max_len)
    return path_of(*(rng.randint(0, max_symbol) for _ in range(length)))


# ---------------------------------------------------------------------------
# path order

def test_lex_compare_examples():
    assert lex_compare((BOTTOM,), (BOTTOM,)) == 0
    assert lex_compare((BOTTOM,), (BOTTOM, 1)) == -1
    assert lex_compare((BOTTOM, 1, 3), (BOTTOM, 2)) == -1


def test_lex_compare_bottom_is_minimal():
    assert lex_compare((BOTTOM,), (1,)) == -1
    assert lex_compare((BOTTOM, 5), (1,)) == -1


_paths = strategies.lists(strategies.integers(min_value=0, max_value=5), max_size=6).map(tuple)


@given(_paths, _paths, _paths)
def test_lex_compare_agrees_with_tuple_order(prefix, a, b):
    # A_WRITE picks the smallest candidate with the builtin min
    a, b = prefix + a, prefix + b
    assert lex_compare(a, b) == (a > b) - (a < b)


def test_lex_compare_total_order_properties():
    rng = random.Random(2024)
    values = [random_path(rng, allow_empty=True) for _ in range(60)]
    for a in values:
        assert lex_compare(a, a) == 0
        for b in values:
            assert lex_compare(a, b) == -lex_compare(b, a)
            if lex_compare(a, b) == 0:
                assert a == b
            for c in values:
                if lex_compare(a, b) <= 0 and lex_compare(b, c) <= 0:
                    assert lex_compare(a, c) <= 0


def test_lex_compare_matches_tuple_order():
    # symbols are small ints with BOTTOM = 0, so the order coincides with
    # Python's tuple order; keep them in sync
    rng = random.Random(7)
    for _ in range(300):
        a, b = random_path(rng), random_path(rng)
        expected = 0 if a == b else (-1 if a < b else 1)
        assert lex_compare(a, b) == expected


_symbols = strategies.lists(strategies.integers(min_value=0, max_value=255), max_size=8).map(tuple)


@given(_symbols, _symbols, _symbols)
def test_bytes_paths_compare_like_their_symbol_tuples(prefix, a, b):
    # a shared prefix makes near-equal paths, where the order is decided late
    a, b = prefix + a, prefix + b
    pa, pb = path_of(*a), path_of(*b)
    assert (pa < pb) == (a < b) and (pa == pb) == (a == b)
    assert pb.startswith(pa) == reference.tuple_prefix(a, b)
    assert min(pa, pb) == path_of(*min(a, b))


@given(_symbols, _symbols, _symbols, strategies.integers(0, 255), strategies.integers(0, 255),
       strategies.sampled_from(("any", "child", "parent")))
@example((0,), (1, 2), (), 1, 1, "any")  # outgoing
@example((0,), (), (1, 2), 1, 1, "any")  # incoming
@example((0,), (1,), (2,), 1, 1, "any")  # unclassified
@example((0, 4), (), (), 3, 7, "child")
@example((0, 4), (), (), 3, 7, "parent")
def test_classify_link_on_bytes_equals_the_reference_on_tuples(prefix, a, b, my_port, their_port, shape):
    mine, theirs = prefix + a, prefix + b
    if shape == "child":
        theirs = mine + (my_port,)
    elif shape == "parent":
        mine = theirs + (their_port,)
    expected = reference.link_class(mine, theirs, my_port, their_port)
    assert classify_link(path_of(*mine), path_of(*theirs), my_port, their_port) is expected
    # the kernel's parent-port scan tests a link this way, with no classify_link
    assert (path_of(*theirs) + SYMBOLS[their_port] == path_of(*mine)) == (expected is PARENT)


def test_paths_name_ports_up_to_255_and_no_more():
    # a path symbol is one byte: degree 255 is the largest a node may have
    hub = build_graph(256, [(1, v) for v in range(2, 257)])
    assert ground_truth(hub).paths[256] == path_of(BOTTOM, 255)
    init_arbitrary(hub, 0)  # random paths draw symbols up to 255
    over = build_graph(257, [(2, v) for v in range(1, 258) if v != 2])
    for build in (first_dfs, lambda g: node_program(g, 1), lambda g: init_arbitrary(g, 0)):
        with pytest.raises(DegreeLimitError, match="^node 2 has degree 256;"):
            build(over)


def test_format_path():
    assert format_path(path_of(BOTTOM, 3, 1)) == "⊥.3.1"
    assert format_path(path_of(BOTTOM)) == "⊥"


# ---------------------------------------------------------------------------
# link classification

def test_classify_examples():
    assert classify_link(path_of(BOTTOM, 1), path_of(BOTTOM), 1, 1) is PARENT
    assert (
        classify_link(path_of(BOTTOM, 2, 1), path_of(BOTTOM), 1, 3) is OUTGOING_NONTREE
    )
    assert classify_link(path_of(BOTTOM, 1), path_of(BOTTOM, 2), 1, 1) is UNCLASSIFIED


def test_classify_child_and_incoming():
    mine = path_of(BOTTOM, 2)
    assert classify_link(mine, path_of(BOTTOM, 2, 3), 3, 9) is CHILD
    assert classify_link(mine, path_of(BOTTOM, 2, 4), 3, 9) is INCOMING_NONTREE
    assert classify_link(mine, path_of(BOTTOM, 2, 3, 1), 3, 9) is INCOMING_NONTREE


def test_classify_equal_paths_unclassified():
    assert classify_link(path_of(BOTTOM, 1), path_of(BOTTOM, 1), 1, 2) is UNCLASSIFIED


_DUAL = {
    PARENT: CHILD,
    CHILD: PARENT,
    OUTGOING_NONTREE: INCOMING_NONTREE,
    INCOMING_NONTREE: OUTGOING_NONTREE,
}


def test_classification_on_legitimate_paths_is_total_and_dual():
    for seed in range(10):
        n = random.Random(seed).randint(2, 20)
        cap = n * (n - 1) // 2 - (n - 1)
        g = generate_random_connected(n, min(seed % 5, cap), seed)
        paths = first_dfs(g)[0]
        for u, v in g.edges:
            cls_u = classify_link(paths[u], paths[v], g.port_to(u, v), g.port_to(v, u))
            cls_v = classify_link(paths[v], paths[u], g.port_to(v, u), g.port_to(u, v))
            assert cls_u is not UNCLASSIFIED
            assert cls_v is _DUAL[cls_u]


# ---------------------------------------------------------------------------
# programs and the step machine

def _states_for(g, registers=None, seed=0):
    """Arbitrary processor states over g, optionally with pinned registers."""
    rng = random.Random(seed)
    states = []
    for v in range(1, g.n + 1):
        d = g.degree(v)
        reg = registers[v - 1] if registers else Register(
            random_path(rng), rng.randint(-9, 9), random_path(rng)
        )
        states.append(
            ProcessorState(
                register=reg,
                path=random_path(rng),
                count=rng.randint(-9, 9),
                n_in=rng.randint(0, 4),
                n_out=rng.randint(0, 4),
                read_path=[random_path(rng) for _ in range(d)],
                read_count=[rng.randint(-9, 9) for _ in range(d)],
                read_bcc=[random_path(rng) for _ in range(d)],
                pc=rng.randrange(len(node_program(g, v).schedule)),
            )
        )
    return states


class _Nbr:
    """A neighbour as the kernel may see it: a register and nothing else."""

    __slots__ = ("register",)

    def __init__(self, register):
        self.register = register


def _nbrs(g, v, registers):
    """v's neighbours in port order, each holding its entry of ``registers``."""
    return tuple(_Nbr(registers[w - 1]) for w in g.neighbors(v))


class _Drawn:
    """A neighbour whose register is drawn afresh at every read, which it counts."""

    def __init__(self, draw):
        self.draw = draw
        self.reads = 0

    @property
    def register(self):
        self.reads += 1
        return self.draw()


def _drive_cycle(state, prog, nbrs):
    """Run one full schedule pass from slot 0; return accesses whose slot
    lies inside the pass.

    An activation can consume several skipped slots and even wrap into the
    next pass, so progress is tracked as a virtual slot position.
    """
    events = []
    state.pc = 0
    vp = 0
    while vp < prog.length:
        old = state.pc
        state, ev = execute_step(state, prog, nbrs)
        delta = (state.pc - old) % prog.length or prog.length
        if vp + delta - 1 < prog.length:
            events.append(ev)
        vp += delta
    return state, events


def test_root_program_is_three_writes():
    prog = root_program()
    assert len(prog) == 3
    assert [k for k, _ in prog] == [0, 1, 2]


def test_root_rewrites_register_in_three_activations(single_edge):
    prog = node_program(single_edge, 1)
    rng = random.Random(4)
    for pc in (0, 1, 2, 7, -3):
        st = _states_for(single_edge, seed=rng.randint(0, 99))[0]
        st.pc = pc
        nbrs = (_Nbr(Register(path_of(1), 5, path_of(2))),)
        for _ in range(3):
            st, ev = execute_step(st, prog, nbrs)
            assert ev.kind == "write"
        assert st.register == Register(ROOT_PATH, 0, ROOT_PATH)
        # further activations never change it again
        for _ in range(4):
            st, ev = execute_step(st, prog, nbrs)
            assert not ev.changed


def test_nonroot_program_shape():
    prog = nonroot_program(3)
    assert len(prog) == 2 * 3 + 8
    kinds = [k for k, _ in prog]
    assert kinds.count(A_READ) == 3
    assert kinds.count(B_PORT) == 3
    assert kinds.count(A_WRITE) == kinds.count(B_WRITE) == 1
    with pytest.raises(ValueError):
        nonroot_program(0)


def test_slot_0_is_a_register_access():
    # simulator.run's replay landmark: exactly one activation per cycle ends at pc 1
    programs = [root_program(), *map(nonroot_program, range(1, 9))]
    assert [p[0] for p in programs] == [(R_WRITE_PATH, 0)] + [(A_READ, 1)] * 8


def test_an_unknown_slot_kind_fails_when_the_table_is_built(fig1):
    # the kernel trusts the table's kinds; one it has no event for raises
    # when the program is built, before any step, not inside a run
    with pytest.raises(KeyError):
        dataclasses.replace(node_program(fig1, 2), schedule=((A_READ, 1), (99, 0)))


def test_a_program_keeps_its_layout_through_a_step(fig1):
    # table and suffixes are built with the program: a value cached on first
    # read would give programs an instance dict, and on CPython an instance
    # whose dict gets a key after creation loads every attribute slower
    states = init_arbitrary(fig1, 3).states
    for v in range(1, fig1.n + 1):
        prog = node_program(fig1, v)
        before = {name: getattr(prog, name) for name in NodeProgram.__slots__}
        advance(states[v - 1].clone(), prog, tuple(states[w - 1] for w in fig1.neighbors(v)))
        assert not hasattr(prog, "__dict__")
        assert all(getattr(prog, name) is value for name, value in before.items())


_CONDITIONAL_KINDS = {B_PORT, C_DECIDE, C_READ_PARENT_BCC, C_WRITE_PARENT_BCC}


def _longest_conditional_run(schedule):
    """The most conditional slots in a row, the cycle's wrap included."""
    longest = run = 0
    for kind, _ in schedule + schedule:
        run = run + 1 if kind in _CONDITIONAL_KINDS else 0
        longest = max(longest, run)
    return longest


def test_a_schedule_that_could_fold_forever_fails_when_the_table_is_built(fig1):
    # a failed guard hands the activation to the next slot, so a cycle of
    # conditional slots alone could end no activation: it is refused before
    # any step, and so is an empty schedule
    prog = node_program(fig1, 2)
    for schedule in (((B_PORT, 1), (C_DECIDE, 0)), ((C_READ_PARENT_BCC, 0),), ()):
        with pytest.raises(ValueError, match="no unconditional register access"):
            dataclasses.replace(prog, schedule=schedule)
    # one unconditional slot ends every run of folds, however long
    prog = dataclasses.replace(prog, schedule=((B_PORT, 1), (C_DECIDE, 0), (C_READ_COUNT, 0)))
    assert len(prog.table) == 3
    # on the generated schedules an activation folds at most max(degree, 3) slots
    for degree in (1, 2, 3, 4, 9, 255):
        assert _longest_conditional_run(nonroot_program(degree)) == max(degree, 3)
    assert _longest_conditional_run(root_program()) == 0


def test_every_activation_is_one_register_access(fig1):
    rng = random.Random(13)

    def draw():
        return Register(random_path(rng), rng.randint(-3, 3), random_path(rng))

    def check(st, prog):
        nbrs = [_Drawn(draw) for _ in range(prog.degree)]
        _, ev = execute_step(st, prog, nbrs)
        reads = [nbr.reads for nbr in nbrs]
        assert ev.kind in ("read", "write")
        # a remote read touches exactly one neighbor register, the one on the
        # port it reports; writes and own-register reads touch none
        remote = ev.kind == "read" and ev.port is not None
        assert reads == [int(remote and j == ev.port) for j in range(1, prog.degree + 1)]

    for trial in range(30):
        v = rng.randint(1, 16)
        prog = node_program(fig1, v)
        st = _states_for(fig1, seed=trial)[v - 1]
        st.pc = rng.randrange(prog.length)
        check(st, prog)
    # legitimate locals classify the parent link, so every remote-read slot
    # of every node, the parent-bcc read included, reads here
    legitimate = stabilized_configuration(fig1, ground_truth(fig1)).states
    for v in range(1, fig1.n + 1):
        prog = node_program(fig1, v)
        for pc in range(prog.length):
            st = legitimate[v - 1].clone()
            st.pc = pc
            check(st, prog)


def test_cycle_access_bound(fig1):
    gt = ground_truth(fig1)
    for v in range(2, 17):
        prog = node_program(fig1, v)
        d = prog.degree
        # worst case over arbitrary states and over the stabilized state
        for seed in range(6):
            st = _states_for(fig1, seed=seed)[v - 1]
            _, events = _drive_cycle(st, prog, (_Nbr(Register(path_of(BOTTOM, 1), 1, path_of(BOTTOM))),) * d)
            assert len(events) <= 2 * d + 6
        st = _states_for(fig1, registers=gt.registers)[v - 1]
        _, events = _drive_cycle(st, prog, _nbrs(fig1, v, gt.registers))
        assert len(events) <= 2 * d + 6


def test_phase_b_arithmetic_child_counts_and_incoming():
    # star center 2 with neighbors 1 (root/parent), 3, 4, 5
    g = build_graph(5, [(1, 2), (2, 3), (2, 4), (2, 5)])
    prog = node_program(g, 2)
    my_path = path_of(BOTTOM, 1)
    regs = {
        1: Register(ROOT_PATH, 0, ROOT_PATH),
        3: Register(my_path + path_of(2), 1, ROOT_PATH),  # child with count 1
        4: Register(my_path + path_of(3), 2, ROOT_PATH),  # child with count 2
        5: Register(my_path + path_of(9, 9), 0, ROOT_PATH),  # incoming non-tree
    }
    st = _states_for(g, seed=1)[1]
    st.register = Register(my_path, 0, ROOT_PATH)
    nbrs = tuple(_Nbr(regs[w]) for w in g.neighbors(2))

    # phase A fills read_path, then phase B must write 1 + 2 - 1 = 2
    st.pc = 0
    writes = {}
    for _ in range(prog.length + 4):
        st, ev = execute_step(st, prog, nbrs)
        if ev.kind == "write":
            writes[ev.field] = getattr(st.register, ev.field)
        if "count" in writes:
            break
    assert writes["count"] == 2
    assert st.n_in == 1 and st.n_out == 0


def test_representative_writes_own_path_into_bcc(fig1):
    gt = ground_truth(fig1)
    v = 6  # representative: register count is 0
    prog = node_program(fig1, v)
    st = _states_for(fig1, registers=gt.registers, seed=3)[v - 1]
    st.register = st.register._replace(bcc=path_of(3, 3))  # corrupt the label
    st, events = _drive_cycle(st, prog, _nbrs(fig1, v, gt.registers))
    assert st.register.bcc == gt.paths[v]


def test_nonrepresentative_copies_parent_bcc(fig1):
    gt = ground_truth(fig1)
    v = 8  # count 1, parent 7
    prog = node_program(fig1, v)
    st = _states_for(fig1, registers=gt.registers, seed=3)[v - 1]
    st.register = st.register._replace(bcc=path_of(2))
    st, _ = _drive_cycle(st, prog, _nbrs(fig1, v, gt.registers))
    assert st.register.bcc == gt.bcc_labels[7]


def test_leaf_count_equals_outgoing(triangle):
    # tree leaf 3 has one outgoing non-tree edge to the root
    gt = ground_truth(triangle)
    prog = node_program(triangle, 3)
    st = _states_for(triangle, registers=gt.registers, seed=5)[2]
    st, _ = _drive_cycle(st, prog, _nbrs(triangle, 3, gt.registers))
    assert st.n_in == 0
    assert st.register.count == st.n_out == 1


def test_fixpoint_full_cycles_keep_ground_truth(fig1, triangle, single_edge):
    # from ground-truth registers and cycle-start pcs (arbitrary locals:
    # every phase re-reads its inputs before writing), no write ever
    # changes a register again
    for g in (fig1, triangle, single_edge):
        gt = ground_truth(g)
        states = _states_for(g, registers=gt.registers, seed=11)
        for st in states:
            st.pc = 0
        progs = [node_program(g, v) for v in range(1, g.n + 1)]
        # the live registers, which every node reads and rebinds its own in
        live = [_Nbr(r) for r in gt.registers]
        for sweep in range(2):
            for v in range(1, g.n + 1):
                nbrs = tuple(live[w - 1] for w in g.neighbors(v))
                st = states[v - 1]
                for _ in range(progs[v - 1].length):
                    st, ev = execute_step(st, progs[v - 1], nbrs)
                    if ev.kind == "write":
                        assert not ev.changed, (g.n, v, ev)
                    live[v - 1].register = st.register
                states[v - 1] = st
        assert tuple(nbr.register for nbr in live) == gt.registers


def test_execute_step_total_on_garbage(fig1):
    rng = random.Random(99)

    def draw():
        return Register(
            random_path(rng, allow_empty=True),
            rng.randint(-100, 100),
            random_path(rng, allow_empty=True),
        )

    for trial in range(200):
        v = rng.randint(1, 16)
        prog = node_program(fig1, v)
        d = prog.degree
        st = ProcessorState(
            register=Register(
                random_path(rng, max_len=16, allow_empty=True),
                rng.randint(-10**6, 10**6),
                random_path(rng, max_len=16, allow_empty=True),
            ),
            path=random_path(rng, allow_empty=True),
            count=rng.randint(-10**6, 10**6),
            n_in=rng.randint(-5, 5),
            n_out=rng.randint(-5, 5),
            read_path=[random_path(rng, allow_empty=True) for _ in range(d)],
            read_count=[rng.randint(-100, 100) for _ in range(d)],
            read_bcc=[random_path(rng, allow_empty=True) for _ in range(d)],
            pc=rng.randint(-100, 100),
        )
        st, ev = execute_step(st, prog, [_Drawn(draw) for _ in range(d)])
        assert ev.kind in ("read", "write")
        assert 0 <= st.pc < prog.length


def test_out_of_range_pcs_step_like_their_remainder(fig1):
    # a corrupted pc, negative, past the schedule or below minus its length,
    # selects slot pc % L, exactly as the plain reference kernel does
    for v in (1, 2, 5, 11):
        prog = node_program(fig1, v)
        length = prog.length
        states = init_arbitrary(fig1, v).states
        nbrs = tuple(states[w - 1] for w in fig1.neighbors(v))
        for pc in range(length):
            for raw in (pc - length, pc + length, pc - 3 * length, pc + 7 * length, pc - 10**12 * length):
                stepped, normal, plain = (states[v - 1].clone() for _ in range(3))
                stepped.pc = plain.pc = raw
                normal.pc = pc
                event = advance(stepped, prog, nbrs)
                assert advance(normal, prog, nbrs) == event, (v, raw)
                assert reference.advance(plain, prog, nbrs) == event, (v, raw)
                assert reference.full_state([stepped]) == reference.full_state([normal])
                assert reference.full_state([stepped]) == reference.full_state([plain])


def test_a_degree_255_node_folds_all_of_phase_b_in_one_activation():
    # node 2, not the root, has 255 ports, and no link classifies as a
    # child: every B_PORT slot folds, and the one activation from the first
    # of them ends with B_WRITE's write, 255 folds deep
    g = build_graph(256, [(2, v) for v in range(1, 257) if v != 2])
    prog = node_program(g, 2)
    d = prog.degree
    assert d == 255 and prog.schedule[d + 2] == (B_PORT, 1)
    states = init_arbitrary(g, 4).states
    nbrs = tuple(states[w - 1] for w in g.neighbors(2))
    rng = random.Random(255)
    mine = path_of(BOTTOM, 3, 1)
    # parent, outgoing, incoming (longer, or one symbol but not my port) and unclassified
    others = [path_of(BOTTOM, 3), path_of(BOTTOM), path_of(BOTTOM, 3, 1, 4, 2),
              path_of(BOTTOM, 2), path_of(BOTTOM, 4, 1)]
    st = states[1]
    st.path = mine
    st.count = st.n_in = st.n_out = 0
    st.read_path = [rng.choice(others) for _ in range(d)]
    st.pc = d + 2
    plain = st.clone()
    event = advance(st, prog, nbrs)
    assert event.kind == "write" and event.field == "count"
    assert st.pc == 2 * d + 3 and prog.schedule[st.pc] == (C_READ_COUNT, 0)
    assert st.n_in > 0 and st.n_out > 0
    assert reference.advance(plain, prog, nbrs) == event
    assert reference.full_state([st]) == reference.full_state([plain])


def test_execute_step_does_not_mutate_input(fig1):
    gt = ground_truth(fig1)
    st = _states_for(fig1, registers=gt.registers, seed=8)[4]
    prog = node_program(fig1, 5)
    snapshot = (
        st.register,
        st.path,
        st.count,
        list(st.read_path),
        list(st.read_count),
        list(st.read_bcc),
        st.pc,
    )
    nbrs = _nbrs(fig1, 5, gt.registers)
    for _ in range(prog.length):
        execute_step(st, prog, nbrs)
    assert snapshot == (
        st.register,
        st.path,
        st.count,
        list(st.read_path),
        list(st.read_count),
        list(st.read_bcc),
        st.pc,
    )


def test_path_writes_respect_length_bound(fig1):
    rng = random.Random(3)
    prog = node_program(fig1, 11)

    def draw():
        return Register(random_path(rng, max_len=16), rng.randint(-9, 9), random_path(rng, max_len=16))

    nbrs = [_Drawn(draw) for _ in range(prog.degree)]
    for _ in range(50):
        st = _states_for(fig1, seed=rng.randint(0, 999))[10]
        for _ in range(prog.length):
            st, ev = execute_step(st, prog, nbrs)
            assert len(st.register.path) <= fig1.n
            assert len(st.register.bcc) <= fig1.n


def test_register_bits_budget():
    budget = payload_bits(2 * 16, 4, 256)
    reg = Register(path_of(BOTTOM, *[4] * 15), -256, path_of(BOTTOM, *[4] * 15))
    assert payload_bits(len(reg.path) + len(reg.bcc), 4, 256) <= budget
    small = Register(path_of(BOTTOM), 0, path_of(BOTTOM))
    assert payload_bits(len(small.path) + len(small.bcc), 4, 256) < budget


# ---------------------------------------------------------------------------
# kept registers and reads through the register only

_FIG1 = figure1()
_FIG1_GT = ground_truth(_FIG1)


def _related_path(rng, p):
    """A path that classifies against p in any of the ways, or in none."""
    return rng.choice(
        [p[:-1] or ROOT_PATH, p + path_of(rng.randint(1, 4)), p + path_of(1, 2), p[:1] + path_of(9),
         p, p[:-1] + path_of(3)]
    )


@pytest.mark.parametrize("shuffled", [False, True], ids=["figure1", "figure1-shuffled"])
def test_kernel_reads_neighbours_only_through_their_register(shuffled):
    """Every node steps through 3 cycles from arbitrary states, round-robin,
    on two twin configurations: one against its neighbours' real states, one
    against ``_Nbr`` holders of the twin's live registers, which have no
    other attribute.  Events and full states must be equal throughout."""
    g = shuffle_ports(_FIG1, 5) if shuffled else _FIG1
    programs = [node_program(g, v) for v in range(1, g.n + 1)]
    real = init_arbitrary(g, 3).states
    twin = [st.clone() for st in real]
    live = [_Nbr(st.register) for st in twin]
    for k in range(3 * max(prog.length for prog in programs)):
        for v in range(1, g.n + 1):
            prog = programs[v - 1]
            if k >= 3 * prog.length:
                continue
            nbrs = g.neighbors(v)
            event = advance(real[v - 1], prog, tuple(real[w - 1] for w in nbrs))
            assert advance(twin[v - 1], prog, tuple(live[w - 1] for w in nbrs)) == event, (v, k)
            live[v - 1].register = twin[v - 1].register
            assert reference.full_state(real) == reference.full_state(twin), (v, k)


def test_unchanged_writes_keep_the_register_object():
    """From the legitimate configuration every write, the root's included,
    changes nothing and keeps ``s.register``; with the written field
    corrupted, the same write replaces it with the legitimate register."""
    g, gt = _FIG1, _FIG1_GT
    write_fields = {A_WRITE: "path", B_WRITE: "count", C_DECIDE: "bcc", C_WRITE_PARENT_BCC: "bcc",
                    R_WRITE_PATH: "path", R_WRITE_COUNT: "count", R_WRITE_BCC: "bcc"}
    covered = set()
    for v in range(1, g.n + 1):
        prog = node_program(g, v)
        neighbours = _nbrs(g, v, gt.registers)
        for pc, (kind, _) in enumerate(prog.schedule):
            if kind not in write_fields:
                continue
            s = stabilized_configuration(g, gt).states[v - 1]
            s.pc = pc
            before = s.register
            event = advance(s, prog, neighbours)
            if event.kind != "write":
                continue  # C_DECIDE or C_WRITE_PARENT_BCC whose guard failed
            assert not event.changed and s.register is before, (v, kind)

            s = stabilized_configuration(g, gt).states[v - 1]
            s.pc = pc
            field = write_fields[kind]
            wrong = -1 if field == "count" else path_of(BOTTOM, 9)
            s.register = before = s.register._replace(**{field: wrong})
            event = advance(s, prog, neighbours)
            assert event.changed and s.register is not before, (v, kind)
            assert s.register == gt.registers[v - 1]
            covered.add(kind)
    assert covered == set(write_fields)


def test_the_parent_port_is_the_lowest_whose_candidate_is_my_path():
    """Two ports with the same reverse port and equal (corrupted) read paths
    both have my path as their A_WRITE candidate, so both classify as the
    parent link.  Phase C must read and copy the bcc of the lower one, as
    the plain reference machine does."""
    g, gt = _FIG1, _FIG1_GT
    checked = 0
    for v in range(2, g.n + 1):
        prog = node_program(g, v)
        rev = prog.reverse_ports
        nbrs = _nbrs(g, v, gt.registers)
        for j, k in itertools.combinations(range(prog.degree), 2):
            if rev[j] != rev[k]:
                continue
            s = stabilized_configuration(g, gt).states[v - 1]
            s.read_path[j] = s.read_path[k] = path_of(BOTTOM, 9)
            s.path = path_of(BOTTOM, 9) + SYMBOLS[rev[j]]
            s.count = 1
            s.pc = prog.schedule.index((C_READ_PARENT_BCC, 0))
            ref = s.clone()
            for kind in ("read", "write"):
                event = advance(s, prog, nbrs)
                assert event == reference.advance(ref, prog, nbrs) and s == ref, (v, j, k)
                assert event.kind == kind and event.port == (j + 1 if kind == "read" else None)
            assert s.register.bcc == nbrs[j].register.bcc
            checked += 1
    assert checked


# ---------------------------------------------------------------------------
# the kernel against the plain reference machine

_REFERENCE_GRAPHS = (
    _FIG1,
    shuffle_ports(_FIG1, 5),
    build_graph(4, [(1, 2), (1, 3), (1, 4)]),  # a star: three degree-1 leaves
    build_graph(4, [(1, 2), (2, 3), (3, 4)]),  # a path: the root has degree 1
    generate_clustered(3, 4, 2),
)
_REFERENCE_TRUTHS = tuple(ground_truth(g) for g in _REFERENCE_GRAPHS)
_PERTURBATIONS = ("none", "pc", "path", "count", "neighbour", "neighbour-garbage", "neighbour-long")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    strategies.integers(0, len(_REFERENCE_GRAPHS) - 1),
    strategies.integers(0, 10**6),
    strategies.booleans(),
    strategies.integers(-60, 60),
    strategies.lists(
        strategies.tuples(strategies.sampled_from(_PERTURBATIONS), strategies.integers(0, 10**6)),
        max_size=12,
    ),
)
# from a legitimate start, node 4 of figure 1 (three ports) meets over-long
# paths on every port: its A_WRITE takes the truncation fallback
@example(0, 3, True, 0, [("neighbour-long", 2)])
def test_kernel_steps_like_the_plain_reference(gi, seed, legitimate, pc, perturbations):
    """``advance`` and ``reference.advance`` step two equal states side by
    side; after every step the events and the full states must be equal.
    The states start as garbage or legitimate, with any pc, and between
    steps both get the same corruption: pc, own path or count, or a
    neighbour's register.  "neighbour-long" gives every read path and every
    neighbour's register path its own path of at least n symbols, so an
    A_WRITE of a node with two or more ports takes the truncation fallback
    with one candidate per port."""
    g, gt = _REFERENCE_GRAPHS[gi], _REFERENCE_TRUTHS[gi]
    v = 1 + seed % g.n
    prog = node_program(g, v)
    if legitimate:
        s = stabilized_configuration(g, gt).states[v - 1]
        live = [_Nbr(r) for r in gt.registers]
    else:
        s = _states_for(g, seed=seed)[v - 1]
        live = [_Nbr(st.register) for st in _states_for(g, seed=seed + 1)]
    s.pc = pc
    ref = s.clone()
    nbrs = g.neighbors(v)
    neighbours = tuple(live[w - 1] for w in nbrs)

    for perturbation, x in [("none", 2 * prog.length)] + perturbations:
        rng = random.Random(x)
        if perturbation == "pc":
            s.pc = ref.pc = x % 121 - 60
        elif perturbation == "path":
            s.path = ref.path = _related_path(rng, s.register.path)
        elif perturbation == "count":
            s.count = ref.count = rng.choice([0, 0, rng.randint(-9, 9)])
        elif perturbation == "neighbour-long":
            # distinct second symbols keep the paths distinct when cut to n
            marks = rng.sample(range(1, 10), len(nbrs)) if len(nbrs) >= 2 else []
            for j, (w, mark) in enumerate(zip(nbrs, marks)):
                long = path_of(BOTTOM, mark, *(
                    rng.randint(1, 4) for _ in range(g.n - 2 + rng.randint(0, 2))
                ))
                s.read_path[j] = ref.read_path[j] = long
                live[w - 1].register = live[w - 1].register._replace(path=long)
        elif perturbation.startswith("neighbour") and nbrs:
            w = rng.choice(nbrs) - 1
            if perturbation == "neighbour":
                path = _related_path(rng, s.register.path)
                live[w].register = Register(path, rng.randint(-2, 2), _related_path(rng, path))
            else:
                live[w].register = Register(
                    random_path(rng, max_len=9), rng.randint(-99, 99), random_path(rng)
                )
        for _ in range(1 + x % (prog.length + 3)):
            event = advance(s, prog, neighbours)
            assert event == reference.advance(ref, prog, neighbours), (gi, v)
            assert s == ref, (gi, v)
