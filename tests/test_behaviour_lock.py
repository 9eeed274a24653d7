"""Behaviour lock: sha256 digests of random states, fault injection, step
streams and CLI reports.

A refactor that claims to change nothing must leave every digest here
unchanged; a change that alters behaviour on purpose updates them and says
why.  States and step events are digested field by field, not through their
reprs, so a change of representation alone does not move a digest.  The
step-stream runs are capped at a few rounds, so they lock the kernel, the
schedulers and step-triggered faults but not the stabilization rule; the
CLI reports include the stabilization verdict and move with it.  The run
digests lock every ``RunReport`` field and the round trace of whole runs,
with step faults, post-stabilization faults, closure windows and round caps,
so they cover the stabilization rule, the closure window and the space meter.
The full-state digests lock every field of every processor state, locals
and program counter included, at each fault firing and at the end of whole
runs, which the register-level digests cannot see.  Paths are digested as
tuples of ints (``reference.symbols_of``), so the digests do not depend on
how the package holds a path.
The CLI output digests pin the bytes and exit codes of ``sweep`` (row order,
failure order and the summary) and of ``dot``.
"""

import dataclasses
import hashlib

import pytest

from stabconn import cli
from stabconn.graph import figure1, generate_clustered, generate_random_connected
from stabconn.oracle import ground_truth
from stabconn.simulator import (
    POST_STABILIZATION,
    SCHEDULER_NAMES,
    FaultSpec,
    init_arbitrary,
    inject_fault,
    make_scheduler,
    run,
)

from reference import full_state, plain_register, stabilized_configuration, symbols_of, watch_runs

GRAPHS = {
    "figure1": figure1,
    "random-12": lambda: generate_random_connected(12, 7, seed=3),
    "clustered-3x4": lambda: generate_clustered(3, 4, seed=5),
}


def _digest(item) -> str:
    return hashlib.sha256(repr(item).encode()).hexdigest()


def _states(c) -> tuple:
    return full_state(c.states)


def init_digest(name: str) -> str:
    g = GRAPHS[name]()
    return _digest([_states(init_arbitrary(g, seed)) for seed in range(10)])


def fault_digest(kind: str) -> str:
    out = []
    for make in GRAPHS.values():
        g = make()
        base = init_arbitrary(g, 1)
        for seed in range(5):
            if kind == "random_fields":
                spec = FaultSpec(random_fields=3, seed=seed)
            else:
                spec = FaultSpec(targets=tuple((v, kind) for v in (1, 2, g.n)), seed=seed)
            out.append(_states(inject_fault(base, spec)))
            out.append(_states(inject_fault(base, dataclasses.replace(spec, seed=seed + 100))))
    return _digest(out)


def stream_digest(name: str, scheduler: str, seed: int) -> str:
    g = GRAPHS[name]()
    faults = [FaultSpec(trigger=3 * g.n, random_fields=2, seed=seed)]
    trace, report = run(
        g,
        make_scheduler(scheduler, seed=seed),
        init_arbitrary(g, seed),
        faults=faults,
        max_rounds=6,
        record=True,
    )
    return _digest(
        (
            [(i, pid, ev.kind, ev.field, ev.port, ev.changed) for i, pid, ev in trace.steps],
            [plain_register(reg) for reg in report.final_registers],
            [(ev.step, ev.round, ev.node, ev.fields) for ev in report.fault_events],
            report.rounds,
            report.total_steps,
        )
    )


RUN_GRAPHS = {
    **GRAPHS,
    # random:16,25,144 with init seed 144 stabilizes prematurely under round-robin
    "random-16-144": lambda: generate_random_connected(16, 10, seed=144),
}
RUN_INIT_SEEDS = {"figure1": 4, "random-12": 6, "clustered-3x4": 9, "random-16-144": 144}


def _step_fault(g, seed: int) -> FaultSpec:
    return FaultSpec(trigger=2 * g.n, random_fields=3, seed=seed)


RUN_VARIANTS = {
    "plain": lambda g: {},
    "step": lambda g: {"faults": [_step_fault(g, 11)]},
    "closure-5": lambda g: {"closure_rounds": 5},
    "closure-30": lambda g: {"closure_rounds": 30},
    "post": lambda g: {
        "faults": [FaultSpec(trigger=POST_STABILIZATION, targets=((2, "count"),), seed=12)],
        "closure_rounds": 10,
    },
    "step-post-post": lambda g: {
        "faults": [
            FaultSpec(trigger=POST_STABILIZATION, random_fields=2, seed=13),
            _step_fault(g, 14),
            FaultSpec(trigger=POST_STABILIZATION, targets=((g.n, "pc"), (1, "locals")), seed=15),
        ],
        "closure_rounds": 20,
    },
    "capped": lambda g: {"faults": [_step_fault(g, 16)], "max_rounds": 3},
}


def run_digest(name: str, variant: str) -> str:
    g = RUN_GRAPHS[name]()
    out = []
    for i, scheduler in enumerate(SCHEDULER_NAMES):
        trace, report = run(
            g,
            make_scheduler(scheduler, seed=i + 1),
            init_arbitrary(g, RUN_INIT_SEEDS[name]),
            record=True,
            **RUN_VARIANTS[variant](g),
        )
        detection = report.detection
        out.append(
            (
                report.stabilized,
                report.stabilization_round,
                report.rounds,
                report.total_steps,
                [(ev.step, ev.round, ev.node, ev.fields) for ev in report.fault_events],
                None
                if detection is None
                else (
                    sorted(detection.bridges),
                    sorted(detection.articulation_points),
                    sorted((v, symbols_of(p)) for v, p in detection.component_of.items()),
                ),
                report.post_stabilization_changes,
                report.max_path_len,
                report.max_register_bits,
                report.scheduler,
                [plain_register(reg) for reg in report.final_registers],
                [(r.index, r.end_step, r.legitimate, r.changed) for r in trace.rounds],
            )
        )
    return _digest(out)


#: whole runs whose full processor states are locked, besides each RUNS
#: graph under these variants: two post pc faults into the legitimate
#: configuration of random:40,79 (seed 0), a cascade and then, under
#: round-robin, a premature verdict with closure-window changes
FULL_STATE_VARIANTS = ("closure-30", "post", "step-post-post")
RECOVER_FAULTS = [
    FaultSpec(trigger=POST_STABILIZATION, targets=((v, "pc"),), seed=3) for v in (27, 33)
]


def full_state_digest(name: str, variant: str) -> str:
    """Every processor state, fields past the register included, before and
    after each fault firing and at the end of the run, per scheduler."""
    if variant == "recover":
        g = generate_random_connected(40, 40, seed=0)
        init = stabilized_configuration(g, ground_truth(g))
        kwargs = {"faults": RECOVER_FAULTS, "closure_rounds": 60}
    else:
        g = RUN_GRAPHS[name]()
        init = init_arbitrary(g, RUN_INIT_SEEDS[name])
        kwargs = RUN_VARIANTS[variant](g)
    out = []
    with watch_runs() as log:
        for i, scheduler in enumerate(SCHEDULER_NAMES):
            log.firings.clear()
            run(g, make_scheduler(scheduler, seed=i + 1), init, **kwargs)
            firings = [(steps, before, after) for steps, _, before, after in log.firings]
            out.append((firings, full_state(log.states)))
    return _digest(out)


def cli_digest(argv: list[str], out_path) -> tuple[int, str]:
    code = cli.main([*argv, "--out", str(out_path)])
    return code, hashlib.sha256(out_path.read_bytes()).hexdigest()


INIT = {
    "figure1": "59f75f4aba9bf40aa8794481d684fafd4482a916850923f41729858568ec4357",
    "random-12": "c56d332f67d83d051939acfa100f26cee3c55b2b1b57de5629789f802fc08a9f",
    "clustered-3x4": "06cc43c867e65cf02f8fe15330373e37681858472cf6ba3a9dd5ac61a028afc8",
}

FAULTS = {
    "path": "18bdfcc5498968e1673131bd6b568c0539e34ef543a0790c0cd883c00b97938a",
    "count": "2c59a49312db2de64397c1d5b92dbb3e4b2529e5638d72dc2c423c2d96ae00f2",
    "bcc": "e585372939da2b7c27d143ad95d298df41f808552505bd6fc936e0f86173c1e3",
    "pc": "e3e1f5636f2e6fc0a1d3b6229c692036552fa64fe1bab8dd5aa264a20c150ce5",
    "locals": "e47957ee4bbc070342cc1417b69539782f938b180c97c95c2552c92d43c3afdb",
    "random_fields": "294dc654e01e01564a4114a91686ff786ee29ee39911692dbc897f356aad7351",
}

STREAMS = {
    ("figure1", "round-robin", 0): "ddd3eade002c92542996c275f8699bfca842549a5bf1bffce00b5744d74b01de",
    ("figure1", "random", 1): "4229231733fc13ebf8a3de3f6f413ac57339f78eaede1589312bfa7ea7e2fb1e",
    ("random-12", "weighted", 2): "333f92850738417e6dd5f34915d2aba82fea2e96346dc6a03f49f802044cb7eb",
    ("random-12", "round-robin", 3): "39457c5fc43355e3081a43acc67f06991449993202f92fc8ed94035e729c2379",
    ("clustered-3x4", "random", 4): "16c647e2b95f6028cd2c47102de5170e7c69392641571b54c44541f5fc6e6ff3",
    ("clustered-3x4", "weighted", 5): "624d4674bf3c575d9932fa04fecd72816a985b5fc7e83e996eea4937494c1aaa",
}

RUNS = {
    ("figure1", "plain"): "2c5e5614d7a152e96cc7ca413fe8d88ea38df105bc45b68b04b8f5052a819954",
    ("figure1", "step"): "a0c9e173f3708bdf49a24509b4c08b6e82fbf76c60a9489cd5a8e7b29af00e26",
    ("figure1", "closure-5"): "bb23fb097b97bbc171bba03c70701f6c829d96237ddcc24609739872f384579a",
    ("figure1", "closure-30"): "e486320f4eb56bf1ebbdb5d163aeb84f12e0f6b8e26d42423b46e78195e0fd35",
    ("figure1", "post"): "42497127b51a5cc5b03118e3fd62b41dd54a49de397c7d8049561620b4fec964",
    ("figure1", "step-post-post"): "97609a75a553f856bdfce077c64e82f11e275a30fa18a9e16bebcf4078797771",
    ("figure1", "capped"): "8ee7f836a1d4ab803cb98128d88e6c9b70788fcd2e55956de06cc3fa8290d09b",
    ("random-12", "plain"): "8b0043dc20f83fd19db18814dbdde44aee137a8b9c5cd14d5066f058064f5258",
    ("random-12", "step"): "879ffe49731d6088079fc446b3b0cee3042cd928936c7adfe76607d66e4d0ddc",
    ("random-12", "closure-5"): "913b20cf86dc9409d7b2edaa371ea8220efd36b88e4166ae44bd74aa66be28ae",
    ("random-12", "closure-30"): "572dfbdfbe881241f1714978dcb716367bef18bcafea89368c3922c6b3b4a734",
    ("random-12", "post"): "82adc340624c8524d5779c19398d510424fc5148203dc89c0ac9755e8d48da94",
    ("random-12", "step-post-post"): "7692cb4988e95616aea780f16f1bf7ddaa9ed4daeff35e2dcacb322455587f5b",
    ("random-12", "capped"): "f0f772470ab809e57ea08488bdafabd555c2aa935837c532171e95b249408c04",
    ("clustered-3x4", "plain"): "50d30a61ca941e4f077a785e047aca9d07e056ce853df0943af2959e46834efb",
    ("clustered-3x4", "step"): "9acf35e966d993694b1143226b663987ec25519e7b53841bb1e674641a53ae7d",
    ("clustered-3x4", "closure-5"): "06ab237c0087b7f9b52883648cb3b66c9dc3d8a12061792482e668dda6bbd57a",
    ("clustered-3x4", "closure-30"): "37269ef061d0cd02fe028b031e4dcb56a374d10c4021da4800dfe04b104354ae",
    ("clustered-3x4", "post"): "65e99337883fbd7ec17a76172c6bf718713beacbd908b43dee8683f0aa40ee10",
    ("clustered-3x4", "step-post-post"): "b4c1e83eb034597edb66435eaa63e0c3ffdfd5cd84fd46176a791677fa905e50",
    ("clustered-3x4", "capped"): "8e18641841d804238960c1c92439c2fb12e18810cb7de2696df7236456a3c4e5",
    ("random-16-144", "plain"): "1aa6d96a2cf47ed2c3d0b1590b46970c0268fad3480ff05898c6932e67a33b25",
    ("random-16-144", "step"): "17962853821f347de05b2f5bd16af785d97af4fd1d18ab38dcfddfc13788fdec",
    ("random-16-144", "closure-5"): "fe18d8d2230d2f12a3a2b26d261bb9bf12fdd79ce3f2aa0645ec6f558e2e482e",
    ("random-16-144", "closure-30"): "09aed83ce03e3080ccce15c957142eec640e034903eb1d9d9526eee1f974a329",
    ("random-16-144", "post"): "eb7571331210e9e6170248e23f9b3343908c9ba133d0497358cb46fd3cdb9b1d",
    ("random-16-144", "step-post-post"): "60bc34c4f088b78ceaeb2759d3747e643f017e80ca6ea7a201a61caac847132b",
    ("random-16-144", "capped"): "6b8c0fffa5803bb5433478d4a85e82a8e587603106c9009ee6459a78ffced1d8",
}

FULL_STATES = {
    ("figure1", "closure-30"): "dfe528183285703e1f0a4506f68405b38ec658c2f1d11cbd4410317902cd0b91",
    ("figure1", "post"): "13e01fb70c83994162c6f5bcf8100b39c9af2ee7f8c99d2783f3766aa942eda0",
    ("figure1", "step-post-post"): "ad5a2feea31b1bf220f77927e0d7dab926ace5419017d9f78abe1fe6a79f1118",
    ("random-12", "closure-30"): "c2bc90b2b9569cc6bf86cac673993913adaf5864435b845ac039365852e5dd80",
    ("random-12", "post"): "a70b77e42f468718412a51dbec814a1cc062716aff63332da0345edc5ac2ae77",
    ("random-12", "step-post-post"): "50b6bcf7df3c2d3214e7fa42240e7acd7f3b3dcbf1220f793f4cfd4eea320b07",
    ("clustered-3x4", "closure-30"): "4988a1f9516496b29a8c2ee83bccf769d10d488ac6294c0c0bf480a4b3771dcd",
    ("clustered-3x4", "post"): "e411c2851327e922cb3889b725a2ad679bb67f82d95915c01a4ffb08b4e1ebe2",
    ("clustered-3x4", "step-post-post"): "20f37059116eaf2ed0663183e2e4602fd4a9c065b4d8adcd94b382ed6eef366c",
    ("random-16-144", "closure-30"): "9db2c39056ba4e7858a31e3a1b039b3e336ca04293da78b1f0c4d734465b16e8",
    ("random-16-144", "post"): "ac1b0e954bdaf4fe38aef485e5a4b1f937c03b1e8c4d4d29151430a50130822f",
    ("random-16-144", "step-post-post"): "0177f8cac9925a87dbd6c3bec6fc34b42819c7c5b38f818e9565da433f1271db",
    ("random-40-legitimate", "recover"): "ffda33a69cb25eaf96117ccb3048ab49ae81a4b91ee5d88bb3e5cdcb0d6dd73a",
}

CLI_RUNS = {
    "run --generate figure1": (
        0,
        "6a4d66badc7e953a7008620056c8858a8bbc6f093a4b0e5c7f2819360ea3dfce",
    ),
    "run --generate random:16,25,3 --scheduler random --seed 5 --init-seed 7": (
        0,
        "060c3de73ad068e93832584db91f0e5550e0a3acccb6114aadbf4a63feeb71e4",
    ),
    "run --generate figure1 --max-rounds 3": (
        1,
        "134acee484f1845a6754b69c9d1f688e80175005a87b0315d646fda2da0bc528",
    ),
    "run --generate clustered:3x4 --scheduler weighted --seed 2 --init-seed 9"
    " --faults post:node=5,field=count:seed=3 --closure-rounds 10": (
        0,
        "d7acf8d9d1ab7b75fe51ed1ee78d770f5781a148c9795d3294f7dda1c955cd31",
    ),
    "run --generate figure1 --init-seed 4 --faults step=40:random=3:seed=1"
    " --faults post:node=11,field=all:seed=2 --closure-rounds 20": (
        0,
        "f18fd61afdfe36e3343fc8da31e4a61314397f980e1a7d1aa2f6f294367ea7cf",
    ),
    "run --generate random:12,18,6 --scheduler random --seed 1"
    " --faults post:node=7,field=locals:seed=4 --faults post:node=3,field=pc:seed=5": (
        0,
        "7f8d17ed8924f6b8c15c69b60a568d9c0d8d428e82723315bf8eb9b44b36bb63",
    ),
}

CLI_OUTPUTS = {
    "sweep --graphs clustered:2x3;random:8,9 --seeds 0-5": (
        0,
        "ff6d68399f9461ce848438dcf0bc694c90f124851e568b3226829cca3d03f19a",
    ),
    # failures are listed in generation order (random first), rows sorted
    "sweep --graphs random:4,3;clustered:2x3 --seeds 3 --max-rounds 10": (
        1,
        "bf34bac3f94ffde43cbcc26e58f9441de637572c10ac8d9d5dd4db2f71159737",
    ),
    "dot --generate figure1": (
        0,
        "dc32964827c3c4ddf2d356a027b1df183fec47960f7d024b3868e9f3eb1205c2",
    ),
    "dot --generate clustered:2x3 --seed 3": (
        0,
        "a8531383725b0de13df995a7042042ff1a1a1146ca8b9e9b3e38d78e2773667e",
    ),
    "dot --generate random:12,18,6 --seed 1": (
        0,
        "70bf6c39dc69a6d24dfa1053e4f4c59ddfd72a8ebe45bbc10c8b4e2682accc6c",
    ),
}


@pytest.mark.parametrize("name", sorted(INIT))
def test_init_arbitrary_lock(name):
    assert init_digest(name) == INIT[name]


@pytest.mark.parametrize("kind", sorted(FAULTS))
def test_inject_fault_lock(kind):
    assert fault_digest(kind) == FAULTS[kind]


@pytest.mark.parametrize("case", sorted(STREAMS))
def test_run_step_stream_lock(case):
    assert stream_digest(*case) == STREAMS[case]


@pytest.mark.parametrize("case", sorted(RUNS))
def test_run_report_lock(case):
    assert run_digest(*case) == RUNS[case]


@pytest.mark.parametrize("case", sorted(FULL_STATES))
def test_run_full_state_lock(case):
    assert full_state_digest(*case) == FULL_STATES[case]


@pytest.mark.parametrize("flags", sorted(CLI_RUNS))
def test_cli_run_report_lock(flags, tmp_path):
    assert cli_digest(flags.split(), tmp_path / "report.json") == CLI_RUNS[flags]


@pytest.mark.parametrize("flags", sorted(CLI_OUTPUTS))
def test_cli_sweep_and_dot_lock(flags, tmp_path):
    assert cli_digest(flags.split(), tmp_path / "output") == CLI_OUTPUTS[flags]
