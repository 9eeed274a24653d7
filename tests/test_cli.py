import json

import jsonschema
import pytest

from stabconn import analysis, simulator
from stabconn.cli import (
    EXIT_MISMATCH,
    EXIT_NOT_STABILIZED,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    exit_code,
    main,
    parse_fault_spec,
    parse_generate_spec,
    parse_seed_range,
)
from stabconn.graph import build_graph, figure1, render_graph
from stabconn.simulator import POST_STABILIZATION


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "figure1.txt"
    path.write_text(render_graph(figure1()), encoding="utf-8")
    return str(path)


REPORT_SCHEMA = {
    "type": "object",
    "required": ["graph", "run", "faults", "detection", "certification"],
    "additionalProperties": False,
    "properties": {
        "graph": {
            "type": "object",
            "required": ["n", "m", "d", "delta"],
            "additionalProperties": False,
            "properties": {k: {"type": "integer"} for k in ("n", "m", "d", "delta")},
        },
        "run": {
            "type": "object",
            "required": [
                "scheduler", "seeds", "rounds", "steps",
                "stabilization_round", "stabilized",
            ],
            "additionalProperties": False,
            "properties": {
                "scheduler": {"type": "string"},
                "seeds": {
                    "type": "object",
                    "required": ["scheduler", "init"],
                    "properties": {"scheduler": {"type": "integer"}, "init": {"type": "integer"}},
                },
                "rounds": {"type": "integer"},
                "steps": {"type": "integer"},
                "stabilization_round": {"type": ["integer", "null"]},
                "stabilized": {"type": "boolean"},
            },
        },
        "faults": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["step", "round", "node", "fields"],
                "properties": {
                    "step": {"type": "integer"},
                    "round": {"type": "integer"},
                    "node": {"type": "integer"},
                    "fields": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "detection": {
            "type": ["object", "null"],
            "required": ["bridges", "articulation_points", "components"],
            "properties": {
                "bridges": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "integer"},
                              "minItems": 2, "maxItems": 2},
                },
                "articulation_points": {"type": "array", "items": {"type": "integer"}},
                "components": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["label", "members"],
                        "properties": {
                            "label": {"type": "string"},
                            "members": {"type": "array", "items": {"type": "integer"}},
                        },
                    },
                },
            },
        },
        "certification": {
            "type": ["object", "null"],
            "required": ["match", "mismatches"],
            "properties": {
                "match": {"type": "boolean"},
                "mismatches": {"type": "array", "items": {"type": "string"}},
            },
        },
    },
}


def test_exit_code_mapping():
    assert exit_code(True, True) == EXIT_OK
    assert exit_code(True, False) == EXIT_MISMATCH
    assert exit_code(False, None) == EXIT_NOT_STABILIZED


def test_run_on_figure1_file(fig1_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["run", "--graph", fig1_file, "--scheduler", "round-robin", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["graph"] == {"n": 16, "m": 20, "d": 7, "delta": 4}
    assert doc["run"]["stabilized"] is True
    assert doc["detection"]["bridges"] == [[1, 4], [5, 6], [10, 11], [11, 14]]
    assert doc["detection"]["articulation_points"] == [1, 4, 5, 6, 10, 11, 14]
    assert len(doc["detection"]["components"]) == 5
    assert doc["certification"] == {"match": True, "mismatches": []}


def test_reports_are_byte_identical(fig1_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["run", "--graph", fig1_file, "--seed", "3", "--init-seed", "4"]
    assert main(flags + ["--out", str(a)]) == EXIT_OK
    assert main(flags + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_run_generate_single_cluster(capsys):
    code = main(["run", "--generate", "clustered:1x3"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["detection"]["bridges"] == []
    assert len(doc["detection"]["components"]) == 1


def test_run_with_fault_flag(capsys):
    code = main(
        [
            "run",
            "--generate",
            "figure1",
            "--faults",
            "post:node=3,field=path:seed=5",
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["faults"] and doc["faults"][0]["node"] == 3


def test_non_stabilized_report_is_schema_valid(fig1_file, capsys):
    main(["run", "--graph", fig1_file, "--max-rounds", "1"])
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["detection"] is None and doc["certification"] is None


def test_run_non_convergence_exit(fig1_file, capsys):
    code = main(["run", "--graph", fig1_file, "--max-rounds", "1"])
    capsys.readouterr()
    assert code == EXIT_NOT_STABILIZED


def test_usage_errors(capsys):
    assert main(["run"]) == EXIT_USAGE
    assert main(["run", "--generate", "bogus:1"]) == EXIT_USAGE
    assert main(["sweep", "--graphs", "clustered:2x3", "--seeds", "5-3"]) == EXIT_USAGE
    assert main(["nope"]) == EXIT_USAGE
    assert main(["run", "--graph", "/does/not/exist"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "step=-1:random=1"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "step=0:random=-1"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "post:random=-2"]) == EXIT_USAGE
    # fault targets are checked against the graph before the first step,
    # also when the run would never reach the trigger
    assert main(["run", "--generate", "figure1", "--faults", "step=99999999:node=99,field=path"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--max-rounds", "5",
                 "--faults", "post:node=99,field=path"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "step=0:random=65"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--max-rounds", "0"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--closure-rounds", "-3"]) == EXIT_USAGE
    assert main(["sweep", "--graphs", "clustered:2x3", "--seeds", "2", "--max-rounds", "-2"]) == EXIT_USAGE
    assert main(["dot", "--generate", "figure1", "--max-rounds", "0"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "post:random=1:salt=3"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "step=x:random=1"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "post:node=x,field=path"]) == EXIT_USAGE
    assert main(["run", "--generate", "figure1", "--faults", "post:node=3,colour=red"]) == EXIT_USAGE
    assert main(["sweep", "--graphs", ";", "--seeds", "2"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_a_degree_above_255_is_refused(tmp_path, capsys):
    # a path symbol is one byte, so no port may exceed 255
    star = tmp_path / "star.txt"
    star.write_text(render_graph(build_graph(257, [(1, v) for v in range(2, 258)])), encoding="utf-8")
    complete = ["sweep", "--graphs", "random:257,32896", "--seeds", "1"]  # K257
    for argv in (["run", "--graph", str(star)], ["dot", "--graph", str(star)], complete):
        assert main(argv) == EXIT_USAGE
        _, err = capsys.readouterr()
        assert err == "error: node 1 has degree 256; path symbols name ports up to 255\n"


def test_random_spec_with_too_few_edges_names_m(capsys):
    assert main(["run", "--generate", "random:5,3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == "usage error: bad --generate spec 'random:5,3': m=3 must be at least n-1=4\n"


def test_closure_ending_outside_legitimacy_is_not_stabilized(capsys):
    # the observer declares round 149 too early; the registers are still
    # illegitimate when a 5-round closure window ends
    argv = ["run", "--generate", "random:16,25,144", "--init-seed", "144", "--closure-rounds", "5"]
    assert main(argv) == EXIT_NOT_STABILIZED
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["run"]["stabilized"] is False
    assert doc["run"]["stabilization_round"] is None
    assert doc["detection"] is None and doc["certification"] is None


def test_fault_in_a_closure_window_leaves_it_not_stabilized(capsys):
    # the run declares at step 2288; a path fault at step 2300 is still
    # being repaired when the 3-round window ends
    argv = [
        "run", "--generate", "figure1",
        "--faults", "step=2300:node=3,field=path:seed=5", "--closure-rounds", "3",
    ]
    assert main(argv) == EXIT_NOT_STABILIZED
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["run"]["stabilized"] is False
    assert doc["run"]["stabilization_round"] is None
    assert doc["detection"] is None and doc["certification"] is None


def test_run_certifies_once(monkeypatch, capsys):
    calls = []
    certify = analysis.certify

    def counting_certify(*args):
        calls.append(args)
        return certify(*args)

    monkeypatch.setattr(analysis, "certify", counting_certify)
    assert main(["run", "--generate", "figure1"]) == EXIT_OK
    capsys.readouterr()
    assert len(calls) == 1

    # sweep: one call per stabilized run, none for the runs that did not
    calls.clear()
    argv = ["sweep", "--graphs", "random:4,3;clustered:2x3", "--seeds", "3", "--max-rounds", "10"]
    assert main(argv) == EXIT_NOT_STABILIZED
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["stabilized"] == 2
    assert len(calls) == 2


def test_sweep_small_matrix(tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--graphs",
            "clustered:2x3;random:8,9",
            "--seeds",
            "0-5",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["summary"]["runs"] == 12
    assert doc["summary"]["certified"] == 12
    assert doc["summary"]["failures"] == []
    assert doc["summary"]["max_round_ratio"] <= 10
    assert {r["scheduler"] for r in doc["runs"]} == {"round-robin", "random", "weighted"}


def test_sweep_exit_not_stabilized(capsys):
    code = main(["sweep", "--graphs", "random:4,3", "--seeds", "3", "--max-rounds", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_NOT_STABILIZED
    assert doc["summary"]["stabilized"] == 0


def test_sweep_exit_mismatch_outranks_not_stabilized(monkeypatch, capsys):
    def failing_certify(detection, g):
        return analysis.CertificationReport(match=False, mismatches=("forced",))

    monkeypatch.setattr(analysis, "certify", failing_certify)
    # with 10 rounds, seed 0 of random:4,3 does not stabilize and seeds 1, 2 do
    code = main(["sweep", "--graphs", "random:4,3", "--seeds", "3", "--max-rounds", "10"])
    reasons = {f["reason"] for f in json.loads(capsys.readouterr().out)["summary"]["failures"]}
    assert reasons == {"did not stabilize", "certification mismatch"}
    assert code == EXIT_MISMATCH


def test_dot_figure1(capsys):
    code = main(["dot", "--generate", "figure1"])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("style=bold, color=red") == 4
    assert text.count("doublecircle") == 7
    fills = {line.split('fillcolor="')[1].split('"')[0] for line in text.splitlines() if "fillcolor" in line}
    assert len(fills) == 5
    assert text.count("style=dashed") == 5  # one non-tree edge per cycle


def test_dot_triangle_and_single_edge(tmp_path, capsys):
    graph_file = tmp_path / "tri.txt"
    graph_file.write_text("3 3\n1 2\n2 3\n3 1\n", encoding="utf-8")
    assert main(["dot", "--graph", str(graph_file)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "bold" not in text
    assert "doublecircle" not in text
    fills = {line.split('fillcolor="')[1].split('"')[0] for line in text.splitlines() if "fillcolor" in line}
    assert len(fills) == 1

    edge_file = tmp_path / "edge.txt"
    edge_file.write_text("2 1\n1 2\n", encoding="utf-8")
    assert main(["dot", "--graph", str(edge_file)]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("style=bold, color=red") == 1
    assert "doublecircle" not in text  # both endpoints have degree one


def test_dot_draws_without_simulating(monkeypatch, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("dot must not simulate")

    for name in ("run", "init_arbitrary", "make_scheduler"):
        monkeypatch.setattr(simulator, name, no_simulation)
    assert main(["dot", "--generate", "clustered:2x3", "--seed", "3"]) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("style=bold, color=red") == 1


def test_run_dot_matches_dot_command(tmp_path, capsys):
    from_run, from_dot = tmp_path / "run.dot", tmp_path / "dot.dot"
    flags = ["--generate", "clustered:2x3", "--seed", "3"]
    assert main(["run", *flags, "--dot", str(from_run)]) == EXIT_OK
    assert main(["dot", *flags, "--out", str(from_dot)]) == EXIT_OK
    capsys.readouterr()
    assert from_run.read_bytes() == from_dot.read_bytes()


def test_run_dot_refused_when_not_stabilized(tmp_path, capsys):
    out = tmp_path / "never.dot"
    code = main(["run", "--generate", "figure1", "--max-rounds", "1", "--dot", str(out)])
    assert code == EXIT_NOT_STABILIZED
    assert "cannot export DOT: run did not stabilize" in capsys.readouterr().err
    assert not out.exists()


def test_generate_spec_grammar():
    g = parse_generate_spec("random:10,12,5", seed=0)
    assert g.n == 10 and g.edge_count == 12
    assert parse_generate_spec("random:10,12", seed=5) == g
    c = parse_generate_spec("clustered:3x4", seed=2)
    assert c.n == 12
    assert parse_generate_spec("figure1", seed=0) == figure1()
    for bad in ("random:10", "clustered:3", "clustered:x", "wat", "random:a,b"):
        with pytest.raises(UsageError):
            parse_generate_spec(bad, seed=0)


def test_fault_spec_grammar():
    f = parse_fault_spec("step=120:node=3,field=path:seed=9")
    assert f.trigger == 120 and f.targets == ((3, "path"),) and f.seed == 9
    f = parse_fault_spec("post:random=4")
    assert f.trigger == POST_STABILIZATION and f.random_fields == 4
    f = parse_fault_spec("post:node=2,field=all")
    assert f.targets == ((2, "path"), (2, "count"), (2, "bcc"))
    for bad in (
        "sometimes:node=1,field=path",
        "post:node=1",
        "post:node=1,field=wat",
        "post:random=x",
        "post:node=1,field=path:seed=x",
        "post",
        "post:node=1,field=pc,node=2",
        "post:node=1,field=path,field=count",
    ):
        with pytest.raises(UsageError):
            parse_fault_spec(bad)


@pytest.mark.parametrize(
    "spec, what",
    [
        ("post:random=1:seed=x", "seed"),
        ("step=1.5:random=1", "trigger"),
        ("post:random=", "target"),
        ("post:node=x,field=path", "node"),
    ],
)
def test_fault_spec_names_the_integer_it_cannot_read(spec, what):
    with pytest.raises(UsageError) as exc:
        parse_fault_spec(spec)
    assert str(exc.value) == f"bad --faults {what} in {spec!r}"


def test_seed_range_grammar():
    assert parse_seed_range("0-3") == [0, 1, 2, 3]
    assert parse_seed_range("4") == [0, 1, 2, 3]
    with pytest.raises(UsageError):
        parse_seed_range("0")
    with pytest.raises(UsageError):
        parse_seed_range("x")
