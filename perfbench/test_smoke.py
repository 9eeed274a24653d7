"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from tracer import Binding, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert _units("end_to_end") == bench.END_TO_END
    assert _units("per_layer") == {name: unit for name, (unit, _) in bench.PER_LAYER.items()}


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_metric_names_and_digest(workload):
    plain = bench.benchmark(workload, seed=5, seconds=0, trace=False, tiny=True)
    again = bench.benchmark(workload, seed=5, seconds=0, trace=False, tiny=True)
    traced = bench.benchmark(workload, seed=5, seconds=0, trace=True, tiny=True)
    for out, section in ((plain, "end_to_end"), (traced, "per_layer")):
        result = out["result"]
        assert result["correct"] and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    assert len(plain["digests"]) == 1
    assert plain["digests"] == again["digests"] == traced["digests"]
    other = bench.benchmark(workload, seed=6, seconds=0, trace=False, tiny=True)
    assert other["digests"] != plain["digests"]


def test_missing_name_is_unmeasured_and_bad_result_unobserved():
    def present():
        return 1

    owner = SimpleNamespace(present=present)
    tracer = Tracer([
        Binding(owner, "present", "a", observe=lambda counts, result: result.kind),
        Binding(owner, "gone", "b"),
    ])
    with tracer:
        tracer.begin_instance(0)
        assert owner.present() == 1
    assert owner.present is present
    assert tracer.unmeasured == ["b"]
    assert tracer.unobserved == {"a"}
    assert tracer.totals()["a"].calls == 1
