"""Smoke test of ``bench/replay_equivalence.py``: 20 seeded cases."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_replay_equivalence_finds_no_mismatch(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "replay_equivalence", ROOT / "bench" / "replay_equivalence.py"
    )
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = tmp_path / "equivalence.json"
    assert bench.main(["--cases", "20", "--seed", "0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["cases"] == 20
    assert doc["mismatches"] == 0 and doc["found"] == []
    assert doc["faults_fired"] > 0
    assert doc["loops_checked"] > 0
    # the replaying runs call the kernel, but skip most of their steps
    assert 0 < doc["kernel_calls"] < doc["steps"]
