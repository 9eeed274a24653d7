"""Smoke test of ``bench/run_bench.py``: this tree on all three sides, n = 16."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_run_bench_compares_a_tree_with_itself(tmp_path):
    spec = importlib.util.spec_from_file_location("run_bench", ROOT / "bench" / "run_bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.SIZES = (16,)
    bench.PAIRS = 2
    out = tmp_path / "ab.json"
    try:
        assert bench.main(["--base", str(ROOT), "--out", str(out)]) == 0
    finally:
        sides = ("stabconn_base", "stabconn_null", "stabconn_change")
        for name in [m for m in sys.modules if m.split(".")[0] in sides]:
            del sys.modules[name]
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert set(doc["cases"]) == {"random:16,31", "clustered:4x4"}
    for row in doc["cases"].values():
        assert row["n"] == 16 and row["stabilized"] and row["pairs"] == 2
        assert row["agree"] == {"graph": True, "init": True, "kernel": True, "run": True, "report": True}
        assert row["kernel"]["change_steps_per_s"] > 0
        for layer in ("ground_truth", "init_arbitrary", "kernel", "run", "certify", "build_report"):
            assert row[layer]["median_ratio"] > 0 and row[layer]["null_median_ratio"] > 0
            assert 0 <= row[layer]["won_share"] <= 1 and 0 <= row[layer]["null_won_share"] <= 1
