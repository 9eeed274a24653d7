"""The benchmark's tracer must find a name for every layer it measures.

``perfbench/run.py`` wraps public names of the stabconn modules, and a layer
whose names have all gone reads zero.  This builds its bindings from the
modules already imported here, so ``sys.modules`` is left alone.
"""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from stabconn import analysis, cli, graph, oracle, protocol, simulator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_layer_has_a_binding(monkeypatch):
    # run.py imports its tracer as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    from tracer import Tracer

    modules = SimpleNamespace(
        graph=graph, oracle=oracle, protocol=protocol,
        simulator=simulator, analysis=analysis, cli=cli,
    )
    assert Tracer(bench.layer_bindings(modules)).unmeasured == []
