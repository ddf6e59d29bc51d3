"""The benchmark under perfbench/ looks library functions up by name when it
traces a run (`--trace 1`). This test builds its tracer and per-module report
on no work at all, so deleting or renaming a name it reads fails here, in
milliseconds, instead of in a traced benchmark run."""

import importlib.util
import os
from types import SimpleNamespace

import tksnn

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_report_finds_every_name_it_reads():
    tracer = load("spans").Tracer(tksnn)
    report = load("run").per_layer(SimpleNamespace(traced_rounds=0, units={}), tracer)
    assert report["tks.loss_ms"] == (0.0, "ms")
    assert report["trainer.steps"] == (0.0, "count")
