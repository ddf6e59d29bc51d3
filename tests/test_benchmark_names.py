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


def test_traced_tks_step_reaches_every_loss_the_benchmark_times():
    # tks.loss_ms sums the spans of these three names; a TKS step that stopped
    # calling one of them by name would read as a faster loss, not an error
    tracer = load("spans").Tracer(tksnn)
    data = tksnn.synth_temporal(8, 10, 4, 0.3, seed=0)
    model = tksnn.build_model("mlp-small", data.sample_shape, 4, tksnn.LifConfig(),
                              tksnn.SurrogateSpec(), 0)
    x = tksnn.data.prepare_sequence(data.inputs, data.temporal, 10)
    tracer.install()
    try:
        with tksnn.GradTape():
            tksnn.objective(tksnn.unroll(model, x), data.labels, tksnn.TeacherConfig(mode="tks"),
                            0.5)
    finally:
        tracer.uninstall()
    for name in ("tks.ce_loss", "tks.tks_loss", "tks.final_loss"):
        assert tracer.calls[tracer.names.index(name)] >= 1, name
    # autodiff.matmul_ms times the Linear layers: the hidden one and the readout
    # each record their product and bias as one autodiff.matmul
    assert tracer.calls[tracer.names.index("autodiff.matmul")] == 2
