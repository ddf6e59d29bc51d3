"""Smoke test: demos/kernel_profile.py runs end to end with one timed repeat."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

DEMO = Path(__file__).resolve().parents[1] / "demos" / "kernel_profile.py"


def load_demo():
    spec = importlib.util.spec_from_file_location("kernel_profile", DEMO)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


def test_kernel_profile_demo_runs(monkeypatch, capsys):
    # the demo pins BLAS threads and switches numpy's huge-page advice off
    # for its process; give both back to the tests that run after it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    multiarray = (getattr(np, "_core", None) or np.core).multiarray
    huge_pages = multiarray._set_madvise_hugepage(False)
    try:
        demo = load_demo()
        monkeypatch.setattr(demo, "REPEATS", 1)
        demo.main()
    finally:
        multiarray._set_madvise_hugepage(huge_pages)
    out = capsys.readouterr().out
    for line in ("workers: ", "training step, T=10, B=16:", "allocation peak",
                 "untaped unroll, T=1, B=8:", "untaped unroll, T=10, B=8:", "process peak RSS after training"):
        assert line in out
    assert "0:conv2d" in out and "readout" in out
    # the traced step: its allocation peak, and the tape it holds before backward
    traced = re.search(r"allocation peak ([0-9.]+) MB, tape after forward and loss ([0-9.]+) MB "
                       r"\(tracemalloc\)$", out, re.M)
    assert traced and 0 < float(traced.group(2)) < float(traced.group(1))
    # every figure is taken at the process's own worker count, one column
    label = demo.column_label()
    assert "1 workers" not in out
    # the training step's table: forward and backward ms per layer, then
    # forward and backward minor faults
    step = out.split("training step, T=10, B=16:", 1)[1].split("process peak RSS", 1)[0]
    assert f"ms ({label}), minor faults" in step.splitlines()[0]
    header = step.splitlines()[1].split()
    assert header == ["layer", "fwd", *label.split(), "bwd", *label.split(),
                      "fwd", "faults", "bwd", "faults"]
    ms = {line.split()[0]: [float(v) for v in re.findall(r"([0-9.]+) ms", line)]
          for line in step.splitlines()[2:]}
    assert list(ms) == ["0:conv2d", "lif", "2:avgpool2d", "3:conv2d", "5:avgpool2d",
                        "6:flatten", "readout"]
    assert all(len(v) == 2 for v in ms.values())
    assert ms["3:conv2d"][1] > 0  # its backward ran
    for line in step.splitlines()[2:]:
        *_, last_ms, fwd_faults, bwd_faults = line.split()
        assert last_ms == "ms" and fwd_faults.isdigit() and bwd_faults.isdigit()
    # each unroll's table: one ms column and the layer's faults, for each
    # layer's kernel, the readout and the whole split call, which holds the
    # kernels (they run inside it, in one group at T=1)
    for t_len in (1, 10):
        unrolled = out.split(f"untaped unroll, T={t_len}, B=8:", 1)[1].splitlines()
        assert f"ms ({label}), minor faults" in unrolled[0]
        groups = demo.autodiff._sample_runs(8, t_len * demo.new_model().step_work)
        assert unrolled[0].endswith(f"; {len(groups) - 1} group" + "s" * (len(groups) > 2))
        assert unrolled[1].split() == ["layer", *label.split(), "faults"]
        assert [line.split()[0] for line in unrolled[2:10]] == list(ms) + ["split"]
        assert all(len(re.findall(r"[0-9.]+ ms", line)) == 1 for line in unrolled[2:10])
        took = {line.split()[0]: float(re.search(r"([0-9.]+) ms", line).group(1))
                for line in unrolled[2:10]}
        assert all(took[name] > 0 for name in took if name != "6:flatten")
        if len(groups) == 2:  # one group, on the calling thread: the split holds its kernels
            kernels = sum(took[name] for name in ms if name != "readout")
            assert 0 < kernels <= took["split"] + 0.01  # rows print to 1 us
    # the mlp-small step: three parts that add up to the step, and the LIF
    # layer's backward within the backward
    mlp = out.split("mlp-small TKS step, T=10, B=32:", 1)[1].split("allocation peak", 1)[0]
    step = float(re.match(r" ([0-9.]+) ms", mlp).group(1))
    assert mlp.splitlines()[0].endswith("(sum of the medians of its parts), 9 tape nodes")
    parts = {name.strip(): (float(m), float(share)) for name, m, share in
             re.findall(r"^ {2}(.+?) +([0-9.]+) ms +([0-9.]+)%$", mlp, re.M)}
    assert list(parts) == ["forward+loss", "backward", "lif_sequence", "AdamW.step"]
    whole = ("forward+loss", "backward", "AdamW.step")
    assert sum(parts[n][0] for n in whole) == pytest.approx(step, abs=0.01)
    assert sum(parts[n][1] for n in whole) == pytest.approx(100, abs=0.2)
    assert 0 < parts["lif_sequence"][0] < parts["backward"][0]


@pytest.mark.parametrize("count,label", [(1, "1 worker"), (2, "2 workers"), (4, "4 workers")])
def test_kernel_profile_labels_its_one_column_with_the_worker_count(monkeypatch, count, label):
    demo = load_demo()
    monkeypatch.setattr(demo.autodiff, "_WORKERS", count)
    assert demo.column_label() == label


@pytest.mark.parametrize("demo", sorted(DEMO.parent.glob("*.py")), ids=lambda p: p.name)
def test_no_demo_sets_the_worker_count(demo):
    # the count is the process's own, read at import; one-worker figures come
    # from running a demo under `taskset -c 0`
    assert not re.search(r"_WORKERS\s*=[^=]", demo.read_text())
