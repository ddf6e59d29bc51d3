"""Smoke test: demos/kernel_profile.py runs end to end with one timed repeat."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

DEMO = Path(__file__).resolve().parents[1] / "demos" / "kernel_profile.py"


def test_kernel_profile_demo_runs(monkeypatch, capsys):
    # the demo pins BLAS threads and switches numpy's huge-page advice off
    # for its process; give both back to the tests that run after it
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    multiarray = (getattr(np, "_core", None) or np.core).multiarray
    huge_pages = multiarray._set_madvise_hugepage(False)
    try:
        spec = importlib.util.spec_from_file_location("kernel_profile", DEMO)
        demo = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(demo)
        monkeypatch.setattr(demo, "REPEATS", 1)
        demo.main()
    finally:
        multiarray._set_madvise_hugepage(huge_pages)
    out = capsys.readouterr().out
    for line in ("workers: ", "training step, T=10, B=16:", "allocation peak",
                 "untaped unroll, T=1, B=8:", "untaped unroll, T=10, B=8:", "process peak RSS after training"):
        assert line in out
    assert "0:conv2d" in out and "readout" in out
    assert "(1 worker)" in out
    # the training step's table: forward and backward ms per layer, with all
    # workers and with one
    step = out.split("training step, T=10, B=16:", 1)[1].split("process peak RSS", 1)[0]
    header = step.splitlines()[1].split()
    assert header[0] == "layer" and header.count("fwd") == 2 and header.count("bwd") == 2
    assert "worker" in header
    ms = {line.split()[0]: [float(v) for v in re.findall(r"([0-9.]+) ms", line)]
          for line in step.splitlines()[2:]}
    for layer in ("0:conv2d", "lif", "2:avgpool2d", "3:conv2d", "readout"):
        assert len(ms[layer]) == 4
    assert ms["3:conv2d"][1] > 0  # its backward ran, with all workers
    # the mlp-small step: three parts that add up to the step, and the LIF
    # layer's backward within the backward
    mlp = out.split("mlp-small TKS step, T=10, B=32:", 1)[1].split("allocation peak", 1)[0]
    step = float(re.match(r" ([0-9.]+) ms", mlp).group(1))
    parts = {name.strip(): (float(m), float(share)) for name, m, share in
             re.findall(r"^ {2}(.+?) +([0-9.]+) ms +([0-9.]+)%$", mlp, re.M)}
    assert list(parts) == ["forward+loss", "backward", "lif_sequence", "AdamW.step"]
    whole = ("forward+loss", "backward", "AdamW.step")
    assert sum(parts[n][0] for n in whole) == pytest.approx(step, abs=0.01)
    assert sum(parts[n][1] for n in whole) == pytest.approx(100, abs=0.2)
    assert 0 < parts["lif_sequence"][0] < parts["backward"][0]
