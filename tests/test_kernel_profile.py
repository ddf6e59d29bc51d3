"""Smoke test: demos/kernel_profile.py runs end to end with one timed repeat."""

import importlib.util
from pathlib import Path

import numpy as np

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
    for line in ("training step, T=10, B=16:", "allocation peak",
                 "untaped unroll, T=1, B=8:", "untaped unroll, T=10, B=8:", "process peak RSS after training"):
        assert line in out
    assert "0:conv2d" in out and "readout" in out
