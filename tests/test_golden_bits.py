"""Committed SHA-256 digests of the checkpoints two fixed training recipes write,
and of the evaluation reports one timestep sweep of the first recipe's model gives.

The determinism guarantee says one config and one seed give the same bits on
one machine; these digests pin those bits across changes to the code, so a
change that moves a weight, a moment, a header key or a reported figure fails
here. float32 results depend on the numpy build, the BLAS library and the
CPU, so each set of digests is keyed on those four, and on any other key the
tests skip and name the key. A change that is meant to move the bits says why in CHANGES.md
and commits the new digests.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from tksnn import (
    AdamW, DataConfig, GradTape, LifConfig, RunConfig, SurrogateSpec, TeacherConfig, backward,
    build_dataset, build_model, fit, objective, timestep_sweep, unroll,
)
from tksnn.network import save_checkpoint

# (numpy version, BLAS name and version, machine, CPU model) -> recipe -> SHA-256
DIGESTS = {
    ("2.4.6", "scipy-openblas 0.3.31.188.0", "x86_64", "Intel(R) Xeon(R) Processor"): {
        "mlp": "91a0546186761ecbd7441bf5db6bf78ceb7324abb47506d731a6f7cad0fcffee",
        "cnn": "276c62507a06d32f9b6f62ad690afc593893186479c60e2c5edd3e5690be7059",
        "sweep": "7ae86bc9e37f5ce9116d72305f7eb5142847191a5eef8d435c502bc06bd447b3",
    },
}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def host_key() -> tuple[str, str, str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return np.__version__, f"{blas['name']} {blas['version']}", platform.machine(), cpu_model()


@pytest.fixture
def digests():
    key = host_key()
    if key not in DIGESTS:
        pytest.skip(f"no committed digests for (numpy, BLAS, machine, CPU) = {key}")
    return DIGESTS[key]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


MLP_RUN = dict(seed=3, epochs=4, data=DataConfig(n_per_class=40))


@pytest.fixture(scope="module")
def mlp_fit(tmp_path_factory):
    """(model, checkpoint path) of the 4-epoch mlp-small fit, trained once for the module."""
    out = tmp_path_factory.mktemp("mlp")
    model, _ = fit(RunConfig(**MLP_RUN, out_dir=str(out)))
    return model, out / "model.ckpt"


def test_mlp_small_fit_writes_the_committed_checkpoint(digests, mlp_fit):
    assert sha256(mlp_fit[1]) == digests["mlp"]


def test_timestep_sweep_of_the_mlp_small_fit_gives_the_committed_reports(digests, mlp_fit):
    # repr of a float64 round-trips exactly, so the JSON text pins every bit
    test = build_dataset(MLP_RUN["data"], split="test")
    sweep = timestep_sweep(mlp_fit[0], test, (1, 2, 4, 10))
    text = json.dumps({t: report.to_dict() for t, report in sweep.items()}, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digests["sweep"]


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_cnn_small_steps_write_the_committed_checkpoint_on_any_worker_count(digests, workers,
                                                                              tmp_path):
    rng = np.random.default_rng(5)
    model = build_model("cnn-small", (2, 32, 32), 4, LifConfig(), SurrogateSpec(), 0)
    opt = AdamW(model.parameters(), lr=1e-2)
    teacher = TeacherConfig(mode="tks", k=2, tau=3.0)
    for _ in range(3):
        # B=16, T=10 sparse event counts, as `data.bin_events` makes them
        x = rng.poisson(0.15, size=(10, 16, 2, 32, 32)).astype(np.float32)
        y = rng.integers(0, 4, size=16)
        with GradTape() as tape:
            loss, _, _ = objective(unroll(model, x), y, teacher, 0.5)
        backward(loss, tape)
        opt.step()
    save_checkpoint(tmp_path / "cnn.ckpt", model, epoch=3, optimizer=opt)
    assert sha256(tmp_path / "cnn.ckpt") == digests["cnn"]
