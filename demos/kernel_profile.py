"""Per-layer time, page faults and memory of the cnn-small kernels.

Times one untaped cnn-small unroll layer by layer (B=8 samples of 2x32x32
event-like frames, T=1 and T=10) and counts minor page faults
(`getrusage` `ru_minflt`) per unroll and per B=16, T=10 training step. It
also prints the process's peak resident set size after training
(`ru_maxrss`) and, last of all, the allocation peak of one traced training
step (`tracemalloc`). A fresh 4 KB page costs a fault, so the count shows
how many new pages a kernel touches; it repeats exactly from run to run of
the same code, where wall time on a shared host does not.

Run from the repository root:

    PYTHONPATH=src python3 demos/kernel_profile.py

Like the benchmark, it runs BLAS on one thread and switches numpy's
huge-page advice off, so its fault counts compare with the benchmark's runs.
Times are medians over the repeats that follow a warm-up; faults are given
as median and mean, because the allocator returns memory to the system
only now and then.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from tksnn import (  # noqa: E402
    AdamW, GradTape, LifConfig, SurrogateSpec, TeacherConfig, backward, build_model,
    objective, unroll,
)
from tksnn import network  # noqa: E402

SHAPE = (2, 32, 32)
CLASSES = 4
REPEATS = 20


def faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def peak_rss_mb() -> float:
    """Peak resident set size of this process (`ru_maxrss`, KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def frames(rng, t_len: int, batch: int) -> np.ndarray:
    """[T,B,2,32,32] sparse event counts, as `data.bin_events` makes them."""
    return rng.poisson(0.15, size=(t_len, batch) + SHAPE).astype(np.float32)


@contextlib.contextmanager
def timed_layers(model):
    """Wrap each layer's forward and `lif_sequence`; yields a dict that each
    call adds its (ms, faults) to. `lif_sequence` is put back on exit."""
    spent = {}

    def wrap(name, fn):
        def inner(*args):
            f0, t0 = faults(), time.perf_counter()
            result = fn(*args)
            t1, f1 = time.perf_counter(), faults()
            ms, flt = spent.get(name, (0.0, 0))
            spent[name] = (ms + (t1 - t0) * 1e3, flt + f1 - f0)
            return result
        return inner

    for i, layer in enumerate(model.layers):
        if layer.kind != "lif":
            layer.forward = wrap(f"{i}:{layer.kind}", layer.forward)
    model.readout.forward = wrap("readout", model.readout.forward)
    lif_count = sum(layer.kind == "lif" for layer in model.layers)
    lif_sequence = network.lif_sequence
    network.lif_sequence = wrap(f"lif x{lif_count}", lif_sequence)
    try:
        yield spent
    finally:
        network.lif_sequence = lif_sequence


def profile_unroll(model, rng, t_len: int, batch: int = 8):
    per_layer, totals, flts = {}, [], []
    with timed_layers(model) as spent:
        for r in range(REPEATS + 2):
            x = frames(rng, t_len, batch)
            spent.clear()
            f0, t0 = faults(), time.perf_counter()
            unroll(model, x)
            t1, f1 = time.perf_counter(), faults()
            if r < 2:  # warm-up
                continue
            totals.append(t1 - t0)
            flts.append(f1 - f0)
            for name, s in spent.items():
                per_layer.setdefault(name, []).append(s)
    print(f"untaped unroll, T={t_len}, B={batch}: "
          f"{statistics.median(totals) * 1e3:.2f} ms, "
          f"minor faults median {statistics.median(flts):.0f}, mean {statistics.fmean(flts):.0f}")
    for name, values in per_layer.items():
        ms = statistics.median(v[0] for v in values)
        flt = statistics.median(v[1] for v in values)
        print(f"  {name:14s} {ms:8.3f} ms {flt:6.0f} faults")


def profile_train_step(model, rng, t_len: int = 10, batch: int = 16):
    opt = AdamW(model.parameters(), lr=1e-3)
    teacher = TeacherConfig(mode="tks", k=2, tau=3.0)
    times, flts = [], []
    for r in range(REPEATS + 2):
        x = frames(rng, t_len, batch)
        y = rng.integers(0, CLASSES, size=batch)
        f0, t0 = faults(), time.perf_counter()
        with GradTape() as tape:
            loss, _, _ = objective(unroll(model, x), y, teacher, 0.5)
        backward(loss, tape)
        opt.step()
        t1, f1 = time.perf_counter(), faults()
        if r >= 2:
            times.append(t1 - t0)
            flts.append(f1 - f0)
    print(f"training step, T={t_len}, B={batch}: {statistics.median(times) * 1e3:.1f} ms, "
          f"minor faults median {statistics.median(flts):.0f}, mean {statistics.fmean(flts):.0f}")


def trace_train_step(model, rng, t_len: int = 10, batch: int = 16):
    """Allocation peak of one training step (numpy reports its buffers to
    tracemalloc). It runs after every timed and counted pass, because
    tracing is slow and changes the heap's layout."""
    opt = AdamW(model.parameters(), lr=1e-3)
    teacher = TeacherConfig(mode="tks", k=2, tau=3.0)
    x = frames(rng, t_len, batch)
    y = rng.integers(0, CLASSES, size=batch)
    tracemalloc.start()
    try:
        with GradTape() as tape:
            loss, _, _ = objective(unroll(model, x), y, teacher, 0.5)
        backward(loss, tape)
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"training step, T={t_len}, B={batch}: allocation peak {peak / 2**20:.1f} MB (tracemalloc)")


def new_model():
    return build_model("cnn-small", SHAPE, CLASSES, LifConfig(), SurrogateSpec(), 0)


def main():
    core = getattr(np, "_core", None) or np.core
    core.multiarray._set_madvise_hugepage(False)
    rng = np.random.default_rng(0)
    # training first, in a fresh process, as in the benchmark's cnn set-up
    profile_train_step(new_model(), rng)
    print(f"process peak RSS after training {peak_rss_mb():.1f} MB")
    for t_len in (1, 10):
        profile_unroll(new_model(), rng, t_len)
    trace_train_step(new_model(), rng)


if __name__ == "__main__":
    main()
