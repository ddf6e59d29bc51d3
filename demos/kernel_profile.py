"""Per-layer time, page faults and memory of the cnn-small kernels.

Times one B=16, T=10 cnn-small training step, each layer's forward and the
backward of the tape ops each layer recorded, and one untaped unroll layer
by layer (B=8 samples of 2x32x32 event-like frames, T=1 and T=10). It
counts minor page faults (`getrusage` `ru_minflt`) per step and per
unroll. The LIF, conv and pooling kernels split their work over the CPUs of
the process's affinity set (at most four), read once when `tksnn` is
imported: it prints that worker count, and every table has one time column
per pass, for that count. For one worker's figures, run it under
`taskset -c 0`. The training step's table also gives each layer's median
minor faults in its forward and in its backward.

An untaped unroll runs the layers before the readout through their private
kernels (each layer's `infer` and `lif._lif_sequence`), in groups of whole
samples that `network._untaped_features` deals out to the workers: one
group, on the calling thread, at T=1, and one per worker at T=10. Its table
times those kernels, the readout, and the whole `_untaped_features` call
(the row "split", from the hand-off to the join). A kernel row adds the
time and the faults (`RUSAGE_THREAD`) of every group on the thread that ran
it, so with two groups at once the kernel rows can add up to more than the
split's wall time. It
also prints the process's peak resident set size after training
(`ru_maxrss`) and, last of all, the allocation peak of one traced training
step and what its tape holds after forward and loss (`tracemalloc`). A
fresh 4 KB page costs a fault, so the count shows how many new pages a
kernel touches; it repeats exactly from run to run of the same code, where
wall time on a shared host does not.

Before that trace it splits one mlp-small TKS training step (B=32, T=10,
40 inputs, on the calling thread) into forward plus loss, backward, with
`lif_sequence`'s backward shown apart, and `AdamW.step`, each as a median ms
and a share of the step, and prints how many tape nodes the step records.

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
import threading  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from tksnn import (  # noqa: E402
    AdamW, GradTape, LifConfig, SurrogateSpec, TeacherConfig, backward, build_model,
    objective, unroll,
)
from tksnn import autodiff, network  # noqa: E402

SHAPE = (2, 32, 32)
CLASSES = 4
REPEATS = 20
MLP_FEATURES = 40
THREAD = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)  # Linux has it
_SPENT_LOCK = threading.Lock()  # kernels in groups add to one dict from two threads


def faults(who=resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_minflt


def peak_rss_mb() -> float:
    """Peak resident set size of this process (`ru_maxrss`, KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def frames(rng, t_len: int, batch: int) -> np.ndarray:
    """[T,B,2,32,32] sparse event counts, as `data.bin_events` makes them."""
    return rng.poisson(0.15, size=(t_len, batch) + SHAPE).astype(np.float32)


def timed(name, fn, spent, who=resource.RUSAGE_SELF):
    """fn, adding the (ms, faults of `who`) of each call to spent[name]."""
    def inner(*args):
        f0, t0 = faults(who), time.perf_counter()
        result = fn(*args)
        t1, f1 = time.perf_counter(), faults(who)
        with _SPENT_LOCK:
            ms, flt = spent.get(name, (0.0, 0))
            spent[name] = (ms + (t1 - t0) * 1e3, flt + f1 - f0)
        return result
    return inner


@contextlib.contextmanager
def timed_layers(model, recorded=None):
    """Wrap each layer's forward and `lif_sequence`; yields a dict that each
    call adds its (ms, faults) to. Under a tape, each call also appends
    (tape node, name) to `recorded` for every node it records, so that
    `timed_backward` can time them. `lif_sequence` is put back on exit."""
    spent = {}

    def wrap(name, fn):
        fn = timed(name, fn, spent)

        def inner(*args):
            tape = autodiff._active_tape()
            first = len(tape) if tape is not None else 0
            result = fn(*args)
            if tape is not None and recorded is not None:
                recorded.extend((node, name) for node in tape._nodes[first:])
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


@contextlib.contextmanager
def timed_kernels(model):
    """Wrap what an untaped unroll calls: each layer's `infer`,
    `network._lif_sequence`, the readout's forward and
    `network._untaped_features`, the split (row "split"). Yields a dict that
    each call adds its (ms, faults) to; the network functions are put back
    on exit."""
    spent = {}
    for i, layer in enumerate(model.layers):
        if layer.kind != "lif":
            layer.infer = timed(f"{i}:{layer.kind}", layer.infer, spent, THREAD)
    model.readout.forward = timed("readout", model.readout.forward, spent)
    lif_count = sum(layer.kind == "lif" for layer in model.layers)
    kernels = network._lif_sequence, network._untaped_features
    network._lif_sequence = timed(f"lif x{lif_count}", kernels[0], spent, THREAD)
    network._untaped_features = timed("split", kernels[1], spent)
    try:
        yield spent
    finally:
        network._lif_sequence, network._untaped_features = kernels


def timed_backward(recorded, spent):
    """Wrap the backward of each (tape node, name) in `recorded`, so that
    backward adds its (ms, faults) to spent[name]."""
    for node, name in recorded:
        node.bwd = timed(name, node.bwd, spent)


def column_label() -> str:
    """The column label: this process's worker count, the calling thread included."""
    n = autodiff._WORKERS
    return f"{n} worker" + ("s" if n != 1 else "")


def profile_unroll(model, rng, t_len: int, batch: int = 8):
    per_layer, totals, flts = {}, [], []
    groups = len(autodiff._sample_runs(batch, t_len * model.step_work)) - 1
    with timed_kernels(model) as spent:
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
    label = column_label()
    print(f"untaped unroll, T={t_len}, B={batch}: {statistics.median(totals) * 1e3:.2f} ms "
          f"({label}), minor faults median {statistics.median(flts):.0f}, "
          f"mean {statistics.fmean(flts):.0f}; {groups} group" + "s" * (groups != 1))
    print(f"  {'layer':14s}{label:>14s}    faults")
    last = ["readout", "split"]  # after the layers, which groups reach in model order
    for name in [n for n in per_layer if n not in last] + last:
        spent_by_repeat = per_layer[name]
        ms = statistics.median(v[0] for v in spent_by_repeat)
        flt = statistics.median(v[1] for v in spent_by_repeat)
        print(f"  {name:14s}{ms:11.3f} ms{flt:10.0f}")


def profile_train_step(model, rng, t_len: int = 10, batch: int = 16):
    """Times whole steps, and times and counts the faults of each layer's
    forward and the backward of the tape ops each layer recorded (the loss's
    ops and the optimizer step are in the step's figures only)."""
    opt = AdamW(model.parameters(), lr=1e-3)
    teacher = TeacherConfig(mode="tks", k=2, tau=3.0)
    times, flts, per_layer = [], [], {}
    recorded, backs = [], {}
    with timed_layers(model, recorded) as fwds:
        for r in range(REPEATS + 2):
            x = frames(rng, t_len, batch)
            y = rng.integers(0, CLASSES, size=batch)
            for kept in (fwds, backs, recorded):
                kept.clear()
            f0, t0 = faults(), time.perf_counter()
            with GradTape() as tape:
                loss, _, _ = objective(unroll(model, x), y, teacher, 0.5)
            timed_backward(recorded, backs)
            backward(loss, tape)
            opt.step()
            t1, f1 = time.perf_counter(), faults()
            if r < 2:  # warm-up
                continue
            times.append(t1 - t0)
            flts.append(f1 - f0)
            for part, spent in (("fwd", fwds), ("bwd", backs)):
                for name, s in spent.items():
                    per_layer.setdefault(name, {}).setdefault(part, []).append(s)
    label, parts = column_label(), ("fwd", "bwd")
    print(f"training step, T={t_len}, B={batch}: {statistics.median(times) * 1e3:.1f} ms "
          f"({label}), minor faults median {statistics.median(flts):.0f}, "
          f"mean {statistics.fmean(flts):.0f}")
    print(f"  {'layer':14s}" + "".join(f"{part + ' ' + label:>17s}" for part in parts)
          + "".join(f"{part + ' faults':>12s}" for part in parts))
    for name, by_part in per_layer.items():
        print(f"  {name:14s}"
              + "".join(f"{statistics.median(v[0] for v in by_part[part]):14.3f} ms"
                        for part in parts)
              + "".join(f"{statistics.median(v[1] for v in by_part[part]):12.0f}"
                        for part in parts))


def profile_mlp_step(rng, t_len: int = 10, batch: int = 32):
    """Median ms of the parts of an mlp-small TKS training step, over
    10 x REPEATS steps after a warm-up. Only `lif_sequence`'s tape node is
    wrapped, to time its backward, so the other parts run as in training."""
    model = build_model("mlp-small", (MLP_FEATURES,), CLASSES, LifConfig(), SurrogateSpec(), 0)
    opt = AdamW(model.parameters(), lr=5e-3)
    teacher = TeacherConfig(mode="tks", k=2, tau=3.0)
    lif_nodes, lif_spent, parts, tape_nodes = [], {}, {}, set()
    lif_sequence = network.lif_sequence

    def recorded_lif(*args):
        tape = autodiff._active_tape()
        first = len(tape)
        result = lif_sequence(*args)
        lif_nodes.extend(tape._nodes[first:])
        return result

    network.lif_sequence = recorded_lif
    try:
        for r in range(10 * REPEATS + 2):
            x = rng.uniform(size=(t_len, batch, MLP_FEATURES)).astype(np.float32)
            y = rng.integers(0, CLASSES, size=batch)
            lif_nodes.clear()
            lif_spent.clear()
            t0 = time.perf_counter()
            with GradTape() as tape:
                loss, _, _ = objective(unroll(model, x), y, teacher, 0.5)
            t1 = time.perf_counter()
            tape_nodes.add(len(tape))
            for node in lif_nodes:
                node.bwd = timed("lif", node.bwd, lif_spent)
            backward(loss, tape)
            t2 = time.perf_counter()
            opt.step()
            t3 = time.perf_counter()
            if r < 2:  # warm-up
                continue
            for name, spent_ms in (("forward+loss", (t1 - t0) * 1e3),
                                   ("backward", (t2 - t1) * 1e3),
                                   ("  lif_sequence", lif_spent["lif"][0]),
                                   ("AdamW.step", (t3 - t2) * 1e3)):
                parts.setdefault(name, []).append(spent_ms)
    finally:
        network.lif_sequence = lif_sequence
    ms = {name: statistics.median(v) for name, v in parts.items()}
    step = ms["forward+loss"] + ms["backward"] + ms["AdamW.step"]
    (nodes,) = tape_nodes  # the same graph every step
    print(f"mlp-small TKS step, T={t_len}, B={batch}: {step:.3f} ms "
          f"(sum of the medians of its parts), {nodes} tape nodes")
    for name, m in ms.items():
        print(f"  {name:14s}{m:9.3f} ms {100 * m / step:5.1f}%")


def trace_train_step(model, rng, t_len: int = 10, batch: int = 16):
    """Allocation peak of one training step, and what the step holds once
    forward and loss have run: the arrays the tape's backward closures keep,
    plus the few the caller holds (numpy reports its buffers to tracemalloc).
    It runs after every timed and counted pass, because tracing is slow and
    changes the heap's layout."""
    opt = AdamW(model.parameters(), lr=1e-3)
    teacher = TeacherConfig(mode="tks", k=2, tau=3.0)
    x = frames(rng, t_len, batch)
    y = rng.integers(0, CLASSES, size=batch)
    tracemalloc.start()
    try:
        with GradTape() as tape:
            loss, _, _ = objective(unroll(model, x), y, teacher, 0.5)
        held = tracemalloc.get_traced_memory()[0]
        backward(loss, tape)
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"training step, T={t_len}, B={batch}: allocation peak {peak / 2**20:.1f} MB, "
          f"tape after forward and loss {held / 2**20:.1f} MB (tracemalloc)")


def new_model():
    return build_model("cnn-small", SHAPE, CLASSES, LifConfig(), SurrogateSpec(), 0)


def main():
    core = getattr(np, "_core", None) or np.core
    core.multiarray._set_madvise_hugepage(False)
    rng = np.random.default_rng(0)
    print(f"workers: {autodiff._WORKERS} (CPUs in this process's affinity set at import, "
          f"at most {autodiff._MAX_WORKERS}; run under `taskset -c 0` for one)")
    # training first, in a fresh process, as in the benchmark's cnn set-up
    profile_train_step(new_model(), rng)
    print(f"process peak RSS after training {peak_rss_mb():.1f} MB")
    for t_len in (1, 10):
        profile_unroll(new_model(), rng, t_len)
    profile_mlp_step(rng)
    trace_train_step(new_model(), rng)


if __name__ == "__main__":
    main()
