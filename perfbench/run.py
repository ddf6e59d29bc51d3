"""tksnn benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload mlp-synth-train --seed 1 --seconds 35 --trace 0

Run from the repository root (the library is imported from ./src). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-module
metrics with --trace 1. The line before it records the environment. Work
files go to .perfbench/work and are removed at the end; the result, and the
spans of a traced run, stay in .perfbench/results. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def single_blas_thread() -> int:
    """Run BLAS and OpenMP on one thread (set before numpy loads).

    The closed loop has one caller and the matrices are small (a 32-sample
    batch), so a second BLAS thread mostly waits for a second CPU; on a shared
    host that wait measures the scheduler.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def no_huge_pages() -> None:
    """Stop numpy from asking the kernel for huge pages for large arrays.

    Whether the kernel grants them depends on how fragmented the host's
    memory is at that moment, so with the advice on, the same code ran up to
    20% faster or slower from one process to the next (cnn-small training).
    This acts on this process only.
    """
    import numpy as np

    core = getattr(np, "_core", None) or np.core
    core.multiarray._set_madvise_hugepage(False)


def git_commit() -> str:
    """HEAD of the checkout; git may not look above ROOT for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        out = None
    if out is None or out.returncode != 0:
        return "unavailable (not a git checkout)"
    return out.stdout.strip()


def environment(blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "tksnn")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {
        "cpus": cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "numpy_huge_page_advice": False,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def summary(values, how=statistics.median) -> float:
    """Median (or mean) of the measurements; 0 when a failure left none."""
    return how(values) if values else 0.0


def fast_rate(units, pick=min) -> float:
    """Work per second of a run's timed units, each kind timed by its fastest unit.

    units: [kind, work, seconds] per timed unit; units of one kind do the
    same work. Returns total work / sum over kinds of (count x picked time),
    0 when a failure left no units. The fastest unit is the program's speed
    when the shared host left it alone; `pick=statistics.median` gives the
    typical speed under whatever else ran, which is kept in the results file.
    """
    by_kind: dict = {}
    for kind, work, seconds in units or ():
        by_kind.setdefault(str(kind), []).append((work, seconds))
    work = spent = 0.0
    for items in by_kind.values():
        work += sum(w for w, _ in items)
        spent += len(items) * pick([t for _, t in items])
    return work / spent if spent else 0.0


def end_to_end(wl, setup_times, checks) -> dict:
    s = wl.samples

    def mean(key):
        return summary(s.get(key), statistics.fmean)

    def rate(key):
        return fast_rate(wl.units.get(key))

    return {
        "setup_s": (summary(setup_times), "s"),
        "train_samples_per_s": (rate("train_samples_per_s"), "1/s"),
        "eval_samples_per_s": (rate("eval_samples_per_s"), "1/s"),
        "ingest_events_per_s": (rate("ingest_events_per_s"), "1/s"),
        "test_top1": (mean("test_top1"), "ratio"),
        "test_aurc_x1000": (mean("test_aurc_x1000"), "x1e-3"),
        "sweep_top1_min": (mean("sweep_top1_min"), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (checks.success_rate, "ratio"),
    }


def per_layer(wl, tracer) -> dict:
    tr = tracer
    rounds = max(wl.traced_rounds, 1)
    c = tr.counts

    def per_round(name, self_time=False):
        return (tr.ms(name, self_time=self_time) / rounds, "ms")

    def calls(name):
        return tr.calls[tr.names.index(name)]

    def share(part, whole):
        return part / whole if whole else 0.0

    def rate(key):
        return fast_rate(wl.units.get(key))

    out = {
        "autodiff.backward_ms": per_round("autodiff.backward"),
        "autodiff.tape_nodes_per_step": (share(c["tape_nodes"], c["backward"]), "count"),
        "autodiff.op_calls_per_step": (share(c["taped_ops"], c["backward"]), "count"),
        "autodiff.matmul_ms": per_round("autodiff.matmul"),
        "autodiff.conv2d_ms": per_round("autodiff.conv2d"),
        "autodiff.avgpool2d_ms": per_round("autodiff.avgpool2d"),
        "autodiff.spike_ms": per_round("autodiff.spike"),
        "autodiff.spike_untaped_share": (share(c["spikes_in_eval"], c["spikes"]), "ratio"),
        "lif.step_ms": per_round("lif.lif_step", self_time=True),
        "lif.step_calls": (calls("lif.lif_step") / rounds, "count"),
        "network.unroll_ms": per_round("network.unroll", self_time=True),
        "network.unroll_calls": (calls("network.unroll") / rounds, "count"),
        "network.save_checkpoint_ms": per_round("network.save_checkpoint"),
        "network.load_checkpoint_ms": per_round("network.load_checkpoint"),
        "network.checkpoint_bytes": (c["checkpoint_bytes"], "bytes"),
        "tks.select_teachers_ms": per_round("tks.select_teachers"),
        "tks.teacher_signal_ms": per_round("tks.teacher_signal"),
        "tks.loss_ms": (sum(per_round(f"tks.{n}")[0]
                            for n in ("ce_loss", "tks_loss", "final_loss")), "ms"),
        "trainer.adamw_step_ms": per_round("trainer.AdamW.step"),
        "trainer.epoch_self_ms": per_round("trainer.train_epoch", self_time=True),
        "trainer.steps": (calls("trainer.AdamW.step") / rounds, "count"),
        "evaluation.evaluate_self_ms": per_round("evaluation.evaluate", self_time=True),
        "evaluation.aurc_ms": per_round("evaluation.aurc"),
        "data.load_events_ms": per_round("data.load_events"),
        "data.bin_events_ms": per_round("data.bin_events"),
        "data.events_parsed": (c["events_parsed"] / rounds, "count"),
        "data.prepare_sequence_ms": per_round("data.prepare_sequence"),
        "data.build_dataset_ms": per_round("data.build_dataset"),
        "trace.train_samples_per_s": (rate("traced.train_samples_per_s"), "1/s"),
        "trace.eval_samples_per_s": (rate("traced.eval_samples_per_s"), "1/s"),
        "trace.train_overhead": (share(rate("train_samples_per_s"),
                                       rate("traced.train_samples_per_s")), "ratio"),
        "trace.eval_overhead": (share(rate("eval_samples_per_s"),
                                      rate("traced.eval_samples_per_s")), "ratio"),
        "trace.spans": (tr.span_id, "count"),
    }
    for module in ("autodiff", "lif", "network", "tks", "trainer", "evaluation", "data"):
        out[f"{module}.errors"] = (tr.module_errors(module), "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "tksnn", "__init__.py")):
        print(f"error: no tksnn sources under {ROOT}/src", file=sys.stderr)
        return 2
    blas_threads = single_blas_thread()
    no_huge_pages()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.dont_write_bytecode = True
    import tksnn
    from checks import Checks
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(blas_threads)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench", "work", f"{tag}-{os.getpid()}")
    results = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(results, exist_ok=True)
    checks = Checks()
    wl = WORKLOADS[args.workload](tksnn, work, args.seed, args.seconds, checks)
    tracer = Tracer(tksnn) if args.trace else None
    try:
        # a failed operation ends its set-up or round; it is counted, and the
        # run still reports, with correct false
        setup_times = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            if not checks.attempt(f"set-up {i}", wl.setup, i):
                break
            setup_times.append(time.perf_counter() - t0)
        else:
            wl.tracer = tracer
            checks.attempt("timed phase", wl.measure)
        if tracer is None:
            metrics = end_to_end(wl, setup_times, checks)
        else:
            metrics = per_layer(wl, tracer)
            tracer.write_spans(os.path.join(results, f"{tag}-spans.tsv"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(results, f"{tag}.json"), "w") as f:
        json.dump({"args": vars(args), "env": env, "setup_s": setup_times,
                   "samples": wl.samples,
                   "median_rates": {k: fast_rate(u, statistics.median)
                                    for k, u in wl.units.items()},
                   "units": wl.units, "failures": checks.failures, **result}, f, indent=1)
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
