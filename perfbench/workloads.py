"""The benchmark workloads.

Each workload is a closed loop with one caller: every training step and eval
batch waits for the one before it. `setup(i)` builds the inputs and warm
state (the runner repeats it and reports the median time); `measure()` runs
the timed phase. Quality figures go to `self.samples`, one value per
measurement; timings go to `self.units`, one entry per timed unit (an epoch,
a training step, an `evaluate` call, a parsed stream), from which the runner
computes each throughput (see `run.fast_rate`).

In a traced run, rounds alternate between untraced and traced, so the same
run yields the per-module numbers and the tracing overhead.

tksnn functions are always looked up through their module at call time
(`self.tk.trainer.fit`, never a name bound at import), so a traced round
calls the wrappers and an untraced one calls the library unmodified.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import os
import shutil
import time

import numpy as np

import gen
from checks import sha256_file

SWEEP = (1, 2, 4, 6, 8, 10)
EVAL_BATCH = 256  # evaluation.evaluate's default batch size


def sub_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([int(seed), *path]).generate_state(1)[0])


@contextlib.contextmanager
def clocked(owner, name: str, record):
    """Replace owner.<name> by a wrapper that calls record(args, kwargs, start, end)
    after each call that returns; the original is put back on exit.

    This times units the benchmark cannot call itself (the epochs inside `fit`,
    the `evaluate` calls inside `timestep_sweep`): one clock read per call,
    not the per-module tracing.
    """
    fn = getattr(owner, name)
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        record(args, kwargs, t0, clock())
        return result

    setattr(owner, name, wrapper)
    try:
        yield
    finally:
        setattr(owner, name, fn)


class Workload:
    name = ""

    def __init__(self, tk, work_dir: str, seed: int, seconds: float, checks):
        self.tk = tk
        self.work = work_dir
        self.seed = seed
        self.seconds = seconds
        self.checks = checks
        self.tracer = None  # set by the runner for the timed phase of a traced run
        self.traced_rounds = 0
        # measurement name -> list of values; "traced." prefix for traced rounds
        self.samples: dict[str, list[float]] = {}
        # throughput name -> [kind, work, seconds] per timed unit; same prefix
        self.units: dict[str, list[list]] = {}

    def add(self, key: str, value: float, traced: bool = False):
        self.samples.setdefault(("traced." if traced else "") + key, []).append(value)

    def unit(self, key: str, work: float, seconds: float, kind=None, traced: bool = False):
        """One timed unit: `work` items in `seconds`. Units of one kind do the same work."""
        self.units.setdefault(("traced." if traced else "") + key, []).append(
            [kind, work, seconds])

    def sliced(self, data, size: int):
        """The data set cut into consecutive slices of `size` samples."""
        for lo in range(0, len(data.labels), size):
            yield self.tk.data.Dataset(inputs=data.inputs[lo : lo + size],
                                       labels=data.labels[lo : lo + size],
                                       class_count=data.class_count, temporal=data.temporal)

    @contextlib.contextmanager
    def tracing(self, on: bool):
        if on:
            self.tracer.install()
        try:
            yield on
        finally:
            if on:
                self.tracer.uninstall()

    def round(self, index: int):
        """Trace odd rounds of a traced run; yields whether this one is traced."""
        traced = self.tracer is not None and index % 2 == 1
        self.traced_rounds += traced
        return self.tracing(traced)

    def dir(self, *parts: str) -> str:
        d = os.path.join(self.work, *parts)
        os.makedirs(d, exist_ok=True)
        return d

    def run_config(self, lr_max: float = 5e-3, batch_size: int = 32, **kw):
        trainer, tks = self.tk.trainer, self.tk.tks
        return trainer.RunConfig(teacher=tks.TeacherConfig(mode="tks", k=2, tau=3.0),
                                 alpha_start=0.0, alpha_end=0.7, batch_size=batch_size,
                                 optim=trainer.OptimConfig(lr_max=lr_max), **kw)

    def evaluate(self, model, test, t_values, traced: bool):
        """Timestep sweep; each `evaluate` call in it is one eval unit, of kind (T, samples)."""
        n = len(test.labels)
        batches = math.ceil(n / EVAL_BATCH) * len(t_values)

        def record(args, kwargs, t0, t1):
            t_test = args[2] if len(args) > 2 else kwargs["t_test"]
            self.unit("eval_samples_per_s", n, t1 - t0, kind=f"T{t_test}n{n}", traced=traced)

        with clocked(self.tk.evaluation, "evaluate", record):
            return self.checks.run("timestep_sweep", self.tk.evaluation.timestep_sweep,
                                   model, test, t_values, weight=batches)

    def sweep_top1(self, model, test, t_values, traced: bool, size: int) -> dict[int, float]:
        """Timed sweeps over `size`-sample slices of test; top-1 per T over all of it.

        The host slows the program for stretches of seconds and only rarely
        leaves it alone; a run catches such a moment reliably only with many
        short units. A whole-set `evaluate` call takes 10 ms to seconds, one
        on a slice a few ms.
        """
        correct = dict.fromkeys(t_values, 0.0)
        for part in self.sliced(test, size):
            for t, rep in self.evaluate(model, part, t_values, traced).items():
                correct[t] += rep.top1 * len(part.labels)
        return {t: c / len(test.labels) for t, c in correct.items()}

    def record_quality(self, rep, top1_by_t: dict, floor: float, keep: bool = True):
        """Check the top-1 floor of `rep` (the report at the trained T); keep the
        figures only from the fixed set of rounds every run completes, so a
        faster program is scored on the same models."""
        self.checks.top1_floor(f"{self.name} top-1", rep.top1, floor)
        if not keep:
            return
        self.add("test_top1", rep.top1)
        self.add("test_aurc_x1000", rep.aurc)
        self.add("sweep_top1_min", min(top1_by_t.values()))

    def train_epochs(self, model, data, cfg, opt, epochs: int):
        """Drive train_epoch with fit's LR and alpha schedules; one epoch per round."""
        trainer, tks = self.tk.trainer, self.tk.tks
        sched = tks.AlphaSchedule(cfg.alpha_start, cfg.alpha_end, epochs)
        steps = math.ceil(len(data.labels) / cfg.batch_size)
        reports = []

        def one_epoch(epoch: int, traced: bool):
            opt.lr = trainer.cosine_lr(epoch, epochs, cfg.optim.lr_max, cfg.optim.lr_min)
            alpha = tks.alpha_at(epoch, sched)
            starts = []
            with clocked(trainer.AdamW, "step", lambda a, k, t0, t1: starts.append(t0)):
                reports.append(self.checks.run("train_epoch", trainer.train_epoch, model, data,
                                               cfg, epoch, opt, alpha, weight=steps))
            # a unit is one training step: from one AdamW.step call to the
            # next (the last step's interval would run into the next epoch)
            for a, b in zip(starts, starts[1:]):
                self.unit("train_samples_per_s", cfg.batch_size, b - a, traced=traced)

        for epoch in range(epochs):
            with self.round(epoch) as traced:
                self.checks.attempt(f"{self.name} epoch {epoch}", one_epoch, epoch, traced)
        self.checks.finite_losses(self.name, reports)

    def new_model(self, cfg, shape, classes: int):
        model = self.tk.network.build_model(cfg.preset, shape, classes, cfg.lif,
                                            cfg.surrogate, cfg.seed)
        o = cfg.optim
        opt = self.tk.trainer.AdamW(model.parameters(), lr=o.lr_max, weight_decay=o.weight_decay,
                                    betas=(o.beta1, o.beta2), eps=o.eps)
        return model, opt

    def save_and_trip(self, path: str, model, epoch: int, opt) -> str:
        self.checks.run("save_checkpoint", self.tk.network.save_checkpoint, path, model,
                        epoch=epoch, optimizer=opt)
        self.checks.checkpoint_round_trip(self.tk, path, path + ".copy")
        return sha256_file(path)

    def timed_rounds(self, body, min_rounds: int):
        """Repeat body(round_index, traced) until the time is up, at least min_rounds times."""
        start = time.perf_counter()
        r = 0
        while r < min_rounds or time.perf_counter() - start < self.seconds:
            with self.round(r) as traced:
                self.checks.attempt(f"{self.name} round {r}", body, r, traced)
            r += 1


class MlpSynthTrain(Workload):
    """mlp-small, TKS k=2 tau=3, order-encoded synth task, 600 samples, T=10, B=32."""

    name = "mlp-synth-train"
    QUALITY_ROUNDS = 16
    EPOCHS = 10
    N_PER_CLASS = 150
    TEST_PER_CLASS = 1000
    INGEST_REPEATS = 8  # build_dataset is a few ms: several units per round
    T = 10
    BATCH = 32
    FLOOR = 0.6

    def config(self, model_index: int, out_dir: str):
        data = self.tk.trainer.DataConfig(kind="synth", n_per_class=self.N_PER_CLASS,
                                          t_native=self.T, classes=4, noise_sigma=0.3,
                                          seed=sub_seed(self.seed, 1, model_index))
        return self.run_config(preset="mlp-small", data=data, t_train=self.T,
                               batch_size=self.BATCH, epochs=self.EPOCHS, seed=data.seed,
                               out_dir=out_dir)

    def setup(self, i: int):
        test_cfg = self.tk.trainer.DataConfig(n_per_class=self.TEST_PER_CLASS, t_native=self.T,
                                              seed=sub_seed(self.seed, 2))
        self.test = self.checks.run("build_dataset", self.tk.data.build_dataset, test_cfg, "test")
        cfg = dataclasses.replace(self.config(0, self.dir("warm")), epochs=1)
        self.checks.run("fit", self.tk.trainer.fit, cfg, weight=self.steps())
        self.digests: dict[int, str] = {}  # round -> checkpoint SHA-256

    def steps(self) -> int:
        return math.ceil(4 * self.N_PER_CLASS / self.BATCH)

    def measure(self):
        self.timed_rounds(self.one_fit, self.QUALITY_ROUNDS)

    def one_fit(self, r: int, traced: bool):
        tk, checks = self.tk, self.checks
        # rounds 0 and 1 train the same seed: the determinism check
        cfg = self.config(max(r - 1, 0), self.dir(f"fit{r}"))
        for _ in range(self.INGEST_REPEATS):
            t0 = time.perf_counter()
            ds = checks.run("build_dataset", tk.data.build_dataset, cfg.data, "train")
            self.unit("ingest_events_per_s", ds.inputs.size, time.perf_counter() - t0,
                      traced=traced)
        # an epoch unit runs from one train_epoch call to the next (or to the end
        # of fit), so the per-epoch work fit does around train_epoch is in it
        epoch_starts = []
        with clocked(tk.trainer, "train_epoch", lambda a, k, t0, t1: epoch_starts.append(t0)):
            model, reports = checks.run("fit", tk.trainer.fit, cfg,
                                        weight=self.steps() * self.EPOCHS)
        epoch_starts.append(time.perf_counter())
        for a, b in zip(epoch_starts, epoch_starts[1:]):
            self.unit("train_samples_per_s", len(ds.labels), b - a, traced=traced)
        checks.finite_losses(self.name, reports)
        ckpt = os.path.join(cfg.out_dir, "model.ckpt")
        self.digests[r] = sha256_file(ckpt)
        if r == 1 and 0 in self.digests:
            checks.same_digest(f"{self.name} repeat of seed {cfg.seed}",
                               self.digests[0], self.digests[1])
        checks.checkpoint_round_trip(tk, ckpt, ckpt + ".copy")
        top1 = self.sweep_top1(model, self.test, SWEEP, traced, EVAL_BATCH)
        # AURC needs the whole split in one report: one more, untimed, evaluate call
        rep = checks.run("evaluate", tk.evaluation.evaluate, model, self.test, self.T)
        self.record_quality(rep, top1, self.FLOOR, keep=r < self.QUALITY_ROUNDS)


class CnnEventsEval(Workload):
    """Inference only: AER ingest, checkpoint load and a timestep sweep on cnn-small.

    The checkpoint plays a deployed model: set-up trains it from a fixed
    recipe that does not depend on --seed, and every timed round feeds it
    fresh streams drawn from --seed. Quality then varies with the input, not
    with how well one short training run happened to converge.
    """

    name = "cnn-events-eval"
    QUALITY_ROUNDS = 4
    MODEL_SEED = 0
    N_TRAIN = 128
    N_TEST = 128
    EPOCHS = 4
    BATCH = 16  # more, smaller steps: the checkpoint converges within set-up's budget
    LR = 0.01
    T = 10
    FLOOR = 0.6
    INGEST_PASSES = 2  # every stream is timed once per pass
    EVAL_SLICE = 8

    def ingest(self, paths, labels, traced: bool = False, timed: bool = True):
        """Parse and bin every stream, each one a unit of its event count."""
        data = self.tk.data
        frames = []
        for p in paths:
            t0 = time.perf_counter()
            stream = self.checks.run("load_events", data.load_events, p)
            frames.append(self.checks.run("bin_events", data.bin_events, stream, self.T,
                                          gen.SENSOR, gen.SENSOR))
            if timed:
                n = len(stream.events)
                self.unit("ingest_events_per_s", n, time.perf_counter() - t0, kind=n,
                          traced=traced)
        return data.Dataset(inputs=np.stack(frames), labels=labels,
                            class_count=len(gen.DIRECTIONS), temporal=True)

    def setup(self, i: int):
        paths, labels = gen.write_event_streams(self.dir("train"), self.N_TRAIN,
                                                sub_seed(self.MODEL_SEED, 1))
        train = self.ingest(paths, labels, timed=False)  # set-up ingest is not measured
        cfg = self.run_config(preset="cnn-small", t_train=self.T, epochs=self.EPOCHS,
                              lr_max=self.LR, batch_size=self.BATCH,
                              seed=sub_seed(self.MODEL_SEED, 3))
        model, opt = self.new_model(cfg, (2, gen.SENSOR, gen.SENSOR), 4)
        self.train_epochs(model, train, cfg, opt, self.EPOCHS)
        self.ckpt = os.path.join(self.dir(), "events.ckpt")
        digest = self.save_and_trip(self.ckpt, model, self.EPOCHS, opt)
        if i > 0:
            self.checks.same_digest(f"{self.name} set-up repeat", self.digest, digest)
        self.digest = digest

    def measure(self):
        self.timed_rounds(self.one_pass, self.QUALITY_ROUNDS)

    def one_pass(self, r: int, traced: bool):
        # writing the streams is input generation, outside every timer
        test_dir = self.dir(f"test{r}")
        paths, labels = gen.write_event_streams(test_dir, self.N_TEST, sub_seed(self.seed, 2, r))
        for _ in range(self.INGEST_PASSES):
            test = self.ingest(paths, labels, traced)
        model, _, _ = self.checks.run("load_checkpoint", self.tk.network.load_checkpoint,
                                      self.ckpt)
        self.checks.checkpoint_round_trip(self.tk, self.ckpt, self.ckpt + ".copy")
        top1 = self.sweep_top1(model, test, SWEEP, traced, self.EVAL_SLICE)
        # AURC needs the whole set in one report: one more, untimed, evaluate call
        rep = self.checks.run("evaluate", self.tk.evaluation.evaluate, model, test, self.T)
        self.record_quality(rep, top1, self.FLOOR, keep=r < self.QUALITY_ROUNDS)
        shutil.rmtree(test_dir)


WORKLOADS = {w.name: w for w in (MlpSynthTrain, CnnEventsEval)}
