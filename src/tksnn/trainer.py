"""Training loop: batching, AdamW, LR and alpha schedules.

Runs are deterministic: parameter init, batch shuffling, and dataset noise all
derive from explicit seeds, and every tensor op keeps a fixed summation order,
so one config + seed reproduces bit-identical checkpoints on one machine.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from . import tks
from .autodiff import DTYPE, GradTape, SurrogateSpec, backward
from .data import Dataset, build_dataset, prepare_sequence
from .errors import ConfigError, ContractError, DataError, TrainingAbort
from .lif import LifConfig
from .network import PRESETS, Model, build_model, load_checkpoint, save_checkpoint, unroll
from .tks import AlphaSchedule, TeacherConfig


class AdamW:
    """Adaptive-moment update with decoupled weight decay; clears grads on step."""

    def __init__(self, params, lr: float, weight_decay: float = 0.01,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.names = [n for n, _ in params]
        self.params = [p for _, p in params]
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        for name, p in zip(self.names, self.params):
            if p.grad is None:
                raise ContractError(f"AdamW.step before backward: no grad on {name}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if self.weight_decay:
                p.data *= DTYPE(1.0 - self.lr * self.weight_decay)
            m *= DTYPE(self.beta1)
            m += DTYPE(1.0 - self.beta1) * g
            v *= DTYPE(self.beta2)
            v += DTYPE(1.0 - self.beta2) * (g * g)
            m_hat = m / DTYPE(bc1)
            v_hat = v / DTYPE(bc2)
            p.data -= DTYPE(self.lr) * m_hat / (np.sqrt(v_hat) + DTYPE(self.eps))
            p.grad = None

    def moment_blobs(self):
        out = []
        for m, v in zip(self.m, self.v):
            out.append(m)
            out.append(v)
        return out

    def load_state(self, step_count: int, moments):
        self.step_count = int(step_count)
        it = iter(moments)
        for i in range(len(self.params)):
            self.m[i] = next(it).astype(DTYPE)
            self.v[i] = next(it).astype(DTYPE)


def cosine_lr(epoch: int, total_epochs: int, lr_max: float, lr_min: float) -> float:
    """Cosine annealing from lr_max (epoch 0) to lr_min (final epoch)."""
    if total_epochs <= 1:
        return lr_max
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * epoch / (total_epochs - 1)))


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class OptimConfig:
    lr_max: float = 5e-3
    lr_min: float = 0.0
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float = 0.0


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synth"
    # synth
    n_per_class: int = 150
    t_native: int = 10
    classes: int = 4
    noise_sigma: float = 0.3
    seed: int = 0
    # idx
    images: str = ""
    labels: str = ""

    def __post_init__(self):
        if self.kind not in ("synth", "idx"):
            raise ConfigError(f"unknown data kind {self.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    preset: str = "mlp-small"
    lif: LifConfig = field(default_factory=LifConfig)
    surrogate: SurrogateSpec = field(default_factory=SurrogateSpec)
    teacher: TeacherConfig = field(default_factory=TeacherConfig)
    alpha_start: float = 0.0
    alpha_end: float = 0.7
    optim: OptimConfig = field(default_factory=OptimConfig)
    data: DataConfig = field(default_factory=DataConfig)
    t_train: int = 10
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    out_dir: str = "runs/default"

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; available: {PRESETS}")
        for name in ("alpha_start", "alpha_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0,1], got {getattr(self, name)}")
        if self.t_train < 1:
            raise ConfigError(f"t_train must be >= 1, got {self.t_train}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.teacher.mode == "tks" and self.teacher.k > self.t_train:
            raise ConfigError(
                f"teacher.k ({self.teacher.k}) cannot exceed t_train ({self.t_train})"
            )


# Each JSON section sets either one nested config of RunConfig (named by a
# string; its keys are that dataclass's fields) or the listed scalar fields.
# _NESTED maps each nested field to its config class.
_SECTIONS = {
    "model": ("preset",),
    "lif": "lif",
    "surrogate": "surrogate",
    "teacher": "teacher",
    "schedule": ("alpha_start", "alpha_end"),
    "optimizer": "optim",
    "data": "data",
    "run": ("t_train", "epochs", "batch_size", "seed", "out_dir"),
}
_NESTED = {f.name: f.default_factory for f in fields(RunConfig) if f.default_factory is not MISSING}


def config_from_dict(raw: dict) -> RunConfig:
    """Parse the sectioned JSON config; unknown sections or keys are errors."""
    if not isinstance(raw, dict):
        raise ConfigError(f"a config is a JSON object of sections, got {type(raw).__name__}")
    kwargs = {}
    try:
        for section, values in raw.items():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section {section!r}")
            target = _SECTIONS[section]
            keys = [f.name for f in fields(_NESTED[target])] if isinstance(target, str) else target
            bad = set(values) - set(keys)
            if bad:
                raise ConfigError(f"unknown key(s) in [{section}]: {sorted(bad)}")
            if isinstance(target, str):
                kwargs[target] = _NESTED[target](**values)
            else:
                kwargs.update(values)
        return RunConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_dict(cfg: RunConfig) -> dict:
    return {section: asdict(getattr(cfg, target)) if isinstance(target, str)
            else {name: getattr(cfg, name) for name in target}
            for section, target in _SECTIONS.items()}


# ---------------------------------------------------------------------------
# epoch loop


@dataclass
class EpochReport:
    epoch: int
    lr: float
    alpha: float
    l_ce: float
    l_tks: float
    l_final: float
    train_acc: float
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def _clip_grads(params, max_norm: float):
    total = 0.0
    for p in params:
        total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        factor = DTYPE(max_norm / norm)
        for p in params:
            p.grad = p.grad * factor


def train_epoch(model: Model, data: Dataset, cfg: RunConfig, epoch: int,
                opt: AdamW, alpha: float) -> EpochReport:
    """One pass over the training set; returns mean losses and train accuracy."""
    start = time.perf_counter()
    if data.inputs.shape[0] == 0:
        raise DataError("the training set is empty")
    tc = cfg.teacher
    rng = np.random.default_rng([cfg.seed, epoch, 0x5EED])
    order = rng.permutation(data.inputs.shape[0])
    sum_ce = sum_tks = 0.0
    n_batches = 0
    correct = 0
    for bi, lo in enumerate(range(0, len(order), cfg.batch_size)):
        idx = order[lo : lo + cfg.batch_size]
        x_seq = prepare_sequence(data.inputs[idx], data.temporal, cfg.t_train)
        y = data.labels[idx]
        with GradTape() as tape:
            out = unroll(model, x_seq)
            loss, l_ce, l_tks = tks.objective(out, y, tc, alpha)
        if not (math.isfinite(l_ce) and math.isfinite(l_tks)):
            raise TrainingAbort(
                f"non-finite loss at epoch {epoch} batch {bi}: l_ce={l_ce} l_tks={l_tks}"
            )
        backward(loss, tape)
        if cfg.optim.grad_clip > 0:
            _clip_grads(opt.params, cfg.optim.grad_clip)
        opt.step()
        correct += int((out.o.data.argmax(axis=1) == y).sum())
        sum_ce += l_ce
        sum_tks += l_tks
        n_batches += 1
    mean_ce = sum_ce / n_batches
    mean_tks = sum_tks / n_batches
    return EpochReport(
        epoch=epoch,
        lr=opt.lr,
        alpha=alpha,
        l_ce=mean_ce,
        l_tks=mean_tks,
        l_final=(1.0 - alpha) * mean_ce + alpha * tc.tau**2 * mean_tks,
        train_acc=correct / len(order),
        wall_ms=(time.perf_counter() - start) * 1e3,
    )


def _check_resume(model: Model, epoch: int, cfg: RunConfig, data: Dataset, path: str) -> None:
    """The checkpoint must hold the model the config and training data describe,
    at an epoch no later than the config's last."""
    wanted = {"preset": cfg.preset, "input_shape": tuple(data.sample_shape),
              "class_count": data.class_count, "lif_cfg": cfg.lif, "surrogate": cfg.surrogate}
    differ = [f"{name}: checkpoint {getattr(model, name)!r}, config {value!r}"
              for name, value in wanted.items() if getattr(model, name) != value]
    if epoch > cfg.epochs:
        differ.append(f"epoch: checkpoint {epoch}, past the config's {cfg.epochs} epochs")
    if differ:
        raise ConfigError(f"resume checkpoint {path} does not match the config: "
                          + "; ".join(differ))


def fit(cfg: RunConfig, resume: str | None = None):
    """Full training run: writes a checkpoint and one metrics record per epoch.

    Returns (model, list of EpochReport). A resume checkpoint must match the
    config's model settings and the training data's shape and class count.
    """
    data = build_dataset(cfg.data, split="train")
    if data.inputs.shape[0] == 0:
        raise DataError("the training set is empty")
    start_epoch, opt_state = 0, None
    if resume is None:
        model = build_model(cfg.preset, data.sample_shape, data.class_count,
                            cfg.lif, cfg.surrogate, cfg.seed)
    else:
        model, header, opt_state = load_checkpoint(resume)
        start_epoch = int(header["epoch"])
        _check_resume(model, start_epoch, cfg, data, resume)
    opt = AdamW(model.parameters(), lr=cfg.optim.lr_max, weight_decay=cfg.optim.weight_decay,
                betas=(cfg.optim.beta1, cfg.optim.beta2), eps=cfg.optim.eps)
    if opt_state is not None:
        opt.load_state(*opt_state)
    sched = AlphaSchedule(cfg.alpha_start, cfg.alpha_end, max(cfg.epochs, 1))
    os.makedirs(cfg.out_dir, exist_ok=True)
    reports = []
    mode = "w" if resume is None else "a"
    with open(os.path.join(cfg.out_dir, "metrics.jsonl"), mode) as metrics:
        for epoch in range(start_epoch, cfg.epochs):
            opt.lr = cosine_lr(epoch, cfg.epochs, cfg.optim.lr_max, cfg.optim.lr_min)
            alpha = tks.alpha_at(epoch, sched) if cfg.teacher.mode == "tks" else 0.0
            report = train_epoch(model, data, cfg, epoch, opt, alpha)
            metrics.write(report.to_json() + "\n")
            metrics.flush()
            reports.append(report)
    save_checkpoint(os.path.join(cfg.out_dir, "model.ckpt"), model, epoch=cfg.epochs, optimizer=opt)
    return model, reports
