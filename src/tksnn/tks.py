"""Temporal knowledge sharing: teacher construction and loss terms.

The network's per-timestep outputs are treated as sub-models of a temporal
ensemble. Selected sub-models form a gradient-detached teacher distribution;
every sub-model is pulled toward the teacher through a temperature-scaled
cross-entropy, mixed with the label cross-entropy by a linearly scheduled
coefficient:

    l_final = (1 - alpha) * l_ce + alpha * tau^2 * l_tks
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, Tensor
from .errors import (
    ConfigError, ContractError, DataError, ParameterError, check_float, check_int,
)

TEACHER_MODES = ("tks", "none", "label_smoothing", "per_timestep_labels")


@dataclass(frozen=True)
class TeacherConfig:
    mode: str = "tks"
    k: int = 2
    tau: float = 3.0
    epsilon: float = 0.1

    def __post_init__(self):
        if self.mode not in TEACHER_MODES:
            raise ConfigError(f"unknown teacher mode {self.mode!r}")
        check_int("teacher count k", self.k, 1, ParameterError)
        check_float("temperature", self.tau, ParameterError)
        check_float("smoothing epsilon", self.epsilon, ParameterError)
        if self.tau <= 0:
            raise ParameterError(f"temperature must be positive, got {self.tau}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ParameterError(f"smoothing epsilon must be in [0,1), got {self.epsilon}")


@dataclass
class TeacherSignal:
    """Detached teacher distribution z [B,C] plus the chosen timestep indices."""

    z: np.ndarray
    selected: np.ndarray  # [B, k] timestep indices


@dataclass(frozen=True)
class AlphaSchedule:
    alpha_start: float = 0.0
    alpha_end: float = 0.7
    total_epochs: int = 30

    def __post_init__(self):
        for a in (self.alpha_start, self.alpha_end):
            check_float("alpha bound", a, ParameterError)
            if not 0.0 <= a <= 1.0:
                raise ParameterError(f"alpha bounds must lie in [0,1], got {a}")
        if self.total_epochs < 1:
            raise ParameterError("schedule needs at least one epoch")


def _as_array(v) -> np.ndarray:
    return v.data if isinstance(v, Tensor) else np.asarray(v, dtype=DTYPE)


def _one_hot(labels, b: int, c: int) -> np.ndarray:
    """Labels [b] as float32 one-hot rows [b, c]; DataError unless there are b of
    them, each an integer in [0, c)."""
    labels = np.asarray(labels)
    if labels.shape != (b,):
        raise DataError(f"{b} samples need {b} labels, got an array of shape {labels.shape}")
    if labels.dtype.kind not in "iu" or labels.min() < 0 or labels.max() >= c:
        raise DataError(f"labels must be integers in [0,{c})")
    return (labels[:, None] == np.arange(c)).astype(DTYPE)


def _cross_entropy(p: Tensor, target: np.ndarray) -> Tensor:
    """Every loss here: the mean over leading axes of -sum_c target * log p, with a [B,C]
    target broadcast over T. The sign sits in the target; negation is exact in IEEE."""
    return ad.mean(ad.sum_last(ad.mul(Tensor(-target), ad.log(p))))


def select_teachers(v, labels, k: int) -> np.ndarray:
    """Per sample: the k timesteps with highest true-class probability.

    Ties break toward smaller t (stable sort). Returns int indices [B, k].
    """
    va = _as_array(v)
    t_len = va.shape[0]
    onehot = _one_hot(labels, va.shape[1], va.shape[-1])
    if not 1 <= k <= t_len:
        raise ParameterError(f"teacher count k={k} must be in [1, T={t_len}]")
    true_prob = (va * onehot).sum(axis=-1)  # [T, B]
    order = np.argsort(-true_prob, axis=0, kind="stable")  # descending, smaller t first
    return np.sort(order[:k], axis=0).T.astype(np.int64)


def teacher_signal(q, selected: np.ndarray, tau: float) -> TeacherSignal:
    """Mean of the selected sub-models' logits, temperature-softmaxed, detached."""
    qa = _as_array(q)
    selected = np.asarray(selected, dtype=np.int64)
    t_len, b = qa.shape[:2]
    if selected.ndim != 2 or selected.shape[0] != b or selected.shape[1] < 1:
        raise ContractError(f"teacher selection must be a nonempty [B={b},k] index array, "
                            f"got shape {selected.shape}")
    if selected.size and (selected.min() < 0 or selected.max() >= t_len):
        raise ContractError(f"teacher timesteps must lie in [0,{t_len})")
    picked = qa[selected, np.arange(b)[:, None], :]  # [B, k, C]
    z = ad.softmax_temperature(Tensor(picked.mean(axis=1)), tau).data
    return TeacherSignal(z=z, selected=selected)


def tks_loss(v: Tensor, z: TeacherSignal | np.ndarray) -> Tensor:
    """Mean over timesteps and batch of CE(teacher || sub-model)."""
    v = ad.as_tensor(v)
    za = z.z if isinstance(z, TeacherSignal) else np.asarray(z, dtype=DTYPE)
    if v.shape[-2:] != za.shape:
        raise ContractError(f"teacher shape {za.shape} does not match outputs {v.shape}")
    return _cross_entropy(v, za)


def ce_loss(o: Tensor, labels) -> Tensor:
    """Label cross-entropy of the aggregated output o [B,C]: -E_b log o[b, y_b]."""
    o = ad.as_tensor(o)
    if o.ndim != 2:
        raise ContractError(f"ce_loss takes the aggregate o [B,C], got shape {o.shape}")
    return _cross_entropy(o, _one_hot(labels, *o.shape))


def final_loss(l_ce: Tensor, l_tks: Tensor, alpha: float, tau: float) -> Tensor:
    """Affine mix (1-alpha)*l_ce + alpha*tau^2*l_tks of two scalar loss tensors."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0,1], got {alpha}")
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    return ad.add(ad.scale(l_ce, 1.0 - alpha), ad.scale(l_tks, alpha * tau * tau))


def alpha_at(epoch: int, sched: AlphaSchedule) -> float:
    """Linear ramp from alpha_start to alpha_end over the run."""
    if not 0 <= epoch < sched.total_epochs:
        raise ParameterError(f"epoch {epoch} outside [0,{sched.total_epochs})")
    if sched.total_epochs == 1:
        return sched.alpha_end
    frac = epoch / (sched.total_epochs - 1)
    return sched.alpha_start + (sched.alpha_end - sched.alpha_start) * frac


def baseline_loss(mode: str, out, labels, epsilon: float = 0.0) -> Tensor:
    """Comparison losses on unroll's output: plain CE, label smoothing, per-step labels."""
    if mode == "none":
        return ce_loss(out.o, labels)
    b, c = out.o.shape
    onehot = _one_hot(labels, b, c)
    if mode == "label_smoothing":
        return _cross_entropy(out.o, onehot * (1.0 - epsilon) + epsilon / c)
    if mode == "per_timestep_labels":
        return _cross_entropy(out.v, onehot)
    raise ConfigError(f"unknown baseline mode {mode!r}")


def objective(out, labels, cfg: TeacherConfig, alpha: float):
    """The training loss of one step for the teacher mode in cfg.

    Returns (loss tensor, l_ce, l_tks). Comparison modes report their own loss
    as l_ce and l_tks = 0. At alpha = 0 the tks loss is plain CE, with the same
    graph as mode "none"; l_tks is still reported, computed off the tape.
    """
    if cfg.mode != "tks":
        loss = baseline_loss(cfg.mode, out, labels, cfg.epsilon)
        return loss, loss.item(), 0.0
    l_ce = ce_loss(out.o, labels)
    z = teacher_signal(out.q.data, select_teachers(out.v.data, labels, cfg.k), cfg.tau)
    if alpha == 0.0:
        return l_ce, l_ce.item(), tks_loss(out.v.data, z).item()
    l_tks = tks_loss(out.v, z)
    return final_loss(l_ce, l_tks, alpha, cfg.tau), l_ce.item(), l_tks.item()
