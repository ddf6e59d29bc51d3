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
    ConfigError, ContractError, DataError, ParameterError, check_float, check_int, check_labels,
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
        check_int("total_epochs", self.total_epochs, 1, ParameterError)


def _batch_labels(labels, b: int, c: int) -> np.ndarray:
    """labels; DataError unless b > 0 and they pass `check_labels` for b samples of c classes."""
    if b == 0:
        raise DataError("an empty batch (B=0) has no labels to score")
    return check_labels(labels, b, c)


def _one_hot(labels, b: int, c: int) -> np.ndarray:
    """Labels [b] as float32 one-hot rows [b, c], checked as `_batch_labels` does."""
    return (_batch_labels(labels, b, c)[:, None] == np.arange(c)).astype(DTYPE)


def select_teachers(v, labels, k: int) -> np.ndarray:
    """Per sample: the k timesteps with highest true-class probability.

    Ties break toward smaller t (stable sort). Returns int indices [B, k].
    """
    va = ad.as_tensor(v).data
    t_len, b = va.shape[:2]
    labels = _batch_labels(labels, b, va.shape[-1])
    check_int("teacher count k", k, 1, ParameterError)
    if k > t_len:
        raise ParameterError(f"teacher count k={k} must be in [1, T={t_len}]")
    true_prob = va[:, np.arange(b), labels]  # [T, B]
    order = np.argsort(-true_prob, axis=0, kind="stable")  # descending, smaller t first
    return np.sort(order[:k], axis=0).T.astype(np.int64)


def teacher_signal(q, selected: np.ndarray, tau: float) -> np.ndarray:
    """Teacher z [B,C]: the mean of the selected sub-models' logits,
    temperature-softmaxed, as a plain (gradient-detached) array."""
    qa = ad.as_tensor(q).data
    selected = np.asarray(selected, dtype=np.int64)
    t_len, b = qa.shape[:2]
    if selected.ndim != 2 or selected.shape[0] != b or selected.shape[1] < 1:
        raise ContractError(f"teacher selection must be a nonempty [B={b},k] index array, "
                            f"got shape {selected.shape}")
    if selected.size and (selected.min() < 0 or selected.max() >= t_len):
        raise ContractError(f"teacher timesteps must lie in [0,{t_len})")
    picked = qa[selected, np.arange(b)[:, None], :]  # [B, k, C]
    return ad.softmax_temperature(Tensor(picked.mean(axis=1)), tau).data


def tks_loss(v: Tensor, z: np.ndarray) -> Tensor:
    """Mean over timesteps and batch of CE(teacher z [B,C] || sub-model)."""
    v = ad.as_tensor(v)
    if v.shape[-2:] != np.shape(z):
        raise ContractError(f"teacher shape {np.shape(z)} does not match outputs {v.shape}")
    return ad.cross_entropy(v, z)


def ce_loss(o: Tensor, labels) -> Tensor:
    """Label cross-entropy of the aggregated output o [B,C]: -E_b log o[b, y_b]."""
    o = ad.as_tensor(o)
    if o.ndim != 2:
        raise ContractError(f"ce_loss takes the aggregate o [B,C], got shape {o.shape}")
    return ad.cross_entropy(o, _one_hot(labels, *o.shape))


def final_loss(l_ce: Tensor, l_tks: Tensor, alpha: float, tau: float) -> Tensor:
    """Affine mix (1-alpha)*l_ce + alpha*tau^2*l_tks of two scalar losses, one tape node."""
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must be in [0,1], got {alpha}")
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    c_ce, c_tks = DTYPE(1.0 - alpha), DTYPE(alpha * tau * tau)
    out = Tensor(l_ce.data * c_ce + l_tks.data * c_tks)
    ad._record(out, (l_ce, l_tks), lambda g: (g * c_ce, g * c_tks))
    return out


def alpha_at(epoch: int, sched: AlphaSchedule) -> float:
    """Linear ramp from alpha_start to alpha_end over the run."""
    check_int("epoch", epoch, 0, ParameterError)
    if epoch >= sched.total_epochs:
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
        return ad.cross_entropy(out.o, onehot * (1.0 - epsilon) + epsilon / c)
    if mode == "per_timestep_labels":
        return ad.cross_entropy(out.v, onehot)
    raise ConfigError(f"unknown baseline mode {mode!r}")


def objective(out, labels, cfg: TeacherConfig, alpha: float):
    """The training loss of one step for the teacher mode in cfg.

    Returns (loss tensor, l_ce, l_tks). Comparison modes report their own loss
    as l_ce and l_tks = 0. Mode "tks" records one graph at every alpha: at
    alpha = 0 its tks side sends -0.0 to v, and x + (-0.0) = x, so the weights
    move exactly as under plain CE.
    """
    if cfg.mode != "tks":
        loss = baseline_loss(cfg.mode, out, labels, cfg.epsilon)
        return loss, loss.item(), 0.0
    l_ce = ce_loss(out.o, labels)
    z = teacher_signal(out.q.data, select_teachers(out.v.data, labels, cfg.k), cfg.tau)
    l_tks = tks_loss(out.v, z)
    return final_loss(l_ce, l_tks, alpha, cfg.tau), l_ce.item(), l_tks.item()
