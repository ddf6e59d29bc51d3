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
from .errors import ConfigError, ContractError, DataError, ParameterError

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
        if self.k < 1:
            raise ParameterError(f"teacher count k must be >= 1, got {self.k}")
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
            if not 0.0 <= a <= 1.0:
                raise ParameterError(f"alpha bounds must lie in [0,1], got {a}")
        if self.total_epochs < 1:
            raise ParameterError("schedule needs at least one epoch")


def _as_array(v) -> np.ndarray:
    return v.data if isinstance(v, Tensor) else np.asarray(v, dtype=DTYPE)


def select_teachers(v, labels, k: int) -> np.ndarray:
    """Per sample: the k timesteps with highest true-class probability.

    Ties break toward smaller t (stable sort). Returns int indices [B, k].
    """
    va = _as_array(v)
    t_len, b, c = va.shape
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label out of range [0,{c})")
    if not 1 <= k <= t_len:
        raise ParameterError(f"teacher count k={k} must be in [1, T={t_len}]")
    true_prob = np.take_along_axis(
        va, np.broadcast_to(labels[None, :, None], (t_len, b, 1)), axis=2
    )[:, :, 0]  # [T, B]
    order = np.argsort(-true_prob, axis=0, kind="stable")  # descending, smaller t first
    return np.sort(order[:k], axis=0).T.astype(np.int64)


def teacher_signal(q, selected: np.ndarray, tau: float) -> TeacherSignal:
    """Mean of the selected sub-models' logits, temperature-softmaxed, detached."""
    qa = _as_array(q)
    selected = np.asarray(selected, dtype=np.int64)
    if selected.ndim != 2 or selected.shape[1] < 1:
        raise ContractError("teacher selection must be a nonempty [B,k] index array")
    picked = qa[selected, np.arange(qa.shape[1])[:, None], :]  # [B, k, C]
    z = ad.softmax_temperature(Tensor(picked.mean(axis=1)), tau).data
    return TeacherSignal(z=z, selected=selected)


def tks_loss(v: Tensor, z: TeacherSignal | np.ndarray) -> Tensor:
    """Mean over timesteps and batch of CE(teacher || sub-model)."""
    v = ad.as_tensor(v)
    za = z.z if isinstance(z, TeacherSignal) else np.asarray(z, dtype=DTYPE)
    if v.shape[-2:] != za.shape:
        raise ContractError(f"teacher shape {za.shape} does not match outputs {v.shape}")
    per_tb = ad.sum_last(ad.mul(Tensor(za), ad.log(v)))  # [T, B]
    return ad.neg(ad.mean(per_tb))


def ce_loss(v: Tensor, labels) -> Tensor:
    """Label cross-entropy against the aggregated output: -E_b log o[b, y_b]."""
    v = ad.as_tensor(v)
    o = ad.mean(v, axis=0)
    return ad.neg(ad.mean(ad.log(ad.select_class(o, labels))))


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


def baseline_loss(mode: str, v: Tensor, labels, epsilon: float = 0.0) -> Tensor:
    """Comparison losses: plain CE, label smoothing, per-timestep label supervision."""
    v = ad.as_tensor(v)
    labels = np.asarray(labels)
    if mode == "none":
        return ce_loss(v, labels)
    if mode == "label_smoothing":
        c = v.shape[-1]
        target = np.full((labels.shape[0], c), epsilon / c, dtype=DTYPE)
        target[np.arange(labels.shape[0]), labels] += DTYPE(1.0 - epsilon)
        o = ad.mean(v, axis=0)
        per_b = ad.sum_last(ad.mul(Tensor(target), ad.log(o)))
        return ad.neg(ad.mean(per_b))
    if mode == "per_timestep_labels":
        return ad.neg(ad.mean(ad.log(ad.select_class(v, labels))))
    raise ConfigError(f"unknown baseline mode {mode!r}")


def objective(out, labels, cfg: TeacherConfig, alpha: float):
    """The training loss of one step for the teacher mode in cfg.

    Returns (loss tensor, l_ce, l_tks). Comparison modes report their own loss
    as l_ce and l_tks = 0. At alpha = 0 the tks loss is plain CE, with the same
    graph as mode "none"; l_tks is still reported, computed off the tape.
    """
    if cfg.mode != "tks":
        loss = baseline_loss(cfg.mode, out.v, labels, cfg.epsilon)
        return loss, loss.item(), 0.0
    l_ce = ce_loss(out.v, labels)
    z = teacher_signal(out.q.data, select_teachers(out.v.data, labels, cfg.k), cfg.tau)
    if alpha == 0.0:
        return l_ce, l_ce.item(), tks_loss(out.v.data, z).item()
    l_tks = tks_loss(out.v, z)
    return final_loss(l_ce, l_tks, alpha, cfg.tau), l_ce.item(), l_tks.item()
