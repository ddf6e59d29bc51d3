"""Metrics and analysis runs: Top-1, AURC, per-timestep and per-class accuracy,
and train/test timestep-mismatch sweeps."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, prepare_sequence
from .errors import DataError, ParameterError
from .network import Model, unroll

# float32 elements one unroll call may hold in its widest activation: an
# unroll keeps all T steps of its samples, so this caps samples per call
BUDGET = 2**22
# samples per unroll call when the budget allows that many
BATCH = 256


@dataclass
class EvalReport:
    top1: float
    aurc: float  # reported x10^3
    per_timestep_acc: np.ndarray
    per_class_acc: np.ndarray
    confusion: np.ndarray
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "top1": self.top1,
            "aurc_x1000": self.aurc,
            "per_timestep_acc": [float(a) for a in self.per_timestep_acc],
            "per_class_acc": [None if np.isnan(a) else float(a) for a in self.per_class_acc],
            "confusion": self.confusion.astype(int).tolist(),
            "n_samples": self.n_samples,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def top1_accuracy(o: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of samples whose argmax (ties toward smaller index) is the label."""
    return float((o.argmax(axis=1) == np.asarray(labels)).mean())


def aurc(confidence: np.ndarray, correct: np.ndarray) -> float:
    """Mean selective risk over all coverage prefixes, confidence descending.

    Ties are broken by sample index. Returns the raw area in [0, 1].
    """
    confidence = np.asarray(confidence)
    correct = np.asarray(correct)
    if len(confidence) < 1:
        raise ParameterError("aurc needs at least one sample")
    order = np.argsort(-confidence, kind="stable")
    errors = 1.0 - correct[order].astype(np.float64)
    prefix_risk = np.cumsum(errors) / np.arange(1, len(errors) + 1)
    return float(prefix_risk.mean())


def per_class_accuracy(o: np.ndarray, labels: np.ndarray, class_count: int):
    """Per-class conditional accuracy (NaN flags an absent class) and confusion counts."""
    labels = np.asarray(labels)
    pred = o.argmax(axis=1)
    confusion = np.zeros((class_count, class_count), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)
    totals = confusion.sum(axis=1)
    acc = np.full(class_count, np.nan)
    present = totals > 0
    acc[present] = confusion.diagonal()[present] / totals[present]
    return acc, confusion


def evaluate(model: Model, data: Dataset, t_test: int) -> EvalReport:
    """Frozen-model evaluation at a given number of timesteps.

    Each unroll call holds all t_test steps of its samples at once, so it takes
    max(1, min(BATCH, BUDGET // (t_test * model.widest_activation)))
    samples: the whole batch for small models, fewer for wide or long ones.
    The data set must be nonempty and its labels must name the model's classes.
    """
    if t_test < 1:
        raise ParameterError("t_test must be >= 1")
    labels = data.labels
    if not len(labels):
        raise DataError("the evaluation set is empty")
    if labels.max() >= model.class_count:
        raise DataError(f"label {labels.max()} outside the model's {model.class_count} classes")
    n = data.inputs.shape[0]
    per_call = max(1, min(BATCH, BUDGET // (t_test * model.widest_activation)))
    o_all = np.empty((n, model.class_count), dtype=np.float64)
    v_sum_correct = np.zeros(t_test)  # per-timestep correct counts
    for lo in range(0, n, per_call):
        batch = data.inputs[lo : lo + per_call]
        y = labels[lo : lo + per_call]
        x_seq = prepare_sequence(batch, data.temporal, t_test)
        out = unroll(model, x_seq)  # no tape active: inference only
        o_all[lo : lo + len(batch)] = out.o.data
        pred_t = out.v.data.argmax(axis=2)  # [T, b]
        v_sum_correct += (pred_t == y[None, :]).sum(axis=1)
    top1 = top1_accuracy(o_all, labels)
    confidence = o_all.max(axis=1)
    correct = (o_all.argmax(axis=1) == labels).astype(np.float64)
    acc_c, confusion = per_class_accuracy(o_all, labels, model.class_count)
    return EvalReport(
        top1=top1,
        aurc=aurc(confidence, correct) * 1e3,
        per_timestep_acc=v_sum_correct / n,
        per_class_acc=acc_c,
        confusion=confusion,
        n_samples=n,
    )


def timestep_sweep(model: Model, data: Dataset, t_values) -> dict[int, EvalReport]:
    """Re-evaluate the same frozen model at each requested test length."""
    out = {}
    for t_test in t_values:
        out[int(t_test)] = evaluate(model, data, int(t_test))
    return out


def write_sweep_csv(path: str, sweep: dict[int, EvalReport]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t_test", "top1", "aurc_x1000"])
        for t_test in sorted(sweep):
            rep = sweep[t_test]
            writer.writerow([t_test, f"{rep.top1:.6f}", f"{rep.aurc:.6f}"])
