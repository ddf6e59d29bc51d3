"""Metrics and analysis runs: Top-1, AURC, per-timestep and per-class accuracy,
and train/test timestep-mismatch sweeps."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset, prepare_sequence
from .errors import DataError, ParameterError, check_int, check_labels
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
    """Fraction of samples whose argmax (ties toward smaller index) is the label;
    DataError unless there is one label in [0, C) per row of o [B, C]."""
    labels = check_labels(labels, o.shape[0], o.shape[1])
    return float((o.argmax(axis=1) == labels).mean())


def aurc(confidence: np.ndarray, correct: np.ndarray) -> float:
    """Mean selective risk over all coverage prefixes, confidence descending.

    Ties are broken by sample index. Returns the raw area in [0, 1]. ParameterError
    unless confidence and correct are 1-D, of one nonzero length.
    """
    confidence = np.asarray(confidence)
    correct = np.asarray(correct)
    if confidence.ndim != 1 or correct.shape != confidence.shape:
        raise ParameterError(f"aurc needs 1-D confidence and correct of one length, got shapes "
                             f"{confidence.shape} and {correct.shape}")
    if len(confidence) < 1:
        raise ParameterError("aurc needs at least one sample")
    order = np.argsort(-confidence, kind="stable")
    errors = 1.0 - correct[order].astype(np.float64)
    prefix_risk = np.cumsum(errors) / np.arange(1, len(errors) + 1)
    return float(prefix_risk.mean())


def per_class_accuracy(o: np.ndarray, labels: np.ndarray, class_count: int):
    """Per-class conditional accuracy (NaN flags an absent class) and confusion counts;
    DataError unless there is one label in [0, class_count) per row of o."""
    labels = check_labels(labels, o.shape[0], class_count)
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
    The data set must be nonempty and its labels must name the model's
    classes; t_test must be an integer >= 1 (ParameterError; a bool is not).
    """
    check_int("t_test", t_test, 1, ParameterError)
    n = data.inputs.shape[0]
    if not n:
        raise DataError("the evaluation set is empty")
    labels = check_labels(data.labels, n, model.class_count)
    per_call = max(1, min(BATCH, BUDGET // (t_test * model.widest_activation)))
    o_all = np.empty((n, model.class_count), dtype=np.float64)
    v_sum_correct = np.zeros(t_test)  # per-timestep correct counts
    for lo in range(0, n, per_call):
        batch = data.inputs[lo : lo + per_call]
        y = labels[lo : lo + per_call]
        x_seq = prepare_sequence(batch, data.temporal, t_test)
        out = unroll(model, x_seq)  # no tape active: inference only
        o_all[lo : lo + len(batch)] = out.o.data
        v_sum_correct += (out.v.data.argmax(axis=2) == y).sum(axis=1)  # [T, b] hits
    correct = (o_all.argmax(axis=1) == labels).astype(np.float64)
    acc_c, confusion = per_class_accuracy(o_all, labels, model.class_count)
    return EvalReport(
        top1=float(correct.mean()),
        aurc=aurc(o_all.max(axis=1), correct) * 1e3,
        per_timestep_acc=v_sum_correct / n,
        per_class_acc=acc_c,
        confusion=confusion,
        n_samples=n,
    )


def timestep_sweep(model: Model, data: Dataset, t_values) -> dict[int, EvalReport]:
    """Re-evaluate the same frozen model at each requested test length; every
    length is checked, as in `evaluate`, before any is evaluated."""
    t_values = list(t_values)
    for t_test in t_values:
        check_int("t_test", t_test, 1, ParameterError)
    return {int(t_test): evaluate(model, data, int(t_test)) for t_test in t_values}


def write_sweep_csv(path: str, sweep: dict[int, EvalReport]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["t_test", "top1", "aurc_x1000"])
        for t_test in sorted(sweep):
            rep = sweep[t_test]
            writer.writerow([t_test, f"{rep.top1:.6f}", f"{rep.aurc:.6f}"])
