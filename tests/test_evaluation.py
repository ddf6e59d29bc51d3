import itertools

import numpy as np
import pytest

from tksnn.autodiff import SurrogateSpec
from tksnn.data import Dataset, build_dataset, prepare_sequence
import tksnn.evaluation as evaluation
from tksnn.errors import DataError, ParameterError
from tksnn.evaluation import (
    aurc,
    evaluate,
    per_class_accuracy,
    timestep_sweep,
    top1_accuracy,
    write_sweep_csv,
)
from tksnn.lif import LifConfig
from tksnn.network import build_model, unroll
from tksnn.trainer import DataConfig


def brute_force_aurc(confidence, correct):
    """Quadratic oracle: explicit loop over coverage prefixes."""
    order = sorted(range(len(confidence)), key=lambda i: (-confidence[i], i))
    risks = []
    for n in range(1, len(order) + 1):
        kept = order[:n]
        risks.append(sum(1 - correct[i] for i in kept) / n)
    return sum(risks) / len(risks)


def small_dataset(seed=0):
    return build_dataset(
        DataConfig(n_per_class=6, t_native=4, classes=3, noise_sigma=0.2, seed=seed),
        split="test",
    )


# ---------------------------------------------------------------------------
# top-1 and per-class


def test_top1_basic_and_tie_to_smaller_index():
    o = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
    assert top1_accuracy(o, np.array([0, 1, 1])) == pytest.approx(2 / 3)


def test_per_class_accuracy_weighted_mean_recovers_top1():
    rng = np.random.default_rng(0)
    o = rng.random((40, 5))
    y = rng.integers(0, 5, size=40)
    acc, confusion = per_class_accuracy(o, y, 5)
    totals = confusion.sum(axis=1)
    weighted = np.nansum(acc * totals) / totals.sum()
    assert weighted == pytest.approx(top1_accuracy(o, y))
    assert confusion.sum() == 40


def test_per_class_accuracy_absent_class_is_nan():
    o = np.eye(3)[[0, 1]]
    acc, _ = per_class_accuracy(o, np.array([0, 1]), 3)
    assert acc[0] == 1.0 and acc[1] == 1.0 and np.isnan(acc[2])


def test_per_timestep_acc_matches_whole_set_unroll_oracle(monkeypatch):
    monkeypatch.setattr(evaluation, "BATCH", 5)
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=3)
    out = unroll(model, prepare_sequence(data.inputs, data.temporal, 4))
    hits = out.v.data.argmax(axis=2) == data.labels[None, :]  # [T, N]
    report = evaluate(model, data, t_test=4)
    assert report.per_timestep_acc.shape == (4,)
    assert np.array_equal(report.per_timestep_acc, hits.mean(axis=1))


# ---------------------------------------------------------------------------
# AURC


def test_aurc_all_correct_is_zero():
    assert aurc(np.array([0.9, 0.8, 0.7]), np.array([1.0, 1.0, 1.0])) == 0.0


def test_aurc_all_wrong_is_one():
    assert aurc(np.array([0.9, 0.8]), np.array([0.0, 0.0])) == 1.0


def test_aurc_hand_case():
    # order: conf 0.9 (correct), conf 0.5 (wrong); risks 0/1 and 1/2
    assert aurc(np.array([0.5, 0.9]), np.array([0.0, 1.0])) == pytest.approx(0.25)


def test_aurc_rewards_confidence_ranking():
    correct = np.array([1.0, 1.0, 0.0, 0.0])
    good = aurc(np.array([0.9, 0.8, 0.2, 0.1]), correct)
    bad = aurc(np.array([0.1, 0.2, 0.8, 0.9]), correct)
    assert good < bad


def test_aurc_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for trial in range(100):
        n = int(rng.integers(1, 30))
        conf = rng.random(n)
        if trial % 3 == 0:
            conf = np.round(conf, 1)  # force ties
        correct = (rng.random(n) < 0.7).astype(np.float64)
        assert aurc(conf, correct) == pytest.approx(
            brute_force_aurc(conf.tolist(), correct.tolist()), abs=1e-12
        )


def test_aurc_invariant_under_monotone_confidence_transform():
    rng = np.random.default_rng(2)
    conf = rng.random(50)
    correct = (rng.random(50) < 0.5).astype(np.float64)
    assert aurc(conf, correct) == aurc(np.exp(3 * conf), correct)


def test_aurc_empty_input_rejected():
    with pytest.raises(ParameterError):
        aurc(np.array([]), np.array([]))


def test_aurc_exhaustive_small_cases():
    # every correctness pattern for n=4 with strictly decreasing confidence
    conf = np.array([0.9, 0.7, 0.5, 0.3])
    for bits in itertools.product([0.0, 1.0], repeat=4):
        correct = np.array(bits)
        assert aurc(conf, correct) == pytest.approx(
            brute_force_aurc(conf.tolist(), correct.tolist()), abs=1e-12
        )


# ---------------------------------------------------------------------------
# evaluate / sweep


def test_evaluate_report_is_consistent():
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=0)
    rep = evaluate(model, data, t_test=4)
    assert rep.n_samples == data.inputs.shape[0]
    assert 0.0 <= rep.top1 <= 1.0
    assert 0.0 <= rep.aurc <= 1000.0
    assert rep.per_timestep_acc.shape == (4,)
    assert rep.confusion.sum() == rep.n_samples
    totals = rep.confusion.sum(axis=1)
    weighted = np.nansum(rep.per_class_acc * totals) / totals.sum()
    assert weighted == pytest.approx(rep.top1)


def test_evaluate_batch_size_does_not_change_results(monkeypatch):
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=1)
    monkeypatch.setattr(evaluation, "BATCH", 5)
    a = evaluate(model, data, t_test=4)
    monkeypatch.setattr(evaluation, "BATCH", 1000)
    b = evaluate(model, data, t_test=4)
    assert a.top1 == b.top1
    assert a.aurc == pytest.approx(b.aurc, abs=1e-12)
    assert np.array_equal(a.confusion, b.confusion)


def test_evaluate_samples_per_call_follow_activation_budget(monkeypatch):
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=1)
    assert model.widest_activation == 128  # the hidden layer
    whole = evaluate(model, data, t_test=4)
    sizes = []
    real_unroll = evaluation.unroll
    monkeypatch.setattr(evaluation, "unroll",
                        lambda m, x: sizes.append(x.shape[1]) or real_unroll(m, x))
    monkeypatch.setattr(evaluation, "BUDGET", 5 * 4 * 128)
    split = evaluate(model, data, t_test=4)
    assert sizes == [5, 5, 5, 3]
    monkeypatch.setattr(evaluation, "BUDGET", 1)  # never fewer than one sample
    sizes.clear()
    evaluate(model, data, t_test=4)
    assert sizes == [1] * 18
    assert split.top1 == whole.top1
    assert np.array_equal(split.confusion, whole.confusion)
    assert np.array_equal(split.per_timestep_acc, whole.per_timestep_acc)


def test_evaluate_rejects_labels_beyond_model_classes():
    data = small_dataset()  # 3 classes
    model = build_model("mlp-small", data.sample_shape, 2, LifConfig(), SurrogateSpec(), seed=0)
    with pytest.raises(DataError):
        evaluate(model, data, t_test=2)


def test_evaluate_rejects_an_empty_set_before_any_numpy_warning():
    # a numpy RuntimeWarning fails the test (pyproject's filterwarnings)
    data = small_dataset()
    empty = Dataset(data.inputs[:0], data.labels[:0], data.class_count, data.temporal)
    model = build_model("mlp-small", data.sample_shape, 3, LifConfig(), SurrogateSpec(), seed=0)
    with pytest.raises(DataError, match="evaluation set is empty"):
        evaluate(model, empty, t_test=2)


def test_sweep_contains_matched_timestep_entry():
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=2)
    sweep = timestep_sweep(model, data, [1, 2, 4])
    single = evaluate(model, data, t_test=4)
    assert sweep[4].top1 == single.top1
    assert sweep[4].aurc == single.aurc
    assert np.array_equal(sweep[4].confusion, single.confusion)
    assert set(sweep) == {1, 2, 4}


def test_write_sweep_csv(tmp_path):
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=0)
    sweep = timestep_sweep(model, data, [2, 1])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, sweep)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_test,top1,aurc_x1000"
    assert len(lines) == 3
    assert lines[1].startswith("1,") and lines[2].startswith("2,")  # sorted by t


def test_evaluate_rejects_bad_t_test():
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=0)
    with pytest.raises(ParameterError):
        evaluate(model, data, t_test=0)


def test_report_serialization_round_trip():
    data = small_dataset()
    model = build_model("mlp-small", data.sample_shape, data.class_count,
                        LifConfig(), SurrogateSpec(), seed=0)
    rep = evaluate(model, data, t_test=2)
    d = rep.to_dict()
    assert d["n_samples"] == rep.n_samples
    assert len(d["per_timestep_acc"]) == 2
    import json

    json.loads(rep.to_json())  # valid JSON
