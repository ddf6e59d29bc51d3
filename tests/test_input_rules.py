"""The library's input rules, each run through every public entry it guards.

Labels: a numpy array of shape (n,), an integer dtype (bool refused) and values
in [0, C), else DataError. Counts: an integer (bool refused) at or above the
site's minimum, else ParameterError. Dataset inputs: a numpy array [N, ...],
with a time axis [N, T, ...] when temporal, else DataError.
"""

import numpy as np
import pytest

from tksnn.autodiff import SurrogateSpec, Tensor
from tksnn.data import (
    Dataset, EventStream, bin_events, class_schedules, prepare_sequence, synth_temporal,
)
from tksnn.errors import DataError, ParameterError
from tksnn.evaluation import evaluate, per_class_accuracy, top1_accuracy
from tksnn.lif import LifConfig
from tksnn.network import TemporalOutput, build_model, parameter_shapes
from tksnn.tks import (
    AlphaSchedule, alpha_at, baseline_loss, ce_loss, select_teachers,
)

N, C, T = 3, 3, 4  # samples, classes, timesteps

BAD_LABELS = {
    "list": [0, 1, 2],
    "2-d": np.array([[0], [1], [2]]),
    "float": np.array([0.0, 1.0, 2.0]),
    "bool": np.array([True, False, True]),
    "wrong length": np.array([0, 1]),
    "negative": np.array([0, -1, 2]),
    "class C": np.array([0, 1, C]),
}


def temporal_output():
    rng = np.random.default_rng(0)
    q = rng.normal(size=(T, N, C)).astype(np.float32)
    v = np.exp(q) / np.exp(q).sum(axis=-1, keepdims=True)
    o = v.mean(axis=0)
    return TemporalOutput(q=Tensor(q), v=Tensor(v), o=Tensor(o))


def evaluate_with_labels(labels):
    model = build_model("mlp-small", (2,), C, LifConfig(), SurrogateSpec(), 0)
    data = Dataset(inputs=np.zeros((N, 2), dtype=np.float32), labels=np.arange(N),
                   class_count=C, temporal=False)
    data.labels = labels  # a caller may replace the labels after the checks at build
    return evaluate(model, data, 2)


LABEL_ENTRIES = {
    "Dataset": lambda y: Dataset(inputs=np.zeros((N, 2), dtype=np.float32), labels=y,
                                 class_count=C, temporal=False),
    "select_teachers": lambda y: select_teachers(temporal_output().v.data, y, 1),
    "ce_loss": lambda y: ce_loss(temporal_output().o, y),
    "label_smoothing": lambda y: baseline_loss("label_smoothing", temporal_output(), y, 0.1),
    "per_timestep_labels": lambda y: baseline_loss("per_timestep_labels", temporal_output(), y),
    "top1_accuracy": lambda y: top1_accuracy(temporal_output().o.data, y),
    "per_class_accuracy": lambda y: per_class_accuracy(temporal_output().o.data, y, C),
    "evaluate": evaluate_with_labels,
}


@pytest.mark.parametrize("labels", BAD_LABELS)
@pytest.mark.parametrize("entry", LABEL_ENTRIES)
def test_every_entry_that_takes_labels_refuses_bad_ones(entry, labels):
    with pytest.raises(DataError, match=rf"need {N} integer class ids in \[0,{C}\)"):
        LABEL_ENTRIES[entry](BAD_LABELS[labels])


@pytest.mark.parametrize("entry", LABEL_ENTRIES)
def test_every_entry_that_takes_labels_accepts_good_ones(entry):
    for dtype in (np.int64, np.int32, np.uint8):
        LABEL_ENTRIES[entry](np.array([2, 0, 1], dtype=dtype))


def one_event():
    return EventStream(events=np.array([[0, 1, 1, 1]], dtype=np.int64), duration=0)


COUNT_SITES = {
    "prepare_sequence t_len": lambda n: prepare_sequence(np.ones((2, 3)), False, n),
    "class_schedules t_len": lambda n: class_schedules(2, n),
    "class_schedules classes": lambda n: class_schedules(n, 4),
    "bin_events t_len": lambda n: bin_events(one_event(), n, 2, 2),
    "bin_events width": lambda n: bin_events(one_event(), 2, n, 2),
    "bin_events height": lambda n: bin_events(one_event(), 2, 2, n),
    "AlphaSchedule total_epochs": lambda n: AlphaSchedule(0.0, 0.7, n),
    "select_teachers k": lambda n: select_teachers(temporal_output().v.data, np.arange(N), n),
    "alpha_at epoch": lambda n: alpha_at(n, AlphaSchedule(0.0, 0.7, 5)),
    "Dataset class_count": lambda n: Dataset(inputs=np.zeros((N, 2), dtype=np.float32),
                                             labels=np.zeros(N, dtype=np.int64),
                                             class_count=n, temporal=False),
    "synth_temporal n_per_class": lambda n: synth_temporal(n, 2, 2, 0.1, seed=0),
    "synth_temporal seed": lambda n: synth_temporal(1, 2, 2, 0.1, seed=n),
    "build_model input size": lambda n: build_model("mlp-small", (n,), C, LifConfig(),
                                                    SurrogateSpec(), 0),
    "parameter_shapes input size": lambda n: parameter_shapes("mlp-small", (2, n), C),
}
BAD_COUNTS = (2.5, True, 0, -1)
# epoch 0 is the first epoch; an empty set and seed 0 are valid too
ZERO_SITES = ("alpha_at epoch", "synth_temporal n_per_class", "synth_temporal seed")


@pytest.mark.parametrize("site,count", [
    (site, count) for site in COUNT_SITES for count in BAD_COUNTS
    if not (site in ZERO_SITES and count == 0)
])
def test_every_count_site_refuses_a_non_integer_or_one_below_its_minimum(site, count):
    with pytest.raises(ParameterError):
        COUNT_SITES[site](count)


@pytest.mark.parametrize("site", COUNT_SITES)
def test_every_count_site_takes_numpy_integers(site):
    COUNT_SITES[site](np.int64(2))


def test_select_teachers_refuses_more_teachers_than_timesteps():
    with pytest.raises(ParameterError, match=r"k=5 must be in \[1, T=4\]"):
        select_teachers(temporal_output().v.data, np.arange(N), T + 1)


BAD_INPUTS = {  # (inputs, temporal)
    "list": ([[0.0, 0.0]] * N, False),
    "0-d array": (np.array(0.0, dtype=np.float32), False),
    "temporal without a time axis": (np.zeros(N, dtype=np.float32), True),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_dataset_refuses_inputs_that_are_not_an_array_with_its_axes(case):
    inputs, temporal = BAD_INPUTS[case]
    with pytest.raises(DataError, match=r"inputs must be a numpy array \[N, ...\]"):
        Dataset(inputs=inputs, labels=np.zeros(N, dtype=np.int64), class_count=C,
                temporal=temporal)


@pytest.mark.parametrize("temporal", [False, True])
def test_dataset_takes_inputs_of_the_least_rank(temporal):
    shape = (N, T) if temporal else (N,)
    assert Dataset(inputs=np.zeros(shape, dtype=np.float32), labels=np.zeros(N, dtype=np.int64),
                   class_count=C, temporal=temporal).inputs.shape == shape
