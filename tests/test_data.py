import struct

import numpy as np
import pytest

from tksnn.data import (
    BLOCK_SIZE,
    Dataset,
    EventStream,
    bin_events,
    build_dataset,
    class_schedules,
    load_events,
    load_idx,
    prepare_sequence,
    save_idx,
    synth_temporal,
)
from tksnn.errors import DataError, FormatError, ParameterError
from tksnn.trainer import DataConfig


# ---------------------------------------------------------------------------
# sequence preparation


def test_prepare_static_repeats_frames():
    batch = np.arange(6, dtype=np.float32).reshape(2, 3)
    seq = prepare_sequence(batch, temporal=False, t_len=4)
    assert seq.shape == (4, 2, 3)
    for t in range(4):
        assert np.array_equal(seq[t], batch)


def test_prepare_temporal_truncates_head():
    batch = np.arange(24, dtype=np.float32).reshape(2, 4, 3)  # [B, T, F]
    seq = prepare_sequence(batch, temporal=True, t_len=2)
    assert seq.shape == (2, 2, 3)
    assert seq.flags.c_contiguous and seq.dtype == np.float32  # unroll views it as [T·B, F]
    assert np.array_equal(seq[0], batch[:, 0])
    assert np.array_equal(seq[1], batch[:, 1])


def test_prepare_temporal_pads_with_silence():
    batch = np.ones((1, 2, 3), dtype=np.float32)
    seq = prepare_sequence(batch, temporal=True, t_len=5)
    assert seq.shape == (5, 1, 3)
    assert seq.flags.c_contiguous and seq.dtype == np.float32
    assert seq[:2].all()
    assert not seq[2:].any()


def test_prepare_rejects_zero_length():
    with pytest.raises(ParameterError):
        prepare_sequence(np.ones((1, 2)), temporal=False, t_len=0)


# ---------------------------------------------------------------------------
# synthetic task


def test_schedules_identity_and_reversal():
    s = class_schedules(2, 5)
    assert np.array_equal(s[0], [0, 1, 2, 3, 4])
    assert np.array_equal(s[1], [4, 3, 2, 1, 0])


def test_schedules_distinct_and_deterministic():
    a = class_schedules(6, 5)
    b = class_schedules(6, 5)
    assert np.array_equal(a, b)
    assert len({tuple(row) for row in a}) == 6
    for row in a:
        assert sorted(row) == list(range(5))  # every schedule is a permutation


def test_schedules_prefix_stability():
    # asking for fewer classes must give a prefix of the larger table
    assert np.array_equal(class_schedules(3, 6), class_schedules(5, 6)[:3])


def test_schedules_rejects_impossible_requests():
    with pytest.raises(ParameterError):
        class_schedules(2, 1)
    with pytest.raises(ParameterError):
        class_schedules(3, 2)  # only 2 permutations of length 2


def test_synth_shapes_and_balance():
    ds = synth_temporal(7, 5, 3, 0.1, seed=0)
    assert ds.inputs.shape == (21, 5, 5 * BLOCK_SIZE)
    assert ds.temporal
    assert np.array_equal(np.bincount(ds.labels), [7, 7, 7])


def test_synth_is_deterministic_per_seed():
    a = synth_temporal(4, 4, 2, 0.3, seed=5)
    b = synth_temporal(4, 4, 2, 0.3, seed=5)
    c = synth_temporal(4, 4, 2, 0.3, seed=6)
    assert np.array_equal(a.inputs, b.inputs)
    assert not np.array_equal(a.inputs, c.inputs)


def test_synth_noiseless_class1_is_time_reversal_of_class0():
    ds = synth_temporal(1, 4, 2, 0.0, seed=0)
    sample0 = ds.inputs[0]  # class 0
    sample1 = ds.inputs[1]  # class 1
    assert np.array_equal(sample1, sample0[::-1])


def test_synth_frame_histograms_identical_across_classes():
    # each frame lights exactly one block, so sorting features per frame
    # removes all class information; only ordering separates the classes
    ds = synth_temporal(1, 5, 4, 0.0, seed=0)
    sorted_frames = np.sort(ds.inputs, axis=2)
    for i in range(1, ds.inputs.shape[0]):
        assert np.array_equal(sorted_frames[i], sorted_frames[0])


def test_synth_time_collapsed_centroids_are_uninformative():
    # a classifier that ignores order (mean over frames) sits at chance
    ds = synth_temporal(50, 5, 4, 0.2, seed=3)
    collapsed = ds.inputs.mean(axis=1)  # [N, F]
    centroids = np.stack([collapsed[ds.labels == c].mean(axis=0) for c in range(4)])
    d = ((collapsed[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    acc = (d.argmin(axis=1) == ds.labels).mean()
    assert acc < 0.45  # chance is 0.25; order removal must destroy the signal


def test_build_dataset_train_test_split_seeds():
    cfg = DataConfig(n_per_class=3, t_native=4, classes=2, noise_sigma=0.2, seed=9)
    train = build_dataset(cfg, split="train")
    test = build_dataset(cfg, split="test")
    assert not np.array_equal(train.inputs, test.inputs)
    # same schedules underneath: noiseless versions coincide
    clean_cfg = DataConfig(n_per_class=1, t_native=4, classes=2, noise_sigma=0.0, seed=9)
    a = build_dataset(clean_cfg, "train")
    b = build_dataset(clean_cfg, "test")
    assert np.array_equal(a.inputs, b.inputs)


# ---------------------------------------------------------------------------
# IDX files


def test_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    save_idx(ip, lp, images, labels)
    ds = load_idx(ip, lp)
    assert ds.inputs.shape == (5, 4, 3)
    assert ds.inputs.dtype == np.float32
    assert np.allclose(ds.inputs, images / 255.0, atol=1e-7)
    assert np.array_equal(ds.labels, labels)
    assert ds.class_count == 3
    assert not ds.temporal


def test_idx_byte_exact_resave(tmp_path):
    rng = np.random.default_rng(1)
    images = rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8)
    labels = np.array([1, 0, 1], dtype=np.uint8)
    p1 = [str(tmp_path / n) for n in ("a.im", "a.lb")]
    p2 = [str(tmp_path / n) for n in ("b.im", "b.lb")]
    save_idx(*p1, images, labels)
    ds = load_idx(*p1)
    save_idx(*p2, (ds.inputs * 255.0).round().astype(np.uint8), ds.labels)
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_idx_bad_magic(tmp_path):
    p = tmp_path / "bad.idx"
    p.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    lp = tmp_path / "lb.idx"
    lp.write_bytes(struct.pack(">II", 0x801, 1) + b"\x00")
    with pytest.raises(FormatError, match="magic"):
        load_idx(str(p), str(lp))


def test_idx_truncated_body(tmp_path):
    p = tmp_path / "trunc.idx"
    p.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 5)  # needs 8
    lp = tmp_path / "lb.idx"
    lp.write_bytes(struct.pack(">II", 0x801, 2) + b"\x00\x01")
    with pytest.raises(FormatError, match="expected 8 pixel bytes"):
        load_idx(str(p), str(lp))


def test_idx_count_mismatch(tmp_path):
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    save_idx(ip, lp, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    with open(lp, "wb") as f:
        f.write(struct.pack(">II", 0x801, 3) + b"\x00\x00\x00")
    with pytest.raises(FormatError, match="image count 2 != label count 3"):
        load_idx(ip, lp)


# ---------------------------------------------------------------------------
# event streams


def test_load_events_sorts_and_rebases(tmp_path):
    p = tmp_path / "ev.txt"
    p.write_text("500 1 0 1\n100 0 1 0\n300 2 2 1\n")
    stream = load_events(str(p))
    assert np.array_equal(stream.events[:, 0], [0, 200, 400])
    assert stream.width == 3 and stream.height == 3
    assert stream.duration == 400


def test_load_events_error_reporting(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 0 1\n1 2 3\n")
    with pytest.raises(FormatError, match="bad.txt:2"):
        load_events(str(p))
    p.write_text("0 0 0 2\n")
    with pytest.raises(FormatError, match="polarity"):
        load_events(str(p))
    p.write_text("0 0 x 1\n")
    with pytest.raises(FormatError, match="non-integer"):
        load_events(str(p))


def test_load_events_empty_file(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("\n\n")
    stream = load_events(str(p))
    assert stream.events.shape == (0, 4)
    assert bin_events(stream, 3, 2, 2).sum() == 0


def test_bin_events_window_assignment(tmp_path):
    p = tmp_path / "ev.txt"
    # duration 100; T=2 windows are [0,50) and [50,100]
    p.write_text("0 0 0 0\n49 1 0 1\n50 0 1 0\n100 1 1 1\n")
    frames = bin_events(load_events(str(p)), t_len=2, width=2, height=2)
    assert frames[0, 0, 0, 0] == 1.0  # t=0
    assert frames[0, 1, 0, 1] == 1.0  # t=49 stays in first window
    assert frames[1, 0, 1, 0] == 1.0  # t=50 opens the second window
    assert frames[1, 1, 1, 1] == 1.0  # final event kept in closed last window


def test_bin_events_conserves_count_and_caps():
    ev = np.array([[0, 0, 0, 1], [10, 0, 0, 1], [10, 0, 0, 1], [20, 0, 0, 1]], dtype=np.int64)
    stream = EventStream(events=ev, width=1, height=1, duration=20)
    frames = bin_events(stream, t_len=4, width=1, height=1)
    assert frames.sum() == 4.0
    capped = bin_events(stream, t_len=1, width=1, height=1, cap=3)
    assert capped.sum() == 3.0


def test_bin_events_out_of_bounds_coordinates():
    ev = np.array([[0, 5, 0, 1]], dtype=np.int64)
    stream = EventStream(events=ev, width=6, height=1, duration=0)
    with pytest.raises(DataError):
        bin_events(stream, t_len=1, width=2, height=2)


def test_bin_events_random_streams_conserve_counts():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 200))
        ev = np.zeros((n, 4), dtype=np.int64)
        ev[:, 0] = np.sort(rng.integers(0, 1000, size=n))
        ev[:, 1] = rng.integers(0, 4, size=n)
        ev[:, 2] = rng.integers(0, 3, size=n)
        ev[:, 3] = rng.integers(0, 2, size=n)
        ev[:, 0] -= ev[0, 0]
        stream = EventStream(events=ev, width=4, height=3, duration=int(ev[-1, 0]))
        t_len = int(rng.integers(1, 9))
        frames = bin_events(stream, t_len, 4, 3)
        assert frames.sum() == n


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(DataError):
        Dataset(inputs=np.zeros((2, 3), dtype=np.float32),
                labels=np.array([0, 5]), class_count=2, temporal=False)


def test_dataset_rejects_labels_of_another_length():
    with pytest.raises(DataError, match="10 inputs but 6 labels"):
        Dataset(inputs=np.zeros((10, 3), dtype=np.float32),
                labels=np.zeros(6, dtype=np.int64), class_count=2, temporal=False)
