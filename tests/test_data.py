import ast
import os
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tksnn.data
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
    one = prepare_sequence(batch.astype(np.float64), temporal=False, t_len=1)
    assert one.shape == (1, 2, 3) and one.dtype == np.float32


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
    for classes in (0, -1):
        with pytest.raises(ParameterError, match="at least one class"):
            class_schedules(classes, 4)


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


def ref_synth_temporal(n_per_class, t_len, classes, noise_sigma, seed):
    """synth_temporal's inputs, filled one sample and one frame at a time."""
    scheds = class_schedules(classes, t_len)
    rng = np.random.default_rng([seed, 0xDA7A])
    labels = np.repeat(np.arange(classes), n_per_class)
    inputs = np.zeros((len(labels), t_len, t_len * BLOCK_SIZE), dtype=np.float32)
    for i, y in enumerate(labels):
        for t in range(t_len):
            block = scheds[y, t]
            inputs[i, t, block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE] = 1.0
    if noise_sigma > 0:
        inputs += rng.normal(0.0, noise_sigma, size=inputs.shape).astype(np.float32)
    return inputs


@pytest.mark.parametrize("n_per_class,t_len,classes,sigma", [
    (1, 2, 2, 0.0), (3, 2, 1, 0.3), (5, 4, 3, 0.2), (7, 10, 4, 0.3), (2, 6, 9, 0.0), (0, 5, 3, 0.1),
])
def test_synth_matches_per_sample_reference(n_per_class, t_len, classes, sigma):
    ds = synth_temporal(n_per_class, t_len, classes, sigma, seed=4)
    ref = ref_synth_temporal(n_per_class, t_len, classes, sigma, seed=4)
    assert ds.inputs.dtype == ref.dtype and ds.inputs.shape == ref.shape
    assert ds.inputs.tobytes() == ref.tobytes()


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


def write_idx_pair(tmp_path, images=None, labels=None):
    """Paths of a valid 2-image IDX pair, with either file's bytes replaced."""
    ip, lp = tmp_path / "im.idx", tmp_path / "lb.idx"
    ip.write_bytes(images if images is not None else
                   struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(range(8)))
    lp.write_bytes(labels if labels is not None else struct.pack(">II", 0x801, 2) + b"\x00\x01")
    return str(ip), str(lp)


def assert_idx_error(tmp_path, message, **files):
    with pytest.raises(FormatError, match=re.escape(message)):
        load_idx(*write_idx_pair(tmp_path, **files))


def test_idx_bad_magic(tmp_path):
    assert_idx_error(tmp_path, "im.idx: bad magic 0xdeadbeef at byte 0",
                     images=struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
    assert_idx_error(tmp_path, "lb.idx: bad magic 0x00000803 at byte 0",
                     labels=struct.pack(">II", 0x803, 2) + b"\x00\x01")


def test_idx_truncated_header(tmp_path):
    assert_idx_error(tmp_path, "im.idx: truncated header at byte 12",
                     images=struct.pack(">III", 0x803, 2, 2))
    assert_idx_error(tmp_path, "lb.idx: truncated header at byte 3", labels=b"\x00\x00\x08")


def test_idx_truncated_body(tmp_path):
    assert_idx_error(tmp_path, "im.idx: expected 8 pixel bytes, got 5 (offset 16)",
                     images=struct.pack(">IIII", 0x803, 2, 2, 2) + b"\x00" * 5)
    assert_idx_error(tmp_path, "lb.idx: expected 2 label bytes, got 1 (offset 8)",
                     labels=struct.pack(">II", 0x801, 2) + b"\x00")
    assert_idx_error(tmp_path, "lb.idx: expected 2 label bytes, got 3 (offset 8)",
                     labels=struct.pack(">II", 0x801, 2) + b"\x00" * 3)


def test_idx_count_mismatch(tmp_path):
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    save_idx(ip, lp, np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(2, dtype=np.uint8))
    with open(lp, "wb") as f:
        f.write(struct.pack(">II", 0x801, 3) + b"\x00\x00\x00")
    with pytest.raises(FormatError, match="image count 2 != label count 3"):
        load_idx(ip, lp)


@pytest.mark.parametrize("images,labels", [
    (np.zeros((2, 4), dtype=np.uint8), np.zeros(2, dtype=np.uint8)),  # images not rank 3
    (np.zeros((2, 2, 2, 1), dtype=np.uint8), np.zeros(2, dtype=np.uint8)),
    (np.zeros((2, 2, 2), dtype=np.uint8), np.zeros((2, 1), dtype=np.uint8)),  # labels not rank 1
    (np.zeros((2, 2, 2), dtype=np.uint8), np.zeros(3, dtype=np.uint8)),  # counts differ
])
def test_save_idx_rejects_bad_shapes(tmp_path, images, labels):
    with pytest.raises(ParameterError, match=r"images \[N,H,W\] and labels \[N\]"):
        save_idx(str(tmp_path / "im.idx"), str(tmp_path / "lb.idx"), images, labels)


@pytest.mark.parametrize("images,labels,what", [
    (np.zeros((1, 2, 2), dtype=np.uint8), np.array([300]), "labels"),  # would wrap to 44
    (np.zeros((1, 2, 2), dtype=np.uint8), [300], "labels"),  # a Python list
    (np.zeros((1, 2, 2), dtype=np.uint8), np.array([-1]), "labels"),
    (np.full((1, 2, 2), 1.7), np.array([0]), "pixels"),  # would truncate to 1
    (np.full((1, 2, 2), -1.0), np.array([0]), "pixels"),  # would wrap to 255
    (np.full((1, 2, 2), np.nan), np.array([0]), "pixels"),
    (np.full((1, 2, 2), np.inf), np.array([0]), "pixels"),
    (np.zeros((1, 2, 2), dtype=np.uint8), np.array([2**70]), "labels"),  # no integer dtype
])
def test_save_idx_rejects_values_that_are_not_bytes_and_writes_nothing(tmp_path, images, labels,
                                                                        what):
    with pytest.raises(ParameterError, match=f"save_idx {what} must be whole numbers in 0-255"):
        save_idx(str(tmp_path / "im.idx"), str(tmp_path / "lb.idx"), images, labels)
    assert list(tmp_path.iterdir()) == []


def test_save_idx_accepts_whole_numbers_of_any_dtype(tmp_path):
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    save_idx(ip, lp, np.full((2, 1, 2), 255.0), [0, 3])
    ds = load_idx(ip, lp)
    assert np.array_equal(ds.inputs, np.ones((2, 1, 2), dtype=np.float32))
    assert ds.labels.tolist() == [0, 3]


# ---------------------------------------------------------------------------
# event streams


def test_load_events_sorts_and_rebases(tmp_path):
    p = tmp_path / "ev.txt"
    p.write_text("500 1 0 1\n100 0 1 0\n300 2 2 1\n")
    stream = load_events(str(p))
    assert np.array_equal(stream.events[:, 0], [0, 200, 400])
    assert stream.duration == 400


def test_load_events_rejects_a_span_beyond_int64(tmp_path):
    p = tmp_path / "wide.txt"
    p.write_text(f"{2**63 - 1} 0 0 1\n{-2**63} 1 0 0\n")
    with pytest.raises(FormatError, match="wide.txt: timestamps span more than int64 holds"):
        load_events(str(p))
    p.write_text(f"{2**63 - 1} 0 0 1\n-1 1 0 0\n")  # a span of 2^63, one past int64
    with pytest.raises(FormatError, match="span"):
        load_events(str(p))
    p.write_text(f"{2**63 - 1} 0 0 1\n0 1 0 0\n")  # a span of exactly 2^63 - 1 loads
    assert load_events(str(p)).duration == 2**63 - 1


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


def test_bin_events_conserves_count():
    ev = np.array([[0, 0, 0, 1], [10, 0, 0, 1], [10, 0, 0, 1], [20, 0, 0, 1]], dtype=np.int64)
    stream = EventStream(events=ev, duration=20)
    frames = bin_events(stream, t_len=4, width=1, height=1)
    assert frames.sum() == 4.0


def test_bin_events_out_of_bounds_coordinates():
    ev = np.array([[0, 5, 0, 1]], dtype=np.int64)
    stream = EventStream(events=ev, duration=0)
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
        stream = EventStream(events=ev, duration=int(ev[-1, 0]))
        t_len = int(rng.integers(1, 9))
        frames = bin_events(stream, t_len, 4, 3)
        assert frames.sum() == n


# reference implementations: the per-line parse and the scatter-add binning


def ref_load_events(path):
    """load_events one line at a time, in the order it checks each line."""
    with open(path, "rb") as f:
        data = f.read()
    rows = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip(b" \t")
        if not line:
            continue
        shown = line.decode("ascii", "backslashreplace")
        parts = re.split(rb"[ \t]+", line)
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 't x y p', got {shown!r}")
        if not all(re.fullmatch(rb"[+-]?[0-9]+", v) for v in parts):
            raise FormatError(f"{path}:{lineno}: non-integer field in {shown!r}")
        t, x, y, p = (int(v) for v in parts)
        if not all(-2**63 <= v < 2**63 for v in (t, x, y, p)):
            raise FormatError(f"{path}:{lineno}: field outside int64 in {shown!r}")
        if p not in (0, 1):
            raise FormatError(f"{path}:{lineno}: polarity must be 0 or 1, got {p}")
        rows.append((t, x, y, p))
    if not rows:
        return EventStream(events=np.zeros((0, 4), dtype=np.int64), duration=0)
    if max(r[0] for r in rows) - min(r[0] for r in rows) >= 2**63:
        raise FormatError(f"{path}: timestamps span more than int64 holds")
    ev = np.array(rows, dtype=np.int64)
    ev = ev[np.argsort(ev[:, 0], kind="stable")]
    ev[:, 0] -= ev[0, 0]
    return EventStream(events=ev, duration=int(ev[-1, 0]))


def ref_bin_events(stream, t_len, width, height):
    frames = np.zeros((t_len, 2, height, width), dtype=np.float32)
    ev = stream.events
    if len(ev) == 0:
        return frames
    if stream.duration == 0:
        bins = np.zeros(len(ev), dtype=np.int64)
    else:
        bins = np.minimum((ev[:, 0] * t_len) // stream.duration, t_len - 1)
    np.add.at(frames, (bins, ev[:, 3], ev[:, 2], ev[:, 1]), 1.0)
    return frames


def outcome(load, path):
    """(EventStream fields) on success, the FormatError text on rejection."""
    try:
        s = load(path)
    except FormatError as exc:
        return str(exc)
    return s.events.dtype, s.events.tobytes(), s.events.shape, s.duration


def assert_same_as_ref(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ev.txt")
        with open(path, "wb") as f:
            f.write(data)
        assert outcome(load_events, path) == outcome(ref_load_events, path)


def test_load_events_rejects_non_utf8_byte(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"0 0 0 1\n\xff 1 1 1\n")
    with pytest.raises(FormatError, match="bad.txt:2: non-integer"):
        load_events(str(p))


def test_load_events_rejects_field_outside_int64(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"0 0 0 1\n99999999999999999999 0 0 1\n")
    with pytest.raises(FormatError, match="bad.txt:2: field outside int64"):
        load_events(str(p))


INT64_MIN, INT64_MAX = -2**63, 2**63 - 1
GRAMMAR = {
    # accepted: the parsed rows, in file order
    "newline": (b"0 0 0 1\n3 2 1 0\n", [[0, 0, 0, 1], [3, 2, 1, 0]]),
    "spaces and tabs": (b" \t0\t0  0 1 \t\n3 2\t\t1 0", [[0, 0, 0, 1], [3, 2, 1, 0]]),
    "crlf": (b"0 0 0 1\r\n3 2 1 0\r\n", [[0, 0, 0, 1], [3, 2, 1, 0]]),
    "lone cr": (b"0 0 0 1\r3 2 1 0\r", [[0, 0, 0, 1], [3, 2, 1, 0]]),
    "mixed breaks": (b"0 0 0 1\r\n3 2 1 0\r4 4 4 1\n", [[0, 0, 0, 1], [3, 2, 1, 0], [4, 4, 4, 1]]),
    "blank lines": (b"\n \t\n0 0 0 1\n\r\n\n", [[0, 0, 0, 1]]),
    "signs and zeros": (b"+5 -0 007 +1\n", [[5, 0, 7, 1]]),
    "int64 range": (f"0 {INT64_MIN} {INT64_MAX} 0".encode(), [[0, INT64_MIN, INT64_MAX, 0]]),
    "only blank lines": (b"\n \r\n\t\r", []),
    # rejected: the line the error names
    "short line after blank": (b"0 0 0 1\n\n1 2 3\n", 3),
    "short line after cr cr lf": (b"0 0 0 1\r\r\n1 2 3", 3),
    "long line": (b"0 0 0 1 5\n", 1),
    "decimal point": (b"0 0 0 1\n1.0 0 0 1\n", 2),
    "exponent": (b"1e3 0 0 1\n", 1),
    "hex": (b"0x10 0 0 1\n", 1),
    "comment line": (b"# t x y p\n0 0 0 1\n", 1),
    "trailing comment": (b"0 0 0 1 # on\n", 1),
    "commas": (b"1,2,3,4\n", 1),
    "digit separator": (b"1_000 0 0 1\n", 1),
    "non-ascii digit": ("\u0661 0 0 1\n".encode(), 1),
    "form feed": (b"0 0 0 1\x0c\n", 1),
    "no-break space": ("0\u00a00 0 1\n".encode(), 1),
    "nul byte": (b"0 0 0 1\n0 0 0\x00 1\n", 2),
    "bare sign": (b"- 0 0 1\n", 1),
    "double sign": (b"+-1 0 0 1\n", 1),
    "above int64": (f"{INT64_MAX + 1} 0 0 1".encode(), 1),
    "below int64": (f"{INT64_MIN - 1} 0 0 1".encode(), 1),
    "polarity": (b"0 0 0 1\n0 0 0 2\n", 2),
    "negative polarity": (b"0 0 0 -1\n", 1),
}


@pytest.mark.parametrize("content,expected", GRAMMAR.values(), ids=GRAMMAR.keys())
def test_load_events_grammar(tmp_path, content, expected):
    p = tmp_path / "ev.txt"
    p.write_bytes(content)
    if isinstance(expected, int):
        with pytest.raises(FormatError, match=f"ev.txt:{expected}: "):
            load_events(str(p))
    else:
        rows = np.array(expected, dtype=np.int64).reshape(-1, 4)
        if len(rows):
            rows[:, 0] -= rows[:, 0].min()  # every case is already sorted by t
        assert np.array_equal(load_events(str(p)).events, rows)
    assert_same_as_ref(content)


def random_stream_bytes(rng, n):
    """A well-formed stream: unsorted t, random separators, blank lines, mixed breaks."""
    t = rng.integers(-10**6, 10**6, size=n)
    t[rng.random(n) < 0.3] = t[0]  # ties exercise the stable sort
    x, y, p = rng.integers(0, 40, n), rng.integers(0, 30, n), rng.integers(0, 2, n)
    seps, breaks = [" ", "\t", "  ", " \t"], ["\n", "\r\n", "\r"]
    lines = []
    for row in zip(t, x, y, p):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", " ", "\t "]))
        lines.append(str(rng.choice(seps)).join(str(v) for v in row))
    brk = str(rng.choice(breaks)) if rng.random() < 0.7 else None
    text = "".join(line + (brk or str(rng.choice(breaks))) for line in lines)
    return text.encode()


def test_load_events_matches_per_line_reference():
    rng = np.random.default_rng(11)
    for n in [1, 2, 5, 50, 300, 1000]:
        for _ in range(3):
            assert_same_as_ref(random_stream_bytes(rng, n))


def test_bin_events_matches_scatter_add_reference():
    rng = np.random.default_rng(12)
    for t_len in range(1, 10):
        for trial in range(4):
            n = int(rng.integers(1, 400))
            w, h = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            ev = np.column_stack([np.sort(rng.integers(0, 5000, n)), rng.integers(0, w, n),
                                  rng.integers(0, h, n), rng.integers(0, 2, n)])
            ev[:, 0] -= ev[0, 0]
            duration = 0 if trial == 0 else int(ev[-1, 0])  # a zero duration bins all in window 0
            stream = EventStream(events=ev, duration=duration)
            got = bin_events(stream, t_len, w + 1, h)
            assert got.tobytes() == ref_bin_events(stream, t_len, w + 1, h).tobytes()
    # one cell hit many times
    ev = np.tile([[7, 1, 2, 1]], (5000, 1))
    ev[:, 0] = np.arange(5000)
    stream = EventStream(events=ev, duration=4999)
    for t_len in (1, 3, 9):
        assert bin_events(stream, t_len, 2, 3).tobytes() == ref_bin_events(stream, t_len, 2, 3).tobytes()


def test_bin_events_rejects_bad_polarity_time_and_duration():
    ev = np.array([[0, 0, 0, 2]], dtype=np.int64)
    with pytest.raises(DataError, match="polarity"):
        bin_events(EventStream(events=ev, duration=0), 1, 1, 1)
    ev = np.array([[-5, 0, 0, 1], [5, 0, 0, 1]], dtype=np.int64)
    with pytest.raises(DataError, match="timestamps"):
        bin_events(EventStream(events=ev, duration=5), 2, 1, 1)
    ev = np.array([[0, 0, 0, 1], [2**62, 0, 0, 1]], dtype=np.int64)
    with pytest.raises(DataError, match="overflows int64"):  # t·T would wrap to a negative bin
        bin_events(EventStream(events=ev, duration=2**62), 10, 1, 1)


# a valid stream and byte edits drawn from the bytes the grammar hinges on
INTERESTING = b"0123456789+- \t\r\n.e#,_x\x0b\x0c\x00\xa0\xff"
edit = st.tuples(st.sampled_from(["insert", "replace", "delete"]), st.floats(0, 1),
                 st.sampled_from([bytes([c]) for c in INTERESTING]))
FUZZ = settings(max_examples=200, deadline=None, database=None, derandomize=True)


@FUZZ
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), edits=st.lists(edit, max_size=4))
def test_load_events_fuzz_mutated_streams(seed, n, edits):
    data = bytearray(random_stream_bytes(np.random.default_rng(seed), n))
    for op, where, byte in edits:
        i = int(where * len(data))
        if op == "insert":
            data[i:i] = byte
        elif i < len(data):
            data[i : i + 1] = byte if op == "replace" else b""
    assert_same_as_ref(bytes(data))


# lines of near-valid fields, so that arbitrary input also reaches every check
field = st.sampled_from([b"0", b"1", b"-1", b"+0", b"2", b"007", b"-", b"+-1", b"",
                         str(2**63 - 1).encode(), str(2**63).encode(), str(-2**63 - 1).encode()])
line = st.tuples(st.lists(field | st.binary(max_size=2), min_size=3, max_size=5),
                 st.sampled_from([b" ", b"\t", b" \t "]), st.sampled_from([b"\n", b"\r\n", b"\r"]))
near_valid = st.lists(line, max_size=8).map(
    lambda lines: b"".join(sep.join(fields) + brk for fields, sep, brk in lines))


@FUZZ
@given(data=st.binary(max_size=120) | near_valid)
def test_load_events_fuzz_arbitrary_bytes(data):
    assert_same_as_ref(data)


def test_dataset_rejects_out_of_range_labels():
    with pytest.raises(DataError):
        Dataset(inputs=np.zeros((2, 3), dtype=np.float32),
                labels=np.array([0, 5]), class_count=2, temporal=False)


@pytest.mark.parametrize("labels", [np.array([0.5, 1.0]), np.array([0.0, 1.0]),
                                    np.array([True, False])])
def test_dataset_rejects_labels_that_are_not_integers(labels):
    # float labels used to build, and evaluate then ended in an IndexError
    with pytest.raises(DataError, match="integer class ids"):
        Dataset(inputs=np.zeros((2, 3), dtype=np.float32), labels=labels, class_count=2,
                temporal=False)


def test_dataset_rejects_labels_of_another_length():
    with pytest.raises(DataError, match="10 inputs but 6 labels"):
        Dataset(inputs=np.zeros((10, 3), dtype=np.float32),
                labels=np.zeros(6, dtype=np.int64), class_count=2, temporal=False)


def test_data_layer_imports_only_autodiff_and_errors():
    # data sits below network: it may use the dtype and the error types, nothing above
    with open(tksnn.data.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("tksnn")):
            package.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names if a.name.startswith("tksnn"))
    assert package == {".autodiff", ".errors"}
