"""Dataset ingestion and synthesis.

Three sources: a synthetic order-encoded temporal task, IDX image files
(big-endian, standard magic numbers), and plain-text AER event streams
("t x y p" per line, microsecond timestamps) binned into frame tensors.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import DTYPE
from .errors import ConfigError, DataError, FormatError, ParameterError
from .network import encode_static


@dataclass
class Dataset:
    """Inputs are static [N, ...] or temporal [N, T, ...]; labels are class ids."""

    inputs: np.ndarray
    labels: np.ndarray
    class_count: int
    temporal: bool

    def __post_init__(self):
        if len(self.labels) != self.inputs.shape[0]:
            raise DataError(f"{self.inputs.shape[0]} inputs but {len(self.labels)} labels")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(f"labels outside [0,{self.class_count})")

    @property
    def sample_shape(self):
        return self.inputs.shape[2:] if self.temporal else self.inputs.shape[1:]


def prepare_sequence(batch: np.ndarray, temporal: bool, t_len: int) -> np.ndarray:
    """Arrange one batch as [T, B, ...] for unrolling.

    Static inputs get constant-current encoding. Temporal inputs are truncated
    to the first t_len frames; if t_len exceeds the recorded length the tail is
    padded with silent (zero) frames. The result is C-contiguous, so `unroll`
    views it as [T·B, ...] without another copy.
    """
    if t_len < 1:
        raise ParameterError("sequence length must be >= 1")
    if not temporal:
        return encode_static(batch, t_len)
    kept = min(t_len, batch.shape[1])
    seq = np.empty((t_len, batch.shape[0]) + batch.shape[2:], dtype=DTYPE)
    seq[:kept] = np.moveaxis(batch[:, :kept], 1, 0)
    seq[kept:] = 0
    return seq


# ---------------------------------------------------------------------------
# synthetic order-encoded task


BLOCK_SIZE = 4  # features per activation block


def class_schedules(classes: int, t_len: int) -> np.ndarray:
    """Per-class activation orders over t_len blocks.

    Class 0 runs blocks in natural order, class 1 is its time reversal, and
    further classes get deterministic distinct permutations. The schedules
    depend only on (classes, t_len), so independently seeded train and test
    sets share the same class definitions.
    """
    if t_len < 2:
        raise ParameterError("order-encoded patterns need T >= 2")
    limit = math.factorial(min(t_len, 20))
    if classes > limit:
        raise ParameterError(f"only {limit} distinct schedules exist for T={t_len}")
    schedules = [np.arange(t_len), np.arange(t_len)[::-1].copy()][: max(classes, 1)]
    seen = {tuple(s) for s in schedules}
    c = len(schedules)
    draw = 0
    while c < classes:
        perm = np.random.default_rng([0xC1A55, c, draw]).permutation(t_len)
        draw += 1
        if tuple(perm) in seen:
            continue
        schedules.append(perm)
        seen.add(tuple(perm))
        c += 1
    return np.stack(schedules[:classes])


def synth_temporal(n_per_class: int, t_len: int, classes: int,
                   noise_sigma: float, seed: int) -> Dataset:
    """Order-encoded task: every class activates the same blocks, in its own order.

    Each frame lights exactly one feature block, so per-frame value histograms
    are identical across classes; only the activation order carries the label.
    """
    scheds = class_schedules(classes, t_len)
    features = t_len * BLOCK_SIZE
    rng = np.random.default_rng([seed, 0xDA7A])
    n = n_per_class * classes
    inputs = np.zeros((n, t_len, features), dtype=DTYPE)
    labels = np.repeat(np.arange(classes), n_per_class).astype(np.int64)
    for i, y in enumerate(labels):
        for t in range(t_len):
            block = scheds[y, t]
            inputs[i, t, block * BLOCK_SIZE : (block + 1) * BLOCK_SIZE] = 1.0
    if noise_sigma > 0:
        inputs += rng.normal(0.0, noise_sigma, size=inputs.shape).astype(DTYPE)
    return Dataset(inputs=inputs, labels=labels, class_count=classes, temporal=True)


# ---------------------------------------------------------------------------
# IDX binary format (big-endian)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair; pixels scaled to [0,1]."""
    with open(images_path, "rb") as f:
        head = f.read(16)
        if len(head) < 16:
            raise FormatError(f"{images_path}: truncated header at byte {len(head)}")
        magic, n, rows, cols = struct.unpack(">IIII", head)
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad magic {magic:#010x} at byte 0")
        body = f.read()
    expected = n * rows * cols
    if len(body) != expected:
        raise FormatError(
            f"{images_path}: expected {expected} pixel bytes, got {len(body)} (offset 16)"
        )
    images = np.frombuffer(body, dtype=np.uint8).reshape(n, rows, cols)
    with open(labels_path, "rb") as f:
        head = f.read(8)
        if len(head) < 8:
            raise FormatError(f"{labels_path}: truncated header at byte {len(head)}")
        magic, nl = struct.unpack(">II", head)
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad magic {magic:#010x} at byte 0")
        lbody = f.read()
    if len(lbody) != nl:
        raise FormatError(f"{labels_path}: expected {nl} label bytes, got {len(lbody)}")
    if nl != n:
        raise FormatError(f"image count {n} != label count {nl}")
    labels = np.frombuffer(lbody, dtype=np.uint8).astype(np.int64)
    inputs = (images.astype(DTYPE) / DTYPE(255.0)).astype(DTYPE)
    classes = int(labels.max()) + 1 if n else 0
    return Dataset(inputs=inputs, labels=labels, class_count=classes, temporal=False)


def save_idx(images_path: str, labels_path: str, images: np.ndarray, labels: np.ndarray):
    """Write uint8 images [N,H,W] and labels [N] in IDX format."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(labels.tobytes())


# ---------------------------------------------------------------------------
# AER event streams


@dataclass
class EventStream:
    """Events sorted by timestamp, shifted so the first event is at t = 0."""

    events: np.ndarray  # int64 [N, 4] columns (t, x, y, p)
    width: int
    height: int
    duration: int


# every byte the grammar allows: digits, signs, field separators, line breaks
_EVENT_BYTES = b"0123456789+- \t\r\n"
_FIELD = re.compile(rb"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def load_events(path: str) -> EventStream:
    """Parse a "t x y p" text stream; sensor size is inferred from coordinates.

    Grammar: each line holds four fields, each an optional sign and ASCII
    digits within int64, separated by spaces or tabs; p is 0 or 1. Lines end
    in "\\n", "\\r\\n" or a lone "\\r". Blank lines (spaces and tabs only) are
    skipped but still counted. Anything else, including a byte that is not
    ASCII, raises FormatError naming the first bad line as path:lineno.

    Events are sorted stably by t and shifted so the first is at t = 0.
    """
    with open(path, "rb") as f:
        data = f.read()
    ev = _parse_events(data)
    if ev is None:
        _raise_first_bad_line(path, data)
    if len(ev) == 0:
        return EventStream(events=np.zeros((0, 4), dtype=np.int64), width=0, height=0, duration=0)
    ev = ev[np.argsort(ev[:, 0], kind="stable")]
    ev[:, 0] -= ev[0, 0]
    return EventStream(
        events=ev,
        width=int(ev[:, 1].max()) + 1,
        height=int(ev[:, 2].max()) + 1,
        duration=int(ev[-1, 0]),
    )


def _parse_events(data: bytes) -> np.ndarray | None:
    """The [N, 4] int64 rows of a well-formed stream, in file order, else None."""
    if data.translate(None, _EVENT_BYTES):
        return None
    if not data.strip():
        return np.zeros((0, 4), dtype=np.int64)
    # numpy's reader splits at "\r\n" but not at a lone "\r", so hand it lines;
    # it skips blank ones
    lines = data.decode("ascii").splitlines()
    try:
        ev = np.loadtxt(lines, dtype=np.int64, ndmin=2, comments=None)
    except ValueError:
        return None
    if ev.shape[1] != 4 or (ev[:, 3] & ~1).any():  # a polarity outside {0, 1}
        return None
    return ev


def _raise_first_bad_line(path: str, data: bytes):
    """Raise the FormatError for the first line of `data` outside the grammar."""
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip(b" \t")
        if not line:
            continue
        shown = line.decode("ascii", "backslashreplace")
        parts = re.split(rb"[ \t]+", line)
        if len(parts) != 4:
            raise FormatError(f"{path}:{lineno}: expected 't x y p', got {shown!r}")
        if not all(_FIELD.fullmatch(v) for v in parts):
            raise FormatError(f"{path}:{lineno}: non-integer field in {shown!r}")
        t, x, y, p = (int(v) for v in parts)
        if not all(_INT64.min <= v <= _INT64.max for v in (t, x, y, p)):
            raise FormatError(f"{path}:{lineno}: field outside int64 in {shown!r}")
        if p not in (0, 1):
            raise FormatError(f"{path}:{lineno}: polarity must be 0 or 1, got {p}")
    # reached only if the fast parse rejects a file this scan accepts
    raise FormatError(f"{path}: not a 't x y p' event stream")


def bin_events(stream: EventStream, t_len: int, width: int, height: int,
               cap: int | None = None) -> np.ndarray:
    """Accumulate per-polarity event counts into [T, 2, H, W] frames.

    The recording is split into t_len equal-duration half-open windows; the
    final window is closed so the last event is kept. Counts are exact up to
    2^24 events per cell, where float32 stops counting by ones.
    """
    if t_len < 1:
        raise ParameterError("bin_events needs T >= 1")
    shape = (t_len, 2, height, width)
    ev = stream.events
    if len(ev) == 0:
        return np.zeros(shape, dtype=DTYPE)
    if ev[:, 1].max() >= width or ev[:, 2].max() >= height or ev[:, 1].min() < 0 or ev[:, 2].min() < 0:
        raise DataError(f"event coordinates exceed sensor bounds {width}x{height}")
    if (ev[:, 3] & ~1).any():
        raise DataError("event polarity must be 0 or 1")
    if stream.duration == 0:
        bins = np.zeros(len(ev), dtype=np.int64)
    else:
        if stream.duration > _INT64.max // t_len:
            raise DataError(f"duration {stream.duration} times {t_len} windows overflows int64")
        bins = (ev[:, 0] * t_len) // stream.duration
        # t == duration falls into the closed final window
        bins = np.minimum(bins, t_len - 1)
        if bins.min() < 0:
            raise DataError(f"event timestamps before 0 or a negative duration {stream.duration}")
    cell = ((bins * 2 + ev[:, 3]) * height + ev[:, 2]) * width + ev[:, 1]
    frames = np.bincount(cell, minlength=math.prod(shape)).astype(DTYPE).reshape(shape)
    if cap is not None:
        np.minimum(frames, DTYPE(cap), out=frames)
    return frames


def build_dataset(data_cfg, split: str = "train") -> Dataset:
    """Materialize the dataset described by a DataConfig."""
    if data_cfg.kind == "synth":
        seed = data_cfg.seed if split == "train" else data_cfg.seed + 1
        return synth_temporal(data_cfg.n_per_class, data_cfg.t_native,
                              data_cfg.classes, data_cfg.noise_sigma, seed)
    if data_cfg.kind == "idx":
        if split != "train":
            raise ConfigError(f"idx data has no {split!r} split: point data.images/data.labels "
                              "at the test files and pass --split train")
        return load_idx(data_cfg.images, data_cfg.labels)
    raise ParameterError(f"unknown data kind {data_cfg.kind!r}")
