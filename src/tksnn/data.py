"""Dataset ingestion, synthesis and input encoding.

Three sources: a synthetic order-encoded temporal task, IDX image files
(big-endian, standard magic numbers), and plain-text AER event streams
("t x y p" per line, microsecond timestamps) binned into frame tensors.
`prepare_sequence` turns a batch of either kind into the [T, B, ...]
sequence a network unrolls.
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import DTYPE
from .errors import ConfigError, DataError, FormatError, ParameterError


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
        dtype = np.asarray(self.labels).dtype
        if not np.issubdtype(dtype, np.integer):
            raise DataError(f"labels must be integer class ids, got dtype {dtype}")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(f"labels outside [0,{self.class_count})")

    @property
    def sample_shape(self):
        return self.inputs.shape[2:] if self.temporal else self.inputs.shape[1:]


def prepare_sequence(batch: np.ndarray, temporal: bool, t_len: int) -> np.ndarray:
    """Arrange one batch as [T, B, ...] for unrolling.

    Static inputs get constant-current encoding: the same frame at every step.
    Temporal inputs are truncated to the first t_len frames; if t_len exceeds
    the recorded length the tail is padded with silent (zero) frames. The
    result is C-contiguous, so `unroll` views it as [T·B, ...] without another
    copy.
    """
    if t_len < 1:
        raise ParameterError("sequence length must be >= 1")
    if not temporal:
        return np.repeat(np.asarray(batch, dtype=DTYPE)[None], t_len, axis=0)
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
    if classes < 1:
        raise ParameterError(f"order-encoded patterns need at least one class, got {classes}")
    limit = math.factorial(min(t_len, 20))
    if classes > limit:
        raise ParameterError(f"only {limit} distinct schedules exist for T={t_len}")
    schedules = [np.arange(t_len), np.arange(t_len)[::-1].copy()][:classes]
    seen = {tuple(s) for s in schedules}
    draw = 0
    while len(schedules) < classes:
        perm = np.random.default_rng([0xC1A55, len(schedules), draw]).permutation(t_len)
        draw += 1
        if tuple(perm) in seen:
            continue
        schedules.append(perm)
        seen.add(tuple(perm))
    return np.stack(schedules)


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
    # sample i lights block scheds[y_i, t] of frame t
    inputs.reshape(n, t_len, t_len, BLOCK_SIZE)[
        np.arange(n)[:, None], np.arange(t_len), scheds[labels]] = 1.0
    if noise_sigma > 0:
        inputs += rng.normal(0.0, noise_sigma, size=inputs.shape).astype(DTYPE)
    return Dataset(inputs=inputs, labels=labels, class_count=classes, temporal=True)


# ---------------------------------------------------------------------------
# IDX binary format (big-endian)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _read_idx(path: str, magic: int, what: str) -> np.ndarray:
    """The uint8 array of an IDX file with this magic, whose low byte is the rank."""
    with open(path, "rb") as f:
        data = f.read()
    head = 4 * (1 + (magic & 0xFF))
    if len(data) < head:
        raise FormatError(f"{path}: truncated header at byte {len(data)}")
    found, *dims = struct.unpack(f">{head // 4}I", data[:head])
    if found != magic:
        raise FormatError(f"{path}: bad magic {found:#010x} at byte 0")
    expected = math.prod(dims)
    if len(data) - head != expected:
        raise FormatError(f"{path}: expected {expected} {what} bytes, "
                          f"got {len(data) - head} (offset {head})")
    return np.frombuffer(data, dtype=np.uint8, offset=head).reshape(dims)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label pair; pixels scaled to [0,1]."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "pixel")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "label").astype(np.int64)
    if len(labels) != len(images):
        raise FormatError(f"image count {len(images)} != label count {len(labels)}")
    inputs = images.astype(DTYPE) / DTYPE(255.0)
    classes = int(labels.max()) + 1 if len(labels) else 0
    return Dataset(inputs=inputs, labels=labels, class_count=classes, temporal=False)


def _idx_bytes(values, what: str) -> np.ndarray:
    """values as uint8, never wrapped: ParameterError unless each is a whole number in 0-255."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf" or not np.all((a >= 0) & (a <= 255) & (a == np.floor(a))):
        raise ParameterError(f"save_idx {what} must be whole numbers in 0-255")
    return a.astype(np.uint8)


def save_idx(images_path: str, labels_path: str, images: np.ndarray, labels: np.ndarray):
    """Write images [N,H,W] and labels [N] in IDX format; every value must be a byte (0-255)."""
    images = _idx_bytes(images, "pixels")
    labels = _idx_bytes(labels, "labels")
    if images.ndim != 3 or labels.shape != images.shape[:1]:
        raise ParameterError(f"save_idx needs images [N,H,W] and labels [N], "
                             f"got {images.shape} and {labels.shape}")
    for path, magic, array in ((images_path, IDX_IMAGES_MAGIC, images),
                               (labels_path, IDX_LABELS_MAGIC, labels)):
        with open(path, "wb") as f:
            f.write(struct.pack(f">{1 + array.ndim}I", magic, *array.shape))
            f.write(array.tobytes())


# ---------------------------------------------------------------------------
# AER event streams


@dataclass
class EventStream:
    """Events sorted by timestamp, shifted so the first event is at t = 0."""

    events: np.ndarray  # int64 [N, 4] columns (t, x, y, p)
    duration: int


# every byte the grammar allows: digits, signs, field separators, line breaks
_EVENT_BYTES = b"0123456789+- \t\r\n"
_FIELD = re.compile(rb"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


def load_events(path: str) -> EventStream:
    """Parse a "t x y p" text stream; the sensor size is the caller's (`bin_events`).

    Grammar: each line holds four fields, each an optional sign and ASCII
    digits within int64, separated by spaces or tabs; p is 0 or 1. Lines end
    in "\\n", "\\r\\n" or a lone "\\r". Blank lines (spaces and tabs only) are
    skipped but still counted. Anything else, including a byte that is not
    ASCII, raises FormatError naming the first bad line as path:lineno.

    Events are sorted stably by t and shifted so the first is at t = 0; a
    stream whose timestamps span more than int64 holds raises FormatError.
    """
    with open(path, "rb") as f:
        data = f.read()
    ev = _parse_events(data)
    if ev is None:
        _raise_first_bad_line(path, data)
    if len(ev) == 0:
        return EventStream(events=ev, duration=0)
    ev = ev[np.argsort(ev[:, 0], kind="stable")]
    if int(ev[-1, 0]) - int(ev[0, 0]) > _INT64.max:
        raise FormatError(f"{path}: timestamps span more than int64 holds")
    ev[:, 0] -= ev[0, 0]
    return EventStream(events=ev, duration=int(ev[-1, 0]))


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


def bin_events(stream: EventStream, t_len: int, width: int, height: int) -> np.ndarray:
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
    return np.bincount(cell, minlength=math.prod(shape)).astype(DTYPE).reshape(shape)


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
