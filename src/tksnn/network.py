"""Layer composition and temporal unrolling.

A model is a stack of layers ending in a non-spiking linear readout that
produces class logits at every timestep. Unrolling an input sequence [T,B,...]
yields per-timestep logits, per-timestep distributions, and the aggregated
output (mean of the distributions over time).

Execution is multi-step: each stateless layer (Linear, Conv2d, AvgPool2d,
Flatten, the readout) runs once over all T·B sample-steps, and each LIF layer
is one `lif.lif_sequence` tape op on those rows. A layer records one tape
node whatever T (none for a Flatten of the input), as do the readout's
reshape to [T,B,C], the softmax and the mean over time.

Layout: `unroll` views a C-contiguous input (as `data.prepare_sequence` makes
it) as [T·B, ...] without a copy. A conv writes its output channels-last, and
the LIF and pooling layers after it keep that memory order, so each reads its
input in order. Without a tape, no LIF layer keeps its potentials.

Without a tape, the layers before the readout run through the private
kernels the public ops call (each layer's `infer`, `lif._lif_sequence`), in
groups of whole samples dealt out to the workers in one split (see
`_untaped_features`); the readout and the rest run once on the joined rows.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, SurrogateSpec, Tensor
from .errors import DimensionError, FormatError, ParameterError, TksnnError
from .lif import LifConfig, _lif_sequence, lif_sequence


def _init_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    # sqrt(6/fan_in): wide enough that LIF layers spike from the first epoch
    bound = float(np.sqrt(6.0 / fan_in))
    return rng.uniform(-bound, bound, size=shape).astype(DTYPE)


class Linear:
    kind = "linear"

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.w = Tensor(_init_uniform(rng, (in_features, out_features), in_features), requires_grad=True)
        self.b = Tensor(np.zeros(out_features, dtype=DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.matmul(x, self.w, self.b)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return ad._matmul(x, self.w.data, self.b.data)

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def out_shape(self, in_shape):
        if in_shape != (self.in_features,):
            raise DimensionError(f"linear expects ({self.in_features},), got {in_shape}")
        return (self.out_features,)

    def step_work(self, in_shape) -> int:
        return 0  # its product holds the interpreter lock (np.matmul)


class Conv2d:
    kind = "conv2d"

    def __init__(self, in_ch, out_ch, kernel, stride, padding, rng: np.random.Generator):
        self.in_ch, self.out_ch = in_ch, out_ch
        self.kernel, self.stride, self.padding = kernel, stride, padding
        fan_in = in_ch * kernel * kernel
        self.w = Tensor(_init_uniform(rng, (out_ch, in_ch, kernel, kernel), fan_in), requires_grad=True)
        self.b = Tensor(np.zeros(out_ch, dtype=DTYPE), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.w, self.b, stride=self.stride, padding=self.padding)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return ad._conv2d(x, self.w.data, self.b.data, self.stride, self.padding)

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise DimensionError(f"conv2d expects {self.in_ch} channels, got {c}")
        oh, ow = ad._conv_geometry(h, w, self.kernel, self.kernel, self.stride, self.padding)
        return (self.out_ch, oh, ow)

    def step_work(self, in_shape) -> int:
        # conv2d's figure for _split: each output position's patch row and output row
        _, oh, ow = self.out_shape(in_shape)
        return oh * ow * (self.kernel * self.kernel * self.in_ch + self.out_ch)


class AvgPool2d:
    kind = "avgpool2d"

    def __init__(self, window: int):
        self.window = window

    def forward(self, x: Tensor) -> Tensor:
        return ad.avgpool2d(x, self.window)

    def infer(self, x: np.ndarray) -> np.ndarray:
        return ad._avgpool2d(x, self.window)

    def params(self):
        return []

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if h % self.window or w % self.window:
            raise DimensionError(f"pool window {self.window} does not divide {in_shape}")
        return (c, h // self.window, w // self.window)

    def step_work(self, in_shape) -> int:
        return int(np.prod(in_shape))  # avgpool2d's figure for _split


class Flatten:
    kind = "flatten"

    def forward(self, x: Tensor) -> Tensor:
        return ad.reshape(x, (x.shape[0], -1))

    def infer(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], -1)

    def params(self):
        return []

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def step_work(self, in_shape) -> int:
        return 0


class Lif:
    """A spiking layer; its dynamics are the model's `lif_cfg` and `surrogate`."""

    kind = "lif"

    def params(self):
        return []

    def out_shape(self, in_shape):
        return in_shape

    def step_work(self, in_shape) -> int:
        # each call covers one time step: at mlp-small's 128 neurons per sample, a
        # 256-sample unroll split in two ran slower at every T measured, 10 to 40
        return 0


@dataclass
class TemporalOutput:
    """Per-timestep logits q [T,B,C], distributions v [T,B,C], aggregate o [B,C]."""

    q: Tensor
    v: Tensor
    o: Tensor


class Model:
    def __init__(self, layers, readout: Linear, surrogate: SurrogateSpec, *,
                 preset: str, input_shape, class_count: int, lif_cfg: LifConfig, seed: int):
        self.layers = layers
        self.readout = readout
        self.surrogate = surrogate
        self.preset = preset
        self.input_shape = tuple(input_shape)
        self.class_count = class_count
        self.lif_cfg = lif_cfg
        self.seed = seed
        # shape inference also validates layer compatibility
        shape = self.input_shape
        widest = int(np.prod(shape))
        work = 0
        for layer in layers:
            work += layer.step_work(shape)
            shape = layer.out_shape(shape)
            widest = max(widest, int(np.prod(shape)))
        self.readout.out_shape(shape)
        # float32 elements one sample-step needs in the largest activation
        self.widest_activation = max(widest, readout.out_features)
        # float32 elements one sample-step takes through the calls that run over
        # all T·b rows of a group at once and overlap on two threads, conv2d's
        # and avgpool2d's (their figures for autodiff._split); the gate of
        # unroll's untaped split. mlp-small's is 0 (see each layer's step_work)
        self.step_work = work

    def parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            for name, p in layer.params():
                out.append((f"layer{i}.{name}", p))
        for name, p in self.readout.params():
            out.append((f"readout.{name}", p))
        return out


PRESETS = ("mlp-small", "cnn-small")


def _plan(preset: str, input_shape, class_count: int) -> list[tuple]:
    """The layers of a named architecture as (layer class, *sizes) tuples, the
    readout's (Linear, in, out) last; it allocates nothing."""
    if preset == "mlp-small":
        return [(Flatten,), (Linear, math.prod(input_shape), 128), (Lif,),
                (Linear, 128, class_count)]
    if preset == "cnn-small":
        if len(input_shape) != 3:
            raise ParameterError(f"cnn-small needs [C,H,W] inputs, got {input_shape}")
        c, h, w = input_shape
        return [(Conv2d, c, 16, 3, 1, 1), (Lif,), (AvgPool2d, 2),
                (Conv2d, 16, 32, 3, 1, 1), (Lif,), (AvgPool2d, 2), (Flatten,),
                (Linear, 32 * (h // 4) * (w // 4), class_count)]
    raise ParameterError(f"unknown preset {preset!r}; available: {PRESETS}")


def parameter_shapes(preset: str, input_shape, class_count: int) -> dict[str, tuple[int, ...]]:
    """The names and shapes of the parameters `build_model` gives a preset, in
    `Model.parameters` order, worked out without allocating them."""
    plan = _plan(preset, tuple(int(n) for n in input_shape), class_count)
    shapes = {}
    for i, (cls, *sizes) in enumerate(plan):
        name = "readout" if i == len(plan) - 1 else f"layer{i}"
        if cls is Linear:
            shapes[f"{name}.w"], shapes[f"{name}.b"] = tuple(sizes), (sizes[1],)
        elif cls is Conv2d:
            ci, co, k = sizes[:3]
            shapes[f"{name}.w"], shapes[f"{name}.b"] = (co, ci, k, k), (co,)
    return shapes


def build_model(preset: str, input_shape, class_count: int, lif_cfg: LifConfig,
                surrogate: SurrogateSpec, seed: int) -> Model:
    """Construct a named desk-scale architecture with seeded initialization."""
    input_shape = tuple(int(n) for n in input_shape)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x1217])))
    *layers, readout = [cls(*sizes, rng) if cls in (Linear, Conv2d) else cls(*sizes)
                        for cls, *sizes in _plan(preset, input_shape, class_count)]
    return Model(layers, readout, surrogate, preset=preset, input_shape=input_shape,
                 class_count=class_count, lif_cfg=lif_cfg, seed=seed)


def _infer_stack(model: Model, rows: np.ndarray, t_len: int) -> np.ndarray:
    """The layers before the readout on rows [T·b,...], untaped: each layer's
    private kernel, the forward its tape op records."""
    for layer in model.layers:
        if layer.kind == "lif":
            rows = _lif_sequence(rows, t_len, model.lif_cfg)
        else:
            rows = layer.infer(rows)
    return rows


def _untaped_features(model: Model, data: np.ndarray) -> np.ndarray:
    """The readout's input rows [T·B, F] for inputs data [T,B,...], in groups
    of whole samples, one per worker.

    The groups are _split's blocks over the samples, gated by its work rule
    on t_len · model.step_work per sample. Each group runs _infer_stack on
    its own samples, so its kernels' own splits run inline on its thread, and
    writes its rows of one [T, B, F] buffer. A sample's features come from
    that sample alone, so they do not depend on the cut. One group runs on
    the calling thread without a split, so its kernels split as they would
    in the taped path.
    """
    t_len, batch = data.shape[:2]

    def rows(lo, hi):  # [T·b,...]: a view of a whole C-contiguous batch, else a copy
        return data[:, lo:hi].reshape((t_len * (hi - lo),) + data.shape[2:])

    bounds = ad._sample_runs(batch, t_len * model.step_work)
    if len(bounds) == 2:
        return _infer_stack(model, rows(0, batch), t_len)
    features = np.empty((t_len, batch, model.readout.in_features), dtype=DTYPE)

    def group(lo, hi):
        features[:, lo:hi] = _infer_stack(model, rows(lo, hi), t_len).reshape(t_len, hi - lo, -1)

    ad._split(bounds, group, t_len * model.step_work)
    return features.reshape(t_len * batch, -1)


def unroll(model: Model, inputs) -> TemporalOutput:
    """Run the full sequence [T,B,...] from fresh states; gradients flow end to end.

    A float32 C-contiguous ndarray (or Tensor) is used without a copy, and
    under a tape the first layer's backward reads it again (conv2d rebuilds
    its patches from it, a linear layer its weight gradient). So do not change
    inputs in place between this call and backward.
    """
    data = ad.as_tensor(inputs).data
    if data.ndim < 2:
        raise DimensionError(f"unroll expects [T,B,...] inputs, got {data.shape}")
    t_len, batch = data.shape[:2]
    if t_len < 1 or batch < 1:
        raise ParameterError(f"unroll needs one timestep and one sample, got T={t_len}, B={batch}")
    if ad._active_tape() is None:
        h = Tensor(_untaped_features(model, data))
    else:
        h = Tensor(data.reshape((t_len * batch,) + data.shape[2:]))
        for layer in model.layers:
            if layer.kind == "lif":
                h = lif_sequence(h, t_len, model.lif_cfg, model.surrogate)
            else:
                h = layer.forward(h)
    q = ad.reshape(model.readout.forward(h), (t_len, batch, -1))
    v = ad.softmax_temperature(q, 1.0)
    o = ad.mean(v, axis=0)
    return TemporalOutput(q=q, v=v, o=o)


# ---------------------------------------------------------------------------
# checkpoint container: versioned JSON header + raw little-endian f32 blobs

CKPT_MAGIC = b"TKSN"
CKPT_VERSION = 1


def save_checkpoint(path, model: Model, *, epoch: int = 0, optimizer=None) -> None:
    """Write the model (and optimizer moments, if given) to path.

    The bytes go to `<path>.<pid>.tmp` in path's directory, which then
    replaces path in one rename, so a write that raises or a process killed
    midway leaves any earlier file at path as it was. A write that raises
    removes the temporary file; a killed process leaves it behind. The file
    is not fsynced, so this does not guard against an OS crash or power loss;
    and the rename replaces a symlink at path rather than writing through it.
    """
    params = model.parameters()
    header = {
        "version": CKPT_VERSION,
        "preset": model.preset,
        "input_shape": list(model.input_shape),
        "class_count": model.class_count,
        "layer_shapes": {name: list(p.shape) for name, p in params},
        "lif": asdict(model.lif_cfg),
        "surrogate": asdict(model.surrogate),
        "seed": model.seed,
        "epoch": epoch,
        "has_optimizer": optimizer is not None,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CKPT_MAGIC)
            f.write(struct.pack("<II", CKPT_VERSION, len(blob)))
            f.write(blob)
            for _, p in params:
                f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
            if optimizer is not None:
                f.write(struct.pack("<Q", optimizer.step_count))
                for arr in optimizer.moment_blobs():
                    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Rebuild the model (and optimizer moments, if stored) from a checkpoint.

    Returns (model, header_dict, optimizer_state or None) where optimizer_state
    is (step_count, [moment arrays in parameter order: m0, v0, m1, v1, ...]).
    A header whose parameter shapes differ from those its preset, input shape
    and class count give, or a file too short for the blobs its header names,
    is refused before the build.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != CKPT_MAGIC:
        raise FormatError(f"{path}: bad checkpoint magic at byte 0")
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated fixed header at byte {len(raw)}")
    version, hlen = struct.unpack("<II", raw[4:12])
    if version != CKPT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    try:
        header = json.loads(raw[12 : 12 + hlen].decode("utf-8"))
    except ValueError as exc:  # also a header cut short by truncation
        raise FormatError(f"{path}: header at byte 12 is not valid JSON: {exc}") from exc
    off = 12 + hlen
    try:  # a header that parses as JSON may still not describe a model
        floats = sum(math.prod(map(int, shape)) for shape in header["layer_shapes"].values())
        need = 8 + 12 * floats if header.get("has_optimizer") else 4 * floats
        if off + need > len(raw):
            raise FormatError(f"{path}: truncated at byte {len(raw)}, blobs need {need} from {off}")
        shapes = parameter_shapes(header["preset"], header["input_shape"], header["class_count"])
        for name, shape in shapes.items():
            stored = tuple(header["layer_shapes"][name])
            if stored != shape:
                raise ValueError(f"shape mismatch for {name}: {stored} vs {shape}")
        model = build_model(
            header["preset"], header["input_shape"], header["class_count"],
            LifConfig(**header["lif"]), SurrogateSpec(**header["surrogate"]), header["seed"],
        )
        epoch = header["epoch"]  # save_checkpoint always writes it; resuming reads it
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise ValueError(f"epoch {epoch!r} is not a non-negative integer")
    except FormatError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError, MemoryError,
            TksnnError) as exc:
        raise FormatError(f"{path}: header does not describe a model: {exc!r}") from exc

    def take(nbytes: int) -> bytes:
        nonlocal off
        if off + nbytes > len(raw):
            raise FormatError(f"{path}: truncated at byte {len(raw)}, blob at {off} needs {nbytes}")
        off += nbytes
        return raw[off - nbytes : off]

    for _, p in model.parameters():
        p.data = np.frombuffer(take(p.size * 4), dtype="<f4").reshape(p.shape).copy()
    opt_state = None
    if header.get("has_optimizer"):
        (step_count,) = struct.unpack("<Q", take(8))
        moments = [np.frombuffer(take(p.size * 4), dtype="<f4").reshape(p.shape).copy()
                   for _, p in model.parameters() for _ in range(2)]
        opt_state = (step_count, moments)
    return model, header, opt_state
