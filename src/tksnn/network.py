"""Layer composition and temporal unrolling.

A model is a stack of layers ending in a non-spiking linear readout that
produces class logits at every timestep. Unrolling an input sequence [T,B,...]
yields per-timestep logits, per-timestep distributions, and the aggregated
output (mean of the distributions over time).

Execution is multi-step: each stateless layer (Linear, Conv2d, AvgPool2d,
Flatten, the readout) runs once over all T·B sample-steps, and each LIF layer
is one `lif.lif_sequence` tape op over the whole [T,B,...] sequence. A step
records a handful of tape nodes per layer, independent of T.

Layout: `unroll` views a C-contiguous input (as `data.prepare_sequence` makes
it) as [T·B, ...] without a copy. A conv writes its output channels-last, and
the LIF and pooling layers after it keep that memory order, so each reads its
input in order. Without a tape, no LIF layer keeps its potentials.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, SurrogateSpec, Tensor
from .errors import DimensionError, FormatError, ParameterError, TksnnError
from .lif import LifConfig, lif_sequence


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
        return ad.add(ad.matmul(x, self.w), self.b)

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def out_shape(self, in_shape):
        if in_shape != (self.in_features,):
            raise DimensionError(f"linear expects ({self.in_features},), got {in_shape}")
        return (self.out_features,)


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

    def params(self):
        return [("w", self.w), ("b", self.b)]

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_ch:
            raise DimensionError(f"conv2d expects {self.in_ch} channels, got {c}")
        oh, ow = ad._conv_geometry(h, w, self.kernel, self.kernel, self.stride, self.padding)
        return (self.out_ch, oh, ow)


class AvgPool2d:
    kind = "avgpool2d"

    def __init__(self, window: int):
        self.window = window

    def forward(self, x: Tensor) -> Tensor:
        return ad.avgpool2d(x, self.window)

    def params(self):
        return []

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if h % self.window or w % self.window:
            raise DimensionError(f"pool window {self.window} does not divide {in_shape}")
        return (c, h // self.window, w // self.window)


class Flatten:
    kind = "flatten"

    def forward(self, x: Tensor) -> Tensor:
        return ad.reshape(x, (x.shape[0], -1))

    def params(self):
        return []

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)


class Lif:
    """A spiking layer; its dynamics are the model's `lif_cfg` and `surrogate`."""

    kind = "lif"

    def params(self):
        return []

    def out_shape(self, in_shape):
        return in_shape


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
        for layer in layers:
            shape = layer.out_shape(shape)
            widest = max(widest, int(np.prod(shape)))
        self.readout.out_shape(shape)
        # float32 elements one sample-step needs in the largest activation
        self.widest_activation = max(widest, readout.out_features)

    def parameters(self):
        out = []
        for i, layer in enumerate(self.layers):
            for name, p in layer.params():
                out.append((f"layer{i}.{name}", p))
        for name, p in self.readout.params():
            out.append((f"readout.{name}", p))
        return out


PRESETS = ("mlp-small", "cnn-small")


def build_model(preset: str, input_shape, class_count: int, lif_cfg: LifConfig,
                surrogate: SurrogateSpec, seed: int) -> Model:
    """Construct a named desk-scale architecture with seeded initialization."""
    input_shape = tuple(int(n) for n in input_shape)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x1217])))
    if preset == "mlp-small":
        features = int(np.prod(input_shape))
        layers = [Flatten(), Linear(features, 128, rng), Lif()]
        readout = Linear(128, class_count, rng)
    elif preset == "cnn-small":
        if len(input_shape) != 3:
            raise ParameterError(f"cnn-small needs [C,H,W] inputs, got {input_shape}")
        c, h, w = input_shape
        layers = [
            Conv2d(c, 16, 3, 1, 1, rng), Lif(), AvgPool2d(2),
            Conv2d(16, 32, 3, 1, 1, rng), Lif(), AvgPool2d(2),
            Flatten(),
        ]
        readout = Linear(32 * (h // 4) * (w // 4), class_count, rng)
    else:
        raise ParameterError(f"unknown preset {preset!r}; available: {PRESETS}")
    return Model(layers, readout, surrogate, preset=preset, input_shape=input_shape,
                 class_count=class_count, lif_cfg=lif_cfg, seed=seed)


def unroll(model: Model, inputs) -> TemporalOutput:
    """Run the full sequence [T,B,...] from fresh states; gradients flow end to end.

    A float32 C-contiguous ndarray (or Tensor) is used without a copy, and
    under a tape the first layer's backward reads it again (conv2d rebuilds
    its patches from it, a linear layer its weight gradient). So do not change
    inputs in place between this call and backward.
    """
    data = inputs.data if isinstance(inputs, Tensor) else np.asarray(inputs, dtype=DTYPE)
    if data.ndim < 2:
        raise DimensionError(f"unroll expects [T,B,...] inputs, got {data.shape}")
    t_len, batch = data.shape[:2]
    if t_len < 1 or batch < 1:
        raise ParameterError(f"unroll needs one timestep and one sample, got T={t_len}, B={batch}")
    h = Tensor(data.reshape((t_len * batch,) + data.shape[2:]))
    for layer in model.layers:
        if layer.kind == "lif":
            currents = ad.reshape(h, (t_len, batch) + h.shape[1:])
            h = ad.reshape(lif_sequence(currents, model.lif_cfg, model.surrogate), h.shape)
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
    try:  # a header that parses as JSON may still not describe a model
        model = build_model(
            header["preset"], header["input_shape"], header["class_count"],
            LifConfig(**header["lif"]), SurrogateSpec(**header["surrogate"]), header["seed"],
        )
        shapes = {name: tuple(header["layer_shapes"][name]) for name, _ in model.parameters()}
        epoch = header["epoch"]  # save_checkpoint always writes it; resuming reads it
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise ValueError(f"epoch {epoch!r} is not a non-negative integer")
    except (KeyError, TypeError, ValueError, TksnnError) as exc:
        raise FormatError(f"{path}: header does not describe a model: {exc!r}") from exc
    off = 12 + hlen

    def take(nbytes: int) -> bytes:
        nonlocal off
        if off + nbytes > len(raw):
            raise FormatError(f"{path}: truncated at byte {len(raw)}, blob at {off} needs {nbytes}")
        off += nbytes
        return raw[off - nbytes : off]

    for name, p in model.parameters():
        shape = shapes[name]
        if shape != p.shape:
            raise FormatError(f"{path}: shape mismatch for {name}: {shape} vs {p.shape}")
        p.data = np.frombuffer(take(p.size * 4), dtype="<f4").reshape(p.shape).copy()
    opt_state = None
    if header.get("has_optimizer"):
        (step_count,) = struct.unpack("<Q", take(8))
        moments = [np.frombuffer(take(p.size * 4), dtype="<f4").reshape(p.shape).copy()
                   for _, p in model.parameters() for _ in range(2)]
        opt_state = (step_count, moments)
    return model, header, opt_state
