"""Minimal dense-tensor reverse-mode autodiff with a surrogate spike operator.

All values are 32-bit floats in row-major order. Operations record onto the
innermost active :class:`GradTape`; with no tape active they run in plain
inference mode. Summation order is fixed, so runs with the same seed
reproduce bit-identically on one machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError, DataError, DimensionError, ParameterError, TapeError

DTYPE = np.float32

LOG_FLOOR = 1e-12  # clamp applied inside every log; documented, mirrored in test oracles


class Tensor:
    """Dense n-d float32 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_needs")

    def __init__(self, data, requires_grad: bool = False):
        # note: ascontiguousarray would promote 0-d scalars to 1-d
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._needs = requires_grad  # True if a grad path reaches a parameter

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out, inputs, bwd):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


_TAPE_STACK: list["GradTape"] = []


class GradTape:
    """Ordered record of operations; one backward traversal per tape."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._outputs: set[int] = set()
        self._used = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self):
        return len(self._nodes)


def _active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _record(out: Tensor, inputs, bwd):
    out._needs = any(t._needs for t in inputs)
    if not out._needs:
        return
    tape = _active_tape()
    if tape is not None:
        tape._nodes.append(_Node(out, tuple(inputs), bwd))
        tape._outputs.add(id(out))


def backward(loss: Tensor, tape: GradTape) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss."""
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._used:
        raise TapeError("backward already ran on this tape; build a fresh tape")
    if id(loss) not in tape._outputs:
        raise TapeError("loss was not produced under this tape (missing provenance)")
    tape._used = True

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        g = grads.pop(id(node.out), None)
        if g is None:
            continue
        for inp, ig in zip(node.inputs, node.bwd(g)):
            if ig is None or not inp._needs:
                continue
            ig = ig.astype(DTYPE, copy=False)
            acc = grads.get(id(inp))
            grads[id(inp)] = ig if acc is None else acc + ig
            if inp.requires_grad:
                # leaves keep their accumulated grad on the tensor itself
                inp.grad = grads[id(inp)]


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcasted gradient back down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / linear algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)
    _record(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data)
    _record(out, (a,), lambda g: (-g,))
    return out


def scale(a: Tensor, c: float) -> Tensor:
    c = DTYPE(c)
    out = Tensor(a.data * c)
    _record(out, (a,), lambda g: (g * c,))
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    _record(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))
    return out


def log(a: Tensor, floor: float = LOG_FLOOR) -> Tensor:
    """log with the documented clamp: log(max(x, floor)); zero grad where clamped."""
    clamped = np.maximum(a.data, DTYPE(floor))
    out = Tensor(np.log(clamped))
    mask = (a.data >= floor).astype(DTYPE)
    _record(out, (a,), lambda g: (g * mask / clamped,))
    return out


def mean(a: Tensor, axis=None) -> Tensor:
    out = Tensor(np.mean(a.data, axis=axis))
    if axis is None:
        n = DTYPE(a.size)
        _record(out, (a,), lambda g: (np.broadcast_to(g / n, a.shape).astype(DTYPE),))
    else:
        n = DTYPE(a.shape[axis])

        def bwd(g):
            return (np.broadcast_to(np.expand_dims(g / n, axis), a.shape).astype(DTYPE),)

        _record(out, (a,), bwd)
    return out


def sum_last(a: Tensor) -> Tensor:
    out = Tensor(np.sum(a.data, axis=-1))
    _record(
        out,
        (a,),
        lambda g: (np.broadcast_to(np.expand_dims(g, -1), a.shape).astype(DTYPE),),
    )
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))
    _record(out, (a,), lambda g: (g.reshape(a.shape),))
    return out


def stack(tensors) -> Tensor:
    """Stack along a new leading axis."""
    tensors = list(tensors)
    out = Tensor(np.stack([t.data for t in tensors], axis=0))
    _record(out, tuple(tensors), lambda g: tuple(g[i] for i in range(len(tensors))))
    return out


def select_class(a: Tensor, labels: np.ndarray) -> Tensor:
    """Gather a[..., b, labels[b]] over the last axis; works for [B,C] and [T,B,C]."""
    labels = np.asarray(labels)
    c = a.shape[-1]
    if labels.min() < 0 or labels.max() >= c:
        raise DataError(f"label out of range [0,{c})")
    b = a.shape[-2]
    idx = np.broadcast_to(labels.reshape((1,) * (a.ndim - 2) + (b, 1)), a.shape[:-1] + (1,))
    out = Tensor(np.take_along_axis(a.data, idx, axis=-1).squeeze(-1))

    def bwd(g):
        full = np.zeros(a.shape, dtype=DTYPE)
        np.put_along_axis(full, idx, np.expand_dims(g, -1), axis=-1)
        return (full,)

    _record(out, (a,), bwd)
    return out


def softmax_temperature(a: Tensor, tau: float) -> Tensor:
    """Temperature softmax over the last axis, stabilized by max subtraction."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    tau = DTYPE(tau)
    z = a.data / tau
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(p)

    def bwd(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return ((p * (g - inner) / tau).astype(DTYPE),)

    _record(out, (a,), bwd)
    return out


# ---------------------------------------------------------------------------
# spiking nonlinearity


SURROGATE_KINDS = ("rectangular", "triangular", "piecewise_quadratic")


@dataclass(frozen=True)
class SurrogateSpec:
    """Shape of the backward-pass stand-in for the Heaviside derivative."""

    kind: str = "piecewise_quadratic"
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in SURROGATE_KINDS:
            raise ParameterError(f"unknown surrogate kind {self.kind!r}")
        if self.width <= 0:
            raise ParameterError(f"surrogate width must be positive, got {self.width}")

    def derivative(self, x: np.ndarray) -> np.ndarray:
        """Closed-form surrogate derivative at x = v - v_th; zero for |x| >= width."""
        w = DTYPE(self.width)
        d = np.abs(x, out=np.empty_like(x))  # the one buffer every later op writes into
        if self.kind == "rectangular":
            d = np.divide(d < w, w, out=d)
        else:
            d = np.subtract(1, np.divide(d, w, out=d), out=d)  # 1 - |x|/w
            if self.kind == "triangular":
                d = np.divide(np.maximum(DTYPE(0), d, out=d), w, out=d)
            else:
                d = np.maximum(DTYPE(0), np.multiply(2 / w, d, out=d), out=d)
        return d.astype(DTYPE, copy=False)


def spike(v: Tensor, v_th: float, s: SurrogateSpec) -> Tensor:
    """Heaviside step at v_th (1 where v >= v_th); surrogate derivative backward."""
    v_th = DTYPE(v_th)
    out = Tensor((v.data >= v_th).astype(DTYPE))
    # the surrogate is evaluated only if backward reaches this node
    _record(out, (v,), lambda g: (g * s.derivative(v.data - v_th),))
    return out


# ---------------------------------------------------------------------------
# conv / pooling (im2col based; desk scale only)


def _conv_geometry(h, w, kh, kw, stride, padding):
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


def _im2col(x: np.ndarray, kh, kw, stride, padding):
    """Patches of x [B,C,H,W] as the matmul operand [B·oh·ow, kh·kw·C].

    One contiguous copy of the (kh, kw) window view of x, zero-padded into one
    channels-last buffer, lays them out channels fastest, as the matmul reads them.
    """
    b, c, h, w = x.shape
    oh, ow = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=DTYPE)
    xp[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))  # [b,oh,ow,kh,kw,c]
    return cols.reshape(b * oh * ow, kh * kw * c), oh, ow


def _col2im(cols: np.ndarray, x_shape, kh, kw, stride, padding):
    """Adjoint of _im2col: scatter-add [B·oh·ow, kh·kw·C] patches back to [B,C,H,W].

    Each (i, j) entry of the patches is added into a strided view of one zeroed
    padded buffer in row-major (i, j) order, the order of every element's adds.
    """
    b, c, h, w = x_shape
    oh, ow = _conv_geometry(h, w, kh, kw, stride, padding)
    patches = cols.reshape(b, oh, ow, kh, kw, c)
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=DTYPE)
    for i, j in np.ndindex(kh, kw):
        xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += patches[:, :, :, i, j]
    return xp[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of x [B,C,H,W] with w [O,C,kh,kw], plus bias [O].

    The output is [B,O,oh,ow] in channels-last memory: the _im2col patches
    times the kernel rows, plus the bias tiled over each sample. The tape
    keeps x, not the patches: backward rebuilds them bit for bit from x.data
    for the weight gradient and drops them before the product that _col2im
    scatters, so one patch matrix is alive at a time. x.data must therefore
    not change in place between this call and backward.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects [B,C,H,W] and [O,C,kh,kw], got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    b = x.shape[0]
    co, ci, kh, kw = w.shape
    x_data = x.data
    cols, oh, ow = _im2col(x_data, kh, kw, stride, padding)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)  # rows match cols' layout
    y = cols @ wmat.T
    del cols
    # the same elementwise adds as y += bias, over rows of one whole sample
    y.reshape(b, oh * ow * co)[...] += np.tile(bias.data, oh * ow)
    out = Tensor(y.reshape(b, oh, ow, co).transpose(0, 3, 1, 2))

    def bwd(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(b * oh * ow, co)
        cols = _im2col(x_data, kh, kw, stride, padding)[0]
        dw = (g2.T @ cols).reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)
        del cols
        db = g2.sum(axis=0)
        # the network input has no gradient path: skip its patch gradient
        dx = _col2im(g2 @ wmat, x.shape, kh, kw, stride, padding) if x._needs else None
        return dx, dw, db

    _record(out, (x, w, bias), bwd)
    return out


def avgpool2d(x: Tensor, window: int) -> Tensor:
    """Mean over non-overlapping window x window blocks of x [B,C,H,W].

    The forward adds the window² strided views x[:, :, i::k, j::k] into one
    buffer in row-major (i, j) order, then divides by window²; the backward
    writes g / window² into the same views of one gradient buffer. Both
    buffers take x's memory order.
    """
    b, c, h, w = x.shape
    if h % window or w % window:
        raise DimensionError(f"avgpool2d window {window} does not divide spatial dims {h}x{w}")
    k = window
    views = [(slice(None), slice(None), slice(i, None, k), slice(j, None, k))
             for i in range(k) for j in range(k)]
    n = DTYPE(k * k)
    data = x.data
    acc = np.add(data[views[0]], data[views[1]]) if k > 1 else data.copy(order="K")
    for view in views[2:]:
        np.add(acc, data[view], out=acc)
    out = Tensor(np.divide(acc, n, out=acc))

    def bwd(g):
        gx = np.empty_like(data)
        share = g / n
        for view in views:
            gx[view] = share
        return (gx,)

    _record(out, (x,), bwd)
    return out
