"""Minimal dense-tensor reverse-mode autodiff with a surrogate spike operator.

All values are 32-bit floats in row-major order. Operations record onto the
innermost active :class:`GradTape`; with no tape active they run in plain
inference mode. Summation order is fixed, so runs with the same seed
reproduce bit-identically on one machine.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ContractError, DimensionError, ParameterError, TapeError, check_float, check_int,
)

DTYPE = np.float32

LOG_FLOOR = 1e-12  # clamp applied inside cross_entropy's log; mirrored in test oracles


# tape keys: one per tensor, never reused (an id() is, once its tensor is freed)
_KEYS = itertools.count()


class Tensor:
    """Dense n-d float32 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_needs", "_key")

    def __init__(self, data, requires_grad: bool = False):
        # note: ascontiguousarray would promote 0-d scalars to 1-d
        self.data = np.asarray(data, dtype=DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self._needs = requires_grad  # True if a grad path reaches a parameter
        self._key = next(_KEYS)

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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op: its output's key, (key, _needs, the tensor if a leaf
    else None) per input, and the backward closure."""

    __slots__ = ("out", "inputs", "bwd")

    def __init__(self, out, inputs, bwd):
        self.out = out
        self.inputs = inputs
        self.bwd = bwd


class _TapeStack(threading.local):
    """The tapes open on the calling thread, innermost last; true while any is."""

    def __init__(self):
        self.tapes: list[GradTape] = []

    def __bool__(self):
        return bool(self.tapes)


_TAPE_STACK = _TapeStack()


class GradTape:
    """Ordered record of operations; one backward traversal per tape. It keeps
    keys, leaves and backward closures, not tensors: a tensor's data lives
    while the caller or a closure holds it (see _Node)."""

    def __init__(self):
        self._nodes: list[_Node] = []
        self._outputs: set[int] = set()  # keys of the recorded outputs
        self._used = False

    def __enter__(self):
        _TAPE_STACK.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.tapes.pop()
        return False

    def __len__(self):
        return len(self._nodes)


def _active_tape():
    tapes = _TAPE_STACK.tapes
    return tapes[-1] if tapes else None


def _record(out: Tensor, inputs, bwd):
    out._needs = any(t._needs for t in inputs)
    if not out._needs:
        return
    tape = _active_tape()
    if tape is not None:
        slots = tuple((t._key, t._needs, t if t.requires_grad else None) for t in inputs)
        tape._nodes.append(_Node(out._key, slots, bwd))
        tape._outputs.add(out._key)


def backward(loss: Tensor, tape: GradTape) -> None:
    """Populate .grad of every requires_grad tensor reachable from loss; the
    gradients in flight are keyed by tape key, each dropped once used.

    Each node lets go of its backward closure (node.bwd becomes None) once
    backward reaches it, so what the closure keeps, such as a LIF layer's
    potentials or a conv input, is freed before the layers below run theirs.
    The nodes stay, so len(tape) still counts them."""
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape._used:
        raise TapeError("backward already ran on this tape; build a fresh tape")
    if loss._key not in tape._outputs:
        raise TapeError("loss was not produced under this tape (missing provenance)")
    tape._used = True

    grads: dict[int, np.ndarray] = {loss._key: np.ones_like(loss.data)}
    for node in reversed(tape._nodes):
        g = grads.pop(node.out, None)
        bwd, node.bwd = node.bwd, None
        if g is None:
            continue
        for (key, needs, leaf), ig in zip(node.inputs, bwd(g)):
            if ig is None or not needs:
                continue
            ig = ig.astype(DTYPE, copy=False)
            acc = grads.get(key)
            grads[key] = ig if acc is None else acc + ig
            if leaf is not None:
                # leaves keep their accumulated grad on the tensor itself
                leaf.grad = grads[key]


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
# kernels split over the process's CPUs


_MAX_WORKERS = 4  # threads a split uses at most, the calling thread included
# float32 elements a run of blocks must touch to pay for its hand-off to a pool thread
# (about 45 us, more to wake an idle CPU): with network.Model.step_work, an 8-sample
# cnn-small unroll stays whole at T=1, where its groups measured slower, and splits
# from T=2, where they measured faster
_MIN_RANGE_WORK = 1 << 19


# one per CPU the process may run on, read once at import: a process that
# narrows its affinity later still cuts large splits into that many runs, so
# one that wants one worker sets its affinity before importing tksnn
try:
    _WORKERS = min(len(os.sched_getaffinity(0)), _MAX_WORKERS)
except AttributeError:  # no affinity call on this platform
    _WORKERS = min(os.cpu_count() or 1, _MAX_WORKERS)


def _new_pool() -> None:
    # at import, and in a forked child, which has none of the parent's
    # threads; the executor starts a thread only when a task finds none idle
    global _pool
    _pool = ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="tksnn-split")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


# glibc's malloc maps every block at least its mmap threshold in size and
# unmaps it on free, and trims its heap once more than twice that threshold
# lies free at the top; freeing a mapped block larger than the threshold
# raises the threshold to that block's size, up to 32 MiB (mallopt(3)).
# Allocating and freeing one 26 MiB block here raises it once: a training
# step's buffers (a cnn-small conv output or LIF layer is 10.5 MB) then come
# from the heap, which keeps its pages from step to step instead of touching
# thousands of fresh ones each step. The size also puts the trim point at
# 52 MiB: above what one cnn-small step (B=16, T=10) frees at the heap's top
# (at a 40 MiB point its steps still took 2k-8k faults each), below what a
# finished training run frees (a 62 MiB point kept the trained heap resident
# through the evaluation after it, which then peaked 20 MB higher). The
# block is never touched, so it costs no resident memory; another allocator
# just frees it.
np.empty(26 << 20, dtype=np.uint8)


class _Dealt(threading.local):
    """True on a thread while it runs blocks that _split dealt out to workers."""

    inside = False


_DEALT = _Dealt()


def _cuts(blocks: int, work: int) -> list[int]:
    """Where _split cuts `blocks` blocks of `work` float32 elements in all into
    runs, as block indices from 0 to blocks: one run inside a dealt-out run,
    else one per worker up to one per block, each run touching at least
    _MIN_RANGE_WORK elements."""
    runs = 1 if _DEALT.inside else max(1, min(_WORKERS, blocks, work // _MIN_RANGE_WORK))
    return [blocks * k // runs for k in range(runs + 1)]


def _sample_runs(b: int, work: int) -> list[int]:
    """Bounds of one block of whole samples per run _split makes of b samples
    of `work` float32 elements each; a single block when it would run inline."""
    return _cuts(b, b * work)


def _run_buffers(bounds: list[int], work: int, make) -> dict:
    """{lo: buffer} for each block [lo, hi) of the grid that _split(bounds, fn,
    work) deals out: make(n) runs once per run of blocks, on the calling
    thread, n the units of the run's largest block, and every block of the
    run reuses that one buffer."""
    buffers = {}
    cuts = _cuts(len(bounds) - 1, work * bounds[-1])
    for first, last in zip(cuts, cuts[1:]):
        buf = make(max(bounds[k + 1] - bounds[k] for k in range(first, last)))
        buffers.update((bounds[k], buf) for k in range(first, last))
    return buffers


def _split(bounds: list[int], fn, work: int) -> None:
    """Call fn(lo, hi) once per block [lo, hi) of the grid `bounds`, the
    blocks dealt out to the workers in one contiguous run each.

    `bounds` rises from 0 to bounds[-1] in units of the caller's choosing
    (samples, neurons, jobs) and `work` is the float32 elements one unit
    touches. The calling thread runs the first run of blocks and _pool
    the others; a pool thread runs where the OS schedules it, within the CPU
    set of the thread whose split started it. With one worker, one block,
    under _MIN_RANGE_WORK elements per run, or when started inside a run that
    a split dealt out (see _cuts), every block runs inline, in order, and no
    thread is woken.
    Every run has finished when this returns, also when one raises; the first
    error in run order is then raised as itself.

    The bit rule: one thread computes a block with the same ops, whichever
    thread it is, so the results cannot depend on the worker count. A kernel
    whose bits depend on where it is cut, such as conv2d's matmuls, must
    pass a grid that depends on the shape alone. fn must write a disjoint
    part of the output for each block and must not record a tape op or call a
    public function of this package (tracing wraps those and assumes one
    thread). It may call a private kernel that calls _split: that nested
    split runs inline on fn's thread, so a dealt-out run never waits on the
    pool. A kernel's buffers belong in its caller, so that threads allocate
    nothing large; a block that needs scratch space, such as conv2d's
    patches, reuses its run's buffer from _run_buffers. The one exception is
    network.unroll's untaped stack, whose groups of samples allocate their
    own layers' buffers on the thread that runs them and write their results
    only into a buffer the caller owns.
    """
    blocks = len(bounds) - 1

    def run(first, last):
        for k in range(first, last):
            fn(bounds[k], bounds[k + 1])

    cuts = _cuts(blocks, work * bounds[-1])
    if len(cuts) < 3:
        run(0, blocks)
        return

    def dealt(first, last):
        _DEALT.inside = True
        try:
            run(first, last)
        finally:
            _DEALT.inside = False

    futures = []
    try:
        for first, last in zip(cuts[1:-1], cuts[2:]):
            futures.append(_pool.submit(dealt, first, last))
        dealt(cuts[0], cuts[1])
    finally:
        wait(futures)
    for f in futures:
        f.result()


# ---------------------------------------------------------------------------
# elementwise / linear algebra ops


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)
    _record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bwd(g):  # an input with no grad path gets None, and no product
        return (_unbroadcast(g * b.data, a.shape) if a._needs else None,
                _unbroadcast(g * a.data, b.shape) if b._needs else None)

    _record(out, (a, b), bwd)
    return out


def _matmul(a: np.ndarray, b: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """matmul's forward: a @ b, the bias row then added in place to every row."""
    y = a @ b
    return y if bias is None else np.add(y, bias, out=y)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus the bias row added to every row if given, as one tape node."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionError(f"matmul expects rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    out = Tensor(_matmul(a.data, b.data, None if bias is None else bias.data))
    inputs = (a, b) if bias is None else (a, b, bias)

    def bwd(g):  # one gradient per input; the bias's is the column sums of g
        return (g @ b.data.T if a._needs else None, a.data.T @ g if b._needs else None,
                None if bias is None else _unbroadcast(g, bias.shape))[:len(inputs)]

    _record(out, inputs, bwd)
    return out


def cross_entropy(p: Tensor, target) -> Tensor:
    """Mean over the leading axes of -sum_c target * log(max(p, LOG_FLOOR)) as one tape
    node, with no gradient where p is clamped; a [B,C] target broadcasts over [T,B,C]."""
    neg = -np.asarray(target, dtype=DTYPE)
    clamped = np.maximum(p.data, DTYPE(LOG_FLOOR))
    out = Tensor(np.mean(np.sum(neg * np.log(clamped), axis=-1)))
    n = DTYPE(p.size // p.shape[-1])

    def bwd(g):  # ((g/n)·target)·mask / clamped, in one buffer that starts as the mask
        grad = (p.data >= LOG_FLOOR).astype(DTYPE)
        np.multiply(g / n * neg, grad, out=grad)
        return (np.divide(grad, clamped, out=grad),)

    _record(out, (p,), bwd)
    return out


def mean(a: Tensor, axis=None) -> Tensor:
    """Mean over one axis, or all; backward hands on a read-only broadcast view."""
    out = Tensor(np.mean(a.data, axis=axis))
    n = DTYPE(a.size if axis is None else a.shape[axis])
    spread = () if axis is None else axis  # the axes g lacks
    _record(out, (a,), lambda g: (np.broadcast_to(np.expand_dims(g / n, spread), a.shape),))
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
        check_float("surrogate width", self.width, ParameterError)
        if self.width <= 0:
            raise ParameterError(f"surrogate width must be positive, got {self.width}")

    def derivative(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Closed-form surrogate derivative at x = v - v_th; zero for |x| >= width.

        It is written into `out` (a new array if None), the one buffer every
        op writes into, so the call allocates nothing else.
        """
        w = DTYPE(self.width)
        d = np.abs(x, out=np.empty_like(x) if out is None else out)
        if self.kind == "rectangular":
            d = np.divide(np.less(d, w, out=d), w, out=d)
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
    """Output height and width; ParameterError for a stride under 1 or a
    negative padding, DimensionError for a kernel larger than the padded input."""
    check_int("conv stride", stride, 1, ParameterError)
    check_int("conv padding", padding, 0, ParameterError)
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(f"conv kernel {kh}x{kw} larger than the padded input "
                             f"{h}x{w} (padding {padding})")
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    return oh, ow


# patch rows a block of conv2d's sample grid holds, about. A block this big
# keeps its matmuls clear of OpenBLAS's small-matrix path, whose bits differ
# (see conv2d), and makes numpy's per-call cost small beside the work; one
# this small keeps a block's patches within a few MB and cuts cnn-small's
# B·T = 80 to 160 into 5 to 40 blocks to deal out
_BLOCK_ROWS = 4096


def _sample_blocks(b: int, rows: int) -> list[int]:
    """Bounds of conv2d's grid over b samples of `rows` patch rows each: the
    fewest blocks of whole samples with about _BLOCK_ROWS rows, sizes within
    one sample of each other. It depends on the shape alone."""
    n = max(1, min(b, -(-b * rows // _BLOCK_ROWS)))
    return [b * k // n for k in range(n + 1)]


def _im2col(x: np.ndarray, kh, kw, stride, padding):
    """copy(lo, hi, out), which writes the patches of samples lo:hi of x
    [B,C,H,W] into out [(hi-lo)·oh·ow, kh·kw·C], rows of the matmul operand.

    copy writes the samples' part of one zero-padded channels-last copy of x,
    allocated here, then copies its (kh, kw) window view into out, channels
    fastest, as the matmul reads them. A copy is exact, so the patches are
    the same bits however the samples are cut.
    """
    b, c, h, w = x.shape
    oh, ow = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=DTYPE)
    inner = xp[:, padding : padding + h, padding : padding + w]
    channels_last = x.transpose(0, 2, 3, 1)
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    windows = windows.transpose(0, 1, 2, 4, 5, 3)

    def copy(lo, hi, out):
        inner[lo:hi] = channels_last[lo:hi]
        out.reshape(hi - lo, oh, ow, kh, kw, c)[...] = windows[lo:hi]

    return copy


def _col2im(x_shape, kh, kw, stride, padding):
    """Adjoint of _im2col: a zeroed gradient [B,C,H,W] and scatter(lo, hi, cols),
    which adds the patch gradients `cols` [(hi-lo)·oh·ow, kh·kw·C] of samples
    lo:hi into it.

    scatter adds each (i, j) entry of the samples' patches into a strided view
    of one zeroed padded buffer in row-major (i, j) order, the order of every
    element's adds. A sample's patches add only into its own part of the
    buffer, so every element gets the same adds in the same order, and the
    same bits, however the samples are cut.
    """
    b, c, h, w = x_shape
    oh, ow = _conv_geometry(h, w, kh, kw, stride, padding)
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=DTYPE)

    def scatter(lo, hi, cols):
        patches, into = cols.reshape(hi - lo, oh, ow, kh, kw, c), xp[lo:hi]
        for i, j in np.ndindex(kh, kw):
            into[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += patches[:, :, :, i, j]

    return xp[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2), scatter


def _kernel_rows(w: np.ndarray) -> np.ndarray:
    """The kernel w [O,C,kh,kw] as [O, kh·kw·C] rows, in the layout of _im2col's patches."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def _conv2d(x: np.ndarray, w: np.ndarray, bias: np.ndarray, stride: int,
            padding: int) -> np.ndarray:
    """conv2d's forward on arrays: y [B,O,oh,ow] in channels-last memory."""
    b, _, h, wd = x.shape
    co, ci, kh, kw = w.shape
    oh, ow = _conv_geometry(h, wd, kh, kw, stride, padding)
    rows, width = oh * ow, kh * kw * ci  # patch rows per sample, floats per row
    wmat = _kernel_rows(w)
    copy = _im2col(x, kh, kw, stride, padding)
    y = np.empty((b * rows, co), dtype=DTYPE)
    per_sample = y.reshape(b, rows * co)
    tiled = np.tile(bias, rows)
    bounds, work = _sample_blocks(b, rows), rows * (width + co)
    patches = _run_buffers(bounds, work, lambda n: np.empty((n * rows, width), dtype=DTYPE))

    def forward(lo, hi):
        cols = patches[lo][: (hi - lo) * rows]
        copy(lo, hi, cols)
        np.dot(cols, wmat.T, out=y[lo * rows : hi * rows])
        # the same elementwise adds as y += bias, over rows of whole samples
        np.add(per_sample[lo:hi], tiled, out=per_sample[lo:hi])

    _split(bounds, forward, work)
    return y.reshape(b, oh, ow, co).transpose(0, 3, 1, 2)


def conv2d(x: Tensor, w: Tensor, bias: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation of x [B,C,H,W] with w [O,C,kh,kw], plus bias [O].

    The output is [B,O,oh,ow] in channels-last memory: the _im2col patches
    times the kernel rows, plus the bias tiled over each sample.

    The samples are cut into a fixed grid of blocks (`_sample_blocks`): the
    fewest blocks of whole samples with about _BLOCK_ROWS patch rows each.
    A matmul's bits depend on where its rows are cut, so by _split's bit
    rule the grid depends on the input's shape alone; an input smaller than
    one block is one block. The forward runs each block's patch copy, patch
    matmul and bias add as one _split block, and neither pass builds a whole
    patch matrix: for each run of blocks that _split deals out, the calling
    thread allocates one patch buffer the size of the run's largest block,
    and each block of the run copies its patches into it (_run_buffers).
    The bits equal the single whole-input matmul's unless OpenBLAS takes its
    small-matrix path, whose bits differ, for a block and not for the whole
    (on 0.3.31 with AVX-512: the patch matmul up to M·N·K ≈ 1.7e5 at 144
    floats per row). No block of cnn-small's is that small (tested). The matmuls
    are np.dot with out= buffers: np.dot gives the bits of `@` and lets go
    of the interpreter lock while BLAS runs, which np.matmul (numpy 2.4)
    does not, so two matmuls on two workers overlap.

    The tape keeps x, not the patches or the output: backward rebuilds the
    patches bit for bit from x.data, so x.data must not change in place
    between this call and backward. Backward is one _split over the same
    grid. Each block rebuilds its patches in its run's buffer, writes its
    partial weight gradient g2ᵀ·cols and bias row sum into slot k of
    [blocks, ...] buffers and, when x has a gradient path, writes g2·wmat
    into the same patch rows and scatters them with _col2im into one padded
    input gradient. The calling thread then adds the partials in grid
    order, so dw and db are sums of grid partials whose bits depend on the
    shape alone, while dx gets the bits of the single matmul's rows. The
    network input has no gradient path, so its layer skips the input
    gradient.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise DimensionError(f"conv2d expects [B,C,H,W] and [O,C,kh,kw], got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise DimensionError(f"conv2d channel mismatch: input {x.shape} vs kernel {w.shape}")
    x_data, x_needs = x.data, x._needs
    out = Tensor(_conv2d(x_data, w.data, bias.data, stride, padding))
    b, _, oh, ow = out.shape
    co, ci, kh, kw = w.shape
    rows, width = oh * ow, kh * kw * ci  # patch rows per sample, floats per row
    bounds = _sample_blocks(b, rows)
    wmat = _kernel_rows(w.data)

    def bwd(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(b * rows, co)
        copy = _im2col(x_data, kh, kw, stride, padding)
        dx, scatter = _col2im(x_data.shape, kh, kw, stride, padding) if x_needs else (None, None)
        blocks, work = len(bounds) - 1, rows * (co + 2 * width)
        dw_parts = np.empty((blocks, co, width), dtype=DTYPE)
        db_parts = np.empty((blocks, co), dtype=DTYPE)
        patches = _run_buffers(bounds, work, lambda n: np.empty((n * rows, width), dtype=DTYPE))

        def block(lo, hi):
            k, part = bounds.index(lo), g2[lo * rows : hi * rows]
            cols = patches[lo][: (hi - lo) * rows]
            copy(lo, hi, cols)
            np.dot(part.T, cols, out=dw_parts[k])
            np.sum(part, axis=0, out=db_parts[k])
            if scatter is not None:
                scatter(lo, hi, np.dot(part, wmat, out=cols))

        _split(bounds, block, work)
        dw, db = dw_parts[0], db_parts[0]
        for k in range(1, blocks):  # the partials in grid order
            dw += dw_parts[k]
            db += db_parts[k]
        return dx, dw.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2), db

    _record(out, (x, w, bias), bwd)
    return out


def _avgpool2d(x: np.ndarray, k: int) -> np.ndarray:
    """avgpool2d's forward on an array whose window k divides its height and width."""
    b, c, h, w = x.shape
    offsets = [(i, j) for i in range(k) for j in range(k)]
    n = DTYPE(k * k)
    acc = np.empty_like(x[:, :, ::k, ::k])  # the order np.add gives the views' sum

    def pool(lo, hi):
        part, out = x[lo:hi], acc[lo:hi]
        views = [part[:, :, i::k, j::k] for i, j in offsets]
        if k > 1:
            np.add(views[0], views[1], out=out)
        else:
            np.copyto(out, views[0])
        for view in views[2:]:
            np.add(out, view, out=out)
        np.divide(out, n, out=out)

    _split(_sample_runs(b, c * h * w), pool, c * h * w)
    return acc


def avgpool2d(x: Tensor, window: int) -> Tensor:
    """Mean over non-overlapping window x window blocks of x [B,C,H,W].

    The forward adds the window² strided views x[:, :, i::k, j::k] into one
    buffer in row-major (i, j) order, then divides by window²; the backward
    writes g / window² into the same views of one gradient buffer. Both
    buffers take x's memory order. Both passes run over a grid of one block
    of samples per worker, or one block when the pass runs inline (see
    _split for why the bits do not depend on it): a sample's pooled values
    and gradients come from that sample alone.
    """
    check_int("avgpool2d window", window, 1, ParameterError)
    if x.ndim != 4:
        raise DimensionError(f"avgpool2d expects [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    if h % window or w % window:
        raise DimensionError(f"avgpool2d window {window} does not divide spatial dims {h}x{w}")
    k = window
    offsets = [(i, j) for i in range(k) for j in range(k)]
    n = DTYPE(k * k)
    # backward keeps x's shape and memory order, not x
    order = sorted(range(4), key=lambda axis: -x.data.strides[axis])
    in_memory, back = [x.shape[axis] for axis in order], np.argsort(order)
    out = Tensor(_avgpool2d(x.data, k))
    bounds = _sample_runs(b, c * h * w)

    def bwd(g):
        gx = np.empty(in_memory, dtype=DTYPE).transpose(back)
        share = np.empty_like(g)

        def spread(lo, hi):
            np.divide(g[lo:hi], n, out=share[lo:hi])
            for i, j in offsets:
                gx[lo:hi, :, i::k, j::k] = share[lo:hi]

        _split(bounds, spread, c * h * w)
        return (gx,)

    _record(out, (x,), bwd)
    return out
