"""Discrete-time Leaky Integrate-and-Fire dynamics.

Update rule per step t (hard reset to 0), starting from v_{-1} = 0 and
s_{-1} = 0:

    v_t = (1 - 1/tau_m) * v_{t-1} * (1 - s_{t-1}) + (1/tau_m) * I_t
    s_t = H(v_t - v_th)

The reset factor (1 - s_{t-1}) is differentiated like any other term.

`lif_sequence` runs a whole current sequence, the [T·B, ...] rows a network
holds, as one tape op (no reshape around it is recorded). Its forward,
`_lif_rows`, is also what an untaped network runs, through `_lif_sequence`.
It repeats the update above op for op, so spikes and potentials equal
those of `lif_step` chained over T bit for bit. It steps through time in a
few per-step buffers that each op writes in place (`out=`); every op still
takes the same operands in the same order, so writing in place changes no
bit. Only backward reads the potentials, so the [T, B, ...] sequence of v_t
is kept only when a tape records the op: inference keeps the spikes alone,
and each v_t overwrites v_{t-1} in one buffer. A recorded op keeps v and
not the spikes, which are freed once the layer above has read them: the
backward reads 1 - s_t as the comparison v_t < v_th, which equals
1 - H(v_t - v_th) for every v_t that is not NaN (a NaN v_t spikes 0, and
reads 0 where 1 - s_t is 1). The backward runs the recurrence in reverse
time, with H' replaced by the surrogate derivative sg evaluated at the
stored v_t:

    c_{t+1} = (1 - 1/tau_m) * dv_{t+1}                   (c_T = 0)
    ds_t    = gs_t - c_{t+1} * v_t
    dv_t    = c_{t+1} * (1 - s_t) + ds_t * sg(v_t - v_th)
    dI_t    = (1/tau_m) * dv_t

where gs_t is the gradient reaching s_t from the layers above. It works in
the [T, ...] gradient buffer itself: one call writes sg for every step into
it, step t overwrites its sg_t with dv_t (a few per-step buffers hold c, ds
and 1 - s_t), and one multiply by 1/tau_m at the end turns every dv_t into
dI_t. Every element still gets the same ops on the same operands in the same
order. `lif_step` is the single-step reference: the same update built from
tape ops, against which the fused op is tested.

Tiles and threads. Both loops see the sequence as a [T, N] array in its
memory order: channels-last after a conv, a view of dense currents, never a
copy. The N neurons are cut into tiles of `TILE` consecutive columns, and
each tile runs the whole time loop, forward or backward, in its own slices
of the per-step buffers, so its working set stays in cache. The tiles are
the grid that `autodiff._split` deals out to the process's CPUs. A neuron's
recurrence reads only that neuron's own values, so every element gets the
same ops on the same operands in the same order whatever the tile size; for
the worker count, see _split's bit rule. The calling thread allocates every
buffer; the workers only write into them. mlp-small's layer (B·128 neurons)
is a single tile and runs inline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, SurrogateSpec, Tensor
from .errors import DimensionError, ParameterError, check_float


@dataclass(frozen=True)
class LifConfig:
    tau_m: float = 2.0
    v_th: float = 0.5

    def __post_init__(self):
        for name in ("tau_m", "v_th"):
            check_float(name, getattr(self, name), ParameterError)
        if self.tau_m <= 1.0:
            raise ParameterError(f"tau_m must exceed 1 (leak in (0,1)), got {self.tau_m}")
        if self.v_th <= 0.0:
            raise ParameterError(f"v_th must be above the reset potential 0, got {self.v_th}")


def lif_step(
    v: Tensor,
    s_prev: Tensor,
    current: Tensor,
    cfg: LifConfig,
    surrogate: SurrogateSpec,
) -> tuple[Tensor, Tensor]:
    """One membrane update + threshold: (v_t, s_t) from (v_{t-1}, s_{t-1}) and I_t,
    differentiable through the surrogate."""
    if current.shape != v.shape:
        raise DimensionError(f"input current shape {current.shape} != state shape {v.shape}")
    # 1 − s_prev written 1 + (−1)·s_prev: IEEE defines them as the same operation
    carry = ad.mul(v, ad.add(1.0, ad.mul(s_prev, -1.0)))
    v_new = ad.add(ad.mul(carry, 1.0 - 1.0 / cfg.tau_m), ad.mul(current, 1.0 / cfg.tau_m))
    return v_new, ad.spike(v_new, cfg.v_th, surrogate)


# neurons per tile: a tile's per-step buffers (256 KB each) stay in L2, and each
# numpy call is long enough that two workers seldom wait on the interpreter lock
TILE = 1 << 16


def _memory_order(a: np.ndarray) -> tuple[int, ...]:
    """Axes of a [T, ...] array: time first, then the others outermost in memory first."""
    return (0,) + tuple(sorted(range(1, a.ndim), key=lambda k: -a.strides[k]))


def _time_rows(rows_in: np.ndarray, t_len: int):
    """(rows, back) for currents [T·B,...]: rows(x) views an array of their
    shape as [T, N] in the currents' memory order, back(r) views such an
    [T, N] array in their shape again.

    Both loops run on these views (channels-last after a conv), views and not
    copies of dense currents: every pass reads memory in order, and the
    spikes keep that order for the next layer.
    """
    if rows_in.ndim < 1 or t_len < 1 or rows_in.shape[0] % t_len:
        raise DimensionError(f"lif_sequence needs [T·B,...] currents, T={t_len}: {rows_in.shape}")
    in_shape = rows_in.shape  # all back reads of the currents, so a tape does not keep them
    seq_shape = (t_len, in_shape[0] // t_len) + in_shape[1:]
    order = _memory_order(rows_in.reshape(seq_shape))
    shape = tuple(seq_shape[k] for k in order)
    inverse = tuple(sorted(range(len(order)), key=order.__getitem__))

    def rows(x):
        return x.reshape(seq_shape).transpose(order).reshape(t_len, -1)

    def back(r):
        return r.reshape(shape).transpose(inverse).reshape(in_shape)

    return rows, back


def _lif_rows(i_rows: np.ndarray, t_len: int, cfg: LifConfig, keep_v: bool = False):
    """lif_sequence's forward on the [T, N] view of its currents (see _time_rows):
    the spikes and, if keep_v, the potentials (else None), both [T, N]."""
    leak = DTYPE(1.0 - 1.0 / cfg.tau_m)
    gain = DTYPE(1.0 / cfg.tau_m)
    v_th = DTYPE(cfg.v_th)
    n = i_rows.shape[1]
    s_rows = np.empty_like(i_rows)
    v_rows = np.empty_like(i_rows) if keep_v else None
    # per-step scratch: each tile runs in its own slice
    v_step, s_step = np.zeros(n, dtype=DTYPE), np.zeros(n, dtype=DTYPE)
    a_step, carry_step = np.empty(n, dtype=DTYPE), np.empty(n, dtype=DTYPE)

    def forward_tile(lo, hi):
        tile = slice(lo, hi)
        # s_tile[t] holds the drive I_t / tau_m until step t replaces it with s_t
        s_tile = s_rows[:, tile]
        np.multiply(i_rows[:, tile], gain, out=s_tile)
        v_tile = v_rows[:, tile] if v_rows is not None else None
        v, s, a, carry = v_step[tile], s_step[tile], a_step[tile], carry_step[tile]
        for t in range(t_len):
            np.multiply(v, np.subtract(1, s, out=a), out=carry)
            np.multiply(carry, leak, out=carry)
            if v_tile is not None:
                v = v_tile[t]
            s = s_tile[t]
            np.add(carry, s, out=v)
            np.greater_equal(v, v_th, out=s)

    ad._split(list(range(0, n, TILE)) + [n], forward_tile, t_len)
    return s_rows, v_rows


def _lif_sequence(rows_in: np.ndarray, t_len: int, cfg: LifConfig) -> np.ndarray:
    """The untaped lif_sequence: spikes for currents [T·B,...], in their shape and memory order."""
    rows, back = _time_rows(rows_in, t_len)
    return back(_lif_rows(rows(rows_in), t_len, cfg)[0])


def lif_sequence(currents: Tensor, t_len: int, cfg: LifConfig,
                 surrogate: SurrogateSpec) -> Tensor:
    """Spikes [T·B,...] for input currents [T·B,...] (row t·B + b holds step t of
    sample b) from a fresh state, as one tape op."""
    rows_in = currents.data
    rows, back = _time_rows(rows_in, t_len)
    # only a recorded op's backward reads the potentials
    keep_v = ad._active_tape() is not None and currents._needs
    s_rows, v_rows = _lif_rows(rows(rows_in), t_len, cfg, keep_v)
    out = Tensor(back(s_rows))
    leak = DTYPE(1.0 - 1.0 / cfg.tau_m)
    gain = DTYPE(1.0 / cfg.tau_m)
    v_th = DTYPE(cfg.v_th)
    n = s_rows.shape[1]

    def bwd(g):  # it keeps v_rows, not the spikes: 1 − s_t is read from v_t
        g_rows = rows(g)  # a view when g has the currents' memory order
        grad = np.empty_like(v_rows)
        c_step, ds_step, a_step = (np.empty(n, dtype=DTYPE) for _ in range(3))

        def backward_tile(lo, hi):
            tile = slice(lo, hi)
            v_tile, g_tile, grad_tile = (x[:, tile] for x in (v_rows, g_rows, grad))
            c, ds, a = (x[tile] for x in (c_step, ds_step, a_step))
            # grad_tile[t] holds sg_t, then dv_t once step t has run, then dI_t
            surrogate.derivative(np.subtract(v_tile, v_th, out=grad_tile), out=grad_tile)
            np.multiply(g_tile[t_len - 1], grad_tile[t_len - 1], out=grad_tile[t_len - 1])
            for t in range(t_len - 2, -1, -1):
                np.multiply(grad_tile[t + 1], leak, out=c)
                # gs_t + (−c·v_t) written gs_t − c·v_t: IEEE defines them
                # as the same operation
                np.subtract(g_tile[t], np.multiply(c, v_tile[t], out=ds), out=ds)
                np.multiply(ds, grad_tile[t], out=ds)
                # 1 − s_t is v_t < v_th, since s_t = (v_t >= v_th)
                np.multiply(c, np.less(v_tile[t], v_th, out=a), out=c)
                np.add(c, ds, out=grad_tile[t])
            np.multiply(grad_tile, gain, out=grad_tile)

        ad._split(list(range(0, n, TILE)) + [n], backward_tile, t_len)
        return (back(grad),)

    ad._record(out, (currents,), bwd)
    return out
