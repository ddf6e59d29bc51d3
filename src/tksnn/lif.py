"""Discrete-time Leaky Integrate-and-Fire dynamics.

Update rule per step t (hard multiplicative reset), starting from
v_{-1} = v_rest and s_{-1} = 0:

    v_t = (1 - 1/tau_m) * (v_{t-1} * (1 - s_{t-1}) + v_rest * s_{t-1}) + (1/tau_m) * I_t
    s_t = H(v_t - v_th)

With v_rest = 0 this is the plain product form; nonzero v_rest replaces the
carried potential after a spike.

`lif_sequence` runs a whole [T, B, ...] current sequence as one tape op. Its
forward repeats the update above op for op, so spikes and potentials equal
those of `lif_step` chained over T bit for bit. It steps through time in a
few per-step buffers that each op writes in place (`out=`); every op still
takes the same operands in the same order, so writing in place changes no
bit. Only backward reads the potentials, so the [T, B, ...] sequence of v_t
is kept only when a tape records the op: inference keeps the spikes alone,
and each v_t overwrites v_{t-1} in one buffer. The backward runs the
recurrence in reverse time, in place in per-step buffers in the same op
order, with H' replaced by the surrogate derivative sg evaluated at the
stored v_t:

    c_{t+1} = (1 - 1/tau_m) * dv_{t+1}                   (c_T = 0)
    ds_t    = c_{t+1} * (v_rest - v_t) + gs_t            (reset term dropped with detach_reset)
    dv_t    = c_{t+1} * (1 - s_t) + ds_t * sg(v_t - v_th)
    dI_t    = (1/tau_m) * dv_t

where gs_t is the gradient reaching s_t from the layers above. `lif_step` is
the single-step reference: the same update built from tape ops, against
which the fused op is tested.

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
    v_rest: float = 0.0
    detach_reset: bool = False

    def __post_init__(self):
        for name in ("tau_m", "v_th", "v_rest"):
            check_float(name, getattr(self, name), ParameterError)
        if not isinstance(self.detach_reset, bool):
            raise ParameterError(f"detach_reset must be true or false, got {self.detach_reset!r}")
        if self.tau_m <= 1.0:
            raise ParameterError(f"tau_m must exceed 1 (leak in (0,1)), got {self.tau_m}")
        if self.v_rest >= self.v_th:
            raise ParameterError(
                f"v_rest ({self.v_rest}) must be below v_th ({self.v_th})"
            )


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
    if cfg.detach_reset:
        # reset factor treated as a constant in backward; forward values unchanged
        s_prev = s_prev.detach()
    # 1 − s_prev written 1 + (−s_prev): IEEE defines them as the same operation
    keep = ad.add(Tensor(np.ones_like(s_prev.data)), ad.scale(s_prev, -1.0))
    carry = ad.mul(v, keep)
    if cfg.v_rest != 0.0:
        carry = ad.add(carry, ad.scale(s_prev, cfg.v_rest))
    leak = 1.0 - 1.0 / cfg.tau_m
    v_new = ad.add(ad.scale(carry, leak), ad.scale(current, 1.0 / cfg.tau_m))
    return v_new, ad.spike(v_new, cfg.v_th, surrogate)


# neurons per tile: a tile's per-step buffers (256 KB each) stay in L2, and each
# numpy call is long enough that two workers seldom wait on the interpreter lock
TILE = 1 << 16


def _memory_order(a: np.ndarray) -> tuple[int, ...]:
    """Axes of a [T, ...] array: time first, then the others outermost in memory first."""
    return (0,) + tuple(sorted(range(1, a.ndim), key=lambda k: -a.strides[k]))


def lif_sequence(currents: Tensor, cfg: LifConfig, surrogate: SurrogateSpec) -> Tensor:
    """Spikes [T,B,...] for input currents [T,B,...] from a fresh state, as one tape op."""
    i_seq = currents.data
    if i_seq.ndim < 2 or i_seq.shape[0] < 1:
        raise DimensionError(f"lif_sequence expects [T,B,...] currents, got {i_seq.shape}")
    t_len = i_seq.shape[0]
    leak = DTYPE(1.0 - 1.0 / cfg.tau_m)
    gain = DTYPE(1.0 / cfg.tau_m)
    v_rest, v_th = DTYPE(cfg.v_rest), DTYPE(cfg.v_th)
    # both loops run on [T, N] views in the currents' memory order (channels-
    # last after a conv), views and not copies of dense currents: every pass
    # reads memory in order, and the spikes keep that order for the next layer
    order = _memory_order(i_seq)
    shape = tuple(i_seq.shape[k] for k in order)
    inverse = tuple(sorted(range(len(order)), key=order.__getitem__))

    def rows(x):
        return x.transpose(order).reshape(t_len, -1)

    i_rows = rows(i_seq)
    n = i_rows.shape[1]
    s_rows = np.empty_like(i_rows)
    # only a recorded op's backward reads the potentials
    v_rows = np.empty_like(i_rows) if ad._active_tape() is not None and currents._needs else None
    # per-step scratch: each tile runs in its own slice
    v_step = np.full(n, v_rest, dtype=DTYPE)
    s_step = np.zeros(n, dtype=DTYPE)
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
            if cfg.v_rest != 0.0:
                np.add(carry, np.multiply(s, v_rest, out=a), out=carry)
            np.multiply(carry, leak, out=carry)
            if v_tile is not None:
                v = v_tile[t]
            s = s_tile[t]
            np.add(carry, s, out=v)
            np.greater_equal(v, v_th, out=s)

    tiles = list(range(0, n, TILE)) + [n]
    ad._split(tiles, forward_tile, t_len)
    out = Tensor(s_rows.reshape(shape).transpose(inverse))

    def bwd(g):
        g_rows = rows(g)  # a view when g has the currents' memory order
        grad = np.empty_like(s_rows)
        dv_step, c_step, ds_step, a_step, sg_step = (np.empty(n, dtype=DTYPE) for _ in range(5))

        def backward_tile(lo, hi):
            tile = slice(lo, hi)
            v_tile, s_tile, g_tile, grad_tile = (x[:, tile] for x in (v_rows, s_rows, g_rows, grad))
            dv, c, ds, a, sg = (x[tile] for x in (dv_step, c_step, ds_step, a_step, sg_step))
            for t in range(t_len - 1, -1, -1):
                surrogate.derivative(np.subtract(v_tile[t], v_th, out=a), out=sg)
                if t == t_len - 1:
                    np.multiply(g_tile[t], sg, out=dv)
                else:
                    np.multiply(dv, leak, out=c)
                    if cfg.detach_reset:
                        ds_t = g_tile[t]
                    else:
                        # (c·v_rest + (−c·v_t)) + gs_t, with each x + (−y)
                        # written x − y: IEEE defines them as the same operation
                        ds_t = ds
                        np.multiply(c, v_tile[t], out=a)
                        if cfg.v_rest != 0.0:
                            np.subtract(np.multiply(c, v_rest, out=ds), a, out=ds)
                            np.add(ds, g_tile[t], out=ds)
                        else:
                            np.subtract(g_tile[t], a, out=ds)
                    np.multiply(c, np.subtract(1, s_tile[t], out=a), out=dv)
                    np.add(dv, np.multiply(ds_t, sg, out=sg), out=dv)
                np.multiply(dv, gain, out=grad_tile[t])

        ad._split(tiles, backward_tile, t_len)
        return (grad.reshape(shape).transpose(inverse),)

    ad._record(out, (currents,), bwd)
    return out
