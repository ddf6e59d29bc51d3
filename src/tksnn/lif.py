"""Discrete-time Leaky Integrate-and-Fire dynamics.

Update rule per step t (hard multiplicative reset), starting from
v_{-1} = v_rest and s_{-1} = 0:

    v_t = (1 - 1/tau_m) * (v_{t-1} * (1 - s_{t-1}) + v_rest * s_{t-1}) + (1/tau_m) * I_t
    s_t = H(v_t - v_th)

With v_rest = 0 this is the plain product form; nonzero v_rest replaces the
carried potential after a spike.

`lif_sequence` runs a whole [T, B, ...] current sequence as one tape op. Its
forward repeats the update above op for op, so spikes and potentials equal
those of `lif_step` chained over T bit for bit. Its backward runs the
recurrence in reverse time, with H' replaced by the surrogate derivative sg
evaluated at the stored v_t:

    c_{t+1} = (1 - 1/tau_m) * dv_{t+1}                   (c_T = 0)
    ds_t    = c_{t+1} * (v_rest - v_t) + gs_t            (reset term dropped with detach_reset)
    dv_t    = c_{t+1} * (1 - s_t) + ds_t * sg(v_t - v_th)
    dI_t    = (1/tau_m) * dv_t

where gs_t is the gradient reaching s_t from the layers above. `lif_step` is
the single-step reference: the same update built from tape ops, against
which the fused op is tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, SurrogateSpec, Tensor
from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class LifConfig:
    tau_m: float = 2.0
    v_th: float = 0.5
    v_rest: float = 0.0
    detach_reset: bool = False

    def __post_init__(self):
        if self.tau_m <= 1.0:
            raise ParameterError(f"tau_m must exceed 1 (leak in (0,1)), got {self.tau_m}")
        if self.v_rest >= self.v_th:
            raise ParameterError(
                f"v_rest ({self.v_rest}) must be below v_th ({self.v_th})"
            )


@dataclass
class LifState:
    """Membrane potentials and previous-step spikes for one layer."""

    v: Tensor
    s_prev: Tensor


def reset_state(batch: int, neurons: int, cfg: LifConfig) -> LifState:
    """Fresh state: v = v_rest everywhere, no prior spikes."""
    if batch <= 0 or neurons <= 0:
        raise ParameterError(f"state sizes must be positive, got ({batch}, {neurons})")
    v = Tensor(np.full((batch, neurons), cfg.v_rest, dtype=DTYPE))
    s = Tensor(np.zeros((batch, neurons), dtype=DTYPE))
    return LifState(v=v, s_prev=s)


def lif_step(
    state: LifState,
    input_current: Tensor,
    cfg: LifConfig,
    surrogate: SurrogateSpec,
) -> tuple[LifState, Tensor]:
    """One membrane update + threshold; differentiable through the surrogate."""
    if input_current.shape != state.v.shape:
        raise DimensionError(
            f"input current shape {input_current.shape} != state shape {state.v.shape}"
        )
    s_prev = state.s_prev
    if cfg.detach_reset:
        # reset factor treated as a constant in backward; forward values unchanged
        s_prev = s_prev.detach()
    keep = ad.sub(Tensor(np.ones_like(s_prev.data)), s_prev)
    carry = ad.mul(state.v, keep)
    if cfg.v_rest != 0.0:
        carry = ad.add(carry, ad.scale(s_prev, cfg.v_rest))
    leak = 1.0 - 1.0 / cfg.tau_m
    v_new = ad.add(ad.scale(carry, leak), ad.scale(input_current, 1.0 / cfg.tau_m))
    spikes = ad.spike(v_new, cfg.v_th, surrogate)
    return LifState(v=v_new, s_prev=spikes), spikes


def lif_sequence(currents: Tensor, cfg: LifConfig, surrogate: SurrogateSpec) -> Tensor:
    """Spikes [T,B,...] for input currents [T,B,...] from a fresh state, as one tape op."""
    i_seq = currents.data
    if i_seq.ndim < 2 or i_seq.shape[0] < 1:
        raise DimensionError(f"lif_sequence expects [T,B,...] currents, got {i_seq.shape}")
    t_len = i_seq.shape[0]
    leak = DTYPE(1.0 - 1.0 / cfg.tau_m)
    gain = DTYPE(1.0 / cfg.tau_m)
    v_rest, v_th = DTYPE(cfg.v_rest), DTYPE(cfg.v_th)
    # every buffer takes the memory order of the currents (channels-last after
    # a conv), so the elementwise steps and the next layer read it in order
    v_seq = np.empty_like(i_seq)
    s_seq = np.empty_like(i_seq)
    v = np.full_like(i_seq[0], v_rest)
    s = np.zeros_like(i_seq[0])
    for t in range(t_len):
        carry = v * (1 - s)
        if cfg.v_rest != 0.0:
            carry = carry + s * v_rest
        v = v_seq[t] = carry * leak + i_seq[t] * gain
        s_seq[t] = v >= v_th
        s = s_seq[t]
    out = Tensor(s_seq)

    def bwd(g):
        grad = np.empty_like(i_seq)
        dv = None
        for t in range(t_len - 1, -1, -1):
            ds = g[t]
            sg = surrogate.derivative(v_seq[t] - v_th)
            if dv is None:
                dv = ds * sg
            else:
                c = dv * leak
                if not cfg.detach_reset:
                    reset = -(c * v_seq[t])
                    if cfg.v_rest != 0.0:
                        reset = c * v_rest + reset
                    ds = reset + ds
                dv = c * (1 - s_seq[t]) + ds * sg
            np.multiply(dv, gain, out=grad[t])
        return (grad,)

    ad._record(out, (currents,), bwd)
    return out
