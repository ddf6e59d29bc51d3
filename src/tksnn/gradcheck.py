"""Central finite-difference verification of reverse-mode gradients.

The finite-difference side only calls forward evaluations, so it stays an
independent oracle for the backward rules it checks. The spike op is excluded
here (its forward is a step function); its backward is checked against the
closed-form surrogate derivative instead. The fused LIF op has a step function
inside too: its backward is checked against `lif.lif_step` chained over T,
which builds the same recurrence from ops checked here.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import DTYPE, GradTape, SurrogateSpec, Tensor, backward
from .lif import LifConfig, lif_sequence, lif_step
from .network import build_model, unroll
from .tks import ce_loss


def fd_gradient(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central differences of a scalar-valued f at x, elementwise."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise |a - n| / max(1, |n|)."""
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic.astype(np.float64) - numeric) / denom))


def check_scalar_fn(build, x0: np.ndarray, h: float = 1e-3) -> float:
    """Compare tape gradients of build(Tensor) against finite differences.

    `build` maps a Tensor to a scalar Tensor using library ops only.
    """
    x = Tensor(x0.copy(), requires_grad=True)
    with GradTape() as tape:
        loss = build(x)
    backward(loss, tape)
    numeric = fd_gradient(lambda a: build(Tensor(a)).item(), x0.astype(DTYPE).copy(), h)
    return rel_error(x.grad, numeric)


def op_checks(seed: int) -> dict[str, float]:
    """Max relative FD error for every differentiable op, on one random draw."""
    rng = np.random.default_rng(seed)
    out = {}

    a0 = rng.normal(size=(3, 4)).astype(DTYPE)
    b0 = rng.normal(size=(4, 2)).astype(DTYPE)
    out["matmul"] = check_scalar_fn(lambda x: ad.mean(ad.matmul(x, Tensor(b0))), a0)
    out["matmul_b"] = check_scalar_fn(lambda x: ad.mean(ad.matmul(Tensor(a0), x)), b0)
    out["add"] = check_scalar_fn(lambda x: ad.mean(ad.add(x, Tensor(b0.T))), a0[:2])
    out["mul"] = check_scalar_fn(lambda x: ad.mean(ad.mul(x, Tensor(a0))), a0)
    out["mean"] = check_scalar_fn(lambda x: ad.mean(x), a0)
    out["softmax"] = check_scalar_fn(
        lambda x: ad.mean(ad.mul(ad.softmax_temperature(x, 2.0), Tensor(a0))), a0
    )
    w0 = rng.normal(size=(2, 3, 3, 3)).astype(DTYPE) * DTYPE(0.5)
    x0 = rng.normal(size=(2, 3, 6, 6)).astype(DTYPE)
    bias = Tensor(rng.normal(size=2).astype(DTYPE))
    out["conv2d"] = check_scalar_fn(
        lambda x: ad.mean(ad.conv2d(x, Tensor(w0), bias, stride=1, padding=1)), x0, h=1e-2
    )
    out["conv2d_w"] = check_scalar_fn(
        lambda w: ad.mean(ad.conv2d(Tensor(x0), w, bias, stride=1, padding=1)), w0, h=1e-2
    )
    pool_mix = Tensor(rng.normal(size=(2, 3, 3, 3)).astype(DTYPE))
    out["avgpool2d"] = check_scalar_fn(
        lambda x: ad.mean(ad.mul(ad.avgpool2d(x, 2), pool_mix)), x0
    )
    currents = rng.uniform(-0.5, 2.0, size=(6, 3, 5)).astype(DTYPE)
    spike_mix = rng.normal(size=currents.shape).astype(DTYPE)
    (_, fused), (_, reference) = lif_pair(
        LifConfig(), SurrogateSpec("triangular"), currents, spike_mix
    )
    out["lif_sequence"] = rel_error(fused, reference)
    # a constant first operand broadcast over a leading axis
    log_p = rng.normal(size=(2,) + a0.shape).astype(DTYPE)
    out["mul_const_first"] = check_scalar_fn(lambda x: ad.mean(ad.mul(Tensor(a0), x)), log_p)
    # with a bias, as a Linear layer records it; the mix weighs each output differently
    c0 = rng.normal(size=2).astype(DTYPE)
    mm_mix = Tensor(rng.normal(size=(3, 2)).astype(DTYPE))

    def linear(x, w, bias):
        return ad.mean(ad.mul(ad.matmul(x, w, bias), mm_mix))

    out["matmul_bias_x"] = check_scalar_fn(lambda x: linear(x, Tensor(b0), Tensor(c0)), a0)
    out["matmul_bias_w"] = check_scalar_fn(lambda w: linear(Tensor(a0), w, Tensor(c0)), b0)
    out["matmul_bias_b"] = check_scalar_fn(lambda c: linear(Tensor(a0), Tensor(b0), c), c0)
    # a [B,C] target broadcast over [T,B,C] probabilities, as the TKS loss has it
    target = rng.uniform(size=a0.shape).astype(DTYPE)
    p0 = np.abs(rng.normal(size=(2,) + a0.shape)).astype(DTYPE) + DTYPE(0.5)
    out["cross_entropy"] = check_scalar_fn(lambda p: ad.cross_entropy(p, target), p0)
    return out


def lif_pair(cfg: LifConfig, surrogate: SurrogateSpec, currents: np.ndarray,
             spike_mix: np.ndarray):
    """((spikes, dloss/dcurrents) from `lif_sequence`, the same from `lif_step`
    chained over T) for loss = mean(spike_mix * spikes), currents [T,B,N]."""
    mix = Tensor(spike_mix)
    fused_in = Tensor(currents.reshape((-1,) + currents.shape[2:]), requires_grad=True)
    with GradTape() as tape:  # on the [T·B,N] rows a network feeds it
        fused = lif_sequence(fused_in, len(currents), cfg, surrogate)
        loss = ad.mean(ad.mul(fused, ad.reshape(mix, fused.shape)))
    backward(loss, tape)

    step_in = [Tensor(c, requires_grad=True) for c in currents]
    v = Tensor(np.zeros(currents.shape[1:], dtype=DTYPE))
    s_t = Tensor(np.zeros(currents.shape[1:], dtype=DTYPE))
    spikes = []
    with GradTape() as tape:
        for x_t in step_in:
            v, s_t = lif_step(v, s_t, x_t, cfg, surrogate)
            spikes.append(s_t)
        reference = ad.stack(spikes)
        loss = ad.mean(ad.mul(reference, mix))
    backward(loss, tape)
    return ((fused.data.reshape(currents.shape), fused_in.grad.reshape(currents.shape)),
            (reference.data, np.stack([x.grad for x in step_in])))


def spike_backward_check(spec: SurrogateSpec, seed: int) -> float:
    """Spike backward must equal the closed-form surrogate derivative exactly."""
    rng = np.random.default_rng(seed)
    v0 = rng.normal(size=32).astype(DTYPE)
    v = Tensor(v0, requires_grad=True)
    with GradTape() as tape:
        s = ad.spike(v, 0.5, spec)
        loss = ad.mean(s)
    backward(loss, tape)
    expected = spec.derivative(v0 - DTYPE(0.5)) / DTYPE(v0.size)
    return float(np.max(np.abs(v.grad - expected)))


def model_chain_check(seed: int, h: float = 1e-2) -> float:
    """FD check through a whole mlp-small unroll (matmul + LIF + softmax chain)."""
    rng = np.random.default_rng(seed)
    model = build_model("mlp-small", (8,), 3, LifConfig(), SurrogateSpec(), seed)
    x = rng.uniform(0.0, 1.0, size=(4, 2, 8)).astype(DTYPE)  # [T,B,F]
    y = rng.integers(0, 3, size=2)

    def loss_given(wdata):
        model.readout.w.data = wdata.astype(DTYPE)
        return ce_loss(unroll(model, x).o, y)

    w0 = model.readout.w.data.copy()
    with GradTape() as tape:
        loss = loss_given(w0.copy())
    backward(loss, tape)
    analytic = model.readout.w.grad.copy()
    numeric = fd_gradient(lambda wd: loss_given(wd).item(), w0.copy(), h)
    model.readout.w.data = w0
    return rel_error(analytic, numeric)


def run_suite(seeds=range(10)) -> dict[str, float]:
    """Worst-case relative errors across seeds for every check. Used by A0 and the CLI."""
    worst: dict[str, float] = {}
    for seed in seeds:
        results = op_checks(seed)
        results["model_chain"] = model_chain_check(seed)
        for kind in ("rectangular", "triangular", "piecewise_quadratic"):
            results[f"spike_{kind}"] = spike_backward_check(SurrogateSpec(kind=kind), seed)
        for name, err in results.items():
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
