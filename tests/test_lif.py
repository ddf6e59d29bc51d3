import tracemalloc

import numpy as np
import pytest

import tksnn.autodiff as ad
import tksnn.lif as lif
from tksnn.autodiff import SURROGATE_KINDS, GradTape, SurrogateSpec, Tensor, backward
from tksnn.errors import DimensionError, ParameterError
from tksnn.gradcheck import lif_pair
from tksnn.lif import LifConfig, lif_sequence, lif_step

SUR = SurrogateSpec()


def fresh(shape, cfg):
    """(v, s_prev) every sequence starts from: v = v_rest everywhere, no prior spikes."""
    return Tensor(np.full(shape, cfg.v_rest, dtype=np.float32)), Tensor(np.zeros(shape))


def step(v, s, current, cfg):
    return lif_step(v, s, Tensor(current), cfg, SUR)


def test_charge_to_threshold_spikes():
    cfg = LifConfig(tau_m=2.0, v_th=0.5)
    v, s = step(*fresh((1, 1), cfg), np.array([[1.0]], dtype=np.float32), cfg)
    assert v.data[0, 0] == pytest.approx(0.5)
    assert s.data[0, 0] == 1.0


def test_zero_input_never_spikes():
    cfg = LifConfig()
    v, s = fresh((2, 3), cfg)
    zero = np.zeros((2, 3), dtype=np.float32)
    for _ in range(20):
        v, s = step(v, s, zero, cfg)
        assert not s.data.any()
        assert not v.data.any()


def test_reset_term_annihilates_carryover():
    cfg = LifConfig(tau_m=2.0, v_th=0.5)
    v, s = step(Tensor([[0.4]]), Tensor([[1.0]]), np.zeros((1, 1), dtype=np.float32), cfg)
    assert v.data[0, 0] == 0.0
    assert s.data[0, 0] == 0.0


def test_shape_mismatch_is_dimension_error():
    cfg = LifConfig()
    with pytest.raises(DimensionError):
        lif_step(*fresh((2, 3), cfg), Tensor(np.zeros((2, 4))), cfg, SUR)


def test_leak_contracts_potential_without_input():
    cfg = LifConfig(tau_m=4.0, v_th=10.0)  # high threshold: pure leak
    v, s = Tensor([[1.0]]), Tensor([[0.0]])
    prev = 1.0
    for _ in range(10):
        v, s = step(v, s, np.zeros((1, 1), dtype=np.float32), cfg)
        cur = abs(float(v.data[0, 0]))
        assert cur <= prev
        prev = cur
    assert prev == pytest.approx((1 - 1 / 4.0) ** 10, rel=1e-5)


@pytest.mark.parametrize("current", [1.0, 1.5, 3.0])
def test_strong_constant_input_spikes_every_step(current):
    cfg = LifConfig(tau_m=2.0, v_th=0.5)
    v, s = fresh((1, 1), cfg)
    drive = np.full((1, 1), current, dtype=np.float32)
    for _ in range(8):
        v, s = step(v, s, drive, cfg)
        assert s.data[0, 0] == 1.0


def test_spikes_are_binary_for_any_magnitude():
    cfg = LifConfig()
    rng = np.random.default_rng(0)
    v, s = fresh((4, 8), cfg)
    for _ in range(5):
        drive = (rng.normal(size=(4, 8)) * 100).astype(np.float32)
        v, s = step(v, s, drive, cfg)
        assert set(np.unique(s.data)) <= {0.0, 1.0}


def test_detach_reset_changes_gradients_not_forward():
    rng = np.random.default_rng(1)
    drive = rng.uniform(0, 2, size=(3, 2, 4)).astype(np.float32)  # [T,B,N]

    def run(detach):
        cfg = LifConfig(detach_reset=detach)
        w = Tensor(np.full((4,), 1.0), requires_grad=True)
        v, s = fresh((2, 4), cfg)
        vs = []
        with GradTape() as tape:
            total = None
            for t in range(3):
                current = ad.mul(Tensor(drive[t]), w)
                v, s = lif_step(v, s, current, cfg, SUR)
                vs.append(v.data.copy())
                term = ad.mean(s)
                total = term if total is None else ad.add(total, term)
        backward(total, tape)
        return np.stack(vs), w.grad.copy()

    v_plain, g_plain = run(False)
    v_detached, g_detached = run(True)
    assert np.array_equal(v_plain, v_detached)
    assert not np.array_equal(g_plain, g_detached)


def test_nonzero_rest_potential_reset_target():
    cfg = LifConfig(tau_m=2.0, v_th=0.5, v_rest=-0.2)
    v, s = fresh((1, 1), cfg)
    assert v.data[0, 0] == pytest.approx(-0.2)
    # after a spike the carried potential becomes v_rest, then leaks
    v, _ = step(Tensor([[0.9]]), Tensor([[1.0]]), np.zeros((1, 1), dtype=np.float32), cfg)
    assert v.data[0, 0] == pytest.approx(0.5 * -0.2)


def test_config_validation():
    with pytest.raises(ParameterError):
        LifConfig(tau_m=1.0)
    with pytest.raises(ParameterError):
        LifConfig(v_rest=0.5, v_th=0.5)


@pytest.mark.parametrize("field,value", [
    ("tau_m", "abc"), ("tau_m", float("nan")), ("v_th", None), ("v_rest", True),
    ("detach_reset", "abc"), ("detach_reset", 1),
])
def test_config_rejects_settings_of_the_wrong_type(field, value):
    with pytest.raises(ParameterError, match=field):
        LifConfig(**{field: value})


@pytest.mark.parametrize("kind", ["rectangular", "triangular", "piecewise_quadratic"])
@pytest.mark.parametrize("detach", [False, True])
@pytest.mark.parametrize("v_rest", [0.0, -0.2])
def test_fused_sequence_matches_per_step_chain(v_rest, detach, kind):
    rng = np.random.default_rng(7)
    currents = rng.uniform(-0.5, 2.0, size=(8, 3, 6)).astype(np.float32)
    mix = rng.normal(size=currents.shape).astype(np.float32)
    cfg = LifConfig(v_rest=v_rest, detach_reset=detach)
    (s_fused, g_fused), (s_ref, g_ref) = lif_pair(cfg, SurrogateSpec(kind), currents, mix)
    assert np.array_equal(s_fused, s_ref)
    assert 0 < s_ref.sum() < s_ref.size  # both firing and silent steps
    assert np.abs(g_ref).max() > 0
    assert np.abs(g_fused - g_ref).max() <= 1e-6 * np.abs(g_ref).max()


def test_fused_sequence_keeps_trailing_shape_and_needs_time_axis():
    currents = Tensor(np.full((3, 2, 4, 5, 5), 1.0, dtype=np.float32))
    spikes = lif_sequence(currents, LifConfig(), SUR)
    assert spikes.shape == currents.shape
    assert np.array_equal(spikes.data[:, 0, 0, 0, 0], [1.0, 1.0, 1.0])
    with pytest.raises(DimensionError):
        lif_sequence(Tensor(np.ones(4)), LifConfig(), SUR)


def test_fused_sequence_computes_no_surrogate_without_tape(monkeypatch):
    calls = []
    monkeypatch.setattr(SurrogateSpec, "derivative", lambda self, x: calls.append(1))
    lif_sequence(Tensor(np.ones((4, 2, 3)), requires_grad=True), LifConfig(), SUR)
    assert calls == []


CONFIGS = [LifConfig(v_rest=v_rest, detach_reset=detach)
           for v_rest in (0.0, -0.2) for detach in (False, True)]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_untaped_sequence_gives_the_taped_spikes(cfg):
    rng = np.random.default_rng(3)
    currents = Tensor(rng.uniform(-0.5, 2.0, size=(9, 4, 3, 5)).astype(np.float32),
                      requires_grad=True)
    untaped = lif_sequence(currents, cfg, SUR)
    with GradTape() as tape:
        taped = lif_sequence(currents, cfg, SUR)
    assert len(tape) == 1  # recorded, so this run kept its potentials
    assert 0 < taped.data.sum() < taped.size
    assert np.array_equal(untaped.data, taped.data)


def test_untaped_sequence_keeps_no_potential_sequence():
    currents = Tensor(np.random.default_rng(4).uniform(-0.5, 2.0, size=(10, 8, 256))
                      .astype(np.float32), requires_grad=True)

    def peak(taped: bool) -> int:
        tracemalloc.start()
        try:
            if taped:
                with GradTape():
                    lif_sequence(currents, LifConfig(), SUR)
            else:
                lif_sequence(currents, LifConfig(), SUR)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # backward needs the [T,B,...] potentials; inference does not keep them
    assert peak(True) - peak(False) >= currents.data.nbytes


def untiled_lif(i_seq, g, cfg, surrogate):
    """(spikes, d loss / d currents for d loss / d spikes = g) of the untiled loop:
    the whole [T, ...] sequence stepped through time in per-step buffers, the
    bit-exact oracle for the tiled and split kernel."""
    t_len = i_seq.shape[0]
    leak, gain = np.float32(1.0 - 1.0 / cfg.tau_m), np.float32(1.0 / cfg.tau_m)
    v_rest, v_th = np.float32(cfg.v_rest), np.float32(cfg.v_th)
    s_seq, v_seq = np.empty_like(i_seq), np.empty_like(i_seq)
    v, s = np.full_like(i_seq[0], v_rest), np.zeros_like(i_seq[0])
    a, carry = np.empty_like(v), np.empty_like(v)
    np.multiply(i_seq, gain, out=s_seq)
    for t in range(t_len):
        np.multiply(v, np.subtract(1, s, out=a), out=carry)
        if cfg.v_rest != 0.0:
            np.add(carry, np.multiply(s, v_rest, out=a), out=carry)
        np.multiply(carry, leak, out=carry)
        v, s = v_seq[t], s_seq[t]
        np.add(carry, s, out=v)
        np.greater_equal(v, v_th, out=s)
    grad = np.empty_like(i_seq)
    dv, c, ds = (np.empty_like(i_seq[0]) for _ in range(3))
    for t in range(t_len - 1, -1, -1):
        sg = surrogate.derivative(v_seq[t] - v_th)
        if t == t_len - 1:
            np.multiply(g[t], sg, out=dv)
        else:
            np.multiply(dv, leak, out=c)
            if cfg.detach_reset:
                ds = g[t]
            elif cfg.v_rest != 0.0:
                ds = c * v_rest - c * v_seq[t] + g[t]
            else:
                ds = g[t] - c * v_seq[t]
            dv = c * (1 - s_seq[t]) + ds * sg
        np.multiply(dv, gain, out=grad[t])
    return s_seq, grad


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype == np.float32 and a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32))


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("kind", SURROGATE_KINDS)
@pytest.mark.parametrize("detach", [False, True])
@pytest.mark.parametrize("v_rest", [0.0, -0.2])
def test_tiled_sequence_matches_the_untiled_loop_bit_for_bit(monkeypatch, v_rest, detach, kind,
                                                             workers):
    # 6·4·5·3 = 360 neurons per step: 52 tiles of 7, the last one short
    monkeypatch.setattr(lif, "TILE", 7)
    rng = np.random.default_rng(11)
    # channels-last currents, as a conv writes them; the gradient from above
    # comes in another memory order
    i_seq = rng.uniform(-0.5, 2.0, size=(9, 6, 4, 5, 3)).astype(np.float32).transpose(0, 1, 4, 2, 3)
    g = rng.normal(size=i_seq.shape).astype(np.float32)
    cfg, surrogate = LifConfig(v_rest=v_rest, detach_reset=detach), SurrogateSpec(kind, 0.7)
    s_ref, grad_ref = untiled_lif(i_seq, g, cfg, surrogate)
    currents = Tensor(i_seq, requires_grad=True)
    with GradTape() as tape:
        spikes = lif_sequence(currents, cfg, surrogate)
    (grad,) = tape._nodes[0].bwd(g)
    assert 0 < s_ref.sum() < s_ref.size
    assert same_bits(spikes.data, s_ref)
    assert same_bits(lif_sequence(currents, cfg, surrogate).data, s_ref)  # untaped
    assert spikes.data.strides == np.empty_like(i_seq).strides  # the currents' memory order
    assert same_bits(grad, grad_ref)
    assert grad.strides == np.empty_like(i_seq).strides


def test_an_mlp_small_step_runs_on_the_calling_thread(monkeypatch):
    """mlp-small's LIF layer (B·128 neurons) is one tile: nothing is handed to a pool."""
    from tksnn import TeacherConfig, build_model, objective, unroll

    monkeypatch.setattr(ad._pool, "submit", lambda *a: pytest.fail("a pool was used"))
    model = build_model("mlp-small", (40,), 4, LifConfig(), SUR, 0)
    x = np.random.default_rng(0).uniform(size=(10, 32, 40)).astype(np.float32)
    with GradTape() as tape:
        loss, _, _ = objective(unroll(model, x), np.arange(32) % 4, TeacherConfig(), 0.5)
    backward(loss, tape)
    assert model.readout.w.grad is not None
