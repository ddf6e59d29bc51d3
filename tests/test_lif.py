import tracemalloc

import numpy as np
import pytest

from tksnn.autodiff import GradTape, SurrogateSpec, Tensor, backward
import tksnn.autodiff as ad
from tksnn.errors import DimensionError, ParameterError
from tksnn.gradcheck import lif_pair
from tksnn.lif import LifConfig, lif_sequence, lif_step, reset_state

SUR = SurrogateSpec()


def step_values(state, current, cfg):
    new_state, spikes = lif_step(state, Tensor(current), cfg, SUR)
    return new_state, spikes.data


def test_charge_to_threshold_spikes():
    cfg = LifConfig(tau_m=2.0, v_th=0.5)
    state = reset_state(1, 1, cfg)
    state, spikes = step_values(state, np.array([[1.0]], dtype=np.float32), cfg)
    assert state.v.data[0, 0] == pytest.approx(0.5)
    assert spikes[0, 0] == 1.0


def test_zero_input_never_spikes():
    cfg = LifConfig()
    state = reset_state(2, 3, cfg)
    zero = np.zeros((2, 3), dtype=np.float32)
    for _ in range(20):
        state, spikes = step_values(state, zero, cfg)
        assert not spikes.any()
        assert not state.v.data.any()


def test_reset_term_annihilates_carryover():
    cfg = LifConfig(tau_m=2.0, v_th=0.5)
    state = reset_state(1, 1, cfg)
    state.v = Tensor([[0.4]])
    state.s_prev = Tensor([[1.0]])
    state, spikes = step_values(state, np.zeros((1, 1), dtype=np.float32), cfg)
    assert state.v.data[0, 0] == 0.0
    assert spikes[0, 0] == 0.0


def test_reset_state_definition():
    cfg = LifConfig()
    state = reset_state(2, 3, cfg)
    assert state.v.shape == (2, 3)
    assert np.array_equal(state.v.data, np.zeros((2, 3)))
    assert np.array_equal(state.s_prev.data, np.zeros((2, 3)))


def test_reset_state_rejects_bad_sizes():
    with pytest.raises(ParameterError):
        reset_state(0, 3, LifConfig())
    with pytest.raises(ParameterError):
        reset_state(2, -1, LifConfig())


def test_shape_mismatch_is_dimension_error():
    cfg = LifConfig()
    state = reset_state(2, 3, cfg)
    with pytest.raises(DimensionError):
        lif_step(state, Tensor(np.zeros((2, 4))), cfg, SUR)


def test_leak_contracts_potential_without_input():
    cfg = LifConfig(tau_m=4.0, v_th=10.0)  # high threshold: pure leak
    state = reset_state(1, 1, cfg)
    state.v = Tensor([[1.0]])
    prev = 1.0
    for _ in range(10):
        state, _ = step_values(state, np.zeros((1, 1), dtype=np.float32), cfg)
        cur = abs(float(state.v.data[0, 0]))
        assert cur <= prev
        prev = cur
    assert prev == pytest.approx((1 - 1 / 4.0) ** 10, rel=1e-5)


@pytest.mark.parametrize("current", [1.0, 1.5, 3.0])
def test_strong_constant_input_spikes_every_step(current):
    cfg = LifConfig(tau_m=2.0, v_th=0.5)
    state = reset_state(1, 1, cfg)
    drive = np.full((1, 1), current, dtype=np.float32)
    for _ in range(8):
        state, spikes = step_values(state, drive, cfg)
        assert spikes[0, 0] == 1.0


def test_spikes_are_binary_for_any_magnitude():
    cfg = LifConfig()
    rng = np.random.default_rng(0)
    state = reset_state(4, 8, cfg)
    for _ in range(5):
        drive = (rng.normal(size=(4, 8)) * 100).astype(np.float32)
        state, spikes = step_values(state, drive, cfg)
        assert set(np.unique(spikes)) <= {0.0, 1.0}


def test_detach_reset_changes_gradients_not_forward():
    rng = np.random.default_rng(1)
    drive = rng.uniform(0, 2, size=(3, 2, 4)).astype(np.float32)  # [T,B,N]

    def run(detach):
        cfg = LifConfig(detach_reset=detach)
        w = Tensor(np.full((4,), 1.0), requires_grad=True)
        state = reset_state(2, 4, cfg)
        vs = []
        with GradTape() as tape:
            total = None
            for t in range(3):
                current = ad.mul(Tensor(drive[t]), w)
                state, spikes = lif_step(state, current, cfg, SUR)
                vs.append(state.v.data.copy())
                term = ad.mean(spikes)
                total = term if total is None else ad.add(total, term)
        backward(total, tape)
        return np.stack(vs), w.grad.copy()

    v_plain, g_plain = run(False)
    v_detached, g_detached = run(True)
    assert np.array_equal(v_plain, v_detached)
    assert not np.array_equal(g_plain, g_detached)


def test_nonzero_rest_potential_reset_target():
    cfg = LifConfig(tau_m=2.0, v_th=0.5, v_rest=-0.2)
    state = reset_state(1, 1, cfg)
    assert state.v.data[0, 0] == pytest.approx(-0.2)
    # after a spike the carried potential becomes v_rest, then leaks
    state.v = Tensor([[0.9]])
    state.s_prev = Tensor([[1.0]])
    state, _ = step_values(state, np.zeros((1, 1), dtype=np.float32), cfg)
    assert state.v.data[0, 0] == pytest.approx(0.5 * -0.2)


def test_config_validation():
    with pytest.raises(ParameterError):
        LifConfig(tau_m=1.0)
    with pytest.raises(ParameterError):
        LifConfig(v_rest=0.5, v_th=0.5)


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
