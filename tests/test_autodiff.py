import numpy as np
import pytest

import tksnn.autodiff as ad
from tksnn.autodiff import GradTape, SurrogateSpec, Tensor, backward
from tksnn.errors import ContractError, DataError, DimensionError, ParameterError, TapeError
from tksnn.gradcheck import check_scalar_fn, fd_gradient, op_checks, rel_error, spike_backward_check


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.matmul(eye, m).data, m.data)


def test_matmul_hand_product():
    a = Tensor([[1.0, 0.0], [0.0, 0.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(ad.matmul(a, b).data, [[5.0, 6.0], [0.0, 0.0]])


def test_matmul_zero_case():
    out = ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
    assert out.shape == (2, 4)
    assert not out.data.any()


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_backward_sum_is_ones():
    w = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with GradTape() as tape:
        loss = ad.mean(ad.scale(w, 3.0))
    backward(loss, tape)
    assert np.allclose(w.grad, 1.0)


def test_backward_square_analytic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        loss = ad.sum_last(ad.mul(w, w))
    backward(loss, tape)
    assert np.array_equal(w.grad, [2.0, 4.0])


def test_backward_matmul_chain_matches_finite_differences():
    rng = np.random.default_rng(7)
    a0 = rng.normal(size=(3, 3)).astype(np.float32)
    b0 = rng.normal(size=(3, 2)).astype(np.float32)

    def build(x):
        return ad.mean(ad.matmul(ad.matmul(x, Tensor(a0)), Tensor(b0)))

    err = check_scalar_fn(build, rng.normal(size=(2, 3)).astype(np.float32), h=1e-3)
    assert err < 1e-3


def test_backward_rejects_non_scalar():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        out = ad.mul(w, w)
    with pytest.raises(ContractError):
        backward(out, tape)


def test_backward_twice_is_error():
    w = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        loss = ad.mean(w)
    backward(loss, tape)
    with pytest.raises(TapeError):
        backward(loss, tape)


def test_backward_missing_provenance():
    w = Tensor([1.0], requires_grad=True)
    with GradTape() as tape:
        ad.mean(w)
    loss = ad.mean(w)  # built outside the tape
    with pytest.raises(TapeError):
        backward(loss, tape)


def test_reused_tensor_accumulates_both_contributions():
    w = Tensor([3.0], requires_grad=True)
    with GradTape() as tape:
        loss = ad.mean(ad.add(ad.mul(w, w), ad.scale(w, 5.0)))  # w^2 + 5w
    backward(loss, tape)
    assert np.allclose(w.grad, 2 * 3.0 + 5.0)


@pytest.mark.parametrize("seed", range(10))
def test_all_ops_match_finite_differences(seed):
    worst = max(op_checks(seed).values())
    assert worst < 1e-3


def test_softmax_symmetry():
    out = ad.softmax_temperature(Tensor([0.0, 0.0]), 7.3)
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_closed_form():
    out = ad.softmax_temperature(Tensor([np.log(4.0), 0.0]), 1.0)
    assert np.allclose(out.data, [0.8, 0.2], atol=1e-6)


def test_softmax_infinite_temperature_limit():
    out = ad.softmax_temperature(Tensor([10.0, 0.0]), 1e6)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-4)


def test_softmax_rejects_bad_temperature():
    with pytest.raises(ParameterError):
        ad.softmax_temperature(Tensor([1.0, 2.0]), 0.0)


@pytest.mark.parametrize("magnitude", [1.0, 1e2, 1e4])
def test_softmax_rows_sum_to_one_at_large_magnitudes(magnitude):
    rng = np.random.default_rng(3)
    logits = (rng.normal(size=(8, 5)) * magnitude).astype(np.float32)
    out = ad.softmax_temperature(Tensor(logits), 1.0)
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_spike_threshold_inclusive():
    spec = SurrogateSpec()
    out = ad.spike(Tensor([0.5, 0.49, 0.51]), 0.5, spec)
    assert np.array_equal(out.data, [1.0, 0.0, 1.0])


def test_spike_computes_no_surrogate_without_tape(monkeypatch):
    calls = []
    real = SurrogateSpec.derivative
    monkeypatch.setattr(SurrogateSpec, "derivative",
                        lambda self, x: calls.append(1) or real(self, x))
    v = Tensor([0.2, 0.7], requires_grad=True)
    out = ad.spike(v, 0.5, SurrogateSpec())
    assert np.array_equal(out.data, [0.0, 1.0])
    assert calls == []
    with GradTape() as tape:
        loss = ad.mean(ad.spike(v, 0.5, SurrogateSpec()))
    assert calls == []  # recorded, not yet evaluated
    backward(loss, tape)
    assert calls == [1]


def test_spike_rectangular_backward_center_factor():
    v = Tensor([0.5], requires_grad=True)
    with GradTape() as tape:
        s = ad.spike(v, 0.5, SurrogateSpec(kind="rectangular", width=1.0))
        loss = ad.mean(s)
    backward(loss, tape)
    assert np.allclose(v.grad, [1.0])  # 1/width at the center


@pytest.mark.parametrize("kind", ["rectangular", "triangular", "piecewise_quadratic"])
@pytest.mark.parametrize("seed", range(3))
def test_spike_backward_equals_closed_form(kind, seed):
    assert spike_backward_check(SurrogateSpec(kind=kind), seed) == 0.0


@pytest.mark.parametrize("kind", ["rectangular", "triangular", "piecewise_quadratic"])
def test_surrogate_nonnegative_and_compact_support(kind):
    spec = SurrogateSpec(kind=kind, width=0.7)
    x = np.linspace(-3, 3, 601).astype(np.float32)
    d = spec.derivative(x)
    assert (d >= 0).all()
    assert not d[np.abs(x) >= 0.7].any()


def test_surrogate_spec_validation():
    with pytest.raises(ParameterError):
        SurrogateSpec(kind="gaussian")
    with pytest.raises(ParameterError):
        SurrogateSpec(width=0.0)


def test_select_class_rejects_bad_labels():
    with pytest.raises(DataError):
        ad.select_class(Tensor(np.ones((2, 3))), np.array([0, 3]))


def test_log_clamp_matches_documented_floor():
    out = ad.log(Tensor([0.0, 1.0]))
    assert np.allclose(out.data[0], np.log(1e-12), rtol=1e-5)
    assert out.data[1] == 0.0
