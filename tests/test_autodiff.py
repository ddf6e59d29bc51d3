import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

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


# ---------------------------------------------------------------------------
# avgpool2d against the block-mean oracle


def block_mean(x, k):
    b, c, h, w = x.shape
    return x.reshape(b, c, h // k, k, w // k, k).mean(axis=(3, 5))


def pool_inputs(seed):
    """0/1 spikes and general floats [B,C,12,12], C-contiguous and channels-last."""
    rng = np.random.default_rng(seed)
    nhwc = [(rng.random((3, 12, 12, 5)) < 0.4).astype(np.float32),
            rng.standard_normal((3, 12, 12, 5)).astype(np.float32)]
    for x in nhwc:
        yield np.ascontiguousarray(x.transpose(0, 3, 1, 2)), x.transpose(0, 3, 1, 2)


@pytest.mark.parametrize("window", [1, 2, 3, 4])
def test_avgpool_forward_matches_block_mean(window):
    (spikes, spikes_cl), (floats, floats_cl) = pool_inputs(window)
    for x in (spikes, spikes_cl):  # bit-equal on the spike input every cnn pool sees
        assert np.array_equal(ad.avgpool2d(Tensor(x), window).data, block_mean(x, window))
    for x in (floats, floats_cl):  # summation order differs from numpy's mean
        assert np.allclose(ad.avgpool2d(Tensor(x), window).data, block_mean(x, window),
                           rtol=1e-6, atol=1e-6)


def test_avgpool_window_must_divide_spatial_dims():
    with pytest.raises(DimensionError, match="does not divide"):
        ad.avgpool2d(Tensor(np.zeros((1, 2, 6, 8), dtype=np.float32)), 4)
    with pytest.raises(DimensionError, match="does not divide"):
        ad.avgpool2d(Tensor(np.zeros((1, 2, 8, 6), dtype=np.float32)), 4)


@pytest.mark.parametrize("window", [1, 2, 3])
def test_avgpool_backward_matches_broadcast_oracle(window):
    for x, x_cl in pool_inputs(10 + window):
        for data in (x, x_cl):
            b, c, h, w = data.shape
            oh, ow = h // window, w // window
            g = np.random.default_rng(window).standard_normal((b, c, oh, ow)).astype(np.float32)
            leaf = Tensor(data, requires_grad=True)
            with GradTape() as tape:
                y = ad.avgpool2d(leaf, window)
                # d loss / d y is exactly g
                loss = ad.sum_last(ad.reshape(ad.mul(y, Tensor(g)), (1, -1)))
            backward(loss, tape)
            n = np.float32(window * window)
            oracle = np.broadcast_to(g[:, :, :, None, :, None] / n,
                                     (b, c, oh, window, ow, window)).reshape(b, c, h, w)
            assert leaf.grad.dtype == np.float32
            assert np.array_equal(leaf.grad, oracle)


# conv2d: a copy of the keep-the-patches algorithm, the bit-exact oracle for
# the kernels that rebuild the patches in backward


def ref_im2col(x, kh, kw, stride, padding):
    b, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=np.float32)
    xp[:, padding : padding + h, padding : padding + w] = x.transpose(0, 2, 3, 1)
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3))
    return cols.reshape(b * oh * ow, kh * kw * c), oh, ow


def ref_col2im(cols, x_shape, kh, kw, stride, padding, oh, ow):
    b, c, h, w = x_shape
    cols = cols.reshape(b, oh, ow, kh, kw, c)
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c), dtype=np.float32)
    for i in range(kh):
        for j in range(kw):
            xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols[:, :, :, i, j]
    return xp[:, padding : padding + h, padding : padding + w].transpose(0, 3, 1, 2)


def ref_conv2d(x, w, bias, g, stride, padding):
    """(y, dw, db, dx) of conv2d for d loss / d y = g, keeping the patches."""
    b = x.shape[0]
    co, ci, kh, kw = w.shape
    cols, oh, ow = ref_im2col(x, kh, kw, stride, padding)
    wmat = w.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
    y = cols @ wmat.T
    y += bias
    g2 = g.transpose(0, 2, 3, 1).reshape(b * oh * ow, co)
    dw = (g2.T @ cols).reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)
    db = g2.sum(axis=0)
    dx = ref_col2im(g2 @ wmat, x.shape, kh, kw, stride, padding, oh, ow)
    return y.reshape(b, oh, ow, co).transpose(0, 3, 1, 2), dw, db, dx


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype == np.float32 and a.shape == b.shape and np.array_equal(
        a.view(np.uint32), b.view(np.uint32))


@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("ci", [1, 2, 3, 16])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_matches_keep_the_patches_oracle_bit_for_bit(stride, padding, ci, channels_last):
    rng = np.random.default_rng(100 * stride + 10 * padding + ci)
    b, co, kh, kw, h, w = 5, 6, 3, 3, 9, 7
    x = rng.standard_normal((b, h, w, ci)).astype(np.float32).transpose(0, 3, 1, 2)
    if not channels_last:
        x = np.ascontiguousarray(x)
    wt = rng.standard_normal((co, ci, kh, kw)).astype(np.float32)
    bias = rng.standard_normal(co).astype(np.float32)
    oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    g = rng.standard_normal((b, co, oh, ow)).astype(np.float32)
    y_ref, dw_ref, db_ref, dx_ref = ref_conv2d(x, wt, bias, g, stride, padding)
    xt, wtt, bt = (Tensor(a, requires_grad=True) for a in (x, wt, bias))
    with GradTape() as tape:
        y = ad.conv2d(xt, wtt, bt, stride=stride, padding=padding)
        # d loss / d y is exactly g
        loss = ad.sum_last(ad.reshape(ad.mul(y, Tensor(g)), (1, -1)))
    backward(loss, tape)
    assert same_bits(y.data, y_ref)
    assert same_bits(wtt.grad, dw_ref)
    assert same_bits(bt.grad, db_ref)
    assert same_bits(xt.grad, dx_ref)


def test_conv2d_tape_keeps_less_than_one_patch_matrix():
    """Between forward and backward a taped conv2d keeps its output and the
    weight matrix, not the [B·oh·ow, kh·kw·C] patches."""
    rng = np.random.default_rng(0)
    b, ci, co, hw = 16, 16, 8, 16
    x = Tensor(rng.standard_normal((b, ci, hw, hw)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.standard_normal((co, ci, 3, 3)).astype(np.float32), requires_grad=True)
    bias = Tensor(np.zeros(co, dtype=np.float32), requires_grad=True)
    patch_bytes = b * hw * hw * 9 * ci * 4
    tracemalloc.start()
    try:
        with GradTape() as tape:
            before = tracemalloc.get_traced_memory()[0]
            y = ad.conv2d(x, w, bias, stride=1, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - before
            loss = ad.mean(y)
        backward(loss, tape)
    finally:
        tracemalloc.stop()
    assert y.data.nbytes < kept < patch_bytes
    assert x.grad.shape == x.shape and w.grad.shape == w.shape
