import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import tksnn.autodiff as ad
from tksnn.autodiff import GradTape, SurrogateSpec, Tensor, backward
from tksnn.errors import ContractError, DimensionError, ParameterError, TapeError
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
        loss = ad.mean(ad.mul(w, Tensor(3.0)))
    backward(loss, tape)
    assert np.allclose(w.grad, 1.0)


def test_backward_square_analytic():
    w = Tensor([1.0, 2.0], requires_grad=True)
    with GradTape() as tape:
        loss = ad.mean(ad.mul(w, w))  # d/dw of (w0² + w1²) / 2 is w
    backward(loss, tape)
    assert np.array_equal(w.grad, [1.0, 2.0])


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
        loss = ad.mean(ad.add(ad.mul(w, w), ad.mul(w, Tensor(5.0))))  # w^2 + 5w
    backward(loss, tape)
    assert np.allclose(w.grad, 2 * 3.0 + 5.0)


def test_matmul_and_mul_compute_no_gradient_for_an_input_without_a_grad_path():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 4)))
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    target = Tensor(rng.normal(size=(3, 2)))
    with GradTape() as tape:
        y = ad.matmul(x, w)  # a first Linear: the network input has no grad path
        ad.mul(target, y)  # the constant operand first
        ad.matmul(Tensor(x.data.T), y)
        ad.mul(y, target)
    g = rng.normal(size=(3, 2)).astype(np.float32)
    dx, dw = tape._nodes[0].bwd(g)
    assert dx is None and np.array_equal(dw, x.data.T @ g)
    d_target, dy = tape._nodes[1].bwd(g)
    assert d_target is None and np.array_equal(dy, g * target.data)
    g2 = rng.normal(size=(4, 2)).astype(np.float32)
    d_const, dy = tape._nodes[2].bwd(g2)
    assert d_const is None and np.array_equal(dy, x.data @ g2)
    dy, d_target = tape._nodes[3].bwd(g)
    assert d_target is None and np.array_equal(dy, g * target.data)


# ---------------------------------------------------------------------------
# fused ops against the op chains they replace: the same float32 ops in the
# same order, so the bytes of every value and gradient match, signs of zero too


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype == np.float32 and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("with_bias", [False, True])
def test_matmul_matches_the_product_and_bias_add_it_fuses_bit_for_bit(with_bias):
    rng = np.random.default_rng(5)
    x, w, b = (Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
               for shape in ((6, 4), (4, 3), (3,)))
    g = rng.normal(size=(6, 3)).astype(np.float32)
    g[:, 0] = -0.0  # a sum of negative zeros: its sign depends on how the sum starts
    with GradTape() as tape:
        fused = ad.matmul(x, w, b if with_bias else None)
        product = ad.matmul(x, w)
        chain = ad.add(product, b) if with_bias else product
    grads = tape._nodes[0].bwd(g)
    # plain numpy in the chain's float32 order: the product, then the bias row
    # added; backward sums g down the rows for the bias
    want_out = x.data @ w.data
    want = (g @ w.data.T, x.data.T @ g)
    if with_bias:
        want_out = want_out + b.data
        want += (g.sum(axis=0),)
        g_product, g_bias = tape._nodes[2].bwd(g)
        assert all(map(same_bytes, tape._nodes[1].bwd(g_product) + (g_bias,), want))
    assert same_bytes(fused.data, want_out) and same_bytes(chain.data, want_out)
    assert len(grads) == len(want)
    assert all(map(same_bytes, grads, want))


def old_cross_entropy_chain(p, target, g):
    """Loss and d loss / d p of mean(sum_last(mul(-target, log(p)))), the op chain
    `cross_entropy` replaces, in plain numpy: each forward, then each backward
    in reverse tape order, with the broadcast copies those ops made."""
    f32 = np.float32
    neg = -target.astype(f32)
    clamped = np.maximum(p, f32(ad.LOG_FLOOR))
    prod = neg * np.log(clamped)
    per_row = np.sum(prod, axis=-1)
    loss = np.mean(per_row)
    g_rows = np.broadcast_to(g / f32(per_row.size), per_row.shape).astype(f32)  # mean
    g_prod = np.broadcast_to(np.expand_dims(g_rows, -1), prod.shape).astype(f32)  # sum_last
    g_log = g_prod * neg  # mul: the constant target takes no gradient
    return loss, g_log * (p >= ad.LOG_FLOOR).astype(f32) / clamped  # the floored log


@pytest.mark.parametrize("lead", [(), (5,)], ids=["[B,C]", "[T,B,C] over a [B,C] target"])
@pytest.mark.parametrize("upstream", [1.0, 0.35])
def test_cross_entropy_matches_the_op_chain_it_fuses_bit_for_bit(lead, upstream):
    rng = np.random.default_rng(9)
    b, c = 4, 6
    p = rng.dirichlet(np.ones(c), size=lead + (b,)).astype(np.float32)
    # probabilities at, just under and far under the floor, and exact zeros
    floor = np.float32(ad.LOG_FLOOR)
    p[..., 0, :4] = [floor, np.nextafter(floor, np.float32(0)), np.float32(1e-30), 0.0]
    target = rng.dirichlet(np.ones(c), size=b).astype(np.float32)
    target[1] = np.eye(c, dtype=np.float32)[2]  # a one-hot row: zeros in the target
    target[0, 3] = 0.0  # a zero weight on a clamped probability
    leaf = Tensor(p, requires_grad=True)
    with GradTape() as tape:
        out = ad.cross_entropy(leaf, target)
    g = np.float32(upstream) if upstream != 1.0 else np.ones((), dtype=np.float32)
    (grad,) = tape._nodes[0].bwd(g)
    loss_ref, grad_ref = old_cross_entropy_chain(p, target, g)
    assert same_bytes(out.data, loss_ref)
    assert same_bytes(grad, grad_ref)
    assert (np.signbit(grad_ref) & (grad_ref == 0)).any()  # negative zeros, where target is 0
    assert (grad_ref[..., 0, 1:4] == 0).all()  # no gradient where p was clamped


def test_cross_entropy_backward_makes_no_broadcast_copy_of_the_target():
    rng = np.random.default_rng(2)
    p = Tensor(rng.dirichlet(np.ones(100), size=(10, 32)).astype(np.float32), requires_grad=True)
    target = rng.dirichlet(np.ones(100), size=32).astype(np.float32)
    with GradTape() as tape:
        ad.cross_entropy(p, target)
    tracemalloc.start()
    try:
        tape._nodes[0].bwd(np.ones((), dtype=np.float32))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one [T,B,C] buffer, the mask that becomes the gradient, besides the
    # boolean mask and numpy's fixed-size iterator buffer; the op chain it
    # replaces made five
    assert peak < 2 * p.data.nbytes


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
    with pytest.raises(ParameterError, match="surrogate width must be a finite number"):
        SurrogateSpec(width="abc")


def test_cross_entropy_clamp_matches_documented_floor():
    p = Tensor([[0.0, 1.0]], requires_grad=True)
    with GradTape() as tape:
        out = ad.cross_entropy(p, [[0.5, 0.5]])
    backward(out, tape)
    # 0.5 * -log(1e-12) + 0.5 * -log(1); no gradient flows through the clamp
    assert np.allclose(out.data, -0.5 * np.log(1e-12), rtol=1e-5)
    assert np.array_equal(p.grad, [[0.0, -0.5]])


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


BAD_GEOMETRY = {
    "pool window 0": (lambda x, w, b: ad.avgpool2d(x, 0), ParameterError, "window must be >= 1"),
    "pool window -2": (lambda x, w, b: ad.avgpool2d(x, -2), ParameterError, "window must be >= 1"),
    "pool window 2.0": (lambda x, w, b: ad.avgpool2d(x, 2.0), ParameterError,
                        "window must be an integer"),
    "pool rank 3": (lambda x, w, b: ad.avgpool2d(ad.reshape(x, (2, 4, 4)), 2), DimensionError,
                    r"\[B,C,H,W\]"),
    "conv stride 0": (lambda x, w, b: ad.conv2d(x, w, b, stride=0), ParameterError,
                      "stride must be >= 1"),
    "conv stride -1": (lambda x, w, b: ad.conv2d(x, w, b, stride=-1), ParameterError,
                       "stride must be >= 1"),
    "conv padding -1": (lambda x, w, b: ad.conv2d(x, w, b, padding=-1), ParameterError,
                        "padding must be >= 0"),
    "conv kernel too tall": (lambda x, w, b: ad.conv2d(x, Tensor(np.zeros((3, 2, 5, 3))), b),
                             DimensionError, "larger than the padded input"),
    "conv kernel too wide": (
        lambda x, w, b: ad.conv2d(x, Tensor(np.zeros((3, 2, 3, 7))), b, padding=1),
        DimensionError, "larger than the padded input"),
}


@pytest.mark.parametrize("case", BAD_GEOMETRY)
def test_pool_and_conv_reject_bad_geometry_with_typed_errors(case):
    op, error, match = BAD_GEOMETRY[case]
    x = Tensor(np.ones((1, 2, 4, 4), dtype=np.float32))
    w, b = Tensor(np.ones((3, 2, 3, 3), dtype=np.float32)), Tensor(np.zeros(3, dtype=np.float32))
    with pytest.raises(error, match=match):
        op(x, w, b)


def unsplit_avgpool(data, g, k):
    """(y, dx) of the single-pass pool: the bit-exact oracle for the split one."""
    views = [(slice(None), slice(None), slice(i, None, k), slice(j, None, k))
             for i in range(k) for j in range(k)]
    n = np.float32(k * k)
    acc = np.add(data[views[0]], data[views[1]]) if k > 1 else data.copy(order="K")
    for view in views[2:]:
        np.add(acc, data[view], out=acc)
    y = np.divide(acc, n, out=acc)
    gx, share = np.empty_like(data), g / n
    for view in views:
        gx[view] = share
    return y, gx


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("window", [1, 2, 3])
def test_split_avgpool_matches_the_single_pass_bit_for_bit(window, workers):
    for x, x_cl in pool_inputs(10 + window):
        for data in (x, x_cl):
            g = np.random.default_rng(window).standard_normal(
                (data.shape[0], data.shape[1]) + tuple(d // window for d in data.shape[2:])
            ).astype(np.float32)
            y_ref, gx_ref = unsplit_avgpool(data, g, window)
            leaf = Tensor(data, requires_grad=True)
            with GradTape() as tape:
                y = ad.avgpool2d(leaf, window)
            (gx,) = tape._nodes[0].bwd(g)
            assert same_bits(y.data, y_ref) and y.data.strides == y_ref.strides
            assert same_bits(gx, gx_ref) and gx.strides == gx_ref.strides


@pytest.mark.parametrize("window", [1, 2, 3])
def test_avgpool_backward_matches_broadcast_oracle(window):
    for x, x_cl in pool_inputs(10 + window):
        for data in (x, x_cl):
            b, c, h, w = data.shape
            oh, ow = h // window, w // window
            g = np.random.default_rng(window).standard_normal((b, c, oh, ow)).astype(np.float32)
            leaf = Tensor(data, requires_grad=True)
            with GradTape() as tape:
                ad.avgpool2d(leaf, window)
            (gx,) = tape._nodes[0].bwd(g)
            n = np.float32(window * window)
            oracle = np.broadcast_to(g[:, :, :, None, :, None] / n,
                                     (b, c, oh, window, ow, window)).reshape(b, c, h, w)
            assert gx.dtype == np.float32
            assert np.array_equal(gx, oracle)


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


def ref_conv2d(x, w, bias, g, stride, padding, bounds=None):
    """(y, dw, db, dx) of conv2d for d loss / d y = g, keeping the patches.

    dw and db are the sums, in grid order, of one g2ᵀ·cols and one row sum
    per block of whole samples [lo, hi) of `bounds` (all samples if None)."""
    b = x.shape[0]
    co, ci, kh, kw = w.shape
    cols, oh, ow = ref_im2col(x, kh, kw, stride, padding)
    wmat = w.transpose(0, 2, 3, 1).reshape(co, kh * kw * ci)
    y = cols @ wmat.T
    y += bias
    g2 = g.transpose(0, 2, 3, 1).reshape(b * oh * ow, co)
    rows = oh * ow
    blocks = [slice(lo * rows, hi * rows) for lo, hi in pairwise(bounds or [0, b])]
    dw, db = g2[blocks[0]].T @ cols[blocks[0]], g2[blocks[0]].sum(axis=0)
    for rows_k in blocks[1:]:
        dw = dw + g2[rows_k].T @ cols[rows_k]
        db = db + g2[rows_k].sum(axis=0)
    dw = dw.reshape(co, kh, kw, ci).transpose(0, 3, 1, 2)
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
    check_conv2d_against_the_oracle(stride, padding, ci, channels_last)


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("ci", [1, 2, 3, 16])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_split_conv2d_matches_keep_the_patches_oracle_bit_for_bit(stride, padding, ci,
                                                                  channels_last, workers):
    # 5 samples cut unevenly over 2 and 3 workers
    check_conv2d_against_the_oracle(stride, padding, ci, channels_last)


def check_conv2d_against_the_oracle(stride, padding, ci, channels_last):
    x, wt, bias, g = conv_case(stride, padding, ci, channels_last)
    y_ref, dw_ref, db_ref, dx_ref = ref_conv2d(x, wt, bias, g, stride, padding)
    y, dw, db, dx = conv2d_and_grads(x, wt, bias, g, stride, padding)
    assert same_bits(y, y_ref)
    assert same_bits(dw, dw_ref)
    assert same_bits(db, db_ref)
    assert same_bits(dx, dx_ref)


def conv_case(stride, padding, ci, channels_last, b=5, co=6, h=9, w=7):
    """(x, kernel, bias, d loss / d y) of a 3x3 conv2d, x in NCHW or channels-last memory."""
    rng = np.random.default_rng(100 * stride + 10 * padding + ci)
    kh, kw = 3, 3
    x = rng.standard_normal((b, h, w, ci)).astype(np.float32).transpose(0, 3, 1, 2)
    if not channels_last:
        x = np.ascontiguousarray(x)
    wt = rng.standard_normal((co, ci, kh, kw)).astype(np.float32)
    bias = rng.standard_normal(co).astype(np.float32)
    oh, ow = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    g = rng.standard_normal((b, co, oh, ow)).astype(np.float32)
    return x, wt, bias, g


def conv2d_and_grads(x, wt, bias, g, stride, padding):
    """(y, dw, db, dx) of ad.conv2d for d loss / d y = g."""
    xt, wtt, bt = (Tensor(a, requires_grad=True) for a in (x, wt, bias))
    with GradTape() as tape:
        y = ad.conv2d(xt, wtt, bt, stride=stride, padding=padding)
    dx, dw, db = tape._nodes[0].bwd(g)
    return y.data, dw, db, dx


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("samples_per_block, blocks", [(2, 3), (3, 2)])
@pytest.mark.parametrize("channels_last", [False, True])
@pytest.mark.parametrize("ci", [1, 2, 3, 16])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_bits_do_not_depend_on_the_worker_count_over_several_blocks(
        stride, padding, ci, channels_last, samples_per_block, blocks, workers, monkeypatch):
    # with ci=16 (and co=6) blocks this small take OpenBLAS's small-matrix
    # path, so y differs from one whole-input matmul; it must not differ from
    # one worker count to another
    x, wt, bias, g = conv_case(stride, padding, ci, channels_last)
    rows = g.shape[2] * g.shape[3]
    monkeypatch.setattr(ad, "_BLOCK_ROWS", samples_per_block * rows)
    assert len(ad._sample_blocks(len(x), rows)) - 1 == blocks
    split = conv2d_and_grads(x, wt, bias, g, stride, padding)
    monkeypatch.setattr(ad, "_WORKERS", 1)
    alone = conv2d_and_grads(x, wt, bias, g, stride, padding)
    for got, want in zip(split, alone):
        assert same_bits(got, want)


@pytest.mark.parametrize("items", [80, 160, 250])
@pytest.mark.parametrize("ci, co, hw", [(2, 16, 32), (16, 32, 16)])
def test_cnn_small_convs_on_the_grid_match_one_matmul_bit_for_bit(ci, co, hw, items):
    """cnn-small's two convs at B·T = 80, 160 and 250 run several grid blocks,
    and every block's matmuls give y and dx the rows the single whole-input
    matmul of the oracle gives them. A BLAS whose row results depend on the
    row count fails here: the grid would then change cnn-small's bits. dw
    and db are the oracle's per-block partials, added in grid order."""
    x, wt, bias, g = conv_case(1, 1, ci, channels_last=ci > 2, b=items, co=co, h=hw, w=hw)
    bounds = ad._sample_blocks(items, hw * hw)
    assert len(bounds) - 1 > 2
    want = ref_conv2d(x, wt, bias, g, 1, 1, bounds)
    got = conv2d_and_grads(x, wt, bias, g, 1, 1)
    for name, a, b in zip(("y", "dw", "db", "dx"), got, want):
        assert same_bits(a, b), name


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_split_kernels_on_zero_samples_return_empty_values_and_zero_parameter_grads(workers):
    from tksnn.lif import LifConfig, lif_sequence

    x, wt, bias, g = conv_case(1, 1, 2, False, b=0, co=4, h=8, w=8)
    y, dw, db, dx = conv2d_and_grads(x, wt, bias, g, 1, 1)
    assert y.shape == (0, 4, 8, 8) and dx.shape == x.shape
    assert same_bits(dw, np.zeros_like(wt)) and same_bits(db, np.zeros_like(bias))
    leaf = Tensor(y, requires_grad=True)
    with GradTape() as tape:
        pooled = ad.avgpool2d(leaf, 2)
        spikes = lif_sequence(pooled, 3, LifConfig(), SurrogateSpec())
    assert pooled.shape == (0, 4, 4, 4) and spikes.shape == (0, 4, 4, 4)
    pool_node, lif_node = tape._nodes
    (g_lif,) = lif_node.bwd(np.zeros(spikes.shape, dtype=np.float32))
    (g_pool,) = pool_node.bwd(np.zeros(pooled.shape, dtype=np.float32))
    assert g_lif.shape == spikes.shape and g_pool.shape == y.shape


def test_conv2d_tape_keeps_less_than_one_patch_matrix():
    """Between forward and backward a taped conv2d's output (held here) and
    its tape keep less than the [B·oh·ow, kh·kw·C] patches: the tape adds
    the weight matrix, not the patches."""
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


# _split: the kernels' work split over threads


def test_split_deals_the_blocks_out_in_contiguous_runs(monkeypatch):
    monkeypatch.setattr(ad, "_WORKERS", 3)
    bounds = [0, 1, 3, 4, 6, 7, 9, 10]
    seen = []
    ad._split(bounds, lambda lo, hi: seen.append((lo, hi, threading.get_ident())),
              ad._MIN_RANGE_WORK)
    assert sorted((lo, hi) for lo, hi, _ in seen) == list(zip(bounds, bounds[1:]))
    # 7 blocks over 3 workers: runs of 2, 2 and 3 blocks, each run on one
    # thread in block order, the first on the caller's
    by_thread = {}
    for lo, _, thread in seen:
        by_thread.setdefault(thread, []).append(lo)
    assert by_thread.pop(threading.get_ident()) == [0, 1]
    second, third = [3, 4], [6, 7, 9]
    for los in by_thread.values():  # a pool of one thread runs both, in either order
        assert los in (second, third, second + third, third + second)


@pytest.mark.parametrize("count, bounds, work", [
    (1, [0, 3, 5, 8], 1 << 30),  # one worker
    (3, [0, 8], 1 << 30),  # one block
    (2, [0, 3, 5, 8], ad._MIN_RANGE_WORK // 8),  # little work
])
def test_split_runs_inline_in_block_order_with_one_worker_block_or_little_work(
        monkeypatch, count, bounds, work):
    monkeypatch.setattr(ad, "_WORKERS", count)
    monkeypatch.setattr(ad._pool, "submit", lambda *a: pytest.fail("a pool was used"))
    seen = []
    ad._split(bounds, lambda lo, hi: seen.append((lo, hi, threading.get_ident())), work)
    assert seen == [(lo, hi, threading.get_ident()) for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("failing", [0, 4])  # the calling thread's run, a pool thread's
def test_split_raises_the_error_itself_after_every_run_has_finished(monkeypatch, failing):
    monkeypatch.setattr(ad, "_WORKERS", 3)
    error = RuntimeError("block failed")
    finished = []

    def fn(lo, hi):
        if lo == failing:
            raise error
        time.sleep(0.05)
        finished.append(lo)

    with pytest.raises(RuntimeError) as info:
        ad._split([0, 2, 4, 6], fn, ad._MIN_RANGE_WORK)
    assert info.value is error
    assert sorted(finished) == sorted({0, 2, 4} - {failing})


def test_pool_submissions_of_each_split_call_of_cnn_small(monkeypatch):
    """Pool submissions per _split call with two workers, pinned: every call
    of a cnn-small training step (B=16, T=10) splits once. An untaped
    8-sample unroll hands off once, its groups of whole samples, from T=2 on,
    and every kernel split inside a group runs inline on the group's thread;
    at T=1 it runs on the calling thread, with no hand-off."""
    from tksnn import TeacherConfig, build_model, objective, unroll
    from tksnn.lif import LifConfig

    monkeypatch.setattr(ad, "_WORKERS", 2)
    calls, current = [], threading.local()
    split, submit = ad._split, ad._pool.submit

    def counting_split(bounds, fn, work):
        outer = getattr(current, "call", None)
        current.call = [fn.__qualname__.split(".")[0], threading.get_ident(), 0]
        calls.append(current.call)
        try:
            split(bounds, fn, work)
        finally:
            current.call = outer

    def counting_submit(*args):
        current.call[2] += 1
        return submit(*args)

    monkeypatch.setattr(ad, "_split", counting_split)
    monkeypatch.setattr(ad._pool, "submit", counting_submit)
    model = build_model("cnn-small", (2, 32, 32), 10, LifConfig(), SurrogateSpec(), 0)
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 3, size=(10, 16, 2, 32, 32)).astype(np.float32)
    with GradTape() as tape:
        loss, _, _ = objective(unroll(model, x), np.arange(16) % 10, TeacherConfig(), 0.5)
    backward(loss, tape)
    assert [count for _, _, count in calls] == [1] * 12
    caller = threading.get_ident()
    kernels = ["_conv2d", "_lif_rows", "_avgpool2d"] * 2
    for t_len in (1, 2, 4, 6, 8, 10):
        calls.clear()
        unroll(model, rng.uniform(0, 3, size=(t_len, 8, 2, 32, 32)).astype(np.float32))
        if t_len == 1:
            assert calls == [[name, caller, 0] for name in kernels]
            continue
        assert calls[0] == ["_untaped_features", caller, 1], t_len
        by_thread = {}
        for name, thread, count in calls[1:]:
            assert count == 0, (t_len, name)
            by_thread.setdefault(thread, []).append(name)
        assert caller in by_thread and len(by_thread) == 2, t_len
        assert all(names == kernels for names in by_thread.values()), t_len


# ---------------------------------------------------------------------------
# the tape's memory contract: it keeps tape keys, leaves and backward
# closures, so a tensor's data lives only while the caller or a closure
# holds it


def memory_owner(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory: a itself, or the base it views."""
    return a if a.base is None else a.base


@pytest.mark.parametrize("preset, shape", [("mlp-small", (40,)), ("cnn-small", (2, 32, 32))])
def test_lif_input_currents_are_freed_once_a_taped_unroll_returns(monkeypatch, preset, shape):
    from tksnn import TeacherConfig, build_model, network, objective, unroll
    from tksnn.lif import LifConfig

    currents = []
    lif_sequence = network.lif_sequence

    def noting_the_currents(h, *args):
        currents.append(weakref.ref(memory_owner(h.data)))
        return lif_sequence(h, *args)

    monkeypatch.setattr(network, "lif_sequence", noting_the_currents)
    model = build_model(preset, shape, 4, LifConfig(), SurrogateSpec(), 0)
    x = np.random.default_rng(0).uniform(0, 3, size=(4, 2) + shape).astype(np.float32)
    with GradTape() as tape:
        out = unroll(model, x)
        assert len(currents) == sum(layer.kind == "lif" for layer in model.layers)
        assert all(ref() is None for ref in currents)
        loss, _, _ = objective(out, np.arange(2), TeacherConfig(), 0.5)
    backward(loss, tape)
    assert all(p.grad is not None and p.grad.shape == p.shape for _, p in model.parameters())


def test_a_taped_cnn_small_forward_and_loss_hold_at_most_36_mb():
    """B=16, T=10: the tape holds each LIF layer's spikes and potentials and
    each pooled conv input, not the conv outputs (15.7 MB), which no backward
    reads."""
    from tksnn import TeacherConfig, build_model, objective, unroll
    from tksnn.lif import LifConfig

    model = build_model("cnn-small", (2, 32, 32), 4, LifConfig(), SurrogateSpec(), 0)
    rng = np.random.default_rng(5)
    x = rng.poisson(0.15, size=(10, 16, 2, 32, 32)).astype(np.float32)
    y = rng.integers(0, 4, size=16)
    tracemalloc.start()
    try:
        with GradTape():
            objective(unroll(model, x), y, TeacherConfig(mode="tks", k=2, tau=3.0), 0.5)
            held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 36 * 2**20


def test_a_dropped_intermediate_does_not_change_the_gradients():
    """The currents of a LIF op, dropped by the caller, are freed, and the
    leaves made after them get the gradients of the graph that keeps them,
    bit for bit. A key reused from a freed tensor, as id() is, would add a
    new leaf's gradient into the dropped tensor's slot."""
    from tksnn.lif import LifConfig, lif_sequence

    rng = np.random.default_rng(0)
    values = [rng.standard_normal(shape).astype(np.float32)
              for shape in [(6, 4), (4, 4)] + [(6, 4)] * 8]

    def grads(drop):
        x, w = (Tensor(v, requires_grad=True) for v in values[:2])
        with GradTape() as tape:
            currents = ad.matmul(x, w)
            freed = weakref.ref(memory_owner(currents.data))
            h = lif_sequence(currents, 3, LifConfig(), SurrogateSpec("triangular", 4.0))
            if drop:
                del currents
                assert freed() is None
            leaves = [Tensor(v, requires_grad=True) for v in values[2:]]
            for leaf in leaves:
                h = ad.add(ad.mul(h, leaf), leaf)
            loss = ad.mean(h)
        backward(loss, tape)
        return [t.grad for t in [x, w, *leaves]]

    for got, want in zip(grads(drop=True), grads(drop=False)):
        assert same_bits(got, want)


def test_a_tape_records_nothing_from_ops_on_another_thread():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    seen = {}

    def other():
        seen["sees a tape"] = bool(ad._TAPE_STACK)
        ad.mul(x, x)
        with GradTape() as own:
            ad.mul(x, x)
        seen["own tape"] = len(own)

    with GradTape() as tape:
        thread = threading.Thread(target=other)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert bool(ad._TAPE_STACK)
    assert len(tape) == 0
    assert seen == {"sees a tape": False, "own tape": 1}


def run_python(code: str) -> subprocess.CompletedProcess:
    src = str(Path(ad.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)


BIG_KERNELS = """
import threading
import numpy as np
import tksnn.autodiff as ad
from tksnn.lif import LifConfig, lif_sequence
x, w, bias = (ad.Tensor(np.ones(shape, dtype=np.float32), requires_grad=True)
              for shape in ((64, 16, 32, 32), (16, 16, 3, 3), (16,)))
with ad.GradTape() as tape:
    loss = ad.mean(ad.conv2d(x, w, bias, 1, 1))
ad.backward(loss, tape)
lif_sequence(ad.Tensor(np.ones((80, 65536), dtype=np.float32)), 10, LifConfig(), ad.SurrogateSpec())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_a_process_on_one_cpu_starts_no_thread():
    code = ("import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            + BIG_KERNELS + "print(ad._WORKERS, threading.active_count(), len(ad._pool._threads))")
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "1", "0"]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a CPU affinity call and two CPUs")
def test_split_blocks_run_within_the_cpus_the_caller_narrowed_to_after_import():
    code = """
import os, threading
import tksnn.autodiff as ad
ad._WORKERS = 2
allowed = {min(os.sched_getaffinity(0))}
os.sched_setaffinity(0, allowed)
seen = []
ad._split([0, 1, 2], lambda lo, hi: seen.append((threading.get_ident(), os.sched_getaffinity(0))),
          ad._MIN_RANGE_WORK)
assert len({thread for thread, _ in seen}) == 2, seen  # one block on a pool thread
print(all(cpus <= allowed for _, cpus in seen))
"""
    done = run_python(code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"]


def test_an_idle_pool_lets_the_interpreter_exit():
    code = "import tksnn.autodiff as ad\nad._WORKERS = 2\n" + BIG_KERNELS + \
        "print(threading.active_count())"
    done = run_python(code)  # a pool that kept the interpreter alive would time out
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) == 2  # the caller and one idle pool thread


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_splits_on_a_pool_of_its_own():
    code = "import tksnn.autodiff as ad\nad._WORKERS = 2\n" + BIG_KERNELS + """
import os
parent_pool = ad._pool
pid = os.fork()
if pid == 0:
    seen = []
    ad._split([0, 1, 2], lambda lo, hi: seen.append(threading.get_ident()), ad._MIN_RANGE_WORK)
    os._exit(0 if ad._pool is not parent_pool and len(set(seen)) == 2 else 3)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    done = run_python(code)  # a child waiting on the parent's threads would time out
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
