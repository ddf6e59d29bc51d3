import struct

import numpy as np
import pytest

import tksnn.autodiff as ad
from tksnn.autodiff import SurrogateSpec
from tksnn.data import prepare_sequence
from tksnn.errors import DimensionError, FormatError, ParameterError
from tksnn.lif import LifConfig
from tksnn.network import (
    Flatten,
    Lif,
    Linear,
    Model,
    build_model,
    load_checkpoint,
    save_checkpoint,
    unroll,
)
from tksnn.trainer import AdamW

LIF = LifConfig()
SUR = SurrogateSpec()


def tiny_model(seed=0):
    return build_model("mlp-small", (8,), 3, LIF, SUR, seed)


def identity_readout_model():
    rng = np.random.default_rng(0)
    readout = Linear(2, 2, rng)
    readout.w.data = np.eye(2, dtype=np.float32)
    readout.b.data = np.zeros(2, dtype=np.float32)
    return Model([], readout, SUR, preset="custom", input_shape=(2,),
                 class_count=2, lif_cfg=LIF, seed=0)


def test_identity_network_logits():
    model = identity_readout_model()
    out = unroll(model, np.array([[[1.0, 0.0]]], dtype=np.float32))
    assert np.array_equal(out.q.data, [[[1.0, 0.0]]])


def test_zero_weight_network_outputs_zero():
    model = tiny_model()
    for _, p in model.parameters():
        p.data[...] = 0.0
    out = unroll(model, np.ones((1, 2, 8), dtype=np.float32))
    assert not out.q.data.any()


def test_two_layer_matches_hand_unrolled_recurrence():
    # 1 input -> linear(w=2) -> lif -> readout(w=[3, -1]); scalar oracle in floats
    rng = np.random.default_rng(0)
    hidden = Linear(1, 1, rng)
    hidden.w.data = np.array([[2.0]], dtype=np.float32)
    hidden.b.data = np.array([0.0], dtype=np.float32)
    readout = Linear(1, 2, rng)
    readout.w.data = np.array([[3.0, -1.0]], dtype=np.float32)
    readout.b.data = np.array([0.5, 0.0], dtype=np.float32)
    model = Model([hidden, Lif()], readout, SUR, preset="custom",
                  input_shape=(1,), class_count=2, lif_cfg=LIF, seed=0)

    drive = [0.4, 0.1, 0.6, 0.0]
    out = unroll(model, np.array(drive, dtype=np.float32).reshape(4, 1, 1))

    v = 0.0
    s_prev = 0.0
    expected = []
    for x in drive:
        current = 2.0 * x
        v = 0.5 * v * (1 - s_prev) + 0.5 * current
        s = 1.0 if v >= 0.5 else 0.0
        s_prev = s
        expected.append([3.0 * s + 0.5, -1.0 * s])
    assert np.allclose(out.q.data[:, 0, :], expected, atol=1e-6)


def test_unroll_t1_aggregate_equals_single_distribution():
    model = tiny_model()
    out = unroll(model, np.ones((1, 2, 8), dtype=np.float32))
    assert np.array_equal(out.o.data, out.v.data[0])


def test_stateless_model_is_time_invariant():
    model = identity_readout_model()
    x = np.tile(np.array([[0.3, 0.7]], dtype=np.float32), (5, 1, 1))
    out = unroll(model, x)
    for t in range(5):
        assert np.array_equal(out.q.data[t], out.q.data[0])
    assert np.allclose(out.o.data, out.v.data[0], atol=1e-7)


def test_mean_of_opposite_onehots_is_uniform():
    model = identity_readout_model()
    # logits +-20 give essentially one-hot distributions in opposite directions
    x = np.array([[[20.0, -20.0]], [[-20.0, 20.0]]], dtype=np.float32)
    out = unroll(model, x)
    assert np.allclose(out.o.data, [[0.5, 0.5]], atol=1e-6)


def test_aggregate_rows_sum_to_one():
    rng = np.random.default_rng(5)
    model = tiny_model()
    out = unroll(model, rng.normal(size=(6, 4, 8)).astype(np.float32))
    assert np.allclose(out.o.data.sum(axis=1), 1.0, atol=1e-6)
    assert np.allclose(out.v.data.sum(axis=2), 1.0, atol=1e-6)


def test_unroll_rejects_empty_sequence():
    with pytest.raises(ParameterError):
        unroll(tiny_model(), np.ones((0, 2, 8), dtype=np.float32))


@pytest.mark.parametrize("preset, sample", [("mlp-small", (8,)), ("cnn-small", (2, 8, 8))])
def test_unroll_rejects_an_empty_batch(preset, sample):
    model = build_model(preset, sample, 3, LifConfig(), SurrogateSpec(), 0)
    with pytest.raises(ParameterError, match="B=0"):
        unroll(model, np.ones((2, 0) + sample, dtype=np.float32))


@pytest.mark.parametrize("shape", [(), (5,)])
def test_unroll_rejects_input_without_time_and_batch_axes(shape):
    with pytest.raises(DimensionError):
        unroll(tiny_model(), np.zeros(shape, dtype=np.float32))


def test_causality_truncation():
    rng = np.random.default_rng(2)
    model = tiny_model()
    x = rng.uniform(0, 1, size=(6, 3, 8)).astype(np.float32)
    full = unroll(model, x)
    short = unroll(model, x[:4])
    assert np.array_equal(full.q.data[:4], short.q.data)


def test_no_cross_sample_leakage():
    rng = np.random.default_rng(3)
    model = tiny_model()
    sample = rng.uniform(0, 1, size=(5, 1, 8)).astype(np.float32)
    doubled = np.concatenate([sample, sample], axis=1)
    out = unroll(model, doubled)
    assert np.array_equal(out.q.data[:, 0, :], out.q.data[:, 1, :])


def test_equal_inputs_different_outputs_through_state():
    # constant drive still yields time-varying logits because membranes evolve
    model = tiny_model(seed=4)
    enc = prepare_sequence(np.full((2, 8), 0.8, dtype=np.float32), temporal=False, t_len=2)
    out = unroll(model, enc)
    assert not np.array_equal(out.q.data[0], out.q.data[1])


def test_checkpoint_round_trip_bit_exact(tmp_path):
    model = build_model("mlp-small", (8,), 3, LifConfig(tau_m=3.0), SurrogateSpec("triangular", 0.5), 9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, epoch=7)
    loaded, header, opt_state = load_checkpoint(path)
    assert opt_state is None
    assert header["epoch"] == 7
    assert loaded.lif_cfg == model.lif_cfg
    assert loaded.surrogate == model.surrogate
    for (na, pa), (nb, pb) in zip(model.parameters(), loaded.parameters()):
        assert na == nb
        assert np.array_equal(pa.data, pb.data)
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(path2, loaded, epoch=7)
    assert path.read_bytes() == path2.read_bytes()


def test_failed_checkpoint_write_keeps_the_earlier_file(tmp_path):
    model = tiny_model()
    opt = AdamW(model.parameters(), lr=0.01)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, epoch=1, optimizer=opt)
    earlier = path.read_bytes()

    class DiskFull(OSError):
        pass

    first = opt.moment_blobs()[0]

    def moments_then_fail():
        yield first  # some moment bytes reach the file first
        raise DiskFull("no space left on device")

    opt.moment_blobs = moments_then_fail
    with pytest.raises(DiskFull):
        save_checkpoint(path, model, epoch=2, optimizer=opt)
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_truncated_checkpoint_is_format_error(tmp_path):
    model = tiny_model()
    opt = AdamW(model.parameters(), lr=0.01)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, model, epoch=1, optimizer=opt)
    raw = path.read_bytes()
    hlen = struct.unpack("<I", raw[8:12])[0]
    params_end = 12 + hlen + sum(p.size * 4 for _, p in model.parameters())
    cuts = (
        10,  # fixed header
        40,  # JSON header
        12 + hlen - 1,  # last header byte
        12 + hlen + 5,  # first parameter
        params_end - 1,  # last parameter byte
        params_end + 4,  # step count
        params_end + 8 + 6,  # first optimizer moment
        len(raw) - 1,  # last moment byte
    )
    assert 40 < 12 + hlen and params_end + 14 < len(raw)
    for n in cuts:
        cut = tmp_path / f"cut{n}.ckpt"
        cut.write_bytes(raw[:n])
        with pytest.raises(FormatError):
            load_checkpoint(cut)


def test_header_not_describing_a_model_is_format_error(tmp_path, bad_header_copies):
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(), epoch=1)
    for defect, bad in bad_header_copies(path).items():
        with pytest.raises(FormatError, match="header does not describe a model"):
            load_checkpoint(bad)


def test_cnn_preset_builds_and_runs():
    model = build_model("cnn-small", (2, 8, 8), 5, LIF, SUR, 0)
    out = unroll(model, np.random.default_rng(0).uniform(0, 1, size=(2, 3, 2, 8, 8)).astype(np.float32))
    assert out.q.shape == (2, 3, 5)


@pytest.mark.parametrize("v_rest", [0.0, -0.2])
@pytest.mark.parametrize("detach", [False, True])
def test_cnn_unroll_untaped_equals_taped(v_rest, detach):
    cfg = LifConfig(v_rest=v_rest, detach_reset=detach)
    model = build_model("cnn-small", (2, 8, 8), 4, cfg, SUR, 1)
    x = np.random.default_rng(2).poisson(0.6, size=(5, 3, 2, 8, 8)).astype(np.float32)
    untaped = unroll(model, x)
    with ad.GradTape() as tape:
        taped = unroll(model, x)
    assert len(tape) > 0
    assert np.array_equal(untaped.q.data, taped.q.data)
    assert np.array_equal(untaped.o.data, taped.o.data)


def test_unknown_preset_rejected():
    with pytest.raises(ParameterError):
        build_model("resnet-19", (8,), 3, LIF, SUR, 0)
