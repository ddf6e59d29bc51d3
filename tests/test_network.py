import json
import os
import struct
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tksnn.autodiff as ad
from tksnn.autodiff import SurrogateSpec
from tksnn.data import prepare_sequence
from tksnn.errors import DimensionError, FormatError, ParameterError, TksnnError
from tksnn.lif import LifConfig
from tksnn.network import (
    Flatten,
    Lif,
    Linear,
    Model,
    build_model,
    load_checkpoint,
    parameter_shapes,
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


def rewrite_header(path, edit) -> None:
    """Apply edit(header) to the JSON header of the checkpoint at path, in place."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])


def load_peak(path, match) -> int:
    """The tracemalloc peak of a load_checkpoint(path) that raises FormatError matching `match`."""
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=match):
            load_checkpoint(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_short_file_is_refused_before_the_model_its_header_names_is_built(tmp_path):
    # the header's 100 000-class readout would take about 150 MB to build: 51 MB
    # of float32 weights, drawn in float64; the file holds a 3-class one
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(), epoch=1)

    def edit(header):
        header["class_count"] = 100_000
        header["layer_shapes"].update({"readout.w": [128, 100_000], "readout.b": [100_000]})

    rewrite_header(path, edit)
    assert load_peak(path, "truncated") < 16 * 2**20


@pytest.mark.parametrize("key, value", [("class_count", 100_000), ("input_shape", [100_000])])
def test_a_header_whose_sizes_disagree_with_its_shapes_is_refused_before_the_build(
        tmp_path, key, value):
    # only the header's class count or input shape is edited; its layer shapes
    # and blobs still describe the 3-class, 8-input model, so the file is long
    # enough, and building what the edit names would take about 150 MB
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, tiny_model(), epoch=1)
    rewrite_header(path, lambda header: header.update({key: value}))
    assert load_peak(path, "shape mismatch") < 16 * 2**20


@pytest.mark.parametrize("preset, input_shape", [("mlp-small", (8,)), ("mlp-small", (2, 3, 4)),
                                                 ("cnn-small", (2, 32, 32)),
                                                 ("cnn-small", (1, 8, 12))])
def test_parameter_shapes_are_those_of_the_built_model(preset, input_shape):
    model = build_model(preset, input_shape, 5, LIF, SUR, 0)
    assert parameter_shapes(preset, input_shape, 5) == {n: p.shape for n, p in model.parameters()}
    assert list(parameter_shapes(preset, input_shape, 5)) == [n for n, _ in model.parameters()]


def checkpoint_bytes() -> bytes:
    """A small mlp checkpoint with optimizer moments, as save_checkpoint writes it."""
    model = tiny_model()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        save_checkpoint(path, model, epoch=1, optimizer=AdamW(model.parameters(), lr=0.01))
        with open(path, "rb") as f:
            return f.read()


CHECKPOINT = checkpoint_bytes()
# byte edits, most of them in the fixed and JSON headers (about the first 400 bytes);
# at most three, so a header's sizes grow at most a thousandfold
ckpt_edit = st.tuples(st.sampled_from(["insert", "replace", "delete", "truncate"]),
                      st.integers(0, 400) | st.integers(0, len(CHECKPOINT)),
                      st.binary(min_size=1, max_size=1))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(edits=st.lists(ckpt_edit, max_size=3), tail=st.binary(max_size=8))
def test_load_checkpoint_fuzz_lets_only_library_errors_escape(edits, tail):
    data = bytearray(CHECKPOINT)
    for op, i, byte in edits:
        if op == "insert":
            data[i:i] = byte
        elif op == "truncate":
            del data[i:]
        elif i < len(data):
            data[i : i + 1] = byte if op == "replace" else b""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.ckpt")
        with open(path, "wb") as f:
            f.write(bytes(data) + tail)
        try:
            load_checkpoint(path)
        except TksnnError:
            assert edits, "trailing bytes alone must still load"


def test_cnn_preset_builds_and_runs():
    model = build_model("cnn-small", (2, 8, 8), 5, LIF, SUR, 0)
    out = unroll(model, np.random.default_rng(0).uniform(0, 1, size=(2, 3, 2, 8, 8)).astype(np.float32))
    assert out.q.shape == (2, 3, 5)


@pytest.mark.parametrize("cfg", [LIF, LifConfig(tau_m=4.0), LifConfig(v_th=0.3),
                                 LifConfig(tau_m=1.5, v_th=1.0)],
                         ids=["default", "slow-leak", "low-threshold", "fast-leak-high-threshold"])
def test_cnn_unroll_untaped_equals_taped(cfg):
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


# ---------------------------------------------------------------------------
# the untaped unroll in groups of whole samples, one per worker


def poisson_frames(seed, t_len, batch, shape=(2, 32, 32)):
    """[T,B,2,32,32] sparse event counts, as `data.bin_events` makes them."""
    return np.random.default_rng(seed).poisson(0.15, size=(t_len, batch) + shape).astype(np.float32)


def event_model():
    return build_model("cnn-small", (2, 32, 32), 4, LIF, SUR, 0)


def one_worker(monkeypatch, fn, *args):
    """fn(*args) with every split run inline, then the caller's worker count back."""
    count = ad._WORKERS
    monkeypatch.setattr(ad, "_WORKERS", 1)
    try:
        return fn(*args)
    finally:
        monkeypatch.setattr(ad, "_WORKERS", count)


def assert_same_bits(a, b):
    for name in ("q", "v", "o"):
        assert getattr(a, name).data.tobytes() == getattr(b, name).data.tobytes(), name


def test_the_work_gate_keeps_small_unrolls_whole(monkeypatch):
    # measured on two vCPUs: an 8-sample cnn-small unroll ran slower split at
    # T=1 and faster from T=2 on; mlp-small ran slower split at evaluate's
    # 256-sample chunks at every T measured, 10 to 40
    monkeypatch.setattr(ad, "_WORKERS", 2)
    cnn, mlp = event_model(), build_model("mlp-small", (40,), 4, LIF, SUR, 0)
    assert [len(ad._sample_runs(8, t * cnn.step_work)) - 1 for t in range(1, 11)] == [1] + [2] * 9
    assert mlp.step_work == 0
    assert all(len(ad._sample_runs(256, t * mlp.step_work)) == 2 for t in (1, 10, 40, 1000))


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
@pytest.mark.parametrize("t_len", [1, 2, 4, 10])
@pytest.mark.parametrize("batch", [1, 2, 3, 5, 8])
def test_split_cnn_unroll_equals_one_worker_bit_for_bit(workers, t_len, batch, monkeypatch):
    model = event_model()
    x = poisson_frames(t_len * 10 + batch, t_len, batch)
    split = unroll(model, x)
    assert len(ad._sample_runs(batch, t_len * model.step_work)) - 1 == min(workers, batch)
    assert_same_bits(split, one_worker(monkeypatch, unroll, model, x))
    with ad.GradTape():  # the public per-layer ops, the training path
        assert_same_bits(split, unroll(model, x))


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_split_mlp_unroll_at_an_evaluate_chunk_equals_one_worker_bit_for_bit(workers,
                                                                            monkeypatch):
    model = build_model("mlp-small", (40,), 4, LIF, SUR, 0)
    model.step_work = 1  # mlp-small's is 0, which never splits
    x = np.random.default_rng(7).uniform(size=(10, 256, 40)).astype(np.float32)
    split = unroll(model, x)
    assert len(ad._sample_runs(256, 10 * model.step_work)) - 1 == workers
    assert_same_bits(split, one_worker(monkeypatch, unroll, model, x))
    with ad.GradTape():
        assert_same_bits(split, unroll(model, x))


def reports_json(sweep):
    import json

    return json.dumps({t: r.to_dict() for t, r in sweep.items()}, sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_split_sweeps_give_one_workers_reports_bit_for_bit(workers, monkeypatch):
    from tksnn.data import Dataset, build_dataset
    from tksnn.evaluation import timestep_sweep
    from tksnn.trainer import DataConfig

    rng = np.random.default_rng(3)
    frames = rng.poisson(0.15, size=(13, 10, 2, 32, 32)).astype(np.float32)
    events = Dataset(frames, rng.integers(0, 4, size=13), 4, temporal=True)
    synth = build_dataset(DataConfig(n_per_class=70, t_native=10, classes=4, seed=1), "test")
    mlp = build_model("mlp-small", synth.sample_shape, 4, LIF, SUR, 0)
    mlp.step_work = 1  # mlp-small's is 0, which never splits
    for model, data in ((event_model(), events), (mlp, synth)):
        split = timestep_sweep(model, data, (1, 2, 4, 10))
        whole = one_worker(monkeypatch, timestep_sweep, model, data, (1, 2, 4, 10))
        assert reports_json(split) == reports_json(whole)


def public_functions():
    """(namespace, name, function) of every public function of autodiff, lif
    and network, in every tksnn module that holds it."""
    import inspect
    import sys

    import tksnn

    modules = [m for name, m in sys.modules.items()
               if (name == "tksnn" or name.startswith("tksnn.")) and m is not None]
    out = []
    for owner in (tksnn.autodiff, tksnn.lif, tksnn.network):
        for name, fn in vars(owner).items():
            if inspect.isfunction(fn) and fn.__module__ == owner.__name__ and name[0] != "_":
                out += [(m, name, fn) for m in modules if getattr(m, name, None) is fn]
    return out


@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_a_split_untaped_unroll_calls_public_functions_on_the_calling_thread_only(
        workers, monkeypatch):
    import threading

    import tksnn.network as network

    threads = {"public": set(), "groups": set()}

    def on_thread(key, fn):
        def inner(*args, **kwargs):
            threads[key].add(threading.get_ident())
            return fn(*args, **kwargs)
        return inner

    wrapped = public_functions()
    assert {name for _, name, _ in wrapped} >= {"conv2d", "avgpool2d", "matmul", "reshape",
                                                "lif_sequence", "unroll", "softmax_temperature"}
    for namespace, name, fn in wrapped:
        monkeypatch.setattr(namespace, name, on_thread("public", fn))
    # the groups' stack, to see that they ran off the calling thread too
    monkeypatch.setattr(network, "_infer_stack", on_thread("groups", network._infer_stack))
    from tksnn import unroll as public_unroll

    public_unroll(event_model(), poisson_frames(0, 4, 5))
    caller = threading.get_ident()
    assert threads["public"] == {caller}
    assert caller in threads["groups"] and len(threads["groups"]) > 1


@pytest.mark.parametrize("workers", [4], indirect=True)
def test_split_unrolls_under_frequent_thread_switches_keep_every_group_s_rows(workers,
                                                                             monkeypatch):
    # more groups than CPUs and a thread switch every microsecond: a group
    # row lost, or a kernel split inside a group that waited on the pool,
    # would show as other bits or as a thread still running at the timeout
    import sys
    import threading

    model = event_model()
    inputs = [poisson_frames(seed, 3, 7) for seed in range(12)]
    expected = [one_worker(monkeypatch, unroll, model, x) for x in inputs]
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=lambda: got.extend(unroll(model, x) for x in inputs))
        thread.start()
        thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert len(got) == len(inputs)
    for split, whole in zip(got, expected):
        assert_same_bits(split, whole)
