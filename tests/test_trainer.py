import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from tksnn.autodiff import SurrogateSpec, Tensor
import tksnn.trainer as trainer_mod
from tksnn.data import build_dataset, save_idx
from tksnn.evaluation import evaluate
from tksnn.errors import (
    ConfigError, ContractError, DataError, FormatError, ParameterError, TrainingAbort, check_float,
)
from tksnn.network import build_model, load_checkpoint
from tksnn.trainer import (
    AdamW,
    DataConfig,
    OptimConfig,
    RunConfig,
    config_from_dict,
    config_to_dict,
    cosine_lr,
    fit,
    train_epoch,
)
from tksnn.lif import LifConfig
from tksnn.tks import TeacherConfig


def make_param(values):
    p = Tensor(np.asarray(values, dtype=np.float32), requires_grad=True)
    return p


def tiny_cfg(tmp_path, **over):
    base = dict(
        preset="mlp-small",
        teacher=TeacherConfig(mode="tks", k=2, tau=3.0),
        data=DataConfig(n_per_class=8, t_native=4, classes=3, noise_sigma=0.2),
        t_train=4,
        epochs=2,
        batch_size=8,
        seed=0,
        out_dir=str(tmp_path / "run"),
    )
    base.update(over)
    return RunConfig(**base)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_zero_grad_zero_decay_is_fixed_point():
    p = make_param([1.0, -2.0, 3.0])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    before = p.data.copy()
    for _ in range(5):
        p.grad = np.zeros(3, dtype=np.float32)
        opt.step()
    assert np.array_equal(p.data, before)


def test_adamw_first_step_is_nearly_lr_sized():
    # bias correction makes m_hat = g, v_hat = g*g, so step ~ lr * sign(g)
    p = make_param([1.0])
    opt = AdamW([("p", p)], lr=0.1, weight_decay=0.0)
    p.grad = np.array([4.0], dtype=np.float32)
    opt.step()
    assert p.data[0] == pytest.approx(0.9, abs=1e-6)


def test_adamw_decay_is_decoupled_from_gradient():
    # zero gradient still shrinks the parameter by exactly (1 - lr*wd)
    p = make_param([2.0])
    opt = AdamW([("p", p)], lr=0.5, weight_decay=0.01)
    p.grad = np.zeros(1, dtype=np.float32)
    opt.step()
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.5 * 0.01), rel=1e-6)


def test_adamw_matches_scalar_reference_update():
    # independent scalar reimplementation of the update rule, in float64
    lr, wd, b1, b2, eps = 0.01, 0.1, 0.9, 0.999, 1e-8
    p = make_param([0.7])
    opt = AdamW([("p", p)], lr=lr, weight_decay=wd, betas=(b1, b2), eps=eps)
    grads = [0.3, -1.2, 0.05]
    ref, m, v = 0.7, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        p.grad = np.array([g], dtype=np.float32)
        opt.step()
        ref *= 1 - lr * wd
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
    assert p.data[0] == pytest.approx(ref, rel=1e-5)


def test_adamw_clears_grads_and_requires_them():
    p = make_param([1.0])
    opt = AdamW([("p", p)], lr=0.1)
    p.grad = np.ones(1, dtype=np.float32)
    opt.step()
    assert p.grad is None
    with pytest.raises(ContractError):
        opt.step()


def test_adamw_step_direction_opposes_gradient():
    rng = np.random.default_rng(0)
    p = make_param(rng.normal(size=8))
    before = p.data.copy()
    opt = AdamW([("p", p)], lr=0.01, weight_decay=0.0)
    g = rng.normal(size=8).astype(np.float32)
    p.grad = g.copy()
    opt.step()
    assert np.all(np.sign(before - p.data) == np.sign(g))


MLP_SMALL_SHAPES = [(40, 128), (128,), (128, 4), (4,)]


class LoopAdamW:
    """AdamW as a loop over the parameters, one set of numpy ops for each: the
    bit-exact oracle for the one pass over all of them."""

    def __init__(self, arrays, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = [a.copy() for a in arrays]
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.step_count = 0

    def step(self, grads):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        f32 = np.float32
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            if self.weight_decay:
                p *= f32(1.0 - self.lr * self.weight_decay)
            m *= f32(self.beta1)
            m += f32(1.0 - self.beta1) * g
            v *= f32(self.beta2)
            v += f32(1.0 - self.beta2) * (g * g)
            m_hat = m / f32(bc1)
            v_hat = v / f32(bc2)
            p -= f32(self.lr) * m_hat / (np.sqrt(v_hat) + f32(self.eps))


def mlp_small_run(steps, seed=0):
    """(initial parameter arrays, per-step grads) in mlp-small's shapes; the
    grads' scales vary by parameter and step, so every moment moves."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape).astype(np.float32) for shape in MLP_SMALL_SHAPES]
    grads = [[(rng.normal(size=shape) * rng.uniform(1e-3, 3.0)).astype(np.float32)
              for shape in MLP_SMALL_SHAPES] for _ in range(steps)]
    return arrays, grads


def pooled_adamw(arrays, **kw):
    params = [(f"p{i}", make_param(a)) for i, a in enumerate(arrays)]
    return params, AdamW(params, **kw)


def take_steps(params, opt, grads):
    for step in grads:
        for (_, p), g in zip(params, step):
            p.grad = g.copy()
        opt.step()


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(np.asarray(a).view(np.uint32),
                                                 np.asarray(b).view(np.uint32))


def test_adamw_one_pass_matches_the_per_parameter_loop_bit_for_bit():
    arrays, grads = mlp_small_run(50)
    kw = dict(lr=5e-3, weight_decay=0.01)
    params, opt = pooled_adamw(arrays, **kw)
    reference = LoopAdamW(arrays, **kw)
    take_steps(params, opt, grads)
    for step in grads:
        reference.step(step)
    for (_, p), ref in zip(params, reference.params):
        assert same_bits(p.data, ref)
    blobs = [a for pair in zip(reference.m, reference.v) for a in pair]
    assert all(same_bits(a, b) for a, b in zip(opt.moment_blobs(), blobs))
    assert all(p.grad is None for _, p in params)


def test_adamw_resumed_from_its_moments_matches_an_uninterrupted_run():
    arrays, grads = mlp_small_run(50, seed=1)
    kw = dict(lr=5e-3, weight_decay=0.01)
    params, opt = pooled_adamw(arrays, **kw)
    take_steps(params, opt, grads)
    resumed, first = pooled_adamw(arrays, **kw)
    take_steps(resumed, first, grads[:20])
    # a fresh optimizer over the same parameters, as a checkpoint resume builds
    second = AdamW(resumed, **kw)
    second.load_state(first.step_count, [b.copy() for b in first.moment_blobs()])
    take_steps(resumed, second, grads[20:])
    for (_, p), (_, q) in zip(params, resumed):
        assert same_bits(p.data, q.data)
    assert all(same_bits(a, b) for a, b in zip(opt.moment_blobs(), second.moment_blobs()))


@pytest.mark.parametrize("case", ["too few", "too many", "flat for a matrix", "wrong length"])
def test_adamw_load_state_rejects_wrong_moments_before_taking_any(case):
    m0, v0 = np.full((3, 2), 0.5, np.float32), np.full((3, 2), 0.25, np.float32)
    m1, v1 = np.full(4, 0.5, np.float32), np.full(4, 0.25, np.float32)
    moments = {"too few": [m0, v0, m1],
               "too many": [m0, v0, m1, v1, v1],
               "flat for a matrix": [m0, v0.reshape(6), m1, v1],
               "wrong length": [m0, v0, m1, v1[:3]]}[case]
    params = [("w", make_param(np.ones((3, 2)))), ("b", make_param(np.ones(4)))]
    opt = AdamW(params, lr=0.1)
    with pytest.raises(ContractError, match="load_state"):
        opt.load_state(7, moments)
    assert opt.step_count == 0
    assert not any(blob.any() for blob in opt.moment_blobs())


def test_adamw_load_state_casts_the_moments_into_its_own_buffers():
    params = [("w", make_param(np.ones((3, 2)))), ("b", make_param(np.ones(4)))]
    opt = AdamW(params, lr=0.1)
    moments = [np.full((3, 2), 0.1), np.full((3, 2), 0.2), np.full(4, 0.3), np.full(4, 0.4)]
    opt.load_state(5, moments)
    assert opt.step_count == 5
    for blob, want in zip(opt.moment_blobs(), moments):
        assert blob.dtype == np.float32 and np.array_equal(blob, want.astype(np.float32))
    moments[0][...] = 9.0  # the optimizer holds copies, not the caller's arrays
    assert opt.m[0][0, 0] == np.float32(0.1)


# ---------------------------------------------------------------------------
# schedules


def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 11, 1.0, 0.0) == pytest.approx(1.0)
    assert cosine_lr(10, 11, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert cosine_lr(5, 11, 1.0, 0.0) == pytest.approx(0.5)
    assert cosine_lr(5, 11, 0.8, 0.2) == pytest.approx(0.5)


def test_cosine_lr_single_epoch():
    assert cosine_lr(0, 1, 0.003, 0.0) == 0.003


def test_cosine_lr_monotone_decreasing():
    vals = [cosine_lr(e, 20, 1e-3, 1e-5) for e in range(20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# config round trip


def test_config_round_trip():
    cfg = RunConfig(epochs=3, seed=7, out_dir="x")
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_readme_config_block_is_every_default():
    # the README says each field of its config block "defaults to the values
    # shown": the block must name every field, at its default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b for b in re.findall(r"```json\n(.*?)```", readme, re.S) if '"model"' in b]
    assert len(blocks) == 1
    raw = json.loads(blocks[0])
    assert raw == config_to_dict(RunConfig())
    assert config_from_dict(raw) == RunConfig()


def test_config_rejects_unknown_section_and_key():
    with pytest.raises(ConfigError):
        config_from_dict({"optimiser": {}})
    with pytest.raises(ConfigError):
        config_from_dict({"optimizer": {"lr": 0.1}})


def test_config_partial_sections_use_defaults():
    cfg = config_from_dict({"run": {"epochs": 5}})
    assert cfg.epochs == 5
    assert cfg.optim == OptimConfig()


def test_config_validation_k_exceeds_t_train():
    with pytest.raises(ConfigError):
        config_from_dict({"teacher": {"k": 9}, "run": {"t_train": 4}})
    # checked when the config is built, not only when it is parsed
    with pytest.raises(ConfigError):
        RunConfig(teacher=TeacherConfig(k=9), t_train=4)
    with pytest.raises(ConfigError):
        RunConfig(t_train=0)


@pytest.mark.parametrize("field,value", [
    ("t_train", 2.5), ("epochs", 1.0), ("batch_size", True), ("seed", 1.5), ("seed", -1),
])
def test_config_run_integers_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=field):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("n_per_class", 2.5), ("t_native", 4.5), ("classes", True), ("seed", "0"), ("seed", -1),
])
def test_config_data_integers_must_be_integers(field, value):
    with pytest.raises(ConfigError, match=field):
        DataConfig(**{field: value})


@pytest.mark.parametrize("field,value", [("images", 1), ("labels", 0), ("labels", None)])
def test_config_idx_paths_must_be_strings(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be a path string"):
        DataConfig(kind="idx", **{field: value})


def test_config_accepts_numpy_integers():
    cfg = RunConfig(t_train=np.int64(4), epochs=np.int32(2), batch_size=np.int64(8),
                    seed=np.uint8(3), teacher=TeacherConfig(k=np.int16(2)),
                    data=DataConfig(n_per_class=np.int64(6), t_native=np.int64(4),
                                    classes=np.int64(3), seed=np.int64(1)))
    assert cfg.batch_size == 8 and cfg.data.classes == 3


@pytest.mark.parametrize("field,value", [
    ("lr_max", "abc"), ("lr_max", 0.0), ("lr_max", -1.0), ("lr_max", math.inf), ("lr_max", True),
    ("lr_min", -1e-4), ("lr_min", 1.0), ("lr_min", math.nan), ("weight_decay", -0.01),
    ("beta1", None), ("beta1", 1.0), ("beta2", -0.1), ("eps", 0.0), ("eps", "1e-8"),
])
def test_optim_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError, match=field):
        OptimConfig(**{field: value})


def test_optim_config_accepts_the_edges_of_each_range():
    OptimConfig(lr_max=1, lr_min=1, weight_decay=0, beta1=0, beta2=np.float32(0.5))


@pytest.mark.parametrize("out_dir", [5, "", None, b"runs"])
def test_config_out_dir_must_be_a_non_empty_string(out_dir):
    with pytest.raises(ConfigError, match="out_dir"):
        RunConfig(out_dir=out_dir)


@pytest.mark.parametrize("value", ["abc", None, True, math.nan, -math.inf, 10**400, [1.0]])
def test_check_float_rejects_what_is_not_a_finite_number(value):
    with pytest.raises(ParameterError, match="x must be a finite number"):
        check_float("x", value, ParameterError)


@pytest.mark.parametrize("value", [0, -3, 1.5, np.float32(2.0), np.int64(7)])
def test_check_float_accepts_finite_numbers(value):
    check_float("x", value)


def test_config_validation_bad_data_kind():
    with pytest.raises(ConfigError):
        config_from_dict({"data": {"kind": "parquet"}})
    with pytest.raises(ConfigError):
        DataConfig(kind="parquet")


@pytest.mark.parametrize("change", [
    {"alpha_start": 2.0}, {"alpha_start": -0.1}, {"alpha_end": 1.5}, {"alpha_end": math.nan},
    {"preset": "resnet"},
])
def test_config_validation_alpha_bounds_and_preset(change):
    with pytest.raises(ConfigError, match=next(iter(change))):
        RunConfig(**change)
    section = "model" if "preset" in change else "schedule"
    with pytest.raises(ConfigError):
        config_from_dict({section: change})


def test_config_validation_alpha_bounds_are_inclusive():
    RunConfig(alpha_start=0.0, alpha_end=1.0)


@pytest.mark.parametrize("raw", [[], 3, "run", None])
def test_config_top_level_must_be_an_object(raw):
    with pytest.raises(ConfigError, match="JSON object"):
        config_from_dict(raw)


# ---------------------------------------------------------------------------
# training runs (small but real)


def test_fit_writes_metrics_and_checkpoint(tmp_path):
    cfg = tiny_cfg(tmp_path)
    model, reports = fit(cfg)
    assert len(reports) == 2
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2
    rec = json.loads(lines[0])
    assert rec["epoch"] == 0
    assert rec["alpha"] == 0.0  # ramp starts at zero
    assert 0.0 <= rec["train_acc"] <= 1.0
    loaded, header, opt_state = load_checkpoint(tmp_path / "run" / "model.ckpt")
    assert header["epoch"] == 2
    assert opt_state is not None
    for (_, pa), (_, pb) in zip(model.parameters(), loaded.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_logged_final_loss_is_affine_in_components(tmp_path):
    cfg = tiny_cfg(tmp_path, epochs=3, alpha_start=0.2, alpha_end=0.8)
    _, reports = fit(cfg)
    for r in reports:
        expected = (1 - r.alpha) * r.l_ce + r.alpha * cfg.teacher.tau**2 * r.l_tks
        assert r.l_final == expected  # same float64 expression, bit-exact


def test_mode_none_logs_zero_tks_term(tmp_path):
    cfg = tiny_cfg(tmp_path, teacher=TeacherConfig(mode="none"))
    _, reports = fit(cfg)
    for r in reports:
        assert r.l_tks == 0.0
        assert r.alpha == 0.0
        assert r.l_final == r.l_ce


def test_identical_seeds_give_bit_identical_checkpoints(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a", out_dir=str(tmp_path / "a"))
    cfg_b = tiny_cfg(tmp_path / "b", out_dir=str(tmp_path / "b"))
    fit(cfg_a)
    fit(cfg_b)
    a = (tmp_path / "a" / "model.ckpt").read_bytes()
    b = (tmp_path / "b" / "model.ckpt").read_bytes()
    assert a == b
    def records(path):
        out = []
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wall_ms")  # only timing may differ between the runs
            out.append(rec)
        return out

    assert records(tmp_path / "a" / "metrics.jsonl") == records(tmp_path / "b" / "metrics.jsonl")


def test_different_seed_changes_trajectory(tmp_path):
    cfg_a = tiny_cfg(tmp_path / "a", out_dir=str(tmp_path / "a"))
    cfg_b = tiny_cfg(tmp_path / "b", out_dir=str(tmp_path / "b"), seed=1)
    fit(cfg_a)
    fit(cfg_b)
    assert (tmp_path / "a" / "model.ckpt").read_bytes() != (
        tmp_path / "b" / "model.ckpt"
    ).read_bytes()


def test_resume_continues_metrics_log(tmp_path):
    full = tiny_cfg(tmp_path / "full", out_dir=str(tmp_path / "full"), epochs=4)
    fit(full)

    half = tiny_cfg(tmp_path / "half", out_dir=str(tmp_path / "half"), epochs=2)
    fit(half)
    resumed = tiny_cfg(tmp_path / "half", out_dir=str(tmp_path / "half"), epochs=4)
    fit(resumed, resume=str(tmp_path / "half" / "model.ckpt"))

    lines = (tmp_path / "half" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(l)["epoch"] for l in lines] == [0, 1, 2, 3]


@pytest.mark.parametrize("field, change", [
    ("lif_cfg", {"lif": LifConfig(v_th=0.6)}),
    ("surrogate", {"surrogate": SurrogateSpec(kind="rectangular")}),
    ("preset", {"preset": "cnn-small"}),
    ("class_count", {"data": DataConfig(n_per_class=8, t_native=4, classes=4, noise_sigma=0.2)}),
])
def test_resume_rejects_a_checkpoint_the_config_does_not_describe(tmp_path, field, change):
    fit(tiny_cfg(tmp_path))
    ckpt = tmp_path / "run" / "model.ckpt"
    metrics = (tmp_path / "run" / "metrics.jsonl").read_bytes()
    with pytest.raises(ConfigError, match=field):
        fit(tiny_cfg(tmp_path, epochs=4, **change), resume=str(ckpt))
    assert (tmp_path / "run" / "metrics.jsonl").read_bytes() == metrics
    # the init seed is not part of the match
    fit(tiny_cfg(tmp_path, epochs=3, seed=5), resume=str(ckpt))


def test_resume_from_a_header_without_a_valid_epoch_is_format_error(tmp_path, bad_header_copies):
    fit(tiny_cfg(tmp_path))
    bad = bad_header_copies(tmp_path / "run" / "model.ckpt")
    for defect in ("no epoch", "fractional epoch"):
        with pytest.raises(FormatError, match="epoch"):
            fit(tiny_cfg(tmp_path, epochs=4), resume=str(bad[defect]))


def test_non_finite_loss_aborts(tmp_path):
    cfg = tiny_cfg(tmp_path)
    data_cfg = cfg.data
    model_break = tiny_cfg(tmp_path, epochs=1)
    # poison the run by injecting NaN through an absurd learning rate is flaky;
    # instead patch the model weights to NaN right after construction
    from tksnn import trainer as trainer_mod

    orig = trainer_mod.build_model

    def poisoned(*args, **kwargs):
        m = orig(*args, **kwargs)
        m.readout.w.data[...] = np.nan
        return m

    trainer_mod.build_model = poisoned
    try:
        with pytest.raises(TrainingAbort):
            fit(model_break)
    finally:
        trainer_mod.build_model = orig


def test_training_reduces_loss(tmp_path):
    cfg = tiny_cfg(tmp_path, epochs=8, data=DataConfig(n_per_class=30, t_native=4,
                                                       classes=3, noise_sigma=0.2))
    _, reports = fit(cfg)
    assert reports[-1].l_ce < reports[0].l_ce
    assert reports[-1].train_acc > 0.5


def test_tks_step_records_constant_tape_nodes(tmp_path, monkeypatch):
    # one mlp-small TKS step at B=32, T=10: each layer and each loss term is
    # one tape node over all T steps; per-timestep recording would take about 110
    cfg = tiny_cfg(tmp_path, t_train=10, batch_size=32,
                   data=DataConfig(n_per_class=8, t_native=10, classes=4))
    data = build_dataset(cfg.data, split="train")
    model = build_model("mlp-small", data.sample_shape, 4, cfg.lif, cfg.surrogate, 0)
    opt = AdamW(model.parameters(), lr=1e-3)
    nodes = []
    real_backward = trainer_mod.backward
    monkeypatch.setattr(trainer_mod, "backward",
                        lambda loss, tape: nodes.append(len(tape)) or real_backward(loss, tape))
    train_epoch(model, data, cfg, 0, opt, alpha=0.5)
    assert len(nodes) == 1
    assert nodes[0] == 9


def test_empty_training_set_is_data_error(tmp_path):
    empty = DataConfig(n_per_class=0, t_native=4, classes=3)
    for epochs in (2, 0):
        with pytest.raises(DataError):
            fit(tiny_cfg(tmp_path, data=empty, epochs=epochs))
    assert not (tmp_path / "run").exists()  # no checkpoint, no metrics file


def test_idx_train_and_test_files_with_different_label_sets_share_the_class_count(tmp_path):
    # the train files hold labels {0,1,2}, the test files {0,...,3}: both
    # are 4-class sets because data.classes says so, not their largest label
    rng = np.random.default_rng(0)
    paths = {}
    for split, labels in (("train", np.arange(12) % 3), ("test", np.arange(8) % 4)):
        paths[split] = (str(tmp_path / f"{split}.im"), str(tmp_path / f"{split}.lb"))
        save_idx(*paths[split], rng.integers(0, 256, size=(len(labels), 4, 4)), labels)
    data = DataConfig(kind="idx", images=paths["train"][0], labels=paths["train"][1], classes=4)
    model, _ = fit(tiny_cfg(tmp_path, data=data, t_train=3))
    test = build_dataset(DataConfig(kind="idx", images=paths["test"][0],
                                    labels=paths["test"][1], classes=4))
    assert evaluate(model, test, t_test=3).n_samples == 8
    assert model.class_count == test.class_count == 4
