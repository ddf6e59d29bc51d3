import json
import math

import numpy as np
import pytest

from tksnn.autodiff import SurrogateSpec, Tensor
import tksnn.trainer as trainer_mod
from tksnn.data import build_dataset
from tksnn.errors import ConfigError, ContractError, DataError, FormatError, TrainingAbort
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
    # one mlp-small TKS step at B=32, T=10: each layer is a few tape nodes over
    # all T steps; per-timestep recording would take about 110
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
    assert nodes[0] <= 25


def test_empty_training_set_is_data_error(tmp_path):
    empty = DataConfig(n_per_class=0, t_native=4, classes=3)
    for epochs in (2, 0):
        with pytest.raises(DataError):
            fit(tiny_cfg(tmp_path, data=empty, epochs=epochs))
    assert not (tmp_path / "run").exists()  # no checkpoint, no metrics file


# ---------------------------------------------------------------------------
# gradient clipping


def grads(*values):
    params = [make_param(np.zeros(len(v))) for v in values]
    for p, v in zip(params, values):
        p.grad = np.asarray(v, dtype=np.float32)
    return params


def global_norm(params):
    return math.sqrt(sum(float((p.grad.astype(np.float64) ** 2).sum()) for p in params))


def test_clip_above_max_norm_rescales_to_max_norm_keeping_direction():
    params = grads([3.0, -4.0], [12.0])  # global norm 13
    before = [p.grad.copy() for p in params]
    trainer_mod._clip_grads(params, 1.3)
    assert global_norm(params) == pytest.approx(1.3, rel=1e-6)
    for p, g in zip(params, before):
        assert np.allclose(p.grad, g / 10.0, rtol=1e-6, atol=0)


def test_clip_at_or_below_max_norm_leaves_grads_bit_unchanged():
    for max_norm in (13.0, 20.0):
        params = grads([3.0, -4.0], [12.0])
        before = [p.grad.copy() for p in params]
        trainer_mod._clip_grads(params, max_norm)
        for p, g in zip(params, before):
            assert np.array_equal(p.grad, g)


def test_small_grad_clip_changes_the_trained_checkpoint(tmp_path):
    fit(tiny_cfg(tmp_path, out_dir=str(tmp_path / "free")))
    fit(tiny_cfg(tmp_path, out_dir=str(tmp_path / "clip"), optim=OptimConfig(grad_clip=0.05)))
    assert (tmp_path / "free" / "model.ckpt").read_bytes() != (
        tmp_path / "clip" / "model.ckpt"
    ).read_bytes()
