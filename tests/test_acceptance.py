"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The behavioral criteria train small real models on the synthetic order-encoded
task (4 classes, T=10, mlp-small) for 5 seeds in both plain-CE and temporal
self-distillation modes, then compare accuracy, selective risk, and
timestep-mismatch robustness between the two. Everything is deterministic, so
the numbers reproduce exactly across runs on one machine.
"""

import time

import numpy as np
import pytest

from tksnn.autodiff import SurrogateSpec
from tksnn.data import build_dataset, load_idx, save_idx, synth_temporal
from tksnn.evaluation import aurc, timestep_sweep
from tksnn.gradcheck import run_suite, spike_backward_check
from tksnn.network import load_checkpoint, save_checkpoint
from tksnn.tks import TeacherConfig, teacher_signal, tks_loss
from tksnn.trainer import DataConfig, RunConfig, fit
from tksnn.autodiff import Tensor

SEEDS = (0, 1, 2, 3, 4)
T_SWEEP = (1, 2, 4, 6, 8, 10)


def verdict(name: str, detail: str, ok: bool):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


def run_config(mode: str, seed: int, out_dir: str) -> RunConfig:
    return RunConfig(
        teacher=TeacherConfig(mode=mode, k=2, tau=3.0),
        alpha_start=0.0,
        alpha_end=0.7 if mode == "tks" else 0.0,
        data=DataConfig(n_per_class=150, t_native=10, classes=4, noise_sigma=0.3),
        t_train=10,
        epochs=30,
        batch_size=32,
        seed=seed,
        out_dir=out_dir,
    )


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """5 seeds x {none, tks}: reports plus a full timestep sweep per run."""
    root = tmp_path_factory.mktemp("acceptance")
    out = {}
    for mode in ("none", "tks"):
        per_seed = []
        for seed in SEEDS:
            cfg = run_config(mode, seed, str(root / f"{mode}-{seed}"))
            model, reports = fit(cfg)
            test = build_dataset(cfg.data, split="test")
            sweep = timestep_sweep(model, test, T_SWEEP)
            per_seed.append({"cfg": cfg, "reports": reports, "sweep": sweep})
        out[mode] = per_seed
    return out


def test_a0_gradient_soundness():
    start = time.perf_counter()
    worst = run_suite(range(10))
    elapsed = time.perf_counter() - start
    spike_names = [n for n in worst if n.startswith("spike_")]
    smooth_max = max(v for n, v in worst.items() if not n.startswith("spike_"))
    spike_max = max(worst[n] for n in spike_names)
    ok = smooth_max < 1e-3 and spike_max == 0.0 and elapsed < 60.0
    verdict(
        "A0 gradient soundness",
        f"finite-difference max rel err {smooth_max:.2e} < 1e-3 over 10 seeds, "
        f"spike backward exact (max abs dev {spike_max}), {elapsed:.1f}s",
        ok,
    )


def test_a1_learnability(trained):
    train_accs = [r["reports"][-1].train_acc for r in trained["none"]]
    test_accs = [r["sweep"][10].top1 for r in trained["none"]]
    ok = all(a >= 0.95 for a in train_accs) and all(a >= 0.90 for a in test_accs)
    verdict(
        "A1 learnability",
        f"plain-CE train acc min {min(train_accs):.3f} >= 0.95, "
        f"test acc min {min(test_accs):.3f} >= 0.90, 5/5 seeds, 30 epochs",
        ok,
    )


def test_a2_distillation_non_inferiority(trained):
    base_top1 = np.mean([r["sweep"][10].top1 for r in trained["none"]])
    tks_top1 = np.mean([r["sweep"][10].top1 for r in trained["tks"]])
    base_aurc = np.mean([r["sweep"][10].aurc for r in trained["none"]])
    tks_aurc = np.mean([r["sweep"][10].aurc for r in trained["tks"]])
    ok = tks_top1 >= base_top1 - 0.005 and tks_aurc <= base_aurc
    verdict(
        "A2 distillation non-inferiority",
        f"mean top1 {tks_top1:.4f} vs baseline {base_top1:.4f} (tolerance 0.005); "
        f"mean aurc_x1000 {tks_aurc:.3f} <= baseline {base_aurc:.3f}",
        ok,
    )


def test_a3_timestep_mismatch_robustness(trained):
    def mean_drop(mode):
        drops = [r["sweep"][10].top1 - r["sweep"][1].top1 for r in trained[mode]]
        return float(np.mean(drops))

    base_drop = mean_drop("none")
    tks_drop = mean_drop("tks")
    verdict(
        "A3 timestep-mismatch robustness",
        f"accuracy drop T=10 -> T=1: distilled {tks_drop:.4f} < baseline {base_drop:.4f}",
        tks_drop < base_drop,
    )


def test_a4_per_timestep_uplift(trained):
    base_t0 = np.mean([r["sweep"][10].per_timestep_acc[0] for r in trained["none"]])
    tks_t0 = np.mean([r["sweep"][10].per_timestep_acc[0] for r in trained["tks"]])
    verdict(
        "A4 per-timestep uplift",
        f"first-timestep sub-model acc: distilled {tks_t0:.4f} > baseline {base_t0:.4f}",
        tks_t0 > base_t0,
    )


def test_a5_loss_identities(trained, tmp_path):
    # (1) alpha pinned to zero: the distillation run's parameter trajectory is
    # bit-identical to the plain-CE run
    cfg_zero = run_config("tks", 0, str(tmp_path / "zero"))
    cfg_zero = RunConfig(**{**cfg_zero.__dict__, "alpha_end": 0.0, "epochs": 3})
    cfg_none = run_config("none", 0, str(tmp_path / "ref"))
    cfg_none = RunConfig(**{**cfg_none.__dict__, "epochs": 3})
    fit(cfg_zero)
    fit(cfg_none)
    bits_ok = (tmp_path / "zero" / "model.ckpt").read_bytes() == (
        tmp_path / "ref" / "model.ckpt"
    ).read_bytes()

    # (2) selecting every timestep makes the teacher the temperature softmax
    # of the plain mean over logits
    rng = np.random.default_rng(0)
    q = rng.normal(size=(6, 8, 4)).astype(np.float32)
    sel = np.tile(np.arange(6), (8, 1))
    z = teacher_signal(q, sel, 3.0)
    m = q.mean(axis=0) / 3.0
    e = np.exp(m - m.max(axis=1, keepdims=True))
    teacher_ok = np.allclose(z, e / e.sum(axis=1, keepdims=True), atol=1e-6)

    # (3) affine mixing identity on every logged step of the real runs
    worst_affine = 0.0
    for r in trained["tks"]:
        tau = r["cfg"].teacher.tau
        for rep in r["reports"]:
            recon = (1 - rep.alpha) * rep.l_ce + rep.alpha * tau * tau * rep.l_tks
            worst_affine = max(worst_affine, abs(rep.l_final - recon))
    affine_ok = worst_affine <= 1e-6

    # (4) distillation loss is bounded below by the teacher entropy
    bound_ok = True
    for trial in range(1000):
        trng = np.random.default_rng(trial)
        t_len, b, c = (int(trng.integers(1, 6)) for _ in range(3))
        t_len, b, c = max(t_len, 1), b + 1, c + 2
        zr = trng.normal(size=(b, c))
        zr = np.exp(zr) / np.exp(zr).sum(axis=1, keepdims=True)
        zr = zr.astype(np.float32)
        vr = trng.normal(size=(t_len, b, c))
        vr = (np.exp(vr) / np.exp(vr).sum(axis=2, keepdims=True)).astype(np.float32)
        loss = tks_loss(Tensor(vr), zr).item()
        entropy = float(-(zr * np.log(np.maximum(zr, 1e-12))).sum(axis=1).mean())
        if loss < entropy - 1e-6:
            bound_ok = False
            break

    ok = bits_ok and teacher_ok and affine_ok and bound_ok
    verdict(
        "A5 loss identities",
        f"alpha=0 bit-identical={bits_ok}, exhaustive teacher=softmax(mean logits)="
        f"{teacher_ok}, affine identity worst dev {worst_affine:.2e} <= 1e-6, "
        f"entropy lower bound on 1000 instances={bound_ok}",
        ok,
    )


def test_a6_selective_risk_oracle():
    def brute(conf, correct):
        order = sorted(range(len(conf)), key=lambda i: (-conf[i], i))
        risks, wrong = [], 0.0
        for n, i in enumerate(order, start=1):
            wrong += 1.0 - correct[i]
            risks.append(wrong / n)
        return sum(risks) / len(risks)

    rng = np.random.default_rng(0xA6)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 1001))
        conf = rng.random(n)
        if trial % 4 == 0:
            conf = np.round(conf, 2)  # many ties
        correct = (rng.random(n) < 0.8).astype(np.float64)
        dev = abs(aurc(conf, correct) - brute(conf.tolist(), correct.tolist()))
        worst = max(worst, dev)
    edges_ok = (
        aurc(np.arange(5, 0, -1), np.ones(5)) == 0.0
        and aurc(np.arange(5, 0, -1), np.zeros(5)) == 1.0
    )
    ok = worst <= 1e-12 and edges_ok
    verdict(
        "A6 selective risk oracle",
        f"fast vs brute-force prefix sums on 100 instances up to B=1000, "
        f"worst dev {worst:.1e}; all-correct=0 and all-wrong=1: {edges_ok}",
        ok,
    )


def test_a7_determinism_and_round_trips(tmp_path):
    cfg_a = run_config("tks", 3, str(tmp_path / "a"))
    cfg_a = RunConfig(**{**cfg_a.__dict__, "epochs": 3})
    cfg_b = RunConfig(**{**cfg_a.__dict__, "out_dir": str(tmp_path / "b")})
    fit(cfg_a)
    fit(cfg_b)
    same_run = (tmp_path / "a" / "model.ckpt").read_bytes() == (
        tmp_path / "b" / "model.ckpt"
    ).read_bytes()

    # checkpoint round trip: load then save again, byte for byte
    model, _, _ = load_checkpoint(tmp_path / "a" / "model.ckpt")
    save_checkpoint(tmp_path / "resaved.ckpt", model, epoch=3)
    save_checkpoint(tmp_path / "resaved2.ckpt", model, epoch=3)
    ckpt_ok = (tmp_path / "resaved.ckpt").read_bytes() == (
        tmp_path / "resaved2.ckpt"
    ).read_bytes()

    rng = np.random.default_rng(7)
    images = rng.integers(0, 256, size=(10, 6, 6), dtype=np.uint8)
    labels = rng.integers(0, 4, size=10).astype(np.uint8)
    save_idx(str(tmp_path / "x.im"), str(tmp_path / "x.lb"), images, labels)
    ds = load_idx(str(tmp_path / "x.im"), str(tmp_path / "x.lb"), 4)
    save_idx(str(tmp_path / "y.im"), str(tmp_path / "y.lb"),
             (ds.inputs * 255.0).round().astype(np.uint8), ds.labels)
    idx_ok = (tmp_path / "x.im").read_bytes() == (tmp_path / "y.im").read_bytes() and (
        tmp_path / "x.lb"
    ).read_bytes() == (tmp_path / "y.lb").read_bytes()

    ok = same_run and ckpt_ok and idx_ok
    verdict(
        "A7 determinism and round trips",
        f"same config+seed bit-identical={same_run}, checkpoint byte round trip="
        f"{ckpt_ok}, image-file byte round trip={idx_ok}",
        ok,
    )


def test_a8_ablation_mode_degeneracies(tmp_path):
    def short(mode, out, **over):
        cfg = run_config(mode, 1, str(tmp_path / out))
        fields = {**cfg.__dict__, "epochs": 3,
                  "data": DataConfig(n_per_class=40, t_native=10, classes=4,
                                     noise_sigma=0.3)}
        fields.update(over)
        fit(RunConfig(**fields))
        return (tmp_path / out / "model.ckpt").read_bytes()

    # label smoothing with zero smoothing mass is plain CE
    smooth_zero = TeacherConfig(mode="label_smoothing", epsilon=0.0)
    ls_ok = short("none", "ce_ref") == short("none", "ls", teacher=smooth_zero)

    # per-timestep supervision collapses to plain CE when there is one timestep
    ptl = TeacherConfig(mode="per_timestep_labels")
    ptl_ok = short("none", "ce_t1", t_train=1) == short("none", "ptl_t1",
                                                        teacher=ptl, t_train=1)
    ok = ls_ok and ptl_ok
    verdict(
        "A8 ablation degeneracies",
        f"label_smoothing(eps=0) trajectory bit-exact vs CE={ls_ok}, "
        f"per-timestep labels at T=1 bit-exact vs CE={ptl_ok}",
        ok,
    )
