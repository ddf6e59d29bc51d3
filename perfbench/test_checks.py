"""The benchmark's output checks count corrupted outputs as failures, and its
throughput estimate times each kind of unit by the fastest one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import tksnn  # noqa: E402
from checks import Checks, RoundFailed, sha256_file  # noqa: E402
from workloads import MlpSynthTrain  # noqa: E402


def _checkpoint(tmp_path):
    model = tksnn.network.build_model("mlp-small", (2, 4), 3, tksnn.LifConfig(),
                                      tksnn.SurrogateSpec(), seed=0)
    opt = tksnn.trainer.AdamW(model.parameters(), lr=0.01)
    path = str(tmp_path / "model.ckpt")
    tksnn.network.save_checkpoint(path, model, epoch=2, optimizer=opt)
    return path


def test_intact_checkpoint_passes(tmp_path):
    path = _checkpoint(tmp_path)
    checks = Checks()
    assert checks.checkpoint_round_trip(tksnn, path, path + ".copy")
    assert checks.same_digest("repeat", sha256_file(path), sha256_file(path))
    assert (checks.attempted, checks.failed) == (3, 0)


def test_corrupted_repeat_checkpoint_is_counted(tmp_path, monkeypatch):
    """Round 1 of mlp-synth-train repeats round 0's seed; a flipped payload bit
    in its checkpoint passes the round trip but fails the digest comparison."""
    checks = Checks()
    wl = MlpSynthTrain(tksnn, str(tmp_path), seed=5, seconds=0, checks=checks)
    wl.setup(0)
    fit = tksnn.trainer.fit

    def fit_then_corrupt(cfg):
        out = fit(cfg)
        if cfg.out_dir.endswith("fit1"):
            path = os.path.join(cfg.out_dir, "model.ckpt")
            raw = bytearray(open(path, "rb").read())
            raw[-4] ^= 0x01  # lowest mantissa bit of the last stored float
            open(path, "wb").write(bytes(raw))
        return out

    monkeypatch.setattr(tksnn.trainer, "fit", fit_then_corrupt)
    wl.one_fit(0, False)
    assert checks.failed == 0
    wl.one_fit(1, False)
    assert checks.failed == 1 and "repeat of seed" in checks.failures[0]
    assert checks.success_rate < 1.0


def test_trailing_bytes_fail_the_round_trip(tmp_path):
    path = _checkpoint(tmp_path)
    with open(path, "ab") as f:
        f.write(b"\0")
    checks = Checks()
    assert not checks.checkpoint_round_trip(tksnn, path, path + ".copy")
    assert (checks.attempted, checks.failed) == (2, 1)


def test_truncated_checkpoint_is_counted(tmp_path):
    path = _checkpoint(tmp_path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:20])
    checks = Checks()
    with pytest.raises(RoundFailed):
        checks.checkpoint_round_trip(tksnn, path, path + ".copy")
    assert (checks.attempted, checks.failed) == (1, 1)


def test_non_finite_loss_and_low_top1_are_counted():
    reports = [SimpleNamespace(epoch=0, l_ce=1.0, l_tks=0.5, l_final=0.9),
               SimpleNamespace(epoch=1, l_ce=math.nan, l_tks=0.5, l_final=math.nan)]
    checks = Checks()
    assert not checks.finite_losses("fit", reports)
    assert not checks.top1_floor("eval", 0.25, 0.6)
    assert checks.top1_floor("eval", 0.9, 0.6)
    assert (checks.attempted, checks.failed) == (3, 2)


def test_fast_rate_times_each_kind_by_its_fastest_unit():
    units = [["a", 10, 2.0], ["a", 10, 1.0], ["b", 4, 0.5], ["b", 4, 0.25]]
    # 28 items; kind a: 2 units x 1.0 s, kind b: 2 units x 0.25 s
    assert run.fast_rate(units) == pytest.approx(28 / 2.5)
    assert run.fast_rate([]) == 0.0


def test_raising_operation_counts_its_weight():
    checks = Checks()

    def boom():
        raise ValueError("bad batch")

    with pytest.raises(RoundFailed):
        checks.run("epoch", boom, weight=19)
    assert (checks.attempted, checks.failed) == (19, 19)


def test_failed_set_up_still_reports(monkeypatch, capsys):
    def broken_setup(self, i):
        raise ValueError("no data")

    monkeypatch.setattr(MlpSynthTrain, "setup", broken_setup)
    assert run.main(["--workload", "mlp-synth-train", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert result["metrics"]["success_rate"]["value"] == 0.0
