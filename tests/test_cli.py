import json

import numpy as np
import pytest

from tksnn.cli import run
from tksnn.data import save_idx


@pytest.fixture
def tiny_config(tmp_path):
    cfg = {
        "teacher": {"mode": "tks", "k": 2, "tau": 3.0},
        "data": {"n_per_class": 6, "t_native": 4, "classes": 3, "noise_sigma": 0.2},
        "run": {"t_train": 4, "epochs": 2, "batch_size": 8,
                "out_dir": str(tmp_path / "run")},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_train_then_eval_then_sweep(tiny_config, tmp_path, capsys):
    assert run(["train", "--config", str(tiny_config)]) == 0
    out = capsys.readouterr().out
    assert "resolved config:" in out
    assert "2 epochs" in out
    ckpt = tmp_path / "run" / "model.ckpt"
    assert ckpt.exists()

    report_path = tmp_path / "eval.json"
    assert run(["eval", "--config", str(tiny_config), "--checkpoint", str(ckpt),
                "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert 0.0 <= report["top1"] <= 1.0
    assert report["n_samples"] == 18
    assert len(report["per_timestep_acc"]) == 4

    csv_path = tmp_path / "sweep.csv"
    assert run(["sweep", "--config", str(tiny_config), "--checkpoint", str(ckpt),
                "--t", "1,2,3,4,6,8", "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t_test,top1,aurc_x1000"
    assert len(lines) == 7  # header + six requested test lengths
    assert [int(l.split(",")[0]) for l in lines[1:]] == [1, 2, 3, 4, 6, 8]


def test_train_override_changes_run(tiny_config, tmp_path, capsys):
    assert run(["train", "--config", str(tiny_config),
                "--set", "teacher.mode=none",
                "--set", "run.out_dir=" + str(tmp_path / "none_run")]) == 0
    out = capsys.readouterr().out
    assert '"mode": "none"' in out
    metrics = (tmp_path / "none_run" / "metrics.jsonl").read_text().splitlines()
    for line in metrics:
        assert json.loads(line)["l_tks"] == 0.0


def test_unknown_override_key_exits_1(tiny_config, tmp_path, capsys):
    code = run(["train", "--config", str(tiny_config), "--set", "teacher.kk=3"])
    assert code == 1
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_config_value_exits_1_without_outputs(tiny_config, tmp_path, capsys):
    code = run(["train", "--config", str(tiny_config), "--set", "run.t_train=0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # nothing written on validation failure


@pytest.mark.parametrize("top_level", ["[]", "3"])
def test_config_not_a_json_object_exits_1(tmp_path, capsys, top_level):
    config = tmp_path / "c.json"
    config.write_text(top_level)
    assert run(["train", "--config", str(config)]) == 1
    assert "JSON object" in capsys.readouterr().err


def test_malformed_override_exits_1(tiny_config, capsys):
    assert run(["train", "--config", str(tiny_config), "--set", "teacher.mode"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_empty_training_set_exits_2(tiny_config, tmp_path, capsys):
    assert run(["train", "--config", str(tiny_config), "--set", "data.n_per_class=0"]) == 2
    assert "empty" in capsys.readouterr().err
    # with zero epochs no epoch runs, and still nothing is written
    assert run(["train", "--config", str(tiny_config), "--set", "data.n_per_class=0",
                "--set", "run.epochs=0"]) == 2
    assert "empty" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_eval_truncated_checkpoint_exits_2(tiny_config, tmp_path, capsys):
    assert run(["train", "--config", str(tiny_config)]) == 0
    ckpt = tmp_path / "run" / "model.ckpt"
    raw = ckpt.read_bytes()
    for n in (10, 40, len(raw) - 1):
        ckpt.write_bytes(raw[:n])
        capsys.readouterr()
        assert run(["eval", "--config", str(tiny_config), "--checkpoint", str(ckpt)]) == 2
        assert "runtime failure" in capsys.readouterr().err


def test_eval_header_not_describing_a_model_exits_2(tiny_config, tmp_path, capsys,
                                                   bad_header_copies):
    assert run(["train", "--config", str(tiny_config)]) == 0
    for defect, bad in bad_header_copies(tmp_path / "run" / "model.ckpt").items():
        capsys.readouterr()
        assert run(["eval", "--config", str(tiny_config), "--checkpoint", str(bad)]) == 2
        assert "runtime failure" in capsys.readouterr().err


def test_idx_train_then_eval_on_the_train_split(tmp_path, capsys):
    rng = np.random.default_rng(0)
    labels = np.arange(12) % 3
    # static images: class c lights row c, plus noise
    images = rng.integers(0, 60, size=(12, 4, 4)).astype(np.uint8)
    images[np.arange(12), labels, :] = 255
    ip, lp = str(tmp_path / "im.idx"), str(tmp_path / "lb.idx")
    save_idx(ip, lp, images, labels)
    config = tmp_path / "idx.json"
    config.write_text(json.dumps({
        "teacher": {"k": 2},
        "data": {"kind": "idx", "images": ip, "labels": lp},
        "run": {"t_train": 3, "epochs": 2, "batch_size": 4, "out_dir": str(tmp_path / "run")},
    }))
    assert run(["train", "--config", str(config)]) == 0
    ckpt = str(tmp_path / "run" / "model.ckpt")
    capsys.readouterr()
    assert run(["eval", "--config", str(config), "--checkpoint", ckpt, "--split", "train"]) == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 12
    # there are no separate test files to score, so the default test split is refused
    assert run(["eval", "--config", str(config), "--checkpoint", ckpt]) == 1
    assert "--split train" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    assert run(["train", "--config", str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()


def test_missing_subcommand_exits_1(capsys):
    assert run([]) == 1
    capsys.readouterr()


def test_resume_flag(tiny_config, tmp_path, capsys):
    assert run(["train", "--config", str(tiny_config)]) == 0
    ckpt = tmp_path / "run" / "model.ckpt"
    cfg = json.loads(tiny_config.read_text())
    cfg["run"]["epochs"] = 4
    tiny_config.write_text(json.dumps(cfg))
    assert run(["train", "--config", str(tiny_config), "--resume", str(ckpt)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
    assert [json.loads(l)["epoch"] for l in lines] == [0, 1, 2, 3]


def test_resume_with_changed_lif_exits_1(tiny_config, tmp_path, capsys):
    assert run(["train", "--config", str(tiny_config)]) == 0
    ckpt = str(tmp_path / "run" / "model.ckpt")
    capsys.readouterr()
    assert run(["train", "--config", str(tiny_config), "--resume", ckpt,
                "--set", "lif.v_th=0.6"]) == 1
    assert "does not match the config" in capsys.readouterr().err


def test_resume_from_past_the_last_epoch_exits_1_and_writes_nothing(tiny_config, tmp_path,
                                                                    capsys):
    assert run(["train", "--config", str(tiny_config), "--set", "run.epochs=4"]) == 0
    ckpt, metrics = tmp_path / "run" / "model.ckpt", tmp_path / "run" / "metrics.jsonl"
    before = ckpt.read_bytes(), metrics.read_bytes()
    capsys.readouterr()
    assert run(["train", "--config", str(tiny_config), "--resume", str(ckpt)]) == 1
    assert "past the config's 2 epochs" in capsys.readouterr().err
    assert (ckpt.read_bytes(), metrics.read_bytes()) == before


def test_gradcheck_command_passes(capsys):
    assert run(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
