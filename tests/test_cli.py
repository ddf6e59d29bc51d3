import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tksnn
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


@pytest.mark.parametrize("t_list,bad", [("1,x", "'x'"), ("1,,2", "''"), ("2.5", "'2.5'")])
def test_sweep_non_integer_timestep_exits_1_without_traceback(tiny_config, tmp_path, capsys,
                                                              t_list, bad):
    code = run(["sweep", "--config", str(tiny_config), "--checkpoint", str(tmp_path / "m.ckpt"),
                "--t", t_list, "--out", str(tmp_path / "sweep.csv")])
    err = capsys.readouterr().err
    assert code == 1
    assert f"argument --t: '{t_list}': invalid literal for int() with base 10: {bad}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


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


@pytest.mark.parametrize("override,message", [
    ("data.classes=0", "classes must be >= 1, got 0"),
    ("data.n_per_class=-1", "n_per_class must be >= 0, got -1"),
    ("data.noise_sigma=-0.3", "noise_sigma must be >= 0, got -0.3"),
])
def test_bad_synth_setting_exits_1_without_outputs(tiny_config, tmp_path, capsys, override,
                                                   message):
    assert run(["train", "--config", str(tiny_config), "--set", override]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config_text,override", [
    ("{not json", None),
    (None, None),  # the config path is a directory
    (None, "run.batch_size=1.5"),
    (None, "run.epochs=1.5"),
    (None, "run.t_train=2.5"),
    (None, "teacher.k=1.5"),
    (None, "data.n_per_class=2.5"),
    (None, "data.t_native=4.5"),
    (None, "run.seed=1.5"),
    (None, "data.classes=true"),
    (None, "data.seed=-1"),
    (None, "run.seed=-1"),
    (None, "data.images=1"),
    (None, "data.labels=0"),
])
def test_config_error_exits_1_without_traceback_or_outputs(tiny_config, tmp_path, capsys,
                                                          config_text, override):
    config = tiny_config
    if config_text is not None:
        config.write_text(config_text)
    elif override is None:
        config = tmp_path / "config_dir"
        config.mkdir()
    argv = ["train", "--config", str(config)] + (["--set", override] if override else [])
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("override", [
    "optimizer.lr_max=abc", "optimizer.beta1=null", "optimizer.lr_max=-1", "optimizer.lr_max=0",
    "optimizer.lr_max=Infinity", "optimizer.lr_min=-0.001", "optimizer.lr_min=1",
    "optimizer.weight_decay=-0.01", "optimizer.beta1=1", "optimizer.beta2=-0.5",
    "optimizer.eps=0", "optimizer.eps=true", "optimizer.grad_clip=-1",
    "run.out_dir=5", "run.out_dir=", "run.out_dir=null",
])
def test_bad_optimizer_or_out_dir_exits_1_and_writes_nothing(tiny_config, tmp_path, capsys,
                                                             monkeypatch, override):
    monkeypatch.chdir(tmp_path)  # where a relative out_dir would go
    assert run(["train", "--config", str(tiny_config), "--set", override]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and override.split("=")[0].split(".")[1] in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("key,name", [
    ("lif.tau_m", "tau_m"), ("lif.v_th", "v_th"), ("lif.v_rest", "v_rest"),
    ("surrogate.width", "surrogate width"), ("teacher.tau", "temperature"),
    ("teacher.epsilon", "smoothing epsilon"), ("schedule.alpha_start", "alpha_start"),
    ("schedule.alpha_end", "alpha_end"), ("data.noise_sigma", "noise_sigma"),
])
def test_a_float_setting_that_is_not_a_number_names_itself(tiny_config, tmp_path, capsys,
                                                           key, name):
    assert run(["train", "--config", str(tiny_config), "--set", f"{key}=abc"]) == 1
    err = capsys.readouterr().err
    assert f"error: {name} must be a finite number, got 'abc'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_override_sets_a_key_of_a_section_the_file_leaves_out(tiny_config, tmp_path, capsys):
    assert "lif" not in json.loads(tiny_config.read_text())
    assert run(["train", "--config", str(tiny_config), "--set", "lif.tau_m=3.0",
                "--set", "run.epochs=0"]) == 0
    assert '"tau_m": 3.0' in capsys.readouterr().out


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


def test_eval_on_an_empty_set_exits_2(tiny_config, tmp_path, capsys):
    assert run(["train", "--config", str(tiny_config)]) == 0
    capsys.readouterr()
    assert run(["eval", "--config", str(tiny_config), "--checkpoint",
                str(tmp_path / "run" / "model.ckpt"), "--set", "data.n_per_class=0"]) == 2
    err = capsys.readouterr().err
    assert "evaluation set is empty" in err and "Traceback" not in err


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


def test_module_form_runs_the_cli(tmp_path):
    src = os.path.dirname(os.path.dirname(tksnn.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "tksnn.cli", "--help"], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert done.returncode == 0
    assert done.stdout.startswith("usage: tksnn")


def test_eval_of_a_directory_as_checkpoint_exits_1(tiny_config, tmp_path, capsys):
    assert run(["eval", "--config", str(tiny_config), "--checkpoint", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_train_on_a_directory_as_idx_images_exits_1_and_writes_nothing(tmp_path, capsys):
    lp = tmp_path / "lb.idx"
    save_idx(str(tmp_path / "im.idx"), str(lp), np.zeros((3, 2, 2), dtype=np.uint8), np.arange(3))
    config = tmp_path / "idx.json"
    config.write_text(json.dumps({
        "data": {"kind": "idx", "images": str(tmp_path), "labels": str(lp)},
        "run": {"out_dir": str(tmp_path / "run")},
    }))
    assert run(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "run").exists()
