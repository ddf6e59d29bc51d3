"""Command-line entry point: train / eval / sweep / gradcheck."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from . import evaluation, gradcheck, trainer
from .data import build_dataset
from .errors import ConfigError, ParameterError, TksnnError
from .network import load_checkpoint


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _apply_overrides(raw, overrides):
    """Set each section.key=value override in the raw config; `config_from_dict`
    then rejects unknown sections and keys, as it does for the file's own."""
    for item in overrides or []:
        key, eq, value = item.partition("=")
        section, dot, name = key.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override {item!r} is not section.key=value")
        node = raw.setdefault(section, {}) if isinstance(raw, dict) else None
        if isinstance(node, dict):  # anything else config_from_dict rejects
            node[name] = _parse_value(value)
    return raw


def _timestep_counts(text: str) -> list[int]:
    """The --t list of sweep: comma-separated integers; argparse names a bad entry."""
    try:
        return [int(entry) for entry in text.split(",")]
    except ValueError as exc:  # int() names the entry it could not read
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _seed_count(text: str) -> int:
    """The --seeds of gradcheck: an integer of at least 1; argparse names a bad one."""
    with contextlib.suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")


def _load_config(path: str, overrides):
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return trainer.config_from_dict(_apply_overrides(raw, overrides))


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.set)
    print("resolved config:")
    print(json.dumps(trainer.config_to_dict(cfg), indent=2, sort_keys=True))
    model, reports = trainer.fit(cfg, resume=args.resume)
    if reports:
        last = reports[-1]
        print(f"done: {len(reports)} epochs, final train_acc={last.train_acc:.4f} "
              f"l_final={last.l_final:.6f}")
    else:
        print("done: 0 epochs (initial checkpoint written)")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args.config, args.set)
    model, header, _ = load_checkpoint(args.checkpoint)
    data = build_dataset(cfg.data, split=args.split)
    t_test = args.t if args.t is not None else cfg.t_train
    report = evaluation.evaluate(model, data, t_test)
    text = report.to_json()
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.set)
    model, header, _ = load_checkpoint(args.checkpoint)
    data = build_dataset(cfg.data, split=args.split)
    sweep = evaluation.timestep_sweep(model, data, args.t)
    evaluation.write_sweep_csv(args.out, sweep)
    for t_test in sorted(sweep):
        rep = sweep[t_test]
        print(f"T_test={t_test}: top1={rep.top1:.4f} aurc_x1000={rep.aurc:.3f}")
    return 0


def cmd_gradcheck(args) -> int:
    worst = gradcheck.run_suite(range(args.seeds))
    for name in sorted(worst):
        print(f"{name}: {worst[name]:.3e}")
    overall = max(worst.values())
    print(f"max relative error: {overall:.3e}")
    return 0 if overall < 1e-3 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tksnn")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config key, e.g. teacher.mode=none")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint; JSON report to stdout")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--t", type=int, default=None, help="test timesteps (default: t_train)")
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--out", default=None, help="also write the report here")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="timestep-mismatch sweep; writes a CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--t", required=True, type=_timestep_counts,
                   help="comma-separated test lengths, e.g. 1,2,4,6,8,10")
    p.add_argument("--split", default="test", choices=["train", "test"])
    p.add_argument("--out", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seeds", type=_seed_count, default=10)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TksnnError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
