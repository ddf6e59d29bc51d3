"""Operation and output-check accounting for one benchmark run.

An operation is a training step, an eval batch, a file parse, a checkpoint
round trip or an output check. Every failure is counted against the number
attempted; the run is correct only when none failed.
"""

from __future__ import annotations

import hashlib
import math
import sys
import traceback


class RoundFailed(Exception):
    """Raised after an operation failed, to abandon the rest of its round."""


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, what: str, weight: int = 1):
        self.failed += weight
        self.failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)

    def run(self, what: str, fn, *args, weight: int = 1, **kwargs):
        """Call fn as `weight` operations; a raise counts them all as failed."""
        self.attempted += weight
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the run must go on and report the failure
            traceback.print_exc(file=sys.stderr)
            self._fail(f"{what}: {type(exc).__name__}: {exc}", weight)
            raise RoundFailed(what) from exc

    def attempt(self, what: str, fn, *args) -> bool:
        """Call fn; return False instead of raising if it fails, so the run still reports.

        A RoundFailed was counted where it arose; any other raise counts as one
        more failed operation.
        """
        try:
            fn(*args)
        except RoundFailed:
            return False
        except Exception as exc:
            self.attempted += 1
            traceback.print_exc(file=sys.stderr)
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return False
        return True

    def expect(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self._fail(what)
        return ok

    # -- output checks -----------------------------------------------------

    def finite_losses(self, what: str, reports) -> bool:
        bad = [r.epoch for r in reports
               if not all(math.isfinite(v) for v in (r.l_ce, r.l_tks, r.l_final))]
        return self.expect(f"{what}: non-finite loss at epochs {bad}", not bad)

    def same_digest(self, what: str, a: str, b: str) -> bool:
        return self.expect(f"{what}: sha256 {a[:12]} != {b[:12]}", a == b)

    def top1_floor(self, what: str, top1: float, floor: float) -> bool:
        return self.expect(f"{what}: top-1 {top1:.4f} not above {floor}", top1 > floor)

    def checkpoint_round_trip(self, tksnn, path: str, copy_path: str) -> bool:
        """load_checkpoint then save_checkpoint must give the same bytes.

        This catches a loader or writer that drops, adds or reorders bytes; a
        value corrupted inside the payload loads and saves back unchanged, so
        only the same-seed digest comparison can see it.
        """
        network, trainer = tksnn.network, tksnn.trainer

        def trip():
            model, header, opt_state = network.load_checkpoint(path)
            opt = None
            if opt_state is not None:
                opt = trainer.AdamW(model.parameters(), lr=0.0)
                opt.load_state(*opt_state)
            network.save_checkpoint(copy_path, model, epoch=header["epoch"], optimizer=opt)

        self.run(f"checkpoint round trip {path}", trip)
        return self.expect(f"checkpoint round trip {path}: bytes differ",
                           sha256_file(path) == sha256_file(copy_path))

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / max(self.attempted, 1)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
