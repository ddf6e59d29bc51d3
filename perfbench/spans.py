"""Span tracing of tksnn's public functions, installed from outside the library.

`Tracer.install()` replaces every public function of the traced modules (and
`AdamW.step`) with a wrapper, in every tksnn namespace that holds a
reference to it; `uninstall()` puts the originals back, so untraced work
runs the unmodified code. Call sites inside the library resolve names at call
time, so the wrappers see nested calls and self time (span time minus child
spans) can be attributed per function.

Spans (id, parent, name, start, end) are kept in memory, up to a cap, and
written out once at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from array import array

import numpy as np

TRACED_MODULES = ("autodiff", "lif", "network", "tks", "trainer", "evaluation", "data")
NOT_OPS = {"backward", "as_tensor"}  # autodiff functions that are not tensor ops
MAX_SPANS = 250_000  # spans kept for the output file; counters go on past it


class Tracer:
    def __init__(self, tksnn):
        self.tksnn = tksnn
        self.namespaces = [tksnn] + [getattr(tksnn, m) for m in TRACED_MODULES]
        self.targets = self._targets()
        self.names = [name for name, _, _ in self.targets]
        nid = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.total_ns = [0] * n
        self.self_ns = [0] * n
        self.errors = [0] * n
        self.active = [0] * n
        self.stack: list[list] = []
        self.span_id = 0
        self.spans = {k: array("q") for k in ("id", "parent", "name", "start", "end")}
        self.counts = {"tape_nodes": 0, "backward": 0, "taped_ops": 0, "spikes": 0,
                       "spikes_in_eval": 0,
                       "events_parsed": 0, "checkpoint_bytes": 0}
        self.ops = {nid[f"autodiff.{n}"] for n in _public(tksnn.autodiff) if n not in NOT_OPS}
        self._eval = nid["evaluation.evaluate"]
        self._hooks = {
            nid["autodiff.backward"]: self._on_backward,
            nid["autodiff.spike"]: self._on_spike,
        }
        self._post = {
            nid["network.save_checkpoint"]: self._after_save,
            nid["data.load_events"]: self._after_load_events,
        }
        self._saved: list[tuple] = []

    # -- installation ------------------------------------------------------

    def _targets(self):
        out = []
        for mod_name in TRACED_MODULES:
            mod = getattr(self.tksnn, mod_name)
            for name in _public(mod):
                out.append((f"{mod_name}.{name}", mod, name))
        out.append(("trainer.AdamW.step", self.tksnn.trainer.AdamW, "step"))
        return out

    def install(self):
        if self._saved:
            return
        for i, (_, owner, attr) in enumerate(self.targets):
            fn = getattr(owner, attr)
            wrapped = self._wrap(fn, i)
            holders = [owner] if inspect.isclass(owner) else \
                [ns for ns in self.namespaces if getattr(ns, attr, None) is fn]
            for ns in holders:
                self._saved.append((ns, attr, fn))
                setattr(ns, attr, wrapped)

    def uninstall(self):
        for ns, attr, fn in reversed(self._saved):
            setattr(ns, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, nid: int):
        tr = self
        is_op = nid in self.ops
        hook = self._hooks.get(nid)
        post = self._post.get(nid)
        clock = time.perf_counter_ns
        tape_stack = self.tksnn.autodiff._TAPE_STACK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_op and tape_stack:
                tr.counts["taped_ops"] += 1
            if hook is not None:
                hook(args, kwargs)
            stack = tr.stack
            parent = stack[-1] if stack else None
            frame = [tr.span_id, 0]  # span id, child ns
            tr.span_id += 1
            stack.append(frame)
            tr.active[nid] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.errors[nid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                tr.active[nid] -= 1
                dur = t1 - t0
                tr.calls[nid] += 1
                tr.total_ns[nid] += dur
                tr.self_ns[nid] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if frame[0] < MAX_SPANS:
                    s = tr.spans
                    s["id"].append(frame[0])
                    s["parent"].append(parent[0] if parent is not None else -1)
                    s["name"].append(nid)
                    s["start"].append(t0)
                    s["end"].append(t1)
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _on_backward(self, args, kwargs):
        tape = args[1] if len(args) > 1 else kwargs["tape"]
        self.counts["tape_nodes"] += len(tape)
        self.counts["backward"] += 1

    def _on_spike(self, args, kwargs):
        self.counts["spikes"] += 1
        if self.active[self._eval]:
            self.counts["spikes_in_eval"] += 1

    def _after_save(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["checkpoint_bytes"] = os.path.getsize(path)

    def _after_load_events(self, args, kwargs, result):
        self.counts["events_parsed"] += len(result.events)

    # -- results -----------------------------------------------------------

    def ms(self, name: str, *, self_time: bool = False) -> float:
        i = self.names.index(name)
        return (self.self_ns if self_time else self.total_ns)[i] / 1e6

    def module_errors(self, module: str) -> int:
        return sum(e for n, e in zip(self.names, self.errors) if n.startswith(module + "."))

    def write_spans(self, path: str) -> int:
        """Write spans as TSV ordered by start time; returns the number written."""
        s = self.spans
        order = np.argsort(np.frombuffer(s["start"], dtype=np.int64), kind="stable")
        cols = {k: np.frombuffer(v, dtype=np.int64)[order] for k, v in s.items()}
        t_base = int(cols["start"][0]) if len(order) else 0
        with open(path, "w") as f:
            f.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, p, n, a, b in zip(*(cols[k].tolist() for k in ("id", "parent", "name", "start", "end"))):
                f.write(f"{i}\t{p}\t{self.names[n]}\t{a - t_base}\t{b - t_base}\n")
        return len(order)


def _public(mod):
    return sorted(name for name, obj in vars(mod).items()
                  if inspect.isfunction(obj) and obj.__module__ == mod.__name__
                  and not name.startswith("_"))
