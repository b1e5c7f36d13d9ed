"""In-memory span recorder that wraps nifa's public functions from outside.

`Tracer.install()` replaces every public function of the traced modules, in
every nifa module that binds it, with a wrapper that records a span (name,
start, end, parent, run id); `Tracer.restore()` puts the originals back. The
program's source is not modified. `layer_table()` derives per-layer figures
from the recorded spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

TRACED_MODULES = ("pretrain", "sampler", "model", "postprocess", "runio", "simulate", "metrics")
STATE_BUILD = "model.NiftyState.__post_init__"
RUN_CHAIN = "sampler.run_chain"
# sampler blocks in the order of ChainDiagnostics.block_seconds
BLOCKS = ("sample_loadings_row", "sample_residual_variances", "sample_spline_coefficients",
          "mala_step", "sample_shrinkage")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [name id, start, end, parent index or -1, run id] per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.keep: set[str] = set()  # span names whose return values are kept
        self.returned: dict[str, list] = {}
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    @contextmanager
    def span(self, name: str):
        record = [self.name_id(name), time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        keep = name in self.keep

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep:
                self.returned.setdefault(name, []).append(result)
            return result

        return wrapper

    def install(self) -> None:
        importlib.import_module("nifa.cli")
        nifa_modules = [m for k, m in sys.modules.items() if k == "nifa" or k.startswith("nifa.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"nifa.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{short}.{attr}", obj)
                # `from .model import f` makes a second binding; patch all of them
                for target in nifa_modules:
                    for tattr, tobj in list(vars(target).items()):
                        if tobj is obj:
                            self._patches.append((target, tattr, obj))
                            setattr(target, tattr, wrapped)
        state_cls = sys.modules["nifa.model"].NiftyState
        self._patches.append((state_cls, "__post_init__", state_cls.__post_init__))
        state_cls.__post_init__ = self._wrap(STATE_BUILD, state_cls.__post_init__)

    def restore(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def to_json(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "run"], "names": self.names,
                "spans": self.spans}

    def absorb(self, record: dict, root_parent: int = -1) -> None:
        """Append spans saved by another tracer's `to_json` under `root_parent`."""
        offset = len(self.spans)
        ids = [self.name_id(n) for n in record["names"]]
        for nid, start, end, parent, run in record["spans"]:
            self.spans.append([ids[nid], start, end,
                               parent + offset if parent >= 0 else root_parent, run])


def layer_table(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, per-call percentiles.

    Self time is a span's duration minus the durations of its direct children.
    The ``*_in_chain`` figures count only spans nested in `sampler.run_chain`.
    ``block_s`` is a sampler block's time as `run_chain` times it: from the
    start of the block's first call to the end of its last call or of the
    state rebuild that directly follows it.
    """
    spans, names = tracer.spans, tracer.names
    in_chain = [False] * len(spans)
    table: dict[str, dict] = {}
    durations: dict[str, list] = {}
    open_blocks: dict[int, list] = {}  # run_chain span -> [block name, start, end]

    def close(chain_span: int) -> None:
        block = open_blocks.pop(chain_span, None)
        if block:
            table[block[0]]["block_s"] += block[2] - block[1]

    for i, (nid, start, end, parent, _) in enumerate(spans):
        name, dur = names[nid], end - start
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "calls_in_chain": 0,
                                      "s_in_chain": 0.0, "block_s": 0.0})
        row["calls"] += 1
        row["s"] += dur
        row["self_s"] += dur
        durations.setdefault(name, []).append(dur)
        if parent >= 0:
            table[names[spans[parent][0]]]["self_s"] -= dur
            in_chain[i] = in_chain[parent]
            if names[spans[parent][0]] == RUN_CHAIN:
                block = open_blocks.get(parent)
                if name.startswith("sampler.") and name[8:] in BLOCKS:
                    if block and block[0] == name:
                        block[2] = end
                    else:
                        close(parent)
                        open_blocks[parent] = [name, start, end]
                else:
                    if block and name == STATE_BUILD:
                        block[2] = end
                    close(parent)
        if in_chain[i]:
            row["calls_in_chain"] += 1
            row["s_in_chain"] += dur
        if name == RUN_CHAIN:
            in_chain[i] = True
    for chain_span in list(open_blocks):
        close(chain_span)
    for name, row in table.items():
        d = np.asarray(durations[name])
        row["p50_ms"] = float(np.percentile(d, 50) * 1e3)
        row["p99_ms"] = float(np.percentile(d, 99) * 1e3)
    return table
