"""Span tracing around every call into an omclab module.

``Tracer.install`` replaces each public function of the omclab modules (and
the ``cli`` figure pipelines) with a wrapper that records one span: name,
start, end, parent span and the operation it belongs to.  Every module
binding of the function is replaced, so calls made through ``from .x import
f`` names are traced too.  ``Tracer.remove`` puts the originals back, so
traced and untraced operations can alternate in one process.

Spans stay in memory; ``write`` dumps them, with the self time of each span
(its duration minus the time covered by its child spans), when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import omclab
import omclab.cli  # noqa: F401  (imports every module)

MODULES = ("core", "cavity", "optomech", "dynamics", "fock", "sim", "stats",
           "transducer", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    op: str
    name: str
    start_ns: int
    end_ns: int
    counts: dict = field(default_factory=dict)
    self_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _simulate_counts(fn, args, kwargs, result, originals) -> dict:
    config = _bound(fn, args, kwargs)["config"]
    n_pulses = len(config.sequence.pulses)
    # computed, not measured: the dense sampler gives every sequence one
    # pair draw plus 4 draws per pulse, rounded up to a multiple of 4
    slots = -(-(1 + 4 * n_pulses) // 4) * 4
    n_seq = config.sequence.n_sequences
    return {"sequences": n_seq, "clicks": len(result[0]), "uniforms": n_seq * slots}


def _table_counts(fn, args, kwargs, result, originals) -> dict:
    bound = _bound(fn, args, kwargs)
    d = bound.get("d")
    if d is None and "fock.suggested_dim" in originals:
        # computed: the default per-mode dimension of two_pulse_click_table
        d = originals["fock.suggested_dim"](bound["n_th"]) + 8
    return {"dim": d} if d is not None else {}


def _mask_counts(fn, args, kwargs, result, originals) -> dict:
    # computed: two n_sequences-long boolean masks (write, read)
    return {"mask_bytes": 2 * int(result.counts[3] + abs(result.delta_n))}


def _write_counts(fn, args, kwargs, result, originals) -> dict:
    bound = _bound(fn, args, kwargs)
    return {"clicks": len(bound["batch"]), "bytes": os.path.getsize(bound["path"])}


def _read_counts(fn, args, kwargs, result, originals) -> dict:
    return {"clicks": len(result)}


def _assign_counts(fn, args, kwargs, result, originals) -> dict:
    return {"clicks": len(_bound(fn, args, kwargs)["batch"])}


COUNTERS = {
    "sim.simulate": _simulate_counts,
    "fock.two_pulse_click_table": _table_counts,
    "stats.g2_crosscorr": _mask_counts,
    "sim.write_records_csv": _write_counts,
    "sim.read_records_csv": _read_counts,
    "sim.assign_pulse_indices": _assign_counts,
}


class Tracer:
    def __init__(self):
        self._package = omclab
        self._modules = {name: getattr(omclab, name) for name in MODULES}
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[Span] = []
        self.op = ""
        self.originals: dict[str, object] = {}
        for mod_name, module in self._modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    self.originals[f"{mod_name}.{attr}"] = value

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            returned = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = Span(span_id, parent, tracer.op, name, start, end)
                if counter is not None and returned:
                    span.counts = counter(fn, args, kwargs, result, tracer.originals)
                tracer.spans.append(span)

        return functools.wraps(fn)(traced)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self, op: str) -> None:
        self.op = op
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self.originals.items()}
        for module in (self._package, *self._modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        pipelines = self._modules["cli"]._REPRODUCE
        for key, fn in list(pipelines.items()):
            self._patches.append((pipelines, key, fn))
            pipelines[key] = self._wrap(f"cli.reproduce.{key}", fn)

    def remove(self) -> None:
        for target, key, value in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patches.clear()

    def finish(self) -> list[Span]:
        """Fill in self times; returns the spans."""
        by_id = {s.id: s for s in self.spans}
        for s in self.spans:
            s.self_ns = s.duration_ns
        for s in self.spans:
            parent = by_id.get(s.parent)
            if parent is not None:
                parent.self_ns -= s.duration_ns
        return self.spans

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"id": s.id, "parent": s.parent, "op": s.op, "name": s.name,
                 "start_ns": s.start_ns, "end_ns": s.end_ns, "self_ns": s.self_ns,
                 "counts": s.counts} for s in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")
