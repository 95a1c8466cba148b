"""In-memory span tracing around the public functions of each layer.

The program itself carries no tracing: this module wraps the public
functions the benchmark measures, for the length of a ``with instrument(...)``
block, and restores them afterwards.  A span records its name, start, end,
the span that was open when it started (its parent), the op it belongs to
and any counts the layer reports (SSA events, frame bytes, samples).

Everything the benchmark traces runs on one thread of one process, so a
plain stack gives each span its parent.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "child_time")

    def __init__(self, name: str, start: float, parent: Optional[int], op: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.counts: Dict[str, float] = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.duration - self.child_time


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += record.duration

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def totals(self, name: str) -> Dict[str, float]:
        """Count, total duration, total self time and summed counts of ``name``."""
        spans = self.named(name)
        counts: Dict[str, float] = defaultdict(float)
        for s in spans:
            for key, value in s.counts.items():
                counts[key] += value
        return {
            "n": len(spans),
            "total": sum(s.duration for s in spans),
            "self": sum(s.self_time for s in spans),
            **counts,
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first span)."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index,
                    "name": s.name,
                    "start_s": s.start - origin,
                    "end_s": s.end - origin,
                    "self_s": s.self_time,
                    "parent": s.parent,
                    "op": s.op,
                    **({"counts": s.counts} if s.counts else {}),
                }) + "\n")


def _wrap(tracer: Tracer, name: str, fn: Callable, after=None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
            if after is not None:
                after(record, args, result)
            return result

    return traced


def _ssa_events(record, args, result):
    record.counts["events"] = args[0].last_event_count


def _analyze_samples(record, args, result):
    record.counts["samples"] = len(args[1].trajectory)


def _frame_bytes(record, args, result):
    packed = args[0]
    if packed.get("kind") == "shm":
        record.counts["frame_bytes"] = packed["frame_bytes"]
    elif packed.get("kind") == "frame":
        record.counts["frame_bytes"] = len(packed["frame"])
    record.counts["replicates"] = len(result)


def _encoded_bytes(record, args, result):
    record.counts["frame_bytes"] = len(result)


def _targets():
    """``(owner, attribute, span name, count hook)`` for every traced call.

    Each owner is the namespace the caller looks the name up in, so the
    wrapper is what actually runs.
    """
    import repro.analysis.replicates as replicates
    import repro.engine.core as engine_core
    import repro.engine.spec as engine_spec
    import repro.gates.circuits as circuits
    from repro.core.analyzer import LogicAnalyzer
    from repro.stochastic.propensity import CompiledModel
    from repro.stochastic.ssa import DirectMethodSimulator
    from repro.vlab.experiment import LogicExperiment

    return [
        (DirectMethodSimulator, "run", "stochastic.ssa", _ssa_events),
        (CompiledModel, "__init__", "stochastic.compile", None),
        (replicates, "run_ensemble", "engine.run_ensemble", None),
        (LogicExperiment, "datalog_from", "vlab.datalog", None),
        (LogicAnalyzer, "analyze", "core.analyze", _analyze_samples),
        (circuits, "resolve_circuit", "gates.resolve_circuit", None),
        (engine_spec.StudySpec, "cache_key", "engine.spec.cache_key", None),
        (engine_core, "decode_batch_result", "engine.decode_batch", _frame_bytes),
        (engine_core, "worker_compiled", "engine.worker_compile", None),
        (engine_core, "simulate_ssa_batch", "stochastic.batch", None),
        (engine_core, "encode_trajectories", "engine.worker_encode", _encoded_bytes),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced call through ``tracer`` for the block's duration."""
    saved = []
    try:
        for owner, attribute, name, after in _targets():
            # A class attribute is read raw, so a method is re-bound per call.
            if isinstance(owner, type):
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, name, original, after))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)
