"""Workload definitions, spec pools and seeded op streams.

Every op of every workload is a :class:`repro.StudySpec` drawn from a fixed,
committed pool (``reference.json`` holds one result digest per pool spec,
made on the serial backend).  The workload seed only chooses where in each
circuit's pool a run starts, so the same seed always yields the same op
stream and every op has a reference to be checked against.

Ops run in whole *passes*: one pass touches every circuit of the workload
once, in a fixed order.  Metrics are taken over whole passes only, so the
circuit mix of a run never depends on how fast the machine is.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List

#: Per-workload study shape.  ``pool`` is the number of committed seeds per
#: circuit; ``batch_size`` and ``workers`` are execution knobs and do not
#: enter the cache key, so the serial reference digests cover them.
WORKLOADS: Dict[str, dict] = {
    "verify_pool_batched": {
        # Costs differ enough that the median op is a cello_0x04
        # study, never a coin toss between two circuits of similar cost.
        "circuits": ("nor", "nand", "cello_0x04", "cello_0x70", "cello_0x0b"),
        "n_replicates": 8,
        "hold_time": 15.0,
        "batch_size": 4,
        "pool": 8,
    },
    "service_mixed": {
        "circuits": ("and", "or", "nand", "nor", "cello_0x04"),
        "n_replicates": 2,
        "hold_time": 100.0,
        "batch_size": 1,
        "pool": 80,
        # Each cold request is followed by this many repeats of specs the
        # server has already answered in this run.  The mix is set so hits
        # and colds each take about half of a pass: a cold here takes about
        # 70 ms and a hit about 2.3 ms, so 30 hits per cold.  Then a 2x
        # slowdown of either class alone lowers ``replicates_per_s`` by about
        # a third, past its 0.25 bound.  At hold 100 the serial SSA is 94% of
        # a cold study's time; at hold 50 it fell to 89%.
        "hits_per_cold": 30,
    },
}

#: Nominal seconds of one pass on a 2-core x86 VM (Python 3.11, numpy 2.4).
#: A run makes ``round(seconds / PASS_SECONDS)`` passes, so the op stream of
#: a seed is fixed, and with it every count the run checks.
PASS_SECONDS = {
    "verify_pool_batched": 2.3,
    "service_mixed": 0.7,
}

#: Seed of pool entry ``k`` is ``SEED_BASE + k`` for every circuit.
SEED_BASE = 20170000


def spec_dict(workload: str, circuit: str, k: int) -> dict:
    """The StudySpec fields of pool entry ``k`` of ``circuit`` (JSON-ready)."""
    shape = WORKLOADS[workload]
    return {
        "circuit": circuit,
        "n_replicates": shape["n_replicates"],
        "hold_time": shape["hold_time"],
        "seed": SEED_BASE + k,
        "batch_size": shape["batch_size"],
    }


def pool_specs(workload: str) -> List[dict]:
    """Every spec a run of ``workload`` can issue (what the reference covers)."""
    shape = WORKLOADS[workload]
    return [
        spec_dict(workload, circuit, k)
        for k in range(shape["pool"])
        for circuit in shape["circuits"]
    ]


class OpStream:
    """The seeded op stream of one run, generated a pass at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.shape = WORKLOADS[workload]
        rng = random.Random(seed)
        self.offsets = [rng.randrange(self.shape["pool"]) for _ in self.shape["circuits"]]
        self._hit_rng = random.Random(seed ^ 0x5EED)
        self.served: List[dict] = []

    @property
    def max_passes(self) -> int:
        # A cold request must be new to the server, so the service stream
        # may not wrap around a circuit's pool; verify streams may.
        return self.shape["pool"] if "hits_per_cold" in self.shape else 10**9

    def passes_for(self, seconds: float) -> int:
        passes = max(1, round(seconds / PASS_SECONDS[self.workload]))
        if passes > self.max_passes:
            raise ValueError(f"{self.workload} has cold specs for at most "
                             f"{self.max_passes} passes; asked for {passes}")
        return passes

    def pass_ops(self, index: int) -> List[dict]:
        """The ops of pass ``index``: ``{"kind": "study"|"cold"|"hit", "spec": ...}``."""
        ops = []
        hits = self.shape.get("hits_per_cold")
        for circuit, offset in zip(self.shape["circuits"], self.offsets):
            spec = spec_dict(self.workload, circuit, (offset + index) % self.shape["pool"])
            if hits is None:
                ops.append({"kind": "study", "spec": spec})
                continue
            ops.append({"kind": "cold", "spec": spec})
            self.served.append(spec)
            for _ in range(hits):
                ops.append({"kind": "hit", "spec": self._hit_rng.choice(self.served)})
        return ops


def payload_digest(payload: dict) -> str:
    """Digest of a study payload's result fields.

    The ``engine`` block (timings, executor) and the echoed ``spec`` (which
    carries execution knobs) are left out: they legitimately differ between
    backends, while every other field is fixed by the engine's bit-identity
    contract.
    """
    result = {k: v for k, v in payload.items() if k not in ("engine", "spec")}
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def stream_digest(keys: List[str]) -> str:
    """Digest of the ordered cache keys of the ops a run attempted."""
    return hashlib.sha256("\n".join(keys).encode("ascii")).hexdigest()[:16]
