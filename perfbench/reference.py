"""Regenerate ``reference.json``: the expected result of every pool spec.

Every spec a benchmark run can issue is run once here on the serial backend
(``SerialExecutor``, ``batch_size=1``).  For each spec, keyed by
``StudySpec.cache_key()``, the file records

* ``digest``: the digest of the study payload's result fields;
* ``events``: the SSA reaction firings of each replicate, in replicate order;
* ``frame_bytes`` (batched specs only): the size of each lockstep batch's
  binary trajectory frame.

By the engine's bit-identity contract the pool-batched path, the service's
cold and cached answers, and every in-process replay must reproduce these
values exactly.  Run from the repository root after changing a workload
definition in ``streams.py``::

    python3 perfbench/reference.py

It takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from streams import WORKLOADS, payload_digest, pool_specs  # noqa: E402

REFERENCE_PATH = os.path.join(HERE, "reference.json")


def build() -> dict:
    from repro.analysis.replicates import run_replicate_study
    from repro.engine.executors import SerialExecutor
    from repro.engine.spec import StudySpec
    from repro.stochastic.ssa import DirectMethodSimulator
    from repro.stochastic.trajectory import encode_trajectories

    captured = []
    original_run = DirectMethodSimulator.run

    def capturing_run(self, *args, **kwargs):
        trajectory = original_run(self, *args, **kwargs)
        captured.append((self.last_event_count, trajectory))
        return trajectory

    specs = {}
    executor = SerialExecutor()
    DirectMethodSimulator.run = capturing_run
    try:
        for workload, shape in WORKLOADS.items():
            started = time.perf_counter()
            for fields in pool_specs(workload):
                spec = StudySpec.from_dict({**fields, "batch_size": 1})
                captured.clear()
                payload = run_replicate_study(spec, executor=executor).to_payload()
                entry = {
                    "digest": payload_digest(payload),
                    "events": [events for events, _ in captured],
                }
                batch = shape["batch_size"]
                if batch > 1:
                    trajectories = [trajectory for _, trajectory in captured]
                    entry["frame_bytes"] = [
                        len(encode_trajectories(trajectories[i:i + batch]))
                        for i in range(0, len(trajectories), batch)
                    ]
                specs[spec.cache_key()] = entry
            print(f"{workload}: {len(pool_specs(workload))} specs in "
                  f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    finally:
        DirectMethodSimulator.run = original_run
    return {"format": 1, "workloads": WORKLOADS, "specs": specs}


def load() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    data = build()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(data['specs'])} specs to {REFERENCE_PATH}")
