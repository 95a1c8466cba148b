"""The genlogic benchmark: two closed-loop workloads, checked op by op.

Usage, from the repository root::

    python3 perfbench/run.py --workload service_mixed --seed 1 --seconds 45 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``verify_pool_batched``: ``run_replicate_study`` on one persistent 2-worker
  ``ProcessPoolEnsembleExecutor`` at ``batch_size=4``, so the lockstep
  batch stepper, frame encoding and the shared-memory transport run;
* ``service_mixed``: a ``genlogic serve --workers 2`` subprocess driven by
  one client with ``POST /v1/studies?wait=1``, fresh specs (cold) mixed with
  repeats of specs already answered (cache hits) at a fixed ratio.

Every op's result is checked against ``reference.json`` (made on the serial
backend by ``reference.py``).  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the op stream with and without tracing, replays part of
it in-process to reach layers that live in other processes, writes the span
dump under ``perfbench/out/`` and prints the per-layer metrics.  The last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import http.client
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

from streams import WORKLOADS, OpStream, payload_digest, spec_dict, stream_digest  # noqa: E402

#: Worker processes of the pool and the service (the benchmark box has 2 cores).
WORKERS = 2
#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Seed of the warm-up studies (outside every pool, so never a measured op).
WARMUP_SEED = 1

END_TO_END = {
    "setup_s": "s",
    "study_p50_s": "s",
    "replicates_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "stochastic.ssa.us_per_event": "us",
    "stochastic.ssa.events": "count",
    "stochastic.ssa.study_share_pct": "%",
    "stochastic.batch.us_per_event": "us",
    "stochastic.compile_ms": "ms",
    "engine.worker_payload_ms": "ms",
    "engine.worker_compile_ms": "ms",
    "engine.worker_encode_ms": "ms",
    "engine.decode_batch_ms": "ms",
    "engine.frame_bytes_per_replicate": "bytes",
    "engine.ensemble_self_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.spec.cache_key_ms": "ms",
    "gates.resolve_circuit_ms": "ms",
    "service.hit_p50_ms": "ms",
    "service.submit_hit_ms": "ms",
    "service.http_overhead_ms": "ms",
    "service.cache.hits": "count",
    "service.cache.misses": "count",
    "service.cache.hit_ratio": "ratio",
    "service.studies.failed": "count",
    "service.studies.rejected": "count",
    "core.analyze_ms": "ms",
    "core.samples_per_s": "1/s",
    "vlab.datalog_ms": "ms",
    "analysis.study_overhead_ms": "ms",
    "host.calib_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


# -- shared helpers -------------------------------------------------------------


class Checker:
    """Counts attempted and failed ops and checks results against the reference.

    An op counts as failed once, however many of its checks fail. A failure
    that belongs to no single op (a server-wide count, an in-process replay)
    counts on its own.
    """

    def __init__(self, reference: dict):
        self.specs = reference["specs"]
        self.keys: list = []
        self.failed_ops: set = set()
        self.run_failures = 0
        self.errors: list = []

    @property
    def attempted(self) -> int:
        return len(self.keys)

    @property
    def failed(self) -> int:
        return len(self.failed_ops) + self.run_failures

    @property
    def error_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def attempt(self, key: str) -> int:
        """Register an op; returns its index for :meth:`fail` and :meth:`check`."""
        self.keys.append(key)
        return len(self.keys) - 1

    def fail(self, message: str, op=None) -> None:
        """Record a failed op, or a count that differs from the reference."""
        if op is None:
            self.run_failures += 1
        else:
            self.failed_ops.add(op)
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, op: int, payload: dict, what: str) -> None:
        entry = self.specs.get(self.keys[op])
        if entry is None:
            self.fail(f"{what}: no reference for key {self.keys[op][:12]}", op)
        elif payload_digest(payload) != entry["digest"]:
            self.fail(f"{what}: result digest differs from the serial reference", op)


def spec_keys(workload: str) -> dict:
    """``(circuit, seed) -> StudySpec.cache_key()`` for the workload's pool."""
    from repro.engine.spec import StudySpec

    shape = WORKLOADS[workload]
    keys = {}
    for circuit in shape["circuits"]:
        for k in range(shape["pool"]):
            fields = spec_dict(workload, circuit, k)
            keys[(circuit, fields["seed"])] = StudySpec.from_dict(fields).cache_key()
    return keys


def run_passes(stream: OpStream, first: int, count: int, do_op, between=None) -> list:
    """Run passes ``first .. first + count - 1``; call ``between()`` after each."""
    ops = []
    for index in range(first, first + count):
        ops.extend({**do_op(op), "pass": index} for op in stream.pass_ops(index))
        if between is not None:
            between()
    return ops


def split_passes(stream: OpStream, args) -> tuple:
    """``(untraced, traced)`` pass counts: a traced run gives half to each."""
    total = stream.passes_for(args.seconds)
    if not args.trace:
        return total, 0
    first = max(1, total // 2)
    return first, max(1, total - first)


def calibrate() -> float:
    """A fixed pure-Python + numpy probe (ms, median of 3), to expose machine drift."""
    import numpy as np

    times = []
    values = np.arange(64, dtype=float)
    cumulative = np.empty_like(values)
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        for _ in range(10_000):
            np.cumsum(values, out=cumulative)
            np.searchsorted(cumulative, 1000.0)
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: ``prctl`` option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants (Linux).

    A resource tracker or pool worker whose parent exits first is re-parented
    to this process instead of to init, so :func:`stop_children` can wait for
    it before the benchmark exits.
    """
    import ctypes

    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def start_resource_tracker() -> None:
    """Start this process's resource tracker before a pool forks its workers.

    Forked workers then share it, instead of each starting a tracker of its
    own that outlives the worker; :func:`stop_children` stops the shared one.
    """
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()


def child_pids() -> list:
    pids = []
    for task in os.listdir("/proc/self/task"):
        with contextlib.suppress(OSError), open(f"/proc/self/task/{task}/children") as f:
            pids.extend(int(pid) for pid in f.read().split())
    return pids


def reap_orphans() -> None:
    """Wait for every child that has already ended, without blocking."""
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def stop_children(grace: float = 30.0) -> None:
    """Stop the resource tracker and wait for every child and adopted orphan.

    A child still running after ``grace`` seconds is killed, then waited for.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    while True:
        reap_orphans()
        pids = child_pids()
        if not pids:
            return
        if time.monotonic() > deadline:
            for pid in pids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        time.sleep(0.02)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class SetupProbes:
    """``SETUP_PROBES`` fresh-process set-ups, spread evenly over the passes.

    Called after each pass, so the median samples the machine across the
    whole run rather than one moment of it.
    """

    def __init__(self, workload: str, passes: int):
        self.workload = workload
        self.every = max(1, passes // SETUP_PROBES)
        self.calls = 0
        self.times: list = []

    def __call__(self) -> None:
        self.calls += 1
        if self.calls % self.every or len(self.times) >= SETUP_PROBES:
            return
        self.probe()

    def probe(self) -> None:
        started = time.perf_counter()
        if self.workload == "service_mixed":
            server, _ = start_server()
            self.times.append(time.perf_counter() - started)
            stop_server(server)
            return
        subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", self.workload],
            check=True,
            cwd=ROOT,
            env=child_env(),
            timeout=120,
        )
        self.times.append(time.perf_counter() - started)

    def finish(self) -> list:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def setup_probe(workload: str) -> int:
    """Body of one set-up probe process: get ready for the first op, then exit."""
    from repro.engine.executors import ProcessPoolEnsembleExecutor

    adopt_orphans()
    try:
        with ProcessPoolEnsembleExecutor(WORKERS) as executor:
            warm_pool(executor, WORKLOADS[workload])
    finally:
        stop_children()
    return 0


def warm_pool(executor, shape) -> None:
    """Ship and compile every workload model in the pool's workers."""
    from repro.analysis.replicates import run_replicate_study
    from repro.engine.spec import StudySpec

    for circuit in shape["circuits"]:
        spec = StudySpec(circuit=circuit, n_replicates=WORKERS, hold_time=1.0,
                         seed=WARMUP_SEED, batch_size=1)
        run_replicate_study(spec, executor=executor)


# -- verify workloads -------------------------------------------------------------


def verify_op(executor, keys, checker, tracer=None):
    """The op function of the verify workloads: one fresh-spec study."""
    from repro.analysis.replicates import run_replicate_study
    from repro.engine.spec import StudySpec

    def do_op(op):
        fields = op["spec"]
        key = keys[(fields["circuit"], fields["seed"])]
        index = checker.attempt(key)
        record = {"spec": op["spec"], "key": key, "index": index,
                  "replicates": fields["n_replicates"]}
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = record["op"] = len(tracer.named("analysis.study"))
            span = tracer.span("analysis.study")
        started = time.perf_counter()
        try:
            with span:
                study = run_replicate_study(StudySpec.from_dict(fields), executor=executor)
                payload = study.to_payload()
        except Exception as error:  # noqa: BLE001 - a failed op is counted, not fatal
            record["latency"] = time.perf_counter() - started
            checker.fail(f"{fields['circuit']}: {type(error).__name__}: {error}", index)
            return record
        record["latency"] = time.perf_counter() - started
        record["hits"] = study.stats.cache_hits
        record["misses"] = study.stats.cache_misses
        checker.check(index, payload, fields["circuit"])
        return record

    return do_op


def run_verify(args, reference, keys) -> dict:
    from repro.engine.executors import ProcessPoolEnsembleExecutor

    workload = args.workload
    shape = WORKLOADS[workload]
    checker = Checker(reference)
    stream = OpStream(workload, args.seed)
    start_resource_tracker()
    executor = ProcessPoolEnsembleExecutor(WORKERS)
    passes, _ = split_passes(stream, args)
    report = {"checker": checker}
    with executor:
        warm_pool(executor, shape)
        plain = verify_op(executor, keys, checker)
        if not args.trace:
            probes = SetupProbes(workload, passes)
            report["ops"] = run_passes(stream, 0, passes, plain, probes)
            report["setup"] = probes.finish()
        else:
            from spans import Tracer, instrument

            tracer = Tracer()
            traced_op = verify_op(executor, keys, checker, tracer)
            ops, traced = [], []
            # Each op runs untraced and traced, in alternating order, so the
            # tracing overhead compares the two with the machine's drift shared.
            for index in range(passes):
                for op in stream.pass_ops(index):
                    for tracing in ((False, True) if len(ops) % 2 == 0 else (True, False)):
                        if tracing:
                            with instrument(tracer):
                                traced.append({**traced_op(op), "pass": index})
                        else:
                            ops.append({**plain(op), "pass": index})
            with instrument(tracer):
                replay_worker_payloads(tracer, traced, reference, checker)
            report.update(ops=ops, tracer=tracer, traced=traced)
    report["rss"] = peak_rss_mb()
    return report


def replay_worker_payloads(tracer, traced, reference, checker) -> None:
    """Run one op per circuit through ``simulate_batch_payload`` in this process.

    Pool workers are other processes, so their compile / simulate / encode
    split is measured on an in-process replay of the same payloads.
    """
    import repro.engine.core as engine_core
    from repro.engine.api import replicate_jobs
    from repro.engine.spec import StudySpec

    seen = set()
    for op in traced:
        circuit = op["spec"]["circuit"]
        if circuit in seen:
            continue
        seen.add(circuit)
        spec = StudySpec.from_dict(op["spec"])
        entry = reference["specs"][op["key"]]
        jobs = replicate_jobs(spec.template_job(), spec.n_replicates, seed=spec.seed)
        groups = engine_core.batch_job_groups(jobs, spec.batch_size)
        payloads = engine_core.batch_job_payloads(jobs, groups, transport="frame")
        for index, (group, payload) in enumerate(zip(groups, payloads)):
            tracer.op = None
            with tracer.span("engine.worker_payload") as record:
                result, _ = engine_core.simulate_batch_payload(payload)
            record.counts["reference_events"] = sum(entry["events"][i] for i in group)
            if len(result["frame"]) != entry["frame_bytes"][index]:
                checker.fail(f"{circuit}: replayed frame is {len(result['frame'])} bytes, "
                             f"reference {entry['frame_bytes'][index]}", op["index"])


# -- service workload -------------------------------------------------------------


def start_server():
    """Start ``genlogic serve`` on an ephemeral port; return it once it answers."""
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", str(WORKERS)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        # Its own process group, so pool workers it leaves behind can be
        # found and stopped with it.
        start_new_session=True,
    )
    line = server.stdout.readline()
    match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
    if not match:
        stop_server(server)
        raise RuntimeError(f"genlogic serve did not start (said {line!r})")
    port = int(match.group(1))
    status, _ = request(http.client.HTTPConnection("127.0.0.1", port, timeout=60),
                        "GET", "/v1/healthz")
    if status != 200:
        stop_server(server)
        raise RuntimeError(f"genlogic serve health check answered {status}")
    return server, port


def stop_server(server) -> None:
    """Stop the server and every process of its group, and wait for them.

    SIGINT is the server's clean shutdown (its pool joins its workers);
    SIGTERM would leave the forked pool workers running.
    """
    server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=30)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()
    server.stdout.close()
    grace = time.monotonic() + 1.0
    while True:
        reap_orphans()
        try:
            os.killpg(server.pid, 0 if time.monotonic() < grace else signal.SIGKILL)
        except ProcessLookupError:
            return
        if time.monotonic() > grace + 10.0:
            raise RuntimeError("genlogic serve left processes that would not stop")
        time.sleep(0.05)


def request(connection, method, path, body=None):
    connection.request(method, path, body=body)
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def service_op(connection, keys, checker, results, tracer=None):
    """The op function of ``service_mixed``: one ``POST /v1/studies?wait=1``."""

    def do_op(op):
        fields = op["spec"]
        key = keys[(fields["circuit"], fields["seed"])]
        body = json.dumps(fields)
        index = checker.attempt(key)
        record = {"kind": op["kind"], "spec": fields, "key": key, "index": index,
                  "replicates": fields["n_replicates"] if op["kind"] == "cold" else 0}
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.op = len(tracer.named("service.request"))
            span = tracer.span("service.request")
        started = time.perf_counter()
        try:
            with span:
                status, answer = request(connection, "POST", "/v1/studies?wait=1", body)
        except (OSError, http.client.HTTPException, ValueError) as error:
            record["latency"] = time.perf_counter() - started
            checker.fail(f"{op['kind']} {fields['circuit']}: {type(error).__name__}: {error}",
                         index)
            return record
        record["latency"] = time.perf_counter() - started
        what = f"{op['kind']} {fields['circuit']}"
        if status != 200 or answer.get("status") != "done":
            checker.fail(f"{what}: HTTP {status}, status {answer.get('status')}", index)
            return record
        checker.check(index, answer["result"], what)
        if answer.get("cache_key") != key:
            checker.fail(f"{what}: service cache key differs from StudySpec.cache_key()", index)
        if answer.get("cached") != (op["kind"] == "hit"):
            checker.fail(f"{what}: cached={answer.get('cached')}", index)
        results[key] = answer["result"]
        return record

    return do_op


def run_service(args, reference, keys) -> dict:
    workload = args.workload
    shape = WORKLOADS[workload]
    checker = Checker(reference)
    stream = OpStream(workload, args.seed)
    passes, traced_passes = split_passes(stream, args)
    probes = None if args.trace else SetupProbes(workload, passes)
    report = {"checker": checker}
    server, port = start_server()
    try:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        for circuit in shape["circuits"]:
            warm = {"circuit": circuit, "n_replicates": shape["n_replicates"],
                    "hold_time": shape["hold_time"], "seed": WARMUP_SEED}
            status, answer = request(connection, "POST", "/v1/studies?wait=1", json.dumps(warm))
            if status != 200 or answer.get("status") != "done":
                raise RuntimeError(f"warm-up study on {circuit} failed: {answer}")
        results: dict = {}
        report["ops"] = run_passes(stream, 0, passes,
                                   service_op(connection, keys, checker, results), probes)
        if probes is not None:
            report["setup"] = probes.finish()
        if args.trace:
            from spans import Tracer, instrument

            tracer = Tracer()
            with instrument(tracer):
                traced = run_passes(stream, passes, traced_passes,
                                    service_op(connection, keys, checker, results, tracer))
            report.update(tracer=tracer, traced=traced)
        _, stats = request(connection, "GET", "/v1/stats")
        report["stats"] = stats
    finally:
        stop_server(server)
    every = report["ops"] + report.get("traced", [])
    hits = sum(op["kind"] == "hit" for op in every)
    colds = sum(op["kind"] == "cold" for op in every) + len(shape["circuits"])
    cache = report["stats"]["cache"]
    if (cache["hits"], cache["misses"]) != (hits, colds):
        checker.fail(f"/v1/stats counts {cache['hits']} hits / {cache['misses']} misses, "
                         f"client sent {hits} / {colds}")
    if args.trace:
        replay_service(report, keys, reference, checker, results)
    report["rss"] = peak_rss_mb()
    return report


def replay_service(report, keys, reference, checker, results) -> None:
    """Replay the traced half's hits and one cold per circuit in this process.

    The server is another process, so the submit path of a cache hit
    (spec parse, ``cache_key``, ``ResultCache``) and the simulation of a
    cold study are measured on in-process replays of the same requests.
    Each replayed op runs twice, once untraced and once traced, in
    alternating order, so the tracing overhead compares the two sums with
    the machine's drift shared between them.
    """
    from repro.analysis.replicates import run_replicate_study
    from repro.engine.executors import SerialExecutor
    from repro.engine.spec import StudySpec
    from repro.service.app import AnalysisService
    from spans import instrument

    tracer = report["tracer"]
    requests = report["traced"]
    colds = []
    for op in requests:
        circuit = op["spec"]["circuit"]
        if op["kind"] == "cold" and all(c["spec"]["circuit"] != circuit for c in colds):
            colds.append(op)
    replays = [op for op in requests if op["kind"] == "hit"] + colds
    executor = SerialExecutor()
    service = AnalysisService(workers=1)
    for key, payload in results.items():
        service.cache.put(key, payload)
    spent = {False: 0.0, True: 0.0}

    async def run_op(op, traced):
        tracer.op = None
        name = "service.submit_hit"
        if op["kind"] == "cold":
            name = "analysis.study"
            if traced:
                tracer.op = op["op"] = len(tracer.named(name))
        with instrument(tracer) if traced else contextlib.nullcontext():
            started = time.perf_counter()
            with tracer.span(name) if traced else contextlib.nullcontext():
                if op["kind"] == "hit":
                    record = await service.submit(json.dumps(op["spec"]))
                else:
                    payload = run_replicate_study(StudySpec.from_dict(op["spec"]),
                                                  executor=executor).to_payload()
            spent[traced] += time.perf_counter() - started
        if op["kind"] == "hit" and not record.cached:
            checker.fail("in-process replay of a hit missed the cache")
        if op["kind"] == "cold" and (payload_digest(payload)
                                     != reference["specs"][op["key"]]["digest"]):
            checker.fail(f"in-process replay of {op['spec']['circuit']} "
                         "differs from the reference")

    async def replay_all():
        for index, op in enumerate(replays):
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                await run_op(op, traced)

    asyncio.run(replay_all())
    report["replayed"] = [{**op, "index": None} for op in colds]
    report["overhead_pct"] = 100.0 * (spent[True] / spent[False] - 1.0)


# -- metrics ----------------------------------------------------------------------


def end_to_end(report) -> tuple:
    """``(gated, reported)``: the metrics BENCHMARK.json gates, and the rest.

    ``study_p50_s`` is the median of the ops that simulate (every verify op,
    the service's cold requests); cache hits have their own median, never a
    median over the bimodal mix.  Throughput is the work of every measured op
    over the summed latency of every measured op, so a stall in any op counts.
    """
    ops = report["ops"]
    busy = sum(op["latency"] for op in ops)
    slow = [op["latency"] for op in ops if op.get("kind", "study") in ("study", "cold")]
    gated = {
        "setup_s": statistics.median(report["setup"]),
        "study_p50_s": statistics.median(slow),
        "replicates_per_s": sum(op["replicates"] for op in ops) / busy,
        "peak_rss_mb": report["rss"],
    }
    reported = {
        "requests_per_s": (len(ops) / busy, "1/s"),
    }
    hits = [op["latency"] for op in ops if op.get("kind") == "hit"]
    if hits:
        reported["hit_p50_s"] = (statistics.median(hits), "s")
        reported["hit_share_pct"] = (100.0 * sum(hits) / busy, "%")
    return gated, reported


def per_layer(report, workload, reference) -> dict:
    metrics = {name: 0.0 for name in PER_LAYER}
    tracer = report["tracer"]
    checker = report["checker"]
    traced = report["traced"]
    total = tracer.totals

    ssa = total("stochastic.ssa")
    studies = total("analysis.study")
    ensemble = total("engine.run_ensemble")
    if ssa["n"]:
        metrics["stochastic.ssa.us_per_event"] = ssa["self"] / ssa["events"] * 1e6
        metrics["stochastic.ssa.events"] = ssa["events"]
        metrics["stochastic.ssa.study_share_pct"] = 100.0 * ssa["self"] / studies["total"]
        # Exact-count guard: every traced study fires exactly the reference's
        # SSA events, or the run is invalid.
        for op in report.get("replayed", traced):
            events = sum(s.counts.get("events", 0) for s in tracer.named("stochastic.ssa")
                         if s.op == op["op"])
            expected = sum(reference["specs"][op["key"]]["events"])
            if events != expected:
                checker.fail(f"{op['spec']['circuit']}: {events} SSA events, "
                             f"reference {expected}", op.get("index"))
    if studies["n"]:
        overhead = studies["total"] - ensemble["total"]
        metrics["analysis.study_overhead_ms"] = overhead / studies["n"] * 1e3
        metrics["engine.ensemble_self_ms"] = ensemble["self"] / studies["n"] * 1e3
    compile_ = total("stochastic.compile")
    if compile_["n"]:
        metrics["stochastic.compile_ms"] = compile_["total"] / compile_["n"] * 1e3
    study_ops = [op for op in traced if "hits" in op]
    lookups = sum(op["hits"] + op["misses"] for op in study_ops)
    if lookups:
        metrics["engine.cache_hit_ratio"] = sum(op["hits"] for op in study_ops) / lookups
    analyze = total("core.analyze")
    if analyze["n"]:
        metrics["core.analyze_ms"] = analyze["self"] / analyze["n"] * 1e3
        metrics["core.samples_per_s"] = analyze["samples"] / analyze["self"]
    datalog = total("vlab.datalog")
    if datalog["n"]:
        metrics["vlab.datalog_ms"] = datalog["self"] / datalog["n"] * 1e3

    batch = total("stochastic.batch")
    if batch["n"]:
        # simulate_ssa_batch reports no event count, so the denominator is
        # the reference's: bit-identity makes the batch fire exactly those.
        payload = total("engine.worker_payload")
        metrics["stochastic.batch.us_per_event"] = batch["self"] / payload["reference_events"] * 1e6
        metrics["engine.worker_payload_ms"] = payload["total"] / payload["n"] * 1e3
        for layer in ("compile", "encode"):
            spent = total(f"engine.worker_{layer}")["total"]
            metrics[f"engine.worker_{layer}_ms"] = spent / payload["n"] * 1e3
    decode = total("engine.decode_batch")
    if decode["n"]:
        metrics["engine.decode_batch_ms"] = decode["total"] / decode["n"] * 1e3
        metrics["engine.frame_bytes_per_replicate"] = decode["frame_bytes"] / decode["replicates"]
        for op in traced:
            spans = [s for s in tracer.named("engine.decode_batch") if s.op == op["op"]]
            measured = sorted(int(s.counts["frame_bytes"]) for s in spans)
            if measured != sorted(reference["specs"][op["key"]]["frame_bytes"]):
                checker.fail(f"{op['spec']['circuit']}: frame bytes {measured} differ "
                             "from the reference", op["index"])

    key_spans = tracer.named("engine.spec.cache_key")
    if key_spans:
        metrics["engine.spec.cache_key_ms"] = statistics.mean(s.duration for s in key_spans) * 1e3
    resolve = tracer.named("gates.resolve_circuit")
    if resolve:
        metrics["gates.resolve_circuit_ms"] = statistics.mean(s.duration for s in resolve) * 1e3

    if workload == "service_mixed":
        hits = [op["latency"] for op in traced if op["kind"] == "hit"]
        submit = [s.duration for s in tracer.named("service.submit_hit")]
        metrics["service.hit_p50_ms"] = statistics.median(hits) * 1e3
        metrics["service.submit_hit_ms"] = statistics.median(submit) * 1e3
        metrics["service.http_overhead_ms"] = (metrics["service.hit_p50_ms"]
                                               - metrics["service.submit_hit_ms"])
        stats = report["stats"]
        metrics["service.cache.hits"] = stats["cache"]["hits"]
        metrics["service.cache.misses"] = stats["cache"]["misses"]
        metrics["service.cache.hit_ratio"] = stats["cache"]["hit_rate"] or 0.0
        metrics["service.studies.failed"] = stats["studies"]["failed"]
        metrics["service.studies.rejected"] = stats["studies"]["rejected"]
        metrics["trace.overhead_pct"] = report["overhead_pct"]
    else:
        untraced = sum(op["latency"] for op in report["ops"])
        traced_sum = sum(op["latency"] for op in traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_sum / untraced - 1.0)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["host.calib_ms"] = report["calib_ms"]
    return metrics


# -- entry point ------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no genlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args.setup_probe)
    if args.workload is None:
        parser.error("--workload is required")
    adopt_orphans()
    try:
        return run(args)
    finally:
        stop_children()


def run(args) -> int:
    from reference import load

    reference = load()
    keys = spec_keys(args.workload)
    if any(key not in reference["specs"] for key in keys.values()):
        print("perfbench: reference.json does not cover this workload's specs; "
              "run python3 perfbench/reference.py", file=sys.stderr)
        return 2

    calib_ms = calibrate()
    started = time.perf_counter()
    if args.workload == "service_mixed":
        report = run_service(args, reference, keys)
    else:
        report = run_verify(args, reference, keys)
    report["calib_ms"] = calib_ms
    checker = report["checker"]

    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        dump = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        report["tracer"].dump(dump)
        metrics, units, reported = per_layer(report, args.workload, reference), PER_LAYER, {}
    else:
        metrics, reported = end_to_end(report)
        units = END_TO_END

    ops = report["ops"] + report.get("traced", [])
    specs = [reference["specs"][op["key"]] for op in ops if op["replicates"]]
    if "stats" in report:
        cache = report["stats"]["cache"]
        caches = f"service cache {cache['hits']} hits / {cache['misses']} misses"
    else:
        caches = (f"engine model cache {sum(op.get('hits', 0) for op in ops)} hits / "
                  f"{sum(op.get('misses', 0) for op in ops)} misses")
        if args.workload == "verify_pool_batched":
            # Either worker may take a batch, so a pool's counts are not exact.
            caches += " (worker-side, not exact)"
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops in "
          f"{len({op['pass'] for op in ops})} passes, {time.perf_counter() - started:.1f} s")
    # Measured counts: for one seed they repeat on every run of the same code.
    print(f"counts: op stream {stream_digest(checker.keys)}, {caches}")
    if args.trace:
        ssa = report["tracer"].totals("stochastic.ssa").get("events", 0)
        frames = report["tracer"].totals("engine.decode_batch").get("frame_bytes", 0)
        print(f"counts in traced studies: SSA events {int(ssa)}, frame bytes {int(frames)}")
    print(f"expected from reference.json for all ops: "
          f"SSA events {sum(sum(spec['events']) for spec in specs)}, "
          f"frame bytes {sum(sum(spec.get('frame_bytes', [])) for spec in specs)}")
    print(f"host.calib_ms = {calib_ms:.4f} ms")
    if args.trace:
        print(f"span dump {os.path.relpath(dump, ROOT)}")
    for message in checker.errors:
        print(f"error: {message}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit) in reported.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"error_ratio = {checker.error_ratio:.6g} ratio "
          f"({checker.failed} failed or mismatched of {checker.attempted})")
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": max(checker.attempted, 1),
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
