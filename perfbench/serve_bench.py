"""The serve workloads: ``ttm-cas serve --workers 2`` driven from outside.

The harness launches the server as a subprocess, drives it from the
load-generator process (``loadgen.py``), reads CPU and peak RSS of the
router and both workers from ``/proc``, scrapes ``/metrics``, reads the
``--log-json`` request log in the traced run, and recomputes reference
responses through the public ``repro.serve.protocol`` functions after
the timed phase. Every server is stopped with SIGINT and must exit 0,
leave no worker alive and no new ``/dev/shm`` segment behind.

On a shared host other tenants' load shows up as hypervisor steal and
slowed windows, so the end-to-end figures are taken where the host left
the program alone: throughput and CPU/op over the fastest windows of the
timed phase, latency percentiles over the ops no steal touched (see
:data:`KEPT_WINDOWS` and :data:`STEAL_PROBE_S`). The whole-phase figures
are written to the result file beside them.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    CallTimer,
    OpTally,
    cpu_seconds,
    family_sum,
    host_ticks,
    mean,
    median,
    peak_rss_mb,
    pid_alive,
    reconcile,
    run_result,
    scrape,
    scrape_delta,
    shm_entries,
    steal_frac,
    stop_process,
    sut_env,
    tail_latency,
)
from workloads import RequestStream, rng_for

WORKERS = 2
SETUP_LAUNCHES = 3
#: The timed phase is cut into this many equal windows; the SUT's CPU
#: time and the host's steal ticks are read at every window edge.
WINDOWS = 14
#: Throughput and CPU/op are medians over the windows in which the
#: server completed the most ops — this many of :data:`WINDOWS`.
#: Interference from other tenants of a shared host only ever slows a
#: window down, so the fastest windows vary least between runs.
KEPT_WINDOWS = 5
#: The harness reads the host's steal counter this often (seconds)
#: during the timed phase. An op is *undisturbed* when the counter did
#: not move between the last read before it started and the first read
#: after it ended: the hypervisor ran nobody else on our vCPUs while it
#: was in flight. The latency percentiles are over undisturbed ops.
STEAL_PROBE_S = 0.02
#: Below this many undisturbed ops the latency percentiles fall back to
#: every successful op (and the result file says so).
MIN_UNDISTURBED = 200
#: Explore responses checked against a solo reference per run.
EXPLORE_CHECKS = 96
BATCHED = ("evaluate", "mc", "splits", "scenarios")
HERE = os.path.dirname(os.path.abspath(__file__))


class Server:
    """One ``ttm-cas serve --workers 2`` process and its clean-stop check."""

    def __init__(self, root: str, workdir: str, tag: str, log_json: str = ""):
        self.root = root
        self.workdir = workdir
        self.tag = tag
        self.log_json = log_json
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.worker_pids: List[int] = []
        self._shm_before = frozenset()

    @property
    def pids(self) -> List[int]:
        return [self.proc.pid, *self.worker_pids]

    def start(self) -> float:
        """Launch and wait until ready with every worker live; return
        the set-up time in seconds."""
        from repro.serve import ServeClient

        ready = os.path.join(self.workdir, f"ready-{self.tag}")
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--workers", str(WORKERS), "--port", "0", "--ready-file", ready,
        ]
        if self.log_json:
            command += ["--log-json", self.log_json]
        self._shm_before = shm_entries()
        with open(os.path.join(self.workdir, f"server-{self.tag}.out"), "w") as out:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                command, cwd=self.root, env=sut_env(self.root),
                stdout=out, stderr=subprocess.STDOUT,
            )
        deadline = start + 90.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not become ready in 90 s")
            if os.path.exists(ready):
                with open(ready) as handle:
                    text = handle.read()
                if text.endswith("\n"):
                    self.port = int(text.split()[1])
                    break
            time.sleep(0.002)
        client = ServeClient("127.0.0.1", self.port, timeout=5.0)
        while True:
            try:
                health = client.get("/healthz").json()
            except (OSError, ValueError):
                health = {}
            live = [
                w for w in health.get("workers", ())
                if w.get("alive") and w.get("status") == "ok"
            ]
            if len(live) == WORKERS:
                setup = time.perf_counter() - start
                self.worker_pids = [int(w["pid"]) for w in live]
                return setup
            if time.perf_counter() > deadline:
                raise RuntimeError("workers did not come up in 90 s")
            time.sleep(0.002)

    def metrics(self) -> Dict[str, float]:
        from repro.serve import ServeClient

        response = ServeClient("127.0.0.1", self.port, timeout=10.0).get("/metrics")
        return scrape(response.body.decode())

    def stop(self) -> List[str]:
        """SIGINT, then the clean-shutdown check; returns violations."""
        violations: List[str] = []
        self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(30.0)
        except subprocess.TimeoutExpired:
            violations.append("server did not exit within 30 s of SIGINT")
            stop_process(self.proc)
            code = self.proc.returncode
        if code != 0:
            violations.append(f"server exit code {code}")
        deadline = time.perf_counter() + 5.0
        for pid in self.worker_pids:
            while pid_alive(pid) and time.perf_counter() < deadline:
                time.sleep(0.01)
            if pid_alive(pid):
                violations.append(f"worker pid {pid} survived")
                os.kill(pid, signal.SIGKILL)
        leaked = sorted(shm_entries() - self._shm_before)
        if leaked:
            violations.append(f"leaked /dev/shm segments {leaked}")
        return violations

    def kill(self) -> None:
        """Last-resort cleanup when a run aborts."""
        if self.proc is not None:
            stop_process(self.proc)
        for pid in self.worker_pids:
            if pid_alive(pid):
                os.kill(pid, signal.SIGKILL)


def _drive(
    server: Server, workload: str, seed: int, seconds: float, scrape_metrics: bool
) -> Dict[str, Any]:
    """Warm up, then one timed closed-loop phase; CPU and RSS of the
    router and workers are read at the phase edges."""
    loadgen = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "loadgen.py"),
            "--workload", workload, "--seed", str(seed),
            "--port", str(server.port), "--seconds", str(seconds),
        ],
        cwd=server.root, env=sut_env(server.root),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        if loadgen.stdout.readline().strip() != "warm":
            raise RuntimeError("load generator failed during warm-up")
        before = server.metrics() if scrape_metrics else {}
        marks = [_mark(server)]
        loadgen.stdin.write("go\n")
        loadgen.stdin.flush()
        window = seconds / WINDOWS
        probes = [(marks[0][0], marks[0][2][0])]
        for k in range(1, WINDOWS + 1):
            edge = marks[0][0] + k * window
            while time.perf_counter() < edge:
                time.sleep(min(STEAL_PROBE_S, max(0.0, edge - time.perf_counter())))
                probes.append((time.perf_counter(), host_ticks()[0]))
            marks.append(_mark(server))
        if loadgen.stdout.readline().strip() != "done":
            raise RuntimeError("load generator failed during the timed phase")
        # Every op still in flight at the last window edge has ended now.
        probes.append((time.perf_counter(), host_ticks()[0]))
        cpu = _sut_cpu(server) - marks[0][1]
        steal = steal_frac(marks[0][2], host_ticks())
        result = json.loads(loadgen.stdout.readline())
        after = server.metrics() if scrape_metrics else {}
        rss = sum(peak_rss_mb(pid) for pid in server.pids)
        loadgen.wait(30.0)
    finally:
        stop_process(loadgen)
    result["sut_cpu_s"] = cpu
    result["host_steal_frac"] = steal
    result["cpu_marks"] = marks
    result["steal_probes"] = probes
    result["peak_rss_mb"] = rss
    result["metrics_delta"] = scrape_delta(before, after)
    return result


def _sut_cpu(server: Server) -> float:
    return sum(cpu_seconds(pid) for pid in server.pids)


def _mark(server: Server) -> Tuple[float, float, Tuple[int, int]]:
    return time.perf_counter(), _sut_cpu(server), host_ticks()


def _windows(phase: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Each window between two marks: its successful ops per second,
    SUT CPU ms per op, host steal fraction and the client latencies of
    the successful ops that completed inside it."""
    ends = [
        (phase["start"] + r[7], r[3]) for r in phase["records"] if r[2] == 200
    ]
    out = []
    marks = phase["cpu_marks"]
    for (t0, c0, s0), (t1, c1, s1) in zip(marks, marks[1:]):
        latencies = [lat for end, lat in ends if t0 <= end < t1]
        ops = len(latencies)
        out.append({
            "ops_s": ops / (t1 - t0),
            "cpu_ms_per_op": (c1 - c0) * 1000.0 / max(ops, 1),
            "steal": steal_frac(s0, s1),
            "latencies": latencies,
        })
    return out


def undisturbed(
    spans: List[Tuple[float, float, float]], probes: List[Tuple[float, int]]
) -> List[float]:
    """The latencies of the ``(start, end, latency)`` spans during which
    the steal counter read by ``probes`` (``(time, steal ticks)``, in
    time order) did not move."""
    times = [t for t, _ in probes]
    out = []
    for start, end, latency in spans:
        before = bisect.bisect_right(times, start) - 1
        after = bisect.bisect_left(times, end)
        if 0 <= before and after < len(probes):
            if probes[after][1] == probes[before][1]:
                out.append(latency)
    return out


def kept_windows(windows: List[Dict[str, Any]], keep: int) -> List[int]:
    """Indices of the ``keep`` windows with the most completed ops
    (earlier first on ties), in time order."""
    ranked = sorted(range(len(windows)), key=lambda i: (-windows[i]["ops_s"], i))
    return sorted(ranked[:keep])


# -- correctness ----------------------------------------------------------------


class Reference:
    """Solo responses through the public protocol functions, timed per
    layer: ``parse_request`` -> ``execute_batch`` -> ``canonical_json``."""

    def __init__(self) -> None:
        from repro.serve.protocol import ServeState

        self.state = ServeState()
        self.parse_s: List[float] = []
        self.encode_s: List[float] = []
        self.execute_s: Dict[str, List[float]] = {}
        self.response_bytes: List[int] = []

    def solo(self, endpoint: str, body: Dict[str, Any], warm: bool) -> str:
        import hashlib

        from repro.serve.protocol import canonical_json, execute_batch, parse_request

        # The client sends ``json.dumps(body)``; parse what arrives.
        wire = json.loads(json.dumps(body))
        if warm:  # the server's caches are warm for this body
            key, payload = parse_request(self.state, endpoint, wire)
            execute_batch(self.state, key, [payload])
        t0 = time.perf_counter()
        key, payload = parse_request(self.state, endpoint, wire)
        t1 = time.perf_counter()
        response = execute_batch(self.state, key, [payload])[0]
        t2 = time.perf_counter()
        encoded = canonical_json(response)
        t3 = time.perf_counter()
        self.parse_s.append(t1 - t0)
        self.execute_s.setdefault(endpoint, []).append(t2 - t1)
        self.encode_s.append(t3 - t2)
        self.response_bytes.append(len(encoded))
        return hashlib.sha256(encoded).hexdigest()


def check_responses(
    workload: str, seed: int, stream: RequestStream, records: List[list],
    tally: OpTally, reference: Reference,
) -> Dict[str, Any]:
    """Count every op, then compare response bytes with solo references:
    every op for serve_point (one reference per distinct body), a
    seeded sample of :data:`EXPLORE_CHECKS` for serve_explore."""
    ok = []
    for record in records:
        index, endpoint, status, _, digest, _, error = record[:7]
        if tally.record(status, error):
            ok.append(record)
    if workload == "serve_point":
        checked = ok
    else:
        rng = rng_for(seed, "explore-check")
        checked = sorted(
            rng.sample(ok, min(EXPLORE_CHECKS, len(ok))), key=lambda r: r[0]
        )
    expected: Dict[str, str] = {}
    mismatches = 0
    for index, endpoint, _, _, digest, *_ in checked:
        _, body = stream.request(index)
        body_key = endpoint + json.dumps(body, sort_keys=True)
        if body_key not in expected:
            expected[body_key] = reference.solo(
                endpoint, body, warm=workload == "serve_point"
            )
        if expected[body_key] != digest:
            mismatches += 1
    if mismatches:
        tally.mismatch(mismatches)
    return {"checked": len(checked), "mismatches": mismatches}


# -- per-layer numbers ----------------------------------------------------------


def _replay_routing(stream: RequestStream, records: List[list]) -> float:
    """Median µs of ``routing_key`` + ``rendezvous_worker`` per request."""
    from repro.serve.shard import rendezvous_worker, routing_key

    slots = list(range(WORKERS))
    times = []
    for index, *_ in records:
        endpoint, body = stream.request(index)
        wire = json.dumps(body).encode("utf-8")
        start = time.perf_counter()
        rendezvous_worker(routing_key(endpoint, wire), slots)
        times.append(time.perf_counter() - start)
    return median(times) * 1e6


def _log_layers(records: List[list], log_path: str) -> Dict[str, List[float]]:
    """Per-op layer times (ms) from the router and worker log records."""
    from repro.obs.log import read_request_log

    router: Dict[str, dict] = {}
    worker: Dict[str, dict] = {}
    for entry in read_request_log(log_path):
        if entry.get("endpoint") not in BATCHED:
            continue
        side = router if entry.get("role") == "router" else worker
        side[entry.get("request_id", "")] = entry
    layers: Dict[str, List[float]] = {
        k: [] for k in (
            "client", "unattributed", "hop", "queue", "batch_wait",
            "compute", "io",
        )
    }
    for _, _, status, latency, _, request_id, *_ in records:
        r, w = router.get(request_id), worker.get(request_id)
        if status != 200 or r is None or w is None or "breakdown" not in w:
            continue
        b = w["breakdown"]
        layers["client"].append(latency)
        layers["unattributed"].append(latency - r["latency_ms"])
        layers["hop"].append(r["latency_ms"] - w["latency_ms"])
        layers["queue"].append(b["queue_ms"])
        layers["batch_wait"].append(b["batch_wait_ms"])
        layers["compute"].append(b["compute_ms"])
        layers["io"].append(b["serialize_ms"])
    return layers


def _delta_layers(delta: Dict[str, float], ops: int) -> Dict[str, float]:
    workers = {"worker": [str(i) for i in range(WORKERS)]}
    per_worker = [
        family_sum(
            delta, "serve_requests_total",
            where={"worker": [str(i)], "endpoint": BATCHED},
        )
        for i in range(WORKERS)
    ]
    hits = family_sum(delta, "invariant_cache_hits_total", where=workers)
    misses = family_sum(delta, "invariant_cache_misses_total", where=workers)
    batches = family_sum(delta, "serve_batch_size_count", where=workers)
    return {
        "serve.shard.worker_share_max": (
            max(per_worker) / sum(per_worker) if sum(per_worker) else 0.0
        ),
        "serve.batcher.batch_size_mean": (
            family_sum(delta, "serve_batch_size_sum", where=workers) / batches
            if batches else 0.0
        ),
        "serve.batcher.rejected": family_sum(
            delta, "serve_rejected_total", where=workers
        ),
        "engine.invariants.hit_ratio": (
            hits / (hits + misses) if hits + misses else 1.0
        ),
        "engine.invariants.evictions": family_sum(
            delta, "invariant_cache_evictions_total", where=workers
        ),
        "engine.kernel_calls_per_op": family_sum(
            delta, "engine_kernel_invocations_total", where=workers
        ) / max(ops, 1),
    }


# -- the workload ---------------------------------------------------------------


def _end_to_end(phase: Dict[str, Any]) -> Dict[str, float]:
    """Throughput and CPU/op: medians over the :data:`KEPT_WINDOWS`
    fastest windows. Latency percentiles: over the undisturbed ops (every
    successful op when fewer than :data:`MIN_UNDISTURBED`). The figures
    over the whole phase go to the result file next to them."""
    windows = _windows(phase)
    kept = kept_windows(windows, KEPT_WINDOWS)
    ok = [r for r in phase["records"] if r[2] == 200]
    everything = [r[3] for r in ok]
    spans = [
        (phase["start"] + r[7] - r[3] / 1000.0, phase["start"] + r[7], r[3])
        for r in ok
    ]
    latencies = undisturbed(spans, phase["steal_probes"])
    basis = "undisturbed"
    if len(latencies) < MIN_UNDISTURBED:
        latencies, basis = everything, "all"
    tail, label = tail_latency(latencies)
    phase["latency_basis"] = {
        "ops": basis,
        "undisturbed_frac": len(latencies) / max(len(everything), 1),
        "tail_label": label,
    }
    phase["windows"] = {
        "kept": kept,
        "ops_s": [w["ops_s"] for w in windows],
        "cpu_ms_per_op": [w["cpu_ms_per_op"] for w in windows],
        "steal": [w["steal"] for w in windows],
    }
    phase["whole_phase"] = {
        "throughput_ops_s": len(everything) / phase["wall_s"],
        "cpu_ms_per_op": phase["sut_cpu_s"] * 1000.0 / max(len(everything), 1),
        "latency_p50_ms": median(everything),
        "latency_p99_ms": tail_latency(everything)[0],
    }
    return {
        "throughput_ops_s": median([windows[i]["ops_s"] for i in kept]),
        "latency_p50_ms": median(latencies),
        "latency_p99_ms": tail,
        "cpu_ms_per_op": median([windows[i]["cpu_ms_per_op"] for i in kept]),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def run(
    workload: str, seed: int, seconds: float, trace: bool, root: str, workdir: str
) -> Dict[str, Any]:
    stream = RequestStream(workload, seed)
    servers: List[Server] = []
    violations: List[str] = []
    try:
        if not trace:
            setups = []
            for launch in range(SETUP_LAUNCHES):
                server = Server(root, workdir, f"setup{launch}")
                servers.append(server)
                setups.append(server.start())
                if launch < SETUP_LAUNCHES - 1:
                    violations += server.stop()
            phase = _drive(server, workload, seed, seconds, scrape_metrics=False)
            violations += server.stop()
            metrics = _end_to_end(phase)
            metrics["setup_s"] = median(setups)
            details: Dict[str, Any] = {"setup_s_each": setups}
        else:
            # Untraced reference phase, then the traced (--log-json) one.
            plain = Server(root, workdir, "plain")
            servers.append(plain)
            plain.start()
            base = _drive(plain, workload, seed, max(seconds / 2.0, 2.0), False)
            violations += plain.stop()
            log_path = os.path.join(workdir, "requests.jsonl")
            server = Server(root, workdir, "traced", log_json=log_path)
            servers.append(server)
            server.start()
            phase = _drive(server, workload, seed, seconds, scrape_metrics=True)
            violations += server.stop()
            details = {"untraced_p50_ms": _end_to_end(base)["latency_p50_ms"]}
    except BaseException:
        for server in servers:
            server.kill()
        raise

    tally = OpTally()
    reference = Reference()
    timer = CallTimer()
    if trace:
        from repro.montecarlo.results import ExceedanceCurve, MetricSummary

        timer.patch(MetricSummary, "from_samples", "summarize")
        timer.patch(ExceedanceCurve, "from_samples", "summarize")
    with timer:
        check = check_responses(
            workload, seed, stream, phase["records"], tally, reference
        )
    details.update(
        check=check,
        clean_shutdown_violations=violations,
        loadgen_cpu_busy_frac=phase["cpu_busy_frac"],
        host_steal_frac=phase["host_steal_frac"],
        warmup_failed=phase["warmup_failed"],
        failed_reasons=dict(tally.failed_reasons),
    )
    correct = check["mismatches"] == 0 and not violations
    if not trace:
        details["latency_basis"] = phase["latency_basis"]
        details["windows"] = phase["windows"]
        details["whole_phase"] = phase["whole_phase"]
        details["ops_timed"] = len(phase["records"])
        return run_result(correct, tally.attempted, tally.failed, metrics, details)

    e2e = _end_to_end(phase)
    ops = len([r for r in phase["records"] if r[2] == 200])
    layers = _log_layers(phase["records"], log_path)
    sampled = {
        endpoint: len(times) for endpoint, times in reference.execute_s.items()
    }
    metrics = {
        "serve.shard.hop_ms_p50": median(layers["hop"]),
        "serve.shard.route_us": _replay_routing(stream, phase["records"]),
        "serve.batcher.queue_ms_p50": median(layers["queue"]),
        "serve.batcher.exec_wait_ms_p99": tail_latency(layers["batch_wait"])[0],
        "serve.server.compute_ms_p50": median(layers["compute"]),
        "serve.server.io_ms_p50": median(layers["io"]),
        "serve.protocol.parse_us": median(reference.parse_s) * 1e6,
        "serve.protocol.encode_us": median(reference.encode_s) * 1e6,
        "serve.protocol.response_bytes_mean": mean(reference.response_bytes),
        "serve.unattributed_ms_p50": median(layers["unattributed"]),
        "tracing_overhead_frac": (
            e2e["latency_p50_ms"] - details["untraced_p50_ms"]
        ) / details["untraced_p50_ms"],
    }
    for endpoint in BATCHED:
        metrics[f"serve.protocol.execute_ms.{endpoint}"] = (
            median(reference.execute_s.get(endpoint, [])) * 1000.0
        )
    metrics.update(_delta_layers(phase["metrics_delta"], ops))
    replays = sum(sampled.get(e, 0) for e in ("mc", "scenarios"))
    if replays:
        metrics["montecarlo.results.summarize_ms"] = (
            timer.seconds.get("summarize", 0.0) * 1000.0 / replays
        )
        metrics["montecarlo.results.summaries_per_op"] = (
            timer.calls["summarize"] / replays
        )
    details.update(
        traced_end_to_end=e2e,
        replayed_per_endpoint=sampled,
        reconciliation=reconcile(layers, "client"),
        ops_timed=len(phase["records"]),
        ops_with_log_records=len(layers["client"]),
    )
    return run_result(correct, tally.attempted, tally.failed, metrics, details)
