"""Closed-loop load generator, run as its own process.

Usage (driven by ``perfbench/run.py`` over stdin/stdout)::

    python3 perfbench/loadgen.py --workload serve_point --seed 1 \
        --port 8321 --seconds 28

It sends the warm-up ops, prints ``warm`` and waits for ``go`` on
stdin; then :data:`CLIENTS` threads each send their next request only
after the previous one completed, until ``--seconds`` have passed. It
prints ``done`` and one JSON line: per-op records (index, endpoint,
status, client latency, SHA-256 of the body, request id, transport
error, completion time), the phase start (``time.perf_counter``, which
is CLOCK_MONOTONIC and so comparable across processes), its wall time and this process's own CPU-busy fraction,
so a saturated generator shows instead of posing as a slow server.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import RequestStream  # noqa: E402

from repro.serve import ServeClient  # noqa: E402

#: Closed-loop clients (threads, one connection each) on a 2-core host.
CLIENTS = 2
#: A request without an answer after this long counts as a failed op.
TIMEOUT_S = 30.0


def _send(client: ServeClient, endpoint: str, body: Dict[str, Any]):
    start = time.perf_counter()
    try:
        response = client.post(f"/{endpoint}", body)
    except (OSError, http.client.HTTPException) as error:  # incl. timeout
        elapsed = (time.perf_counter() - start) * 1000.0
        return None, elapsed, "", "", f"{type(error).__name__}: {error}"
    elapsed = (time.perf_counter() - start) * 1000.0
    return (
        response.status,
        elapsed,
        hashlib.sha256(response.body).hexdigest(),
        response.request_id,
        "",
    )


def run_warmup(stream: RequestStream, client: ServeClient, clients: int) -> int:
    """Send every warm-up op (``clients`` at a time); return failures."""
    ops = stream.warmup()
    failures = [0] * clients

    def worker(slot: int) -> None:
        for endpoint, body in ops[slot::clients]:
            status = _send(client, endpoint, body)[0]
            if status != 200:
                failures[slot] += 1

    threads = [
        threading.Thread(target=worker, args=(slot,)) for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(failures)


def run_timed(
    stream: RequestStream, client: ServeClient, clients: int, seconds: float
) -> Dict[str, Any]:
    counter = itertools.count()
    lock = threading.Lock()
    records: List[List[Any]] = []
    start = time.perf_counter()
    deadline = start + seconds
    cpu_start = time.process_time()

    def worker() -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter)
            endpoint, body = stream.request(index)
            status, latency, digest, request_id, error = _send(
                client, endpoint, body
            )
            with lock:
                records.append([
                    index, endpoint, status, latency, digest, request_id,
                    error, time.perf_counter() - start,
                ])

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    records.sort(key=lambda record: record[0])
    return {
        "records": records,
        "start": start,
        "wall_s": wall,
        "cpu_busy_frac": (time.process_time() - cpu_start) / wall,
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    stream = RequestStream(args.workload, args.seed)
    client = ServeClient("127.0.0.1", args.port, timeout=TIMEOUT_S)
    warmup_failed = run_warmup(stream, client, CLIENTS)
    print("warm", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 1
    result = run_timed(stream, client, CLIENTS, args.seconds)
    result["warmup_failed"] = warmup_failed
    print("done", flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
