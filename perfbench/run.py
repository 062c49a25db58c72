"""The repo benchmark: one command, three workloads, measured from outside.

Run from the repository root::

    python3 perfbench/run.py --workload serve_point --seed 1 --seconds 28 --trace 0

Workloads (see ``workloads.py`` for the inputs and ``BENCHMARK.json``
for why each was chosen): ``serve_point`` and ``serve_explore`` drive
``ttm-cas serve --workers 2`` from a separate load-generator process;
``scenario_study`` runs ``run_scenario_study`` in a separate process.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` is the
separate traced run and prints every per-layer metric (a layer the
workload never enters reads 0 and is listed under ``not_exercised``).
The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result — provenance,
failure reasons, clean-shutdown check, reconciliation table — is written
to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

#: Hard cap on one run, so a hung server cannot outlive the contract.
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "serve.shard.hop_ms_p50": "ms",
    "serve.shard.route_us": "us",
    "serve.shard.worker_share_max": "ratio",
    "serve.batcher.queue_ms_p50": "ms",
    "serve.batcher.exec_wait_ms_p99": "ms",
    "serve.batcher.batch_size_mean": "count",
    "serve.batcher.rejected": "count",
    "serve.server.compute_ms_p50": "ms",
    "serve.server.io_ms_p50": "ms",
    "serve.protocol.parse_us": "us",
    "serve.protocol.encode_us": "us",
    "serve.protocol.response_bytes_mean": "bytes",
    "serve.protocol.execute_ms.evaluate": "ms",
    "serve.protocol.execute_ms.mc": "ms",
    "serve.protocol.execute_ms.splits": "ms",
    "serve.protocol.execute_ms.scenarios": "ms",
    "serve.unattributed_ms_p50": "ms",
    "engine.invariants.hit_ratio": "ratio",
    "engine.invariants.evictions": "count",
    "engine.kernel_calls_per_op": "count",
    "engine.portfolio.compile_ms": "ms",
    "engine.scenario.evaluate_ms": "ms",
    "engine.scenario.ns_per_point": "ns",
    "engine.scenario.ttm_ms": "ms",
    "engine.scenario.cas_ms": "ms",
    "engine.scenario.cost_ms": "ms",
    "engine.scenario.alloc_peak_mb": "MiB",
    "engine.scenario.result_mb": "MiB",
    "montecarlo.spec.sample_ms": "ms",
    "montecarlo.results.summarize_ms": "ms",
    "montecarlo.results.summaries_per_op": "count",
    "montecarlo.scenario_study.other_ms": "ms",
    "tracing_overhead_frac": "ratio",
}


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_TIMEOUT_S} s")


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str):
    workdir = os.path.join(
        root, ".perfbench_out", f"work-{workload}-{seed}-{os.getpid()}"
    )
    os.makedirs(workdir, exist_ok=True)
    try:
        if workload == "scenario_study":
            import study_bench

            result = study_bench.run(seed, seconds, trace, root, workdir)
        else:
            import serve_bench

            result = serve_bench.run(workload, seed, seconds, trace, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(1, src)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)

    started = time.perf_counter()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    wanted = PER_LAYER if args.trace else END_TO_END
    measured = result["metrics"]
    unknown = set(measured) - set(wanted)
    if unknown:
        raise RuntimeError(f"unlisted metrics {sorted(unknown)}")
    details = result["details"]
    details["not_exercised"] = sorted(set(wanted) - set(measured))
    details["succeeded"] = result["attempted"] - result["failed"]

    from common import provenance

    details["provenance"] = provenance(root, args.workload, args.seed)
    details["run_wall_s"] = time.perf_counter() - started
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in wanted.items()
    }
    summary = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    out_dir = os.path.join(root, ".perfbench_out")
    path = os.path.join(
        out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as handle:
        json.dump(dict(summary, details=details), handle, indent=2, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace} -> {path}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    reconciliation = details.get("reconciliation")
    if reconciliation:
        print(f"  reconciliation vs p50 {reconciliation['end_to_end_p50_ms']:.3f} ms:")
        for row, value in reconciliation["rows_ms"].items():
            print(f"    {row:<16} {value:>10.3f} ms")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
