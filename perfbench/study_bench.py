"""The scenario_study workload: the offline analyst path, no HTTP.

The harness launches ``study_proc.py`` as the system-under-test
process (set-up = imports plus building the inputs, timed to its
``ready`` line, median of :data:`SETUP_LAUNCHES` launches), reads its
CPU and peak RSS from ``/proc`` around the timed phase, and has it
check every op against the looped oracle afterwards.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List

from common import (
    cpu_seconds,
    host_ticks,
    median,
    peak_rss_mb,
    reconcile,
    run_result,
    steal_frac,
    stop_process,
    sut_env,
    tail_latency,
)

SETUP_LAUNCHES = 5
HERE = os.path.dirname(os.path.abspath(__file__))


class StudyProcess:
    """One study process answering one JSON line per command."""

    def __init__(self, root: str, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.proc: subprocess.Popen = None  # type: ignore[assignment]

    def start(self) -> float:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "study_proc.py"),
             "--seed", str(self.seed)],
            cwd=self.root, env=sut_env(self.root), text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self.proc.stdout.readline().strip() != "ready":
            raise RuntimeError("study process failed during set-up")
        return time.perf_counter() - start

    def call(self, command: str) -> Dict[str, Any]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"study process died on {command!r}")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(reply["error"])
        return reply

    def quit(self) -> int:
        self.proc.stdin.write("quit\n")
        self.proc.stdin.flush()
        return self.proc.wait(30.0)


def _timed(study: StudyProcess, seconds: float, traced: bool, first: int):
    """One timed phase; CPU of the study process is read at its edges."""
    ticks = host_ticks()
    cpu_before = cpu_seconds(study.proc.pid)
    phase = study.call(f"run {seconds} {int(traced)} {first}")
    phase["cpu_s"] = cpu_seconds(study.proc.pid) - cpu_before
    phase["host_steal_frac"] = steal_frac(ticks, host_ticks())
    phase["peak_rss_mb"] = peak_rss_mb(study.proc.pid)
    return phase


def _end_to_end(phase: Dict[str, Any]) -> Dict[str, float]:
    latencies = [op["latency_ms"] for op in phase["ops"]]
    tail, label = tail_latency(latencies)
    phase["tail_label"] = label
    return {
        "throughput_ops_s": len(latencies) / phase["wall_s"],
        "latency_p50_ms": median(latencies),
        "latency_p99_ms": tail,
        "cpu_ms_per_op": phase["cpu_s"] * 1000.0 / len(latencies),
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def run(
    seed: int, seconds: float, trace: bool, root: str, workdir: str
) -> Dict[str, Any]:
    studies: List[StudyProcess] = []
    exit_codes: List[int] = []
    try:
        if not trace:
            setups = []
            for launch in range(SETUP_LAUNCHES):
                study = StudyProcess(root, seed)
                studies.append(study)
                setups.append(study.start())
                if launch < SETUP_LAUNCHES - 1:
                    exit_codes.append(study.quit())
            study.call("warmup")
            phase = _timed(study, seconds, False, 0)
            check = study.call("check")
        else:
            study = StudyProcess(root, seed)
            studies.append(study)
            study.start()
            study.call("warmup")
            base = _timed(study, max(seconds / 2.0, 1.0), False, 0)
            phase = _timed(study, seconds, True, 1000)
            check = study.call("check")
            evaluate_ms = median(
                [op["layers_ms"]["evaluate"] for op in phase["ops"]]
            )
            probe = study.call(f"probe {evaluate_ms}")
        exit_codes.append(study.quit())
    finally:
        for study in studies:
            stop_process(study.proc)

    ops = len(phase["ops"])
    failed_ops = {failure["index"] for failure in check["failures"]}
    details: Dict[str, Any] = {
        "check": check,
        "study_exit_codes": exit_codes,
    }
    correct = not check["failures"] and all(code == 0 for code in exit_codes)
    e2e = _end_to_end(phase)
    details["tail_label"] = phase["tail_label"]
    details["op_latencies_ms"] = [op["latency_ms"] for op in phase["ops"]]
    details["host_steal_frac"] = phase["host_steal_frac"]
    if not trace:
        metrics = dict(e2e, setup_s=median(setups))
        details["setup_s_each"] = setups
        return run_result(correct, check["checked"], len(failed_ops), metrics, details)

    untraced_p50 = _end_to_end(base)["latency_p50_ms"]
    layers: Dict[str, List[float]] = {
        "total": [], "sample": [], "evaluate": [], "summarize": [], "other": [],
    }
    for op in phase["ops"]:
        named = {k: op["layers_ms"].get(k, 0.0) for k in ("sample", "evaluate", "summarize")}
        layers["total"].append(op["latency_ms"])
        for name, value in named.items():
            layers[name].append(value)
        layers["other"].append(op["latency_ms"] - sum(named.values()))
    metrics = {
        "montecarlo.spec.sample_ms": median(layers["sample"]),
        "engine.scenario.evaluate_ms": median(layers["evaluate"]),
        "montecarlo.results.summarize_ms": median(layers["summarize"]),
        "montecarlo.results.summaries_per_op": median(
            [op["summaries"] for op in phase["ops"]]
        ),
        "montecarlo.scenario_study.other_ms": median(layers["other"]),
        "engine.invariants.hit_ratio": phase["invariants_hit_ratio"],
        "engine.invariants.evictions": phase["invariants_evictions"],
        "engine.kernel_calls_per_op": phase["kernel_calls"] / ops,
        "tracing_overhead_frac": (
            e2e["latency_p50_ms"] - untraced_p50
        ) / untraced_p50,
    }
    metrics.update(probe)
    details.update(
        untraced_p50_ms=untraced_p50,
        traced_end_to_end=e2e,
        reconciliation=reconcile(layers, "total"),
    )
    return run_result(correct, check["checked"], len(failed_ops), metrics, details)
