"""Shared helpers of the benchmark: statistics, op accounting, process
probes read from ``/proc``, Prometheus-text deltas and run provenance.

Nothing here imports :mod:`repro` at module level, so the load
generator and the tests can use it without paying for the engine.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: A tail percentile is reported only with this many samples beyond it.
TAIL_MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) / 100.0))
    return float(ordered[rank - 1])


def supported_tail(values: Sequence[float], q: float = 99.0) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when fewer than
    :data:`TAIL_MIN_BEYOND` samples lie beyond it."""
    if len(values) * (1.0 - q / 100.0) < TAIL_MIN_BEYOND:
        return None
    return percentile(values, q)


def tail_latency(values: Sequence[float], q: float = 99.0) -> Tuple[float, str]:
    """``(value, label)`` of the highest percentile up to ``q`` that has
    :data:`TAIL_MIN_BEYOND` samples beyond it; the sample maximum
    (label ``max``) when not even that exists."""
    exact = supported_tail(values, q)
    if exact is not None:
        return exact, f"p{q:g}"
    n = len(values)
    if n <= TAIL_MIN_BEYOND:
        return (max(values) if values else 0.0), "max"
    q_supported = 100.0 * (1.0 - TAIL_MIN_BEYOND / n)
    return percentile(values, q_supported), f"p{q_supported:.2f}"


@dataclass
class OpTally:
    """Attempted/succeeded/failed ops with the reason of every failure.

    An op fails on a non-2xx status, a transport error or timeout, or an
    output that does not match its reference.
    """

    attempted: int = 0
    failed_reasons: Counter = field(default_factory=Counter)

    def record(self, status: Optional[int], error: str = "") -> bool:
        """Count one op; return whether it succeeded on the wire."""
        self.attempted += 1
        if error:
            self.failed_reasons["transport"] += 1
            return False
        if status is None or not 200 <= status < 300:
            self.failed_reasons[f"http_{status}"] += 1
            return False
        return True

    def mismatch(self, count: int = 1) -> None:
        """Count ``count`` ops whose output failed its correctness check."""
        self.failed_reasons["mismatch"] += count

    @property
    def failed(self) -> int:
        return sum(self.failed_reasons.values())

    @property
    def succeeded(self) -> int:
        return self.attempted - self.failed


def run_result(
    correct: bool, attempted: int, failed: int,
    metrics: Dict[str, float], details: Dict[str, Any],
) -> Dict[str, Any]:
    """What a workload module hands back to ``run.py``."""
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
    }


def reconcile(layers: Dict[str, List[float]], total: str) -> Dict[str, Any]:
    """Decompose the median op: mean self time of each layer over the ops
    whose ``total`` lies between its 45th and 55th percentiles, with the
    remainder to the end-to-end p50 as its own row."""
    totals = layers[total]
    n = len(totals)
    order = sorted(range(n), key=totals.__getitem__)
    band = order[int(0.45 * n): max(int(0.55 * n), int(0.45 * n) + 1)]
    p50 = median(totals)
    rows = {
        name: mean([values[i] for i in band])
        for name, values in layers.items() if name != total
    }
    remainder = p50 - sum(rows.values())
    rows["remainder"] = remainder
    return {
        "end_to_end_p50_ms": p50,
        "rows_ms": rows,
        "band_ops": len(band),
        "remainder_frac": remainder / p50 if p50 else 0.0,
        "reconciled": abs(remainder) <= 0.05 * p50,
    }


# -- process probes -------------------------------------------------------------

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """user + sys CPU seconds of one live process, from /proc."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # fields[0] is the state (field 3 of stat); utime/stime are 14/15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state not in ("Z", "X")


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the whole host from /proc/stat.
    Steal is time the hypervisor ran someone else on our vCPUs."""
    with open("/proc/stat") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def steal_frac(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def shm_entries() -> frozenset:
    """Names currently in /dev/shm (empty where it does not exist)."""
    try:
        return frozenset(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return frozenset()


def sut_env(root: str) -> Dict[str, str]:
    """The environment of a child process that imports the program from
    ``<root>/src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Terminate (then kill) a child and reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout)


# -- Prometheus text ------------------------------------------------------------


def parse_series(series: str) -> Tuple[str, Dict[str, str]]:
    """``name{a="x",b="y"}`` -> ``(name, {"a": "x", "b": "y"})``."""
    name, _, rest = series.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if "=" in pair:
            key, _, value = pair.partition("=")
            labels[key.strip()] = value.strip().strip('"')
    return name, labels


def scrape(text: str) -> Dict[str, float]:
    """Exposition text -> ``{series: value}`` (comments skipped)."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            out[series] = float(value)
    return out


def scrape_delta(
    before: Mapping[str, float], after: Mapping[str, float]
) -> Dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def family_sum(
    samples: Mapping[str, float],
    name: str,
    where: Optional[Mapping[str, Iterable[str]]] = None,
    exclude: Optional[Mapping[str, Iterable[str]]] = None,
) -> float:
    """Sum every series of metric ``name`` whose labels match ``where``
    (label -> accepted values) and none of ``exclude``."""
    total = 0.0
    for series, value in samples.items():
        metric, labels = parse_series(series)
        if metric != name:
            continue
        if where and any(labels.get(k) not in v for k, v in where.items()):
            continue
        if exclude and any(labels.get(k) in v for k, v in exclude.items()):
            continue
        total += value
    return total


# -- provenance -----------------------------------------------------------------


def calibration_ns(repeats: int = 15) -> float:
    """Median ns of one fixed NumPy loop, so a slower host is visible."""
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        np.sort(data)
        np.cumsum(np.exp(data))
        times.append(time.perf_counter_ns() - start)
    return median(times)


def git_sha(root: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def provenance(root: str, workload: str, seed: int) -> Dict[str, object]:
    """Recorded, never gated: where and on what a run was measured."""
    import importlib.util

    import numpy as np

    from repro.engine.compiled import backend_label

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "engine_backend": backend_label(),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload": workload,
        "seed": seed,
        "calibration_ns": calibration_ns(),
    }


class CallTimer:
    """Times calls into public functions from outside the program.

    ``patch(owner, attr, label)`` replaces a module function, method or
    classmethod with a wrapper that adds its inclusive wall time and a
    call count under ``label``; leaving the ``with`` block restores every
    original. The program's source is untouched.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Counter = Counter()
        self._restore: List[Tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, label: str) -> None:
        raw = vars(owner)[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.seconds[label] = self.seconds.get(label, 0.0) + (
                    time.perf_counter() - start
                )
                self.calls[label] += 1

        setattr(owner, attr, classmethod(timed) if func is not raw else timed)
        self._restore.append((owner, attr, raw))

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()

    def __enter__(self) -> "CallTimer":
        return self

    def __exit__(self, *exc: object) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)
