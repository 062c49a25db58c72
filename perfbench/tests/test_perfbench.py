"""Tests of the benchmark itself (no server, no timed phase).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import os
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "scripts")):
    if path not in sys.path:
        sys.path.insert(0, path)

import serve_bench  # noqa: E402
from common import (  # noqa: E402
    OpTally,
    reconcile,
    supported_tail,
    tail_latency,
)
from workloads import (  # noqa: E402
    RequestStream,
    study_check_slice,
    study_designs,
    study_seed,
)


def _stream(workload, seed, n=200):
    stream = RequestStream(workload, seed)
    return stream.warmup(), [stream.request(i) for i in range(n)]


@pytest.mark.parametrize("workload", ["serve_point", "serve_explore"])
def test_same_seed_same_request_stream(workload):
    assert _stream(workload, 7) == _stream(workload, 7)


@pytest.mark.parametrize("workload", ["serve_point", "serve_explore"])
def test_other_seed_other_request_stream(workload):
    assert _stream(workload, 7)[1] != _stream(workload, 8)[1]


def test_explore_mix_is_exact_and_pool_distinct():
    stream = RequestStream("serve_explore", 3)
    ops = [stream.request(i) for i in range(2016)]
    endpoints = [endpoint for endpoint, _ in ops]
    assert endpoints.count("mc") == 1008
    assert endpoints.count("splits") == endpoints.count("scenarios") == 504
    combos = Counter(
        (body["scenarios"], len(body["design"]["dies"]))
        for endpoint, body in ops if endpoint == "scenarios"
    )
    assert len(combos) == 21 and set(combos.values()) == {24}
    dies = Counter(
        len(body["design"]["dies"]) for endpoint, body in ops if endpoint == "mc"
    )
    assert dies == {1: 336, 2: 336, 3: 336}
    assert len({repr(d) for d in stream.pool}) == len(stream.pool) == 2000


def test_study_inputs_follow_the_seed():
    seeds = [study_seed(5, i) for i in range(8)]
    assert seeds == [study_seed(5, i) for i in range(8)]
    assert seeds != [study_seed(6, i) for i in range(8)]
    assert len(set(seeds)) == len(seeds)
    slices = [study_check_slice(5, i, 50) for i in range(8)]
    assert slices == [study_check_slice(5, i, 50) for i in range(8)]
    assert study_designs() == study_designs()


def test_study_designs_match_the_bench_engine_generator():
    bench_engine = pytest.importorskip("bench_engine")
    assert study_designs() == bench_engine.scenario_portfolio_workload()[0]


def test_generated_requests_are_valid():
    """A sample of every endpoint evaluates solo without an error."""
    reference = serve_bench.Reference()
    for workload in ("serve_point", "serve_explore"):
        stream = RequestStream(workload, 11)
        seen = set()
        for index in range(200):
            endpoint, body = stream.request(index)
            if endpoint in seen:
                continue
            seen.add(endpoint)
            assert len(reference.solo(endpoint, body, warm=False)) == 64
        for endpoint, body in stream.warmup()[:1]:
            assert len(reference.solo(endpoint, body, warm=False)) == 64
    from repro.design.serialize import design_from_dict

    for spec in RequestStream("serve_explore", 11).pool:
        design_from_dict(spec)


def test_p99_needs_ten_samples_beyond_it():
    assert supported_tail(list(range(999))) is None
    assert supported_tail(list(range(1000))) == 989.0
    value, label = tail_latency([float(i) for i in range(1000)])
    assert (value, label) == (989.0, "p99")
    value, label = tail_latency([float(i) for i in range(500)])
    assert label == "p98.00" and value == 489.0
    assert tail_latency([3.0, 1.0, 2.0]) == (3.0, "max")


def test_failure_accounting():
    tally = OpTally()
    assert tally.record(200)
    assert not tally.record(400)
    assert not tally.record(429)
    assert not tally.record(503)
    assert not tally.record(None, "ConnectionResetError: reset")
    tally.mismatch()
    assert tally.attempted == 5
    assert tally.failed == 5
    assert tally.succeeded == 0
    assert tally.failed_reasons["transport"] == 1
    assert tally.failed_reasons["http_429"] == 1


class _FixedReference:
    """Stands in for the solo protocol reference: every body's bytes
    hash to ``digest``."""

    def __init__(self, digest):
        self.digest = digest

    def solo(self, endpoint, body, warm):
        return self.digest


def test_mismatches_count_as_failed_ops():
    stream = RequestStream("serve_point", 1)
    good, bad = "a" * 64, "b" * 64
    records = [
        [0, "evaluate", 200, 1.0, good, "r0", ""],
        [1, "evaluate", 200, 1.0, bad, "r1", ""],
        [2, "evaluate", 500, 1.0, good, "r2", ""],
        [3, "evaluate", None, 1.0, "", "", "TimeoutError: timed out"],
    ]
    tally = OpTally()
    check = serve_bench.check_responses(
        "serve_point", 1, stream, records, tally, _FixedReference(good)
    )
    assert check == {"checked": 2, "mismatches": 1}
    assert tally.attempted == 4
    assert tally.failed == 3
    assert dict(tally.failed_reasons) == {
        "http_500": 1, "transport": 1, "mismatch": 1,
    }


def test_reconciliation_rows_add_up_to_the_p50():
    layers = {
        "total": [10.0, 11.0, 12.0, 13.0, 30.0],
        "a": [4.0, 5.0, 6.0, 7.0, 20.0],
        "b": [6.0, 6.0, 6.0, 6.0, 10.0],
    }
    table = reconcile(layers, "total")
    assert table["end_to_end_p50_ms"] == 12.0
    assert sum(table["rows_ms"].values()) == pytest.approx(12.0)
    assert table["reconciled"]


def test_undisturbed_ops_saw_no_steal():
    probes = [(0.0, 5), (1.0, 5), (2.0, 7), (3.0, 7), (4.0, 7)]
    spans = [
        (0.1, 0.9, 1.0),  # counter 5 -> 5
        (0.5, 1.5, 2.0),  # 5 -> 7: stolen
        (2.1, 3.9, 3.0),  # 7 -> 7
        (3.5, 4.5, 4.0),  # ends after the last probe
    ]
    assert serve_bench.undisturbed(spans, probes) == [1.0, 3.0]


def test_kept_windows_are_the_fastest_in_time_order():
    windows = [{"ops_s": v} for v in (5.0, 9.0, 7.0, 9.0, 1.0)]
    assert serve_bench.kept_windows(windows, 3) == [1, 2, 3]
