"""The scenario_study process: the system under test for that workload.

Usage (driven by ``perfbench/run.py`` over stdin/stdout)::

    python3 perfbench/study_proc.py --seed 1

It imports the engine, builds the study inputs and prints ``ready``
(the harness times set-up up to that line), then answers one command
per stdin line with one JSON line:

* ``warmup`` — one untimed study (fills the invariant caches);
* ``run SECONDS TRACED FIRST`` — back-to-back studies from op index
  FIRST until SECONDS have passed; with TRACED=1 the public layer
  functions are wrapped with timers and each op reports its layer times;
* ``check`` — the correctness check of every op run so far;
* ``probe`` — one-off per-layer probes (cold compile, separate
  TTM/CAS/cost kernels, allocation peak);
* ``quit``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
import tracemalloc
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

from common import CallTimer, median, scrape, scrape_delta, family_sum  # noqa: E402
from workloads import (  # noqa: E402
    STUDY_N_CHIPS,
    STUDY_SAMPLES,
    study_check_slice,
    study_designs,
    study_scenarios,
    study_seed,
)

import repro.montecarlo.scenario_study as scenario_study_module  # noqa: E402
from repro.cost.model import CostModel  # noqa: E402
from repro.engine.invariants import clear_invariant_cache  # noqa: E402
from repro.engine.portfolio import (  # noqa: E402
    compile_portfolio,
    portfolio_cas,
    portfolio_cost,
    portfolio_ttm,
)
from repro.engine.scenario import (  # noqa: E402
    apply_scenario,
    scenario_cas,
    scenario_cost,
    scenario_evaluate,
    scenario_ttm,
)
from repro.montecarlo.results import (  # noqa: E402
    DEFAULT_TAIL_LEVEL,
    ExceedanceCurve,
    MetricSummary,
)
from repro.montecarlo.scenario_study import run_scenario_study  # noqa: E402
from repro.montecarlo.spec import SamplingSpec, default_supply_spec  # noqa: E402
from repro.montecarlo.study import METRIC_TAILS  # noqa: E402
from repro.obs.metrics import get_registry  # noqa: E402
from repro.ttm.model import TTMModel  # noqa: E402


class Study:
    """The study inputs plus every op run so far (for the check)."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.model = TTMModel.nominal()
        self.cost_model = CostModel.nominal()
        self.designs = study_designs()
        self.scenarios = study_scenarios()
        self.spec = default_supply_spec(n_chips=STUDY_N_CHIPS)
        #: op index -> (checked scenario slice, its per-design summaries)
        self.results: Dict[int, Any] = {}

    def op(self, index: int):
        return run_scenario_study(
            self.model,
            self.designs,
            self.spec,
            self.scenarios,
            n_samples=STUDY_SAMPLES,
            seed=study_seed(self.seed, index),
            cost_model=self.cost_model,
            executor="serial",
        )

    def draws(self, index: int):
        rng = np.random.default_rng(study_seed(self.seed, index))
        return self.spec.sample(STUDY_SAMPLES, rng)

    def run(self, seconds: float, traced: bool, first: int) -> Dict[str, Any]:
        ops: List[Dict[str, Any]] = []
        registry = get_registry()
        before = scrape(registry.to_prometheus_text())
        with CallTimer() as timer:
            if traced:
                timer.patch(scenario_study_module, "scenario_evaluate", "evaluate")
                timer.patch(SamplingSpec, "sample", "sample")
                timer.patch(MetricSummary, "from_samples", "summarize")
                timer.patch(ExceedanceCurve, "from_samples", "summarize")
            start = time.perf_counter()
            deadline = start + seconds
            index = first
            while time.perf_counter() < deadline:
                timer.reset()
                t0 = time.perf_counter()
                study = self.op(index)
                record: Dict[str, Any] = {
                    "index": index,
                    "latency_ms": (time.perf_counter() - t0) * 1000.0,
                }
                self._keep_checked_slice(index, study)
                del study
                if traced:
                    record["layers_ms"] = {
                        label: seconds_ * 1000.0
                        for label, seconds_ in timer.seconds.items()
                    }
                    record["summaries"] = timer.calls["summarize"]
                ops.append(record)
                index += 1
            wall = time.perf_counter() - start
        delta = scrape_delta(before, scrape(registry.to_prometheus_text()))
        hits = family_sum(delta, "invariant_cache_hits_total")
        misses = family_sum(delta, "invariant_cache_misses_total")
        return {
            "ops": ops,
            "wall_s": wall,
            "invariants_hit_ratio": hits / (hits + misses) if hits + misses else 1.0,
            "invariants_evictions": family_sum(delta, "invariant_cache_evictions_total"),
            "kernel_calls": family_sum(delta, "engine_kernel_invocations_total"),
        }

    def _keep_checked_slice(self, index: int, study) -> None:
        """Keep only the summaries the check needs, so peak RSS does
        not grow with the number of ops a run completes."""
        k = study_check_slice(self.seed, index, self.scenarios.n_scenarios)
        scenario = self.scenarios.names[k]
        self.results[index] = (k, {
            design.name: study.cell(scenario, design.name).summaries
            for design in self.designs
        })

    def check(self) -> Dict[str, Any]:
        """Per op: one seeded scenario slice of the cube must equal the
        looped ``apply_scenario`` + ``portfolio_*`` oracle bit for bit,
        and the study's summaries of that slice must equal
        ``MetricSummary.from_samples`` of the oracle."""
        nodes = tuple(
            dict.fromkeys(p for d in self.designs for p in d.processes)
        )
        failures = []
        for index, (k, kept) in sorted(self.results.items()):
            draws = self.draws(index)
            supply = {
                "capacity": draws.capacity,
                "queue_weeks": draws.queue_weeks,
                "d0_scale": draws.d0_scale,
                "wafer_rate_scale": draws.wafer_rate_scale,
            }
            cube = scenario_evaluate(
                self.model, self.cost_model, self.designs, draws.n_chips,
                self.scenarios.subset([k]), **supply,
            )
            kw = apply_scenario(
                self.scenarios, k, nodes=nodes,
                conditions=self.model.foundry.conditions,
                n_chips=draws.n_chips, **supply,
            )
            scenario_supply = {key: kw[key] for key in supply}
            shape = (len(self.designs), STUDY_SAMPLES)
            cost = portfolio_cost(
                self.cost_model, self.designs, kw["n_chips"],
                d0_scale=kw["d0_scale"], engineers=self.model.engineers,
            )
            oracle = {
                "ttm_weeks": portfolio_ttm(
                    self.model, self.designs, kw["n_chips"], **scenario_supply
                ).total_weeks,
                "cas": portfolio_cas(
                    self.model, self.designs, kw["n_chips"], **scenario_supply
                ).cas,
                "cost_per_chip_usd": cost.usd_per_chip,
            }
            oracle = {
                name: np.broadcast_to(values, shape)
                for name, values in oracle.items()
            }
            fused = {
                "ttm_weeks": cube.ttm.total_weeks[0],
                "cas": cube.cas.cas[0],
                "cost_total_usd": cube.cost.total_usd[0],
            }
            problems = []
            for name in ("ttm_weeks", "cas"):
                if not np.array_equal(fused[name], oracle[name]):
                    problems.append(f"cube {name} != oracle")
            if not np.array_equal(
                fused["cost_total_usd"], np.broadcast_to(cost.total_usd, shape)
            ):
                problems.append("cube cost != oracle")
            scenario = self.scenarios.names[k]
            for i, design in enumerate(self.designs):
                summaries = kept[design.name]
                for name, values in oracle.items():
                    expected = MetricSummary.from_samples(
                        name, values[i],
                        tail=METRIC_TAILS.get(name, "upper"),
                        tail_level=DEFAULT_TAIL_LEVEL,
                    )
                    if summaries[name] != expected:
                        problems.append(f"{design.name} {name} summary")
            if problems:
                failures.append(
                    {"index": index, "scenario": scenario, "problems": problems[:5]}
                )
        return {"checked": len(self.results), "failures": failures}

    def probe(self, evaluate_ms: float) -> Dict[str, float]:
        """Per-layer probes outside the timed ops."""
        draws = self.draws(10**6)
        supply = {
            "capacity": draws.capacity,
            "queue_weeks": draws.queue_weeks,
            "d0_scale": draws.d0_scale,
            "wafer_rate_scale": draws.wafer_rate_scale,
        }
        out: Dict[str, float] = {}
        compile_times = []
        for _ in range(3):
            clear_invariant_cache()
            start = time.perf_counter()
            compile_portfolio(
                tuple(self.designs),
                self.model.foundry.technology,
                engineers=self.model.engineers,
                alpha=self.model.alpha,
                edge_corrected=self.model.edge_corrected,
                block_parallel=self.model.block_parallel,
            )
            compile_times.append(time.perf_counter() - start)
        out["engine.portfolio.compile_ms"] = median(compile_times) * 1000.0

        def timed(call) -> float:
            start = time.perf_counter()
            call()
            return (time.perf_counter() - start) * 1000.0

        n_chips = draws.n_chips
        out["engine.scenario.ttm_ms"] = timed(lambda: scenario_ttm(
            self.model, self.designs, n_chips, self.scenarios, **supply))
        out["engine.scenario.cas_ms"] = timed(lambda: scenario_cas(
            self.model, self.designs, n_chips, self.scenarios, **supply))
        out["engine.scenario.cost_ms"] = timed(lambda: scenario_cost(
            self.cost_model, self.designs, n_chips, self.scenarios,
            d0_scale=draws.d0_scale, engineers=self.model.engineers))
        tracemalloc.start()
        try:
            cube = scenario_evaluate(
                self.model, self.cost_model, self.designs, n_chips,
                self.scenarios, **supply,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out["engine.scenario.alloc_peak_mb"] = peak / 2**20
        out["engine.scenario.result_mb"] = _array_bytes(cube) / 2**20
        points = self.scenarios.n_scenarios * len(self.designs) * STUDY_SAMPLES
        out["engine.scenario.ns_per_point"] = evaluate_ms * 1e6 / points
        return out


def _array_bytes(value: Any) -> int:
    """Bytes held in the NumPy arrays of a (nested) result dataclass."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if dataclasses.is_dataclass(value):
        return sum(
            _array_bytes(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    study = Study(args.seed)
    print("ready", flush=True)
    for line in sys.stdin:
        command, *rest = line.split()
        if command == "quit":
            return 0
        if command == "warmup":
            study.op(-1)
            reply: Dict[str, Any] = {"ok": True}
        elif command == "run":
            reply = study.run(float(rest[0]), rest[1] == "1", int(rest[2]))
        elif command == "check":
            reply = study.check()
        elif command == "probe":
            reply = study.probe(float(rest[0]))
        else:
            reply = {"error": f"unknown command {command!r}"}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
