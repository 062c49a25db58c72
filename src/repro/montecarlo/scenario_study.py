"""Scenario-axis Monte Carlo: one draw, every scenario, every design.

A scenario study draws ONE joint base sample from a
:class:`~repro.montecarlo.spec.SamplingSpec` and pushes it through the
fused :func:`~repro.engine.scenario.scenario_evaluate` cube for every
stress scenario and every design. Common random numbers are enforced by
construction: the base draw happens once, up front, and every
``(scenario, design)`` cell sees the same supply-chain realizations, so
differences between cells are due to the scenario transforms and the
designs — never sampling noise.

Parallelism chunks over the *scenario* axis (the outermost, largest
grain of the cube): each work item evaluates a contiguous
:meth:`~repro.engine.scenario.ScenarioSet.subset` against the shared
base draw and reduces its cube to per-cell summaries with
:func:`~repro.montecarlo.results.summarize_block` before returning, so
the full cube is never built: memory is bounded by one chunk per
worker, and ``chunk_scenarios`` is both the parallel grain and that
bound. Chunks are pure functions of their inputs, so results are
bit-for-bit identical across the serial, thread, and process executors
and across chunk sizes. On the process path the compiled portfolio
rides along as a shared-memory
:class:`~repro.engine.shm.PortfolioShare`, so workers attach tensors
instead of recompiling designs per chunk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..analysis.tables import format_table
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..engine.parallel import parallel_map, seed_sequence
from ..engine.portfolio import compile_portfolio
from ..engine.scenario import (
    Scenario,
    ScenarioSet,
    compile_scenarios,
    scenario_evaluate,
)
from ..engine.shm import SHARED_STORE, PortfolioShare, share_portfolio
from ..errors import InvalidParameterError
from ..obs.trace import span
from ..ttm.model import TTMModel
from .results import (
    DEFAULT_TAIL_LEVEL,
    ExceedanceCurve,
    MetricSummary,
    StudyResult,
    conditional_value_at_risk,
    summarize_cells,
)
from .spec import SamplingSpec
from .study import METRIC_TAILS, chunk_sizes

#: Scenarios evaluated per parallel work item (outermost-axis grain).
DEFAULT_CHUNK_SCENARIOS = 8


@dataclass(frozen=True)
class _ScenarioChunkTask:
    """Picklable work item: one scenario subset against the shared draw.

    On the process path the compiled portfolio rides along as a
    shared-memory handle and ``designs`` is ``None``.
    """

    model: TTMModel
    cost_model: Optional[CostModel]
    designs: Optional[Tuple[ChipDesign, ...]]
    scenario_set: ScenarioSet
    n_chips: np.ndarray
    capacity: Optional[np.ndarray]
    queue_weeks: Optional[np.ndarray]
    d0_scale: Optional[np.ndarray]
    wafer_rate_scale: Optional[np.ndarray]
    tail_level: float
    curve_points: int
    shared: Optional[PortfolioShare] = None


#: One cell's ``(summaries, curves)`` maps, keyed by metric.
_CellSummaries = Tuple[
    Dict[str, MetricSummary], Dict[str, ExceedanceCurve]
]


def _evaluate_scenario_chunk(
    task: _ScenarioChunkTask,
) -> List[_CellSummaries]:
    """Evaluate and summarize one scenario subset (module-level for
    pickling).

    Returns one ``(summaries, curves)`` pair per ``(scenario, design)``
    cell of the chunk, scenario-major. The chunk's
    ``(chunk_scenarios, n_designs, n_samples)`` cubes are reduced here
    and dropped, so a study never holds more than one chunk's cube per
    worker. The fused kernel processes scenarios independently and
    each cell is summarized on its own sample row, so the summaries
    do not depend on the chunk layout.
    """
    invariants = (
        task.shared.materialize() if task.shared is not None else None
    )
    cube = scenario_evaluate(
        task.model,
        task.cost_model,
        task.designs,
        task.n_chips,
        task.scenario_set,
        capacity=task.capacity,
        queue_weeks=task.queue_weeks,
        d0_scale=task.d0_scale,
        wafer_rate_scale=task.wafer_rate_scale,
        invariants=invariants,
    )
    metrics = {
        "ttm_weeks": np.asarray(cube.ttm.total_weeks, dtype=float),
        "cas": np.asarray(cube.cas.cas, dtype=float),
    }
    if cube.cost is not None:
        # Per-chip cost under scenario k divides by the transformed
        # demand, with the same ops apply_scenario/scenario_cost use, so
        # it matches the per-scenario oracle's ``usd_per_chip`` bits.
        base = np.asarray(task.n_chips, dtype=float)
        per_chip = np.empty_like(metrics["ttm_weeks"])
        for k in range(task.scenario_set.n_scenarios):
            dm = float(task.scenario_set.demand_scale[k])
            chips = base if dm == 1.0 else base * dm
            per_chip[k] = cube.cost.total_usd[k] / chips
        metrics["cost_per_chip_usd"] = per_chip
    return summarize_cells(
        metrics,
        METRIC_TAILS,
        tail_level=task.tail_level,
        curve_points=task.curve_points,
    )


@dataclass(frozen=True)
class ScenarioStudyResult:
    """Summaries of the full (scenarios x designs x metrics) study.

    ``results[scenario][design]`` is a per-cell
    :class:`~repro.montecarlo.results.StudyResult`; the table helpers
    reduce those cells to the per-scenario risk reports (CVaR ladders,
    exceedance-vs-baseline probabilities) the CLI prints.
    """

    scenarios: Tuple[str, ...]
    designs: Tuple[str, ...]
    n_samples: int
    seed: int
    tail_level: float
    baseline: str
    results: Mapping[str, Mapping[str, StudyResult]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "scenarios", tuple(self.scenarios))
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(
            self,
            "results",
            {
                scenario: dict(per_design)
                for scenario, per_design in dict(self.results).items()
            },
        )

    def cell(self, scenario: str, design: str) -> StudyResult:
        """The summarized study of one (scenario, design) cell."""
        try:
            per_design = self.results[scenario]
        except KeyError:
            known = ", ".join(self.scenarios)
            raise KeyError(
                f"unknown scenario {scenario!r} (known: {known})"
            ) from None
        try:
            return per_design[design]
        except KeyError:
            known = ", ".join(self.designs)
            raise KeyError(
                f"unknown design {design!r} (known: {known})"
            ) from None

    def _check_metric(self, design: str, metric: str) -> None:
        cell = self.cell(self.baseline, design)
        if metric not in cell.summaries:
            known = ", ".join(sorted(cell.summaries))
            raise InvalidParameterError(
                f"unknown metric {metric!r} (known: {known})"
            )

    def cvar_table(self, metric: str, design: str) -> str:
        """Per-scenario risk ladder for one design and metric.

        One row per scenario: mean, median, VaR/CVaR at the study's
        tail level, the mean shift against the ``baseline`` scenario,
        and ``P(worse)`` — the probability of landing beyond the
        baseline's median (above it for upper-tail metrics, below for
        lower-tail ones). Common random numbers make these paired
        comparisons, not independent-run noise.
        """
        self._check_metric(design, metric)
        base_summary = self.cell(self.baseline, design)[metric]
        base_median = base_summary.median
        tail = base_summary.tail
        level = int(round(100.0 * self.tail_level))
        headers = [
            "scenario", "mean", "p50",
            f"VaR{level}", f"CVaR{level}",
            "mean-base", "P(worse)",
        ]
        rows: List[List[object]] = []
        for scenario in self.scenarios:
            cell = self.cell(scenario, design)
            summary = cell[metric]
            above = cell.curves[metric].probability_above(base_median)
            worse = above if tail == "upper" else 1.0 - above
            rows.append(
                [
                    scenario,
                    summary.mean,
                    summary.median,
                    summary.var,
                    summary.cvar,
                    summary.mean - base_summary.mean,
                    worse,
                ]
            )
        return format_table(headers, rows)

    def exceedance_table(
        self,
        metric: str,
        design: str,
        percentiles: Sequence[float] = (50.0, 75.0, 95.0),
    ) -> str:
        """Per-scenario exceedance probabilities at baseline thresholds.

        Thresholds are the baseline scenario's percentiles of
        ``metric``, so each column reads "chance this scenario pushes
        the metric past what the calm world considers its p50/p75/p95".
        """
        self._check_metric(design, metric)
        base_summary = self.cell(self.baseline, design)[metric]
        thresholds = [base_summary.percentiles[float(p)] for p in percentiles]
        headers = ["scenario"] + [
            f"P(>base p{p:g})" for p in percentiles
        ]
        rows: List[List[object]] = []
        for scenario in self.scenarios:
            curve = self.cell(scenario, design).curves[metric]
            rows.append(
                [scenario]
                + [curve.probability_above(t) for t in thresholds]
            )
        return format_table(headers, rows)


def run_scenario_study(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    spec: SamplingSpec,
    scenarios: Union[ScenarioSet, Sequence[Scenario]],
    n_samples: int,
    seed: int,
    cost_model: Optional[CostModel] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    chunk_scenarios: int = DEFAULT_CHUNK_SCENARIOS,
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> ScenarioStudyResult:
    """Run the fused scenario-cube Monte Carlo study.

    Parameters
    ----------
    spec:
        The joint base-world distribution. The draw happens ONCE and is
        shared by every scenario and design (common random numbers), so
        per-scenario deltas are paired comparisons.
    scenarios:
        A compiled :class:`~repro.engine.scenario.ScenarioSet` (e.g.
        from :func:`~repro.montecarlo.stress.stress_scenarios`) or a
        sequence of :class:`~repro.engine.scenario.Scenario`.
    seed / executor / max_workers / chunk_scenarios:
        Work is chunked over the scenario axis and each chunk is
        summarized where it is evaluated; chunks are pure, so the
        summaries are bit-for-bit identical across executors and chunk
        sizes for a fixed seed.
    """
    scenario_set = compile_scenarios(scenarios)
    design_tuple = tuple(designs)
    if any(p.node is not None for p in spec.parameters):
        raise InvalidParameterError(
            "scenario studies require a global capacity draw; per-node "
            "capacity sampling cannot compose with per-node scenario "
            "capacity transforms in a single kernel argument"
        )
    rng = np.random.default_rng(seed_sequence(seed))
    draws = spec.sample(n_samples, rng)
    with span(
        "mc.run_scenario_study",
        scenarios=list(scenario_set.names),
        designs=[design.name for design in design_tuple],
        n_samples=n_samples,
        seed=seed,
        executor=executor,
    ):
        sizes = chunk_sizes(scenario_set.n_scenarios, chunk_scenarios)
        shared = None
        if executor == "process":
            invariants = compile_portfolio(
                design_tuple,
                model.foundry.technology,
                engineers=model.engineers,
                alpha=model.alpha,
                edge_corrected=model.edge_corrected,
                block_parallel=model.block_parallel,
            )
            shared = share_portfolio(invariants)
        capacity = draws.capacity
        tasks = []
        start = 0
        for size in sizes:
            tasks.append(
                _ScenarioChunkTask(
                    model=model,
                    cost_model=cost_model,
                    designs=None if shared is not None else design_tuple,
                    scenario_set=scenario_set.subset(
                        range(start, start + size)
                    ),
                    n_chips=draws.n_chips,
                    capacity=capacity,
                    queue_weeks=draws.queue_weeks,
                    d0_scale=draws.d0_scale,
                    wafer_rate_scale=draws.wafer_rate_scale,
                    tail_level=tail_level,
                    curve_points=curve_points,
                    shared=shared,
                )
            )
            start += size
        try:
            chunks: List[List[_CellSummaries]] = parallel_map(
                _evaluate_scenario_chunk,
                tasks,
                executor=executor,
                max_workers=max_workers,
            )
        finally:
            if shared is not None:
                SHARED_STORE.release(shared.handle)
        cells = itertools.chain.from_iterable(chunks)
        design_names = tuple(design.name for design in design_tuple)
        results: Dict[str, Dict[str, StudyResult]] = {}
        for scenario in scenario_set.names:
            per_design: Dict[str, StudyResult] = {}
            for design in design_tuple:
                summaries, curves = next(cells)
                per_design[design.name] = StudyResult(
                    design=design.name,
                    processes=design.processes,
                    n_samples=n_samples,
                    seed=seed,
                    summaries=summaries,
                    curves=curves,
                )
            results[scenario] = per_design
        baseline = (
            "baseline"
            if "baseline" in scenario_set.names
            else scenario_set.names[0]
        )
        return ScenarioStudyResult(
            scenarios=scenario_set.names,
            designs=design_names,
            n_samples=n_samples,
            seed=seed,
            tail_level=tail_level,
            baseline=baseline,
            results=results,
        )


__all__ = [
    "DEFAULT_CHUNK_SCENARIOS",
    "ScenarioStudyResult",
    "conditional_value_at_risk",
    "run_scenario_study",
]
