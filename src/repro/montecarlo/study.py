"""Monte Carlo study runner: sample, batch-evaluate, summarize.

A study draws ``n_samples`` joint supply-chain realizations from a
:class:`~repro.montecarlo.spec.SamplingSpec` (optionally composed with a
:class:`~repro.montecarlo.disruption.DisruptionModel`), pushes the whole
sample through the fused (designs x samples)
:func:`~repro.engine.portfolio.portfolio_ttm` / ``portfolio_cas`` /
``portfolio_cost`` kernels, and reduces the outcome arrays to one
:class:`~repro.montecarlo.results.StudyResult` per design. No scalar
``TTMModel`` call happens anywhere on the sampling path.
:func:`run_study` is the one-design case of :func:`compare_designs`.

Determinism: the sample is split into fixed-size chunks (a pure function
of ``n_samples``), and each chunk's ``numpy.random.Generator`` is spawned
from the study seed by chunk index via the seeded
:func:`~repro.engine.parallel.parallel_map`. Results are therefore
bit-for-bit identical across the serial, thread, and process executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..economics.market_window import MarketWindow, triangle_loss_fractions
from ..engine.parallel import parallel_map
from ..engine.portfolio import (
    compile_portfolio,
    portfolio_cas,
    portfolio_cost,
    portfolio_ttm,
)
from ..engine.shm import SHARED_STORE, PortfolioShare, share_portfolio
from ..errors import InvalidParameterError
from ..obs.trace import span
from ..ttm.model import TTMModel
from .disruption import DisruptionModel
from .results import DEFAULT_TAIL_LEVEL, StudyResult, summarize_cells
from .spec import SamplingSpec

#: Samples evaluated per parallel work item.
DEFAULT_CHUNK_SAMPLES = 2048

#: Tail direction per metric: risk is slow/expensive, or *in*agile.
METRIC_TAILS: Mapping[str, str] = {
    "ttm_weeks": "upper",
    "cas": "lower",
    "cost_per_chip_usd": "upper",
    "revenue_loss_fraction": "upper",
}


def chunk_sizes(n_samples: int, chunk_samples: int) -> Tuple[int, ...]:
    """Deterministic chunk layout: full chunks plus one remainder."""
    if n_samples <= 0:
        raise InvalidParameterError(
            f"sample count must be positive, got {n_samples}"
        )
    if chunk_samples <= 0:
        raise InvalidParameterError(
            f"chunk size must be positive, got {chunk_samples}"
        )
    full, rest = divmod(n_samples, chunk_samples)
    return tuple([chunk_samples] * full + ([rest] if rest else []))


def run_study(
    model: TTMModel,
    design: ChipDesign,
    spec: SamplingSpec,
    n_samples: int,
    seed: int,
    cost_model: Optional[CostModel] = None,
    disruptions: Optional[DisruptionModel] = None,
    window: Optional[MarketWindow] = None,
    reference_weeks: Optional[float] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> StudyResult:
    """Run one Monte Carlo study over a design.

    Exactly the one-design :func:`compare_designs`.

    Parameters
    ----------
    model / cost_model:
        The scalar models supplying calibration; evaluation itself goes
        through the portfolio kernels. Cost metrics are produced only
        when ``cost_model`` is given.
    spec:
        The joint sampling specification.
    disruptions:
        Optional stochastic event layer. Its capacity draw replaces the
        spec's capacity column — sample capacity in one place or the
        other, not both.
    window / reference_weeks:
        When a :class:`MarketWindow` is given, the TTM sample is also
        reported as a revenue-loss-fraction distribution for delays
        beyond ``reference_weeks`` (default: the sample median, i.e.
        "late relative to the typical outcome").
    seed / executor / max_workers / chunk_samples:
        Sampling is chunked and seeded per chunk index; results are
        identical across executors for a fixed seed.
    """
    return compare_designs(
        model,
        (design,),
        spec,
        n_samples,
        seed,
        cost_model=cost_model,
        disruptions=disruptions,
        window=window,
        reference_weeks=reference_weeks,
        executor=executor,
        max_workers=max_workers,
        chunk_samples=chunk_samples,
        tail_level=tail_level,
        curve_points=curve_points,
    )[design.name]


@dataclass(frozen=True)
class _PortfolioChunkTask:
    """Picklable per-chunk work item covering the whole design tuple.

    On the process path the compiled portfolio rides along as a
    shared-memory :class:`~repro.engine.shm.PortfolioShare` and
    ``designs`` is ``None`` — workers attach the published tensors
    instead of unpickling design objects and recompiling per chunk.
    """

    model: TTMModel
    cost_model: Optional[CostModel]
    designs: Optional[Tuple[ChipDesign, ...]]
    spec: SamplingSpec
    disruptions: Optional[DisruptionModel]
    n_samples: int
    shared_ttm: Optional[PortfolioShare] = None
    shared_cost: Optional[PortfolioShare] = None


def _evaluate_portfolio_chunk(
    task: _PortfolioChunkTask, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """Draw once and evaluate every design on the shared chunk.

    The draws depend only on the chunk's generator, not on the design
    tuple, so metric row ``i`` is bit-for-bit the one-design study of
    design ``i``.
    """
    invariants = invariants_cost = None
    if task.shared_ttm is not None:
        invariants = task.shared_ttm.materialize()
        invariants_cost = (
            task.shared_cost.materialize()
            if task.shared_cost is not None
            else invariants
        )
    draws = task.spec.sample(task.n_samples, rng)
    quantities = draws.n_chips
    kwargs = draws.kernel_kwargs()
    if task.disruptions is not None:
        disruption = task.disruptions.sample(task.n_samples, rng)
        if disruption.capacity:
            kwargs["capacity"] = dict(disruption.capacity)
        if disruption.demand_scale is not None:
            quantities = quantities * disruption.demand_scale
    ttm = portfolio_ttm(
        task.model, task.designs, quantities, invariants=invariants, **kwargs
    )
    cas = portfolio_cas(
        task.model, task.designs, quantities, invariants=invariants, **kwargs
    )
    metrics = {
        "ttm_weeks": np.asarray(ttm.total_weeks, dtype=float),
        "cas": np.asarray(cas.cas, dtype=float),
    }
    if task.cost_model is not None:
        cost = portfolio_cost(
            task.cost_model,
            task.designs,
            quantities,
            d0_scale=kwargs.get("d0_scale"),
            engineers=task.model.engineers,
            invariants=invariants_cost,
        )
        metrics["cost_per_chip_usd"] = np.asarray(
            cost.usd_per_chip, dtype=float
        )
    return metrics


def compare_designs(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    spec: SamplingSpec,
    n_samples: int,
    seed: int,
    cost_model: Optional[CostModel] = None,
    disruptions: Optional[DisruptionModel] = None,
    window: Optional[MarketWindow] = None,
    reference_weeks: Optional[float] = None,
    executor: str = "serial",
    max_workers: Optional[int] = None,
    chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> Dict[str, StudyResult]:
    """Run the same study over several designs (shared seed).

    Every design sees the *same* supply-chain draws (common random
    numbers), so differences between result distributions are due to
    the designs, not sampling noise. Each chunk is drawn once and the
    whole design tuple goes through the fused
    :func:`~repro.engine.portfolio.portfolio_ttm` kernels. Designs are
    evaluated row-wise, so row ``i`` is exactly the one-design study of
    design ``i`` (:func:`run_study`).
    """
    design_tuple = tuple(designs)
    seen: Dict[str, None] = {}
    for design in design_tuple:
        if design.name in seen:
            raise InvalidParameterError(
                f"duplicate design name {design.name!r} in comparison"
            )
        seen[design.name] = None
    if disruptions is not None and any(
        p.target == "capacity" for p in spec.parameters
    ):
        raise InvalidParameterError(
            "capacity is sampled by both the spec and the disruption model; "
            "pick one"
        )
    with span(
        "mc.compare_designs",
        designs=[design.name for design in design_tuple],
        n_samples=n_samples,
        seed=seed,
        executor=executor,
    ):
        sizes = chunk_sizes(n_samples, chunk_samples)
        shared_ttm = shared_cost = None
        if executor == "process":
            # Publish the compiled portfolio once; chunks carry a tiny
            # handle instead of the design tuple + SoA tensors.
            inv_ttm = compile_portfolio(
                design_tuple,
                model.foundry.technology,
                engineers=model.engineers,
                alpha=model.alpha,
                edge_corrected=model.edge_corrected,
                block_parallel=model.block_parallel,
            )
            shared_ttm = share_portfolio(inv_ttm)
            if cost_model is not None:
                inv_cost = compile_portfolio(
                    design_tuple,
                    cost_model.technology,
                    engineers=model.engineers,
                    alpha=cost_model.alpha,
                    edge_corrected=cost_model.edge_corrected,
                )
                if inv_cost is not inv_ttm:
                    shared_cost = share_portfolio(inv_cost)
        tasks = [
            _PortfolioChunkTask(
                model=model,
                cost_model=cost_model,
                designs=None if shared_ttm is not None else design_tuple,
                spec=spec,
                disruptions=disruptions,
                n_samples=size,
                shared_ttm=shared_ttm,
                shared_cost=shared_cost,
            )
            for size in sizes
        ]
        try:
            chunks: List[Dict[str, np.ndarray]] = parallel_map(
                _evaluate_portfolio_chunk,
                tasks,
                executor=executor,
                max_workers=max_workers,
                seed=seed,
            )
        finally:
            if shared_ttm is not None:
                SHARED_STORE.release(shared_ttm.handle)
            if shared_cost is not None:
                SHARED_STORE.release(shared_cost.handle)
        n_designs = len(design_tuple)
        samples = {
            name: np.concatenate(
                [
                    np.asarray(chunk[name], dtype=float).reshape(n_designs, -1)
                    for chunk in chunks
                ],
                axis=-1,
            )
            for name in chunks[0]
        }
        if window is not None:
            ttm = samples["ttm_weeks"]
            reference = (
                np.median(ttm, axis=-1, keepdims=True)
                if reference_weeks is None
                else float(reference_weeks)
            )
            samples["revenue_loss_fraction"] = triangle_loss_fractions(
                ttm - reference, window.window_weeks
            )
        cells = summarize_cells(
            samples,
            METRIC_TAILS,
            tail_level=tail_level,
            curve_points=curve_points,
        )
        return {
            design.name: StudyResult(
                design=design.name,
                processes=design.processes,
                n_samples=n_samples,
                seed=seed,
                summaries=summaries,
                curves=curves,
            )
            for design, (summaries, curves) in zip(design_tuple, cells)
        }


__all__ = [
    "DEFAULT_CHUNK_SAMPLES",
    "METRIC_TAILS",
    "chunk_sizes",
    "compare_designs",
    "run_study",
]
