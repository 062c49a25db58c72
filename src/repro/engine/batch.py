"""Per-design TTM, CAS and cost over arbitrary broadcast grids.

``batch_ttm`` / ``batch_cas`` / ``batch_cost`` evaluate *one* design
over a sweep grid and reproduce the scalar :class:`~repro.ttm.model.TTMModel`,
:func:`~repro.agility.cas.chip_agility_score` and
:class:`~repro.cost.model.CostModel` results to floating-point round-off
(the equivalence suite pins them to <= 1e-9 relative error).

They are shape adapters over the one kernel of
:mod:`repro.engine.portfolio`: ``n_chips`` and every per-sample input
(including per-node capacity mapping values) broadcast to one shape,
ravel to one sample axis, run through ``portfolio_*`` as a one-design
portfolio stacked from the design's cached
:class:`~repro.engine.invariants.DesignInvariants`, and row 0 is
reshaped back. A single call therefore evaluates, e.g., a
quantity-by-capacity matrix.

``capacity=None`` evaluates under the model's *current* market
conditions (per-node fractions intact); an explicit scalar/array
``capacity`` is a *global* fraction applied to every node, exactly like
:meth:`TTMModel.at_capacity` (queue quotes are kept, per-node capacity
entries are dropped); a ``{node: fractions}`` mapping overrides only the
listed nodes (others keep their conditions' fraction), which is how
disruption ensembles hit one fab at a time.

Monte Carlo workloads additionally sample supply-side parameters per row:
``queue_weeks`` (global quoted lead time), ``d0_scale`` (multiplier on
every node's defect density — yield, wafer demand and tested-die counts
are re-derived from the cached per-die profiles), and
``wafer_rate_scale`` (multiplier on every node's *maximum* rate — the
queue quote's wafer backlog scales with it, Sec. 6.3). Each accepts a
scalar or an array broadcasting against ``n_chips``/``capacity``.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..agility.cas import WAFERS_PER_NORMALIZED_UNIT
from ..agility.derivative import DEFAULT_RELATIVE_STEP
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..technology.database import TechnologyDatabase
from ..ttm.model import DEFAULT_ENGINEERS, TTMModel
from .invariants import DesignInvariants, design_invariants
from .portfolio import (
    PortfolioInvariants,
    _as_positive_array,
    portfolio_cas,
    portfolio_cost,
    portfolio_ttm,
    _stack_invariants,
)

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: ``capacity`` argument: global scalar/array or per-node mapping.
CapacityLike = Union[ArrayLike, Mapping[str, ArrayLike]]


@dataclass(frozen=True)
class BatchTTMResult:
    """Vectorized TTM breakdown (all arrays share one broadcast shape).

    The fields mirror :class:`~repro.ttm.result.TTMResult`'s phase
    decomposition.
    """

    design: str
    schedule: str
    design_weeks: float
    tapeout_weeks: np.ndarray
    fabrication_weeks: np.ndarray
    packaging_weeks: np.ndarray
    total_weeks: np.ndarray
    total_wafers: np.ndarray


@dataclass(frozen=True)
class BatchCASResult:
    """Vectorized Chip Agility Score (Eq. 8) over a sweep grid.

    ``cas`` is in raw wafers/week^2; ``normalized`` divides by the fixed
    kilo-wafer unit used in the paper's figures. ``sensitivity`` maps
    process name -> |dTTM/dmu_W| arrays.
    """

    design: str
    cas: np.ndarray
    sensitivity: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "sensitivity", dict(self.sensitivity))

    @property
    def normalized(self) -> np.ndarray:
        """CAS in the figures' normalized (kilo-wafer) units."""
        return self.cas / WAFERS_PER_NORMALIZED_UNIT


@dataclass(frozen=True)
class BatchCostResult:
    """Vectorized chip-creation cost breakdown (arrays share one shape).

    NRE terms are supply-independent scalars; the recurring terms vary
    with the sampled quantity and defect density. All USD, mirroring
    :class:`~repro.cost.model.CostResult`.
    """

    design: str
    engineering_usd: float
    fixed_usd: float
    mask_usd: float
    wafer_usd: np.ndarray
    testing_usd: np.ndarray
    packaging_usd: np.ndarray
    n_chips: np.ndarray

    @property
    def nre_usd(self) -> float:
        """One-time costs: engineering + fixed bring-up + masks."""
        return self.engineering_usd + self.fixed_usd + self.mask_usd

    @property
    def manufacturing_usd(self) -> np.ndarray:
        """Recurring costs: wafers + testing + packaging."""
        return self.wafer_usd + self.testing_usd + self.packaging_usd

    @property
    def total_usd(self) -> np.ndarray:
        """Total chip-creation cost per sample."""
        return self.nre_usd + self.manufacturing_usd

    @property
    def usd_per_chip(self) -> np.ndarray:
        """Total cost amortized over each sample's production run."""
        return self.total_usd / self.n_chips


def _one_design(
    design: ChipDesign,
    technology: TechnologyDatabase,
    invariants: DesignInvariants,
) -> PortfolioInvariants:
    """The one-row portfolio for an already-resolved invariants entry.

    Memoized on the entry itself, so it lives and is evicted with it
    (including shared-memory attaches) instead of taking a second slot
    in the invariant LRU.
    """
    memo = invariants.__dict__.get("_one_design")
    if memo is None or memo[0] is not design or memo[1] is not technology:
        memo = (
            design,
            technology,
            _stack_invariants((design,), (invariants,), technology),
        )
        # Frozen dataclass: write the memo past __setattr__.
        invariants.__dict__["_one_design"] = memo
    return memo[2]


def _flatten(
    stacked: PortfolioInvariants,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    **sampled: Optional[ArrayLike],
) -> Tuple[tuple, np.ndarray, Optional[CapacityLike], dict]:
    """Broadcast every per-sample input to one shape, raveled to 1-D.

    Returns ``(shape, n_chips, capacity, sampled)``. Scalars pass
    through unchanged (the kernel broadcasts them); the kernel validates
    every value it receives. Mapping entries for nodes the design does
    not use are validated here, then dropped, so they never widen the
    result shape.
    """
    quantities = np.asarray(n_chips, dtype=float)
    arrays = [quantities]
    if isinstance(capacity, abc.Mapping):
        used = stacked.processes[0]
        for name, values in capacity.items():
            if name not in used:
                _as_positive_array(values, f"capacity fraction for {name!r}")
        capacity = {
            name: np.asarray(values, dtype=float)
            for name, values in capacity.items()
            if name in used
        }
        arrays.extend(capacity.values())
    elif capacity is not None:
        capacity = np.asarray(capacity, dtype=float)
        arrays.append(capacity)
    sampled = {
        name: None if values is None else np.asarray(values, dtype=float)
        for name, values in sampled.items()
    }
    arrays.extend(values for values in sampled.values() if values is not None)
    shape = np.broadcast(*(values for values in arrays if values.size)).shape

    def ravel(values):
        if values is None or values.ndim == 0 or values.size == 0:
            return values
        if values.shape != shape:
            full = np.empty(shape)
            full[...] = values
            values = full
        return values.reshape(-1)

    if isinstance(capacity, dict):
        capacity = {name: ravel(values) for name, values in capacity.items()}
    else:
        capacity = ravel(capacity)
    sampled = {name: ravel(values) for name, values in sampled.items()}
    return shape, ravel(quantities), capacity, sampled


def _model_stack(
    model: TTMModel, design: ChipDesign, invariants: Optional[DesignInvariants]
) -> PortfolioInvariants:
    if invariants is None:
        invariants = design_invariants(
            design,
            model.foundry.technology,
            model.engineers,
            alpha=model.alpha,
            edge_corrected=model.edge_corrected,
            block_parallel=model.block_parallel,
        )
    return _one_design(design, model.foundry.technology, invariants)


def batch_ttm(
    model: TTMModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[DesignInvariants] = None,
) -> BatchTTMResult:
    """Vectorized ``TTMModel.time_to_market`` over quantity/capacity grids.

    Parameters
    ----------
    model:
        The scalar model whose semantics (schedule, staffing, alpha, queue
        quotes) the batch evaluation reproduces.
    design:
        The chip design to evaluate.
    n_chips:
        Final-chip quantities; scalar or array.
    capacity:
        ``None`` evaluates the model's current conditions; a scalar/array
        is a global capacity fraction applied to every node, as in
        :meth:`TTMModel.at_capacity`; a ``{node: fractions}`` mapping
        overrides only the listed nodes. Broadcasts against ``n_chips``.
    queue_weeks:
        Optional global quoted lead time (scalar or per-sample array)
        replacing the conditions' quotes, as in
        ``MarketConditions.with_global_queue``.
    d0_scale:
        Optional multiplier on every node's defect density D0; die
        yields, wafer demand and tested-die counts are re-derived per
        sample (equivalent to ``TechnologyDatabase.override`` on
        ``defect_density_per_cm2``).
    wafer_rate_scale:
        Optional multiplier on every node's *maximum* wafer rate (Table 2
        uncertainty); the queue quote's wafer backlog scales with it.
    invariants:
        Pre-compiled invariants for ``design`` (e.g. a shared-memory
        attach in a worker process); ``None`` resolves them through the
        shared LRU.
    """
    stacked = _model_stack(model, design, invariants)
    shape, quantities, capacity, sampled = _flatten(
        stacked,
        n_chips,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    result = portfolio_ttm(
        model, None, quantities, capacity, invariants=stacked, **sampled
    )
    return BatchTTMResult(
        design=design.name,
        schedule=model.schedule,
        design_weeks=float(result.design_weeks[0]),
        tapeout_weeks=result.tapeout_weeks[0].reshape(shape),
        fabrication_weeks=result.fabrication_weeks[0].reshape(shape),
        packaging_weeks=result.packaging_weeks[0].reshape(shape),
        total_weeks=result.total_weeks[0].reshape(shape),
        total_wafers=result.total_wafers[0].reshape(shape),
    )


def batch_cas(
    model: TTMModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[DesignInvariants] = None,
) -> BatchCASResult:
    """Vectorized Chip Agility Score (Eq. 8) over a capacity grid.

    Mirrors :func:`repro.agility.cas.chip_agility_score` evaluated at
    ``model.at_capacity(f)`` for every ``f`` in ``capacity`` (or at the
    model's current conditions when ``capacity is None``): each node's
    rate is perturbed by ``relative_step`` in both directions and the
    central-difference TTM slope is accumulated. ``queue_weeks``,
    ``d0_scale`` and ``wafer_rate_scale`` sample supply-side parameters
    per row exactly as in :func:`batch_ttm`; the queue quote's wafer
    backlog stays pinned while each node's rate is perturbed, matching
    the scalar derivative's semantics.
    """
    stacked = _model_stack(model, design, invariants)
    shape, quantities, capacity, sampled = _flatten(
        stacked,
        n_chips,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    result = portfolio_cas(
        model,
        None,
        quantities,
        capacity,
        relative_step=relative_step,
        invariants=stacked,
        **sampled,
    )
    return BatchCASResult(
        design=design.name,
        cas=result.cas[0].reshape(shape),
        sensitivity={
            process: result.sensitivity[0, i].reshape(shape)
            for i, process in enumerate(result.processes[0])
        },
    )


def batch_cost(
    cost_model: CostModel,
    design: ChipDesign,
    n_chips: ArrayLike,
    d0_scale: Optional[ArrayLike] = None,
    engineers: int = DEFAULT_ENGINEERS,
    invariants: Optional[DesignInvariants] = None,
) -> BatchCostResult:
    """Vectorized ``CostModel.chip_creation_cost`` over sampled inputs.

    Reproduces the scalar cost model over per-sample quantities and an
    optional per-sample defect-density multiplier. ``engineers`` only
    selects which cached invariants entry is reused (the cost terms are
    team-size independent); pass the companion TTM model's team size so a
    joint TTM+cost study shares one cache entry.
    """
    if invariants is None:
        invariants = design_invariants(
            design,
            cost_model.technology,
            engineers,
            alpha=cost_model.alpha,
            edge_corrected=cost_model.edge_corrected,
        )
    stacked = _one_design(design, cost_model.technology, invariants)
    shape, quantities, _, sampled = _flatten(
        stacked, n_chips, d0_scale=d0_scale
    )
    result = portfolio_cost(
        cost_model, None, quantities, invariants=stacked, **sampled
    )
    return BatchCostResult(
        design=design.name,
        engineering_usd=float(result.engineering_usd[0]),
        fixed_usd=float(result.fixed_usd[0]),
        mask_usd=float(result.mask_usd[0]),
        wafer_usd=result.wafer_usd[0].reshape(shape),
        testing_usd=result.testing_usd[0].reshape(shape),
        packaging_usd=result.packaging_usd[0].reshape(shape),
        n_chips=result.n_chips[0].reshape(shape),
    )


def ttm_over_capacity(
    model: TTMModel,
    design: ChipDesign,
    n_chips: float,
    fractions: Sequence[float],
) -> np.ndarray:
    """Total TTM over a global capacity sweep (batched ``ttm_curve``)."""
    return batch_ttm(model, design, n_chips, capacity=fractions).total_weeks


def cas_over_capacity(
    model: TTMModel,
    design: ChipDesign,
    n_chips: float,
    fractions: Sequence[float],
    relative_step: float = DEFAULT_RELATIVE_STEP,
) -> np.ndarray:
    """Normalized CAS over a global capacity sweep (batched ``cas_curve``)."""
    return batch_cas(
        model, design, n_chips, capacity=fractions, relative_step=relative_step
    ).normalized


__all__ = [
    "BatchCASResult",
    "BatchCostResult",
    "BatchTTMResult",
    "batch_cas",
    "batch_cost",
    "batch_ttm",
    "cas_over_capacity",
    "ttm_over_capacity",
]
