"""The per-design kernel: one fused pass over (designs x samples).

Every multi-design workload — fig03/fig13 pair sweeps, Monte Carlo
design comparisons, co-design candidate scoring, portfolio assessment —
evaluates all its designs at once instead of paying a Python loop, a
kernel dispatch and an invariant lookup per design.
:func:`compile_portfolio` stacks the per-design
:class:`~repro.engine.invariants.DesignInvariants` scalars into aligned
structure-of-arrays tensors (padded to the widest design's node count,
with a ``node_mask``), and :func:`portfolio_ttm` /
:func:`portfolio_cas` / :func:`portfolio_cost` evaluate the full
``(n_designs, n_samples)`` tensor in one broadcasted pass. A single
design is the one-row case: the per-design ``batch_*`` functions of
:mod:`repro.engine.batch` are shape adapters over these kernels.

Common random numbers
---------------------
The supply-side sample arrays (``capacity``, ``queue_weeks``,
``d0_scale``, ``wafer_rate_scale``) are *shared* across the design axis:
sample ``s`` applies the same drawn world to every design, which is the
common-random-numbers design that makes portfolio deltas (A minus B per
sample) low-variance. They must therefore be scalars or 1-D sample
vectors; only ``n_chips`` may carry a per-design leading axis
``(n_designs, n_samples)`` (products ship different volumes in the same
world). Padded node slots hold neutral values (rate 1, zero wafers, zero
latency) and are masked out of every reduction, so each row is what
that design evaluates to alone — the equivalence suite pins each cell
to the scalar paper model within 1e-9 relative error.

Compiled portfolios are cached in the shared invariant LRU
(:func:`~repro.engine.invariants.cached_invariants`) under a fingerprint
key — the identity tuple of the technology database and every design
plus the scalar model knobs — so repeated evaluations across a sweep or
served requests skip recompilation entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..agility.cas import WAFERS_PER_NORMALIZED_UNIT
from ..agility.derivative import DEFAULT_RELATIVE_STEP
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..errors import InvalidParameterError
from ..obs.instrument import observed_kernel
from ..technology.database import TechnologyDatabase
from ..technology.yield_model import DEFAULT_ALPHA
from ..ttm.model import DEFAULT_ENGINEERS, TTMModel
from .compiled import get_backend
from .invariants import (
    DesignInvariants,
    DieYieldProfile,
    _IdKey,
    _readonly,
    cached_invariants,
    design_invariants,
)

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: ``capacity`` argument: global scalar/sample-vector or per-node mapping.
CapacityLike = Union[ArrayLike, Mapping[str, ArrayLike]]


def _as_positive_array(values: ArrayLike, what: str) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InvalidParameterError(f"{what} must be non-empty")
    flat = array.reshape(-1)
    if not (flat > 0.0).all():
        bad = float(flat[~(flat > 0.0)][0])
        raise InvalidParameterError(f"{what} must be positive, got {bad}")
    return array


@dataclass(frozen=True)
class PortfolioInvariants:
    """Structure-of-arrays stack of per-design invariants.

    Per-node tensors have shape ``(n_designs, max_nodes)``, padded past
    each design's node count with neutral values (``max_rate`` 1.0,
    everything else 0.0) and masked by ``node_mask``; per-design vectors
    have shape ``(n_designs,)``. Die-yield profiles are flattened into
    parallel ``profile_*`` arrays (one row per die type across the whole
    portfolio) indexed by ``profile_design`` / ``profile_node``, so the
    D0-dependent terms re-derive for every (design, sample) cell in one
    vectorized pass; dies with fixed-yield or core-salvage specs keep
    their :class:`~repro.engine.invariants.DieYieldProfile` for the
    (rare, small) exact per-profile evaluation.
    """

    designs: Tuple[str, ...]
    processes: Tuple[Tuple[str, ...], ...]
    node_mask: np.ndarray
    tapeout_weeks: np.ndarray
    max_rate: np.ndarray
    fab_latency_weeks: np.ndarray
    wafers_per_chip: np.ndarray
    wafer_cost_usd: np.ndarray
    tapeout_effort_weeks: np.ndarray
    tapeout_fixed_usd: np.ndarray
    mask_set_usd: np.ndarray
    sequential_tapeout_weeks: np.ndarray
    max_tapeout_weeks: np.ndarray
    testing_weeks_per_chip: np.ndarray
    assembly_weeks_per_chip: np.ndarray
    design_weeks: np.ndarray
    alpha: float
    profile_design: np.ndarray
    profile_node: np.ndarray
    profile_count: np.ndarray
    profile_ntt: np.ndarray
    profile_area_mm2: np.ndarray
    profile_gross: np.ndarray
    profile_testing_effort: np.ndarray
    special_profiles: Tuple[Tuple[int, DieYieldProfile], ...]
    profile_mean_defects: np.ndarray

    @property
    def n_designs(self) -> int:
        """Number of stacked designs (the tensor's leading axis)."""
        return len(self.designs)

    @property
    def max_nodes(self) -> int:
        """Padded node-axis width (widest design's node count)."""
        return int(self.node_mask.shape[1])

    @cached_property
    def padded(self) -> bool:
        """Whether any design has fewer nodes than :attr:`max_nodes`."""
        return not bool(np.all(self.node_mask))

    def profile_yields(self, d0_scale: ArrayLike) -> np.ndarray:
        """Per-die-type sellable yield, shape ``(n_profiles, n_samples)``.

        Plain Eq. 6 dies evaluate in one vectorized power; fixed-yield
        and salvage dies fall back to their profile's exact
        ``yield_at`` (a handful of rows at most).
        """
        scale = np.asarray(d0_scale, dtype=float)
        if scale.ndim == 0:
            scale = scale.reshape(1)
        yields = (
            1.0 + self.profile_mean_defects[:, None] * scale / self.alpha
        ) ** (-self.alpha)
        for row, profile in self.special_profiles:
            yields[row] = profile.yield_at(scale, self.alpha)
        return yields

    def wafers_per_chip_at(
        self,
        d0_scale: ArrayLike,
        yields: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Wafers per final chip with D0 scaled per sample.

        Returns ``(n_designs, max_nodes, n_samples)``; padded node slots
        stay 0. Contributions accumulate in global profile order, which
        per (design, node) cell is each design's own die order — the
        same order as the scalar accumulation.
        ``yields``, when given, must be ``profile_yields(d0_scale)``
        (callers evaluating several yield-dependent tensors share one
        ``pow`` pass; the result is bit-identical either way).
        """
        scale = np.asarray(d0_scale, dtype=float)
        if scale.ndim == 0:
            scale = scale.reshape(1)
        if yields is None:
            yields = self.profile_yields(scale)
        out = np.zeros((self.n_designs, self.max_nodes, scale.shape[0]))
        contribution = self.profile_count[:, None] / (
            self.profile_gross[:, None] * yields
        )
        np.add.at(out, (self.profile_design, self.profile_node), contribution)
        return out

    def testing_weeks_per_chip_at(
        self,
        d0_scale: ArrayLike,
        yields: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Eq. 7 testing term per chip, shape ``(n_designs, n_samples)``.

        ``yields`` has the same precomputed-``profile_yields`` contract
        as :meth:`wafers_per_chip_at`.
        """
        scale = np.asarray(d0_scale, dtype=float)
        if scale.ndim == 0:
            scale = scale.reshape(1)
        if yields is None:
            yields = self.profile_yields(scale)
        out = np.zeros((self.n_designs, scale.shape[0]))
        contribution = (
            self.profile_count[:, None]
            / yields
            * self.profile_ntt[:, None]
            * self.profile_testing_effort[:, None]
        )
        np.add.at(out, self.profile_design, contribution)
        return out


def _stack_invariants(
    designs: Sequence[ChipDesign],
    per_design: Sequence[DesignInvariants],
    technology: TechnologyDatabase,
) -> PortfolioInvariants:
    """Stack already-resolved per-design invariants (no caching).

    ``per_design[i]`` must be ``designs[i]``'s invariants under
    ``technology``; the per-node cost columns are read from
    ``technology``. :func:`compile_portfolio` resolves and caches the
    stack; the per-design ``batch_*`` adapters stack the one
    :class:`~repro.engine.invariants.DesignInvariants` entry they
    already hold.
    """
    n_designs = len(designs)
    max_nodes = max(len(inv.processes) for inv in per_design)

    node_mask = np.zeros((n_designs, max_nodes), dtype=bool)
    tapeout = np.zeros((n_designs, max_nodes))
    max_rate = np.ones((n_designs, max_nodes))
    fab_latency = np.zeros((n_designs, max_nodes))
    wafers = np.zeros((n_designs, max_nodes))
    wafer_cost = np.zeros((n_designs, max_nodes))
    effort = np.zeros((n_designs, max_nodes))
    fixed = np.zeros((n_designs, max_nodes))
    masks = np.zeros((n_designs, max_nodes))
    sequential = np.zeros(n_designs)
    max_tapeout = np.zeros(n_designs)
    testing = np.zeros(n_designs)
    assembly = np.zeros(n_designs)
    design_weeks = np.zeros(n_designs)

    profile_design: list = []
    profile_node: list = []
    profile_count: list = []
    profile_ntt: list = []
    profile_area: list = []
    profile_gross: list = []
    profile_effort: list = []
    profile_defects: list = []
    special: list = []

    for d, (design, inv) in enumerate(zip(designs, per_design)):
        n = len(inv.processes)
        node_mask[d, :n] = True
        tapeout[d, :n] = inv.tapeout_weeks
        max_rate[d, :n] = inv.max_rate
        fab_latency[d, :n] = inv.fab_latency_weeks
        wafers[d, :n] = inv.wafers_per_chip
        sequential[d] = inv.sequential_tapeout_weeks
        max_tapeout[d] = float(np.max(inv.tapeout_weeks))
        testing[d] = inv.testing_weeks_per_chip
        assembly[d] = inv.assembly_weeks_per_chip
        design_weeks[d] = inv.design_weeks
        nut_by_process = design.nut_by_process()
        for p, name in enumerate(inv.processes):
            node = technology[name]
            wafer_cost[d, p] = node.wafer_cost_usd
            effort[d, p] = nut_by_process.get(name, 0.0) * node.tapeout_effort
            fixed[d, p] = node.tapeout_fixed_cost_usd
            masks[d, p] = node.mask_set_cost_usd
        for profile in inv.die_profiles:
            row = len(profile_design)
            profile_design.append(d)
            profile_node.append(profile.process_index)
            profile_count.append(profile.count)
            profile_ntt.append(profile.ntt)
            profile_area.append(profile.area_mm2)
            profile_gross.append(profile.gross_per_wafer)
            profile_effort.append(profile.testing_effort)
            profile_defects.append(profile.mean_defects)
            if (
                profile.fixed_yield is not None
                or profile.salvage_uncore_defects is not None
            ):
                special.append((row, profile))

    return PortfolioInvariants(
        designs=tuple(design.name for design in designs),
        processes=tuple(inv.processes for inv in per_design),
        node_mask=_readonly(node_mask),
        tapeout_weeks=_readonly(tapeout),
        max_rate=_readonly(max_rate),
        fab_latency_weeks=_readonly(fab_latency),
        wafers_per_chip=_readonly(wafers),
        wafer_cost_usd=_readonly(wafer_cost),
        tapeout_effort_weeks=_readonly(effort),
        tapeout_fixed_usd=_readonly(fixed),
        mask_set_usd=_readonly(masks),
        sequential_tapeout_weeks=_readonly(sequential),
        max_tapeout_weeks=_readonly(max_tapeout),
        testing_weeks_per_chip=_readonly(testing),
        assembly_weeks_per_chip=_readonly(assembly),
        design_weeks=_readonly(design_weeks),
        alpha=per_design[0].alpha,
        profile_design=_readonly(np.asarray(profile_design, dtype=np.intp)),
        profile_node=_readonly(np.asarray(profile_node, dtype=np.intp)),
        profile_count=_readonly(np.asarray(profile_count, dtype=float)),
        profile_ntt=_readonly(np.asarray(profile_ntt, dtype=float)),
        profile_area_mm2=_readonly(np.asarray(profile_area, dtype=float)),
        profile_gross=_readonly(np.asarray(profile_gross, dtype=float)),
        profile_testing_effort=_readonly(
            np.asarray(profile_effort, dtype=float)
        ),
        special_profiles=tuple(special),
        profile_mean_defects=_readonly(
            np.asarray(profile_defects, dtype=float)
        ),
    )


def portfolio_fingerprint(
    designs: Sequence[ChipDesign],
    technology: TechnologyDatabase,
    engineers: int = DEFAULT_ENGINEERS,
    alpha: float = DEFAULT_ALPHA,
    edge_corrected: bool = False,
    block_parallel: bool = False,
) -> tuple:
    """The shared-LRU cache key for a compiled portfolio.

    Identity-keyed like the per-design entries (both ``ChipDesign`` and
    ``TechnologyDatabase`` are immutable by construction), plus the
    scalar model knobs. Two call sites evaluating the same design tuple
    under the same database hit one cache entry.
    """
    return (
        "portfolio",
        _IdKey(technology),
        tuple(_IdKey(design) for design in designs),
        engineers,
        alpha,
        edge_corrected,
        block_parallel,
    )


@observed_kernel("engine.compile_portfolio", lambda r: r.node_mask.size)
def compile_portfolio(
    designs: Sequence[ChipDesign],
    technology: TechnologyDatabase,
    engineers: int = DEFAULT_ENGINEERS,
    alpha: float = DEFAULT_ALPHA,
    edge_corrected: bool = False,
    block_parallel: bool = False,
) -> PortfolioInvariants:
    """Stack per-design invariants into one aligned SoA tensor (cached).

    Compilation itself goes through :func:`design_invariants`, so the
    per-design entries land in (or come from) the same shared LRU the
    per-design lookups use; the stacked result is cached under its
    :func:`portfolio_fingerprint`.
    """
    designs = tuple(designs)
    if not designs:
        raise InvalidParameterError(
            "portfolio must contain at least one design"
        )
    key = portfolio_fingerprint(
        designs,
        technology,
        engineers=engineers,
        alpha=alpha,
        edge_corrected=edge_corrected,
        block_parallel=block_parallel,
    )
    return cached_invariants(
        key,
        lambda: _stack_invariants(
            designs,
            [
                design_invariants(
                    design,
                    technology,
                    engineers,
                    alpha=alpha,
                    edge_corrected=edge_corrected,
                    block_parallel=block_parallel,
                )
                for design in designs
            ],
            technology,
        ),
    )


def _fit(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``np.broadcast_to`` that passes arrays already at ``shape`` through."""
    return array if array.shape == shape else np.broadcast_to(array, shape)


def _sample_array(
    values: ArrayLike, what: str, *, nonnegative: bool = False
) -> np.ndarray:
    """Validate a supply-side sample input (shared across designs)."""
    array = np.asarray(values, dtype=float)
    if array.size == 0:
        raise InvalidParameterError(f"{what} must be non-empty")
    if array.ndim > 1:
        raise InvalidParameterError(
            f"{what} is shared across designs (common random numbers) and "
            f"must be a scalar or 1-D sample vector; got shape {array.shape}"
        )
    flat = array.reshape(-1)
    if nonnegative:
        if not (flat >= 0.0).all():
            bad = float(flat[~(flat >= 0.0)][0])
            raise InvalidParameterError(f"{what} must be >= 0, got {bad}")
    elif not (flat > 0.0).all():
        bad = float(flat[~(flat > 0.0)][0])
        raise InvalidParameterError(f"{what} must be positive, got {bad}")
    return array


def _portfolio_quantities(
    n_chips: ArrayLike, n_designs: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate ``n_chips`` and split it into node-axis/design-axis views."""
    quantities = _as_positive_array(n_chips, "number of final chips")
    if quantities.ndim <= 1:
        return quantities, quantities
    if quantities.ndim == 2:
        if quantities.shape[0] != n_designs:
            raise InvalidParameterError(
                "per-design n_chips must have shape (n_designs, n_samples); "
                f"got {quantities.shape} for {n_designs} designs"
            )
        return quantities[:, None, :], quantities
    raise InvalidParameterError(
        "n_chips must be a scalar, a shared sample vector, or a "
        f"(n_designs, n_samples) matrix; got shape {quantities.shape}"
    )


@dataclass(frozen=True)
class _PortfolioSupply:
    """Supply-side tensors shared by the portfolio TTM and CAS kernels.

    ``rates`` / ``backlog`` / ``wafers_per_chip`` have the node axis
    ``(n_designs, max_nodes, n_samples-or-1)``;
    ``testing_weeks_per_chip`` is ``(n_designs, n_samples-or-1)``.
    Padded node slots carry harmless finite values — every reduction
    masks them out via ``node_mask``.
    """

    rates: np.ndarray
    backlog: np.ndarray
    wafers_per_chip: np.ndarray
    testing_weeks_per_chip: np.ndarray


@dataclass
class _SupplyScratch:
    """Reusable ``(n_designs, max_nodes, n_samples)`` supply buffers.

    Passing these to :func:`_portfolio_supply` redirects the resolved
    tensors into preallocated storage instead of fresh temporaries.
    Every output element is still the same ufunc on the same operands
    (inputs broadcast up to the buffer shape), so the resolved supply
    stays bit-identical to the allocating path — only the allocator
    traffic changes. The returned :class:`_PortfolioSupply` aliases the
    buffers, so callers must consume it before the next resolve that
    reuses the same scratch.
    """

    scaled: np.ndarray
    rates: np.ndarray
    backlog: np.ndarray
    fraction: np.ndarray


def _portfolio_supply(
    model: TTMModel,
    invariants: PortfolioInvariants,
    capacity: Optional[CapacityLike],
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    scratch: Optional[_SupplyScratch] = None,
) -> _PortfolioSupply:
    """Resolve the sampled supply parameters into portfolio tensors."""
    conditions = model.foundry.conditions
    n_designs, max_nodes = invariants.node_mask.shape

    rate_scale: ArrayLike = 1.0
    if wafer_rate_scale is not None:
        rate_scale = _sample_array(wafer_rate_scale, "wafer rate scale")
    queue_override = None
    if queue_weeks is not None:
        queue_override = _sample_array(
            queue_weeks, "queue weeks", nonnegative=True
        )

    shared = None
    mapping: Optional[Mapping[str, np.ndarray]] = None
    if isinstance(capacity, Mapping):
        mapping = {
            name: _sample_array(values, f"capacity fraction for {name!r}")
            for name, values in capacity.items()
        }
    elif capacity is not None:
        shared = _sample_array(capacity, "capacity fraction")

    def _mul(a: ArrayLike, b: ArrayLike, out: Optional[np.ndarray]):
        if out is None:
            return np.asarray(a) * b
        return np.multiply(a, b, out=out)

    scaled_max_rate = _mul(
        invariants.max_rate[:, :, None],
        rate_scale,
        scratch.scaled if scratch is not None else None,
    )
    rates_out = scratch.rates if scratch is not None else None

    if shared is not None:
        rates = _mul(scaled_max_rate, shared, rates_out)
    else:
        base = np.ones((n_designs, max_nodes))
        for d, processes in enumerate(invariants.processes):
            for p, name in enumerate(processes):
                if mapping is not None and name in mapping:
                    continue
                fraction = conditions.capacity_for(name)
                if fraction <= 0.0:
                    raise InvalidParameterError(
                        f"node {name!r} has zero effective capacity "
                        f"(fraction {fraction}); time-to-market would be "
                        "unbounded"
                    )
                base[d, p] = fraction
        if mapping is None:
            rates = _mul(scaled_max_rate, base[:, :, None], rates_out)
        else:
            if scratch is None:
                tail = np.broadcast(*mapping.values()).shape if mapping else ()
                fraction_tensor = np.empty(
                    (n_designs, max_nodes) + (tail if tail else (1,))
                )
            else:
                fraction_tensor = scratch.fraction
            fraction_tensor[...] = base[:, :, None]
            for d, processes in enumerate(invariants.processes):
                for p, name in enumerate(processes):
                    if name in mapping:
                        fraction_tensor[d, p, :] = mapping[name]
            rates = _mul(scaled_max_rate, fraction_tensor, rates_out)

    backlog_out = scratch.backlog if scratch is not None else None
    if queue_override is not None:
        backlog = _mul(queue_override, scaled_max_rate, backlog_out)
    else:
        quotes = np.zeros((n_designs, max_nodes))
        for d, processes in enumerate(invariants.processes):
            for p, name in enumerate(processes):
                quotes[d, p] = conditions.queue_weeks_for(name)
        backlog = _mul(quotes[:, :, None], scaled_max_rate, backlog_out)

    if d0_scale is None:
        wafers = invariants.wafers_per_chip[:, :, None]
        testing = invariants.testing_weeks_per_chip[:, None]
    else:
        scale = _sample_array(d0_scale, "defect density scale")
        wafers = invariants.wafers_per_chip_at(scale)
        testing = invariants.testing_weeks_per_chip_at(scale)
    return _PortfolioSupply(
        rates=rates,
        backlog=backlog,
        wafers_per_chip=wafers,
        testing_weeks_per_chip=testing,
    )


def _node_completion(
    invariants: PortfolioInvariants,
    schedule: str,
    backlog: np.ndarray,
    load: np.ndarray,
    rates: np.ndarray,
    nodes: slice = slice(None),
) -> np.ndarray:
    """Per-node completion weeks, ``(D, nodes, S)``, at explicit ``rates``.

    Queue drain (``backlog / rates``) + production (``load / rates``,
    where ``load`` is quantity x wafers per chip) + fab latency for the
    ``nodes`` slots, which ``backlog``/``load``/``rates`` already cover,
    plus the node's own tapeout under the pipelined schedule: the value
    the node-axis max reduces.
    """
    node_total = (
        backlog / rates
        + load / rates
        + invariants.fab_latency_weeks[:, nodes, None]
    )
    if schedule == "pipelined":
        return invariants.tapeout_weeks[:, nodes, None] + node_total
    return node_total


def _fabrication(
    invariants: PortfolioInvariants, schedule: str, completion: np.ndarray
) -> np.ndarray:
    """Fabrication weeks ``(D, S)``: the latest node, padded slots masked."""
    if invariants.padded:
        completion = np.where(
            invariants.node_mask[:, :, None], completion, -np.inf
        )
    if completion.shape[1] == 1:
        latest = completion[:, 0]
    else:
        latest = np.max(completion, axis=1)
    if schedule == "pipelined":
        return latest - invariants.max_tapeout_weeks[:, None]
    return latest


def _tapeout_and_packaging(
    invariants: PortfolioInvariants,
    schedule: str,
    tap_latency_weeks: float,
    quantities_design: np.ndarray,
    supply: _PortfolioSupply,
) -> Tuple[np.ndarray, np.ndarray]:
    """The rate-independent phases: tapeout ``(D, 1)``, packaging ``(D, S)``."""
    if schedule == "pipelined":
        tapeout_weeks = invariants.max_tapeout_weeks[:, None]
    else:
        tapeout_weeks = invariants.sequential_tapeout_weeks[:, None]
    packaging_weeks = (
        tap_latency_weeks
        + quantities_design * supply.testing_weeks_per_chip
        + quantities_design * invariants.assembly_weeks_per_chip[:, None]
    )
    return tapeout_weeks, packaging_weeks


@dataclass(frozen=True)
class PortfolioTTMResult:
    """TTM phase breakdown over the full (designs x samples) tensor.

    Row ``i`` is design ``i`` under the shared sampled supply (common
    random numbers). All arrays share the broadcast shape
    ``(n_designs, n_samples)``.
    """

    designs: Tuple[str, ...]
    schedule: str
    design_weeks: np.ndarray
    tapeout_weeks: np.ndarray
    fabrication_weeks: np.ndarray
    packaging_weeks: np.ndarray
    total_weeks: np.ndarray
    total_wafers: np.ndarray


@observed_kernel("engine.portfolio_ttm", lambda r: r.total_weeks.size)
def portfolio_ttm(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[PortfolioInvariants] = None,
) -> PortfolioTTMResult:
    """Vectorized TTM for every design under one shared sample set.

    ``capacity=None`` keeps current conditions, a scalar/vector is a
    global fraction (as in ``TTMModel.at_capacity``), a mapping
    overrides listed nodes. The sampled supply arrays are shared across
    designs — the common-random-numbers guarantee — and must be scalars
    or 1-D; ``n_chips`` may additionally be a ``(n_designs, n_samples)``
    matrix.

    ``invariants`` accepts a pre-compiled portfolio (e.g. a
    shared-memory attach in a worker process); when given, ``designs``
    is unused and may be ``None``.
    """
    if invariants is None:
        invariants = compile_portfolio(
            designs,
            model.foundry.technology,
            engineers=model.engineers,
            alpha=model.alpha,
            edge_corrected=model.edge_corrected,
            block_parallel=model.block_parallel,
        )
    quantities_node, quantities_design = _portfolio_quantities(
        n_chips, invariants.n_designs
    )
    supply = _portfolio_supply(
        model,
        invariants,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    if get_backend().name == "compiled":
        from .compiled.adapters import portfolio_ttm_from_supply

        return portfolio_ttm_from_supply(
            model, invariants, quantities_design, supply
        )
    tapeout_weeks, packaging_weeks = _tapeout_and_packaging(
        invariants,
        model.schedule,
        model.tap_latency_weeks,
        quantities_design,
        supply,
    )
    fabrication_weeks = _fabrication(
        invariants,
        model.schedule,
        _node_completion(
            invariants,
            model.schedule,
            supply.backlog,
            quantities_node * supply.wafers_per_chip,
            supply.rates,
        ),
    )
    total_weeks = (
        invariants.design_weeks[:, None]
        + tapeout_weeks
        + fabrication_weeks
        + packaging_weeks
    )
    total_wafers = quantities_design * supply.wafers_per_chip.sum(axis=1)
    shape = np.broadcast(total_weeks, total_wafers).shape
    return PortfolioTTMResult(
        designs=invariants.designs,
        schedule=model.schedule,
        design_weeks=invariants.design_weeks,
        tapeout_weeks=_fit(tapeout_weeks, shape),
        fabrication_weeks=_fit(fabrication_weeks, shape),
        packaging_weeks=_fit(packaging_weeks, shape),
        total_weeks=_fit(total_weeks, shape),
        total_wafers=_fit(np.asarray(total_wafers, dtype=float), shape),
    )


@dataclass(frozen=True)
class PortfolioCASResult:
    """Chip Agility Score (Eq. 8) over the (designs x samples) tensor.

    ``cas`` is raw wafers/week^2 with shape ``(n_designs, n_samples)``;
    ``sensitivity`` is per node slot, ``(n_designs, max_nodes,
    n_samples)``, zero in padded slots.
    """

    designs: Tuple[str, ...]
    processes: Tuple[Tuple[str, ...], ...]
    cas: np.ndarray
    sensitivity: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        """CAS in the figures' normalized (kilo-wafer) units."""
        return self.cas / WAFERS_PER_NORMALIZED_UNIT


@observed_kernel("engine.portfolio_cas", lambda r: r.cas.size)
def portfolio_cas(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: ArrayLike,
    capacity: Optional[CapacityLike] = None,
    relative_step: float = DEFAULT_RELATIVE_STEP,
    queue_weeks: Optional[ArrayLike] = None,
    d0_scale: Optional[ArrayLike] = None,
    wafer_rate_scale: Optional[ArrayLike] = None,
    invariants: Optional[PortfolioInvariants] = None,
) -> PortfolioCASResult:
    """Vectorized CAS for every design under one shared sample set.

    Each node slot's rate is perturbed by ``relative_step`` in both
    directions and the central-difference TTM slope accumulated, as in
    :func:`~repro.agility.cas.chip_agility_score`; padded slots perturb a
    neutral rate that is masked out of the TTM reduction, so their slope
    is exactly zero and the per-design sensitivity sum is unchanged.
    """
    if not 0.0 < relative_step < 1.0:
        raise InvalidParameterError(
            f"relative step must be in (0, 1), got {relative_step}"
        )
    if invariants is None:
        invariants = compile_portfolio(
            designs,
            model.foundry.technology,
            engineers=model.engineers,
            alpha=model.alpha,
            edge_corrected=model.edge_corrected,
            block_parallel=model.block_parallel,
        )
    quantities_node, quantities_design = _portfolio_quantities(
        n_chips, invariants.n_designs
    )
    supply = _portfolio_supply(
        model,
        invariants,
        capacity,
        queue_weeks=queue_weeks,
        d0_scale=d0_scale,
        wafer_rate_scale=wafer_rate_scale,
    )
    if get_backend().name == "compiled":
        from .compiled.adapters import portfolio_cas_from_supply

        return portfolio_cas_from_supply(
            model, invariants, quantities_design, supply, relative_step
        )

    schedule = model.schedule
    tapeout_weeks, packaging_weeks = _tapeout_and_packaging(
        invariants,
        schedule,
        model.tap_latency_weeks,
        quantities_design,
        supply,
    )
    head = invariants.design_weeks[:, None] + tapeout_weeks
    load = quantities_node * supply.wafers_per_chip
    single = invariants.max_nodes == 1
    if not single:
        completion = _node_completion(
            invariants, schedule, supply.backlog, load, supply.rates
        )
    sensitivities = []
    total = None
    for p in range(invariants.max_nodes):
        # Only node p's completion moves when its rate is perturbed; the
        # other slots keep their base values bit for bit.
        nodes = slice(p, p + 1)
        base_rate = supply.rates[:, nodes]
        max_rate = invariants.max_rate[:, nodes, None]
        step = base_rate * relative_step
        perturbed_ttm = []
        for sign in (+1.0, -1.0):
            rate = base_rate + sign * step
            # Mirror the scalar path's rate -> fraction -> rate round trip
            # (conditions store fractions, the foundry rescales by max rate).
            effective = max_rate * (rate / max_rate)
            moved = _node_completion(
                invariants,
                schedule,
                supply.backlog[:, nodes],
                load[:, nodes],
                effective,
                nodes,
            )
            if single:
                values = moved
            else:
                values = completion.copy()
                values[:, nodes] = moved
            perturbed_ttm.append(
                head + _fabrication(invariants, schedule, values)
                + packaging_weeks
            )
        slope = (perturbed_ttm[0] - perturbed_ttm[1]) / (2.0 * step[:, 0])
        sensitivity = np.abs(slope)
        sensitivities.append(sensitivity)
        total = sensitivity if total is None else total + sensitivity

    row_positive = (total > 0.0).all(axis=1)
    if not np.all(row_positive):
        bad = invariants.designs[int(np.argmin(row_positive))]
        raise InvalidParameterError(
            f"design {bad!r} has zero TTM sensitivity on all nodes; "
            "CAS is unbounded (check the production volume is non-trivial)"
        )
    sensitivity = np.empty(
        (invariants.n_designs, invariants.max_nodes) + total.shape[1:]
    )
    for p, node_sensitivity in enumerate(sensitivities):
        sensitivity[:, p] = node_sensitivity
    return PortfolioCASResult(
        designs=invariants.designs,
        processes=invariants.processes,
        cas=1.0 / total,
        sensitivity=sensitivity,
    )


@dataclass(frozen=True)
class PortfolioCostResult:
    """Chip-creation cost breakdown over the (designs x samples) tensor.

    NRE terms are per-design ``(n_designs,)`` vectors; recurring terms
    share the broadcast shape ``(n_designs, n_samples)``.
    """

    designs: Tuple[str, ...]
    engineering_usd: np.ndarray
    fixed_usd: np.ndarray
    mask_usd: np.ndarray
    wafer_usd: np.ndarray
    testing_usd: np.ndarray
    packaging_usd: np.ndarray
    n_chips: np.ndarray

    @property
    def nre_usd(self) -> np.ndarray:
        """One-time costs per design: engineering + fixed + masks."""
        return self.engineering_usd + self.fixed_usd + self.mask_usd

    @property
    def manufacturing_usd(self) -> np.ndarray:
        """Recurring costs: wafers + testing + packaging."""
        return self.wafer_usd + self.testing_usd + self.packaging_usd

    @property
    def total_usd(self) -> np.ndarray:
        """Total chip-creation cost per (design, sample) cell."""
        return self.nre_usd[:, None] + self.manufacturing_usd

    @property
    def usd_per_chip(self) -> np.ndarray:
        """Total cost amortized over each cell's production run."""
        return self.total_usd / self.n_chips


@observed_kernel("engine.portfolio_cost", lambda r: r.n_chips.size)
def portfolio_cost(
    cost_model: CostModel,
    designs: Sequence[ChipDesign],
    n_chips: ArrayLike,
    d0_scale: Optional[ArrayLike] = None,
    engineers: int = DEFAULT_ENGINEERS,
    invariants: Optional[PortfolioInvariants] = None,
) -> PortfolioCostResult:
    """Vectorized chip-creation cost for every design in one pass.

    ``engineers`` only selects which cached invariants are reused (cost
    is team-size independent); pass the companion TTM model's team size
    so a joint TTM+cost study shares one compiled portfolio.
    """
    if invariants is None:
        invariants = compile_portfolio(
            designs,
            cost_model.technology,
            engineers=engineers,
            alpha=cost_model.alpha,
            edge_corrected=cost_model.edge_corrected,
        )
    quantities_node, quantities_design = _portfolio_quantities(
        n_chips, invariants.n_designs
    )
    if d0_scale is None:
        scale: np.ndarray = np.asarray(1.0, dtype=float)
    else:
        scale = _sample_array(d0_scale, "defect density scale")
    if get_backend().name == "compiled":
        from .compiled.adapters import portfolio_cost_from_parts

        return portfolio_cost_from_parts(
            cost_model, invariants, quantities_node, quantities_design, scale
        )
    yields = invariants.profile_yields(scale)
    return _portfolio_cost_from_tensors(
        cost_model,
        invariants,
        quantities_node,
        quantities_design,
        invariants.wafers_per_chip_at(scale, yields=yields),
        yields,
    )


def _scatter_add_rows(
    out: np.ndarray, index: np.ndarray, contribution: np.ndarray
) -> None:
    """``np.add.at(out, index, contribution)`` via in-order row adds.

    ``np.add.at`` applies ``out[index[i]] += contribution[i]`` for ``i``
    in array order through a slow element-general inner loop; running
    the very same accumulation as one in-place vectorized row add per
    profile keeps the operation order and operands — and therefore the
    bits — identical while being several times faster. Falls back to
    ``np.add.at`` when rows are not arrays (scalar tail).
    """
    if out.ndim >= 2 and np.ndim(contribution) >= 2:
        for i, d in enumerate(index):
            out[d] += contribution[i]
    else:
        np.add.at(out, index, contribution)


def _portfolio_cost_from_tensors(
    cost_model: CostModel,
    invariants: PortfolioInvariants,
    quantities_node: np.ndarray,
    quantities_design: np.ndarray,
    wafers_per_chip: np.ndarray,
    yields: np.ndarray,
    production_load: Optional[np.ndarray] = None,
    dies_numerator: Optional[np.ndarray] = None,
) -> PortfolioCostResult:
    """NumPy cost kernel over precomputed D0-dependent tensors.

    Split out of :func:`portfolio_cost` so the fused scenario cube can
    compute the ``pow``-heavy ``wafers_per_chip_at`` / ``profile_yields``
    tensors once per unique D0 multiplier and share them across every
    (demand, D0) combination — the arithmetic downstream of the tensors
    is unchanged, so results stay bit-identical per call.
    ``production_load``, when given, must equal ``quantities_node *
    wafers_per_chip`` (the TTM cube computes exactly that product per
    group and lends it out here); ``dies_numerator`` must equal the
    per-profile quantities times ``profile_count`` (demand-only, so the
    scenario cube shares it across D0 groups).
    """
    engineering = (
        invariants.tapeout_effort_weeks * cost_model.engineer_week_cost_usd
    ).sum(axis=1)
    fixed = invariants.tapeout_fixed_usd.sum(axis=1)
    masks = invariants.mask_set_usd.sum(axis=1)

    if production_load is None:
        production_load = quantities_node * wafers_per_chip
    wafer_usd = (
        production_load * invariants.wafer_cost_usd[:, :, None]
    ).sum(axis=1)

    if quantities_design.ndim == 2:
        profile_quantities: np.ndarray = quantities_design[
            invariants.profile_design
        ]
    else:
        profile_quantities = quantities_design
    if dies_numerator is None:
        dies_numerator = (
            profile_quantities * invariants.profile_count[:, None]
        )
    dies_tested = dies_numerator / yields
    testing_contribution = (
        dies_tested
        * invariants.profile_ntt[:, None]
        * cost_model.test_usd_per_transistor
    )
    packaging_contribution = dies_numerator * (
        cost_model.die_handling_usd
        + invariants.profile_area_mm2[:, None]
        * cost_model.package_area_usd_per_mm2
    )

    tail = np.broadcast_shapes(
        yields.shape[1:],
        np.shape(quantities_design)[-1:] if quantities_design.ndim else (),
    )
    testing_usd = np.zeros((invariants.n_designs,) + tail)
    _scatter_add_rows(
        testing_usd, invariants.profile_design, testing_contribution
    )
    packaging_usd = np.zeros((invariants.n_designs,) + tail)
    packaging_usd += quantities_design * cost_model.package_base_usd
    _scatter_add_rows(
        packaging_usd, invariants.profile_design, packaging_contribution
    )

    shape = np.broadcast(testing_usd, wafer_usd).shape
    return PortfolioCostResult(
        designs=invariants.designs,
        engineering_usd=engineering,
        fixed_usd=fixed,
        mask_usd=masks,
        wafer_usd=_fit(np.asarray(wafer_usd, float), shape),
        testing_usd=_fit(testing_usd, shape),
        packaging_usd=_fit(packaging_usd, shape),
        n_chips=np.broadcast_to(quantities_design, shape),
    )


def portfolio_ttm_over_capacity(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: float,
    fractions: Sequence[float],
) -> np.ndarray:
    """Total TTM over a global capacity sweep, ``(n_designs, n_points)``."""
    return portfolio_ttm(
        model, designs, n_chips, capacity=fractions
    ).total_weeks


def portfolio_cas_over_capacity(
    model: TTMModel,
    designs: Sequence[ChipDesign],
    n_chips: float,
    fractions: Sequence[float],
    relative_step: float = DEFAULT_RELATIVE_STEP,
) -> np.ndarray:
    """Normalized CAS over a global capacity sweep, ``(n_designs, n_points)``."""
    return portfolio_cas(
        model,
        designs,
        n_chips,
        capacity=fractions,
        relative_step=relative_step,
    ).normalized


__all__ = [
    "PortfolioCASResult",
    "PortfolioCostResult",
    "PortfolioInvariants",
    "PortfolioTTMResult",
    "compile_portfolio",
    "portfolio_cas",
    "portfolio_cas_over_capacity",
    "portfolio_cost",
    "portfolio_fingerprint",
    "portfolio_ttm",
    "portfolio_ttm_over_capacity",
]
