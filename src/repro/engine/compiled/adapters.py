"""Adapters between the engine's public kernels and the fused loops.

Each adapter takes the same pre-resolved inputs the NumPy expressions
consume (portfolio invariants, validated quantities, ``_PortfolioSupply``
tensors), materializes them into dense C-order arrays, invokes the fused
kernel from :mod:`.kernels`, and reassembles the public result
dataclass. The per-design ``batch_*`` functions reach these adapters
through ``portfolio_*``, so they need none of their own. The split of
work is deliberate:

* everything *numerically delicate* stays NumPy-side — yield powers,
  ``np.sum`` reductions (pairwise), the invariant helpers — so the
  float64 results are bit-for-bit identical to the NumPy backend;
* everything *bandwidth-bound* (the per-sample fused chain) runs in the
  kernel.

Adapters keep the native ``(designs, nodes, samples)`` tensors and use
stride flags instead of materializing broadcasts.

float32 mode casts the TTM/cost kernel inputs (and therefore outputs)
to float32. CAS adapters always run float64 internally: the central
difference subtracts two nearly-equal totals, and at the default
relative step (1e-3) a float32 difference would be dominated by
rounding, not signal.
"""

from __future__ import annotations

import numpy as np

from ..portfolio import (
    PortfolioCASResult,
    PortfolioCostResult,
    PortfolioInvariants,
    PortfolioTTMResult,
    _PortfolioSupply,
    _portfolio_quantities,
)
from ...cost.model import CostModel
from ...errors import InvalidParameterError
from ...ttm.model import TTMModel
from . import get_backend
from .kernels import get_kernel


def _active_dtype() -> np.dtype:
    return np.dtype(
        np.float32 if get_backend().dtype == "float32" else np.float64
    )


def _normalized_quantities(quantities_design: np.ndarray):
    """2-D (designs?, samples?) view of ``n_chips`` plus stride flags."""
    quantities = np.ascontiguousarray(quantities_design, dtype=np.float64)
    if quantities.ndim == 0:
        quantities = quantities.reshape(1, 1)
    elif quantities.ndim == 1:
        quantities = quantities.reshape(1, -1)
    stride_design = 0 if quantities.shape[0] == 1 else 1
    stride_sample = 0 if quantities.shape[1] == 1 else 1
    return quantities, stride_design, stride_sample


def _sample_stride(extent: int) -> int:
    return 0 if extent == 1 else 1


def _portfolio_tensors(
    quantities_design: np.ndarray,
    supply: _PortfolioSupply,
    dtype: np.dtype,
):
    rates = np.ascontiguousarray(supply.rates, dtype=dtype)
    backlog = np.ascontiguousarray(supply.backlog, dtype=dtype)
    wafers = np.ascontiguousarray(supply.wafers_per_chip, dtype=dtype)
    testing = np.ascontiguousarray(
        supply.testing_weeks_per_chip, dtype=dtype
    )
    quantities, stride_qd, stride_qs = _normalized_quantities(
        quantities_design
    )
    if dtype != np.float64:
        quantities = quantities.astype(dtype)
    n_samples = np.broadcast_shapes(
        (rates.shape[2],),
        (wafers.shape[2],),
        (testing.shape[1],),
        (quantities.shape[1],),
    )[0]
    return (
        rates,
        backlog,
        wafers,
        testing,
        quantities,
        stride_qd,
        stride_qs,
        n_samples,
    )


def portfolio_ttm_from_supply(
    model: TTMModel,
    invariants: PortfolioInvariants,
    quantities_design: np.ndarray,
    supply: _PortfolioSupply,
) -> PortfolioTTMResult:
    """Compiled-backend tail of :func:`repro.engine.portfolio.portfolio_ttm`."""
    dtype = _active_dtype()
    (
        rates,
        backlog,
        wafers,
        testing,
        quantities,
        stride_qd,
        stride_qs,
        n_samples,
    ) = _portfolio_tensors(quantities_design, supply, dtype)
    pipelined = model.schedule == "pipelined"
    tapeout_scalars = np.ascontiguousarray(
        invariants.max_tapeout_weeks
        if pipelined
        else invariants.sequential_tapeout_weeks,
        dtype=dtype,
    )
    n_designs = invariants.n_designs
    fabrication = np.empty((n_designs, n_samples), dtype=dtype)
    packaging = np.empty((n_designs, n_samples), dtype=dtype)
    total = np.empty((n_designs, n_samples), dtype=dtype)
    get_kernel("portfolio_ttm")(
        rates,
        _sample_stride(rates.shape[2]),
        backlog,
        _sample_stride(backlog.shape[2]),
        wafers,
        _sample_stride(wafers.shape[2]),
        testing,
        _sample_stride(testing.shape[1]),
        quantities,
        stride_qd,
        stride_qs,
        invariants.node_mask,
        np.ascontiguousarray(invariants.tapeout_weeks, dtype=dtype),
        np.ascontiguousarray(invariants.fab_latency_weeks, dtype=dtype),
        tapeout_scalars,
        np.ascontiguousarray(invariants.assembly_weeks_per_chip, dtype=dtype),
        np.ascontiguousarray(invariants.design_weeks, dtype=dtype),
        pipelined,
        float(model.tap_latency_weeks),
        fabrication,
        packaging,
        total,
    )
    total_wafers = quantities_design * np.sum(
        supply.wafers_per_chip, axis=1
    )
    shape = np.broadcast_shapes(total.shape, np.shape(total_wafers))
    return PortfolioTTMResult(
        designs=invariants.designs,
        schedule=model.schedule,
        design_weeks=invariants.design_weeks,
        tapeout_weeks=np.broadcast_to(tapeout_scalars[:, None], shape),
        fabrication_weeks=np.broadcast_to(fabrication, shape),
        packaging_weeks=np.broadcast_to(packaging, shape),
        total_weeks=np.broadcast_to(total, shape),
        total_wafers=np.broadcast_to(
            np.asarray(total_wafers, dtype=dtype), shape
        ),
    )


def portfolio_cas_from_supply(
    model: TTMModel,
    invariants: PortfolioInvariants,
    quantities_design: np.ndarray,
    supply: _PortfolioSupply,
    relative_step: float,
) -> PortfolioCASResult:
    """Compiled-backend tail of :func:`repro.engine.portfolio.portfolio_cas`.

    Always runs float64 internally (see the module docstring).
    """
    dtype = np.dtype(np.float64)
    (
        rates,
        backlog,
        wafers,
        testing,
        quantities,
        stride_qd,
        stride_qs,
        n_samples,
    ) = _portfolio_tensors(quantities_design, supply, dtype)
    pipelined = model.schedule == "pipelined"
    tapeout_scalars = np.ascontiguousarray(
        invariants.max_tapeout_weeks
        if pipelined
        else invariants.sequential_tapeout_weeks,
        dtype=dtype,
    )
    n_designs = invariants.n_designs
    max_nodes = invariants.max_nodes
    sensitivity = np.empty((n_designs, max_nodes, n_samples), dtype=dtype)
    total = np.empty((n_designs, n_samples), dtype=dtype)
    get_kernel("portfolio_cas")(
        rates,
        _sample_stride(rates.shape[2]),
        backlog,
        _sample_stride(backlog.shape[2]),
        wafers,
        _sample_stride(wafers.shape[2]),
        testing,
        _sample_stride(testing.shape[1]),
        quantities,
        stride_qd,
        stride_qs,
        invariants.node_mask,
        np.ascontiguousarray(invariants.tapeout_weeks, dtype=dtype),
        np.ascontiguousarray(invariants.fab_latency_weeks, dtype=dtype),
        np.ascontiguousarray(invariants.max_rate, dtype=dtype),
        tapeout_scalars,
        np.ascontiguousarray(invariants.assembly_weeks_per_chip, dtype=dtype),
        np.ascontiguousarray(invariants.design_weeks, dtype=dtype),
        pipelined,
        float(model.tap_latency_weeks),
        float(relative_step),
        sensitivity,
        total,
    )
    row_positive = np.all(total > 0.0, axis=tuple(range(1, total.ndim)))
    if not np.all(row_positive):
        bad = invariants.designs[int(np.argmin(row_positive))]
        raise InvalidParameterError(
            f"design {bad!r} has zero TTM sensitivity on all nodes; "
            "CAS is unbounded (check the production volume is non-trivial)"
        )
    return PortfolioCASResult(
        designs=invariants.designs,
        processes=invariants.processes,
        cas=1.0 / total,
        sensitivity=sensitivity,
    )


def portfolio_cost_from_parts(
    cost_model: CostModel,
    invariants: PortfolioInvariants,
    quantities_node: np.ndarray,
    quantities_design: np.ndarray,
    scale: np.ndarray,
) -> PortfolioCostResult:
    """Compiled-backend tail of :func:`repro.engine.portfolio.portfolio_cost`."""
    dtype = _active_dtype()
    wafers_per_chip = invariants.wafers_per_chip_at(scale)

    engineering = np.sum(
        invariants.tapeout_effort_weeks * cost_model.engineer_week_cost_usd,
        axis=1,
    )
    fixed = np.sum(invariants.tapeout_fixed_usd, axis=1)
    masks = np.sum(invariants.mask_set_usd, axis=1)
    wafer_usd = np.sum(
        quantities_node
        * wafers_per_chip
        * invariants.wafer_cost_usd[:, :, None],
        axis=1,
    )

    yields = invariants.profile_yields(scale)
    tail = np.broadcast_shapes(
        yields.shape[1:],
        np.shape(quantities_design)[-1:] if quantities_design.ndim else (),
    )
    n_samples = tail[0] if tail else 1
    quantities, stride_qd, stride_qs = _normalized_quantities(
        quantities_design
    )
    if dtype != np.float64:
        quantities = quantities.astype(dtype)
        yields = yields.astype(dtype)
    else:
        yields = np.ascontiguousarray(yields)

    n_designs = invariants.n_designs
    testing_usd = np.empty((n_designs, n_samples), dtype=dtype)
    packaging_usd = np.empty((n_designs, n_samples), dtype=dtype)
    get_kernel("portfolio_cost_accum")(
        quantities,
        stride_qd,
        stride_qs,
        yields,
        _sample_stride(yields.shape[1]),
        invariants.profile_design,
        np.asarray(invariants.profile_count, dtype=dtype),
        np.asarray(invariants.profile_ntt, dtype=dtype),
        np.asarray(invariants.profile_area_mm2, dtype=dtype),
        float(cost_model.package_base_usd),
        float(cost_model.die_handling_usd),
        float(cost_model.package_area_usd_per_mm2),
        float(cost_model.test_usd_per_transistor),
        testing_usd,
        packaging_usd,
    )
    shape = np.broadcast_shapes(
        (n_designs,) + tail, np.shape(wafer_usd)
    )
    return PortfolioCostResult(
        designs=invariants.designs,
        engineering_usd=engineering,
        fixed_usd=fixed,
        mask_usd=masks,
        wafer_usd=np.broadcast_to(np.asarray(wafer_usd, dtype=dtype), shape),
        testing_usd=np.broadcast_to(
            testing_usd.reshape((n_designs,) + (tail if tail else ())), shape
        ),
        packaging_usd=np.broadcast_to(
            packaging_usd.reshape((n_designs,) + (tail if tail else ())),
            shape,
        ),
        n_chips=np.broadcast_to(quantities_design, shape),
    )


def _base_vector(values) -> tuple:
    """(1-D float64 contiguous view, stride flag, present flag)."""
    if values is None:
        return np.ones(1), 0, False
    array = np.ascontiguousarray(
        np.atleast_1d(np.asarray(values, dtype=np.float64))
    )
    return array, (0 if array.shape[0] == 1 else 1), True


def scenario_eval_from_parts(
    model: TTMModel,
    invariants: PortfolioInvariants,
    scenario_set,
    n_chips,
    capacity,
    queue_weeks,
    d0_scale,
    wafer_rate_scale,
    relative_step: float,
    with_cas: bool,
):
    """Compiled-backend tail of the scenario cube evaluation.

    Always runs float64 internally (the cube's bit-identity pin is a
    float64 contract, and CAS needs float64 regardless). Returns the
    ``(tapeout, fabrication, total, cas-or-None)`` tuple the NumPy path
    produces.
    """
    from ..scenario import _D0Groups

    conditions = model.foundry.conditions
    n_designs, max_nodes = invariants.node_mask.shape
    k_total = scenario_set.n_scenarios

    _, quantities_design = _portfolio_quantities(n_chips, n_designs)
    quantities, stride_qd, stride_qs = _normalized_quantities(
        quantities_design
    )

    cap_base, stride_cap, has_cap_base = _base_vector(capacity)
    queue_base, stride_queue, has_queue_base = _base_vector(queue_weeks)
    rate_base, stride_rate, has_rate_base = _base_vector(wafer_rate_scale)

    if not has_queue_base:
        for k in range(k_total):
            if not bool(scenario_set.queue_identity[k]):
                raise InvalidParameterError(
                    f"scenario {scenario_set.names[k]!r} transforms "
                    "queue weeks but no queue_weeks samples were provided"
                )

    cond_frac = np.ones((n_designs, max_nodes))
    quotes = np.zeros((n_designs, max_nodes))
    for d, processes in enumerate(invariants.processes):
        for p, name in enumerate(processes):
            quotes[d, p] = conditions.queue_weeks_for(name)
            if not has_cap_base:
                fraction = conditions.capacity_for(name)
                if fraction <= 0.0:
                    raise InvalidParameterError(
                        f"node {name!r} has zero effective capacity "
                        f"(fraction {fraction}); time-to-market would be "
                        "unbounded"
                    )
                cond_frac[d, p] = fraction

    cap_cols = np.ascontiguousarray(
        np.concatenate(
            [
                scenario_set.capacity_scale[:, None],
                scenario_set.capacity_node_scale,
            ],
            axis=1,
        )
    )
    cap_idx = np.zeros((n_designs, max_nodes), dtype=np.intp)
    for d, processes in enumerate(invariants.processes):
        for p, name in enumerate(processes):
            try:
                cap_idx[d, p] = scenario_set.capacity_nodes.index(name) + 1
            except ValueError:
                cap_idx[d, p] = 0

    # One D0-derived tensor pair per unique defect multiplier; the
    # numerically delicate yield powers run NumPy-side, shared across
    # every scenario in the group.
    d0_groups = _D0Groups(invariants, d0_scale)
    group_of: dict = {}
    group_idx = np.empty(k_total, dtype=np.intp)
    wafers_list = []
    testing_list = []
    for k in range(k_total):
        g = float(scenario_set.d0_scale[k])
        slot = group_of.get(g)
        if slot is None:
            slot = len(wafers_list)
            group_of[g] = slot
            wafers, testing, _ = d0_groups.tensors(g)
            wafers_list.append(np.asarray(wafers, dtype=np.float64))
            testing_list.append(np.asarray(testing, dtype=np.float64))
        group_idx[k] = slot
    wafers_tail = max(w.shape[2] for w in wafers_list)
    testing_tail = max(t.shape[1] for t in testing_list)
    wafers_groups = np.ascontiguousarray(
        np.stack(
            [
                np.broadcast_to(w, (n_designs, max_nodes, wafers_tail))
                for w in wafers_list
            ]
        )
    )
    testing_groups = np.ascontiguousarray(
        np.stack(
            [
                np.broadcast_to(t, (n_designs, testing_tail))
                for t in testing_list
            ]
        )
    )

    n_samples = np.broadcast_shapes(
        (quantities.shape[1],),
        (cap_base.shape[0],),
        (queue_base.shape[0],),
        (rate_base.shape[0],),
        (wafers_tail,),
        (testing_tail,),
    )[0]
    pipelined = model.schedule == "pipelined"
    tapeout_scalars = np.ascontiguousarray(
        invariants.max_tapeout_weeks
        if pipelined
        else invariants.sequential_tapeout_weeks,
        dtype=np.float64,
    )

    fabrication = np.empty((k_total, n_designs, n_samples))
    total = np.empty((k_total, n_designs, n_samples))
    cas_total = (
        np.empty((k_total, n_designs, n_samples))
        if with_cas
        else np.empty((1, 1, 1))
    )
    get_kernel("scenario_eval")(
        np.ascontiguousarray(scenario_set.demand_scale),
        cap_cols,
        cap_idx,
        np.ascontiguousarray(scenario_set.queue_scale),
        np.ascontiguousarray(scenario_set.queue_add_weeks),
        np.ascontiguousarray(scenario_set.queue_identity),
        np.ascontiguousarray(scenario_set.wafer_rate_scale),
        group_idx,
        quantities,
        stride_qd,
        stride_qs,
        cap_base,
        stride_cap,
        has_cap_base,
        cond_frac,
        queue_base,
        stride_queue,
        has_queue_base,
        quotes,
        rate_base,
        stride_rate,
        has_rate_base,
        wafers_groups,
        _sample_stride(wafers_tail),
        testing_groups,
        _sample_stride(testing_tail),
        invariants.node_mask,
        np.ascontiguousarray(invariants.tapeout_weeks, dtype=np.float64),
        np.ascontiguousarray(invariants.fab_latency_weeks, dtype=np.float64),
        np.ascontiguousarray(invariants.max_rate, dtype=np.float64),
        tapeout_scalars,
        np.ascontiguousarray(
            invariants.assembly_weeks_per_chip, dtype=np.float64
        ),
        np.ascontiguousarray(invariants.design_weeks, dtype=np.float64),
        pipelined,
        float(model.tap_latency_weeks),
        float(relative_step),
        with_cas,
        fabrication,
        total,
        cas_total,
    )
    tapeout = np.broadcast_to(
        tapeout_scalars[None, :], (k_total, n_designs)
    )
    cas = None
    if with_cas:
        for k in range(k_total):
            row_positive = np.all(cas_total[k] > 0.0, axis=1)
            if not np.all(row_positive):
                bad = invariants.designs[int(np.argmin(row_positive))]
                raise InvalidParameterError(
                    f"design {bad!r} has zero TTM sensitivity on all "
                    f"nodes under scenario {scenario_set.names[k]!r}; "
                    "CAS is unbounded (check the production volume is "
                    "non-trivial)"
                )
        cas = 1.0 / cas_total
    return tapeout, fabrication, total, cas


__all__ = [
    "portfolio_cas_from_supply",
    "portfolio_cost_from_parts",
    "portfolio_ttm_from_supply",
    "scenario_eval_from_parts",
]
