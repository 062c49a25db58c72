"""Single-pass fused loop kernels for the compiled backend.

Only the tiers that own arithmetic have kernels here: the portfolio
TTM, CAS and cost-accumulation kernels (the per-design ``batch_*``
adapters reach them through ``portfolio_*``) and the fused scenario
cube. Each replaces a chain of NumPy array expressions with one pass
over the sample axis, writing into caller-allocated output arrays and
allocating nothing itself (Numba ``nopython`` friendly: inputs are
plain ndarrays, ints, floats and bools only). The *per-element
operation order replicates the NumPy expressions exactly* — same
association, same evaluation order, the running maxima visiting
elements in index order exactly as ``np.max`` does — which is what
makes float64 results bit-for-bit identical to the NumPy backend (the
equivalence suite pins this). When editing a kernel, keep every
parenthesisation in sync with the corresponding expression in
:mod:`repro.engine.portfolio` / :mod:`repro.engine.scenario`; a merely
algebraically-equal rewrite will break the bit-equality contract.

Anything numerically delicate stays on the NumPy side of the adapter
boundary on purpose: yield powers (libm ``pow`` may differ between
NumPy and Numba), ``np.sum`` reductions (pairwise, not sequential),
and the invariant helpers. The kernels only see pre-resolved dense
tensors.

Kernels take integer *sample-stride flags* (``0`` when that
input's sample axis has length 1, else ``1``) so broadcast inputs are
indexed without materializing the broadcast: element ``s`` of a
length-1 axis is read as ``a[..., s * flag]``.

With Numba installed, :func:`get_kernel` returns an ``njit`` dispatcher
(``fastmath=False`` — reassociation would break bit-equality), cached
in the shared invariant LRU under ``("compiled-kernel", name, tag)``.
Without Numba the same Python functions run as-is.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..invariants import cached_invariants
from . import _import_numba


def portfolio_ttm_core(
    rates,
    stride_rates,
    backlog,
    stride_backlog,
    wafers,
    stride_wafers,
    testing,
    stride_testing,
    quantities,
    stride_qd,
    stride_qs,
    node_mask,
    tapeout,
    fab_latency,
    tapeout_scalars,
    assembly,
    design_weeks,
    pipelined,
    tap_latency,
    fabrication_out,
    packaging_out,
    total_out,
):
    """Fused portfolio TTM over the (designs, nodes, samples) tensor.

    Masked (padded) node slots are skipped; the running max visits the
    unmasked nodes in index order, matching the NumPy ``-inf`` mask.
    ``quantities`` is normalized to 2-D (designs?, samples?) with its
    own stride flags.
    """
    n_designs = node_mask.shape[0]
    n_nodes = node_mask.shape[1]
    n_samples = total_out.shape[1]
    for d in range(n_designs):
        tapeout_scalar = tapeout_scalars[d]
        for s in range(n_samples):
            quantity = quantities[d * stride_qd, s * stride_qs]
            best = 0.0
            first = True
            for n in range(n_nodes):
                if not node_mask[d, n]:
                    continue
                rate = rates[d, n, s * stride_rates]
                node_total = (
                    backlog[d, n, s * stride_backlog] / rate
                    + (quantity * wafers[d, n, s * stride_wafers]) / rate
                ) + fab_latency[d, n]
                if pipelined:
                    value = tapeout[d, n] + node_total
                else:
                    value = node_total
                if first or value > best:
                    best = value
                    first = False
            if pipelined:
                fabrication = best - tapeout_scalar
            else:
                fabrication = best
            packaging = (
                tap_latency + quantity * testing[d, s * stride_testing]
            ) + quantity * assembly[d]
            fabrication_out[d, s] = fabrication
            packaging_out[d, s] = packaging
            total_out[d, s] = (
                (design_weeks[d] + tapeout_scalar) + fabrication
            ) + packaging


def portfolio_cas_core(
    rates,
    stride_rates,
    backlog,
    stride_backlog,
    wafers,
    stride_wafers,
    testing,
    stride_testing,
    quantities,
    stride_qd,
    stride_qs,
    node_mask,
    tapeout,
    fab_latency,
    max_rate,
    tapeout_scalars,
    assembly,
    design_weeks,
    pipelined,
    tap_latency,
    relative_step,
    sensitivity_out,
    total_out,
):
    """Fused portfolio CAS; padded node slots contribute exactly +0.0."""
    n_designs = node_mask.shape[0]
    n_nodes = node_mask.shape[1]
    n_samples = total_out.shape[1]
    for d in range(n_designs):
        tapeout_scalar = tapeout_scalars[d]
        for s in range(n_samples):
            quantity = quantities[d * stride_qd, s * stride_qs]
            packaging = (
                tap_latency + quantity * testing[d, s * stride_testing]
            ) + quantity * assembly[d]
            total = 0.0
            for p in range(n_nodes):
                if not node_mask[d, p]:
                    sensitivity = 0.0
                else:
                    base = rates[d, p, s * stride_rates]
                    step = base * relative_step
                    rate_up = max_rate[d, p] * (
                        (base + 1.0 * step) / max_rate[d, p]
                    )
                    rate_down = max_rate[d, p] * (
                        (base + (-1.0) * step) / max_rate[d, p]
                    )
                    best_up = 0.0
                    best_down = 0.0
                    first = True
                    for n in range(n_nodes):
                        if not node_mask[d, n]:
                            continue
                        if n == p:
                            r_up = rate_up
                            r_down = rate_down
                        else:
                            r_up = rates[d, n, s * stride_rates]
                            r_down = r_up
                        wafer_load = (
                            quantity * wafers[d, n, s * stride_wafers]
                        )
                        queue = backlog[d, n, s * stride_backlog]
                        node_up = (
                            queue / r_up + wafer_load / r_up
                        ) + fab_latency[d, n]
                        node_down = (
                            queue / r_down + wafer_load / r_down
                        ) + fab_latency[d, n]
                        if pipelined:
                            value_up = tapeout[d, n] + node_up
                            value_down = tapeout[d, n] + node_down
                        else:
                            value_up = node_up
                            value_down = node_down
                        if first or value_up > best_up:
                            best_up = value_up
                        if first or value_down > best_down:
                            best_down = value_down
                        first = False
                    if pipelined:
                        fab_up = best_up - tapeout_scalar
                        fab_down = best_down - tapeout_scalar
                    else:
                        fab_up = best_up
                        fab_down = best_down
                    total_up = (
                        (design_weeks[d] + tapeout_scalar) + fab_up
                    ) + packaging
                    total_down = (
                        (design_weeks[d] + tapeout_scalar) + fab_down
                    ) + packaging
                    slope = (total_up - total_down) / (2.0 * step)
                    sensitivity = abs(slope)
                sensitivity_out[d, p, s] = sensitivity
                if p == 0:
                    total = sensitivity
                else:
                    total = total + sensitivity
            total_out[d, s] = total


def portfolio_cost_accum_core(
    quantities,
    stride_qd,
    stride_qs,
    yields,
    stride_yields,
    profile_design,
    counts,
    ntts,
    areas,
    package_base,
    handling,
    area_usd,
    test_usd,
    testing_out,
    packaging_out,
):
    """Fused portfolio testing/packaging accumulation over die profiles.

    Profiles are visited in ascending index order, replicating the
    ``np.add.at`` accumulation order of the NumPy path.
    """
    n_designs = testing_out.shape[0]
    n_samples = testing_out.shape[1]
    n_profiles = counts.shape[0]
    for d in range(n_designs):
        for s in range(n_samples):
            testing_out[d, s] = 0.0
            packaging_out[d, s] = (
                quantities[d * stride_qd, s * stride_qs] * package_base
            )
    for k in range(n_profiles):
        design = profile_design[k]
        for s in range(n_samples):
            quantity = quantities[design * stride_qd, s * stride_qs]
            dies_tested = (quantity * counts[k]) / yields[k, s * stride_yields]
            testing_out[design, s] = (
                testing_out[design, s] + (dies_tested * ntts[k]) * test_usd
            )
            packaging_out[design, s] = packaging_out[design, s] + (
                quantity * counts[k]
            ) * (handling + areas[k] * area_usd)


def scenario_eval_core(
    demand_mult,
    cap_cols,
    cap_idx,
    queue_mult,
    queue_add,
    queue_identity,
    wafer_mult,
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
    stride_wafers,
    testing_groups,
    stride_testing,
    node_mask,
    tapeout,
    fab_latency,
    max_rate,
    tapeout_scalars,
    assembly,
    design_weeks,
    pipelined,
    tap_latency,
    relative_step,
    with_cas,
    fabrication_out,
    total_out,
    cas_total_out,
):
    """Fused (scenarios, designs, samples) TTM + CAS cube in one pass.

    Scenario transforms arrive as SoA multiplier vectors (``(K,)``;
    per-node capacity multipliers as ``cap_cols``/``cap_idx`` columns)
    and are applied to the *base* sample arrays inline, with the same
    per-element op order the looped oracle performs on materialized
    transformed arrays. ``wafers_groups``/``testing_groups`` hold one
    D0-derived tensor per unique defect multiplier (``group_idx`` maps
    scenarios to groups) — the numerically delicate yield powers stay
    NumPy-side, shared across scenarios.

    CAS uses leave-one-out node maxima: the node reduction is a max
    (exact, so reassociation is bitwise safe), so each perturbation
    recomputes only node ``p``'s candidate and recombines it with the
    precomputed max over the other nodes — ``O(1)`` per perturbation
    instead of the oracle's full node re-walk, with identical bits.
    ``cas_total_out`` receives the summed sensitivity (the caller
    inverts after its positivity check).
    """
    n_scenarios = total_out.shape[0]
    n_designs = total_out.shape[1]
    n_samples = total_out.shape[2]
    n_nodes = node_mask.shape[1]
    rates_row = np.empty(n_nodes)
    backlog_row = np.empty(n_nodes)
    load_row = np.empty(n_nodes)
    value_row = np.empty(n_nodes)
    loo_row = np.empty(n_nodes)
    for k in range(n_scenarios):
        dm = demand_mult[k]
        qm = queue_mult[k]
        qa = queue_add[k]
        q_identity = queue_identity[k]
        wm = wafer_mult[k]
        g = group_idx[k]
        for d in range(n_designs):
            tapeout_scalar = tapeout_scalars[d]
            for s in range(n_samples):
                quantity = quantities[d * stride_qd, s * stride_qs]
                if dm != 1.0:
                    quantity = quantity * dm
                best = 0.0
                first = True
                for p in range(n_nodes):
                    if not node_mask[d, p]:
                        value_row[p] = -np.inf
                        continue
                    if has_rate_base:
                        rate_scale = rate_base[s * stride_rate]
                        if wm != 1.0:
                            rate_scale = rate_scale * wm
                        scaled_max = max_rate[d, p] * rate_scale
                    elif wm != 1.0:
                        scaled_max = max_rate[d, p] * wm
                    else:
                        scaled_max = max_rate[d, p] * 1.0
                    mult = cap_cols[k, cap_idx[d, p]]
                    if has_cap_base:
                        fraction = cap_base[s * stride_cap]
                        if mult != 1.0:
                            fraction = fraction * mult
                    else:
                        fraction = cond_frac[d, p]
                        if mult != 1.0:
                            fraction = fraction * mult
                    rate = scaled_max * fraction
                    if has_queue_base:
                        queue_weeks = queue_base[s * stride_queue]
                        if not q_identity:
                            queue_weeks = queue_weeks * qm + qa
                        queue_load = queue_weeks * scaled_max
                    else:
                        queue_load = quotes[d, p] * scaled_max
                    wafer_load = (
                        quantity
                        * wafers_groups[g, d, p, s * stride_wafers]
                    )
                    node_total = (
                        queue_load / rate + wafer_load / rate
                    ) + fab_latency[d, p]
                    if pipelined:
                        value = tapeout[d, p] + node_total
                    else:
                        value = node_total
                    rates_row[p] = rate
                    backlog_row[p] = queue_load
                    load_row[p] = wafer_load
                    value_row[p] = value
                    if first or value > best:
                        best = value
                        first = False
                if pipelined:
                    fabrication = best - tapeout_scalar
                else:
                    fabrication = best
                testing = testing_groups[g, d, s * stride_testing]
                packaging = (
                    tap_latency + quantity * testing
                ) + quantity * assembly[d]
                fabrication_out[k, d, s] = fabrication
                total_out[k, d, s] = (
                    (design_weeks[d] + tapeout_scalar) + fabrication
                ) + packaging
                if not with_cas:
                    continue
                running = -np.inf
                for p in range(n_nodes):
                    loo_row[p] = running
                    if value_row[p] > running:
                        running = value_row[p]
                running = -np.inf
                for p in range(n_nodes - 1, -1, -1):
                    if running > loo_row[p]:
                        loo_row[p] = running
                    if value_row[p] > running:
                        running = value_row[p]
                total = 0.0
                for p in range(n_nodes):
                    if not node_mask[d, p]:
                        sensitivity = 0.0
                    else:
                        base = rates_row[p]
                        step = base * relative_step
                        rate_up = max_rate[d, p] * (
                            (base + 1.0 * step) / max_rate[d, p]
                        )
                        rate_down = max_rate[d, p] * (
                            (base + (-1.0) * step) / max_rate[d, p]
                        )
                        queue_load = backlog_row[p]
                        wafer_load = load_row[p]
                        node_up = (
                            queue_load / rate_up + wafer_load / rate_up
                        ) + fab_latency[d, p]
                        node_down = (
                            queue_load / rate_down + wafer_load / rate_down
                        ) + fab_latency[d, p]
                        if pipelined:
                            value_up = tapeout[d, p] + node_up
                            value_down = tapeout[d, p] + node_down
                        else:
                            value_up = node_up
                            value_down = node_down
                        others = loo_row[p]
                        best_up = others
                        if value_up > best_up:
                            best_up = value_up
                        best_down = others
                        if value_down > best_down:
                            best_down = value_down
                        if pipelined:
                            fab_up = best_up - tapeout_scalar
                            fab_down = best_down - tapeout_scalar
                        else:
                            fab_up = best_up
                            fab_down = best_down
                        total_up = (
                            (design_weeks[d] + tapeout_scalar) + fab_up
                        ) + packaging
                        total_down = (
                            (design_weeks[d] + tapeout_scalar) + fab_down
                        ) + packaging
                        slope = (total_up - total_down) / (2.0 * step)
                        sensitivity = abs(slope)
                    if p == 0:
                        total = sensitivity
                    else:
                        total = total + sensitivity
                cas_total_out[k, d, s] = total


#: Kernel name -> pure-Python source function.
KERNEL_SOURCES: Dict[str, Callable[..., None]] = {
    "portfolio_ttm": portfolio_ttm_core,
    "portfolio_cas": portfolio_cas_core,
    "portfolio_cost_accum": portfolio_cost_accum_core,
    "scenario_eval": scenario_eval_core,
}


def jit_compile(function: Callable[..., None]) -> Callable[..., None]:
    """``numba.njit`` the kernel when Numba is present, else pass through.

    ``fastmath`` stays off: reassociation/FMA contraction would break
    the bit-for-bit float64 contract with the NumPy backend.
    """
    numba = _import_numba()
    if numba is None:
        return function
    return numba.njit(cache=False, fastmath=False, nogil=True)(function)


def _numba_tag() -> str:
    numba = _import_numba()
    return getattr(numba, "__version__", "python") if numba else "python"


def get_kernel(name: str) -> Callable[..., None]:
    """The (possibly jitted) kernel dispatcher for ``name``, LRU-cached."""
    source = KERNEL_SOURCES[name]
    return cached_invariants(
        ("compiled-kernel", name, _numba_tag()),
        lambda: jit_compile(source),
    )


def warm_up_kernels() -> None:
    """Run every kernel once on tiny inputs to force jit compilation."""
    f = np.ones(1)
    f2 = np.ones((1, 1))
    f3 = np.ones((1, 1, 1))
    mask = np.ones((1, 1), dtype=bool)
    idx = np.zeros(1, dtype=np.intp)
    for dtype in (np.float64,):
        a = f.astype(dtype)
        a2 = f2.astype(dtype)
        a3 = f3.astype(dtype)
        out2 = np.empty((1, 1), dtype=dtype)
        out3 = np.empty((1, 1, 1), dtype=dtype)
        get_kernel("portfolio_ttm")(
            a3, 1, a3, 1, a3, 1, a2, 1, a2, 1, 1, mask, a2, a2, a, a, a,
            True, 1.0, out2.copy(), out2.copy(), out2.copy(),
        )
        get_kernel("portfolio_cas")(
            a3, 1, a3, 1, a3, 1, a2, 1, a2, 1, 1, mask, a2, a2, a2, a, a,
            a, True, 1.0, 1e-3, out3.copy(), out2.copy(),
        )
        get_kernel("portfolio_cost_accum")(
            a2, 1, 1, a2, 1, idx, a, a, a, 1.0, 1.0, 1.0, 1.0,
            out2.copy(), out2.copy(),
        )
        a4 = np.ones((1, 1, 1, 1), dtype=dtype)
        get_kernel("scenario_eval")(
            a, a2, idx.reshape(1, 1), a, a.copy() * 0.0,
            np.ones(1, dtype=bool), a, idx, a2, 1, 1,
            a, 1, True, a2, a, 1, True, a2, a, 1, True,
            a4, 1, a3, 1, mask, a2, a2, a2, a, a, a,
            True, 1.0, 1e-3, True,
            out3.copy(), out3.copy(), out3.copy(),
        )


__all__ = [
    "KERNEL_SOURCES",
    "get_kernel",
    "jit_compile",
    "portfolio_cas_core",
    "portfolio_cost_accum_core",
    "portfolio_ttm_core",
    "scenario_eval_core",
    "warm_up_kernels",
]
