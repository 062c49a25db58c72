"""Batched evaluation engine: vectorized TTM/CAS kernels + parallel sweeps.

Every analysis in the reproduction (the Fig. 3/9-13 capacity sweeps, the
Fig. 8 Sobol heatmap, CAS finite differences, grid search) funnels
through ``TTMModel.time_to_market``, which re-derives per-(design, node)
invariants on every scalar call. This package makes the hot paths cheap:

* :mod:`repro.engine.invariants` -- per-(design, technology) quantities
  that do not vary across a sweep, computed once and LRU-cached;
* :mod:`repro.engine.batch` -- per-design ``batch_ttm`` / ``batch_cas`` /
  ``batch_cost`` over arbitrary broadcast grids plus the
  ``*_over_capacity`` sweep conveniences; thin shape adapters over the
  one-design portfolio kernel, with no kernel of their own;
* :mod:`repro.engine.batch_split` -- the Sec. 7 multi-process split
  engine: the full (pair x split-grid) tensor, coarse -> fine grid
  refinement, and sampled-supply evaluation of a fixed production split;
* :mod:`repro.engine.portfolio` -- the per-design kernel: one compiled
  structure-of-arrays portfolio evaluated over ``(designs x samples)``
  in a single broadcasted pass with common random numbers;
* :mod:`repro.engine.sobol_adapter` -- one-shot Saltelli-matrix
  objectives for ``sobol_indices(..., vectorized=True)``;
* :mod:`repro.engine.parallel` -- ``parallel_map`` with serial / thread /
  process executors and a safe serial fallback;
* :mod:`repro.engine.compiled` -- the optional compiled backend:
  single-pass fused portfolio and scenario-cube kernels (Numba-jitted
  when the optional dependency is present) behind a registry
  (``get_backend`` / ``set_backend`` / ``REPRO_ENGINE_BACKEND``),
  bit-for-bit equal to the NumPy path in float64;
* :mod:`repro.engine.shm` -- zero-copy shared-memory publication of
  compiled invariants to process-pool workers.

Batched results match the scalar model (the only oracle) to
floating-point round-off; the equivalence suite (``tests/engine``) pins
them to <= 1e-9 relative error and ``scripts/bench_engine.py`` tracks
the speedups in ``BENCH_engine.json``.
"""

from .batch import (
    BatchCASResult,
    BatchTTMResult,
    batch_cas,
    batch_ttm,
    cas_over_capacity,
    ttm_over_capacity,
)
from .batch_split import (
    SplitGridResult,
    SplitSampleResult,
    batch_split,
    batch_split_samples,
    refine_split_exact,
    refine_split_grid,
)
from .compiled import (
    Backend,
    backend_info,
    backend_label,
    get_backend,
    numba_available,
    set_backend,
    use_backend,
)
from .invariants import (
    DesignInvariants,
    cached_invariants,
    clear_invariant_cache,
    compute_invariants,
    design_invariants,
    invariant_cache_info,
)
from .parallel import EXECUTORS, parallel_map
from .shm import (
    SHARED_STORE,
    InvariantsShare,
    PortfolioShare,
    SharedInvariantStore,
    share_design_invariants,
    share_portfolio,
    shm_enabled,
)
from .portfolio import (
    PortfolioCASResult,
    PortfolioCostResult,
    PortfolioInvariants,
    PortfolioTTMResult,
    compile_portfolio,
    portfolio_cas,
    portfolio_cas_over_capacity,
    portfolio_cost,
    portfolio_fingerprint,
    portfolio_ttm,
    portfolio_ttm_over_capacity,
)
from .requests import (
    POINT_METRICS,
    PointRequest,
    fused_point_eval,
    point_signature,
)
from .scenario import (
    Scenario,
    ScenarioCASResult,
    ScenarioCostResult,
    ScenarioCubeResult,
    ScenarioSet,
    ScenarioTTMResult,
    apply_scenario,
    compile_scenarios,
    scenario_cas,
    scenario_cost,
    scenario_evaluate,
    scenario_ttm,
)
from .sobol_adapter import rowwise_batch_function, ttm_factor_batch_function

__all__ = [
    "Backend",
    "BatchCASResult",
    "BatchTTMResult",
    "DesignInvariants",
    "EXECUTORS",
    "InvariantsShare",
    "POINT_METRICS",
    "PointRequest",
    "PortfolioCASResult",
    "PortfolioCostResult",
    "PortfolioInvariants",
    "PortfolioShare",
    "PortfolioTTMResult",
    "SHARED_STORE",
    "Scenario",
    "ScenarioCASResult",
    "ScenarioCostResult",
    "ScenarioCubeResult",
    "ScenarioSet",
    "ScenarioTTMResult",
    "SharedInvariantStore",
    "SplitGridResult",
    "SplitSampleResult",
    "apply_scenario",
    "backend_info",
    "backend_label",
    "batch_cas",
    "batch_split",
    "batch_split_samples",
    "batch_ttm",
    "cached_invariants",
    "cas_over_capacity",
    "clear_invariant_cache",
    "compile_portfolio",
    "compile_scenarios",
    "compute_invariants",
    "design_invariants",
    "fused_point_eval",
    "get_backend",
    "invariant_cache_info",
    "numba_available",
    "parallel_map",
    "point_signature",
    "portfolio_cas",
    "portfolio_cas_over_capacity",
    "portfolio_cost",
    "portfolio_fingerprint",
    "portfolio_ttm",
    "portfolio_ttm_over_capacity",
    "refine_split_exact",
    "refine_split_grid",
    "rowwise_batch_function",
    "scenario_cas",
    "scenario_cost",
    "scenario_evaluate",
    "scenario_ttm",
    "set_backend",
    "share_design_invariants",
    "share_portfolio",
    "shm_enabled",
    "ttm_factor_batch_function",
    "use_backend",
]
