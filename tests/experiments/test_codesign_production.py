"""Tests for the codesign search's optional production-split stage."""

import itertools

import pytest

from repro.design.library.ariane import ariane_manycore
from repro.experiments import codesign_search
from repro.perf.ipc import IPCModel

#: A tiny joint space keeps the grid search fast; the production stage
#: is the thing under test.
SMALL = dict(
    processes=("40nm", "28nm"),
    cores=(8,),
    caches_kb=(16, 32),
)


@pytest.fixture(scope="module")
def result(model, cost_model):
    return codesign_search.run(model, cost_model, **SMALL)


@pytest.fixture(scope="module")
def with_production(model, cost_model):
    return codesign_search.run(
        model,
        cost_model,
        **SMALL,
        split_processes=("65nm", "40nm", "28nm"),
        split_grid=tuple(s / 10 for s in range(1, 11)),
    )


class TestProductionStage:
    def test_default_run_has_no_production_plan(self, result):
        assert result.production is None
        assert "production:" not in result.table()

    def test_production_plan_covers_requested_nodes(self, with_production):
        plan = with_production.production
        assert plan is not None
        assert plan.primary in ("65nm", "40nm", "28nm")
        assert plan.secondary in ("65nm", "40nm", "28nm")
        assert 0.0 < plan.best.split <= 1.0
        assert plan.best.cas > 0.0

    def test_winning_architecture_is_unchanged(self, result, with_production):
        # The production stage is appended after the search; it must not
        # perturb the architectural winner.
        assert with_production.best == result.best
        assert with_production.evaluated == result.evaluated

    def test_table_reports_the_plan(self, with_production):
        assert "production:" in with_production.table()

    def test_refine_split_keeps_a_valid_plan(self, model, cost_model):
        refined = codesign_search.run(
            model,
            cost_model,
            **SMALL,
            split_processes=("40nm", "28nm"),
            split_grid=tuple(s / 10 for s in range(1, 11)),
            refine_split=True,
        )
        plan = refined.production
        assert plan is not None
        assert 0.0 < plan.best.split <= 1.0


class TestEngines:
    def test_portfolio_matches_scalar(self, model, cost_model):
        # The scalar oracle: score every configuration with the scalar
        # model, then keep the best feasible throughput per week.
        fused = codesign_search.run(model, cost_model, **SMALL)
        ttm_model = model.at_capacity(codesign_search.DEFAULT_CAPACITY_SHARE)
        n_chips = codesign_search.DEFAULT_N_CHIPS
        ipc_model = IPCModel()
        scored = []
        for key in itertools.product(
            SMALL["processes"], SMALL["cores"], SMALL["caches_kb"],
            SMALL["caches_kb"],
        ):
            process, cores, icache_kb, dcache_kb = key
            design = ariane_manycore(
                process, cores=cores, icache_kb=icache_kb, dcache_kb=dcache_kb
            )
            ttm = ttm_model.total_weeks(design, n_chips)
            cost = cost_model.total_usd(design, n_chips)
            objective = cores * ipc_model.ipc(icache_kb, dcache_kb) / ttm
            scored.append((key, ttm, cost, objective))
        feasible = [
            point
            for point in scored
            if point[2] <= codesign_search.DEFAULT_BUDGET_USD
        ]
        key, ttm, cost, _ = max(feasible, key=lambda point: point[3])
        best = fused.best
        assert (best.process, best.cores, best.icache_kb, best.dcache_kb) == key
        assert best.ttm_weeks == pytest.approx(ttm, rel=1e-9)
        assert best.cost_usd == pytest.approx(cost, rel=1e-9)
        assert fused.feasible == len(feasible)
        assert fused.evaluated == len(scored)

    def test_unknown_engine_rejected(self, model, cost_model):
        # The search has one path; ``engine`` is not a parameter.
        with pytest.raises(TypeError, match="engine"):
            codesign_search.run(model, cost_model, **SMALL, engine="scalar")
