"""Portfolio kernels vs the scalar paper model, cell for cell.

The contract (DESIGN.md S18): row ``i`` of every ``portfolio_*`` tensor
equals the scalar model (``TTMModel.time_to_market``,
``chip_agility_score``, ``CostModel.chip_creation_cost``) for design
``i`` under each shared supply sample, to <= 1e-9 relative error. These
tests sweep the supply knobs (capacity as None / global scalar / shared
vector / per-node mapping, queue overrides, defect-density and
wafer-rate scales, per-design demand matrices), mix single- and
multi-node designs so the padded node slots are exercised, and pin the
validation errors and the compile cache behaviour. The per-design
``batch_*`` functions are shape adapters over these kernels; their
broadcast/ravel/reshape logic is checked against the scalar model and
across backends by a Hypothesis property.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agility.cas import chip_agility_score
from repro.design.library.a11 import a11
from repro.design.library.ariane import ariane_manycore
from repro.design.library.zen2 import fig13_variants, zen2, zen2_monolithic
from repro.engine.batch import batch_cas, batch_cost, batch_ttm
from repro.engine.compiled import use_backend
from repro.engine.invariants import (
    clear_invariant_cache,
    invariant_cache_info,
)
from repro.engine.portfolio import (
    compile_portfolio,
    portfolio_cas,
    portfolio_cas_over_capacity,
    portfolio_cost,
    portfolio_fingerprint,
    portfolio_ttm,
    portfolio_ttm_over_capacity,
)
from repro.errors import InvalidParameterError
from repro.market.foundry import Foundry

TOLERANCE = 1e-9
N_CHIPS = 2.5e7

TTM_FIELDS = (
    "tapeout_weeks",
    "fabrication_weeks",
    "packaging_weeks",
    "total_weeks",
    "total_wafers",
)


@pytest.fixture
def mixed_designs():
    """Single-node and multi-node designs in one portfolio (padding)."""
    return (
        a11("7nm"),
        zen2(),  # 7 nm compute + 12 nm I/O chiplets
        zen2_monolithic("7nm"),
        ariane_manycore("28nm", cores=8),
    )


def at_cell(values, cell):
    """Sample ``cell`` of a scalar or broadcastable sample array."""
    array = np.asarray(values, dtype=float)
    return float(array[cell[-array.ndim:]] if array.ndim else array)


def scalar_world(
    model,
    cell,
    capacity=None,
    queue_weeks=None,
    d0_scale=None,
    wafer_rate_scale=None,
):
    """The scalar model under supply sample ``cell``.

    A global ``capacity`` goes through ``with_global_capacity`` (as in
    ``TTMModel.at_capacity``), a mapping through per-node
    ``with_capacity``; ``queue_weeks`` is a global quote; the D0 and
    wafer-rate scales override every node of the database.
    """
    technology = model.foundry.technology
    if d0_scale is not None or wafer_rate_scale is not None:
        d0 = 1.0 if d0_scale is None else at_cell(d0_scale, cell)
        rate = (
            1.0
            if wafer_rate_scale is None
            else at_cell(wafer_rate_scale, cell)
        )
        technology = technology.override(
            {
                name: {
                    "defect_density_per_cm2": technology[
                        name
                    ].defect_density_per_cm2
                    * d0,
                    "wafer_rate_kwpm": technology[name].wafer_rate_kwpm
                    * rate,
                }
                for name in technology.names
            }
        )
    conditions = model.foundry.conditions
    if isinstance(capacity, dict):
        for node, values in capacity.items():
            conditions = conditions.with_capacity(node, at_cell(values, cell))
    elif capacity is not None:
        conditions = conditions.with_global_capacity(at_cell(capacity, cell))
    if queue_weeks is not None:
        conditions = conditions.with_global_queue(at_cell(queue_weeks, cell))
    return model.with_foundry(
        Foundry(technology=technology, conditions=conditions)
    )


def scalar_ttm_rows(model, designs, n_chips, n_samples, **supply):
    """``(n_designs, n_samples)`` matrices of every scalar TTM field."""
    rows = {name: np.empty((len(designs), n_samples)) for name in TTM_FIELDS}
    demand = np.broadcast_to(
        np.asarray(n_chips, dtype=float), (len(designs), n_samples)
    )
    for j in range(n_samples):
        world = scalar_world(model, (j,), **supply)
        for i, design in enumerate(designs):
            result = world.time_to_market(design, float(demand[i, j]))
            for name in TTM_FIELDS:
                rows[name][i, j] = getattr(result, name)
    return rows


def assert_close(actual, expected):
    np.testing.assert_allclose(
        np.broadcast_to(actual, np.shape(expected)),
        expected,
        rtol=TOLERANCE,
        atol=0.0,
    )


class TestTTMEquivalence:
    def test_current_conditions(self, model, mixed_designs):
        result = portfolio_ttm(model, mixed_designs, N_CHIPS)
        assert result.total_weeks.shape == (len(mixed_designs), 1)
        assert_close(
            result.total_weeks,
            scalar_ttm_rows(model, mixed_designs, N_CHIPS, 1)["total_weeks"],
        )

    @pytest.mark.parametrize(
        "capacity",
        [
            0.4,
            (0.25, 0.5, 0.75, 1.0),
            {"7nm": 0.3},
            {"7nm": (0.3, 0.6), "12nm": (0.9, 0.5)},
        ],
        ids=["scalar", "vector", "one-node", "per-node-vectors"],
    )
    def test_capacity_forms(self, model, mixed_designs, capacity):
        result = portfolio_ttm(
            model, mixed_designs, N_CHIPS, capacity=capacity
        )
        n_samples = result.total_weeks.shape[1]
        oracle = scalar_ttm_rows(
            model, mixed_designs, N_CHIPS, n_samples, capacity=capacity
        )
        for name in TTM_FIELDS:
            assert_close(getattr(result, name), oracle[name])

    def test_supply_samples(self, model, mixed_designs):
        rng = np.random.default_rng(11)
        samples = 12
        supply = dict(
            capacity=rng.uniform(0.2, 1.0, samples),
            queue_weeks=rng.uniform(0.0, 25.0, samples),
            d0_scale=rng.uniform(0.5, 2.0, samples),
            wafer_rate_scale=rng.uniform(0.6, 1.4, samples),
        )
        result = portfolio_ttm(model, mixed_designs, N_CHIPS, **supply)
        assert_close(
            result.total_weeks,
            scalar_ttm_rows(
                model, mixed_designs, N_CHIPS, samples, **supply
            )["total_weeks"],
        )

    def test_per_design_demand_matrix(self, model, mixed_designs):
        rng = np.random.default_rng(12)
        demand = rng.uniform(1e6, 1e8, (len(mixed_designs), 16))
        result = portfolio_ttm(model, mixed_designs, demand)
        assert_close(
            result.total_weeks,
            scalar_ttm_rows(model, mixed_designs, demand, 16)["total_weeks"],
        )

    def test_sequential_schedule(self, mixed_designs, model):
        sequential = type(model)(
            foundry=model.foundry, schedule="sequential"
        )
        result = portfolio_ttm(
            sequential, mixed_designs, N_CHIPS, capacity=(0.5, 1.0)
        )
        assert_close(
            result.total_weeks,
            scalar_ttm_rows(
                sequential, mixed_designs, N_CHIPS, 2, capacity=(0.5, 1.0)
            )["total_weeks"],
        )

    def test_over_capacity_convenience(self, model, mixed_designs):
        fractions = (0.25, 0.5, 1.0)
        matrix = portfolio_ttm_over_capacity(
            model, mixed_designs, N_CHIPS, fractions
        )
        assert matrix.shape == (len(mixed_designs), len(fractions))
        assert_close(
            matrix,
            scalar_ttm_rows(
                model, mixed_designs, N_CHIPS, 3, capacity=fractions
            )["total_weeks"],
        )


class TestCASEquivalence:
    def test_padded_slots_have_zero_sensitivity(self, model, mixed_designs):
        result = portfolio_cas(model, mixed_designs, N_CHIPS)
        for i, design in enumerate(mixed_designs):
            used = len(result.processes[i])
            assert np.all(result.sensitivity[i, used:, :] == 0.0)

    def test_matches_scalar_cas(self, model, mixed_designs):
        fractions = (0.3, 0.65, 1.0)
        result = portfolio_cas(
            model, mixed_designs, N_CHIPS, capacity=fractions
        )
        for j, fraction in enumerate(fractions):
            world = model.at_capacity(fraction)
            for i, design in enumerate(mixed_designs):
                oracle = chip_agility_score(world, design, N_CHIPS)
                assert result.cas[i, j] == pytest.approx(
                    oracle.cas, rel=TOLERANCE
                )
                for slot, process in enumerate(result.processes[i]):
                    assert result.sensitivity[i, slot, j] == pytest.approx(
                        oracle.sensitivity[process], rel=TOLERANCE
                    )

    def test_over_capacity_matches_fig13_oracle(self, model, mixed_designs):
        fractions = (0.4, 0.8)
        matrix = portfolio_cas_over_capacity(
            model, mixed_designs, N_CHIPS, fractions
        )
        assert_close(
            matrix,
            [
                [
                    chip_agility_score(
                        model.at_capacity(fraction), design, N_CHIPS
                    ).normalized
                    for fraction in fractions
                ]
                for design in mixed_designs
            ],
        )


COST_FIELDS = ("wafer_usd", "testing_usd", "packaging_usd", "total_usd")


def scalar_cost(cost_model, design, n_chips, d0_scale=1.0):
    """``CostModel.chip_creation_cost`` with D0 scaled on every node."""
    technology = cost_model.technology
    if d0_scale != 1.0:
        technology = technology.override(
            {
                name: {
                    "defect_density_per_cm2": technology[
                        name
                    ].defect_density_per_cm2
                    * d0_scale
                }
                for name in technology.names
            }
        )
    return dataclasses.replace(
        cost_model, technology=technology
    ).chip_creation_cost(design, n_chips)


class TestCostEquivalence:
    def test_matches_scalar_cost(self, cost_model, mixed_designs):
        rng = np.random.default_rng(13)
        demand = rng.uniform(1e6, 1e8, 8)
        d0_scale = rng.uniform(0.5, 2.0, 8)
        result = portfolio_cost(
            cost_model, mixed_designs, demand, d0_scale=d0_scale
        )
        for i, design in enumerate(mixed_designs):
            nominal = cost_model.chip_creation_cost(design, 1e6)
            for name in ("engineering_usd", "fixed_usd", "mask_usd"):
                assert getattr(result, name)[i] == pytest.approx(
                    getattr(nominal, name), rel=TOLERANCE
                )
            for j in range(demand.size):
                oracle = scalar_cost(
                    cost_model, design, demand[j], d0_scale[j]
                )
                for name in COST_FIELDS:
                    assert getattr(result, name)[i, j] == pytest.approx(
                        getattr(oracle, name), rel=TOLERANCE
                    )

    def test_per_design_demand_matrix(self, cost_model, mixed_designs):
        rng = np.random.default_rng(14)
        demand = rng.uniform(1e6, 1e8, (len(mixed_designs), 8))
        result = portfolio_cost(cost_model, mixed_designs, demand)
        assert_close(
            result.total_usd,
            [
                [cost_model.total_usd(design, n) for n in demand[i]]
                for i, design in enumerate(mixed_designs)
            ],
        )

    def test_fig13_variants_cost_panel(self, cost_model):
        variants = fig13_variants()
        quantities = (10e6, 50e6, 100e6)
        result = portfolio_cost(cost_model, variants, quantities)
        assert_close(
            result.total_usd,
            [
                [cost_model.total_usd(design, n) for n in quantities]
                for design in variants
            ],
        )


@st.composite
def batch_grids(draw):
    """Broadcastable per-design inputs: ``n_chips`` (N, 1) x supply (F,)."""
    n = draw(st.integers(1, 3))
    f = draw(st.integers(1, 3))
    unit = st.floats(0.2, 1.0)

    def vector(strategy):
        return np.asarray(draw(st.lists(strategy, min_size=f, max_size=f)))

    n_chips = np.asarray(
        draw(st.lists(st.floats(1e4, 1e8), min_size=n, max_size=n))
    ).reshape(n, 1)
    if draw(st.booleans()):
        capacity = {"7nm": vector(unit), "12nm": draw(unit)}
    else:
        capacity = vector(unit)
    d0_scale = draw(st.one_of(st.floats(0.5, 2.0), st.just(None)))
    wafer_rate_scale = vector(st.floats(0.6, 1.4))
    return n_chips, capacity, d0_scale, wafer_rate_scale


class TestBatchAdapter:
    """``batch_*`` broadcasts, ravels and reshapes around one kernel."""

    @settings(deadline=None, max_examples=15)
    @given(grid=batch_grids())
    def test_batch_matches_scalar_and_backends(
        self, model, cost_model, grid
    ):
        n_chips, capacity, d0_scale, wafer_rate_scale = grid
        design = zen2()
        supply = dict(
            capacity=capacity,
            d0_scale=d0_scale,
            wafer_rate_scale=wafer_rate_scale,
        )
        runs = []
        for backend in ("numpy", "compiled"):
            with use_backend(backend):
                runs.append(
                    (
                        batch_ttm(model, design, n_chips, **supply),
                        batch_cas(model, design, n_chips, **supply),
                        batch_cost(
                            cost_model, design, n_chips, d0_scale=d0_scale
                        ),
                    )
                )
        (ttm, cas, cost), (ttm_c, cas_c, cost_c) = runs
        shape = np.broadcast_shapes(n_chips.shape, wafer_rate_scale.shape)
        assert ttm.total_weeks.shape == cas.cas.shape == shape
        assert np.array_equal(ttm.total_weeks, ttm_c.total_weeks)
        assert np.array_equal(cas.cas, cas_c.cas)
        assert np.array_equal(cost.total_usd, cost_c.total_usd)
        for cell in np.ndindex(*shape):
            quantity = float(n_chips[cell[0], 0])
            world = scalar_world(model, cell, **supply)
            assert ttm.total_weeks[cell] == pytest.approx(
                world.total_weeks(design, quantity), rel=TOLERANCE
            )
            assert cas.cas[cell] == pytest.approx(
                chip_agility_score(world, design, quantity).cas,
                rel=TOLERANCE,
            )
        for i in range(n_chips.shape[0]):
            assert cost.total_usd[i, 0] == pytest.approx(
                scalar_cost(
                    cost_model,
                    design,
                    float(n_chips[i, 0]),
                    1.0 if d0_scale is None else d0_scale,
                ).total_usd,
                rel=TOLERANCE,
            )


class TestValidation:
    def test_empty_portfolio_rejected(self, db):
        with pytest.raises(InvalidParameterError, match="at least one"):
            compile_portfolio((), db)

    def test_two_dimensional_capacity_rejected(self, model, mixed_designs):
        with pytest.raises(
            InvalidParameterError, match="common random numbers"
        ):
            portfolio_ttm(
                model,
                mixed_designs,
                N_CHIPS,
                capacity=np.full((2, 3), 0.5),
            )

    def test_two_dimensional_queue_rejected(self, model, mixed_designs):
        with pytest.raises(
            InvalidParameterError, match="common random numbers"
        ):
            portfolio_ttm(
                model,
                mixed_designs,
                N_CHIPS,
                queue_weeks=np.full((2, 3), 1.0),
            )

    def test_wrong_leading_demand_dimension_rejected(
        self, model, mixed_designs
    ):
        with pytest.raises(
            InvalidParameterError, match=r"\(n_designs, n_samples\)"
        ):
            portfolio_ttm(
                model,
                mixed_designs,
                np.full((len(mixed_designs) + 1, 4), 1e6),
            )

    def test_zero_capacity_names_the_node(self, model, mixed_designs):
        conditions = model.foundry.conditions.with_capacity("7nm", 0.0)
        stalled = model.with_foundry(
            model.foundry.with_conditions(conditions)
        )
        with pytest.raises(
            InvalidParameterError, match="'7nm' has zero effective capacity"
        ):
            portfolio_ttm(stalled, mixed_designs, N_CHIPS)

    def test_zero_sensitivity_names_the_design(self, model):
        # A tiny volume makes every node slope vanish for that design.
        designs = (a11("7nm"), a11("28nm"))
        with pytest.raises(
            InvalidParameterError, match="zero TTM sensitivity"
        ):
            portfolio_cas(model, designs, 1e-6)


class TestCompileCache:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        clear_invariant_cache()
        yield
        clear_invariant_cache()

    def test_shared_entry_across_kernels(self, model, db, mixed_designs):
        compiled = compile_portfolio(mixed_designs, db)
        again = compile_portfolio(mixed_designs, db)
        assert again is compiled
        info = invariant_cache_info()
        # One miss per design plus one for the stacked portfolio.
        assert info["misses"] == len(mixed_designs) + 1
        assert info["hits"] >= 1

    def test_fingerprint_distinguishes_design_order(self, db, mixed_designs):
        forward = portfolio_fingerprint(mixed_designs, db)
        reversed_key = portfolio_fingerprint(mixed_designs[::-1], db)
        assert forward != reversed_key

    def test_fingerprint_includes_model_knobs(self, db, mixed_designs):
        default = portfolio_fingerprint(mixed_designs, db)
        assert default != portfolio_fingerprint(
            mixed_designs, db, engineers=200
        )
        assert default != portfolio_fingerprint(
            mixed_designs, db, edge_corrected=True
        )

    def test_kernels_reuse_one_compiled_portfolio(self, model, mixed_designs):
        portfolio_ttm(model, mixed_designs, N_CHIPS)
        misses_after_first = invariant_cache_info()["misses"]
        portfolio_cas(model, mixed_designs, N_CHIPS)
        portfolio_ttm(model, mixed_designs, N_CHIPS, capacity=0.5)
        assert invariant_cache_info()["misses"] == misses_after_first
