"""Compiled backend: registry semantics + NumPy equivalence contract.

The compiled backend's numerics contract has two halves, both pinned
here: with ``dtype="float64"`` every fused kernel is **bit-for-bit
identical** to the NumPy path (same per-element operation order, so
``np.array_equal``, not ``allclose``), and with the opt-in
``dtype="float32"`` mode TTM/cost stay within the documented ``5e-5``
relative bound while CAS keeps its float64 internals. The suite runs on
every machine: without Numba the same kernels execute as plain Python
loops, so the equivalence half needs no optional dependency.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cost.model import CostModel
from repro.design.library.a11 import a11
from repro.design.library.generic import demo_chip_a, demo_chip_b
from repro.design.library.raven import raven_multicore
from repro.engine.batch import batch_cas, batch_cost, batch_ttm
from repro.engine.batch_split import batch_split, batch_split_samples
from repro.engine.compiled import (
    BACKEND_ENV,
    BACKENDS,
    Backend,
    _apply_environment,
    backend_info,
    backend_label,
    get_backend,
    numba_available,
    parse_backend_spec,
    set_backend,
    use_backend,
    warm_up,
)
from repro.engine.portfolio import portfolio_cas, portfolio_cost, portfolio_ttm
from repro.errors import InvalidParameterError
from repro.multiprocess.split import ProductionSplit
from repro.ttm.model import TTMModel

#: Documented float32-mode relative error ceiling (TTM and cost).
FLOAT32_RTOL = 5e-5

NODES = ("65nm", "40nm", "28nm")


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process on the default NumPy backend."""
    yield
    set_backend("numpy")


@pytest.fixture(scope="module")
def nominal():
    return TTMModel.nominal()


@pytest.fixture(scope="module")
def supply():
    rng = np.random.default_rng(8042)
    return {
        "n_chips": rng.uniform(1e4, 5e7, 64),
        "capacity": rng.uniform(0.1, 1.0, 64),
        "queue_weeks": rng.uniform(0.0, 26.0, 64),
    }


def assert_bit_equal(reference, compiled):
    """Bit-for-bit array equality (NaN-tolerant, broadcast-tolerant)."""
    lhs = np.asarray(reference)
    rhs = np.asarray(compiled)
    shape = np.broadcast_shapes(lhs.shape, rhs.shape)
    assert np.array_equal(
        np.broadcast_to(lhs, shape),
        np.broadcast_to(rhs, shape),
        equal_nan=True,
    )


class TestRegistry:
    def test_default_backend_is_the_numpy_oracle(self):
        assert get_backend() == Backend("numpy", "float64")
        assert backend_label() == "numpy"

    def test_set_backend_switches_and_returns(self):
        backend = set_backend("compiled")
        assert backend == Backend("compiled", "float64")
        assert get_backend() is backend
        assert backend_label() == "compiled"

    def test_float32_label_is_qualified(self):
        set_backend("compiled", "float32")
        assert backend_label() == "compiled:float32"

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown engine"):
            set_backend("fortran")
        assert get_backend().name in BACKENDS

    def test_unknown_dtype_rejected(self):
        with pytest.raises(InvalidParameterError, match="unknown kernel"):
            set_backend("compiled", "float16")

    def test_float32_requires_the_compiled_backend(self):
        with pytest.raises(InvalidParameterError, match="float32 mode"):
            set_backend("numpy", "float32")

    def test_use_backend_restores_on_exit_and_on_error(self):
        with use_backend("compiled", "float32") as backend:
            assert backend.label == "compiled:float32"
        assert get_backend() == Backend("numpy", "float64")
        with pytest.raises(RuntimeError):
            with use_backend("compiled"):
                raise RuntimeError("boom")
        assert get_backend() == Backend("numpy", "float64")

    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("numpy", ("numpy", "float64")),
            ("compiled", ("compiled", "float64")),
            ("compiled:float32", ("compiled", "float32")),
            (" compiled : float32 ", ("compiled", "float32")),
        ],
    )
    def test_parse_backend_spec(self, spec, expected):
        assert parse_backend_spec(spec) == expected

    def test_environment_override_applies(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "compiled:float32")
        _apply_environment()
        assert get_backend() == Backend("compiled", "float32")

    def test_invalid_environment_warns_and_keeps_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "turbo")
        with pytest.warns(RuntimeWarning, match="ignoring invalid"):
            _apply_environment()
        assert get_backend() == Backend("numpy", "float64")

    def test_backend_info_reports_resolution(self):
        info = backend_info()
        assert set(info) == {"backend", "dtype", "numba", "jit"}
        assert info["backend"] == "numpy"
        assert info["jit"] is False  # numpy backend never jits
        set_backend("compiled")
        assert backend_info()["jit"] == numba_available()

    def test_warm_up_is_idempotent(self):
        first = warm_up()
        again = warm_up()
        assert first == again


class TestFloat64BitEquality:
    """Every fused kernel, bit-identical to NumPy in float64."""

    @pytest.mark.parametrize(
        "factory",
        [demo_chip_a, demo_chip_b, lambda: a11("7nm")],
        ids=["demo_a", "demo_b", "a11_7nm"],
    )
    def test_batch_ttm(self, nominal, factory, supply):
        design = factory()
        reference = batch_ttm(nominal, design, **supply)
        with use_backend("compiled"):
            compiled = batch_ttm(nominal, design, **supply)
        for name in (
            "tapeout_weeks",
            "fabrication_weeks",
            "packaging_weeks",
            "total_weeks",
            "total_wafers",
        ):
            assert_bit_equal(
                getattr(reference, name), getattr(compiled, name)
            )
        assert reference.design_weeks == compiled.design_weeks

    def test_batch_cas(self, nominal, supply):
        design = a11("7nm")
        reference = batch_cas(nominal, design, **supply)
        with use_backend("compiled"):
            compiled = batch_cas(nominal, design, **supply)
        assert_bit_equal(reference.cas, compiled.cas)
        assert set(reference.sensitivity) == set(compiled.sensitivity)
        for node, sensed in reference.sensitivity.items():
            assert_bit_equal(sensed, compiled.sensitivity[node])

    def test_batch_cost(self, supply):
        cost_model = CostModel.nominal()
        design = a11("7nm")
        d0 = np.linspace(0.5, 2.0, supply["n_chips"].size)
        reference = batch_cost(
            cost_model, design, supply["n_chips"], d0_scale=d0
        )
        with use_backend("compiled"):
            compiled = batch_cost(
                cost_model, design, supply["n_chips"], d0_scale=d0
            )
        for name in ("nre_usd", "manufacturing_usd", "n_chips"):
            assert_bit_equal(
                getattr(reference, name), getattr(compiled, name)
            )

    def test_batch_split_tensor(self, nominal):
        cost_model = CostModel.nominal()
        pairs = [
            (primary, secondary)
            for i, secondary in enumerate(NODES)
            for primary in NODES[i:]
        ]
        grid = tuple(s / 25.0 for s in range(1, 26))
        reference = batch_split(
            raven_multicore, pairs, nominal, cost_model, 1e9, split_grid=grid
        )
        with use_backend("compiled"):
            compiled = batch_split(
                raven_multicore,
                pairs,
                nominal,
                cost_model,
                1e9,
                split_grid=grid,
            )
        for name in (
            "splits",
            "ttm_weeks",
            "cost_usd",
            "cas",
            "line_weeks_primary",
            "line_weeks_secondary",
        ):
            assert_bit_equal(
                getattr(reference, name), getattr(compiled, name)
            )

    def test_batch_split_samples(self, nominal, supply):
        plan = ProductionSplit(
            design_factory=raven_multicore,
            primary="28nm",
            secondary="40nm",
            split=0.6,
        )
        cost_model = CostModel.nominal()
        reference = batch_split_samples(
            plan, nominal, supply["n_chips"], cost_model=cost_model,
            capacity=supply["capacity"], queue_weeks=supply["queue_weeks"],
        )
        with use_backend("compiled"):
            compiled = batch_split_samples(
                plan, nominal, supply["n_chips"], cost_model=cost_model,
                capacity=supply["capacity"],
                queue_weeks=supply["queue_weeks"],
            )
        assert_bit_equal(reference.ttm_weeks, compiled.ttm_weeks)
        assert_bit_equal(reference.cas, compiled.cas)
        assert_bit_equal(reference.cost_usd, compiled.cost_usd)
        for node, weeks in reference.line_weeks.items():
            assert_bit_equal(weeks, compiled.line_weeks[node])

    @pytest.fixture(scope="class")
    def portfolio(self):
        return [
            a11(process) for process in ("28nm", "14nm", "7nm")
        ] + [demo_chip_a(), demo_chip_b()]

    def test_portfolio_family(self, nominal, portfolio, supply):
        cost_model = CostModel.nominal()
        demand = supply["n_chips"]
        kwargs = dict(
            capacity=supply["capacity"], queue_weeks=supply["queue_weeks"]
        )
        ttm_ref = portfolio_ttm(nominal, portfolio, demand, **kwargs)
        cas_ref = portfolio_cas(nominal, portfolio, demand, **kwargs)
        cost_ref = portfolio_cost(cost_model, portfolio, demand)
        with use_backend("compiled"):
            ttm_new = portfolio_ttm(nominal, portfolio, demand, **kwargs)
            cas_new = portfolio_cas(nominal, portfolio, demand, **kwargs)
            cost_new = portfolio_cost(cost_model, portfolio, demand)
        for name in (
            "design_weeks",
            "tapeout_weeks",
            "fabrication_weeks",
            "packaging_weeks",
            "total_weeks",
            "total_wafers",
        ):
            assert_bit_equal(getattr(ttm_ref, name), getattr(ttm_new, name))
        assert_bit_equal(cas_ref.cas, cas_new.cas)
        assert_bit_equal(cas_ref.sensitivity, cas_new.sensitivity)
        for name in (
            "engineering_usd",
            "fixed_usd",
            "mask_usd",
            "wafer_usd",
            "testing_usd",
            "packaging_usd",
        ):
            assert_bit_equal(
                getattr(cost_ref, name), getattr(cost_new, name)
            )


class TestFloat32Bounds:
    """The opt-in float32 mode honors its documented error budget."""

    def test_ttm_within_documented_bound(self, nominal, supply):
        design = a11("7nm")
        reference = batch_ttm(nominal, design, **supply).total_weeks
        with use_backend("compiled", "float32"):
            halved = batch_ttm(nominal, design, **supply).total_weeks
        np.testing.assert_allclose(halved, reference, rtol=FLOAT32_RTOL)

    def test_cost_within_documented_bound(self, supply):
        cost_model = CostModel.nominal()
        design = a11("7nm")
        reference = batch_cost(cost_model, design, supply["n_chips"])
        with use_backend("compiled", "float32"):
            halved = batch_cost(cost_model, design, supply["n_chips"])
        np.testing.assert_allclose(
            halved.total_usd, reference.total_usd, rtol=FLOAT32_RTOL
        )

    def test_cas_keeps_float64_differencing(self, nominal, supply):
        # The central difference always runs in float64 (a float32
        # difference of near-equal totals is cancellation noise), so
        # CAS lands far inside the TTM bound.
        design = a11("7nm")
        reference = batch_cas(nominal, design, **supply).cas
        with use_backend("compiled", "float32"):
            halved = batch_cas(nominal, design, **supply).cas
        np.testing.assert_allclose(halved, reference, rtol=FLOAT32_RTOL)


class TestPropertyEquivalence:
    """Hypothesis: bit-equality holds across the sampled input space."""

    @settings(deadline=None, max_examples=25)
    @given(
        n_chips=st.floats(min_value=1.0, max_value=1e9),
        capacity=st.floats(min_value=0.01, max_value=1.0),
        queue_weeks=st.floats(min_value=0.0, max_value=104.0),
    )
    def test_batch_ttm_bitwise(self, n_chips, capacity, queue_weeks):
        model = TTMModel.nominal()
        design = demo_chip_a()
        reference = batch_ttm(
            model,
            design,
            (n_chips,),
            capacity=(capacity,),
            queue_weeks=(queue_weeks,),
        ).total_weeks
        try:
            with use_backend("compiled"):
                compiled = batch_ttm(
                    model,
                    design,
                    (n_chips,),
                    capacity=(capacity,),
                    queue_weeks=(queue_weeks,),
                ).total_weeks
        finally:
            set_backend("numpy")
        assert_bit_equal(reference, compiled)


class TestObservability:
    def test_kernel_metrics_carry_the_backend_label(self, nominal):
        # batch_ttm is a shape adapter: its one evaluation is counted
        # once, under the portfolio kernel it runs.
        from repro.obs.instrument import KERNEL_INVOCATIONS

        design = demo_chip_a()
        before = KERNEL_INVOCATIONS.value(
            backend="compiled", kernel="engine.portfolio_ttm"
        )
        with use_backend("compiled"):
            batch_ttm(nominal, design, (1e6,))
        after = KERNEL_INVOCATIONS.value(
            backend="compiled", kernel="engine.portfolio_ttm"
        )
        assert after == before + 1
        assert (
            KERNEL_INVOCATIONS.value(
                backend="compiled", kernel="engine.batch_ttm"
            )
            == 0
        )
