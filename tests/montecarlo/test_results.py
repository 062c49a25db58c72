"""Tests for Monte Carlo distribution summaries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.montecarlo.results import (
    ExceedanceCurve,
    MetricSummary,
    StudyResult,
    conditional_value_at_risk,
    summarize_block,
    summarize_cells,
    summarize_metrics,
)
from repro.obs.instrument import GUARD_TRIPS


class TestMetricSummary:
    def test_matches_numpy_reductions(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 2.0, 5000)
        summary = MetricSummary.from_samples("ttm", samples)
        assert summary.mean == pytest.approx(np.mean(samples))
        assert summary.std == pytest.approx(np.std(samples))
        assert summary.minimum == np.min(samples)
        assert summary.maximum == np.max(samples)
        for p, value in summary.percentiles.items():
            assert value == pytest.approx(np.percentile(samples, p))

    def test_upper_tail_cvar_exceeds_var(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(5.0, 4000)
        summary = MetricSummary.from_samples("cost", samples, tail="upper")
        assert summary.var == pytest.approx(np.percentile(samples, 95))
        assert summary.cvar > summary.var
        assert summary.cvar == pytest.approx(
            samples[samples >= summary.var].mean()
        )

    def test_lower_tail_cvar_below_var(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(100.0, 10.0, 4000)
        summary = MetricSummary.from_samples("cas", samples, tail="lower")
        assert summary.var == pytest.approx(np.percentile(samples, 5))
        assert summary.cvar < summary.var

    def test_rejects_nonfinite_samples(self):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            MetricSummary.from_samples("x", np.array([1.0, np.inf]))

    def test_rejects_empty_and_bad_tail(self):
        with pytest.raises(InvalidParameterError, match="no samples"):
            MetricSummary.from_samples("x", np.array([]))
        with pytest.raises(InvalidParameterError, match="tail"):
            MetricSummary.from_samples("x", np.ones(4), tail="sideways")
        with pytest.raises(InvalidParameterError, match="tail level"):
            MetricSummary.from_samples("x", np.ones(4), tail_level=0.4)

    def test_median_and_band_accessors(self):
        summary = MetricSummary.from_samples("x", np.arange(101.0))
        assert summary.median == pytest.approx(50.0)
        low, high = summary.band()
        assert low == pytest.approx(5.0)
        assert high == pytest.approx(95.0)
        with pytest.raises(InvalidParameterError, match="percentile"):
            summary.band(low=1.0)


class TestExceedanceCurve:
    def test_probabilities_are_survival_function(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        curve = ExceedanceCurve.from_samples("x", samples, n_points=4)
        assert curve.thresholds == (1.0, 2.0, 3.0, 4.0)
        assert curve.probabilities == (0.75, 0.5, 0.25, 0.0)

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(3)
        curve = ExceedanceCurve.from_samples("x", rng.normal(size=2000))
        assert all(
            a >= b
            for a, b in zip(curve.probabilities, curve.probabilities[1:])
        )

    def test_probability_above_interpolates(self):
        samples = np.array([0.0, 1.0])
        curve = ExceedanceCurve.from_samples("x", samples, n_points=2)
        assert curve.probability_above(-1.0) == 0.5
        assert curve.probability_above(0.5) == pytest.approx(0.25)
        assert curve.probability_above(2.0) == 0.0

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidParameterError, match="grid"):
            ExceedanceCurve.from_samples("x", np.ones(4), n_points=1)

    def test_rejects_non_integer_grid(self):
        with pytest.raises(InvalidParameterError, match="integer"):
            ExceedanceCurve.from_samples("x", np.ones(4), n_points=2.5)
        with pytest.raises(InvalidParameterError, match="integer"):
            summarize_block("x", np.ones(4), curve_points=2.5)


NON_FINITE = [
    ("exceedance", lambda v: ExceedanceCurve.from_samples("x", v)),
    ("cvar", lambda v: conditional_value_at_risk(v)),
    ("summary", lambda v: MetricSummary.from_samples("x", v)),
    ("block", lambda v: summarize_block("x", np.stack([np.ones(3), v]))),
]


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "summarize", [f for _, f in NON_FINITE], ids=[n for n, _ in NON_FINITE]
    )
    def test_rejected_and_counted(self, summarize, bad):
        before = GUARD_TRIPS.value(guard="metric_summary")
        with pytest.raises(InvalidParameterError, match="non-finite"):
            summarize(np.array([1.0, bad, 3.0]))
        assert GUARD_TRIPS.value(guard="metric_summary") == before + 1


class TestSummarizeBlock:
    """The block summarizer against the per-cell reference, exactly."""

    @staticmethod
    def reference(row, tail, tail_level, curve_points):
        return (
            MetricSummary.from_samples(
                "m", row, tail=tail, tail_level=tail_level
            ),
            ExceedanceCurve.from_samples("m", row, n_points=curve_points),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        leading=st.lists(st.integers(1, 4), min_size=1, max_size=3),
        n=st.one_of(
            st.integers(1, 20),
            st.sampled_from([127, 128, 129, 1000, 1023, 2048, 4999]),
        ),
        kind=st.sampled_from(
            ["normal", "ties", "constant", "mixed", "denormal"]
        ),
        layout=st.sampled_from(["c", "fortran", "strided", "transposed"]),
        tail=st.sampled_from(["upper", "lower"]),
        tail_level=st.sampled_from([0.51, 0.9, 0.95, 0.975, 0.99]),
        curve_points=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_cell_equals_from_samples(
        self, leading, n, kind, layout, tail, tail_level, curve_points,
        seed,
    ):
        while np.prod(leading) * n > 40_000:
            leading = leading[1:] or [1]
        rng = np.random.default_rng(seed)
        shape = (*leading, n)
        if kind == "normal":
            block = rng.lognormal(3.0, 1.0, shape)
        elif kind == "ties":
            block = rng.integers(-3, 4, shape).astype(float)
        elif kind == "constant":
            block = np.full(shape, rng.normal())
        elif kind == "denormal":
            block = rng.integers(1, 4, shape) * 5e-324
        else:
            block = np.round(rng.normal(size=shape), 1)
            block[..., 0, :] = 2.5
        if layout == "fortran":
            block = np.asfortranarray(block)
        elif layout == "strided":
            wide = np.repeat(block, 2, axis=-1)
            wide[..., 1::2] = np.nan
            block = wide[..., ::2]
        elif layout == "transposed":
            block = np.ascontiguousarray(np.moveaxis(block, -1, 0))
            block = np.moveaxis(block, 0, -1)
        pairs = summarize_block(
            "m", block, tail=tail, tail_level=tail_level,
            curve_points=curve_points,
        )
        rows = np.array(block).reshape(-1, n)
        assert len(pairs) == rows.shape[0]
        for j, pair in enumerate(pairs):
            assert pair == self.reference(
                rows[j].copy(), tail, tail_level, curve_points
            ), j

    def test_cells_are_scenario_major_and_keyed_by_metric(self):
        rng = np.random.default_rng(5)
        samples = {
            "ttm_weeks": rng.normal(40.0, 2.0, (2, 3, 64)),
            "cas": rng.normal(2e4, 1e3, (2, 3, 64)),
        }
        cells = summarize_cells(samples, {"cas": "lower"}, curve_points=9)
        assert len(cells) == 6
        summaries, curves = cells[4]  # scenario 1, design 1
        assert list(summaries) == ["ttm_weeks", "cas"]
        assert summaries["cas"] == MetricSummary.from_samples(
            "cas", samples["cas"][1, 1], tail="lower"
        )
        assert curves["ttm_weeks"] == ExceedanceCurve.from_samples(
            "ttm_weeks", samples["ttm_weeks"][1, 1], n_points=9
        )

    def test_validation_matches_reference(self):
        with pytest.raises(InvalidParameterError, match="no samples"):
            summarize_block("x", np.empty((3, 0)))
        with pytest.raises(InvalidParameterError, match="tail"):
            summarize_block("x", np.ones((2, 4)), tail="sideways")
        with pytest.raises(InvalidParameterError, match="tail level"):
            summarize_block("x", np.ones((2, 4)), tail_level=1.0)
        with pytest.raises(InvalidParameterError, match="grid"):
            summarize_block("x", np.ones((2, 4)), curve_points=1)
        assert summarize_block("x", np.ones((0, 4))) == []


class TestStudyResult:
    def build(self):
        rng = np.random.default_rng(4)
        samples = {
            "ttm_weeks": rng.normal(40.0, 2.0, 1000),
            "cas": rng.normal(2e4, 1e3, 1000),
        }
        summaries = summarize_metrics(samples, tails={"cas": "lower"})
        curves = {
            name: ExceedanceCurve.from_samples(name, values)
            for name, values in samples.items()
        }
        return StudyResult(
            design="A11 @ 7nm",
            processes=("7nm",),
            n_samples=1000,
            seed=0,
            summaries=summaries,
            curves=curves,
        )

    def test_getitem_and_unknown_metric(self):
        result = self.build()
        assert result["ttm_weeks"].tail == "upper"
        assert result["cas"].tail == "lower"
        with pytest.raises(KeyError, match="unknown metric"):
            result["ipc"]

    def test_table_lists_every_metric(self):
        table = self.build().table()
        assert "ttm_weeks" in table and "cas" in table
        assert "CVaR" in table
