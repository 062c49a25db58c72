"""Distribution summaries for Monte Carlo studies.

Every metric (TTM weeks, CAS, cost per chip, revenue loss) is an array
of per-sample outcomes; this module reduces those arrays to the three
artifacts the uncertainty literature reports:

* **percentile bands** — the 5/25/50/75/95 quantiles;
* **exceedance curves** — ``P(X > t)`` over a threshold grid (survival
  function), the standard way to read "chance of missing the window";
* **CVaR tails** — value-at-risk at a confidence level plus the mean of
  the samples beyond it. For "bigger is worse" metrics (TTM, cost) the
  tail is the *upper* one; for "bigger is better" metrics (CAS) the
  *lower* one.

:meth:`MetricSummary.from_samples` and :meth:`ExceedanceCurve.from_samples`
summarize one cell and are the reference. The studies summarize whole
``(..., n_samples)`` blocks through :func:`summarize_block`, which
returns the same objects for every cell from axis-wise reductions.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..analysis.tables import format_table
from ..errors import InvalidParameterError
from ..obs.instrument import guard_trip

#: Default percentile band.
PERCENTILES: Tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0)

#: Default CVaR confidence level.
DEFAULT_TAIL_LEVEL = 0.95

#: Recognized tail directions.
TAILS: Tuple[str, ...] = ("upper", "lower")


def _check_samples(name: str, values: np.ndarray) -> None:
    """Reject an empty sample axis or any non-finite sample."""
    if values.shape[-1] == 0:
        raise InvalidParameterError(f"metric {name!r}: no samples")
    if not np.all(np.isfinite(values)):
        guard_trip("metric_summary")
        raise InvalidParameterError(
            f"metric {name!r}: samples contain non-finite values"
        )


def _check_tail(tail: str, tail_level: float) -> None:
    if tail not in TAILS:
        raise InvalidParameterError(
            f"tail must be one of {TAILS}, got {tail!r}"
        )
    if not 0.5 < tail_level < 1.0:
        raise InvalidParameterError(
            f"tail level must be in (0.5, 1), got {tail_level}"
        )


def _check_curve_points(n_points: int) -> int:
    try:
        points = operator.index(n_points)
    except TypeError:
        raise InvalidParameterError(
            f"grid points must be an integer, got {n_points!r}"
        ) from None
    if points < 2:
        raise InvalidParameterError(f"need >= 2 grid points, got {points}")
    return points


def _var_percentile(tail: str, tail_level: float) -> float:
    """The percentile that is VaR: ``tail_level`` up, ``1 - tail_level``
    down."""
    if tail == "upper":
        return 100.0 * tail_level
    return 100.0 * (1.0 - tail_level)


def _tail_mean(values: np.ndarray, var: float, tail: str) -> float:
    """CVaR: the mean of the samples at or beyond ``var`` on the risk
    side, summed in sample order."""
    beyond = values >= var if tail == "upper" else values <= var
    return float(np.mean(values[beyond]))


@dataclass(frozen=True)
class MetricSummary:
    """Moments, percentile band, and CVaR tail of one sampled metric."""

    name: str
    n_samples: int
    mean: float
    std: float
    minimum: float
    maximum: float
    percentiles: Mapping[float, float]
    tail: str
    tail_level: float
    var: float
    cvar: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "percentiles", dict(self.percentiles))
        if self.tail not in TAILS:
            raise InvalidParameterError(
                f"tail must be one of {TAILS}, got {self.tail!r}"
            )

    @classmethod
    def from_samples(
        cls,
        name: str,
        samples: np.ndarray,
        tail: str = "upper",
        tail_level: float = DEFAULT_TAIL_LEVEL,
        percentiles: Sequence[float] = PERCENTILES,
    ) -> "MetricSummary":
        """Summarize one metric's sample array.

        ``tail="upper"`` reports VaR as the ``tail_level`` quantile and
        CVaR as the mean of samples at or above it (risk = large
        values); ``tail="lower"`` mirrors both to the ``1 - tail_level``
        quantile (risk = small values, e.g. agility collapsing).
        """
        values = np.asarray(samples, dtype=float).ravel()
        _check_samples(name, values)
        _check_tail(tail, tail_level)
        if tail == "upper":
            var = float(np.percentile(values, 100.0 * tail_level))
            tail_values = values[values >= var]
        else:
            var = float(np.percentile(values, 100.0 * (1.0 - tail_level)))
            tail_values = values[values <= var]
        return cls(
            name=name,
            n_samples=int(values.size),
            mean=float(np.mean(values)),
            std=float(np.std(values)),
            minimum=float(np.min(values)),
            maximum=float(np.max(values)),
            percentiles={
                float(p): float(np.percentile(values, p)) for p in percentiles
            },
            tail=tail,
            tail_level=tail_level,
            var=var,
            cvar=float(np.mean(tail_values)),
        )

    @property
    def median(self) -> float:
        """The 50th percentile (if requested in the band)."""
        try:
            return self.percentiles[50.0]
        except KeyError:
            raise InvalidParameterError(
                f"metric {self.name!r} was summarized without the median"
            ) from None

    def band(self, low: float = 5.0, high: float = 95.0) -> Tuple[float, float]:
        """A (low, high) percentile interval from the stored band."""
        try:
            return (self.percentiles[low], self.percentiles[high])
        except KeyError as missing:
            raise InvalidParameterError(
                f"percentile {missing} not in stored band "
                f"{sorted(self.percentiles)}"
            ) from None


@dataclass(frozen=True)
class ExceedanceCurve:
    """``P(X > t)`` over a threshold grid (empirical survival function)."""

    name: str
    thresholds: Tuple[float, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "thresholds", tuple(self.thresholds))
        object.__setattr__(self, "probabilities", tuple(self.probabilities))
        if len(self.thresholds) != len(self.probabilities):
            raise InvalidParameterError(
                "thresholds and probabilities must have equal length"
            )

    @classmethod
    def from_samples(
        cls, name: str, samples: np.ndarray, n_points: int = 33
    ) -> "ExceedanceCurve":
        """Evaluate the survival function on an even threshold grid."""
        values = np.sort(np.asarray(samples, dtype=float).ravel())
        _check_samples(name, values)
        _check_curve_points(n_points)
        grid = np.linspace(values[0], values[-1], n_points)
        # P(X > t) = (count of samples strictly above t) / n.
        above = values.size - np.searchsorted(values, grid, side="right")
        return cls(
            name=name,
            thresholds=tuple(float(t) for t in grid),
            probabilities=tuple(float(c) / values.size for c in above),
        )

    def probability_above(self, threshold: float) -> float:
        """Linear interpolation of ``P(X > threshold)`` on the grid."""
        return float(
            np.interp(
                threshold,
                self.thresholds,
                self.probabilities,
                left=self.probabilities[0],
                right=self.probabilities[-1],
            )
        )


@dataclass(frozen=True)
class StudyResult:
    """All summarized metrics of one Monte Carlo study."""

    design: str
    processes: Tuple[str, ...]
    n_samples: int
    seed: int
    summaries: Mapping[str, MetricSummary] = field(default_factory=dict)
    curves: Mapping[str, ExceedanceCurve] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "processes", tuple(self.processes))
        object.__setattr__(self, "summaries", dict(self.summaries))
        object.__setattr__(self, "curves", dict(self.curves))

    def __getitem__(self, metric: str) -> MetricSummary:
        try:
            return self.summaries[metric]
        except KeyError:
            known = ", ".join(sorted(self.summaries))
            raise KeyError(
                f"unknown metric {metric!r} (known: {known})"
            ) from None

    def table(self) -> str:
        """Percentile band + tail summary, one row per metric."""
        headers = [
            "metric", "mean", "p5", "p25", "p50", "p75", "p95",
            "VaR", "CVaR", "tail",
        ]
        rows = []
        for name, summary in self.summaries.items():
            rows.append(
                [
                    name,
                    summary.mean,
                    summary.percentiles.get(5.0, float("nan")),
                    summary.percentiles.get(25.0, float("nan")),
                    summary.percentiles.get(50.0, float("nan")),
                    summary.percentiles.get(75.0, float("nan")),
                    summary.percentiles.get(95.0, float("nan")),
                    summary.var,
                    summary.cvar,
                    summary.tail,
                ]
            )
        return format_table(headers, rows)


def summarize_block(
    name: str,
    block: np.ndarray,
    tail: str = "upper",
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> List[Tuple[MetricSummary, ExceedanceCurve]]:
    """Summarize every cell of a ``(..., n_samples)`` block at once.

    Returns one ``(summary, curve)`` pair per cell, in C order of the
    leading axes, each equal to what :meth:`MetricSummary.from_samples`
    and :meth:`ExceedanceCurve.from_samples` return for that cell's
    samples (with the default :data:`PERCENTILES` band). Moments come
    from axis reductions and every percentile (VaR included) from one
    ``np.percentile`` call; only the
    order-sensitive CVaR tail mean and the ``searchsorted`` of the
    exceedance grid run per cell.

    The block is copied to C order first: axis reductions over a
    contiguous sample axis are bit-equal to per-row calls, over a
    strided one they are not.
    """
    values = np.ascontiguousarray(np.atleast_1d(block), dtype=float)
    n = values.shape[-1]
    _check_samples(name, values)
    _check_tail(tail, tail_level)
    n_points = _check_curve_points(curve_points)
    rows = values.reshape(-1, n)
    keys = [float(p) for p in PERCENTILES]
    bands = np.percentile(
        rows, [*PERCENTILES, _var_percentile(tail, tail_level)], axis=-1
    )
    var = bands[-1].tolist()
    band_rows = bands[:-1].T.tolist()
    ordered = np.sort(rows, axis=-1)
    grid = _linspace_rows(ordered[:, 0], ordered[:, -1], n_points)
    counts = np.empty(grid.shape, dtype=np.intp)
    for j in range(rows.shape[0]):
        counts[j] = np.searchsorted(ordered[j], grid[j], side="right")
    cells = zip(
        rows.mean(axis=-1).tolist(),
        rows.std(axis=-1).tolist(),
        rows.min(axis=-1).tolist(),
        rows.max(axis=-1).tolist(),
        band_rows,
        var,
        grid.tolist(),
        ((n - counts) / n).tolist(),
    )
    return [
        (
            MetricSummary(
                name=name,
                n_samples=n,
                mean=mean,
                std=std,
                minimum=low,
                maximum=high,
                percentiles=dict(zip(keys, band)),
                tail=tail,
                tail_level=tail_level,
                var=cell_var,
                cvar=_tail_mean(rows[j], cell_var, tail),
            ),
            ExceedanceCurve(
                name=name, thresholds=thresholds, probabilities=above
            ),
        )
        for j, (mean, std, low, high, band, cell_var, thresholds, above)
        in enumerate(cells)
    ]


def _linspace_rows(
    start: np.ndarray, stop: np.ndarray, num: int
) -> np.ndarray:
    """``np.linspace(start[j], stop[j], num)`` for every row ``j``.

    Array-valued ``np.linspace`` takes its zero-step (denormal) branch
    for *all* rows when *any* step is zero; this applies the branch per
    row, so each row is bit-equal to its own scalar call.
    """
    div = num - 1
    delta = stop - start
    step = delta / div
    ramp = np.arange(0, num, dtype=float)
    grid = ramp * step[:, None]
    zero = step == 0
    if zero.any():
        grid[zero] = (ramp / div) * delta[zero, None]
    grid += start[:, None]
    grid[:, -1] = stop
    return grid


def summarize_cells(
    samples: Mapping[str, np.ndarray],
    tails: Mapping[str, str],
    tail_level: float = DEFAULT_TAIL_LEVEL,
    curve_points: int = 33,
) -> List[Tuple[Dict[str, MetricSummary], Dict[str, ExceedanceCurve]]]:
    """:func:`summarize_block` over a metric -> block map, per cell.

    Every block shares its leading shape; cell ``j`` (C order) gets its
    ``(summaries, curves)`` maps, keyed in the order of ``samples``.
    """
    per_metric = {
        name: summarize_block(
            name,
            block,
            tail=tails.get(name, "upper"),
            tail_level=tail_level,
            curve_points=curve_points,
        )
        for name, block in samples.items()
    }
    first = next(iter(per_metric.values()), [])
    return [
        (
            {name: pairs[j][0] for name, pairs in per_metric.items()},
            {name: pairs[j][1] for name, pairs in per_metric.items()},
        )
        for j in range(len(first))
    ]


def conditional_value_at_risk(
    samples: np.ndarray,
    level: float = DEFAULT_TAIL_LEVEL,
    tail: str = "upper",
) -> float:
    """Mean of the worst ``1 - level`` tail of a sample.

    ``tail="upper"`` averages the samples at or above the ``level``
    quantile (risk = large values, e.g. TTM weeks); ``tail="lower"``
    averages those at or below the ``1 - level`` quantile (risk = small
    values, e.g. agility collapsing). Equal to the ``cvar`` of
    :class:`MetricSummary`.
    """
    values = np.asarray(samples, dtype=float).ravel()
    _check_samples("cvar", values)
    _check_tail(tail, level)
    var = float(np.percentile(values, _var_percentile(tail, level)))
    return _tail_mean(values, var, tail)


def summarize_metrics(
    samples: Mapping[str, np.ndarray],
    tails: Mapping[str, str],
    tail_level: float = DEFAULT_TAIL_LEVEL,
) -> Dict[str, MetricSummary]:
    """Build :class:`MetricSummary` objects for a metric->samples map.

    Each metric's samples are flattened into one cell of
    :func:`summarize_block`.
    """
    return {
        name: summarize_block(
            name,
            np.ravel(values),
            tail=tails.get(name, "upper"),
            tail_level=tail_level,
        )[0][0]
        for name, values in samples.items()
    }


__all__ = [
    "DEFAULT_TAIL_LEVEL",
    "ExceedanceCurve",
    "MetricSummary",
    "PERCENTILES",
    "StudyResult",
    "TAILS",
    "conditional_value_at_risk",
    "summarize_block",
    "summarize_cells",
    "summarize_metrics",
]
