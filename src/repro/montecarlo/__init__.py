"""Monte Carlo uncertainty engine over the batch TTM/CAS/cost kernels.

Turns the paper's point-condition case studies into distribution-aware
analyses: sample joint supply-chain uncertainty (demand, capacity,
queues, defect density, wafer rates), optionally compose stochastic
disruption events over a market scenario, evaluate every sample through
the vectorized :mod:`repro.engine.batch` kernels, and report percentile
bands, exceedance curves, and CVaR tails per metric.
:mod:`repro.montecarlo.splits` extends the same machinery to fixed
multi-process production plans via
:func:`~repro.engine.batch_split.batch_split_samples` (the Sec. 7
"agility insurance" claim under sampled supply factors).
"""

from .disruption import (
    KINDS,
    DisruptionDraw,
    DisruptionEvent,
    DisruptionModel,
    DisruptionTimeline,
    EventEnsemble,
    SampledEvents,
)
from .results import (
    DEFAULT_TAIL_LEVEL,
    PERCENTILES,
    TAILS,
    ExceedanceCurve,
    MetricSummary,
    StudyResult,
    summarize_block,
    summarize_metrics,
)
from .sampling import (
    STRATEGIES,
    RankCorrelation,
    latin_hypercube,
    sample_factor_matrix,
    sample_uniforms,
)
from .scenario_study import (
    DEFAULT_CHUNK_SCENARIOS,
    ScenarioStudyResult,
    conditional_value_at_risk,
    run_scenario_study,
)
from .spec import (
    TARGETS,
    ParameterSamples,
    SampledParameter,
    SamplingSpec,
    default_correlated_spec,
    default_supply_spec,
)
from .splits import compare_plans, plan_label, run_plan_study
from .stress import (
    STRESS_FAMILIES,
    STRESS_LIBRARY,
    graded_stress_scenarios,
    stress_scenarios,
)
from .study import (
    DEFAULT_CHUNK_SAMPLES,
    METRIC_TAILS,
    chunk_sizes,
    compare_designs,
    run_study,
)

__all__ = [
    "DEFAULT_CHUNK_SAMPLES",
    "DEFAULT_CHUNK_SCENARIOS",
    "DEFAULT_TAIL_LEVEL",
    "DisruptionDraw",
    "DisruptionEvent",
    "DisruptionModel",
    "DisruptionTimeline",
    "EventEnsemble",
    "ExceedanceCurve",
    "KINDS",
    "METRIC_TAILS",
    "MetricSummary",
    "PERCENTILES",
    "ParameterSamples",
    "RankCorrelation",
    "STRATEGIES",
    "STRESS_FAMILIES",
    "STRESS_LIBRARY",
    "SampledEvents",
    "SampledParameter",
    "SamplingSpec",
    "ScenarioStudyResult",
    "StudyResult",
    "TAILS",
    "TARGETS",
    "chunk_sizes",
    "compare_designs",
    "compare_plans",
    "conditional_value_at_risk",
    "default_correlated_spec",
    "default_supply_spec",
    "graded_stress_scenarios",
    "latin_hypercube",
    "plan_label",
    "run_plan_study",
    "run_scenario_study",
    "run_study",
    "sample_factor_matrix",
    "sample_uniforms",
    "stress_scenarios",
    "summarize_block",
]
