"""Request parsing, shared state, and batch execution for repro.serve.

This module is the server's *pure* core: it turns JSON request bodies
into batcher payloads (:func:`parse_request`) and executes fused batches
of them (:func:`execute_batch`) — no sockets, no asyncio — so the whole
protocol is unit-testable without a running server.

Determinism and identity
------------------------
The engine's invariant LRU is identity-keyed: two structurally equal
``ChipDesign`` objects are different cache entries, and two
``TechnologyDatabase.default()`` calls never share anything. A service
that rebuilt objects per request would therefore recompile invariants
on every call *and* lose the fused-batch design dedup. ``ServeState``
prevents both: one technology database for the process, one memoized
``TTMModel`` per scenario, one cost model, and an interning cache that
maps each design spec's canonical JSON to a single ``ChipDesign``
instance reused across requests.

Responses are rendered with :func:`canonical_json` (sorted keys, no
whitespace), and every response body is a pure function of its own
request plus server state — batch metadata travels in HTTP headers —
which is what makes "coalesced == solo, byte for byte" testable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from collections.abc import Mapping
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from ..analysis.export import to_jsonable
from ..cost.model import CostModel
from ..design.chip import ChipDesign
from ..design.library import a11, raven_multicore, zen2, zen2_monolithic
from ..design.serialize import design_from_dict
from ..engine.batch_split import DEFAULT_SPLIT_GRID, batch_split, refine_split_grid
from ..engine.invariants import (
    cached_invariants,
    design_invariants,
    seed_design_invariants,
)
from ..engine.portfolio import compile_portfolio, portfolio_fingerprint
from ..engine.requests import (
    POINT_METRICS,
    PointRequest,
    fused_point_eval,
    point_signature,
)
from ..engine.shm import (
    InvariantsShare,
    PortfolioShare,
    share_design_invariants,
    share_portfolio,
)
from ..errors import ReproError
from ..market import scenarios
from ..montecarlo.scenario_study import run_scenario_study
from ..montecarlo.spec import default_correlated_spec, default_supply_spec
from ..montecarlo.stress import stress_scenarios
from ..montecarlo.study import compare_designs
from ..technology.database import TechnologyDatabase
from ..ttm.model import TTMModel

#: Endpoints served through the coalescing batcher.
BATCHED_ENDPOINTS: Tuple[str, ...] = ("evaluate", "mc", "splits", "scenarios")

#: Default nominal demand when a request omits ``n_chips``.
DEFAULT_N_CHIPS = 1e7

#: Cap on distinct interned designs held per server.
DESIGN_CACHE_LIMIT = 512

#: Library designs addressable by plain string. The A11 defaults to its
#: 7 nm re-release target, not the original 10 nm (which the dataset
#: models as having zero production capacity — see NodeUnavailableError);
#: this matches the ``ttm-cas mc`` default.
_NAMED_DESIGNS: Dict[str, Callable[[], ChipDesign]] = {
    "a11": partial(a11, "7nm"),
    "zen2": zen2,
    "raven": raven_multicore,
}

#: Library factories addressable via ``{"library": ..., "process": ...}``.
#: All are single-process, so /splits ports the same ones per node.
_LIBRARY_FACTORIES: Dict[str, Callable[..., ChipDesign]] = {
    "a11": a11,
    "zen2-monolithic": zen2_monolithic,
    "raven": raven_multicore,
}


class BadRequestError(Exception):
    """A request the protocol rejects; maps to HTTP 400."""

    def __init__(self, message: str, code: str = "invalid_request") -> None:
        super().__init__(message)
        self.code = code


def canonical_json(value: Any) -> bytes:
    """The canonical wire encoding: sorted keys, no whitespace, UTF-8.

    Strict JSON: a NaN or infinity raises ``ValueError`` instead of
    emitting the non-standard ``NaN``/``Infinity`` tokens.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def error_body(code: str, message: str) -> bytes:
    """The structured error payload every non-2xx response carries."""
    return canonical_json({"error": {"code": code, "message": message}})


def _require_mapping(body: Any) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise BadRequestError(
            f"request body must be a JSON object, got {type(body).__name__}"
        )
    return body


def _real(value: Any, what: str, kind: str = "a number") -> float:
    """``float(value)`` for a finite JSON number; anything else is a 400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise BadRequestError(f"{what} must be {kind}, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer too large for a double
        number = math.inf
    if not math.isfinite(number):
        raise BadRequestError(f"{what} must be finite, got {value!r}")
    return number


def _number(
    body: Mapping[str, Any], key: str, default: Optional[float] = None
) -> Optional[float]:
    return _real(body[key], f"field {key!r}") if key in body else default


def _integer(
    body: Mapping[str, Any], key: str, default: int
) -> int:
    value = body.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequestError(
            f"field {key!r} must be an integer, got {value!r}"
        )
    return value


def _seed(body: Mapping[str, Any]) -> int:
    """The per-request seed: a non-negative integer (``SeedSequence``)."""
    seed = _integer(body, "seed", 0)
    if seed < 0:
        raise BadRequestError(f"'seed' must be >= 0, got {seed}")
    return seed


def _boolean(body: Mapping[str, Any], key: str, default: bool) -> bool:
    """A flag that must be a JSON ``true``/``false``; nothing is coerced."""
    value = body.get(key, default)
    if not isinstance(value, bool):
        raise BadRequestError(
            f"field {key!r} must be true or false, got {value!r}"
        )
    return value


def _capacity(body: Mapping[str, Any]) -> Optional[Any]:
    if "capacity" not in body:
        return None
    value = body["capacity"]
    if not isinstance(value, Mapping):
        return _real(value, "field 'capacity'", "a number or a node mapping")
    out = {
        str(node): _real(fraction, f"capacity for node {node!r}")
        for node, fraction in value.items()
    }
    if not out:
        raise BadRequestError("capacity mapping must not be empty")
    return out


def _metrics(body: Mapping[str, Any]) -> Tuple[str, ...]:
    value = body.get("metrics")
    if value is None:
        return POINT_METRICS
    if not isinstance(value, (list, tuple)) or not value:
        raise BadRequestError(
            "field 'metrics' must be a non-empty list of metric names"
        )
    metrics = []
    for name in value:
        if name not in POINT_METRICS:
            raise BadRequestError(
                f"unknown metric {name!r}; choose from {list(POINT_METRICS)}"
            )
        if name not in metrics:
            metrics.append(name)
    return tuple(metrics)


def _scenario(body: Mapping[str, Any]) -> str:
    """The named market scenario (default ``nominal``), checked by name."""
    scenario = str(body.get("scenario", "nominal"))
    if scenario not in scenarios.SCENARIOS:
        raise BadRequestError(
            f"unknown scenario {scenario!r}; "
            f"choose from {sorted(scenarios.SCENARIOS)}"
        )
    return scenario


def _n_chips(body: Mapping[str, Any]) -> float:
    n_chips = _number(body, "n_chips", DEFAULT_N_CHIPS)
    if n_chips <= 0:  # type: ignore[operator]
        raise BadRequestError(f"'n_chips' must be positive, got {n_chips}")
    return n_chips  # type: ignore[return-value]


def _study_fields(
    body: Mapping[str, Any], antithetic: bool = False
) -> Dict[str, Any]:
    """The sampling block /mc and /scenarios share: samples, seed, the
    supply-spec knobs and ``with_cost``. ``antithetic`` also reads the
    /scenarios ``correlated`` flag, which needs an even sample count."""
    samples = _integer(body, "samples", 1024)
    if samples <= 0:
        raise BadRequestError(f"'samples' must be positive, got {samples}")
    fields: Dict[str, Any] = {"samples": samples}
    if antithetic:
        correlated = _boolean(body, "correlated", False)
        if correlated and samples % 2:
            raise BadRequestError(
                "correlated sampling is antithetic and needs an even "
                f"'samples', got {samples}"
            )
        fields["correlated"] = correlated
    fields["seed"] = _seed(body)
    fields["spec_knobs"] = {
        "n_chips": _n_chips(body),
        "variation": _number(body, "variation", 0.1),
        "queue_weeks": _number(body, "queue_weeks", 2.0),
        "capacity": _number(body, "capacity", 0.9),
    }
    fields["with_cost"] = _boolean(body, "with_cost", True)
    return fields


def split_factory(spec: Any) -> Tuple[str, Callable[[str], ChipDesign]]:
    """The (label, node -> design) factory of one /splits design spec.

    The label is the design's part of the /splits group key; the shard
    router routes on the same label.
    """
    if isinstance(spec, str):
        name, extra = spec, {}
    else:
        mapping = _require_mapping(spec)
        name = mapping.get("library")
        extra = {key: mapping[key] for key in mapping if key != "library"}
        unknown = set(extra) - {"cores"}
        if unknown:
            raise BadRequestError(
                f"unknown split-design keys {sorted(unknown)}"
            )
    factory = (
        _LIBRARY_FACTORIES.get(name) if isinstance(name, str) else None
    )
    if factory is None:
        raise BadRequestError(
            f"split designs must name a single-process library "
            f"({sorted(_LIBRARY_FACTORIES)}), got {name!r}"
        )
    if "cores" in extra:
        if name != "raven":
            raise BadRequestError(
                "'cores' only applies to the 'raven' library"
            )
        cores = _integer(extra, "cores", 16)
        return f"{name}:{cores}", partial(factory, cores=cores)
    return name, factory


@dataclass(frozen=True)
class WarmBundle:
    """Picklable warm-cache publication for shard workers.

    The supervisor computes the named designs' invariants and their
    compiled portfolio once, publishes the tensors through
    ``repro.engine.shm``, and ships this bundle to every worker. A
    worker interns its *own* design/technology objects (the engine's
    caches are identity-keyed) and seeds them with the attached
    zero-copy views, so N workers share one copy of the warm tensors
    instead of re-deriving N. The model knobs ride along because they
    are part of the cache keys: seeding under the knobs the tensors were
    computed with keeps the entries correct even if defaults diverge.
    """

    labels: Tuple[str, ...]
    invariants: InvariantsShare
    portfolio: Optional[PortfolioShare]
    engineers: int
    alpha: float
    edge_corrected: bool
    block_parallel: bool

    @property
    def handles(self) -> Tuple[Any, ...]:
        """Every tensor handle the bundle references (for leasing)."""
        out: List[Any] = [self.invariants.handle]
        if self.portfolio is not None:
            out.append(self.portfolio.handle)
        return tuple(out)

    @property
    def source(self) -> str:
        """``shared`` for zero-copy shm views, ``inline`` for pickled."""
        return "shared" if self.invariants.handle.is_shared else "inline"


class ServeState:
    """Process-wide shared state: database, models, interned designs."""

    def __init__(
        self,
        technology: Optional[TechnologyDatabase] = None,
        warm: Optional[WarmBundle] = None,
    ) -> None:
        self.technology = technology or TechnologyDatabase.default()
        self.cost_model = CostModel.nominal(self.technology)
        self._base_model = TTMModel.nominal(self.technology)
        self._models: Dict[str, TTMModel] = {}
        self._designs: Dict[bytes, ChipDesign] = {}
        #: Where this process's warm caches came from: ``local`` (it
        #: computes them itself), ``shared`` (zero-copy shm views from
        #: the shard supervisor), or ``inline`` (the pickling fallback).
        self.warm_source = "local"
        if warm is not None:
            self._seed_warm(warm)

    def _seed_warm(self, warm: WarmBundle) -> None:
        """Seed the identity-keyed engine caches from a warm bundle."""
        shared = warm.invariants.materialize()
        designs: List[ChipDesign] = []
        for label in warm.labels:
            design = self.resolve_design(label)
            designs.append(design)
            entry = shared.get(label)
            if entry is not None:
                seed_design_invariants(
                    design,
                    self.technology,
                    entry,
                    engineers=warm.engineers,
                    alpha=warm.alpha,
                    edge_corrected=warm.edge_corrected,
                    block_parallel=warm.block_parallel,
                )
        if warm.portfolio is not None:
            tensors = warm.portfolio.materialize()
            key = portfolio_fingerprint(
                tuple(designs),
                self.technology,
                engineers=warm.engineers,
                alpha=warm.alpha,
                edge_corrected=warm.edge_corrected,
                block_parallel=warm.block_parallel,
            )
            cached_invariants(key, lambda: tensors)
        self.warm_source = warm.source

    def model_for(self, scenario: str) -> TTMModel:
        """The memoized TTM model under one named market scenario."""
        model = self._models.get(scenario)
        if model is None:
            model = self._base_model.with_foundry(
                self._base_model.foundry.with_conditions(
                    scenarios.by_name(scenario)
                )
            )
            self._models[scenario] = model
        return model

    def resolve_design(self, spec: Any) -> ChipDesign:
        """Intern one design spec (string, library dict, or inline dict).

        Identical specs always return the *same object*, so the
        invariant LRU and the fused batcher's design dedup both see one
        design, not N copies.
        """
        try:
            key = canonical_json(spec)
        except ValueError:
            raise BadRequestError(
                "design specs must not contain NaN or Infinity"
            ) from None
        design = self._designs.get(key)
        if design is not None:
            return design
        design = self._build_design(spec)
        if len(self._designs) >= DESIGN_CACHE_LIMIT:
            self._designs.pop(next(iter(self._designs)))
        self._designs[key] = design
        return design

    def _build_design(self, spec: Any) -> ChipDesign:
        if isinstance(spec, str):
            factory = _NAMED_DESIGNS.get(spec)
            if factory is None:
                raise BadRequestError(
                    f"unknown design {spec!r}; named designs are "
                    f"{sorted(_NAMED_DESIGNS)} (or pass a library/inline "
                    "design object)"
                )
            return factory()
        spec = _require_mapping(spec)
        if "library" in spec:
            library = spec["library"]
            factory = (
                _LIBRARY_FACTORIES.get(library)
                if isinstance(library, str)
                else None
            )
            if factory is None:
                raise BadRequestError(
                    f"unknown design library {library!r}; "
                    f"choose from {sorted(_LIBRARY_FACTORIES)}"
                )
            kwargs: Dict[str, Any] = {}
            if "process" in spec:
                kwargs["process"] = str(spec["process"])
            elif library == "zen2-monolithic":
                raise BadRequestError(
                    "design library 'zen2-monolithic' requires 'process'"
                )
            if "cores" in spec:
                if library != "raven":
                    raise BadRequestError(
                        "'cores' only applies to the 'raven' library"
                    )
                kwargs["cores"] = _integer(spec, "cores", 16)
            extra = set(spec) - {"library", "process", "cores"}
            if extra:
                raise BadRequestError(
                    f"unknown design keys {sorted(extra)}"
                )
            try:
                return factory(**kwargs)
            except ReproError as error:
                raise BadRequestError(str(error)) from None
        if "dies" in spec:
            try:
                return design_from_dict(spec)
            except ReproError as error:
                raise BadRequestError(str(error)) from None
        raise BadRequestError(
            "design must be a known name, a {'library': ...} reference, "
            "or an inline design object with 'dies'"
        )


def build_warm_bundle(state: Optional[ServeState] = None) -> WarmBundle:
    """Compute and publish the named designs' warm caches (parent side).

    Uses (or builds) a :class:`ServeState`, derives every named library
    design's invariants plus the compiled portfolio over all of them,
    and publishes the tensors through the process-wide shm store. The
    returned bundle's handles each carry one publish reference; the
    caller owns their release (the shard supervisor leases them per
    worker and releases its own reference at shutdown).
    """
    state = state or ServeState()
    model = state._base_model
    labels = tuple(sorted(_NAMED_DESIGNS))
    designs = [state.resolve_design(label) for label in labels]
    invariants = {
        label: design_invariants(
            design,
            state.technology,
            model.engineers,
            alpha=model.alpha,
            edge_corrected=model.edge_corrected,
            block_parallel=model.block_parallel,
        )
        for label, design in zip(labels, designs)
    }
    portfolio = compile_portfolio(
        tuple(designs),
        state.technology,
        engineers=model.engineers,
        alpha=model.alpha,
        edge_corrected=model.edge_corrected,
        block_parallel=model.block_parallel,
    )
    return WarmBundle(
        labels=labels,
        invariants=share_design_invariants(invariants),
        portfolio=share_portfolio(portfolio),
        engineers=model.engineers,
        alpha=model.alpha,
        edge_corrected=model.edge_corrected,
        block_parallel=model.block_parallel,
    )


# -- the request schema: one design-free field function per endpoint ---------


def normalize_stress_selector(value: Any) -> Tuple[str, ...]:
    """Normalize a /scenarios ``scenarios`` field to a selector tuple."""
    if value is None:
        return ("all",)
    if isinstance(value, str):
        return (value,)
    if isinstance(value, (list, tuple)) and value and all(
        isinstance(item, str) for item in value
    ):
        return tuple(value)
    raise BadRequestError(
        "field 'scenarios' must be a selector string or a non-empty "
        f"list of selector strings, got {value!r}"
    )


def evaluate_fields(body: Any) -> Dict[str, Any]:
    """Every /evaluate field but the design: typed, finite, defaulted."""
    body = _require_mapping(body)
    return {
        "scenario": _scenario(body),
        "n_chips": _n_chips(body),
        "capacity": _capacity(body),
        "queue_weeks": _number(body, "queue_weeks"),
        "d0_scale": _number(body, "d0_scale"),
        "wafer_rate_scale": _number(body, "wafer_rate_scale"),
        "metrics": _metrics(body),
    }


def mc_fields(body: Any) -> Dict[str, Any]:
    """Every /mc field but the design: typed, finite, defaulted."""
    body = _require_mapping(body)
    return {"scenario": _scenario(body), **_study_fields(body)}


def scenarios_fields(body: Any) -> Dict[str, Any]:
    """Every /scenarios field but the design: typed, finite, defaulted.

    The stress selector is normalized here and resolved by
    :func:`parse_scenarios`.
    """
    body = _require_mapping(body)
    return {
        "scenario": _scenario(body),
        "selector": normalize_stress_selector(body.get("scenarios")),
        **_study_fields(body, antithetic=True),
    }


def splits_fields(body: Any) -> Dict[str, Any]:
    """Every /splits field, its design label and factory included."""
    body = _require_mapping(body)
    pairs_raw = body.get("pairs")
    if not isinstance(pairs_raw, (list, tuple)) or not pairs_raw:
        raise BadRequestError(
            "field 'pairs' must be a non-empty list of [primary, secondary] "
            "node pairs"
        )
    pairs: List[Tuple[str, str]] = []
    for item in pairs_raw:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise BadRequestError(
                f"each pair must be a [primary, secondary] list, got {item!r}"
            )
        pairs.append((str(item[0]), str(item[1])))
    label, factory = split_factory(body.get("design", "a11"))
    return {
        "pairs": pairs,
        "design_label": label,
        "factory": factory,
        "scenario": _scenario(body),
        "n_chips": _n_chips(body),
        "refine": _boolean(body, "refine", False),
        "with_cas": _boolean(body, "with_cas", True),
    }


#: The request schema: endpoint -> field function. The worker's parsers
#: and the shard router's ``routing_key`` both read it, so validation,
#: defaults and the group/routing keys cannot drift apart.
REQUEST_FIELDS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "evaluate": evaluate_fields,
    "mc": mc_fields,
    "splits": splits_fields,
    "scenarios": scenarios_fields,
}


# -- parsing: body -> (group key, payload) ------------------------------------


def _design(state: ServeState, body: Any) -> ChipDesign:
    """Resolve a body's required ``design`` (parsers do this first)."""
    body = _require_mapping(body)
    if "design" not in body:
        raise BadRequestError("missing required field 'design'")
    return state.resolve_design(body["design"])


def parse_evaluate(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /evaluate body into its batcher (key, payload)."""
    design = _design(state, body)
    fields = evaluate_fields(body)
    scenario = fields.pop("scenario")
    request = PointRequest(design=design, **fields)
    key = ("evaluate", scenario, point_signature(request))
    payload = {
        "request": request,
        "scenario": scenario,
        "design_name": design.name,
    }
    return key, payload


def parse_mc(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /mc body into its batcher (key, payload).

    The group key pins everything that shapes the random draws —
    scenario, sample count, seed, and every spec knob — so coalesced
    studies differ only along the design axis, which is exactly what
    ``compare_designs`` fuses with common random numbers.
    """
    design = _design(state, body)
    fields = mc_fields(body)
    key = (
        "mc",
        fields["scenario"],
        fields["samples"],
        fields["seed"],
        fields["with_cost"],
        canonical_json(fields["spec_knobs"]),
    )
    return key, {**fields, "design": design, "design_name": design.name}


def parse_splits(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /splits body into its batcher (key, payload).

    Split sweeps don't share a fusable axis, so coalescing here is
    single-flight deduplication: the group key is the canonical body,
    and every member of a group receives the one shared evaluation.
    """
    fields = splits_fields(body)
    normalized = {
        "pairs": [list(pair) for pair in fields["pairs"]],
        "design": fields["design_label"],
        "scenario": fields["scenario"],
        "n_chips": fields["n_chips"],
        "refine": fields["refine"],
        "with_cas": fields["with_cas"],
    }
    return ("splits", canonical_json(normalized)), fields


def parse_scenarios(
    state: ServeState, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Parse one /scenarios body into its batcher (key, payload).

    Like /mc, the group key pins everything shaping the shared draw —
    market scenario, sample count, seed, spec knobs, sampling mode —
    plus the stress-scenario selector, so coalesced requests differ
    only along the design axis and fuse into one
    :func:`~repro.montecarlo.scenario_study.run_scenario_study` cube.
    The per-request ``seed`` lives in the key: requests with different
    seeds never share a batch.
    """
    design = _design(state, body)
    fields = scenarios_fields(body)
    try:
        stress_set = stress_scenarios(fields["selector"])
    except ReproError as error:
        raise BadRequestError(str(error)) from None
    key = (
        "scenarios",
        fields["scenario"],
        fields["selector"],
        fields["samples"],
        fields["seed"],
        fields["with_cost"],
        fields["correlated"],
        canonical_json(fields["spec_knobs"]),
    )
    payload = {
        **fields,
        "stress_set": stress_set,
        "design": design,
        "design_name": design.name,
    }
    return key, payload


_PARSERS = {
    "evaluate": parse_evaluate,
    "mc": parse_mc,
    "splits": parse_splits,
    "scenarios": parse_scenarios,
}


def parse_request(
    state: ServeState, endpoint: str, body: Any
) -> Tuple[Hashable, Dict[str, Any]]:
    """Dispatch one endpoint's body to its parser."""
    return _PARSERS[endpoint](state, body)


# -- execution: (key, payloads) -> one response dict per payload ---------------


def execute_evaluate(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one fused point-evaluation batch."""
    scenario = payloads[0]["scenario"]
    model = state.model_for(scenario)
    results = fused_point_eval(
        model,
        state.cost_model,
        [payload["request"] for payload in payloads],
    )
    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "metrics": metrics,
        }
        for payload, metrics in zip(payloads, results)
    ]


def execute_mc(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one coalesced Monte Carlo study batch.

    Identical designs are deduplicated (single-flight: one study shared
    by every requester); distinct designs are fused into one
    ``compare_designs`` portfolio pass over shared draws. If two
    *different* interned designs collide on a display name (legal for
    inline designs), the batch falls back to per-design studies — the
    results are bit-identical either way, per the portfolio engine's
    common-random-numbers guarantee.
    """
    first = payloads[0]
    model = state.model_for(first["scenario"])
    knobs = first["spec_knobs"]
    spec = default_supply_spec(
        n_chips=knobs["n_chips"],
        variation=knobs["variation"],
        queue_weeks=knobs["queue_weeks"],
        capacity=knobs["capacity"],
    )
    cost_model = state.cost_model if first["with_cost"] else None

    unique: List[ChipDesign] = []
    row_of: Dict[int, int] = {}
    for payload in payloads:
        design = payload["design"]
        if id(design) not in row_of:
            row_of[id(design)] = len(unique)
            unique.append(design)

    names = [design.name for design in unique]
    run = partial(
        compare_designs,
        model,
        spec=spec,
        n_samples=first["samples"],
        seed=first["seed"],
        cost_model=cost_model,
    )
    if len(set(names)) == len(names):
        studies = run(unique)
        by_row = [studies[design.name] for design in unique]
    else:
        by_row = [run([design])[design.name] for design in unique]

    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "samples": payload["samples"],
            "seed": payload["seed"],
            "study": to_jsonable(by_row[row_of[id(payload["design"])]]),
        }
        for payload in payloads
    ]


def execute_splits(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one deduplicated split-sweep group (all payloads identical)."""
    first = payloads[0]
    model = state.model_for(first["scenario"])
    result = batch_split(
        first["factory"],
        first["pairs"],
        model,
        state.cost_model,
        first["n_chips"],
        split_grid=DEFAULT_SPLIT_GRID,
        with_cas=first["with_cas"],
    )
    if first["refine"] and first["with_cas"]:
        result = batch_split(
            first["factory"],
            first["pairs"],
            model,
            state.cost_model,
            first["n_chips"],
            split_grid=refine_split_grid(result),
            with_cas=True,
        )
    best = []
    for i, pair in enumerate(result.pairs):
        evaluation = result.best_evaluation(i)
        best.append(
            {
                "pair": list(pair),
                "split": evaluation.split,
                "ttm_weeks": evaluation.ttm_weeks,
                "cost_usd": evaluation.cost_usd,
                "cas": evaluation.cas,
            }
        )
    response = {
        "design": first["design_label"],
        "scenario": first["scenario"],
        "n_chips": first["n_chips"],
        "refined": bool(first["refine"] and first["with_cas"]),
        "best": best,
    }
    return [response for _ in payloads]


def execute_scenarios(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Run one coalesced scenario-cube study batch.

    Identical designs are deduplicated; distinct designs join one fused
    ``run_scenario_study`` cube over shared draws (common random
    numbers). Per the scenario engine's per-design independence, a
    design's slice of the fused cube is bit-identical to its solo
    study, so coalesced == solo byte-for-byte. Name collisions between
    *different* interned designs fall back to per-design studies.
    """
    first = payloads[0]
    model = state.model_for(first["scenario"])
    knobs = first["spec_knobs"]
    build_spec = (
        default_correlated_spec if first["correlated"] else default_supply_spec
    )
    spec = build_spec(
        n_chips=knobs["n_chips"],
        variation=knobs["variation"],
        queue_weeks=knobs["queue_weeks"],
        capacity=knobs["capacity"],
    )
    cost_model = state.cost_model if first["with_cost"] else None
    stress_set = first["stress_set"]

    unique: List[ChipDesign] = []
    row_of: Dict[int, int] = {}
    for payload in payloads:
        design = payload["design"]
        if id(design) not in row_of:
            row_of[id(design)] = len(unique)
            unique.append(design)

    names = [design.name for design in unique]
    run = partial(
        run_scenario_study,
        model,
        spec=spec,
        scenarios=stress_set,
        n_samples=first["samples"],
        seed=first["seed"],
        cost_model=cost_model,
    )
    if len(set(names)) == len(names):
        study = run(unique)
        by_row = [
            {
                scenario: study.cell(scenario, design.name)
                for scenario in study.scenarios
            }
            for design in unique
        ]
        baseline = study.baseline
    else:
        by_row = []
        baseline = stress_set.names[0]
        for design in unique:
            solo = run([design])
            baseline = solo.baseline
            by_row.append(
                {
                    scenario: solo.cell(scenario, design.name)
                    for scenario in solo.scenarios
                }
            )
    return [
        {
            "design": payload["design_name"],
            "scenario": payload["scenario"],
            "scenarios": list(stress_set.names),
            "baseline": baseline,
            "samples": payload["samples"],
            "seed": payload["seed"],
            "correlated": payload["correlated"],
            "studies": {
                scenario: to_jsonable(cell)
                for scenario, cell in by_row[
                    row_of[id(payload["design"])]
                ].items()
            },
        }
        for payload in payloads
    ]


_EXECUTORS = {
    "evaluate": execute_evaluate,
    "mc": execute_mc,
    "splits": execute_splits,
    "scenarios": execute_scenarios,
}


def execute_batch(
    state: ServeState, key: Hashable, payloads: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """The batcher's batch function: dispatch a group to its executor.

    ``key`` is a tuple whose first element names the endpoint (see the
    parsers above); the result is one JSON-compatible response dict per
    payload, in order.
    """
    endpoint = key[0]  # type: ignore[index]
    return _EXECUTORS[endpoint](state, key, payloads)


def endpoint_of(key: Hashable) -> str:
    """Metrics label for one group key (its endpoint name)."""
    return str(key[0])  # type: ignore[index]


__all__ = [
    "BATCHED_ENDPOINTS",
    "BadRequestError",
    "DEFAULT_N_CHIPS",
    "DESIGN_CACHE_LIMIT",
    "REQUEST_FIELDS",
    "ServeState",
    "WarmBundle",
    "build_warm_bundle",
    "canonical_json",
    "endpoint_of",
    "error_body",
    "evaluate_fields",
    "execute_batch",
    "execute_evaluate",
    "execute_mc",
    "execute_scenarios",
    "execute_splits",
    "mc_fields",
    "normalize_stress_selector",
    "parse_evaluate",
    "parse_mc",
    "parse_request",
    "parse_scenarios",
    "parse_splits",
    "scenarios_fields",
    "split_factory",
    "splits_fields",
]
