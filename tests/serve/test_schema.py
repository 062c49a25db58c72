"""The request schema: one field function per endpoint, read by both the
worker's parsers and the shard router's ``routing_key``.

* **Parse totality** — for every endpoint and arbitrary JSON, the worker
  parser either accepts the body or raises :class:`BadRequestError`
  (a 400). Any other exception used to drop the client's connection.
* **Routing consistency** — bodies the worker accepts into one batcher
  group always get one routing key, and ``routing_key`` never raises.
* **Golden routing keys** — the routing key of each valid body below is
  pinned byte for byte, so the worker a request lands on never moves.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.design.library import a11
from repro.design.serialize import design_to_dict
from repro.serve.protocol import BadRequestError, ServeState, parse_request
from repro.serve.shard import routing_key

STATE = ServeState()

INLINE = design_to_dict(a11("7nm"))

#: (endpoint, body, the routing key it had when the schema was unified).
GOLDEN = [
    (
        "evaluate", {"design": "a11"},
        b'["evaluate","nominal",["conditions",false,false,false]]',
    ),
    (
        "evaluate", {"design": "zen2", "n_chips": 20000000},
        b'["evaluate","nominal",["conditions",false,false,false]]',
    ),
    (
        "evaluate", {"design": "raven", "n_chips": 2e7, "queue_weeks": 3},
        b'["evaluate","nominal",["conditions",true,false,false]]',
    ),
    (
        "evaluate", {"design": "a11", "capacity": 0.8},
        b'["evaluate","nominal",["global",false,false,false]]',
    ),
    (
        "evaluate", {"design": "a11", "capacity": 1},
        b'["evaluate","nominal",["global",false,false,false]]',
    ),
    (
        "evaluate", {"design": "a11", "capacity": {"7nm": 0.5, "14nm": 0.9}},
        b'["evaluate","nominal",[["nodes",["14nm","7nm"]],false,false,false]]',
    ),
    (
        "evaluate", {"design": "zen2", "capacity": {"14nm": 0.1, "7nm": 2}},
        b'["evaluate","nominal",[["nodes",["14nm","7nm"]],false,false,false]]',
    ),
    (
        "evaluate",
        {"design": "a11", "d0_scale": 1.2, "wafer_rate_scale": 0.5},
        b'["evaluate","nominal",["conditions",false,true,true]]',
    ),
    (
        "evaluate", {"design": "a11", "queue_weeks": 2.0, "d0_scale": 1,
            "wafer_rate_scale": 2, "capacity": 0.5},
        b'["evaluate","nominal",["global",true,true,true]]',
    ),
    (
        "evaluate", {"design": {"library": "raven", "cores": 8},
            "scenario": "shortage_2021"},
        b'["evaluate","shortage_2021",["conditions",false,false,false]]',
    ),
    (
        "evaluate", {"design": {"library": "a11", "process": "7nm"},
            "metrics": ["ttm", "cost"]},
        b'["evaluate","nominal",["conditions",false,false,false]]',
    ),
    (
        "evaluate", {"design": INLINE, "scenario": "legacy_crunch",
            "wafer_rate_scale": 1.5},
        b'["evaluate","legacy_crunch",["conditions",false,false,true]]',
    ),
    (
        "mc", {"design": "a11"},
        b'["mc","nominal",1024,0,true,10000000.0,0.1,2.0,0.9]',
    ),
    (
        "mc", {"design": "zen2", "samples": 64, "seed": 5},
        b'["mc","nominal",64,5,true,10000000.0,0.1,2.0,0.9]',
    ),
    (
        "mc", {"design": "a11", "n_chips": 10000000},
        b'["mc","nominal",1024,0,true,10000000.0,0.1,2.0,0.9]',
    ),
    (
        "mc", {"design": "raven", "variation": 0.2, "queue_weeks": 3,
            "capacity": 1, "with_cost": False},
        b'["mc","nominal",1024,0,false,10000000.0,0.2,3.0,1.0]',
    ),
    (
        "mc", {"design": {"library": "raven", "cores": 32}, "seed": 2 ** 40,
            "scenario": "advanced_drought"},
        b'["mc","advanced_drought",1024,1099511627776,true,10000000.0,0.1,2.0,0.9]',
    ),
    (
        "mc", {"design": "a11", "samples": 1, "seed": 0, "n_chips": 5e6,
            "variation": 0},
        b'["mc","nominal",1,0,true,5000000.0,0.0,2.0,0.9]',
    ),
    (
        "scenarios", {"design": "a11"},
        b'["scenarios","nominal",["all"],1024,0,true,false,10000000.0,0.1,2.0,0.9]',
    ),
    (
        "scenarios", {"design": "zen2", "scenarios": "fab-outage",
            "samples": 128, "seed": 3},
        b'["scenarios","nominal",["fab-outage"],128,3,true,false,10000000.0,0.1,2.0,0.9]',
    ),
    (
        "scenarios", {"design": "a11", "scenarios": ["all"],
            "correlated": True, "samples": 64},
        b'["scenarios","nominal",["all"],64,0,true,true,10000000.0,0.1,2.0,0.9]',
    ),
    (
        "scenarios", {"design": "raven",
            "scenarios": ["logistics:severe", "fab-outage"],
            "with_cost": False, "variation": 0, "capacity": 1},
        b'["scenarios","nominal",["logistics:severe","fab-outage"],1024,0,false,false,10000000.0,0.0,2.0,1.0]',
    ),
    (
        "scenarios", {"design": {"library": "raven", "cores": 16},
            "scenario": "fab_fire_28nm", "n_chips": 30000000,
            "correlated": False, "queue_weeks": 1.5},
        b'["scenarios","fab_fire_28nm",["all"],1024,0,true,false,30000000.0,0.1,1.5,0.9]',
    ),
    (
        "splits", {"pairs": [["7nm", "14nm"]]},
        b'["splits","nominal","a11",[["7nm","14nm"]],10000000.0,false,true]',
    ),
    (
        "splits", {"design": "a11", "pairs": [["7nm", "14nm"], ["5nm", "7nm"]],
            "refine": True},
        b'["splits","nominal","a11",[["7nm","14nm"],["5nm","7nm"]],10000000.0,true,true]',
    ),
    (
        "splits", {"design": {"library": "raven", "cores": 8},
            "pairs": [["7nm", "28nm"]], "with_cas": False},
        b'["splits","nominal","raven:8",[["7nm","28nm"]],10000000.0,false,false]',
    ),
    (
        "splits", {"design": {"library": "zen2-monolithic"},
            "pairs": [["7nm", "14nm"]], "n_chips": 5000000},
        b'["splits","nominal","zen2-monolithic",[["7nm","14nm"]],5000000.0,false,true]',
    ),
    (
        "splits", {"design": "raven", "pairs": [["7nm", "14nm"]],
            "scenario": "shortage_2021", "n_chips": 1e7},
        b'["splits","shortage_2021","raven",[["7nm","14nm"]],10000000.0,false,true]',
    ),
    (
        "splits", {"design": {"library": "a11"}, "pairs": [["5nm", "7nm"]],
            "refine": False, "with_cas": True, "n_chips": 2.5e7},
        b'["splits","nominal","a11",[["5nm","7nm"]],25000000.0,false,true]',
    ),
    (
        "splits", {"design": "raven", "pairs": [["14nm", "28nm"]],
            "scenario": "nominal"},
        b'["splits","nominal","raven",[["14nm","28nm"]],10000000.0,false,true]',
    ),
]


@pytest.mark.parametrize(
    "endpoint,body,key",
    GOLDEN,
    ids=[f"{endpoint}-{i}" for i, (endpoint, _, _) in enumerate(GOLDEN)],
)
def test_golden_routing_keys(endpoint, body, key):
    parse_request(STATE, endpoint, body)  # the worker accepts it
    assert routing_key(endpoint, json.dumps(body).encode()) == key


# -- parse totality -----------------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)

#: Design specs that reach deep into design resolution.
design_values = (
    json_values
    | st.sampled_from(["a11", "zen2", "raven", "nope"])
    | st.builds(lambda v: {"library": v}, json_values)
    | st.builds(lambda v: {"library": "raven", "cores": v}, json_values)
    | st.builds(lambda v: {"library": "a11", "process": v}, json_values)
    | st.builds(lambda v: {"name": "x", "dies": v}, json_values)
    | st.builds(
        lambda die: {"name": "x", "dies": [die]},
        st.dictionaries(
            st.sampled_from(
                ["name", "process", "blocks", "count", "area_mm2", "salvage"]
            ),
            json_values,
            max_size=4,
        ),
    )
    | st.builds(
        lambda key, value: {
            **INLINE,
            "dies": [
                {
                    **INLINE["dies"][0],
                    "blocks": [{**INLINE["dies"][0]["blocks"][0], key: value}],
                }
            ],
        },
        st.sampled_from(["name", "transistors", "instances"]),
        json_values,
    )
)

FIELDS = {
    "evaluate": [
        "scenario", "n_chips", "capacity", "queue_weeks", "d0_scale",
        "wafer_rate_scale", "metrics",
    ],
    "mc": [
        "scenario", "samples", "seed", "n_chips", "variation",
        "queue_weeks", "capacity", "with_cost",
    ],
    "scenarios": [
        "scenario", "scenarios", "samples", "seed", "correlated", "n_chips",
        "variation", "queue_weeks", "capacity", "with_cost",
    ],
    "splits": [
        "pairs", "scenario", "n_chips", "refine", "with_cas",
    ],
}

VALID = {
    "evaluate": {"design": "a11"},
    "mc": {"design": "a11", "samples": 8},
    "scenarios": {"design": "a11", "samples": 8},
    "splits": {"pairs": [["7nm", "14nm"]]},
}


@st.composite
def arbitrary_bodies(draw):
    """A valid body with a few fields replaced by arbitrary JSON, or an
    arbitrary JSON value outright."""
    endpoint = draw(st.sampled_from(sorted(FIELDS)))
    if draw(st.integers(0, 9)) == 0:
        return endpoint, draw(json_values)
    body = dict(VALID[endpoint])
    if draw(st.booleans()):
        body["design"] = draw(design_values)
    for key in draw(st.lists(st.sampled_from(FIELDS[endpoint]), max_size=3)):
        body[key] = draw(json_values)
    return endpoint, body


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=arbitrary_bodies())
def test_parse_request_accepts_or_raises_bad_request(case):
    endpoint, body = case
    try:
        parse_request(STATE, endpoint, body)
    except BadRequestError:
        pass


@pytest.mark.parametrize(
    "endpoint,body",
    [
        ("evaluate", {"design": {"library": ["a"]}}),
        ("splits", {"design": {"library": ["a"]}, "pairs": [["7nm", "14nm"]]}),
        ("evaluate", {"design": {"dies": [{}]}}),
        ("evaluate", {"design": {"name": "x", "dies": [{"name": "d"}]}}),
        ("evaluate", {"design": {"name": "x", "dies": 5}}),
        ("evaluate", {"design": {"name": "x", "dies": ["die"]}}),
        ("mc", {"design": "a11", "scenario": "atlantis"}),
        ("splits", {"pairs": [["7nm", "14nm"]], "n_chips": -5}),
    ],
)
def test_poison_bodies_are_bad_requests(endpoint, body):
    with pytest.raises(BadRequestError):
        parse_request(STATE, endpoint, body)


# -- routing consistency ------------------------------------------------------

#: Small value pools (with int/float spellings of one value) so random
#: bodies often share a batcher group.
POOLS = {
    "design": ["a11", "zen2", "raven", {"library": "raven", "cores": 8}],
    "scenario": ["nominal", "shortage_2021"],
    "n_chips": [1e7, 10000000, 2e7],
    "capacity": [
        0.5, 1, 1.0, {"7nm": 0.5, "14nm": 1}, {"14nm": 0.2, "7nm": 1},
    ],
    "queue_weeks": [2, 2.0, 3.5],
    "d0_scale": [1, 1.2],
    "wafer_rate_scale": [0.5],
    "metrics": [["ttm"], ["cost", "ttm"]],
    "samples": [8, 16],
    "seed": [0, 1],
    "variation": [0.1, 0.2],
    "with_cost": [True, False],
    "correlated": [True, False],
    "scenarios": ["fab-outage", ["fab-outage"], "all"],
    "pairs": [[["7nm", "14nm"]], [["7nm", "28nm"]]],
    "refine": [True, False],
    "with_cas": [True, False],
}


@st.composite
def pooled_bodies(draw, endpoint):
    keys = ["design", *FIELDS[endpoint]]
    body = {
        key: draw(st.sampled_from(POOLS[key]))
        for key in draw(st.sets(st.sampled_from(keys)))
    }
    for key, value in VALID[endpoint].items():
        body.setdefault(key, value)
    return body


@settings(max_examples=60, deadline=None)
@given(data=st.data(), endpoint=st.sampled_from(sorted(FIELDS)))
def test_one_group_key_means_one_routing_key(data, endpoint):
    bodies = data.draw(
        st.lists(pooled_bodies(endpoint), min_size=2, max_size=8)
    )
    routes = {}
    for body in bodies:
        try:
            key, _ = parse_request(STATE, endpoint, body)
        except BadRequestError:
            continue
        route = routing_key(endpoint, json.dumps(body).encode())
        assert routes.setdefault(key, route) == route, body


@settings(max_examples=300, deadline=None)
@given(
    endpoint=st.sampled_from(["evaluate", "mc", "splits", "scenarios", "x"]),
    body=st.binary(max_size=64)
    | json_values.map(lambda value: json.dumps(value).encode()),
)
def test_routing_key_never_raises(endpoint, body):
    key = routing_key(endpoint, body)
    assert isinstance(key, bytes) and key == routing_key(endpoint, body)
