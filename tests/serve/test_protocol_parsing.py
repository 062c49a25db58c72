"""Request parsing rejects bad seeds, coerced flags and non-finite numbers.

Each of these inputs used to get past the parser: a negative seed failed
later inside ``SeedSequence`` (a 500), the string ``"false"`` was a true
flag, and ``Infinity``/``NaN`` reached the engine. All of them are client
mistakes and must be 400s raised at parse time. A finite input whose
result overflows (``n_chips: 1e300``) is a 400 too, for that request only:
JSON has no ``Infinity`` to answer with.
"""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.protocol import BadRequestError, ServeState, parse_request


@pytest.fixture(scope="module")
def state():
    return ServeState()


SPLITS = {"pairs": [["7nm", "14nm"]]}


class TestSeeds:
    @pytest.mark.parametrize("endpoint", ["mc", "scenarios"])
    def test_negative_seed_rejected(self, state, endpoint):
        with pytest.raises(BadRequestError, match="'seed' must be >= 0"):
            parse_request(state, endpoint, {"design": "a11", "seed": -1})

    @pytest.mark.parametrize("endpoint", ["mc", "scenarios"])
    def test_zero_and_positive_seeds_accepted(self, state, endpoint):
        for seed in (0, 7, 2**70):
            _, payload = parse_request(
                state, endpoint, {"design": "a11", "seed": seed}
            )
            assert payload["seed"] == seed


class TestBooleanFlags:
    @pytest.mark.parametrize(
        "endpoint,field",
        [
            ("mc", "with_cost"),
            ("scenarios", "with_cost"),
            ("scenarios", "correlated"),
            ("splits", "refine"),
            ("splits", "with_cas"),
        ],
    )
    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, [True]])
    def test_non_boolean_rejected(self, state, endpoint, field, value):
        body = dict(SPLITS if endpoint == "splits" else {"design": "a11"})
        body[field] = value
        with pytest.raises(BadRequestError, match="must be true or false"):
            parse_request(state, endpoint, body)

    def test_json_booleans_kept(self, state):
        _, payload = parse_request(
            state, "splits", dict(SPLITS, refine=True, with_cas=False)
        )
        assert payload["refine"] is True
        assert payload["with_cas"] is False
        _, payload = parse_request(
            state, "mc", {"design": "a11", "with_cost": False}
        )
        assert payload["with_cost"] is False


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
    @pytest.mark.parametrize(
        "endpoint,field",
        [
            ("evaluate", "d0_scale"),
            ("evaluate", "n_chips"),
            ("evaluate", "queue_weeks"),
            ("evaluate", "wafer_rate_scale"),
            ("evaluate", "capacity"),
            ("mc", "variation"),
            ("scenarios", "capacity"),
            ("splits", "n_chips"),
        ],
    )
    def test_rejected(self, state, endpoint, field, value):
        body = dict(SPLITS if endpoint == "splits" else {"design": "a11"})
        body[field] = value
        with pytest.raises(BadRequestError, match="must be finite"):
            parse_request(state, endpoint, body)

    def test_capacity_mapping_rejected(self, state):
        with pytest.raises(BadRequestError, match="must be finite"):
            parse_request(
                state,
                "evaluate",
                {"design": "a11", "capacity": {"7nm": math.inf}},
            )

    def test_finite_numbers_accepted(self, state):
        _, payload = parse_request(
            state, "evaluate", {"design": "a11", "d0_scale": 1.5}
        )
        assert payload["request"].d0_scale == 1.5


def test_negative_seed_is_400_on_the_wire(client):
    response = client.post("/mc", {"design": "a11", "seed": -1})
    assert response.status == 400
    assert "seed" in response.json()["error"]["message"]


def _strict_json(body):
    """``json.loads`` that refuses the non-standard NaN/Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(body, parse_constant=refuse)


@pytest.mark.parametrize(
    "path,body",
    [
        ("/evaluate", {"design": "a11", "n_chips": 1e300}),
        ("/splits", {"pairs": [["28nm", "40nm"]], "n_chips": 1e300}),
    ],
    ids=["evaluate", "splits"],
)
def test_overflowing_result_is_a_structured_400(client, path, body):
    # Regression: these answered 200 with a bare ``Infinity`` in the body.
    response = client.post(path, body)
    assert response.status == 400
    assert _strict_json(response.body)["error"]["code"] == "non_finite_result"


def test_overflowing_request_leaves_its_batch_mates_untouched(serve_factory):
    server = serve_factory.server(batch_window_ms=200.0, max_batch=32)
    client = serve_factory.client(server)
    good = {"design": "a11", "n_chips": 1e7}
    bad = {"design": "a11", "n_chips": 1e300}
    solo = client.post("/evaluate", good)
    assert solo.status == 200
    bodies = [good, bad, good, bad]
    with ThreadPoolExecutor(max_workers=len(bodies)) as pool:
        responses = list(
            pool.map(lambda body: client.post("/evaluate", body), bodies)
        )
    for body, response in zip(bodies, responses):
        if body is good:
            assert response.status == 200
            assert response.batch_size > 1
            assert response.body == solo.body
        else:
            assert response.status == 400
            assert response.error_code == "non_finite_result"
