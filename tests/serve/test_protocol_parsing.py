"""Request parsing rejects bad seeds, coerced flags and non-finite numbers.

Each of these inputs used to get past the parser: a negative seed failed
later inside ``SeedSequence`` (a 500), the string ``"false"`` was a true
flag, and ``Infinity``/``NaN`` reached the engine. All of them are client
mistakes and must be 400s raised at parse time.
"""

import math

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
