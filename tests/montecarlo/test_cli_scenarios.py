"""``ttm-cas mc --scenarios`` end-to-end: the stress-suite report."""

import json

import pytest

from repro.cli import main


class TestMcScenariosCommand:
    def test_emits_cvar_and_exceedance_tables(self, capsys):
        code = main(
            [
                "mc",
                "--design", "a11",
                "--samples", "32",
                "--scenarios", "baseline,fab-outage:severe",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Scenario stress suite" in out
        assert "CVaR ladder" in out
        assert "exceedance vs the baseline world" in out
        for metric in ("ttm_weeks", "cas", "cost_per_chip_usd"):
            assert metric in out
        for row in ("baseline", "fab-outage:severe"):
            assert row in out

    def test_json_output_covers_every_scenario(self, capsys):
        code = main(
            [
                "mc",
                "--design", "a11",
                "--samples", "32",
                "--scenarios", "logistics",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        text = json.dumps(payload)
        for severity in ("mild", "moderate", "severe", "extreme"):
            assert f"logistics:{severity}" in text

    def test_unknown_selector_fails_cleanly(self, capsys):
        code = main(
            ["mc", "--design", "a11", "--scenarios", "meteor-strike"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown stress scenario" in captured.err


@pytest.mark.parametrize("selector", ((), ("--scenarios", "all")))
def test_negative_seed_is_one_error_line(capsys, selector):
    # Regression: ``--seed -1`` ended in a NumPy ValueError traceback.
    code = main(
        ["mc", "--design", "a11", "--samples", "16", "--seed", "-1", *selector]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip().splitlines() == [
        "seed must be a non-negative integer, got -1"
    ]
