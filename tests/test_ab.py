"""The A/B script's summary and verdicts, on canned records."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


def records(metric, base, change):
    """One record per run; pair i has seed i on both sides."""
    return [{"revision": side[0], "side": side, "seed": i, "nproc": 2, "metric": metric,
             "value": v, "unit": "s"}
            for side, values in (("base", base), ("change", change))
            for i, v in enumerate(values)]


def verdict(metric, base, change):
    (row,) = ab.summarize(records(metric, base, change), METRICS)
    return row


def test_medians_iqr_and_change():
    row = verdict("items_per_s", [20, 22, 24, 26, 28], [30, 33, 36, 39, 42])
    assert row["base_median"] == 24 and row["change_median"] == 36
    assert row["base_iqr"] == pytest.approx(4.0)  # inclusive quartiles 22 and 26
    assert row["change"] == pytest.approx(0.5)
    assert (row["wins"], row["pairs"]) == (5, 5)
    assert row["verdict"] == "better"


def test_lower_is_better_for_times():
    row = verdict("wall_s", [2.0, 2.1, 2.0, 2.05], [1.5, 1.4, 1.5, 1.45])
    assert row["change"] == pytest.approx(1.475 / 2.025 - 1)
    assert row["verdict"] == "better"


def test_worse_beyond_bound():
    assert verdict("wall_s", [1.0, 1.02, 0.98], [1.4, 1.35, 1.45])["verdict"] == "worse"
    assert verdict("items_per_s", [40, 41, 39], [25, 26, 24])["verdict"] == "worse"


def test_within_bound_when_not_winning_nine_in_ten():
    row = verdict("wall_s", [1.0, 1.02, 0.98, 1.01], [0.95, 1.03, 0.99, 0.97])
    assert row["wins"] == 2 and row["verdict"] == "within bound"


def test_unresolved_when_base_spread_exceeds_bound():
    # base IQR 50 % of its median against a 25 % bound, runs overlapping
    assert verdict("wall_s", [1.0, 2.0, 1.5, 0.5, 2.5], [1.2, 1.8, 1.4, 1.0, 2.0])["verdict"] \
        == "unresolved"
    # unless every change run beats every base run
    assert verdict("wall_s", [1.0, 2.0, 1.5, 1.1, 2.5], [0.4, 0.5, 0.6, 0.45, 0.55])["verdict"] \
        == "better"


def test_metric_missing_on_one_side_is_skipped():
    recs = records("wall_s", [1.0], [])
    assert ab.summarize(recs, METRICS) == []
    assert "verdict" in ab.format_rows(ab.summarize(records("wall_s", [1.0], [0.9]), METRICS))
