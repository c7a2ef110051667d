"""The A/B script's summary and verdicts, on canned records."""

import importlib.util
import json
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


@pytest.fixture
def fake_checkout(tmp_path, monkeypatch):
    """`ab.main` on a temporary root with git and the benchmark runs faked:
    no subprocess starts.  Returns the root and the git calls made."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    calls = []

    def git(*args):
        calls.append(args)
        return {"rev-parse": "abc1234", "describe": "abc1234-dirty"}[args[0]]

    def run(tree, workload, seed, seconds):
        value = 1.0 if tree == tmp_path else 2.0
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "_git", git)
    monkeypatch.setattr(ab, "_export", lambda rev, dest: None)
    monkeypatch.setattr(ab, "_run", run)
    return tmp_path, calls


def bench_records(root, workload="w"):
    return json.loads((root / f"BENCH_{workload}.json").read_text())


def test_change_label_reaches_the_records(fake_checkout):
    root, calls = fake_checkout
    argv = ["--base", "HEAD~1", "--workload", "w", "--pairs", "2", "--seconds", "1"]
    assert ab.main(argv + ["--change-label", "f00dcafe"]) == 0
    recs = bench_records(root)
    assert {(r["side"], r["revision"]) for r in recs} == {("base", "abc1234"), ("change", "f00dcafe")}
    assert [r["seed"] for r in recs if r["side"] == "change"] == [1, 2]
    assert all(args[0] != "describe" for args in calls)


def test_change_side_defaults_to_git_describe(fake_checkout):
    root, calls = fake_checkout
    assert ab.main(["--base", "HEAD~1", "--workload", "w", "--pairs", "1", "--seconds", "1"]) == 0
    assert {r["revision"] for r in bench_records(root) if r["side"] == "change"} == {"abc1234-dirty"}
    assert ("describe", "--always", "--dirty") in calls
