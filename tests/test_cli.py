"""Command-line surface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

from spdelab.cli import main
from spdelab.torus import field_from_json


def test_sum_bounds(tmp_path, capsys):
    rc = main(["sum-bounds", "--assert", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    doc = json.loads((tmp_path / "sum_bounds.json").read_text())
    assert doc["command"] == "sum-bounds"


def test_constants(tmp_path):
    rc = main(
        ["constants", "--eps", "1.0", "--N", "4", "--assert", "--out", str(tmp_path)]
    )
    assert rc == 0
    assert (tmp_path / "constants.csv").exists()
    doc = json.loads((tmp_path / "constants_manifest.json").read_text())
    assert all(ok for _, ok in doc["checks"])


def test_covariance(tmp_path):
    rc = main(
        [
            "covariance", "--eps", "0.5", "--N", "2", "--samples", "400",
            "--assert", "--out", str(tmp_path), "--seed", "5",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "covariance_report.json").read_text())
    assert doc["fraction_within"] >= 0.95


def test_hierarchy_zero_noise(tmp_path):
    rc = main(
        [
            "hierarchy", "--zero-noise", "--N", "3", "--T", "0.01",
            "--assert", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "hierarchy_manifest.json").read_text())
    es = doc["energies"]
    assert all(a >= b - 1e-12 for a, b in zip(es, es[1:]))
    final = field_from_json((tmp_path / "final_state.json").read_text())
    assert final.is_divergence_free(1e-10)


def test_hierarchy_stochastic(tmp_path):
    rc = main(
        [
            "hierarchy", "--N", "3", "--T", "0.01", "--eps", "1.0",
            "--mode", "approx", "--assert", "--out", str(tmp_path), "--seed", "3",
        ]
    )
    assert rc == 0


def test_linear_converge_small(tmp_path):
    rc = main(
        [
            "linear-converge", "--N", "6", "--samples", "24",
            "--out", str(tmp_path), "--seed", "11",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "linear_converge.json").read_text())
    assert len(doc["fit"]["values"]) == 3


def test_config_file_drives_scheme(tmp_path):
    cfg = {
        "scheme": {"f_kind": "galerkin", "eps": 1.0, "L0": 6.0, "h_kind": "indicator"},
        "experiment": {"eps_schedule": [1.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = main(
        [
            "constants", "--config", str(cfg_path), "--N", "4",
            "--assert", "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "constants_manifest.json").read_text())
    assert doc["scheme"]["f_kind"] == "galerkin"


def test_assert_flag_fails_on_bad_check(tmp_path, monkeypatch):
    import spdelab.cli as cli

    monkeypatch.setattr(
        cli, "exp_sum_bound",
        lambda *a, **k: (_ for _ in ()).throw(ValueError) if False else _bad_report(*a, **k),
    )
    rc = main(["sum-bounds", "--assert", "--out", str(tmp_path)])
    assert rc == 1


def _bad_report(l=2.0, m=2.0, N=24):
    if l + m - 3 <= 0:
        raise ValueError("rejected")
    from spdelab.experiments import SumBoundReport

    return SumBoundReport({"(1, 0, 0)": 1.0, "(4, 0, 0)": 5.0}, 5.0, 1.0)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(tmp_path, threads, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sum-bounds", "--threads", threads, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
