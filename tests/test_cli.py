"""Command-line surface: subcommands, outputs, exit codes."""

import csv
import json

import numpy as np
import pytest
import scipy

import spdelab
from spdelab.cli import main
from spdelab.experiments import exp_constants_table
from spdelab.schemes import SchemeSpec
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


def test_constants_eps_and_N_set_the_table(tmp_path):
    rc = main(["constants", "--eps", "1.0", "--N", "3", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "constants.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    want = exp_constants_table((1.0,), SchemeSpec(eps=1.0), t=1.0, lattice_N=3)
    assert len(written) == len(want) and all(float(r["eps"]) == 1.0 for r in written)
    for got, row in zip(written, want):  # csv writes str(v), the repr of a float
        assert {k: v for k, v in got.items() if v != ""} == {k: str(v) for k, v in row.items()}
    doc = json.loads((tmp_path / "constants_manifest.json").read_text())
    assert doc["N"] == 3 and doc["eps_schedule"] == [1.0]


def test_constants_checks_read_the_written_rows(tmp_path, monkeypatch, capsys):
    import spdelab.cli as cli

    row = {"family": "tC1,u", "i": 0, "i1": 0, "j": 0, "eps": 1.0, "t": 1.0,
           "value": 0.0, "imag_residue": 0.0, "bar_value": 1.0}
    monkeypatch.setattr(cli, "exp_constants_table", lambda *a, **k: [row])
    rc = main(["constants", "--eps", "1.0", "--N", "3", "--assert", "--out", str(tmp_path)])
    assert rc == 1
    assert "[FAIL] barred constants vanish (1.00e+00)" in capsys.readouterr().out


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


def test_second_chaos_manifest_records_timings_and_mean_zero(tmp_path):
    rc = main(
        [
            "second-chaos", "--N", "4", "--samples", "4",
            "--out", str(tmp_path), "--seed", "11",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "second_chaos.json").read_text())
    eps = doc["spec"]["eps_schedule"]
    timings = doc["timings"]
    assert timings["eps"] == eps
    for key in ("sample_s", "mean_zero_s", "samples_per_s"):
        assert len(timings[key]) == len(eps) and all(v > 0 for v in timings[key])
    for t, rate in zip(timings["sample_s"], timings["samples_per_s"]):
        assert rate == pytest.approx(4 / t)
    assert doc["wick_mean_zero_threshold"] == 5.0  # three eps
    assert 0 < doc["wick_mean_zero_sigmas"]
    mean_zero = [ok for name, ok in doc["checks"] if name.startswith("wick mean zero")]
    assert mean_zero == [doc["wick_mean_zero_sigmas"] <= 5.0]


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["linear-converge", "--N", "0"], "--N"),
        (["second-chaos", "--N", "-2"], "--N"),
        (["hierarchy", "--N", "0"], "--N"),
        (["constants", "--N", "0"], "--N"),
        (["covariance", "--N", "0"], "--N"),
        (["linear-converge", "--samples", "0"], "--samples"),
        (["second-chaos", "--samples", "1"], "--samples"),
        (["covariance", "--samples", "1"], "--samples"),
        (["hierarchy", "--eps", "nan"], "--eps"),
        (["constants", "--eps", "0"], "--eps"),
        (["covariance", "--eps", "inf"], "--eps"),
        (["hierarchy", "--dt", "-1"], "--dt"),
        (["covariance", "--dt", "-1"], "--dt"),
        (["hierarchy", "--T", "0"], "--T"),
        (["hierarchy", "--T", "inf"], "--T"),
        (["constants", "--t", "-1"], "--t"),
        (["constants", "--t", "nan"], "--t"),
        (["linear-converge", "--seed", "-1"], "--seed"),
        (["covariance", "--seed", "-1"], "--seed"),
        (["hierarchy", "--seed", "-1"], "--seed"),
    ],
)
def test_bad_sizes_rejected(tmp_path, argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{not json", "\udcff"])
def test_unreadable_config_rejected(tmp_path, text, capsys):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text, errors="surrogateescape")  # "\udcff" writes a byte that is not UTF-8
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [[1, 2], {"scheme": 3}, {"experiment": []}, "text", None])
def test_config_of_wrong_shape_rejected(tmp_path, doc, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert not out.exists()


def test_table_kind_without_table_named(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scheme": {"f_kind": "table"}}))
    with pytest.raises(ValueError, match="f_table"):
        main(["constants", "--config", str(cfg), "--out", str(tmp_path / "out")])


def _fake_burgers(spec):
    from spdelab.experiments import BurgersResult, RateFit

    return BurgersResult(RateFit(1.0, 0.0, 0.0, [0.1, 0.05], [1e-2, 5e-3], [0.0, 0.0]), 0.0)


@pytest.mark.parametrize(
    "argv, manifest",
    [
        (["constants", "--eps", "1.0", "--N", "4"], "constants_manifest.json"),
        (["covariance", "--eps", "0.5", "--N", "2", "--samples", "400"], "covariance_report.json"),
        (["linear-converge", "--N", "2", "--samples", "4"], "linear_converge.json"),
        (["second-chaos", "--N", "4", "--samples", "4"], "second_chaos.json"),
        (["burgers"], "burgers.json"),
        (["hierarchy", "--zero-noise", "--N", "3", "--T", "0.01"], "hierarchy_manifest.json"),
        (["sum-bounds"], "sum_bounds.json"),
    ],
)
def test_one_writer_for_every_manifest(tmp_path, monkeypatch, argv, manifest):
    import spdelab.cli as cli

    monkeypatch.setattr(cli, "exp_burgers", _fake_burgers)  # the real one takes ~10 s
    add = cli.Checks.add
    monkeypatch.setattr(cli.Checks, "add", lambda self, name, ok: add(self, name, False))
    argv = argv + ["--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == 0  # without --assert a failed check does not set the exit code
    assert main(argv + ["--assert"]) == 1
    doc = json.loads((tmp_path / manifest).read_text())
    assert doc["command"] == argv[0]
    assert doc["checks"] and not any(ok for _, ok in doc["checks"])
    prov = doc["provenance"]
    assert prov["argv"] == argv + ["--assert"] and prov["seed"] == 7 and prov["wall_s"] > 0
    assert prov["version"] == spdelab.__version__
    assert prov["numpy"] == np.__version__ and prov["scipy"] == scipy.__version__
    assert prov["git"] is None or isinstance(prov["git"], str)


def test_non_integer_size_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["linear-converge", "--N", "abc", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_log_level_info_shows_progress(tmp_path, capsys):
    argv = ["linear-converge", "--N", "2", "--samples", "4", "--out", str(tmp_path)]
    assert main(argv + ["--log-level", "info"]) == 0
    assert "linear eps=" in capsys.readouterr().err
    assert main(argv) == 0
    assert "linear eps=" not in capsys.readouterr().err
