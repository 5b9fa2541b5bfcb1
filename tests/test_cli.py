"""Command-line shell: exit codes, manifests, fault injection."""

import json
import time

import numpy as np
import pytest

from wigflow import cli, harness
from wigflow.domains import msc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


def smoke_doc(out_dir, **experiments):
    exp = {"n_values": [64, 96], "trials": 2, "seed": 11, "run": ["lsc"]}
    exp.update(experiments)
    return {
        "density": {"kind": "standard-gaussian"},
        "path": {"n_steps": 40, "n_checkpoints": 9},
        "domain": {"n_im": 3, "n_re": 3},
        "experiments": exp,
        "output": {"dir": str(out_dir)},
    }


# --------------------------------------------------------- stub-verify


def test_stub_verify_passes_quickly(capsys):
    t0 = time.monotonic()
    assert cli.main(["stub-verify"]) == 0
    assert time.monotonic() - t0 < 5.0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("ok")]
    assert len(lines) == 8
    assert "FAIL" not in out


def test_stub_checks_step_count_sensitivity():
    by_name = {name: ok for name, ok, _detail in cli.stub_checks(n_steps=2)}
    # the stub characteristics are straight lines with constant drift, so
    # every integrator stage lands on the line and the formula checks pass
    # even with two steps; coarsening cannot provoke discretization error
    for name in ("gamma-line", "drift-constant", "lambda-endpoint",
                 "round-trip", "contraction"):
        assert by_name[name]
    # stop detection is the exception: a half-unit step overshoots far
    # below the real axis where the drift formula changes branch, so the
    # crossing is missed and a coarse integrator does fail verification
    assert not by_name["stop-time"]


def test_stub_verify_names_flipped_branch(monkeypatch, capsys):
    # the reciprocal is the other root of m^2 + zm + 1, so the fixed-point
    # check still passes and only branch-dependent checks can catch it
    monkeypatch.setattr(cli, "msc", lambda z: 1.0 / msc(z))
    assert cli.main(["stub-verify"]) == 4
    captured = capsys.readouterr()
    assert "msc-branch" in captured.err
    assert "FAIL msc-branch" in captured.out
    assert "Im m" in captured.out


def test_stub_verify_names_broken_drift(monkeypatch, capsys):
    # freeze the drift at its t = 0 value; curves bend off the line
    monkeypatch.setattr(cli, "frozen_semicircle_drift",
                        lambda t, w: -1.0 / np.asarray(w, dtype=complex))
    assert cli.main(["stub-verify"]) == 4
    captured = capsys.readouterr()
    assert "gamma-line" in captured.err


# ----------------------------------------------------------- calibrate


def test_calibrate_gaussian_exit0(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"density": {"kind": "standard-gaussian"},
                                   "output": {"dir": str(tmp_path / "out")}})
    assert cli.main(["calibrate", "--config", str(cfgp)]) == 0
    report = json.loads((tmp_path / "out" / "calibration.json").read_text())
    assert report["passed"] is True
    assert abs(report["a_sup"] - 1.0) <= 1e-8
    assert abs(report["integral_a_rho"] - 1.0) <= 1e-8
    # refuses to clobber the previous report without the flag
    assert cli.main(["calibrate", "--config", str(cfgp)]) == 1
    assert cli.main(["calibrate", "--config", str(cfgp), "--overwrite"]) == 0


def test_calibrate_laplace_exit2(tmp_path, capsys):
    h = np.linspace(-12.0, 12.0, 2001)
    rho = np.exp(-np.sqrt(2.0) * np.abs(h)) / np.sqrt(2.0)
    doc = {"density": {"kind": "tabulated", "grid_h": h.tolist(),
                       "grid_rho": rho.tolist()},
           "output": {"dir": str(tmp_path / "out")}}
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["calibrate", "--config", str(cfgp)]) == 2
    report = json.loads((tmp_path / "out" / "calibration.json").read_text())
    assert report["passed"] is False
    assert report["error"] == "UnboundedA"
    assert "UnboundedA" in capsys.readouterr().err


def test_calibrate_bad_density_exit1(tmp_path, capsys):
    cfgp = write_config(tmp_path, {"density": {"kind": "unobtainium"},
                                   "output": {"dir": str(tmp_path / "out")}})
    assert cli.main(["calibrate", "--config", str(cfgp)]) == 1


# ------------------------------------------------------- config errors


def test_malformed_json_exit1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", "--config", str(bad)]) == 1
    assert "malformed" in capsys.readouterr().err

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]", encoding="utf-8")
    assert cli.main(["run", "--config", str(arr)]) == 1


def test_missing_config_exit1(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_unknown_selector_exit1(tmp_path, capsys):
    cfgp = write_config(tmp_path, smoke_doc(tmp_path / "out"))
    code = cli.main(["run", "--config", str(cfgp), "--experiment", "nope"])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_no_command_exit1(capsys):
    assert cli.main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_output_key_exit1(tmp_path, capsys):
    doc = smoke_doc(tmp_path / "out")
    doc["output"]["dirr"] = "typo"
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfgp)]) == 1
    assert "dirr" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit1(tmp_path, capsys, threads):
    cfgp = write_config(tmp_path, smoke_doc(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfgp), "--threads", threads]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ------------------------------------------------------------ cmd_run


def test_run_all_manifest_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "out1"
    doc = smoke_doc(out1, char_im=0.5, senergy_times=2,
                    marginal_times=[0.5, 1.0])
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfgp), "--experiment", "all",
                     "--threads", "1"]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert set(manifest["experiments"]) == {"lsc", "characteristics",
                                            "marginal", "entrywise"}
    assert manifest["config_echo"] == cfgp.read_text(encoding="utf-8")
    assert manifest["seed"] == 11 and manifest["exit_code"] == 0
    for entry in manifest["experiments"].values():
        assert entry["status"] == "ok"
        for fname in entry["outputs"]:
            assert (out1 / fname).exists()

    # refuse a second run into the same directory without the flag
    assert cli.main(["run", "--config", str(cfgp), "--experiment", "all",
                     "--threads", "1"]) == 1

    out2 = tmp_path / "out2"
    assert cli.main(["run", "--config", str(cfgp), "--experiment", "all",
                     "--threads", "1", "--out", str(out2)]) == 0
    for fname in ("lsc-64-11.csv", "lsc-96-11.csv",
                  "characteristics-64-11.csv", "marginal-64-11.csv",
                  "entrywise-64-11.csv"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_run_single_selector_and_seed_override(tmp_path):
    doc = smoke_doc(tmp_path / "o1")
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfgp), "--experiment", "lsc",
                     "--threads", "1"]) == 0
    manifest = json.loads((tmp_path / "o1" / "manifest.json").read_text())
    assert list(manifest["experiments"]) == ["lsc"]
    assert (tmp_path / "o1" / "lsc-summary-11.json").exists()

    assert cli.main(["run", "--config", str(cfgp), "--experiment", "lsc",
                     "--threads", "1", "--seed", "12",
                     "--out", str(tmp_path / "o2")]) == 0
    manifest2 = json.loads((tmp_path / "o2" / "manifest.json").read_text())
    assert manifest2["seed"] == 12
    assert (tmp_path / "o2" / "lsc-64-12.csv").exists()
    a = (tmp_path / "o1" / "lsc-64-11.csv").read_bytes()
    b = (tmp_path / "o2" / "lsc-64-12.csv").read_bytes()
    assert a != b


def test_run_all_matches_single_experiment_runs(tmp_path, monkeypatch):
    doc = smoke_doc(tmp_path / "all", char_im=0.5, senergy_times=2,
                    marginal_times=[0.5, 1.0])
    cfgp = write_config(tmp_path, doc)
    # the marginal checkpoint near 0.5 is off the characteristics grid, so
    # the characteristics bytes show whether each experiment reads only
    # its own checkpoints of the shared path
    cfg = harness.ExperimentConfig.from_sections(doc)
    times = {name: exp.times(cfg) for name, exp in harness.EXPERIMENTS.items()}
    assert np.setdiff1d(times["marginal"], times["characteristics"]).size == 1
    calls = []
    real = harness.evolve

    def counting(cd, pc, *args, **kwargs):
        calls.append((pc.n, pc.trial))
        return real(cd, pc, *args, **kwargs)

    monkeypatch.setattr(harness, "evolve", counting)
    assert cli.main(["run", "--config", str(cfgp), "--experiment", "all",
                     "--threads", "1"]) == 0
    # one path integration per (N, trial), shared by the four experiments
    assert sorted(calls) == [(n, t) for n in (64, 96) for t in range(2)]

    single = tmp_path / "single"
    for name in harness.EXPERIMENT_NAMES:
        assert cli.main(["run", "--config", str(cfgp), "--experiment", name,
                         "--threads", "1", "--out", str(single / name)]) == 0
    names = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert len(names) == 2 * (1 + 1 + 1 + 3) + 4 + 1
    for fname in names:
        if fname == "manifest.json":
            continue
        owner = next(name for name in harness.EXPERIMENT_NAMES
                     if (single / name / fname).exists())
        assert ((tmp_path / "all" / fname).read_bytes()
                == (single / owner / fname).read_bytes()), fname


def test_run_inadmissible_density_exit2(tmp_path, capsys):
    # calibrates, but the Lipschitz estimate of a (about 144) exceeds 100
    doc = smoke_doc(tmp_path / "out")
    doc["density"] = {"kind": "gaussian-mixture", "weights": [0.99, 0.01],
                      "sigmas": [0.5, float(np.sqrt((1.0 - 0.99 * 0.25) / 0.01))]}
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfgp), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "lipschitz_ok" in err and "bounded_ok" not in err
    # the assumption is checked before anything is written
    assert not (tmp_path / "out").exists()


def test_run_all_trials_failed_exit3(tmp_path, monkeypatch, capsys):
    def broken(*_args, **_kwargs):
        raise FloatingPointError("synthetic path loss")

    monkeypatch.setattr(harness, "evolve", broken)
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, smoke_doc(out))
    code = cli.main(["run", "--config", str(cfgp), "--experiment", "all",
                     "--threads", "1"])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert set(manifest["experiments"]) == set(harness.EXPERIMENT_NAMES)
    listed = {"manifest.json"}
    for name, entry in manifest["experiments"].items():
        assert entry["status"] == "excess-failures"
        assert entry["failure_fraction"] == 1.0
        listed.update(entry["outputs"])
        summary = json.loads((out / f"{name}-summary-11.json").read_text())
        assert len(summary["failures"]) == 4
        assert summary["failures"][0]["message"] == "FloatingPointError: synthetic path loss"
    # the manifest lists exactly the files the run left
    assert listed == {p.name for p in out.iterdir()}


def test_run_excess_failures_exit3(tmp_path, monkeypatch):
    doc = smoke_doc(tmp_path / "out")
    doc["experiments"]["n_values"] = [64]
    cfgp = write_config(tmp_path, doc)
    real = harness.evolve

    def failing(cd, pc, *args, **kwargs):
        if pc.trial == 1:
            raise FloatingPointError("synthetic trial loss")
        return real(cd, pc, *args, **kwargs)

    monkeypatch.setattr(harness, "evolve", failing)
    code = cli.main(["run", "--config", str(cfgp), "--experiment", "lsc",
                     "--threads", "1"])
    assert code == 3
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    entry = manifest["experiments"]["lsc"]
    assert entry["status"] == "excess-failures"
    assert entry["failure_fraction"] == pytest.approx(0.5)
    assert manifest["exit_code"] == 3
