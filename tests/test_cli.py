"""Command-line shell: exit codes, manifests, fault injection."""

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("output", [{"dirr": "typo"}, {"dir": 5}, {"dir": None}],
                         ids=["unknown-key", "int-dir", "null-dir"])
@pytest.mark.parametrize("command", ["run", "calibrate"])
def test_unknown_output_key_exit1(tmp_path, monkeypatch, capsys, command, output):
    # no --out: the output section alone names the directory, or fails
    monkeypatch.chdir(tmp_path)
    doc = smoke_doc(tmp_path / "out")
    doc["output"] = output
    cfgp = write_config(tmp_path, doc)
    assert cli.main([command, "--config", str(cfgp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert next(iter(output)) in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit1(tmp_path, capsys, threads):
    cfgp = write_config(tmp_path, smoke_doc(tmp_path / "out"))
    assert cli.main(["run", "--config", str(cfgp), "--threads", threads]) == 1
    assert "threads must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _corrupt(doc, section, key, value):
    if section is None:
        doc[key] = value
    elif key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    return doc


_BAD_VALUE = st.one_of(st.none(), st.text(max_size=3), st.lists(st.booleans(), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
# each draw breaks one thing a run config must get right
_MALFORMED = st.one_of(
    # a key no section knows (all names in this alphabet are unknown)
    st.tuples(st.sampled_from([None, "density", "path", "domain", "experiments", "output"]),
              st.text("xyzq_", min_size=1, max_size=6), st.integers()),
    # a section that is not an object
    st.tuples(st.sampled_from(["density", "path", "domain", "experiments", "output"]),
              st.none(), st.one_of(st.integers(), st.text(max_size=3),
                                   st.lists(st.integers(), max_size=2))),
    # a value of the wrong type
    st.tuples(st.just("experiments"), st.sampled_from(["n_values", "trials", "seed", "run",
                                                       "marginal_times", "char_im"]),
              _BAD_VALUE),
    st.tuples(st.just("path"), st.sampled_from(["n_steps", "t_init", "n_checkpoints"]),
              _BAD_VALUE),
    st.tuples(st.just("domain"), st.sampled_from(["theta", "W", "n_im", "n_re"]), _BAD_VALUE),
    st.tuples(st.just("density"), st.just("kind"), _BAD_VALUE),
    # a count that is not a whole number, a real that is not finite
    st.tuples(st.just("experiments"), st.sampled_from(["trials", "seed"]),
              st.integers(1, 9).map(lambda i: i + 0.5)),
    st.tuples(st.just("experiments"), st.just("n_values"),
              st.lists(st.integers(64, 99).map(lambda i: i + 0.5), min_size=1, max_size=2)),
    st.tuples(st.just("path"), st.sampled_from(["n_steps", "n_checkpoints"]),
              st.integers(5, 39).map(lambda i: i + 0.5)),
    st.tuples(st.sampled_from([("domain", "theta"), ("experiments", "char_im")]),
              st.sampled_from([float("nan"), float("inf"), float("-inf")])).map(
                  lambda pair: (*pair[0], pair[1])),
    # a value out of range
    st.tuples(st.just("experiments"), st.just("n_values"),
              st.lists(st.integers(-5, 31), min_size=1, max_size=3)),
    st.tuples(st.just("experiments"), st.just("trials"), st.integers(-3, 0)),
    st.tuples(st.just("experiments"), st.just("marginal_times"), st.just([])),
    # a repeated entry
    st.tuples(st.just("experiments"), st.just("n_values"),
              st.integers(64, 99).map(lambda n: [n, 96, n])),
    st.tuples(st.just("experiments"), st.just("marginal_times"),
              st.lists(st.floats(1.0, 9.0, exclude_min=True), min_size=1, max_size=2)),
    st.tuples(st.just("path"), st.just("n_checkpoints"), st.integers(-3, 1)),
    st.tuples(st.just("domain"), st.just("n_im"), st.integers(-3, 1)),
    st.tuples(st.just("density"), st.just("kind"), st.sampled_from(["", "gauss", "laplace"])),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_MALFORMED)
def test_malformed_run_configs_exit1_and_write_nothing(corruption):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        doc = _corrupt(smoke_doc(tmp / "unused"), *corruption)
        cfgp = write_config(tmp, doc)
        out = tmp / "out"
        assert cli.main(["run", "--config", str(cfgp), "--out", str(out),
                         "--threads", "1"]) == 1
        assert not out.exists()
        # calibrate validates the whole config as run does
        assert cli.main(["calibrate", "--config", str(cfgp), "--out", str(out)]) == 1
        assert not out.exists()


# ------------------------------------------------------------ cmd_run


def test_run_manifest_counts_released_and_replayed_matrices(tmp_path, monkeypatch):
    # the manifest's telemetry totals the matrices each path released once its
    # trace tables existed, those integrated again, and the table jobs the
    # integrating thread ran; the lane count changes none of the outputs
    doc = smoke_doc(tmp_path / "unused", run=["characteristics"], senergy_times=2)
    cfgp = write_config(tmp_path, doc)
    outputs = {}
    for lanes in (1, 2):
        monkeypatch.setattr(harness, "spectral_lanes", lambda processes, _lanes=lanes: _lanes)
        out = tmp_path / f"lanes{lanes}"
        assert cli.main(["run", "--config", str(cfgp), "--threads", "1",
                         "--out", str(out)]) == 0
        telemetry = json.loads((out / "manifest.json").read_text())["telemetry"]
        outputs[lanes] = {p.name: p.read_bytes() for p in out.iterdir()
                          if p.name != "manifest.json"}
        cfg = harness.ExperimentConfig.from_sections(doc)
        exp = harness.EXPERIMENTS["characteristics"]
        times = exp.times(cfg)
        paths = len(cfg.n_values) * cfg.trials
        released = len(times) - len(exp.matrices(cfg, times))
        assert set(telemetry) == {"sde_clamps", "matrices_released", "matrices_replayed",
                                  "caller_table_jobs", "failures", "calibrate_s",
                                  "trials_s", "reduce_s", "write_s"}
        assert telemetry["matrices_released"] == paths * released > 0
        assert telemetry["matrices_replayed"] == 0
        jobs = telemetry["caller_table_jobs"]
        assert jobs == 2 * paths * len(times) if lanes == 1 else 0 <= jobs <= 2 * paths * len(times)
    assert outputs[1] == outputs[2] and len(outputs[1]) == 3 * 2 + 1   # tables x N, summary


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
    telemetry = manifest["telemetry"]
    assert telemetry.pop("matrices_released") > 0 and telemetry.pop("caller_table_jobs") >= 0
    # phase wall times: present, finite and >= 0, one reduce per experiment
    reduce_s = telemetry.pop("reduce_s")
    assert set(reduce_s) == set(manifest["experiments"])
    for secs in [*reduce_s.values()] + [telemetry.pop(k) for k in
                                        ("trials_s", "calibrate_s", "write_s")]:
        assert np.isfinite(secs) and secs >= 0
    assert telemetry == {"sde_clamps": 0, "matrices_replayed": 0, "failures": {
        name: [] for name in manifest["experiments"]}}
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


def test_run_threads_default_to_affinity(tmp_path):
    # a process limited to one CPU starts one trial process by default,
    # however many cores the host has
    out = tmp_path / "out"
    cfgp = write_config(tmp_path, smoke_doc(out))
    child = ("import os, sys\n"
             "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
             "from wigflow.cli import main\n"
             "sys.exit(main(sys.argv[1:]))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src)] + sys.path)}
    res = subprocess.run([sys.executable, "-c", child, "run", "--config", str(cfgp)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == 1
    assert manifest["environment"]["affinity"] == 1


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
        assert summary["failures"][0] == {
            "n": 64, "trial": 0, "message": "FloatingPointError: synthetic path loss"}
        # the manifest keeps each failure's full traceback
        failed = manifest["telemetry"]["failures"][name]
        assert [(f["n"], f["trial"]) for f in failed] == [(n, t) for n in (64, 96)
                                                          for t in range(2)]
        for f in failed:
            assert f["traceback"].startswith("Traceback (most recent call last)")
            assert "in broken" in f["traceback"]
            assert f["traceback"].endswith("FloatingPointError: synthetic path loss\n")
    assert manifest["telemetry"]["sde_clamps"] == 0
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


def test_run_lsc_two_point_grid_writes_null_fit(tmp_path):
    # one N and two Im levels pass validation but give the slope fit two
    # points: the fit is null, and the run completes
    doc = smoke_doc(tmp_path / "out", n_values=[64], trials=1)
    doc["domain"]["n_im"] = 2
    cfgp = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", str(cfgp), "--threads", "1"]) == 0
    out = tmp_path / "out"
    summary = json.loads((out / "lsc-summary-11.json").read_text())
    assert summary["fit"] is None
    assert len(summary["sup_table"]) == 2 and summary["failures"] == []
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["experiments"]["lsc"]["outputs"] == ["lsc-64-11.csv",
                                                        "lsc-summary-11.json"]
