"""Experiment orchestration: fits, configs, reports, determinism."""

import csv
import filecmp
import itertools
import sys
import threading
import weakref
from dataclasses import replace

import numpy as np
import pytest

from wigflow.density import DensitySpec, calibrate
from wigflow.domains import SpectralDomain, msc
from wigflow import flows, harness
from wigflow import resolvent as resolvent_module
from wigflow.harness import (COLUMNS, ConfigError, DegenerateFit,
                             EmptySample, ExperimentConfig, TrialFailure,
                             aggregate_lsc, domination_quantile,
                             failure_fraction, fit_scaling,
                             nearest_schedule_times, run_entrywise,
                             run_experiments, write_report_csv)
from wigflow.flows import PathTraceEvaluator, SpectralLanes
from wigflow.martingale import evolve, geometric_uniform_schedule
from wigflow.resolvent import EigenResolvent, self_energy_error


def small_config(**kw):
    base = dict(density=DensitySpec.gaussian(), n_values=(64,), trials=3,
                base_seed=42, n_steps=40, n_checkpoints=9, n_im=4, n_re=3)
    base.update(kw)
    return ExperimentConfig(**base)


def run_one(cfg, name):
    return run_experiments(replace(cfg, experiments=(name,)))[name]


# ---------------------------------------------------------------- fits


def test_fit_scaling_exact_power_law():
    x = np.array([10.0, 20.0, 40.0, 80.0, 160.0])
    fit = fit_scaling(x, 3.0 * x ** -0.5)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.stderr <= 1e-8
    assert fit.n_points == 5


def test_fit_scaling_constant():
    fit = fit_scaling([1.0, 2.0, 4.0, 8.0], [2.5, 2.5, 2.5, 2.5])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_with_noise():
    gen = np.random.Generator(np.random.Philox(123))
    x = np.geomspace(10, 1e4, 40)
    y = 2.0 * x ** -0.5 * (1.0 + 0.05 * gen.standard_normal(40))
    fit = fit_scaling(x, y)
    assert abs(fit.slope + 0.5) <= 0.05
    assert fit.ci95[0] <= fit.slope <= fit.ci95[1]


def test_fit_scaling_degenerate():
    with pytest.raises(DegenerateFit):
        fit_scaling([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateFit):
        fit_scaling([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_scaling([1.0, -2.0, 3.0], [1.0, 2.0, 3.0])


def test_domination_quantile():
    assert domination_quantile(np.ones(50), 0.95, 500) == 0.0
    ratios = np.full(40, 500.0 ** 0.1)
    assert domination_quantile(ratios, 0.95, 500) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(EmptySample):
        domination_quantile([], 0.95, 500)
    with pytest.raises(ValueError):
        domination_quantile([1.0, -1.0], 0.95, 500)
    with pytest.raises(DegenerateFit):
        domination_quantile(np.zeros(10), 0.95, 500)
    with pytest.raises(ValueError):
        domination_quantile([1.0], 1.5, 500)
    with pytest.raises(ValueError):
        domination_quantile([1.0], 0.95, 1)


# -------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        small_config(n_values=(16,))
    with pytest.raises(ConfigError):
        small_config(trials=0)
    with pytest.raises(ConfigError):
        small_config(experiments=("lsc", "nope"))
    # a repeated N or experiment would run its trials twice
    with pytest.raises(ConfigError, match="n_values repeats"):
        small_config(n_values=(48, 48))
    with pytest.raises(ConfigError, match="experiments repeats"):
        small_config(experiments=("lsc", "marginal", "lsc"))
    with pytest.raises(ConfigError):
        small_config(char_im=2.0)
    with pytest.raises(ConfigError):
        small_config(marginal_times=(0.0,))
    with pytest.raises(ConfigError):
        small_config(n_checkpoints=1)
    with pytest.raises(ConfigError):
        small_config(W=(-1.9, 1.9))   # outside the bulk margin
    # the time schedule is built once at parse time
    for bad in ({"t_switch": 1e-4}, {"n_steps": 1, "n_checkpoints": 2},
                {"geometric_frac": 1.0}, {"t_init": 0.0}):
        with pytest.raises(ConfigError):
            small_config(**bad)


def test_config_from_sections():
    doc = {
        "density": {"kind": "standard-gaussian"},
        "path": {"n_steps": 50, "n_checkpoints": 6},
        "domain": {"theta": 0.5, "W": [-1.0, 1.0], "n_im": 4, "n_re": 3},
        "experiments": {"n_values": [64, 128], "trials": 2, "seed": 7,
                        "run": ["lsc", "marginal"]},
        "output": {"dir": "out"},
    }
    cfg = ExperimentConfig.from_sections(doc)
    assert cfg.n_values == (64, 128) and cfg.trials == 2
    assert cfg.base_seed == 7 and cfg.W == (-1.0, 1.0)
    assert cfg.n_steps == 50 and cfg.experiments == ("lsc", "marginal")

    with pytest.raises(ConfigError):
        ExperimentConfig.from_sections({"density": {"kind": "standard-gaussian"},
                                        "typo_section": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sections({"density": {"kind": "standard-gaussian"},
                                        "path": {"nsteps": 9}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sections({"path": {}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sections({"density": {"kind": "unobtainium"}})
    # keys of another density kind are rejected, not ignored
    for density in ({"kind": "standard-gaussian", "weights": [0.3, 0.7], "sigmas": [1, 2]},
                    {"kind": "gaussian-mixture", "weights": [1.0], "sigmas": [1.0],
                     "grid_h": [0.0]}):
        with pytest.raises(ConfigError, match="do not belong"):
            ExperimentConfig.from_sections({"density": density})
    for density in ("standard-gaussian", []):
        with pytest.raises(ConfigError, match="expected an object"):
            ExperimentConfig.from_sections({"density": density})
    # ode_tolerance drove nothing and is no longer a key
    with pytest.raises(ConfigError):
        ExperimentConfig.from_sections({"density": {"kind": "standard-gaussian"},
                                        "experiments": {"ode_tolerance": 1e-6}})


def test_nearest_schedule_times():
    sched = geometric_uniform_schedule(n_steps=100)
    got = nearest_schedule_times(sched, [0.25, 1.0, 0.999])
    assert got == sorted(set(got))
    assert all(t in sched for t in got)
    assert got[-1] == 1.0
    assert abs(got[0] - 0.25) <= (sched[1:] - sched[:-1]).max()


# ------------------------------------------------------------- reports


def test_run_lsc_smoke_and_determinism():
    cfg = small_config()
    rep = run_one(cfg, "lsc")
    rows = rep.rows["lsc"]
    assert len(rows) == cfg.trials * cfg.n_im * cfg.n_re
    assert not rep.failures
    assert np.isfinite(rep.stats["fit"]["slope"])
    assert set(r[0] for r in rows) == {64}
    per_n = rep.stats["per_n"]
    assert "64" in per_n and per_n["64"]["observations"] == len(rows)
    assert len(rep.stats["sup_table"]) == cfg.n_im
    again = run_one(cfg, "lsc")
    assert again.rows == rep.rows
    assert again.stats["fit"] == rep.stats["fit"]


def test_aggregate_lsc_reduction():
    # two trials, one N, three Im levels x two Re points, hand-checkable
    rows = [
        (100, 0, -1.0, 0.1, 0.30, 1.0), (100, 0, 1.0, 0.1, 0.10, 1.0),
        (100, 0, -1.0, 0.5, 0.06, 1.0), (100, 0, 1.0, 0.5, 0.05, 1.0),
        (100, 0, -1.0, 1.0, 0.02, 1.0), (100, 0, 1.0, 1.0, 0.01, 1.0),
        (100, 1, -1.0, 0.1, 0.40, 1.0), (100, 1, 1.0, 0.1, 0.20, 1.0),
        (100, 1, -1.0, 0.5, 0.10, 1.0), (100, 1, 1.0, 0.5, 0.07, 1.0),
        (100, 1, -1.0, 1.0, 0.04, 1.0), (100, 1, 1.0, 1.0, 0.03, 1.0),
    ]
    sup_table, per_n, fit = aggregate_lsc(rows, trials=2)
    by_im = {im: sup for (_n, im, sup, _norm) in sup_table}
    assert by_im[0.1] == pytest.approx(0.35)   # median(0.3, 0.4)
    assert by_im[0.5] == pytest.approx(0.08)   # sup(median 0.08, median 0.06)
    assert by_im[1.0] == pytest.approx(0.03)   # median(0.02, 0.04)
    assert per_n[100]["sup"] == pytest.approx(0.35)
    # independent least-squares oracle for the log-log slope
    want = np.polyfit(np.log([10.0, 50.0, 100.0]), np.log([0.35, 0.08, 0.03]), 1)[0]
    assert fit.slope == pytest.approx(want, abs=1e-10)


def test_run_marginal_smoke():
    cfg = small_config(trials=2, marginal_times=(0.5, 1.0))
    rows = run_one(cfg, "marginal").rows["marginal"]
    assert len(rows) == 2
    per_entry = 64 * 65 // 2
    for n, t, pooled, stat, p, rej in rows:
        assert n == 64 and pooled == 2 * per_entry
        assert 0.0 <= stat <= 1.0 and 0.0 <= p <= 1.0
        assert rej == int(p < 0.01)
    # gaussian entries are exact at every time; this seed must not reject
    assert all(r[5] == 0 for r in rows)


def test_run_entrywise_diagonal_matrix():
    dom = SpectralDomain(n=64)
    H = np.diag(np.linspace(-1.0, 1.0, 64))
    rep = run_entrywise(EigenResolvent(H), dom, n_im=3, n_re=3)
    assert rep.max_offdiag == 0.0
    assert len(rep.rows) == 9
    assert rep.max_diag_err > 0.0


def test_run_entrywise_zero_matrix_closed_form():
    dom = SpectralDomain(n=50)
    rep = run_entrywise(EigenResolvent(np.zeros((50, 50))), dom, n_im=3, n_re=3)
    worst = 0.0
    for re, im, diag_err, off, schur in rep.rows:
        z = re + 1j * im
        m = msc(z)
        assert off == 0.0
        assert diag_err == pytest.approx(abs(-1.0 / z - m), rel=1e-12)
        norm = np.sqrt((1.0 + m.imag) / (50 * im))
        assert schur == pytest.approx(abs(m) / norm, rel=1e-12)
        worst = max(worst, schur)
    assert rep.max_schur_residual == pytest.approx(worst, rel=1e-12)


def test_run_entrywise_sweep_smoke():
    cfg = small_config(trials=2)
    rep = run_one(cfg, "entrywise")
    assert len(rep.rows["entrywise"]) == 2 * cfg.n_im * cfg.n_re
    fits = rep.stats["fits"]
    for name in ("diag", "offdiag", "schur"):
        assert fits[name] is not None
        assert np.isfinite(fits[name]["slope"])
    assert run_one(cfg, "entrywise").rows == rep.rows


def test_run_characteristic_smoke():
    cfg = small_config(trials=2, n_steps=60, n_checkpoints=11, n_re=5,
                       n_im=3, char_im=0.5, senergy_times=3)
    rep = run_one(cfg, "characteristics")
    map_rows = rep.rows["characteristics"]
    assert len(map_rows) == 2 * 5
    assert len(rep.rows["characteristics_pairs"]) == 2 * 4
    cols = dict(zip(COLUMNS["characteristics"], range(len(COLUMNS["characteristics"]))))
    for r in map_rows:
        assert r[cols["in_D0"]] == 1
        assert r[cols["map_residual"]] < 1.0
        assert r[cols["roundtrip_err"]] < 0.2
    agg = rep.stats["per_n"]["64"]
    assert np.isfinite(agg["drift_ratio_q95"])
    assert agg["contraction_worst"] <= 1.05
    assert agg["contraction_violations"] == 0
    assert "senergy_eps_hat" in agg
    endpoint_rows = [r for r in rep.rows["characteristics_senergy"] if r[2] == 1.0]
    assert len(endpoint_rows) == 2 * cfg.n_im * cfg.n_re
    again = run_one(cfg, "characteristics")
    # tau is nan for unstopped curves, so compare the printed form
    assert repr(again.rows["characteristics"]) == repr(map_rows)


def test_trial_failures_counted():
    rep_like = run_one(small_config(trials=2), "lsc")
    rep_like.failures = [TrialFailure(64, 1, "boom")]
    assert failure_fraction(rep_like) == pytest.approx(0.5)


def test_csv_written_and_byte_identical_across_pool_sizes(tmp_path):
    cfg = small_config(trials=4, n_steps=30)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    paths1 = write_report_csv(run_one(cfg, "lsc"), d1)
    paths2 = write_report_csv(run_one(replace(cfg, threads=2), "lsc"), d2)
    assert [p.split("/")[-1] for p in paths1] == ["lsc-64-42.csv"]
    assert filecmp.cmp(paths1[0], paths2[0], shallow=False)

    with open(paths1[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(("n", "trial", "re_z", "im_z", "abs_err", "normalizer"))
    assert len(rows) - 1 == 4 * cfg.n_im * cfg.n_re
    # repr round-trips every float exactly
    rep = run_one(cfg, "lsc")
    assert float(rows[1][4]) == rep.rows["lsc"][0][4]


def test_characteristic_csv_tables(tmp_path):
    cfg = small_config(trials=1, n_steps=60, n_checkpoints=11, n_re=3,
                       n_im=3, char_im=0.5)
    rep = run_one(cfg, "characteristics")
    paths = write_report_csv(rep, tmp_path)
    names = sorted(p.split("/")[-1] for p in paths)
    assert names == ["characteristics-64-42.csv",
                     "characteristics_pairs-64-42.csv",
                     "characteristics_senergy-64-42.csv"]


# ------------------------------------------------------------ pipeline


def test_run_experiments_runs_the_config_list_in_order():
    # config.experiments is the one list: its order is the reports' order,
    # and an unknown name fails config validation, not a lookup
    cfg = small_config(trials=1, experiments=("marginal", "lsc"))
    reps = run_experiments(cfg)
    assert list(reps) == ["marginal", "lsc"]
    assert [rep.experiment for rep in reps.values()] == ["marginal", "lsc"]
    assert reps["lsc"].rows == run_one(cfg, "lsc").rows
    with pytest.raises(ConfigError, match="unknown experiments"):
        run_experiments(replace(cfg, experiments=("lsc", "nope")))


def test_reader_failure_fails_one_experiment(monkeypatch):
    def broken(*_args, **_kwargs):
        raise FloatingPointError("synthetic")

    monkeypatch.setattr(harness, "run_entrywise", broken)
    reps = run_experiments(small_config(trials=2, experiments=("lsc", "entrywise")))
    assert not reps["lsc"].failures and reps["lsc"].rows["lsc"]
    ent = reps["entrywise"]
    assert ent.summary()["failures"] == [
        {"n": 64, "trial": t, "message": "FloatingPointError: synthetic"}
        for t in (0, 1)]
    assert ent.rows == {} and ent.stats == {}
    assert failure_fraction(ent) == 1.0


def test_evolve_failure_fails_every_experiment(monkeypatch):
    real = harness.evolve

    def flaky(cd, pc, *args, **kwargs):
        if pc.trial == 1:
            raise ValueError("no path")
        return real(cd, pc, *args, **kwargs)

    monkeypatch.setattr(harness, "evolve", flaky)
    reps = run_experiments(small_config(trials=3, experiments=("lsc", "marginal")))
    for rep in reps.values():
        assert [(f.trial, f.message) for f in rep.failures] == [(1, "ValueError: no path")]
    assert {r[1] for r in reps["lsc"].rows["lsc"]} == {0, 2}
    assert reps["marginal"].rows["marginal"][0][2] == 2 * 64 * 65 // 2


def test_dense_solve_is_an_oracle_only(monkeypatch):
    oracle = resolvent_module.resolvent

    def banned(*_args, **_kwargs):
        raise AssertionError("dense resolvent solve called")

    for module in (resolvent_module, harness, flows):
        monkeypatch.setattr(module, "resolvent", banned, raising=False)
    cfg = small_config(density=DensitySpec.mixture((0.5, 0.5), (0.5, 1.2)),
                       trials=2, n_steps=60, n_checkpoints=11, n_re=3, n_im=3,
                       senergy_times=3, experiments=harness.EXPERIMENT_NAMES)
    reps = run_experiments(cfg)
    assert all(not rep.failures for rep in reps.values())

    # the self-energy rows, at t = 1 and along the curves, and the lsc trace
    # errors agree with the residual-checked solve
    cd = calibrate(cfg.density)
    times = harness.EXPERIMENTS["characteristics"].times(cfg)
    senergy = reps["characteristics"].rows["characteristics_senergy"]
    for at_end in (True, False):
        assert {r[1] for r in senergy if (r[2] == 1.0) == at_end} == {0, 1}
    for trial in (0, 1):
        path = evolve(cd, cfg.path_config(64, trial, checkpoints=times))
        by_t = {s.t: s for s in path.states}
        for _n, _trial, t, re, im, error, normalizer, ratio in (
                r for r in senergy if r[1] == trial):
            state = by_t[t]
            st = self_energy_error(state.sigma, oracle(state.H, complex(re, im)))
            assert st.error > 0.0
            assert (error, normalizer, ratio) == pytest.approx(
                (st.error, st.normalizer, st.ratio), rel=1e-10, abs=0.0)
        for _n, _trial, re, im, abs_err, _norm in (
                r for r in reps["lsc"].rows["lsc"] if r[1] == trial):
            z = complex(re, im)
            assert abs_err == pytest.approx(
                abs(oracle(by_t[1.0].H, z).trace_mean - msc(z)), rel=1e-10, abs=0.0)


def test_pool_pins_blas(capsys):
    resolvent_module.pin_blas()
    threads = resolvent_module.blas_threads()
    assert threads and set(threads.values()) == {1}
    cfg = small_config(trials=2, threads=2)
    rep = run_one(cfg, "lsc")
    assert not rep.failures
    assert capsys.readouterr().err == ""
    assert rep.rows == run_one(replace(cfg, threads=1), "lsc").rows


def test_one_spectrum_per_terminal_state(monkeypatch):
    # lsc and the trace tables share one eigvalsh of each t = 1 state, and
    # entrywise and the characteristics endpoint share one eigh
    calls = {"eigvalsh": [], "eigh": []}
    for name, seen in calls.items():
        def counted(a, *args, _real=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.array(a, copy=True))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = small_config(density=DensitySpec.mixture((0.5, 0.5), (0.5, 1.2)),
                       n_values=(48, 64), trials=2, n_steps=60, n_checkpoints=11,
                       n_re=3, n_im=3, senergy_times=3,
                       experiments=harness.EXPERIMENT_NAMES)
    reps = run_experiments(cfg)
    assert all(not rep.failures for rep in reps.values())
    assert all(calls.values())
    cd = calibrate(cfg.density)
    for n in cfg.n_values:
        for trial in range(cfg.trials):
            final = evolve(cd, cfg.path_config(n, trial, checkpoints=np.array([1.0])))
            H1 = final.states[-1].H
            for name, seen in calls.items():
                assert sum(np.array_equal(a, H1) for a in seen) == 1, (name, n, trial)


def _mixture_all_config(**kw):
    # marginal adds a checkpoint near 0.5 that the characteristics view omits
    base = dict(density=DensitySpec.mixture((0.5, 0.5), (0.5, 1.2)), n_values=(48, 64),
                trials=2, n_steps=60, n_checkpoints=11, n_re=3, n_im=3, senergy_times=3,
                marginal_times=(0.5, 1.0), experiments=harness.EXPERIMENT_NAMES)
    base.update(kw)
    return small_config(**base)


def test_spectra_once_per_view_checkpoint_and_midpoint(monkeypatch):
    # an all run decomposes each characteristics table matrix (view checkpoint
    # or midpoint back to the previous view checkpoint) once, and each t = 1
    # state once with eigh, although the lanes start during evolve
    calls = {"eigvalsh": [], "eigh": []}
    for name, seen in calls.items():
        def counted(a, *args, _real=getattr(np.linalg, name), _seen=seen, **kwargs):
            _seen.append(np.array(a, copy=True))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cfg = _mixture_all_config()
    reps = run_experiments(cfg)
    assert all(not rep.failures for rep in reps.values())
    times = harness.EXPERIMENTS["characteristics"].times(cfg)
    union = np.union1d(times, harness.EXPERIMENTS["marginal"].times(cfg))
    assert np.setdiff1d(union, times).size == 1
    cd = calibrate(cfg.density)
    for n in cfg.n_values:
        for trial in range(cfg.trials):
            view = evolve(cd, cfg.path_config(n, trial, checkpoints=union)).view(times)
            H = [np.zeros((n, n))] + [s.H for s in view.states]
            tables = H[1:] + [0.5 * (a + b) for a, b in zip(H[:-1], H[1:])]
            for M in tables:
                assert sum(np.array_equal(a, M) for a in calls["eigvalsh"]) == 1, (n, trial)
            assert sum(np.array_equal(a, H[-1]) for a in calls["eigh"]) == 1, (n, trial)


@pytest.mark.parametrize("lanes", [1, 2])
def test_live_tables_equal_tables_built_afterwards(monkeypatch, lanes):
    cfg = _mixture_all_config(n_values=(48,), trials=1)
    cd = calibrate(cfg.density)
    plan = [(harness.EXPERIMENTS[name], harness.EXPERIMENTS[name].times(cfg))
            for name in harness.EXPERIMENT_NAMES]
    times = harness.EXPERIMENTS["characteristics"].times(cfg)
    union = np.unique(np.concatenate([t for _exp, t in plan]))
    assert np.setdiff1d(union, times).size == 1
    config = cfg.path_config(48, 0, checkpoints=union)
    with SpectralLanes(lanes) as spectral:
        live = evolve(cd, config, on_checkpoint=harness._handoff(spectral, plan))
    assert "eigh" in live.states[-1].spectra
    monkeypatch.setattr(np.linalg, "eigvalsh", None)   # the live tables are complete
    ev_live = PathTraceEvaluator(live.view(times))
    monkeypatch.undo()
    after = evolve(cd, config)
    ev_after = PathTraceEvaluator(after.view(times))
    assert list(ev_live._lam) == list(ev_after._lam)
    for t, lam in ev_after._lam.items():
        assert np.array_equal(ev_live._lam[t], lam), t
    # the union checkpoint outside the view got nothing, the t = 1 basis is eigh's
    assert [s.spectra.keys() & {"eigvalsh", "eigh"} for s in live.states
            if s.t not in set(times)] == [set()]
    basis, direct = live.states[-1].resolvent, EigenResolvent(after.states[-1].H)
    assert np.array_equal(basis.eigenvalues, direct.eigenvalues)
    assert np.array_equal(basis._V, direct._V) and np.array_equal(basis._V2, direct._V2)


@pytest.mark.parametrize("threads", [1, 2])
def test_failing_trials_leave_no_thread(monkeypatch, threads):
    # a path that fails mid-integration, with table jobs already queued, and
    # a decomposition that fails on a lane: both become trial failures, and
    # every lane thread is joined before run_experiments returns
    real_evolve, real_eigvalsh = harness.evolve, np.linalg.eigvalsh

    def failing_midway(cd, pc, gen=None, on_checkpoint=None, pool=None):
        kept = []

        def keep(state):
            on_checkpoint(state)
            kept.append(state)
            if pc.n == 64 and pc.trial == 1 and len(kept) == 4:
                raise FloatingPointError("synthetic mid-path loss")
        return real_evolve(cd, pc, gen, keep, pool)

    def eigvalsh(a, *args, **kwargs):
        if a.shape[0] == 48:
            raise np.linalg.LinAlgError("synthetic lane loss")
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(harness, "evolve", failing_midway)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    cfg = _mixture_all_config(threads=threads, experiments=("lsc", "characteristics"))
    before = threading.active_count()
    reps = run_experiments(cfg)
    assert threading.active_count() == before
    for rep in reps.values():
        assert [(f.n, f.trial, f.message) for f in rep.failures] == [
            (48, 0, "LinAlgError: synthetic lane loss"),
            (48, 1, "LinAlgError: synthetic lane loss"),
            (64, 1, "FloatingPointError: synthetic mid-path loss")]
        assert "Traceback" in rep.failures[0].traceback
        assert "eigvalsh" in rep.failures[0].traceback
        assert "keep" in rep.failures[2].traceback
        assert {r[1] for r in rep.rows[next(iter(rep.rows))]} == {0}
        # the summary keeps the message alone
        assert set(rep.summary()["failures"][0]) == {"n", "trial", "message"}


def test_telemetry_counts_clamps_of_every_path():
    cfg = small_config(density=DensitySpec.mixture((0.5, 0.5), (0.5, 1.2)), trials=2)
    cd = replace(calibrate(cfg.density))
    cd.h_max = 1.0   # most entries lie past it, so the SDE clamps them
    telemetry = {}
    reps = run_experiments(cfg, cd, telemetry)
    assert not reps["lsc"].failures
    want = sum(evolve(cd, cfg.path_config(64, t, checkpoints=np.array([1.0]))).total_clamps
               for t in range(cfg.trials))
    assert telemetry == {"sde_clamps": want, "matrices_released": 0, "matrices_replayed": 0,
                         "caller_table_jobs": 0} and want > 0


@pytest.mark.parametrize("lanes", [1, 2])
def test_trial_bounds_backlog_and_releases_tables_only_states(monkeypatch, lanes):
    # the pool thread is held in its first decomposition until evolve ends,
    # so the integrating thread runs the table jobs: at every checkpoint at
    # most two wait unstarted and at most three matrices beyond the kept ones
    # (those a trial reads) are live; after the block every state read only
    # through its tables is released, and no trial reads one again
    cfg = _mixture_all_config(n_values=(48,), trials=1, n_checkpoints=21)
    cd = calibrate(cfg.density)
    plan = [(exp, exp.times(cfg)) for exp in harness.EXPERIMENTS.values()]
    checkpoints = np.unique(np.concatenate([times for _exp, times in plan]))
    release = harness._tables_only(cfg, plan)
    tabled = harness.EXPERIMENTS["characteristics"].times(cfg)
    assert 10 < len(release) < tabled.size
    gate, real_eigvalsh, real_evolve = threading.Event(), np.linalg.eigvalsh, harness.evolve

    def held(a, *args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            gate.wait(timeout=60)
        return real_eigvalsh(a, *args, **kwargs)

    made, seen, paths = [], [], []

    class Recorded(SpectralLanes):
        def __init__(self, n):
            super().__init__(n)
            made.append(self)

    def watched(cd, pc, gen=None, on_checkpoint=None, pool=None):
        states = []

        def keep(state):
            on_checkpoint(state)
            states.append(state)
            waiting = [job for future, job in made[-1]._queue if job[1] != "eigh"
                       and (future is None or not (future.running() or future.done()))]
            live = sum(s._hu is not None for s in states)
            seen.append((len(waiting), live - sum(s.t not in release for s in states)))
        try:
            paths.append(real_evolve(cd, pc, gen, keep, pool))
        finally:
            gate.set()
        return paths[-1]

    monkeypatch.setattr(np.linalg, "eigvalsh", held)
    monkeypatch.setattr(harness, "SpectralLanes", Recorded)
    monkeypatch.setattr(harness, "spectral_lanes", lambda processes: lanes)
    monkeypatch.setattr(harness, "evolve", watched)
    monkeypatch.setattr(harness, "_STATE", (cd, cfg, plan, checkpoints))
    (clamps, released, replayed, caller_jobs), out = harness._trial((48, 0))
    assert not any(isinstance(res, TrialFailure) for res in out)
    assert len(seen) == checkpoints.size
    assert max(waiting for waiting, _extra in seen) <= 2
    assert max(extra for _waiting, extra in seen) <= 3
    path = paths[0]
    assert sorted(s.t for s in path.states if s._hu is None) == sorted(release)
    assert (clamps, released, replayed) == (path.total_clamps, len(release), 0)
    if lanes == 1:
        assert caller_jobs == 2 * tabled.size
    # the results are those of the unreleased path
    monkeypatch.undo()
    kept = evolve(cd, cfg.path_config(48, 0, checkpoints=checkpoints))
    for (exp, times), res in zip(plan, out):
        assert repr(res) == repr(exp.trial(cfg, 48, 0, kept.view(times)))


def test_catch_up_and_release_under_stress(monkeypatch):
    # more lanes than cores and a short switch interval while the integrating
    # thread catches up and releases states: no lane reads a released matrix,
    # and every table is the one built afterwards, bit for bit
    cfg = _mixture_all_config(n_values=(48,), trials=1, n_checkpoints=21)
    cd = calibrate(cfg.density)
    plan = [(exp, exp.times(cfg)) for exp in harness.EXPERIMENTS.values()]
    config = cfg.path_config(48, 0, np.unique(np.concatenate([t for _exp, t in plan])))
    release, paths = harness._tables_only(cfg, plan), []

    def run():
        with SpectralLanes(4) as lanes:
            paths.append(evolve(cd, config, on_checkpoint=harness._handoff(lanes, plan, release),
                                pool=lanes.pool))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive() and len(paths) == 1
    live, times = paths[0], harness.EXPERIMENTS["characteristics"].times(cfg)
    dropped = {s.t for s in live.states if s._hu is None}
    assert dropped and dropped <= release
    ev_after = PathTraceEvaluator(evolve(cd, config).view(times))
    monkeypatch.setattr(np.linalg, "eigvalsh", None)   # the live tables are complete
    ev_live = PathTraceEvaluator(live.view(times))
    assert list(ev_live._lam) == list(ev_after._lam)
    for t, lam in ev_after._lam.items():
        assert np.array_equal(ev_live._lam[t], lam), t
    assert live.replay.replayed == 0


@pytest.mark.parametrize("names", [names for k in range(1, 5)
                                   for names in itertools.combinations(harness.EXPERIMENT_NAMES, k)])
def test_no_experiment_reads_a_released_matrix(names):
    # the release rule and the readers agree: no run replays a path
    cfg = small_config(trials=1, n_re=5, experiments=names)
    telemetry = {}
    reps = run_experiments(cfg, telemetry=telemetry)
    assert all(not rep.failures for rep in reps.values())
    plan = [(harness.EXPERIMENTS[name], harness.EXPERIMENTS[name].times(cfg)) for name in names]
    assert telemetry["matrices_released"] == len(harness._tables_only(cfg, plan))
    assert telemetry["matrices_replayed"] == 0
    assert (telemetry["matrices_released"] > 0) == ("characteristics" in names)


def test_fit_scaling_repeats_linregress_bit_for_bit(monkeypatch):
    # the fits of an all run and of the fit tests above, against scipy's own
    from scipy import stats
    fits, real = [], harness.fit_scaling

    def recorded(xs, ys):
        fits.append((xs, ys))
        return real(xs, ys)
    monkeypatch.setattr(harness, "fit_scaling", recorded)
    reps = run_experiments(_mixture_all_config())
    assert reps["lsc"].stats["fit"] is not None and len(fits) == 4
    x = np.geomspace(10, 1e4, 40)
    noisy = 2.0 * x ** -0.5 * (1.0 + 0.05 * np.random.Generator(np.random.Philox(123))
                               .standard_normal(40))
    fits += [(x, noisy), (x[:5], 3.0 * x[:5] ** -0.5), ([1.0, 2.0, 4.0, 8.0], [2.5] * 4)]
    for xs, ys in fits:
        fit, want = real(xs, ys), stats.linregress(np.log(xs), np.log(ys))
        got = np.array([fit.slope, fit.intercept, fit.stderr])
        ref = np.array([want.slope, want.intercept, want.stderr])
        assert got.tobytes() == ref.tobytes(), (xs, ys)


def test_tail_holds_one_interior_basis_of_squares_alone(monkeypatch):
    # the along-curve self-energy rows come from one interior basis at a time,
    # each V∘V alone, and equal bit for bit the rows of full bases
    real = harness.EigenResolvent
    live, peak, halves = [0], [0], []

    def released():
        live[0] -= 1

    class Counted(real):
        def __init__(self, H, full=True):
            super().__init__(H, full)
            halves.append(self._V is None)
            live[0] += 1
            peak[0] = max(peak[0], live[0])
            weakref.finalize(self, released)

    cfg = small_config(density=DensitySpec.mixture((0.5, 0.5), (0.5, 1.2)), trials=2,
                       n_steps=60, n_checkpoints=11, n_re=5, n_im=3, senergy_times=4)
    monkeypatch.setattr(harness, "EigenResolvent", Counted)
    rows = run_one(cfg, "characteristics").rows["characteristics_senergy"]
    assert len(halves) >= 2 * 3 and all(halves)
    assert peak == [1] and live == [0]
    monkeypatch.setattr(harness, "EigenResolvent", lambda H, full=True: real(H))
    full = run_one(cfg, "characteristics").rows["characteristics_senergy"]
    assert sum(r[2] != 1.0 for r in rows) >= 2 * 3
    assert repr(rows) == repr(full)
