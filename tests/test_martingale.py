"""Entry martingale dynamics: marginals, moments, symmetry, schedules."""

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from wigflow import streams
from wigflow.density import DensitySpec, calibrate, sample_iid
from wigflow.martingale import (
    InvalidStep, MatrixPath, PathConfig, checkpoint_times, evolve,
    evolve_scalar, geometric_uniform_schedule, init_exact, sigma_profile, step,
)

MIX = (0.5, 0.5), (np.sqrt(0.5), np.sqrt(1.5))
TERMINAL = np.array([1.0])


@pytest.fixture(scope="module")
def gaussian():
    return calibrate(DensitySpec.gaussian())


@pytest.fixture(scope="module")
def mixture():
    return calibrate(DensitySpec.mixture(*MIX))


def test_schedule_shape():
    s = geometric_uniform_schedule(1e-3, 2000)
    assert s[0] == 1e-3 and s[-1] == 1.0 and len(s) == 2001
    assert np.all(np.diff(s) > 0)


def test_checkpoints_are_schedule_times():
    s = geometric_uniform_schedule(1e-3, 500)
    c = checkpoint_times(s, 40)
    assert np.all(np.isin(c, s))
    assert c[0] == s[0] and c[-1] == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        PathConfig(n=0, base_seed=1)
    with pytest.raises(ValueError):
        PathConfig(n=8, base_seed=1, t_init=0.0)
    with pytest.raises(ValueError):
        PathConfig(n=8, base_seed=1, schedule=np.array([1e-3, 0.5, 0.9]))


def test_init_exact_symmetry_and_sigma(gaussian):
    st = init_exact(gaussian, 40, 1e-3, streams.stream(3, 0))
    assert np.array_equal(st.H, st.H.T)
    assert np.array_equal(st.sigma, st.sigma.T)
    assert np.all(st.sigma == 1.0 / 40)          # a == 1 makes sigma exact


def test_init_small_t_is_near_zero_matrix(gaussian):
    st = init_exact(gaussian, 30, 1e-12, streams.stream(3, 1))
    assert np.max(np.abs(st.H)) < 1e-4


def test_init_entry_scale(gaussian):
    n, t = 300, 0.25
    st = init_exact(gaussian, n, t, streams.stream(4, 0))
    iu = np.triu_indices(n)
    v = np.var(st.H[iu] * np.sqrt(n / t))
    assert abs(v - 1.0) < 0.02


def test_step_rejects_bad_dt(gaussian):
    st = init_exact(gaussian, 10, 1e-3, streams.stream(5, 0))
    with pytest.raises(InvalidStep):
        step(gaussian, st, 0.0, streams.stream(5, 1))
    with pytest.raises(InvalidStep):
        step(gaussian, st, 2.0, streams.stream(5, 1))


def test_step_gaussian_is_brownian(gaussian):
    n, dt = 200, 0.01
    st = init_exact(gaussian, n, 0.5, streams.stream(6, 0))
    st2 = step(gaussian, st, dt, streams.stream(6, 1))
    iu = np.triu_indices(n)
    incr = (st2.H - st.H)[iu]
    assert np.all(st2.sigma == 1.0 / n)
    assert abs(np.var(incr) * n / dt - 1.0) < 0.03
    assert st2.t == 0.51


def test_step_conditional_mean_is_martingale(mixture):
    # replaying many independent one-step updates must average back to H
    n, dt, m = 6, 0.02, 20000
    st = init_exact(mixture, n, 0.3, streams.stream(7, 0))
    acc = np.zeros((n, n))
    for i in range(m):
        acc += step(mixture, st, dt, streams.stream(7, streams.PURPOSE_PROBE, i)).H
    err = np.max(np.abs(acc / m - st.H))
    assert err < 5.0 * np.sqrt(mixture.a_sup / n * dt / m)


def test_step_conditional_variance_matches_sigma(mixture):
    n, dt, m = 6, 0.02, 20000
    st = init_exact(mixture, n, 0.3, streams.stream(8, 0))
    sq = np.zeros((n, n))
    for i in range(m):
        d = step(mixture, st, dt, streams.stream(8, streams.PURPOSE_PROBE, i)).H - st.H
        sq += d * d
    ratio = sq / m / (st.sigma * dt)
    assert np.max(np.abs(ratio - 1.0)) < 0.06


def test_evolve_reaches_one_with_checkpoints(mixture):
    cfg = PathConfig(n=24, base_seed=9, schedule=geometric_uniform_schedule(1e-3, 200))
    path = evolve(mixture, cfg)
    assert isinstance(path, MatrixPath)
    assert path.states[-1].t == 1.0
    assert np.array_equal(path.times, cfg.checkpoints)
    iu = np.triu_indices(cfg.n)
    for st in path.states:
        assert np.array_equal(st.H, st.H.T)
        assert st.H[iu].tobytes() == st.hu.tobytes()
        assert np.all(st.sigma > 0)
        assert np.all(st.sigma <= mixture.a_sup / cfg.n + 1e-15)
        # a state holds the packed upper triangle alone; H and sigma are
        # rebuilt from it
        arrays = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == cfg.n * (cfg.n + 1) // 2 * 8


def test_step_replays_evolve(mixture):
    # init_exact and step run the kernel evolve runs: same draws, same bits
    sched = geometric_uniform_schedule(1e-3, 20)
    # step lands on t + dt, so every schedule time must be reached exactly
    assert np.array_equal(sched[:-1] + np.diff(sched), sched[1:])
    path = evolve(mixture, PathConfig(n=12, base_seed=16, schedule=sched,
                                      checkpoints=sched))
    gen = streams.path_stream(16, 12, 0)
    st = init_exact(mixture, 12, sched[0], gen)
    for k, ref in enumerate(path.states):
        if k:
            st = step(mixture, st, sched[k] - sched[k - 1], gen)
        assert st.t == ref.t
        assert np.array_equal(st.H, ref.H)
        assert np.array_equal(st.sigma, ref.sigma)
        assert st.clamp_count == ref.clamp_count


def test_evolve_terminal_checkpoint_only(mixture):
    sched = geometric_uniform_schedule(1e-3, 200)
    full = evolve(mixture, PathConfig(n=24, base_seed=9, schedule=sched))
    path = evolve(mixture, PathConfig(n=24, base_seed=9, schedule=sched,
                                      checkpoints=TERMINAL))
    assert len(path.states) == 1 and path.states[0].t == 1.0
    # the kept states do not change the draws: bit-identical terminal state
    assert np.array_equal(path.states[0].H, full.states[-1].H)
    assert np.array_equal(path.states[0].sigma, full.states[-1].sigma)
    assert path.total_clamps == full.total_clamps


def test_path_view_shares_states(mixture):
    cfg = PathConfig(n=16, base_seed=9, schedule=geometric_uniform_schedule(1e-3, 100))
    path = evolve(mixture, cfg)
    times = path.times[[0, 3, -1]]
    view = path.view(times)
    assert np.array_equal(view.times, times)
    assert np.array_equal(view.config.checkpoints, times)
    assert all(v is path.states[i] for v, i in zip(view.states, (0, 3, -1)))
    assert view.total_clamps == path.total_clamps


def test_evolve_deterministic_per_config(mixture):
    cfg = PathConfig(n=16, base_seed=10, trial=3,
                     schedule=geometric_uniform_schedule(1e-3, 100),
                     checkpoints=TERMINAL)
    a = evolve(mixture, cfg).states[0].H
    b = evolve(mixture, cfg).states[0].H
    assert np.array_equal(a, b)


def test_sigma_profile_recomputation(mixture):
    cfg = PathConfig(n=30, base_seed=11, schedule=geometric_uniform_schedule(1e-3, 150),
                     checkpoints=TERMINAL)
    st = evolve(mixture, cfg).states[0]
    prof = sigma_profile(mixture, st)
    assert np.array_equal(prof, st.sigma)
    # spot check against the pointwise coefficient
    gen = streams.stream(11, streams.PURPOSE_PAIRS)
    for _ in range(100):
        i, j = gen.integers(0, 30, size=2)
        x = np.sqrt(30 / st.t) * st.H[i, j]
        assert abs(prof[i, j] - float(mixture.a_of_h(x)) / 30) < 1e-12


def test_evolve_terminal_entry_variance(mixture):
    # <H(1)^2> = tr H^2 / N has mean 1 under unit entry variance
    vals = []
    for trial in range(50):
        cfg = PathConfig(n=64, base_seed=12, trial=trial,
                         schedule=geometric_uniform_schedule(1e-3, 300),
                         checkpoints=TERMINAL)
        H = evolve(mixture, cfg).states[0].H
        vals.append(np.trace(H @ H) / 64)
    assert abs(np.mean(vals) - 1.0) < 0.05


def test_scalar_gaussian_terminal_law(gaussian):
    grid = geometric_uniform_schedule(1e-3, 200)
    h = evolve_scalar(gaussian, grid, streams.stream(13, 0), n_paths=4000)
    stat = kstest(h[-1], "norm").statistic
    assert stat < 1.63 / np.sqrt(4000)           # 1% critical value


def test_scalar_second_moment_tracks_time(mixture):
    grid = geometric_uniform_schedule(1e-3, 300)
    h = evolve_scalar(mixture, grid, streams.stream(14, 0), n_paths=10000)
    for t_target in (0.5, 1.0):
        k = int(np.argmin(np.abs(grid - t_target)))
        assert abs(np.mean(h[k] ** 2) - grid[k]) < 0.03


def test_scalar_marginal_vs_direct_sampler(mixture):
    grid = geometric_uniform_schedule(1e-3, 400)
    h = evolve_scalar(mixture, grid, streams.stream(15, 0), n_paths=8000)
    direct = sample_iid(mixture, 8000, streams.direct_stream(15, 0))
    res = ks_2samp(h[-1], direct)
    assert res.pvalue > 0.01
