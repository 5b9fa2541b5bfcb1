"""Entry martingale dynamics: marginals, moments, symmetry, schedules."""

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest, ks_2samp

from wigflow import streams
from wigflow.density import DensitySpec, calibrate, sample_iid
from wigflow.martingale import (
    InvalidStep, MatrixPath, PathConfig, checkpoint_times, evolve,
    evolve_scalar, geometric_uniform_schedule, init_exact, step,
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
        PathConfig(n=8, base_seed=1, schedule=np.array([0.0, 0.5, 1.0]))
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


def test_spectra_once_and_bitwise(mixture):
    # every spectrum of a state comes from one routine into one cache: the
    # bits of a direct decomposition, and the same object on a second read
    from wigflow.martingale import _spectrum
    from wigflow.resolvent import EigenResolvent
    path = evolve(mixture, PathConfig(n=30, base_seed=19,
                                      schedule=geometric_uniform_schedule(1e-3, 60)))
    for prev, st in zip([None] + path.states[:-1], path.states):
        assert st.spectra == {}
        t0 = 0.0 if prev is None else prev.t
        mid = 0.5 * st.H if prev is None else 0.5 * (prev.H + st.H)
        assert np.array_equal(_spectrum(st, t0, prev), np.linalg.eigvalsh(mid))
        assert np.array_equal(st.eigenvalues, np.linalg.eigvalsh(st.H))
        direct = EigenResolvent(st.H)
        assert np.array_equal(st.resolvent.eigenvalues, direct.eigenvalues)
        assert np.array_equal(st.resolvent._V, direct._V)
        assert list(st.spectra) == [t0, "eigvalsh", "eigh"]
        assert _spectrum(st, t0, prev) is st.spectra[t0]
        assert st.eigenvalues is st.spectra["eigvalsh"]
        assert st.resolvent is st.spectra["eigh"]


def _unpack_by_rows(hu, n, out=None, other=None, frac=1.0):
    """_unpack as a loop over rows: the reference form."""
    M = np.empty((n, n)) if out is None else out
    start = 0
    for i in range(n):
        row, end = M[i, i:], start + n - i
        np.multiply(hu[start:end], frac, out=row)
        if other is not None:
            row += (1.0 - frac) * other[start:end]
        M[i:, i], start = row, end
    return M


@pytest.mark.bitwise
@pytest.mark.parametrize("n", [1, 2, 33, 128])
@pytest.mark.parametrize("frac", [1.0, 0.5, 0.3])
def test_unpack_bitwise_against_rows(n, frac):
    from wigflow.martingale import _unpack
    hu, other = streams.stream(31, n).standard_normal((2, n * (n + 1) // 2)) / np.sqrt(n)
    for o in (None, other):
        want = _unpack_by_rows(hu, n, other=o, frac=frac)
        assert np.array_equal(want, want.T)
        assert _unpack(hu, n, other=o, frac=frac).tobytes() == want.tobytes()
        out = np.full((n, n), np.nan)
        assert _unpack(hu, n, out, o, frac) is out
        assert out.tobytes() == want.tobytes()


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


def _per_block(cd, n, times, gen, size=None):
    """The kernel as it once drew its own normals, block by block of _BLOCK
    entries (the reference form): hu at each of `times`, from the exact draw
    at times[0], and the entries a clamped on the way."""
    from wigflow.martingale import _BLOCK
    hu = np.sqrt(times[0] / n) * sample_iid(cd, n * (n + 1) // 2 if size is None else size, gen)
    a, clamps = cd.a_clamped(np.sqrt(n / times[0]) * hu)
    su, out = a / n, [hu.copy()]
    for t0, t1 in zip(times[:-1], times[1:]):
        for lo in range(0, hu.size, _BLOCK):
            b = slice(lo, lo + _BLOCK)
            hu[b] += np.sqrt(su[b] * (t1 - t0)) * gen.standard_normal(hu[b].size)
        a, k = cd.a_clamped(np.sqrt(n / t1) * hu)
        su, clamps = a / n, clamps + k
        out.append(hu.copy())
    return out, clamps


@pytest.mark.bitwise
def test_step_bitwise_against_per_block_draw(mixture):
    # N = 300: 45,150 entries, two blocks a step; step draws them at once
    sched = geometric_uniform_schedule(1e-3, 20)[:6]
    assert np.array_equal(sched[:-1] + np.diff(sched), sched[1:])
    ref_gen, gen = streams.path_stream(17, 300, 0), streams.path_stream(17, 300, 0)
    want, _clamps = _per_block(mixture, 300, sched, ref_gen)
    st = init_exact(mixture, 300, sched[0], gen)
    for k, hu in enumerate(want):
        if k:
            st = step(mixture, st, sched[k] - sched[k - 1], gen)
        assert st.t == sched[k] and st.hu.tobytes() == hu.tobytes()
    assert _philox(gen) == _philox(ref_gen)


@pytest.mark.bitwise
@pytest.mark.parametrize("points", [1, 2, 10])
def test_evolve_scalar_bitwise_against_per_block_draw(mixture, points):
    # 70,000 paths: three blocks a step, four steps a chunk (10 points: three
    # chunks, the last short); one point draws nothing past the exact start
    grid = np.linspace(0.05, 1.0, points)
    ref_gen, gen = streams.stream(18, 0), streams.stream(18, 0)
    want, _clamps = _per_block(mixture, 1, grid, ref_gen, size=70000)
    got = evolve_scalar(mixture, grid, gen, n_paths=70000)
    assert got.tobytes() == np.array(want).tobytes()
    assert _philox(gen) == _philox(ref_gen)


@pytest.mark.bitwise
@pytest.mark.parametrize("n, n_steps", [(128, 100), (724, 12)])
def test_evolve_bitwise_against_per_block_draw(mixture, n, n_steps):
    # without a pool the caller draws every chunk: N = 128, 32 steps a chunk
    # and one block a step; N = 724, one step a chunk and nine blocks a step.
    # h_max = 1 clamps most entries, so the clamp totals are compared too
    cd = replace(mixture)
    cd.h_max = 1.0
    cfg = PathConfig(n=n, base_seed=33, schedule=geometric_uniform_schedule(1e-3, n_steps))
    cfg.checkpoints = cfg.schedule[::3]
    ref_gen, gen = streams.path_stream(33, n, 0), streams.path_stream(33, n, 0)
    want, clamps = _per_block(cd, n, cfg.schedule, ref_gen)
    path = evolve(cd, cfg, gen)
    assert [st.hu.tobytes() for st in path.states] == [hu.tobytes() for hu in want[::3]]
    assert path.total_clamps == clamps > 0
    assert _philox(gen) == _philox(ref_gen)


class _Unstarted:
    """An executor whose jobs never start: the caller takes every chunk back."""

    def submit(self, fn, *args, **kwargs):
        return Future()


class _Eager:
    """An executor that runs each job on a thread of its own before submit
    returns: the pool draws every chunk but the first."""

    def __init__(self):
        self.jobs = 0

    def submit(self, fn, *args, **kwargs):
        future = Future()
        worker = threading.Thread(target=lambda: future.set_result(fn(*args, **kwargs)))
        worker.start()
        worker.join(timeout=60)
        self.jobs += 1
        return future


def _philox(gen):
    s = gen.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"])


@pytest.mark.parametrize("pool", ["unstarted", "eager", "idle", "busy"])
@pytest.mark.parametrize("n, n_steps", [(128, 100), (724, 12)])
def test_evolve_draws_ahead_bitwise(mixture, n, n_steps, pool):
    # N = 128: 32 steps a chunk, 100 steps (4 chunks, the last one short);
    # N = 724: 262,450 entries, one step a chunk.  Whoever draws a chunk,
    # the states, the clamp total and the stream left behind are those of
    # evolve without a pool, bit for bit
    cfg = PathConfig(n=n, base_seed=31, schedule=geometric_uniform_schedule(1e-3, n_steps))
    cfg.checkpoints = cfg.schedule[::3]
    serial_gen = streams.path_stream(31, n, 0)
    serial = evolve(mixture, cfg, serial_gen)
    gen = streams.path_stream(31, n, 0)
    if pool == "unstarted":
        path = evolve(mixture, cfg, gen, pool=_Unstarted())
    elif pool == "eager":
        eager = _Eager()
        path = evolve(mixture, cfg, gen, pool=eager)
        assert eager.jobs == (3 if n == 128 else n_steps - 1)
    else:
        with ThreadPoolExecutor(1) as executor:
            if pool == "busy":   # chunks queue behind a sleeping job
                executor.submit(time.sleep, 0.05)
            path = evolve(mixture, cfg, gen, pool=executor)
    assert len(path.states) == len(serial.states)
    for st, ref in zip(path.states, serial.states):
        assert st.t == ref.t
        assert np.array_equal(st.hu, ref.hu)
    assert path.total_clamps == serial.total_clamps
    assert _philox(gen) == _philox(serial_gen)


def test_evolve_error_leaves_no_draw_running(mixture):
    # a checkpoint hook raising mid-path: once evolve raises, no draw runs on
    # the lanes' pool (the stream stays put), and the block joins its thread
    from wigflow.flows import SpectralLanes
    cfg = PathConfig(n=724, base_seed=32, schedule=geometric_uniform_schedule(1e-3, 12))
    cfg.checkpoints = cfg.schedule
    gen = streams.path_stream(32, 724, 0)
    seen, started, finished = [], [], []

    def hook(state):
        seen.append(state.t)
        if len(seen) == 6:
            raise KeyError("mid-path")

    class Late:   # each draw starts late, so that one is running at the raise
        def submit(self, fn, *args, **kwargs):
            def late():
                started.append(None)
                time.sleep(0.05)
                fn(*args, **kwargs)
                finished.append(None)
            return lanes.pool.submit(late)

    before = threading.active_count()
    with pytest.raises(KeyError, match="mid-path"):
        with SpectralLanes(2) as lanes:
            try:
                evolve(mixture, cfg, gen, on_checkpoint=hook, pool=Late())
            finally:
                assert len(finished) == len(started)
                left = _philox(gen)
                time.sleep(0.1)   # a draw still running would move the stream
                assert _philox(gen) == left
    assert threading.active_count() == before
    assert len(seen) == 6 and len(started) >= 5


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


def test_release_needs_the_path_stream(mixture):
    # a path drawn from a caller's generator cannot be integrated again, so
    # none of its states may drop its matrix; the path's own stream can
    cfg = PathConfig(n=16, base_seed=9, schedule=geometric_uniform_schedule(1e-3, 100))
    given = evolve(mixture, cfg, gen=streams.path_stream(9, 16, 0))
    assert given.replay is None
    with pytest.raises(ValueError, match="cannot be replayed"):
        given.states[0].release()
    assert given.states[0]._hu is not None
    own = evolve(mixture, cfg)
    own.states[0].release()
    own.states[0].release()   # once dropped, nothing more to drop
    assert own.states[0]._hu is None and own.states[0].n == 16
    assert (own.replay.released, own.replay.replayed) == (1, 0)
    assert own.states[0].hu.tobytes() == given.states[0].hu.tobytes()
    assert (own.replay.released, own.replay.replayed) == (1, 1)


def test_path_view_shares_states(mixture):
    cfg = PathConfig(n=16, base_seed=9, schedule=geometric_uniform_schedule(1e-3, 100))
    path = evolve(mixture, cfg)
    times = path.times[[0, 3, -1]]
    view = path.view(times)
    assert np.array_equal(view.times, times)
    assert np.array_equal(view.config.checkpoints, times)
    assert all(v is path.states[i] for v, i in zip(view.states, (0, 3, -1)))
    assert view.total_clamps == path.total_clamps
    assert view.replay is path.replay


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
    prof = st.sigma
    # rebuilt from hu on each access, the same bits each time
    assert prof is not st.sigma and np.array_equal(prof, st.sigma)
    assert np.array_equal(prof, prof.T)
    with pytest.raises(ValueError):
        replace(st, t=0.0).sigma
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
    direct = sample_iid(mixture, 8000, streams.stream(15, streams.PURPOSE_DIRECT, 0))
    res = ks_2samp(h[-1], direct)
    assert res.pvalue > 0.01
