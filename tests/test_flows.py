"""Flow integration against closed forms, plus path-coupled evaluators.

The frozen-semicircle field makes every flow statement exact: forward
characteristics are gamma(t, zeta) = zeta + t/zeta with constant drift
-1/zeta, and the reversed flow from z lands on -1/msc(z).  Those closed
forms are the oracles here; path-coupled runs are checked for internal
consistency (grids, caching, determinism, decomposition algebra).
"""

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np
import pytest
from scipy.integrate import trapezoid

from oracles import drift_decomposition, in_Dprime
from wigflow.density import DensitySpec, calibrate
from wigflow.domains import SpectralDomain, frozen_semicircle_drift, msc
from wigflow.flows import (PathTraceEvaluator, SpectralLanes, contraction_check,
                           flow_gamma, flow_lambda, map_to_initial, ODEStepFailure)
from wigflow.martingale import (PathConfig, checkpoint_times, evolve,
                                geometric_uniform_schedule)


DOM = SpectralDomain(n=500)
GRID = np.linspace(0.0, 1.0, 51)

# stay-in-bulk starting points: |zeta|^2 large enough that Im never
# reaches the stopping level eta/4
SAFE = [0.8 + 0.9j, -1.1 + 0.7j, 1.4 + 1.0j, -0.5 + 1.2j]


def test_stub_gamma_matches_straight_line():
    for zeta in SAFE:
        c = flow_gamma(frozen_semicircle_drift, zeta, DOM, GRID)
        exact = zeta + GRID / zeta
        assert np.max(np.abs(c.xi - exact)) <= 1e-6
        assert not c.stopped and c.tau is None
        assert np.max(np.abs(c.r - (-1.0 / zeta))) <= 1e-6
        assert c.drift_sup <= 1e-6
        assert c.ratio == c.drift_sup * np.sqrt(DOM.n * DOM.eta)


def test_stub_gamma_stopping():
    zeta = 0.3 + 0.9j                      # |zeta|^2 = 0.9, Im hits eta/4
    tau_exact = 0.9 - 0.25 * DOM.eta * abs(zeta) ** 2 / zeta.imag
    c = flow_gamma(frozen_semicircle_drift, zeta, DOM, GRID)
    assert c.stopped
    assert abs(c.tau - tau_exact) <= 1e-5
    assert abs(c.endpoint - (zeta + c.tau / zeta)) <= 1e-6
    lvl = 0.25 * DOM.eta
    assert lvl * (1.0 - 1e-9) <= c.endpoint.imag <= lvl * 1.001
    k = np.searchsorted(GRID, c.tau)
    assert np.all(c.xi[k:] == c.endpoint)          # frozen after the stop
    assert np.all(c.r[k:] == c.r[-1])
    assert abs(c.r[-1] - (-1.0 / zeta)) <= 1e-6


def test_stub_gamma_rejects_bad_start():
    with pytest.raises(ValueError):
        flow_gamma(frozen_semicircle_drift, 0.5 * DOM.delta * 1j, DOM, GRID)
    with pytest.raises(ValueError):
        flow_gamma(frozen_semicircle_drift, 0.3 + 1j * 0.3 * DOM.eta, DOM, GRID)


def test_stub_lambda_endpoint():
    grid = DOM.z_grid()
    for z in [grid[0, 0], grid[0, 4], grid[3, 2], grid[7, 8], grid[5, 6]]:
        c = flow_lambda(frozen_semicircle_drift, z, DOM, GRID)
        assert c.reverse_time
        assert np.all(np.diff(c.times) > 0) and c.times[0] == 0.0
        assert abs(c.endpoint - (-1.0 / msc(z))) <= 1e-6
        assert abs(c.r[0] - msc(z)) <= 1e-12
        assert c.drift_sup <= 1e-6                 # trace conserved
        assert np.all(np.diff(c.xi.imag) > 0)      # moves upward


def test_stub_lambda_rejects_outside_window():
    with pytest.raises(ValueError):
        flow_lambda(frozen_semicircle_drift, DOM.W[1] + 0.2 + 0.5j, DOM, GRID)


def test_stub_round_trip():
    grid = DOM.z_grid()
    for z in [grid[1, 1], grid[4, 7], grid[7, 0]]:
        res = map_to_initial(frozen_semicircle_drift, z, DOM, GRID)
        assert res.residual <= 1e-6                # w + 1/w recovers z
        assert res.in_D0
        back = flow_gamma(frozen_semicircle_drift, res.w, DOM, GRID)
        assert not back.stopped
        assert abs(back.endpoint - z) <= 1e-6


def test_stub_contraction_closed_form():
    curves = {z: flow_gamma(frozen_semicircle_drift, z, DOM, GRID) for z in SAFE}
    for i, z in enumerate(SAFE):
        for w in SAFE[i + 1:]:
            cz, cw = curves[z], curves[w]
            exact = np.abs((z - w) * (1.0 - GRID / (z * w)))
            assert np.max(np.abs(np.abs(cz.xi - cw.xi) - exact)) <= 1e-8
            assert contraction_check(cz, cw) <= 1.0 + 1e-6
    c = curves[SAFE[0]]
    assert contraction_check(c, c) == 0.0


def test_contraction_requires_shared_grid():
    c1 = flow_gamma(frozen_semicircle_drift, SAFE[0], DOM, GRID)
    c2 = flow_gamma(frozen_semicircle_drift, SAFE[1], DOM, np.linspace(0, 1, 21))
    with pytest.raises(ValueError):
        contraction_check(c1, c2)


@pytest.mark.parametrize("flow, start", [(flow_gamma, SAFE[0]),
                                         (flow_lambda, 0.4 + 0.5j)])
def test_non_finite_field_raises_step_failure(flow, start):
    def nan_field(_t, _w):
        return complex(np.nan, np.nan)

    with pytest.raises(ODEStepFailure):
        flow(nan_field, start, DOM, GRID)


def test_imaginary_part_integrates_the_trace():
    # d Im xi / dt = -Im <R>, so the trapezoid of Im r telescopes Im xi
    c = flow_gamma(frozen_semicircle_drift, 0.8 + 0.9j, DOM, GRID)
    drop = c.xi.imag[0] - c.xi.imag[-1]
    assert abs(trapezoid(c.r.imag, c.times) - drop) <= 1e-6 * max(drop, 1e-3)


# ---------------------------------------------------------------- paths


@pytest.fixture(scope="module")
def gauss_path():
    cd = calibrate(DensitySpec.gaussian())
    sched = geometric_uniform_schedule(n_steps=200)
    cfg = PathConfig(n=60, base_seed=77, schedule=sched,
                     checkpoints=checkpoint_times(sched, n_checkpoints=21))
    return cd, evolve(cd, cfg)


def test_evaluator_matches_checkpoints(gauss_path):
    from oracles import resolvent
    _, path = gauss_path
    ev = PathTraceEvaluator(path)
    assert ev.ode_times[0] == 0.0
    assert np.array_equal(ev.ode_times[1:], path.times)
    z = 0.3 + 0.7j
    assert abs(ev(0.0, z) - (-1.0 / z)) <= 1e-15
    for s in path.states[::5]:
        direct = resolvent(s.H, z).trace_mean
        assert abs(ev(s.t, z) - direct) <= 1e-10


def test_evaluator_midpoints_and_inserts(gauss_path, monkeypatch):
    from scipy.linalg import eigvalsh
    _, path = gauss_path
    ev = PathTraceEvaluator(path)
    decomposed, real = [], np.linalg.eigvalsh

    def logged(a, *args, **kwargs):
        decomposed.append(np.array(a, copy=True))
        return real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", logged)
    z = -0.2 + 0.5j
    t0 = path.times[0]
    mid = 0.0 + 0.5 * (t0 - 0.0)
    lam = eigvalsh(0.5 * path.states[0].H)
    assert abs(ev(mid, z) - np.mean(1.0 / (lam - z))) <= 1e-12
    # off-grid time: linear interpolation of H, cached after first use
    ta, tb = path.times[3], path.times[4]
    t = ta + 0.37 * (tb - ta)
    frac = (t - ta) / (tb - ta)
    H = (1.0 - frac) * path.states[3].H + frac * path.states[4].H
    lam = eigvalsh(H)
    first = ev(t, z)
    n_keys = len(ev._lam)
    assert abs(first - np.mean(1.0 / (lam - z))) <= 1e-12
    assert ev(t, z) == first and len(ev._lam) == n_keys
    # the matrix decomposed is the interpolation itself, bit for bit
    assert len(decomposed) == 1 and np.array_equal(decomposed[0], H)
    t = 0.3 * t0   # before the first checkpoint: H(0) = 0
    ev(t, z)
    assert len(decomposed) == 2 and np.array_equal(decomposed[1], (t / t0) * path.states[0].H)
    with pytest.raises(ValueError):
        ev(1.5, z)


def test_released_states_replay_once_bit_for_bit(gauss_path, monkeypatch):
    # states read only through their tables drop their matrices; an off-table
    # insert and a stopping curve then integrate the path once more, from its
    # own stream, and read the same bits as on the path that kept them
    from wigflow import martingale
    cd, path = gauss_path
    fresh = evolve(cd, path.config)
    ev, ev_kept = PathTraceEvaluator(fresh), PathTraceEvaluator(path)
    released = fresh.states[:-1]
    for s in released:
        s.release()
    runs, real = [], martingale.evolve

    def counted(cd, config, *args, **kwargs):
        runs.append(config.checkpoints)
        return real(cd, config, *args, **kwargs)
    monkeypatch.setattr(martingale, "evolve", counted)
    assert fresh.states[0].n == 60 and runs == []   # n never touches the matrix
    ta, tb = path.times[3], path.times[4]
    t = ta + 0.37 * (tb - ta)
    assert np.array_equal(ev._eigenvalues(t), ev_kept._eigenvalues(t))
    assert len(runs) == 1 and np.array_equal(runs[0], path.times[:-1])
    assert all(a.hu.tobytes() == b.hu.tobytes() for a, b in zip(fresh.states, path.states))
    assert (fresh.replay.released, fresh.replay.replayed) == (len(released),) * 2
    # released again: a stopping curve bisects off the tables, one replay
    for s in released:
        s.release()
    dom = SpectralDomain(n=60)
    c = flow_gamma(PathTraceEvaluator(fresh), 0.3 + 0.9j, dom, ev.ode_times)
    kept = flow_gamma(PathTraceEvaluator(path), 0.3 + 0.9j, dom, ev.ode_times)
    assert c.stopped and c.tau == kept.tau
    assert np.array_equal(c.xi, kept.xi) and np.array_equal(c.r, kept.r)
    assert len(runs) == 2


@pytest.mark.parametrize("lanes", [1, 2])
def test_spectral_lanes_raise_and_join(gauss_path, monkeypatch, lanes):
    cd, path = gauss_path
    fresh = evolve(cd, path.config)   # empty caches, same states bit for bit
    pairs = list(zip([None] + fresh.states[:-1], fresh.states))
    before = threading.active_count()
    # an error inside the block drops the queue and joins every lane
    with pytest.raises(KeyError):
        with SpectralLanes(lanes) as spectral:
            for prev, s in pairs:
                spectral.tables(prev, s)
            raise KeyError("inside the block")
    assert threading.active_count() == before
    # a job's error is raised on leaving the block, whichever lane ran it
    real, calls = np.linalg.eigvalsh, []

    def eigvalsh(a, *args, **kwargs):
        calls.append(None)
        if len(calls) == 5:
            raise np.linalg.LinAlgError("synthetic")
        return real(a, *args, **kwargs)

    fresh = evolve(cd, path.config)   # the pool may have filled some caches
    pairs = list(zip([None] + fresh.states[:-1], fresh.states))
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(np.linalg.LinAlgError, match="synthetic"):
        with SpectralLanes(lanes) as spectral:
            for prev, s in pairs:
                spectral.tables(prev, s)
            deadline = time.monotonic() + 60
            while lanes > 1 and len(calls) < 5 and time.monotonic() < deadline:
                time.sleep(1e-3)   # until the pool thread makes the failing call
    assert threading.active_count() == before
    # the first error ends the drain, on the caller's side or the pool's
    if lanes == 1:
        assert len(calls) == 5
    else:
        assert len(calls) < 2 * len(pairs)


@pytest.mark.parametrize("lanes", [1, 2])
def test_spectral_lanes_drain_order_and_threads(gauss_path, monkeypatch, lanes):
    # every job runs once, on the calling thread or one of lanes - 1 pool
    # threads; at one lane, the t = 1 basis queued after every table runs first
    cd, path = gauss_path
    fresh = evolve(cd, path.config)
    log = []   # (routine, thread, copy of the matrix)
    for name in ("eigh", "eigvalsh"):
        def logged(a, *args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            log.append((_name, threading.get_ident(), np.array(a, copy=True)))
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, logged)
    before = threading.active_count()
    with SpectralLanes(lanes) as spectral:
        for prev, s in zip([None] + fresh.states[:-1], fresh.states):
            spectral.tables(prev, s)
        spectral.basis(fresh.states[-1])
    assert threading.active_count() == before
    assert len(log) == 2 * len(fresh.states) + 1
    assert len({thread for _name, thread, _a in log}) <= lanes
    if lanes == 1:
        name, _thread, a = log[0]
        assert name == "eigh" and np.array_equal(a, path.states[-1].H)


def test_spectral_lanes_stress(gauss_path, monkeypatch):
    # more lanes than cores and a short switch interval: each queued job
    # runs exactly once, its result lands in its own cache, none is lost
    cd, path = gauss_path
    fresh = evolve(cd, path.config)
    real, calls = np.linalg.eigvalsh, []

    def eigvalsh(a, *args, **kwargs):
        calls.append(None)
        return real(a, *args, **kwargs)

    def run():
        with SpectralLanes(4) as spectral:
            spectral.basis(fresh.states[-1])
            for prev, s in zip([None] + fresh.states[:-1], fresh.states):
                spectral.tables(prev, s)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller = threading.Thread(target=run)
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert len(calls) == 2 * len(fresh.states)
    ev = PathTraceEvaluator(path)
    for prev, s in zip([None] + fresh.states[:-1], fresh.states):
        t0 = 0.0 if prev is None else prev.t
        assert np.array_equal(s.spectra[t0], ev._lam[t0 + 0.5 * (s.t - t0)])
        assert np.array_equal(s.spectra["eigvalsh"], ev._lam[s.t])
    assert np.array_equal(fresh.states[-1].spectra["eigh"]._V,
                          path.states[-1].resolvent._V)


def test_lane_jobs_call_no_public_function(gauss_path, monkeypatch):
    # a traced run keeps one span stack, so lane threads may call numpy and
    # private helpers only.  Wrap what the tracer wraps (public functions,
    # public methods, __init__ and __call__ of classes, and the methods of
    # the generators `streams` returns) and record every call made off the
    # main thread.
    from test_harness import _mixture_all_config
    off_main = []

    def recorded(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(name)
            return fn(*args, **kwargs)
        return wrapper

    class Generator:
        def __init__(self, gen):
            self._gen = gen

        def __getattr__(self, name):
            attr = getattr(self._gen, name)
            if name.startswith("_") or not callable(attr):
                return attr
            return recorded(attr, f"wigflow.streams.Generator.{name}")

    def proxied(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return Generator(fn(*args, **kwargs))
        return wrapper

    modules = [importlib.import_module(f"wigflow.{name}") for name in
               ("density", "streams", "martingale", "resolvent", "domains", "flows", "harness")]
    wrapped = {}   # id(original function) -> wrapper
    for module in modules:
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                fn = proxied(obj) if module.__name__ == "wigflow.streams" else obj
                wrapped[id(obj)] = recorded(fn, f"{module.__name__}.{name}")
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, val in list(vars(obj).items()):
                    kind = type(val) if isinstance(val, (classmethod, staticmethod)) else None
                    fn = val.__func__ if kind else val
                    if (inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__
                            and (not attr.startswith("_") or attr in ("__init__", "__call__"))):
                        w = recorded(fn, f"{module.__name__}.{name}.{attr}")
                        monkeypatch.setattr(obj, attr, kind(w) if kind else w)
    for module in modules:   # every module's reference to a wrapped function
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                monkeypatch.setattr(module, name, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for key, val in obj.items():
                    if id(val) in wrapped:
                        monkeypatch.setitem(obj, key, wrapped[id(val)])
    harness = modules[-1]
    monkeypatch.setattr(harness, "spectral_lanes", lambda processes: 3)
    reports = harness.run_experiments(_mixture_all_config())
    assert all(not rep.failures for rep in reports.values())
    # the pool thread runs every kind of job: each future is awaited in the
    # block, and each draw of normals ahead before evolve goes on
    cd, path = gauss_path
    with SpectralLanes(2) as spectral:
        draws = []

        class Awaited:
            def submit(self, *args, **kwargs):
                draws.append(spectral.pool.submit(*args, **kwargs))
                draws[-1].result()
                return draws[-1]

        fresh = evolve(cd, path.config, pool=Awaited())
        assert len(draws) == 1   # 200 steps of 1,830 normals: 2 chunks
        for prev, s in zip([None] + fresh.states[:-1], fresh.states):
            spectral.tables(prev, s)
        spectral.basis(fresh.states[-1])
        assert len(spectral._queue) == 2 * len(fresh.states) + 1
        for future, _job in spectral._queue:
            future.result()
    assert off_main == []
    assert all(np.array_equal(a.hu, b.hu) for a, b in zip(fresh.states, path.states))


def test_stopped_process_on_path(gauss_path):
    _, path = gauss_path
    dom = SpectralDomain(n=60)
    ev = PathTraceEvaluator(path)
    c = flow_gamma(ev, 0.5 + 0.9j, dom, ev.ode_times)
    assert np.array_equal(c.times, ev.ode_times)
    assert abs(c.r[0] - (-1.0 / (0.5 + 0.9j))) <= 1e-15
    assert np.all(c.xi.imag >= 0.25 * dom.eta * (1.0 - 1e-9))
    assert np.all(np.isfinite(c.xi)) and np.all(np.isfinite(c.r))
    assert c.ratio == c.drift_sup * np.sqrt(60 * dom.eta)
    # coarse sanity: the trace does not wander far at this size
    assert c.drift_sup <= 2.0
    again = flow_gamma(PathTraceEvaluator(path), 0.5 + 0.9j, dom, ev.ode_times)
    assert np.array_equal(c.xi, again.xi) and np.array_equal(c.r, again.r)


def test_lambda_on_path(gauss_path):
    _, path = gauss_path
    dom = SpectralDomain(n=60)
    z = 0.4 + 1j * dom.eta
    ev = PathTraceEvaluator(path)
    c = flow_lambda(ev, z, dom, ev.ode_times)
    assert np.all(np.diff(c.xi.imag) > 0)
    assert in_Dprime(dom, c.endpoint)


def test_path_integration_identity(gauss_path):
    _, path = gauss_path
    dom = SpectralDomain(n=60)
    ev = PathTraceEvaluator(path)
    c = flow_gamma(ev, 0.3 + 0.9j, dom, ev.ode_times)
    stop = c.times.size if not c.stopped else int(np.nonzero(c.times >= c.tau)[0][0])
    im_r = c.r.imag[:stop]
    im_xi = c.xi.imag[:stop]
    drop = im_xi[0] - im_xi[-1]
    # weight f'(x) = 1/x turns the drop into a log difference
    logdrop = np.log(im_xi[0]) - np.log(im_xi[-1])
    assert abs(trapezoid(im_r, c.times[:stop]) - drop) <= 0.02 * max(drop, 0.05)
    # the 1/x weight amplifies discretization error near the stop level
    assert abs(trapezoid(im_r / im_xi, c.times[:stop]) - logdrop) <= 0.06 * max(logdrop, 0.05)


def test_drift_decomposition_algebra(gauss_path):
    from oracles import resolvent, s_op, t_op
    _, path = gauss_path
    dom = SpectralDomain(n=60)
    ev = PathTraceEvaluator(path)
    c = flow_gamma(ev, 0.4 + 1.0j, dom, ev.ode_times)
    assert not c.stopped
    d = drift_decomposition(path, c)
    assert d.F[0] == 0.0 and d.A[0] == 0.0
    assert np.all(np.isfinite(d.F)) and np.all(np.isfinite(d.A))

    # oracle: accumulate the same increments with explicit matrices
    n = 60
    states = path.states
    F = A = 0.0 + 0.0j
    for k in range(c.times.size - 1):
        t0, t1 = c.times[k], c.times[k + 1]
        H0 = np.zeros((n, n)) if k == 0 else states[k - 1].H
        H1 = states[k].H
        sig = states[0].sigma if k == 0 else states[k - 1].sigma
        R = resolvent(H0, c.xi[k]).G
        X = (H1 - H0) - (t1 - t0) * t_op(sig, R)
        F += -np.trace(R @ X @ R) / n
        S = s_op(sig, R)
        A += np.trace(R @ (S - np.trace(R) / n * np.eye(n)) @ R) / n * (t1 - t0)
        assert abs(d.F[k + 1] - F) <= 1e-10
        assert abs(d.A[k + 1] - A) <= 1e-10
    resid = np.max(np.abs((c.r - c.r[0]) - d.F - d.A))
    assert d.reconstruction_residual == pytest.approx(resid, abs=1e-12)


def test_drift_decomposition_reconstructs(gauss_path):
    # the defect shrinks with checkpoint spacing, though noisily at this
    # size: compare a coarse against a fine grid, averaged over two paths
    cd, _ = gauss_path
    dom = SpectralDomain(n=60)
    sched = geometric_uniform_schedule(n_steps=400)
    res = {11: [], 81: []}
    for seed in (77, 123):
        for ncp in res:
            cfg = PathConfig(n=60, base_seed=seed, schedule=sched,
                             checkpoints=checkpoint_times(sched, n_checkpoints=ncp))
            p = evolve(cd, cfg)
            ev = PathTraceEvaluator(p)
            c = flow_gamma(ev, 0.4 + 1.0j, dom, ev.ode_times)
            res[ncp].append(drift_decomposition(p, c).reconstruction_residual)
    assert np.mean(res[81]) <= 0.7 * np.mean(res[11])
    assert max(res[81]) <= 0.1


def test_drift_decomposition_guards(gauss_path):
    _, path = gauss_path
    dom = SpectralDomain(n=60)
    lam = flow_lambda(PathTraceEvaluator(path), 0.4 + 0.5j, dom,
                      PathTraceEvaluator(path).ode_times)
    with pytest.raises(ValueError):
        drift_decomposition(path, lam)
    c = flow_gamma(frozen_semicircle_drift, 0.4 + 1.0j, dom, GRID)
    with pytest.raises(ValueError):
        drift_decomposition(path, c)
