"""Characteristic flows driven by resolvent trace fields.

A drift field is any callable (t, w) -> complex approximating a resolvent
trace mean.  The forward characteristic solves

    d/dt gamma(t, z) = -field(t, gamma),    gamma(0, z) = z,

along which the trace process <R(t, gamma)> is approximately conserved;
lambda is its time reversal, run upward from the evaluation window so
that gamma(1, lambda(1, z)) = z.  Forward curves are stopped (time and
value frozen) the moment Im falls to eta/4, matching the stopped-process
semantics of the estimates being tested.  Both directions run on one
fixed-step RK4 driver.

Fields come in two flavors: the deterministic frozen-semicircle stand-in
(closed-form checks) and PathTraceEvaluator, which couples the flow to a
matrix path through eigenvalue tables at the checkpoint times and the
midpoints the integrator visits.  The tables are states' spectra, which
martingale computes and caches; SpectralLanes schedules them on a thread
pool from the moment each checkpoint state exists.  The calling thread
keeps the backlog to one checkpoint's pair of tables as it integrates, so
that states whose matrices only the tables read can be released early,
then drains the rest newest first and stops at the first error.  The
same pool draws the path's SDE normals ahead while it integrates.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .domains import SpectralDomain
from .martingale import MatrixPath, _spectrum, _unpack
from .resolvent import EigenResolvent, t_op


class ODEStepFailure(Exception):
    """Flow integration produced a non-finite position."""


@dataclass
class CharacteristicCurve:
    """One flow trajectory with its trace series and drift diagnostics.

    For reverse_time curves (lambda), times are the reversed-flow variable
    s and positions move upward; physical time is 1 - s.
    """

    z0: complex
    times: np.ndarray
    xi: np.ndarray
    r: np.ndarray
    stopped: bool = False
    tau: float | None = None        # first time Im xi reaches eta/4
    drift_sup: float = 0.0          # sup_t |<R(t)> - <R(0)>|
    ratio: float = 0.0              # drift_sup * sqrt(N eta)
    reverse_time: bool = False

    @property
    def endpoint(self) -> complex:
        return complex(self.xi[-1])


# Table jobs left waiting unstarted at each checkpoint: one checkpoint's
# pair.  At N = 1000 a pair takes a lane about 0.24 s and a checkpoint comes
# every 0.07 s, so unbounded, the backlog held ~36 checkpoints' matrices
# when evolve ended.
_BACKLOG = 2


def _run(state, key, prev, scratch):
    """Decompose in the N x N buffer held in `scratch`: a pool thread's
    dict, freed when the thread ends, or the calling thread's, freed when
    the block ends."""
    buf = scratch.get("buf")
    if buf is None or buf.shape[0] != state.n:
        buf = scratch["buf"] = np.empty((state.n, state.n))
    _spectrum(state, key, prev, buf)


class SpectralLanes:
    """Eigendecompositions of matrix states, run from the moment they are queued.

    Used as a `with` block.  With lanes > 1, each queued job also goes to a
    ThreadPoolExecutor of lanes - 1 threads, which work from the front of
    the queue while the caller goes on (say, integrating the path whose
    states it queues).  The caller bounds the backlog from the back of the
    queue (`catch_up`).  Leaving the block drains the queue (`drain`); an
    error inside the block cancels it.  Either way the pool is shut down:
    one lane starts no thread, and no thread outlives the block.

    A job is (state, key, prev): martingale._spectrum fills state.spectra[key],
    so the lane count changes no value, and _spectrum alone decides that a
    key is already there (during evolve, every queued state is fresh).  Lane
    code calls numpy and private helpers only.  `pool` (None at one lane)
    also takes other work while the block runs: evolve draws the SDE normals
    ahead on it, behind the spectral jobs queued so far.  caller_jobs counts
    the table jobs the calling thread ran.
    """

    def __init__(self, lanes: int):
        self.pool = ThreadPoolExecutor(lanes - 1) if lanes > 1 else None
        self._queue = []                    # (pool future or None, (state, key, prev))
        self._buffers = threading.local()   # each pool thread's scratch
        self._scratch = {}                  # the caller's, for the block's life
        self._failed = threading.Event()    # a pool job raised
        self.caller_jobs = 0

    def tables(self, prev, state) -> None:
        """Queue the trace tables read at `state`: the midpoint back to `prev`,
        the previous checkpoint (None: t = 0), and the state itself."""
        self._submit([(state, 0.0 if prev is None else prev.t, prev),
                      (state, "eigvalsh", None)])

    def basis(self, state) -> None:
        """Queue the eigh basis of `state`; queued after the state's tables,
        the longest job is the first the drain runs."""
        self._submit([(state, "eigh", None)])

    def _submit(self, jobs):
        for job in jobs:
            future = self.pool.submit(self._pooled, *job) if self.pool else None
            self._queue.append((future, job))

    def _pooled(self, *job):
        if self._failed.is_set():
            return
        try:
            _run(*job, vars(self._buffers))
        except Exception:
            self._failed.set()
            raise

    def _run_here(self, job):
        _run(*job, self._scratch)
        self.caller_jobs += job[1] != "eigh"

    def catch_up(self) -> None:
        """Run queued table jobs on this thread, newest first, while more than
        _BACKLOG of them wait unstarted; the integrating thread calls this at
        each checkpoint.  At one lane every job waits until run here.  A pool
        job's error stops it; the drain raises that error."""
        while not self._failed.is_set():
            waiting = [i for i, (future, job) in enumerate(self._queue) if job[1] != "eigh"
                       and (future is None or not (future.running() or future.done()))]
            if len(waiting) <= _BACKLOG:
                return
            future, job = self._queue[waiting[-1]]
            if future is None or future.cancel():
                del self._queue[waiting[-1]]
                self._run_here(job)

    def reading(self) -> set:
        """ids of the states whose hu a queued job is yet to read: the job's
        own state and its earlier checkpoint, until its table exists."""
        return {id(s) for _future, (state, key, prev) in self._queue
                if key not in state.spectra for s in (state, prev)}

    def drain(self) -> None:
        """Run, newest first, every queued job no pool thread has started, then
        wait for the rest; leaving the block calls this.  The first job error,
        on either side, ends the drain: jobs not started by then never start,
        and the error is raised."""
        for future, job in reversed(self._queue):
            if self._failed.is_set():
                break
            if future is None or future.cancel():
                self._run_here(job)
        for future, _job in self._queue:
            if future is not None and not future.cancelled():
                future.result()

    def __enter__(self) -> "SpectralLanes":
        return self

    def __exit__(self, exc_type, _exc, _tb):
        try:
            if exc_type is None:
                self.drain()
        finally:
            self._scratch.clear()
            if self.pool is not None:
                self.pool.shutdown(wait=True, cancel_futures=True)
        return False


class PathTraceEvaluator:
    """Resolvent trace field of a matrix path.

    Eigenvalues of H(t) are tabulated at the ODE grid times (t = 0 plus the
    path checkpoints) and at interval midpoints, with the packed H(t)
    interpolated linearly between checkpoints.  The tables are the states'
    spectra, which a run fills while the path integrates; missing ones are
    computed here.  Off-table times (reached only by stopping-time
    bisection) decompose on demand and join the evaluator's tables; they
    read the packed matrices, so a released state is replayed first.
    """

    def __init__(self, path: MatrixPath):
        self._path = path
        states = path.states
        if len(states) < 2:
            raise ValueError("path must retain at least two checkpoints")
        self.n = states[0].n
        self.ode_times = np.concatenate([[0.0], [s.t for s in states]])
        self._lam = {0.0: np.zeros(self.n)}
        for prev, s in zip([None] + states[:-1], states):
            t0 = 0.0 if prev is None else prev.t
            self._lam[t0 + 0.5 * (s.t - t0)] = _spectrum(s, t0, prev)
            self._lam[s.t] = s.eigenvalues
        self._keys = np.array(sorted(self._lam))

    def _eigenvalues(self, t: float) -> np.ndarray:
        lam = self._lam.get(t)
        if lam is not None:
            return lam
        # tolerant match against cached keys (reverse-flow midpoints can
        # differ from forward ones in the last bit)
        i = np.searchsorted(self._keys, t)
        for j in (i - 1, i):
            if 0 <= j < len(self._keys) and abs(self._keys[j] - t) <= 1e-9:
                return self._lam[self._keys[j]]
        return self._insert(t)

    def _insert(self, t: float) -> np.ndarray:
        times, states = self.ode_times, self._path.states
        if not 0.0 <= t <= times[-1]:
            raise ValueError(f"time {t} outside the path range")
        j = max(1, int(np.searchsorted(times, t)))   # t in [times[j-1], times[j]]
        frac = (t - times[j - 1]) / (times[j] - times[j - 1])
        other = None if j == 1 else states[j - 2].hu   # H(0) = 0
        lam = np.linalg.eigvalsh(_unpack(states[j - 1].hu, self.n, other=other, frac=frac))
        self._lam[t] = lam
        self._keys = np.array(sorted(self._lam))
        return lam

    def __call__(self, t: float, w: complex) -> complex:
        return complex(np.mean(1.0 / (self._eigenvalues(t) - w)))


def _rk4(f, t, x, dt):
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate(drift_field, x0: complex, dom: SpectralDomain,
               t_grid: np.ndarray, reverse_time: bool) -> CharacteristicCurve:
    """The one fixed-step RK4 loop behind both characteristic flows.

    Forward, it solves d/dt x = -field(t, x) on t_grid and stops at
    Im = eta/4: the stopping time is located by bisection on the final
    step's length, after which position and trace value are frozen.
    Reversed, it solves d/ds x = +field(1 - s, x) on s = 1 - t_grid
    (reversed) and never stops; the s-grid mirrors t_grid so field
    evaluations land on the same times.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if reverse_time:
        grid, stop_level = 1.0 - t_grid[::-1], None

        def trace(s, w):
            return drift_field(1.0 - s, w)
        f = trace
    else:
        grid, stop_level, trace = t_grid, 0.25 * dom.eta, drift_field

        def f(t, w):
            return -drift_field(t, w)

    m = grid.size
    xi = np.empty(m, dtype=complex)
    r = np.empty(m, dtype=complex)
    xi[0] = x0
    r[0] = trace(grid[0], x0)
    tau = None
    for k in range(m - 1):
        t, dt = grid[k], grid[k + 1] - grid[k]
        nxt = _rk4(f, t, xi[k], dt)
        if not np.isfinite(nxt):
            var = "s" if reverse_time else "t"
            raise ODEStepFailure(f"non-finite position at {var} = {grid[k + 1]:.6g}")
        if stop_level is None or nxt.imag > stop_level:
            xi[k + 1] = nxt
            r[k + 1] = trace(grid[k + 1], nxt)
            continue
        # locate the crossing on the step fraction; root evaluations reuse
        # the cached field times at the interval ends and midpoint
        def gap(s):
            return _rk4(f, t, xi[k], s * dt).imag - stop_level

        from scipy import optimize   # imported on use: the only root find
        s_stop = optimize.brentq(gap, 0.0, 1.0, xtol=1e-14, rtol=1e-15)
        y = _rk4(f, t, xi[k], s_stop * dt) if s_stop > 0.0 else xi[k]
        tau = float(t + s_stop * dt)
        xi[k + 1:] = y
        r[k + 1:] = trace(tau, y)
        break
    drift_sup = float(np.max(np.abs(r - r[0])))
    return CharacteristicCurve(
        z0=x0, times=grid, xi=xi, r=r, stopped=tau is not None, tau=tau,
        drift_sup=drift_sup, ratio=drift_sup * np.sqrt(dom.n * dom.eta),
        reverse_time=reverse_time)


def flow_gamma(drift_field, z0: complex, dom: SpectralDomain,
               t_grid: np.ndarray) -> CharacteristicCurve:
    """Forward characteristic from z0, stopped at Im = eta/4."""
    z0 = complex(z0)
    if not dom.in_D0(z0):
        raise ValueError(f"initial point {z0:.6g} outside the initial domain")
    return _integrate(drift_field, z0, dom, t_grid, reverse_time=False)


def flow_lambda(drift_field, zeta: complex, dom: SpectralDomain,
                t_grid: np.ndarray) -> CharacteristicCurve:
    """Time-reversed characteristic from zeta in the evaluation window."""
    zeta = complex(zeta)
    if not dom.in_D(zeta):
        raise ValueError(f"initial point {zeta:.6g} outside the evaluation window")
    return _integrate(drift_field, zeta, dom, t_grid, reverse_time=True)


@dataclass
class MapResult:
    """Initial point recovered by the reversed flow, with diagnostics."""

    w: complex
    residual: float     # |w + 1/w - z|, the semicircle-map defect
    in_D0: bool


def map_to_initial(drift_field, z: complex, dom: SpectralDomain,
                   t_grid: np.ndarray) -> MapResult:
    w = flow_lambda(drift_field, z, dom, t_grid).endpoint
    return MapResult(w=w, residual=float(abs(w + 1.0 / w - z)), in_D0=dom.in_D0(w))


@dataclass
class DriftDecomposition:
    """Cumulative trace drifts <F> and <A> with the reconstruction defect."""

    times: np.ndarray
    F: np.ndarray
    A: np.ndarray
    reconstruction_residual: float


def drift_decomposition(path: MatrixPath, curve: CharacteristicCurve) -> DriftDecomposition:
    """Split the trace evolution along a curve into its two drift pieces.

    Discrete increments, accumulated as trace means with R evaluated at
    the step's left endpoint:

        dF = -<R (dH - T[sigma, R] dt) R>
        dA =  <R (S[sigma, R] - <R>) R> dt

    The reconstruction defect |<R(t)> - <R(0)> - F - A| is limited by the
    step size and the second-order resolvent remainder.
    """
    if curve.reverse_time:
        raise ValueError("decomposition runs along forward curves")
    states = path.states
    n = states[0].n
    ode_times = np.concatenate([[0.0], [s.t for s in states]])
    if not np.array_equal(curve.times, ode_times):
        raise ValueError("curve grid does not match the path checkpoints")
    m = curve.times.size
    F = np.zeros(m, dtype=complex)
    A = np.zeros(m, dtype=complex)
    last = m - 1
    if curve.stopped:
        last = int(np.nonzero(curve.times >= curve.tau)[0][0]) - 1
    for k in range(last):
        dt = curve.times[k + 1] - curve.times[k]
        H0 = np.zeros((n, n)) if k == 0 else states[k - 1].H
        H1 = states[k].H
        sig = states[0].sigma if k == 0 else states[k - 1].sigma
        R = EigenResolvent(H0).full(curve.xi[k])
        RR = R @ R
        X = (H1 - H0) - dt * t_op(sig, R)
        F[k + 1] = F[k] - np.einsum("ij,ji->", X, RR) / n
        dev = (sig - 1.0 / n) @ R.diagonal()
        A[k + 1] = A[k] + (dev * RR.diagonal()).sum() * dt / n
    if last < m - 1:
        F[last + 1:] = F[last]
        A[last + 1:] = A[last]
    recon = np.max(np.abs((curve.r - curve.r[0]) - F - A)[:last + 1])
    return DriftDecomposition(times=curve.times, F=F, A=A,
                              reconstruction_residual=float(recon))


def contraction_check(curve_z: CharacteristicCurve, curve_w: CharacteristicCurve) -> float:
    """Worst ratio of |gamma(t,z) - gamma(t,w)| to its contraction bound.

    The bound is sqrt(Im z Im w / (Im gamma_t(z) Im gamma_t(w))) |z - w|;
    values <= 1 + slack certify the pathwise contraction inequality.
    Curves must share a grid; only the common unstopped prefix counts.
    """
    if not np.array_equal(curve_z.times, curve_w.times):
        raise ValueError("curves must share a time grid")
    z, w = curve_z.z0, curve_w.z0
    if z == w:
        return 0.0
    good = np.ones(curve_z.times.size, dtype=bool)
    for c in (curve_z, curve_w):
        if c.stopped:
            good &= curve_z.times < c.tau
    num = np.abs(curve_z.xi - curve_w.xi)[good]
    den = (np.sqrt(z.imag * w.imag
                   / (curve_z.xi.imag * curve_w.xi.imag))[good] * abs(z - w))
    return float(np.max(num / den))
