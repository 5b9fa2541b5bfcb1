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
matrix path through cached eigenvalue tables at the checkpoint times and
the midpoints the integrator visits.  The tables are independent
decompositions; SpectralLanes runs them on concurrent lanes, from the
moment each checkpoint state exists.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from .domains import SpectralDomain
from .martingale import MatrixPath, _unpack
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


def _checkpoint_table(state, _prev, buf):
    vars(state)["eigenvalues"] = np.linalg.eigvalsh(_unpack(state.hu, state.n, buf))


def _midpoint_table(state, prev, buf):
    t0, other = (0.0, None) if prev is None else (prev.t, prev.hu)
    state.midpoints[t0] = np.linalg.eigvalsh(_unpack(state.hu, state.n, buf, other, 0.5))


def _basis(state, _prev, buf):
    vars(state)["resolvent"] = EigenResolvent._of(_unpack(state.hu, state.n, buf))


class SpectralLanes:
    """Eigendecompositions of matrix states, run from the moment they are queued.

    Used as a `with` block.  The first queued job starts lanes - 1 helper
    threads, which work through the queue while the caller goes on (say,
    integrating the path whose states it queues).  Leaving the block drains
    the queue (`drain`): the calling thread joins as the last lane until it
    is empty, then every helper is joined and the first job error, if any,
    is raised.  An error inside the block drops the queue instead.  So one
    lane starts no thread, and no thread outlives the block.

    Each result goes into a cache of its state (`eigenvalues`, `midpoints`,
    `resolvent`), so the lane count changes no value and a filled cache
    queues nothing.  Lane code calls numpy and private helpers only, and it
    fills the caches itself: reading `state.eigenvalues` from a lane would
    serialize the lanes (cached_property locks the whole class on 3.11).
    """

    def __init__(self, lanes: int = 1):
        self._lanes = lanes
        self._jobs = deque()
        self._ready = threading.Condition()
        self._closed = False
        self._helpers = []
        self._errors = []

    def tables(self, prev, state) -> None:
        """Queue the trace tables read at `state`: the midpoint back to `prev`,
        the previous checkpoint (None: t = 0), and the state itself."""
        jobs = []
        if (0.0 if prev is None else prev.t) not in state.midpoints:
            jobs.append((_midpoint_table, state, prev))
        if "eigenvalues" not in vars(state):
            jobs.append((_checkpoint_table, state, None))
        self._submit(jobs, first=False)

    def basis(self, state) -> None:
        """Queue the eigh basis of `state` ahead of every queued table: the
        longest job starts first."""
        if "resolvent" not in vars(state):
            self._submit([(_basis, state, None)], first=True)

    def _submit(self, jobs, first):
        with self._ready:
            if self._errors:
                return
            if first:
                self._jobs.extendleft(reversed(jobs))
            else:
                self._jobs.extend(jobs)
            self._ready.notify(len(jobs))
        if jobs and not self._helpers:
            self._helpers = [threading.Thread(target=self._lane, daemon=True)
                             for _ in range(self._lanes - 1)]
            for helper in self._helpers:
                helper.start()

    def _lane(self):
        buf = None   # one N x N matrix per lane, reused by every job
        while True:
            with self._ready:
                while not self._jobs and not self._closed:
                    self._ready.wait()
                if not self._jobs:
                    return
                job, state, prev = self._jobs.popleft()
            n = state.n
            if buf is None or buf.shape[0] != n:
                buf = np.empty((n, n))
            try:
                job(state, prev, buf)
            except Exception as exc:
                with self._ready:
                    self._errors.append(exc)
                    self._jobs.clear()

    def _close(self, drop: bool) -> None:
        with self._ready:
            self._closed = True
            if drop:
                self._jobs.clear()
            self._ready.notify_all()
        if drop:
            for helper in self._helpers:
                helper.join()

    def drain(self) -> None:
        """Work as the last lane until the queue is empty, join the helpers,
        and raise the first job error; leaving the block calls this."""
        self._close(drop=False)
        self._lane()
        for helper in self._helpers:
            helper.join()
        if self._errors:
            raise self._errors[0]

    def __enter__(self) -> "SpectralLanes":
        return self

    def __exit__(self, exc_type, _exc, _tb):
        if exc_type is None:
            self.drain()
        else:
            self._close(drop=True)
        return False


class PathTraceEvaluator:
    """Resolvent trace field of a matrix path.

    Eigenvalues of H(t) are tabulated at the ODE grid times (t = 0 plus the
    path checkpoints) and at interval midpoints, with the packed H(t)
    interpolated linearly between checkpoints.  The tables are computed on
    `lanes` SpectralLanes, unless the states' caches already hold them (a
    run queues them while the path integrates), and keyed by time, so the
    lane count changes no value.  Off-table times (reached only by
    stopping-time bisection) decompose on demand and join the cache.
    """

    def __init__(self, path: MatrixPath, lanes: int = 1):
        self._path = path
        states = path.states
        if len(states) < 2:
            raise ValueError("path must retain at least two checkpoints")
        self.n = states[0].n
        self.ode_times = np.concatenate([[0.0], [s.t for s in states]])
        with SpectralLanes(lanes) as spectral:
            for prev, s in zip([None] + states[:-1], states):
                spectral.tables(prev, s)
        self._lam = {0.0: np.zeros(self.n)}
        prev_t = 0.0
        for s in states:
            self._lam[prev_t + 0.5 * (s.t - prev_t)] = s.midpoints[prev_t]
            self._lam[s.t] = s.eigenvalues
            prev_t = s.t
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
        states = self._path.states
        cpt = self.ode_times[1:]
        if not 0.0 <= t <= cpt[-1]:
            raise ValueError(f"time {t} outside the path range")
        j = int(np.searchsorted(cpt, t))
        if j == 0:
            frac = t / cpt[0]
            hu = frac * states[0].hu
        else:
            t0, t1 = cpt[j - 1], cpt[j]
            frac = (t - t0) / (t1 - t0)
            hu = (1.0 - frac) * states[j - 1].hu + frac * states[j].hu
        lam = np.linalg.eigvalsh(_unpack(hu, self.n))
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
