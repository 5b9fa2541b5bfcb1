"""Scalar and matrix-entry martingales with prescribed marginals.

The scalar SDE  dh = a(h/sqrt(t))^{1/2} db  keeps h(t)/sqrt(t) distributed
as the calibrated density rho at every time.  The matrix version applies
the same dynamics entrywise at scale N^{-1/2},

    dH_ij = N^{-1/2} a(sqrt(N/t) H_ij)^{1/2} dB_ij,     B_ij = B_ji,

so that H(1) is a Wigner matrix with entry law rho and entry variance 1/N.
The instantaneous variance rates sigma_ij = a(sqrt(N/t) H_ij)/N form the
profile that feeds the self-energy operator.  A state stores the upper
triangle of H alone (4 MB at N = 1000) and rebuilds H and sigma from it on
each access, at O(N^2) cost.  One kernel advances matrix paths, single steps
and scalar paths.

The SDE is singular at t = 0 (the coefficient argument is 0/0), so paths
are initialized at a small t_init > 0 by sampling the known marginal
sqrt(t_init) * rho directly; the marginal law at every later grid time is
then inherited from the construction rather than from integrating through
the singular start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from math import isqrt

import numpy as np
from scipy import linalg

from . import streams
from .density import CalibratedDensity, sample_iid
from .resolvent import EigenResolvent


class InvalidStep(Exception):
    """Nonpositive step or a step overshooting the terminal time."""


def geometric_uniform_schedule(t_init: float = 1e-3, n_steps: int = 2000,
                               t_switch: float = 0.05,
                               geometric_frac: float = 0.25) -> np.ndarray:
    """Strictly increasing times from t_init to 1.

    The first geometric_frac of the steps refine geometrically up to
    t_switch, where the coefficient argument sqrt(N/t) H varies fastest;
    the remainder is uniform.
    """
    if not 0.0 < t_init < t_switch < 1.0:
        raise ValueError("need 0 < t_init < t_switch < 1")
    n_geo = max(1, int(round(n_steps * geometric_frac)))
    if n_geo >= n_steps:
        raise ValueError("geometric_frac leaves no uniform steps")
    geo = np.geomspace(t_init, t_switch, n_geo + 1)
    uni = np.linspace(t_switch, 1.0, n_steps - n_geo + 1)[1:]
    return np.concatenate([geo, uni])


def checkpoint_times(schedule: np.ndarray, n_checkpoints: int = 51) -> np.ndarray:
    """A coarse subset of schedule times (log near the start, then uniform).

    Every returned time is an exact element of the schedule, so paths land
    on checkpoints without interpolation.
    """
    t0, t1 = schedule[0], schedule[-1]
    n_log = max(2, n_checkpoints // 6)
    want = np.concatenate([np.geomspace(t0, 0.05, n_log),
                           np.linspace(0.05, t1, n_checkpoints - n_log)])
    idx = np.unique(np.searchsorted(schedule, want, side="left").clip(0, len(schedule) - 1))
    idx[-1] = len(schedule) - 1
    return schedule[np.unique(idx)]


@dataclass
class PathConfig:
    """Dimension, time grid, and stream identity of one matrix path."""

    n: int
    base_seed: int
    trial: int = 0
    t_init: float = 1e-3
    schedule: np.ndarray = field(default=None)
    checkpoints: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0.0 < self.t_init < 1.0:
            raise ValueError("t_init must lie in (0, 1)")
        if self.schedule is None:
            self.schedule = geometric_uniform_schedule(self.t_init)
        self.schedule = np.asarray(self.schedule, dtype=float)
        if self.schedule[0] != self.t_init:
            raise ValueError("schedule must start at t_init")
        if np.any(np.diff(self.schedule) <= 0):
            raise ValueError("schedule must be strictly increasing")
        if self.schedule[-1] != 1.0:
            raise ValueError("schedule must end at 1")
        if self.checkpoints is None:
            self.checkpoints = checkpoint_times(self.schedule)
        self.checkpoints = np.asarray(self.checkpoints, dtype=float)
        missing = np.setdiff1d(self.checkpoints, self.schedule)
        if missing.size:
            raise ValueError(f"checkpoints not on the schedule: {missing[:3]}")


@dataclass
class MatrixState:
    """H(t) as its upper triangle hu in np.triu_indices order, 4 MB at N = 1000.
    H (exactly symmetric) and sigma (the SDE step's profile, bit for bit) are
    rebuilt per access; `eigenvalues` (eigvalsh) and `resolvent` (eigh) once."""

    t: float
    hu: np.ndarray
    density: CalibratedDensity = field(repr=False, compare=False)
    clamp_count: int = 0

    @property
    def n(self) -> int:
        return (isqrt(8 * self.hu.size + 1) - 1) // 2

    @property
    def H(self) -> np.ndarray:
        return unpack(self.hu, self.n)

    @property
    def sigma(self) -> np.ndarray:
        return sigma_profile(self.density, self)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return linalg.eigvalsh(self.H, check_finite=False)

    @cached_property
    def resolvent(self) -> EigenResolvent:
        # an O(N^2) basis: read it only where two readers share it
        return EigenResolvent(self.H)


@dataclass
class MatrixPath:
    """Checkpoint states of one trial, in increasing time order."""

    config: PathConfig
    states: list
    total_clamps: int = 0

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def view(self, times) -> "MatrixPath":
        """The path restricted to the checkpoints at `times`, states shared."""
        keep = set(times)
        states = [s for s in self.states if s.t in keep]
        config = replace(self.config, checkpoints=np.array([s.t for s in states]))
        return MatrixPath(config=config, states=states, total_clamps=self.total_clamps)


def unpack(hu: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix whose upper triangle is hu, row by row."""
    M = np.empty((n, n))   # slices: 4x faster than np.triu_indices at N = 1000
    start = 0
    for i in range(n):
        M[i, i:] = M[i:, i] = hu[start:start + n - i]
        start += n - i
    return M


class _Kernel:
    """The entry SDE, advanced in place: the one copy of its update.  hu holds
    independent entries at scale n^{-1/2} (the upper triangle of H, or n_paths
    scalar paths at n = 1) at time t, su = a(sqrt(n/t) hu)/n their coefficient."""

    def __init__(self, cd: CalibratedDensity, n: int, t: float, hu: np.ndarray, gen=None):
        self.cd, self.n, self.hu, self.gen = cd, n, hu, gen
        self.z, self.work = np.empty_like(hu), np.empty((4, hu.size))  # reused by every step
        self._evaluate(t)

    @classmethod
    def exact(cls, cd, n, t, gen, size=None) -> "_Kernel":
        """Entries at time t drawn from their exact marginal sqrt(t/n) * rho."""
        x = sample_iid(cd, n * (n + 1) // 2 if size is None else size, gen)
        return cls(cd, n, t, np.sqrt(t / n) * x, gen)

    def _evaluate(self, t: float, out=None) -> None:
        """su <- a(sqrt(n/t) hu)/n, counting the entries a clamped."""
        self.t = float(t)
        x = np.multiply(self.hu, np.sqrt(self.n / t), out=out)
        self.su, self.clamps = self.cd.a_clamped(x, out=x, work=self.work)
        self.su /= self.n

    def advance(self, dt: float, t_new: float) -> None:
        """Euler-Maruyama: su <- sqrt(su dt), hu += su z, then su at t_new."""
        su = self.su
        np.sqrt(np.multiply(su, dt, out=su), out=su)
        self.hu += np.multiply(su, self.gen.standard_normal(out=self.z), out=su)
        self._evaluate(t_new, out=su)

    def state(self) -> MatrixState:
        return MatrixState(t=self.t, hu=self.hu.copy(), density=self.cd,
                           clamp_count=self.clamps)


def init_exact(cd: CalibratedDensity, n: int, t_init: float,
               gen: np.random.Generator) -> MatrixState:
    """Sample H(t_init) from its exact marginal."""
    return _Kernel.exact(cd, n, t_init, gen).state()


def sigma_profile(cd: CalibratedDensity, state: MatrixState) -> np.ndarray:
    """Recompute sigma_ij = a(sqrt(N/t) H_ij)/N from the state."""
    if state.t <= 0:
        raise ValueError("sigma profile needs t > 0")
    return unpack(_Kernel(cd, state.n, state.t, state.hu).su, state.n)


def step(cd: CalibratedDensity, state: MatrixState, dt: float,
         gen: np.random.Generator) -> MatrixState:
    """One Euler-Maruyama step of the matrix SDE."""
    if dt <= 0:
        raise InvalidStep(f"dt = {dt} must be positive")
    t_new = state.t + dt
    if t_new > 1.0 + 1e-12:
        raise InvalidStep(f"step to t = {t_new} overshoots the terminal time 1")
    kernel = _Kernel(cd, state.n, state.t, state.hu.copy(), gen)
    kernel.advance(dt, min(t_new, 1.0))
    return kernel.state()


def evolve(cd: CalibratedDensity, config: PathConfig,
           gen: np.random.Generator | None = None) -> MatrixPath:
    """Integrate the matrix SDE over the configured schedule.

    Only H at config.checkpoints is kept (sigma is recomputed from
    it when read); checkpoints=np.array([1.0]) keeps the terminal state
    alone.  The random draws do not depend on the checkpoints, so a state
    is the same bit for bit whichever other checkpoints are kept.
    """
    if gen is None:
        gen = streams.path_stream(config.base_seed, config.n, config.trial)
    sched = config.schedule
    is_checkpoint = np.isin(sched, config.checkpoints)
    kernel = _Kernel.exact(cd, config.n, config.t_init, gen)
    total_clamps = kernel.clamps
    states = [kernel.state()] if is_checkpoint[0] else []
    for k in range(len(sched) - 1):
        kernel.advance(sched[k + 1] - sched[k], sched[k + 1])
        total_clamps += kernel.clamps
        if is_checkpoint[k + 1]:
            states.append(kernel.state())
    return MatrixPath(config=config, states=states, total_clamps=total_clamps)


def evolve_scalar(cd: CalibratedDensity, t_grid: np.ndarray,
                  gen: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """Euler-Maruyama paths of the scalar martingale; shape (times, paths).

    The matrix kernel at N = 1 on n_paths independent entries.  h(t_grid[0])
    is sampled from its exact marginal sqrt(t) * rho, so the statistical
    contract h(t)/sqrt(t) ~ rho holds at the start by construction and
    approximately (to discretization order) afterwards.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] <= 0:
        raise ValueError("t_grid must start at a positive time")
    out = np.empty((t_grid.size, n_paths))
    kernel = _Kernel.exact(cd, 1, t_grid[0], gen, size=n_paths)
    out[0] = kernel.hu
    for k in range(t_grid.size - 1):
        kernel.advance(t_grid[k + 1] - t_grid[k], t_grid[k + 1])
        out[k + 1] = kernel.hu
    return out
