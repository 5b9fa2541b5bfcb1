"""Scalar and matrix-entry martingales with prescribed marginals.

The scalar SDE  dh = a(h/sqrt(t))^{1/2} db  keeps h(t)/sqrt(t) distributed
as the calibrated density rho at every time.  The matrix version applies
the same dynamics entrywise at scale N^{-1/2},

    dH_ij = N^{-1/2} a(sqrt(N/t) H_ij)^{1/2} dB_ij,     B_ij = B_ji,

so that H(1) is a Wigner matrix with entry law rho and entry variance 1/N.
The instantaneous variance rates sigma_ij = a(sqrt(N/t) H_ij)/N form the
profile that feeds the self-energy operator.  A state stores the upper
triangle of H alone (4 MB at N = 1000) and rebuilds H and sigma from it on
each access, at O(N^2) cost.  A state whose matrix is read only through
its spectra may release the triangle once they exist; reading it again
integrates the path once more from its own stream (_Replay), which
restores every released triangle of the path bit for bit.  Every
eigendecomposition of a state comes from one routine, _spectrum, and is
kept in one cache, state.spectra.  One kernel advances matrix paths,
single steps and scalar paths, in cache-sized blocks of entries, on the
normals _normals draws a chunk of steps at a time.  They do not depend
on the state, so when evolve is given a thread pool (a trial's spectral
lanes), the pool draws the next chunk while the caller applies the
current one; the draws keep their order, and so their bits.

The SDE is singular at t = 0 (the coefficient argument is 0/0), so paths
are initialized at their schedule's first time t0 > 0 by sampling the known
marginal sqrt(t0) * rho directly; the marginal law at every later grid time is
then inherited from the construction rather than from integrating through
the singular start.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

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
    """Dimension, time grid, and stream identity of one matrix path; the path
    starts at schedule[0] from its exact marginal."""

    n: int
    base_seed: int
    trial: int = 0
    schedule: np.ndarray = field(default=None)
    checkpoints: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.schedule is None:
            self.schedule = geometric_uniform_schedule()
        self.schedule = np.asarray(self.schedule, dtype=float)
        if not 0.0 < self.schedule[0] < 1.0:
            raise ValueError("schedule must start in (0, 1)")
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
    """H(t) of an n x n path as its upper triangle hu in np.triu_indices order,
    4 MB at N = 1000.  H (exactly symmetric) and sigma, the kernel's
    a(sqrt(N/t) H)/N bit for bit, are rebuilt per access by _unpack.  spectra
    holds each decomposition _spectrum made: "eigvalsh" and "eigh" (a full
    basis) of H, and under an earlier checkpoint time t0 of the same path,
    the eigvalsh table of the state halfway back to it (t0 = 0: half of H).

    release() drops hu and keeps the spectra; the next read of hu, H or sigma
    replays the path (_Replay) to restore it.  A state of a path drawn from a
    caller's generator has no replay, and releasing it raises."""

    t: float
    n: int
    _hu: np.ndarray = field(repr=False)
    density: CalibratedDensity = field(repr=False, compare=False)
    spectra: dict = field(default_factory=dict, repr=False, compare=False)
    _replay: _Replay | None = field(default=None, repr=False, compare=False)

    @property
    def hu(self) -> np.ndarray:
        if self._hu is None:
            self._replay.restore()
        return self._hu

    def release(self) -> None:
        """Drop hu, spectra kept; nothing happens if it is already dropped."""
        if self._replay is None:
            raise ValueError("a path drawn from a caller's generator cannot be replayed")
        if self._hu is not None:
            self._hu = None
            self._replay.held.append(self)
            self._replay.released += 1

    @property
    def H(self) -> np.ndarray:
        return _unpack(self.hu, self.n)

    @property
    def sigma(self) -> np.ndarray:
        if self.t <= 0:
            raise ValueError("sigma profile needs t > 0")
        return _unpack(_Kernel(self.density, self.n, self.t, self.hu).su, self.n)

    @property
    def eigenvalues(self) -> np.ndarray:
        return _spectrum(self, "eigvalsh")

    @property
    def resolvent(self) -> EigenResolvent:
        # an O(N^2) basis: read it only where two readers share it
        return _spectrum(self, "eigh")


class _Replay:
    """A path's own stream, integrated once more on demand: restore() runs
    evolve on the released states' times alone, with no pool, and gives each
    its hu back.  evolve's states do not depend on which checkpoints are
    kept, so the triangles are the released ones bit for bit.  Replays run
    on the reading thread only; released and replayed count triangles."""

    def __init__(self, cd: CalibratedDensity, config: PathConfig):
        self.cd, self.config = cd, config
        self.held = []   # released states, hu dropped
        self.released = self.replayed = 0

    def restore(self) -> None:
        held = sorted(self.held, key=lambda s: s.t)
        again = evolve(self.cd, replace(self.config, checkpoints=np.array([s.t for s in held])))
        for s, fresh in zip(held, again.states):
            s._hu = fresh._hu
        self.replayed += len(held)
        self.held = []


@dataclass
class MatrixPath:
    """Checkpoint states of one trial, in increasing time order; replay (None
    for a path drawn from a caller's generator) restores released states."""

    config: PathConfig
    states: list
    total_clamps: int = 0
    replay: _Replay | None = field(default=None, repr=False)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def view(self, times) -> "MatrixPath":
        """The path restricted to the checkpoints at `times`, states shared."""
        keep = set(times)
        states = [s for s in self.states if s.t in keep]
        config = replace(self.config, checkpoints=np.array([s.t for s in states]))
        return MatrixPath(config=config, states=states, total_clamps=self.total_clamps,
                          replay=self.replay)


# the n x n upper-triangle mask: its True entries, row by row, are hu's order
_upper = lru_cache(maxsize=8)(lambda n: np.triu(np.ones((n, n), dtype=bool)))


def _unpack(hu, n, out=None, other=None, frac=1.0):
    """The symmetric n x n matrix whose upper triangle is frac * hu +
    (1 - frac) * other (other optional), written into out if given by one mask
    assignment per triangle: the one interpolation between packed triangles."""
    M = np.empty((n, n)) if out is None else out
    vals = hu if frac == 1.0 and other is None else hu * frac
    if other is not None:
        vals += (1.0 - frac) * other   # vals is a fresh array here
    M[_upper(n)] = vals
    M.T[_upper(n)] = vals
    return M


def _spectrum(state, key, prev=None, buf=None):
    """state.spectra[key], decomposed on the first request: "eigvalsh" or
    "eigh" (an EigenResolvent) of H, or under an earlier checkpoint time,
    the eigvalsh table of the state halfway back to `prev` (None: t = 0).
    H is unpacked into buf if given.  Private, so the spectral lanes may
    call it off the calling thread (no public function runs there)."""
    if key not in state.spectra:
        frac = 1.0 if key in ("eigvalsh", "eigh") else 0.5
        H = _unpack(state.hu, state.n, buf, None if prev is None else prev.hu, frac)
        state.spectra[key] = EigenResolvent._of(H) if key == "eigh" else np.linalg.eigvalsh(H)
    return state.spectra[key]


# Entries per kernel block: the step's scratch (the four coefficient work
# rows, 1 MB) stays in cache, whatever N is.
_BLOCK = 32768
# Normals per chunk drawn ahead, rounded up to whole steps: one handoff per
# step cost evolve about 30% more CPU at N = 128/256, 2^18 (2 MB) did not.
_CHUNK = 1 << 18


class _Kernel:
    """The entry SDE, advanced in place: the one copy of its update.  hu holds
    independent entries at scale n^{-1/2} (the upper triangle of H, or n_paths
    scalar paths at n = 1) at time t, su = a(sqrt(n/t) hu)/n their coefficient.
    advance runs block by block on the step's normals, which the caller draws
    (_normals, or one draw in step); Philox normals drawn per step or per
    chunk of steps are the same bits as one draw of them all."""

    def __init__(self, cd: CalibratedDensity, n: int, t: float, hu: np.ndarray):
        self.cd, self.n, self.hu = cd, n, hu
        b = min(hu.size, _BLOCK)   # scratch of one block, reused by every step
        self.work, self.su = np.empty((4, b)), np.empty_like(hu)
        self.advance(None, t)

    @classmethod
    def exact(cls, cd, n, t, gen, size=None) -> "_Kernel":
        """Entries at time t drawn from their exact marginal sqrt(t/n) * rho."""
        x = sample_iid(cd, n * (n + 1) // 2 if size is None else size, gen)
        return cls(cd, n, t, np.sqrt(t / n) * x)

    def advance(self, dt: float | None, t_new: float, z=None) -> None:
        """Euler-Maruyama, su <- sqrt(su dt) and hu += su z (no step when dt is
        None), then su <- a(sqrt(n/t_new) hu)/n, counting the entries a clamped.
        z holds the step's normals, one per entry."""
        self.t, self.clamps = float(t_new), 0
        scale = np.sqrt(self.n / t_new)
        for lo in range(0, self.hu.size, _BLOCK):
            hu, su = self.hu[lo:lo + _BLOCK], self.su[lo:lo + _BLOCK]
            if dt is not None:
                np.sqrt(np.multiply(su, dt, out=su), out=su)
                hu += np.multiply(su, z[lo:lo + _BLOCK], out=su)
            x = np.multiply(hu, scale, out=su)
            self.clamps += self.cd.a_clamped(x, out=x, work=self.work[:, :su.size])[1]
            su /= self.n

    def state(self, replay=None) -> MatrixState:
        return MatrixState(t=self.t, n=self.n, _hu=self.hu.copy(), density=self.cd,
                           _replay=replay)


def init_exact(cd: CalibratedDensity, n: int, t_init: float,
               gen: np.random.Generator) -> MatrixState:
    """Sample H(t_init) from its exact marginal."""
    return _Kernel.exact(cd, n, t_init, gen).state()


def step(cd: CalibratedDensity, state: MatrixState, dt: float,
         gen: np.random.Generator) -> MatrixState:
    """One Euler-Maruyama step of the matrix SDE, on one draw of its normals."""
    if dt <= 0:
        raise InvalidStep(f"dt = {dt} must be positive")
    t_new = state.t + dt
    if t_new > 1.0 + 1e-12:
        raise InvalidStep(f"step to t = {t_new} overshoots the terminal time 1")
    kernel = _Kernel(cd, state.n, state.t, state.hu.copy())
    kernel.advance(dt, min(t_new, 1.0), gen.standard_normal(kernel.hu.size))
    return kernel.state()


def _normals(gen, size, steps, pool):
    """Each step's `size` normals from gen, in step order, for _Kernel.advance:
    the one source of the SDE's normals.

    Steps come in chunks of at least _CHUNK normals.  Without a pool, the
    caller draws each chunk itself into one buffer: it has applied every row
    before the next draw.  With one, double buffered, chunk c + 1 goes to
    the pool only once chunk c is drawn, so one draw at most is outstanding
    and the Philox stream is read in order.  The caller takes a chunk the pool
    has not started (future.cancel()) and draws it itself, otherwise waits for
    it.  The pool draws through a Generator of the same bit generator, built
    here: no method of gen runs off this thread.  Closing the generator waits
    out a draw still running.
    """
    per = -(-_CHUNK // size)   # whole steps per chunk
    bufs = [np.empty((min(per, steps), size)) for _ in range(1 if pool is None else 2)]
    chunks = -(-steps // per)

    def chunk(c):
        return bufs[c % len(bufs)][:min(per, steps - c * per)]

    ahead = np.random.Generator(gen.bit_generator)
    pending = None   # the draw of the chunk the caller reads next
    try:
        for c in range(chunks):
            if pending is None or pending.cancel():
                gen.standard_normal(out=chunk(c))
            else:
                pending.result()
            pending = None
            if pool is not None and c + 1 < chunks:
                pending = pool.submit(ahead.standard_normal, out=chunk(c + 1))
            yield from chunk(c)
    finally:
        if pending is not None and not pending.cancel():
            pending.exception()


def evolve(cd: CalibratedDensity, config: PathConfig,
           gen: np.random.Generator | None = None,
           on_checkpoint=None, pool=None) -> MatrixPath:
    """Integrate the matrix SDE over the configured schedule.

    Only H at config.checkpoints is kept (sigma is recomputed from
    it when read); checkpoints=np.array([1.0]) keeps the terminal state
    alone.  The random draws do not depend on the checkpoints, so a state
    is the same bit for bit whichever other checkpoints are kept.
    on_checkpoint(state), if given, receives each kept state as soon as it
    exists, while the integration goes on; its hu is never written again,
    though it may be released.  A path drawn from its own stream (gen None)
    can replay released states; one drawn from gen cannot.
    The normals come from _normals a chunk of steps at a time.  pool, a
    concurrent.futures executor if given, draws the next chunk while this
    thread applies the current one; the states are the same bit for bit, and
    no draw outlives the call.
    """
    replay = None
    if gen is None:
        gen = streams.path_stream(config.base_seed, config.n, config.trial)
        replay = _Replay(cd, config)
    sched = config.schedule
    is_checkpoint = np.isin(sched, config.checkpoints)
    kernel = _Kernel.exact(cd, config.n, sched[0], gen)
    total_clamps = kernel.clamps
    states = []
    with closing(_normals(gen, kernel.hu.size, len(sched) - 1, pool)) as normals:
        for k in range(len(sched)):
            if k:
                kernel.advance(sched[k] - sched[k - 1], sched[k], next(normals))
                total_clamps += kernel.clamps
            if is_checkpoint[k]:
                states.append(kernel.state(replay))
                if on_checkpoint is not None:
                    on_checkpoint(states[-1])
    return MatrixPath(config=config, states=states, total_clamps=total_clamps,
                      replay=replay)


def evolve_scalar(cd: CalibratedDensity, t_grid: np.ndarray,
                  gen: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """Euler-Maruyama paths of the scalar martingale; shape (times, paths).

    The matrix kernel at N = 1 on n_paths independent entries, its normals
    drawn by _normals without a pool.  h(t_grid[0])
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
    for k, z in enumerate(_normals(gen, n_paths, t_grid.size - 1, None)):
        kernel.advance(t_grid[k + 1] - t_grid[k], t_grid[k + 1], z)
        out[k + 1] = kernel.hu
    return out
