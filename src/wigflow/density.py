"""Entry densities and their diffusion coefficients.

A centered, unit-variance density rho determines the coefficient

    a(h) = T(h) / rho(h),     T(h) = integral_h^inf k rho(k) dk,

which drives the entry martingales: the quadratic variation rate of a
rescaled entry sitting at h is a(h).  The construction requires a to be
positive, bounded and Lipschitz; sub-Gaussian tails guarantee this,
while heavier tails make a grow without bound (for exponential tails a
is asymptotically linear).  Two families are evaluated: centered Gaussian
scale mixtures in closed form (the standard Gaussian is the one-component
member) and tabulated densities.  Calibration standardizes a density spec,
tabulates rho / CDF / T / a on a working interval, runs the boundedness
heuristics, and returns one immutable object that every other module
consumes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

GAUSSIAN = "standard-gaussian"
MIXTURE = "gaussian-mixture"
TABULATED = "tabulated"

_SQRT2PI = np.sqrt(2.0 * np.pi)
# Truncation density level: the working interval ends where rho falls below this.
_RHO_CUT = 1e-20
# Tabulation points on [-h_max, h_max]; odd, so the grid contains 0.
_RESOLUTION = 4001
# Unbounded-a heuristic: relative growth allowed over the outer fraction of the interval.
_WINDOW_FRAC = 0.2
_GROWTH_TOL = 0.10
# Admissibility bounds checked by verify_assumption.
_A_BOUND = 100.0
_LIPSCHITZ_BOUND = 100.0
_MOMENT_TOL = 1e-8
_INTEGRAL_TOL = 1e-8
# Density keys each kind reads from a config.
_CONFIG_KEYS = {GAUSSIAN: {"kind"}, MIXTURE: {"kind", "weights", "sigmas"},
                TABULATED: {"kind", "grid_h", "grid_rho"}}


class DensityError(Exception):
    """Base class for calibration and evaluation failures."""


class NonPositiveDensity(DensityError):
    """Tabulated density value is zero or negative on the working interval."""


class UnboundedA(DensityError):
    """Diffusion coefficient keeps growing at the grid ends.

    Signals tails heavier than sub-Gaussian, outside the admissible class.
    """


class MomentFailure(DensityError):
    """The spec cannot be standardized to mean zero and unit variance."""


class OutOfRange(DensityError):
    """Evaluation point outside the working interval with clamping disabled."""


class QuadratureFailure(DensityError):
    """A quadrature underlying reconstruction did not converge."""


def _mix_sum(coef, h, s):
    """sum_i coef_i phi(h / s_i) for the standard normal density phi."""
    z = np.asarray(h, dtype=float)[..., None] / s
    return (coef * (np.exp(-0.5 * np.square(z)) / _SQRT2PI)).sum(axis=-1)


@dataclass
class DensitySpec:
    """Declarative description of an entry density before calibration.

    The standard Gaussian is the one-component centered mixture: it keeps
    its own kind label but carries weights (1,) and sigmas (1,).
    """

    kind: str
    weights: tuple = ()            # the Gaussian and mixture kinds
    sigmas: tuple = ()             # component standard deviations
    grid_h: np.ndarray | None = None   # tabulated only
    grid_rho: np.ndarray | None = None

    @classmethod
    def gaussian(cls) -> "DensitySpec":
        return cls(kind=GAUSSIAN, weights=(1.0,), sigmas=(1.0,))

    @classmethod
    def mixture(cls, weights: Sequence[float], sigmas: Sequence[float]) -> "DensitySpec":
        return cls(kind=MIXTURE, weights=tuple(float(w) for w in weights),
                   sigmas=tuple(float(s) for s in sigmas))

    @classmethod
    def tabulated(cls, grid_h: Sequence[float], grid_rho: Sequence[float]) -> "DensitySpec":
        return cls(kind=TABULATED, grid_h=np.asarray(grid_h, dtype=float),
                   grid_rho=np.asarray(grid_rho, dtype=float))

    @classmethod
    def from_config(cls, cfg: Mapping) -> "DensitySpec":
        if not isinstance(cfg, Mapping):
            raise ValueError(f"expected an object, got {type(cfg).__name__}")
        kind = cfg.get("kind")
        if kind not in _CONFIG_KEYS:
            raise ValueError(f"unknown density kind: {kind!r}")
        extra = set(cfg) - _CONFIG_KEYS[kind]
        if extra:
            raise ValueError(f"density keys {sorted(extra)} do not belong to kind {kind!r}")
        if kind == GAUSSIAN:
            return cls.gaussian()
        if kind == MIXTURE:
            return cls.mixture(cfg["weights"], cfg["sigmas"])
        return cls.tabulated(cfg["grid_h"], cfg["grid_rho"])

    def validate(self) -> None:
        if self.kind == GAUSSIAN and (self.weights, self.sigmas) != ((1.0,), (1.0,)):
            raise MomentFailure("standard-gaussian carries weights (1,) and sigmas (1,)")
        if self.kind in (GAUSSIAN, MIXTURE):
            w = np.asarray(self.weights, dtype=float)
            s = np.asarray(self.sigmas, dtype=float)
            if w.size == 0 or w.size != s.size:
                raise MomentFailure("mixture needs matching nonempty weights and sigmas")
            if np.any(w <= 0) or np.any(s <= 0):
                raise MomentFailure("mixture weights and sigmas must be positive")
            if abs(w.sum() - 1.0) > 1e-12:
                raise MomentFailure(f"mixture weights sum to {w.sum():.16g}, not 1")
            return
        if self.kind == TABULATED:
            h = self.grid_h
            v = self.grid_rho
            if h is None or v is None or h.size < 8 or h.size != v.size:
                raise MomentFailure("tabulated spec needs matching abscissae and values")
            if np.any(np.diff(h) <= 0):
                raise MomentFailure("tabulated abscissae must be strictly increasing")
            if np.any(v <= 0):
                raise NonPositiveDensity("tabulated density must be strictly positive")
            return
        raise ValueError(f"unknown density kind: {self.kind!r}")


# Exact moments of a piecewise-linear density over its segments.  Writing
# the segment as k = x0 + u*dx, rho = v0 + u*dv with u in [0, 1]:
#   integral rho dk      = dx * (v0 + dv/2)
#   integral k rho dk    = dx * (x0*v0 + (x0*dv + dx*v0)/2 + dx*dv/3)
#   integral k^2 rho dk  = dx * (x0^2*v0 + (x0^2*dv + 2*x0*dx*v0)/2
#                                + (2*x0*dx*dv + dx^2*v0)/3 + dx^2*dv/4)
def _segment_moments(h: np.ndarray, v: np.ndarray):
    x0, dx = h[:-1], np.diff(h)
    v0, dv = v[:-1], np.diff(v)
    m0 = dx * (v0 + dv / 2.0)
    m1 = dx * (x0 * v0 + (x0 * dv + dx * v0) / 2.0 + dx * dv / 3.0)
    m2 = dx * (x0 ** 2 * v0 + (x0 ** 2 * dv + 2 * x0 * dx * v0) / 2.0
               + (2 * x0 * dx * dv + dx ** 2 * v0) / 3.0 + dx ** 2 * dv / 4.0)
    return m0, m1, m2


def _tail_rate(h: np.ndarray, logv_end: float, logv_prev: float) -> float:
    # local exponential decay rate -d(log rho)/dh at the grid end
    return (logv_prev - logv_end) / (h[-1] - h[-2])


@dataclass
class CalibratedDensity:
    """A standardized density with its tabulated diffusion coefficient.

    Immutable after calibration; safe for concurrent read-only use.
    """

    kind: str
    h_max: float
    grid: np.ndarray
    rho_grid: np.ndarray
    a_grid: np.ndarray
    cdf_grid: np.ndarray
    a_sup: float
    lipschitz_estimate: float
    mean: float
    variance: float
    integral_rho: float
    integral_a_rho: float
    # closed-form mixture parameters after standardization (empty otherwise);
    # components sorted by sigma ascending, exponent shifts relative to the
    # widest component (see _a_unchecked)
    mix_w: np.ndarray = field(default_factory=lambda: np.empty(0))
    mix_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    mix_cshift: np.ndarray = field(default_factory=lambda: np.empty(0))
    # tabulated interpolation tables (empty otherwise)
    tab_h: np.ndarray = field(default_factory=lambda: np.empty(0))
    tab_rho: np.ndarray = field(default_factory=lambda: np.empty(0))
    tab_T: np.ndarray = field(default_factory=lambda: np.empty(0))
    # reconstruction cache, built lazily on first use
    _recon: tuple | None = field(default=None, repr=False, compare=False)

    # -- pointwise evaluators ------------------------------------------------

    def rho(self, h):
        if self.kind == TABULATED:
            return np.interp(h, self.tab_h, self.tab_rho)
        return _mix_sum(self.mix_w / self.mix_s, h, self.mix_s)

    def cdf(self, h):
        h = np.asarray(h, dtype=float)
        if self.kind == TABULATED:
            return np.interp(h, self.grid, self.cdf_grid)
        return (self.mix_w * ndtr(h[..., None] / self.mix_s)).sum(axis=-1)

    def quantile(self, p):
        p = np.asarray(p, dtype=float)
        if self.mix_s.size == 1:
            # one component has a closed-form inverse (ndtri for the Gaussian)
            return self.mix_s[0] * ndtri(p)
        x = np.interp(p, self.cdf_grid, self.grid)
        if self.kind == TABULATED:
            return x
        # Newton polish on the analytic CDF; three steps reach round-off
        for _ in range(3):
            x = x - (self.cdf(x) - p) / np.maximum(self.rho(x), 1e-300)
        return np.clip(x, -self.h_max, self.h_max)

    def tail_moment(self, h):
        """T(h) = integral_h^inf k rho(k) dk."""
        if self.kind == TABULATED:
            return np.interp(h, self.tab_h, self.tab_T)
        return _mix_sum(self.mix_w * self.mix_s, h, self.mix_s)

    def a_of_h(self, h):
        """Diffusion coefficient a(h) = T(h)/rho(h) for |h| <= h_max."""
        h = np.asarray(h, dtype=float)
        if np.any(np.abs(h) > self.h_max):
            bad = float(np.max(np.abs(h)))
            raise OutOfRange(f"|h| = {bad:.6g} exceeds working interval h_max = {self.h_max:.6g}")
        return self._a_unchecked(h)

    def a_clamped(self, h, out=None, work=None):
        """a at h clamped into the working interval; returns (values, clamp count).

        Used by SDE integrators: rare excursions past h_max must not abort
        a trial, but they are counted and reported.  Hot loops pass out (may
        be h) and work, a (4, h.size) scratch array, and no float array is made.
        """
        h = np.asarray(h, dtype=float)
        mag = np.abs(h) if work is None else np.abs(h, out=work[0])
        n_clamped = int(np.count_nonzero(mag > self.h_max))
        if n_clamped:
            h = np.clip(h, -self.h_max, self.h_max, out=out)
        return self._a_unchecked(h, out, work), n_clamped

    def _a_unchecked(self, h, out=None, work=None):
        if self.kind == TABULATED:
            a = np.interp(h, self.grid, self.a_grid)
            if out is None:
                return a
            out[...] = a
            return out
        # Factor out the widest component's exponential: its exponent
        # dominates all others for every h, so each remaining component
        # contributes exp of a nonpositive shift and the ratio stays finite
        # at large |h| (limit: sigma_max^2; for one component, such as the
        # Gaussian, a is that constant exactly, with no 0/0 underflow).
        # This is the SDE hot path; one exp call per extra component.
        w, s, cs = self.mix_w, self.mix_s, self.mix_cshift
        x2, den, e, we = work if work is not None else [np.empty_like(h) for _ in range(4)]
        np.square(h, out=x2)
        num = np.empty_like(x2) if out is None else out
        num.fill(w[-1] * s[-1])
        den.fill(w[-1] / s[-1])
        for i in range(len(s) - 1):
            np.exp(np.multiply(cs[i], x2, out=e), out=e)
            num += np.multiply(w[i] * s[i], e, out=we)
            den += np.multiply(w[i] / s[i], e, out=we)
        return np.divide(num, den, out=out)

    # -- reconstruction ------------------------------------------------------

    def reconstruct_pdf(self, h):
        """Recover the density from a alone.

        Evaluates rho_hat(h) = C * a(h)^{-1} * exp(-integral_0^h k/a(k) dk)
        with C fixed by normalization; for a calibrated density this inverts
        the defining relation of a, so rho_hat must match rho.
        """
        h = np.asarray(h, dtype=float)
        if np.any(np.abs(h) > self.h_max):
            raise OutOfRange("reconstruction query outside the working interval")
        grid_r, rho_hat = self._reconstruction_table()
        return np.interp(h, grid_r, rho_hat)

    def _reconstruction_table(self):
        if self._recon is None:
            from scipy import integrate   # imported on use: slow to import
            n = 65537
            grid_r = np.linspace(-self.h_max, self.h_max, n)
            mid = n // 2            # grid_r[mid] == 0.0
            integrand = grid_r / self._a_unchecked(grid_r)
            iu = integrate.cumulative_simpson(integrand[mid:], x=grid_r[mid:], initial=0.0)
            il = integrate.cumulative_simpson(integrand[mid::-1], x=-grid_r[mid::-1], initial=0.0)
            expo = np.concatenate([-il[::-1][:-1], iu])   # integral_0^h k/a dk
            un = np.exp(-(expo - expo.min())) / self._a_unchecked(grid_r)
            if not np.all(np.isfinite(un)):
                raise QuadratureFailure("non-finite reconstruction integrand")
            norm = integrate.simpson(un, x=grid_r)
            if not np.isfinite(norm) or norm <= 0:
                raise QuadratureFailure("reconstruction normalization failed")
            self._recon = (grid_r, un / norm)
        return self._recon


@dataclass
class AssumptionReport:
    """Measured hypotheses of the admissibility assumption with pass flags."""

    a_sup: float
    lipschitz_estimate: float
    mean: float
    variance: float
    integral_a_rho: float
    integral_rho: float
    bounded_ok: bool
    lipschitz_ok: bool
    moments_ok: bool
    integral_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def verify_assumption(cd: CalibratedDensity) -> AssumptionReport:
    """Report the admissibility diagnostics of a calibrated density."""
    bounded_ok = bool(cd.a_sup <= _A_BOUND)
    lipschitz_ok = bool(cd.lipschitz_estimate <= _LIPSCHITZ_BOUND)
    moments_ok = bool(abs(cd.mean) <= _MOMENT_TOL and abs(cd.variance - 1.0) <= _MOMENT_TOL)
    integral_ok = bool(abs(cd.integral_a_rho - 1.0) <= _INTEGRAL_TOL
                       and abs(cd.integral_rho - 1.0) <= _INTEGRAL_TOL)
    return AssumptionReport(
        a_sup=cd.a_sup, lipschitz_estimate=cd.lipschitz_estimate,
        mean=cd.mean, variance=cd.variance,
        integral_a_rho=cd.integral_a_rho, integral_rho=cd.integral_rho,
        bounded_ok=bounded_ok, lipschitz_ok=lipschitz_ok,
        moments_ok=moments_ok, integral_ok=integral_ok,
        passed=bounded_ok and lipschitz_ok and moments_ok and integral_ok,
    )


def sample_iid(cd: CalibratedDensity, n: int, gen: np.random.Generator) -> np.ndarray:
    """Draw n iid samples by inverse-CDF transform of uniforms from gen."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return cd.quantile(gen.random(int(n)))


# -- calibration -------------------------------------------------------------

def _detect_unbounded_a(grid, a_grid, h_max):
    """Flag a that keeps growing through the outermost window of the grid.

    For admissible densities a flattens toward its bounded limit well before
    the interval end (the interval extends to rho ~ 1e-20); sustained growth
    there is the signature of super-linear T/rho, i.e. tails at or heavier
    than exponential.
    """
    lo = (1.0 - _WINDOW_FRAC) * h_max
    for side in (+1, -1):
        mask = side * grid >= lo
        win = a_grid[mask] if side > 0 else a_grid[mask][::-1]  # order by |h|
        if win.size < 4:
            continue
        ratio = win[-1] / win[0]
        growing = np.mean(np.diff(win) > 0)
        if ratio > 1.0 + _GROWTH_TOL and growing >= 0.9:
            raise UnboundedA(
                f"a grows by factor {ratio:.4g} over the outer window "
                f"[{lo:.3g}, {h_max:.3g}] on side {side:+d} "
                f"(threshold {1 + _GROWTH_TOL:.3g}); tails too heavy")


def _auto_h_max(rho_fn: Callable, floor: float, cap: float = 40.0) -> float:
    """Smallest h with rho < 1e-20, at least `floor`."""
    probe = np.linspace(floor, cap, 2048)
    vals = rho_fn(probe)
    below = np.nonzero(vals < _RHO_CUT)[0]
    if below.size == 0:
        return cap
    return float(probe[below[0]])


def calibrate(spec: DensitySpec) -> CalibratedDensity:
    """Standardize a density spec and tabulate rho, CDF, T and a.

    Raises NonPositiveDensity, MomentFailure, or UnboundedA when the spec
    falls outside the admissible class.
    """
    spec.validate()

    if spec.kind != TABULATED:
        # closed-form centered mixture; the Gaussian is its one-component case
        w = np.asarray(spec.weights, dtype=float)
        s = np.asarray(spec.sigmas, dtype=float)
        w = w / w.sum()
        var0 = float((w * s ** 2).sum())
        if not np.isfinite(var0) or var0 <= 0:
            raise MomentFailure(f"mixture variance {var0} cannot be standardized")
        s = s / np.sqrt(var0)          # now sum w s^2 == 1 (centered components)
        order = np.argsort(s)
        w, s = w[order], s[order]
        c = -0.5 / np.square(s)
        hm = _auto_h_max(lambda h: _mix_sum(w / s, h, s), floor=10.0 * float(s.max()))
        grid = np.linspace(-hm, hm, _RESOLUTION)
        mass = ndtr(hm / s) - ndtr(-hm / s)     # per component, on [-hm, hm]
        cd = CalibratedDensity(
            kind=spec.kind, h_max=hm, grid=grid, rho_grid=_mix_sum(w / s, grid, s),
            a_grid=np.empty(0), cdf_grid=np.empty(0),
            a_sup=0.0, lipschitz_estimate=0.0, mean=0.0,
            variance=float((w * s ** 2).sum()),
            integral_rho=float((w * mass).sum()),
            # a*rho == T pointwise, and T integrates to s^2 times the mass
            integral_a_rho=float((w * s ** 2 * mass).sum()),
            mix_w=w, mix_s=s, mix_cshift=c - c[-1])
        cd.cdf_grid = cd.cdf(grid)
        cd.a_grid = cd._a_unchecked(grid)
        cd.a_sup = float(cd.a_grid.max())
        d = np.gradient(cd.a_grid, grid)
        cd.lipschitz_estimate = float(np.abs(d).max())
        _detect_unbounded_a(grid, cd.a_grid, hm)
        return cd

    # tabulated: all moments are computed exactly on the piecewise-linear model
    h0 = np.asarray(spec.grid_h, dtype=float)
    v0 = np.asarray(spec.grid_rho, dtype=float)
    m0, m1, _ = _segment_moments(h0, v0)
    mass = m0.sum()
    if not np.isfinite(mass) or mass <= 0:
        raise MomentFailure("tabulated density has non-finite or zero mass")
    v0 = v0 / mass
    m0, m1, m2 = _segment_moments(h0, v0)
    mu = m1.sum()
    var = m2.sum() - mu ** 2
    if not np.isfinite(var) or var <= 1e-12:
        raise MomentFailure(f"tabulated variance {var:.6g} cannot be standardized")
    sd = np.sqrt(var)
    h1 = (h0 - mu) / sd
    v1 = v0 * sd                   # affine change of variables keeps mass 1

    hm_limit = float(min(h1[-1], -h1[0]))
    hm = min(hm_limit, _auto_h_max(
        lambda x: np.interp(x, h1, v1, left=0.0, right=0.0), floor=min(10.0, hm_limit)))

    # restrict the table to [-hm, hm], inserting exact boundary nodes
    inner = (h1 > -hm) & (h1 < hm)
    th = np.concatenate([[-hm], h1[inner], [hm]])
    tv = np.interp(th, h1, v1)
    m0, m1, m2 = _segment_moments(th, tv)
    mass_in = m0.sum()
    tv = tv / mass_in
    m0, m1, m2 = _segment_moments(th, tv)

    # Exact upper-tail first moments at the nodes, plus an exponential-tail
    # correction at each end estimated from the local log-slope.  Accumulate
    # from the near end on each side of 0 so every node's value is a sum of
    # same-sign terms and positivity is structural, not numerical.
    with np.errstate(divide="ignore"):
        lr = _tail_rate(th, np.log(tv[-1]), np.log(tv[-2]))
        ll = _tail_rate(-th[::-1], np.log(tv[0]), np.log(tv[1]))
    right_corr = tv[-1] * (th[-1] / lr + 1.0 / lr ** 2) if lr > 0 else 0.0
    left_corr = tv[0] * (th[-1] / ll + 1.0 / ll ** 2) if ll > 0 else 0.0
    from_right = np.concatenate([[0.0], m1[::-1]]).cumsum()[::-1] + right_corr
    from_left = np.concatenate([[0.0], -m1]).cumsum() + left_corr
    T_nodes = np.where(th >= 0.0, from_right, from_left)
    if np.any(T_nodes <= 0):
        raise MomentFailure("tail moment not positive on the working interval")

    grid = np.linspace(-hm, hm, _RESOLUTION)
    rho_g = np.interp(grid, th, tv)
    if np.any(rho_g <= 0):
        raise NonPositiveDensity("tabulated density vanishes inside the working interval")
    a_nodes = T_nodes / tv
    a_g = np.interp(grid, th, a_nodes)
    cdf_nodes = np.concatenate([[0.0], m0]).cumsum()
    cdf_g = np.interp(grid, th, cdf_nodes)

    mu2 = m1.sum()
    var2 = m2.sum() - mu2 ** 2
    # integral of a*rho equals integral of T; exact for the piecewise-linear
    # model via integration by parts: [h T] + integral h^2 rho
    int_T = th[-1] * T_nodes[-1] + th[-1] * T_nodes[0] + m2.sum()

    cd = CalibratedDensity(
        kind=TABULATED, h_max=hm, grid=grid, rho_grid=rho_g,
        a_grid=a_g, cdf_grid=cdf_g,
        a_sup=float(a_nodes.max()),
        lipschitz_estimate=float(np.abs(np.gradient(a_g, grid)).max()),
        mean=float(mu2), variance=float(var2),
        integral_rho=float(m0.sum()), integral_a_rho=float(int_T),
        tab_h=th, tab_rho=tv, tab_T=T_nodes)
    _detect_unbounded_a(grid, a_g, hm)
    return cd
