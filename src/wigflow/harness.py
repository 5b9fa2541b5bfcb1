"""Monte Carlo experiment orchestration with deterministic reports.

Four experiments read the same matrix paths H(t), one per (N, trial):

  lsc              trace-mean error |<G(1,z)> - msc(z)| over the z-grid,
                   with a log-log slope fit against N * Im z
  marginal         two-sample KS of pooled rescaled entries against the
                   direct density sampler, per (N, checkpoint time)
  entrywise        per-matrix diagonal / off-diagonal / self-consistency
                   maxima over the z-grid (run_entrywise), with slope fits
  characteristics  reversed-flow inversion, stopped-process drift,
                   pairwise contraction ratios, and self-energy ratios
                   at the curve endpoints and along thinned curves

run_experiments evolves each path once, on the union of the checkpoints
the config's experiments read, and gives every experiment a view holding
only its own checkpoint states.  Each kept state goes to the trial's
spectral lanes as soon as it exists: the trace tables of the experiments
that read them, and the t = 1 eigh basis.  The lanes work while the path
integrates, and also draw its SDE normals ahead; they are drained before
any experiment reads the path.  At each checkpoint the integrating thread
keeps the lanes' backlog to one checkpoint's tables and releases each
state whose matrix no experiment reads, only its tables, once those exist
(the next checkpoint's midpoint table included), so a trial holds a few
matrices beyond the ones it reads.  A
failure to evolve or to decompose fails the trial for every experiment, a
failure to read it for that experiment only.  The surviving results of
each experiment are reduced into one Report.

Trials are independent work units; a fork-based pool may execute them,
but results are reduced in task-submission order, so reports are byte
identical at any pool size.  Each trial process runs cores / processes
spectral lanes (threads), and BLAS runs at one thread.
CSV rows hold Python floats serialized with repr (shortest round-trip
form), which makes the files reproducible at the byte level.
"""

from __future__ import annotations

import math
import multiprocessing
import numbers
import os
import traceback
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from . import streams
from .density import CalibratedDensity, DensitySpec, calibrate, sample_iid
from .domains import SpectralDomain, msc
from .flows import (PathTraceEvaluator, SpectralLanes, contraction_check, flow_gamma,
                    map_to_initial)
from .martingale import (PathConfig, checkpoint_times, evolve,
                         geometric_uniform_schedule)
from .resolvent import EigenResolvent, self_energy_from_diag


class ConfigError(Exception):
    """Malformed or contradictory experiment configuration."""


class DegenerateFit(Exception):
    """Scaling fit attempted on data with no spread in the predictor."""


class EmptySample(Exception):
    """Quantile requested from an empty sample."""


COLUMNS = {
    "lsc": ("n", "trial", "re_z", "im_z", "abs_err", "normalizer"),
    "marginal": ("n", "t", "pooled", "ks_stat", "p_value", "rejected_1pct"),
    "entrywise": ("n", "trial", "re_z", "im_z",
                  "max_diag_err", "max_offdiag", "max_schur_residual"),
    "characteristics": ("n", "trial", "re_z", "im_z", "re_w", "im_w",
                        "map_residual", "roundtrip_err", "in_D0",
                        "drift_sup", "drift_ratio", "stopped", "tau"),
    "characteristics_pairs": ("n", "trial", "re_z1", "re_z2", "im_z",
                              "contraction_ratio"),
    "characteristics_senergy": ("n", "trial", "t", "re_z", "im_z",
                                "abs_error", "normalizer", "ratio"),
}

# A sampled pair contracts when its ratio stays within this slack of 1.
_CONTRACTION_SLACK = 0.05

_PATH_KEYS = {"n_steps", "t_init", "t_switch", "geometric_frac", "n_checkpoints"}
_DOMAIN_KEYS = {"theta", "kappa", "W", "n_im", "n_re"}
_EXPERIMENT_KEYS = {"n_values", "trials", "seed", "marginal_times", "char_im",
                    "senergy_times", "run"}
_TOP_KEYS = {"density", "path", "domain", "experiments", "output"}


def _integer(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


# the element type of each list field; every other field after density is
# one int or one real number, as annotated
_ELEMENTS = {"n_values": (_integer, "integers"), "W": (_real, "finite numbers"),
             "marginal_times": (_real, "finite numbers"),
             "experiments": (lambda v: isinstance(v, str), "names")}


def _reject_unknown(section: str, mapping, allowed: set) -> None:
    if not isinstance(mapping, Mapping):
        raise ConfigError(f"{section!r} section must be an object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {section!r} section: {sorted(unknown)}")


@dataclass
class ExperimentConfig:
    """Everything an experiment run depends on, seeds included."""

    density: DensitySpec
    n_values: tuple = (500,)
    trials: int = 10
    base_seed: int = 0
    theta: float = 0.5
    kappa: float = 0.5
    W: tuple = (-1.5, 1.5)
    n_im: int = 8
    n_re: int = 9
    n_steps: int = 2000
    t_init: float = 1e-3
    t_switch: float = 0.05
    geometric_frac: float = 0.25
    n_checkpoints: int = 51
    marginal_times: tuple = (0.25, 1.0)
    char_im: float = 0.5
    senergy_times: int = 4
    threads: int = 1
    experiments: tuple = ("lsc",)

    def __post_init__(self):
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in _ELEMENTS:
                each, kind = _ELEMENTS[f.name]
                ok = isinstance(value, (list, tuple)) and all(map(each, value))
                kind = f"a list of {kind}"
            else:
                ok = (_integer if f.type == "int" else _real)(value)
                kind = "an integer" if f.type == "int" else "a finite number"
            if not ok:
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        self.n_values = tuple(int(n) for n in self.n_values)
        self.W = tuple(float(w) for w in self.W)
        self.marginal_times = tuple(float(t) for t in self.marginal_times)
        self.experiments = tuple(str(e) for e in self.experiments)
        if not self.n_values or not self.experiments:
            raise ConfigError("n_values and the experiments to run must not be empty")
        for name in ("n_values", "experiments"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} repeats an entry: {list(values)}")
        if len(self.W) != 2:
            raise ConfigError(f"W must be an interval [lo, hi], got {list(self.W)}")
        if self.base_seed < 0:
            raise ConfigError("seed must be >= 0")
        if min(self.n_values) < 32:
            raise ConfigError("all N values must be >= 32")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.n_im < 2 or self.n_re < 2:
            raise ConfigError("z-grid needs at least 2 x 2 points")
        if self.senergy_times < 1:
            raise ConfigError("senergy_times must be >= 1")
        if not 2 <= self.n_checkpoints <= self.n_steps + 1:
            raise ConfigError("n_checkpoints must lie in [2, n_steps + 1]")
        for t in self.marginal_times:
            if not 0.0 < t <= 1.0:
                raise ConfigError(f"marginal time {t} outside (0, 1]")
        bad = set(self.experiments) - set(EXPERIMENT_NAMES)
        if bad:
            raise ConfigError(f"unknown experiments: {sorted(bad)}")
        try:
            self.schedule()
            probe = self.domain(min(self.n_values))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not probe.eta <= self.char_im <= 1.0:
            raise ConfigError(
                f"char_im = {self.char_im} outside [eta, 1] at N = {min(self.n_values)}")

    @classmethod
    def from_sections(cls, doc: Mapping) -> "ExperimentConfig":
        """Build from a parsed JSON document with fixed top-level sections.

        The output section is checked here and read by the command line."""
        if not isinstance(doc, Mapping):
            raise ConfigError("config document must be a JSON object")
        _reject_unknown("top-level", doc, _TOP_KEYS)
        if "density" not in doc:
            raise ConfigError("config requires a 'density' section")
        try:
            density = DensitySpec.from_config(doc["density"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"density section: {exc}") from exc
        path = doc.get("path", {})
        domain = doc.get("domain", {})
        exper = doc.get("experiments", {})
        output = doc.get("output", {})
        _reject_unknown("path", path, _PATH_KEYS)
        _reject_unknown("domain", domain, _DOMAIN_KEYS)
        _reject_unknown("experiments", exper, _EXPERIMENT_KEYS)
        _reject_unknown("output", output, {"dir"})
        if not isinstance(output.get("dir", ""), str):
            raise ConfigError(f"output dir must be a string, got {output['dir']!r}")
        # path and domain keys are field names; two experiment keys are not
        kwargs = {"density": density, **path, **domain}
        renamed = {"seed": "base_seed", "run": "experiments"}
        kwargs.update((renamed.get(key, key), val) for key, val in exper.items())
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def domain(self, n: int) -> SpectralDomain:
        return SpectralDomain(n=n, theta=self.theta, kappa=self.kappa, W=self.W)

    def schedule(self) -> np.ndarray:
        return geometric_uniform_schedule(
            t_init=self.t_init, n_steps=self.n_steps,
            t_switch=self.t_switch, geometric_frac=self.geometric_frac)

    @property
    def processes(self) -> int:
        """Trial processes a run uses: threads, at most one per trial."""
        return min(self.threads, len(self.n_values) * self.trials)

    def path_config(self, n: int, trial: int, checkpoints: np.ndarray) -> PathConfig:
        return PathConfig(n=n, base_seed=self.base_seed, trial=trial,
                          schedule=self.schedule(), checkpoints=checkpoints)


# ------------------------------------------------------------- fitting


@dataclass
class ScalingFit:
    """OLS of log y against log x."""

    slope: float
    intercept: float
    stderr: float
    n_points: int

    @property
    def ci95(self) -> tuple:
        half = 1.96 * self.stderr
        return (self.slope - half, self.slope + half)

    def to_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "stderr": self.stderr, "n_points": self.n_points,
                "ci95": list(self.ci95)}


def fit_scaling(xs: Sequence[float], ys: Sequence[float]) -> ScalingFit:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 3:
        raise DegenerateFit("scaling fit needs at least 3 paired points")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("scaling fit requires positive data")
    lx, ly = np.log(x), np.log(y)
    if np.ptp(lx) == 0.0:
        raise DegenerateFit("predictor has zero spread")
    # scipy.stats.linregress's operations in its order, so its slope,
    # intercept and stderr bit for bit, without importing scipy.stats
    ssxm, ssxym, _, ssym = np.cov(lx, ly, bias=1).flat
    if ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    slope = ssxym / ssxm
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (x.size - 2))
    return ScalingFit(slope=float(slope), intercept=float(np.mean(ly) - slope * np.mean(lx)),
                      stderr=float(stderr), n_points=int(x.size))


def domination_quantile(ratios: Sequence[float], q: float, n: int) -> float:
    """Exponent e with quantile_q(ratios) = n**e; small e stands in for "<<"."""
    r = np.asarray(ratios, dtype=float)
    if r.size == 0:
        raise EmptySample("no ratio samples")
    if np.any(r < 0.0):
        raise ValueError("ratio samples must be nonnegative")
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must lie in (0, 1)")
    if n < 2:
        raise ValueError("n must be >= 2")
    qv = float(np.quantile(r, q))
    if qv == 0.0:
        # a flat variance profile makes the statistic vanish identically
        raise DegenerateFit("quantile of ratios is zero, exponent undefined")
    return float(np.log(qv) / np.log(n))


# ------------------------------------------------------------------ lsc


def _lsc_trial(cfg, n, trial, path):
    lam = path.states[-1].eigenvalues
    rows = []
    for z in cfg.domain(n).z_grid(cfg.n_im, cfg.n_re).ravel():
        tm = np.mean(1.0 / (lam - z))
        rows.append((n, trial, float(z.real), float(z.imag),
                     float(abs(tm - msc(z))),
                     float(1.0 / np.sqrt(n * z.imag))))
    return rows


def _sup_of_medians(rows, col):
    """Median over trials per (N, Im z, Re z) cell, then sup over Re z.

    rows are (n, trial, re_z, im_z, ...) tuples and col picks the
    statistic.  Returns {(n, im_z): sup} in the order levels first appear.
    """
    cells = {}
    for r in rows:
        cells.setdefault((r[0], r[3], r[2]), []).append(r[col])
    med = {}
    for (n, im, re), v in cells.items():
        med.setdefault((n, im), {})[re] = float(np.median(v))
    return {level: max(by_re.values()) for level, by_re in med.items()}


def aggregate_lsc(rows, trials):
    """Median over trials per z, sup over Re per Im level, slope fit.

    Returns (sup_table, per_n, fit); sup_table rows are (n, im_z,
    sup_err, normalizer), the points the slope is fitted through; fit is
    None with fewer than three points or no spread.
    """
    raw_per_n = {}
    for r in rows:
        raw_per_n.setdefault(r[0], []).append(r[4])
    sups = _sup_of_medians(rows, 4)
    sup_table = [(n, im, sup, float(1.0 / np.sqrt(n * im)))
                 for (n, im), sup in sups.items()]
    per_n = {}
    for n, errs in raw_per_n.items():
        e = np.asarray(errs)
        top = [s for (nn, _im, s, _norm) in sup_table if nn == n]
        per_n[n] = {"sup": float(max(top)),
                    "median": float(np.median(e)),
                    "q95": float(np.quantile(e, 0.95)),
                    "observations": int(e.size),
                    "trials": trials}
    try:
        fit = fit_scaling([n * im for n, im in sups], list(sups.values()))
    except DegenerateFit:
        fit = None
    return sup_table, per_n, fit


def _lsc_reduce(cfg, _cd, results):
    rows = [r for _n, _trial, res in results for r in res]
    sup_table, per_n, fit = aggregate_lsc(rows, cfg.trials)
    return {"lsc": rows}, {
        "theta": cfg.theta,
        "grid_shape": [cfg.n_im, cfg.n_re],
        "fit": fit.to_dict() if fit else None,
        "sup_table": [list(r) for r in sup_table],
        "per_n": {str(n): v for n, v in per_n.items()},
    }


# ------------------------------------------------------------- marginal


def nearest_schedule_times(schedule: np.ndarray, targets: Sequence[float]) -> list:
    """Closest schedule entries to the requested times, sorted, deduplicated."""
    return sorted({float(schedule[np.argmin(np.abs(schedule - t))]) for t in targets})


def _marginal_trial(_cfg, _n, _trial, path):
    return {s.t: s.hu for s in path.states}   # hu is never written again


def _marginal_reduce(cfg, cd, results):
    """Pool sqrt(N/t) H_ij(t) over trials and KS-test against sample_iid.

    Entries include the diagonal (same marginal law).  The reference
    sample is drawn from a dedicated stream keyed by (N, time index) and
    matches the pooled sample size.
    """
    from scipy import stats
    pooled = {}
    for n, _trial, ent in results:
        for t, vec in ent.items():
            pooled.setdefault((n, t), []).append(vec)
    rows = []
    for n in cfg.n_values:
        t_list = sorted(t for (nn, t) in pooled if nn == n)
        for ti, t in enumerate(t_list):
            sample = np.sqrt(n / t) * np.concatenate(pooled[(n, t)])
            gen = streams.stream(cfg.base_seed, streams.PURPOSE_DIRECT, n, ti)
            direct = sample_iid(cd, sample.size, gen)
            ks = stats.ks_2samp(sample, direct)
            rows.append((n, float(t), int(sample.size),
                         float(ks.statistic), float(ks.pvalue),
                         int(ks.pvalue < 0.01)))
    return {"marginal": rows}, {
        "rows": [dict(zip(COLUMNS["marginal"], r)) for r in rows]}


# ------------------------------------------------------------ entrywise


@dataclass
class EntrywiseReport:
    """Per-matrix entrywise maxima over the z-grid."""

    rows: list                    # (re_z, im_z, max_diag_err, max_offdiag, max_schur)
    max_diag_err: float
    max_offdiag: float
    max_schur_residual: float


def run_entrywise(er: EigenResolvent, dom: SpectralDomain,
                  n_im: int = 8, n_re: int = 9) -> EntrywiseReport:
    """Entrywise resolvent statistics of one t = 1 matrix, decomposed as er.

    Per z: max_k |G_kk - msc|, max_{j != k} |G_jk|, and the
    self-consistency defect max_k |1/G_kk + z + msc| divided by the
    sqrt((1 + Im msc)/(N Im z)) normalizer.
    """
    n = er.n
    rows = []
    for z in dom.z_grid(n_im, n_re).ravel():
        m = msc(z)
        G = er.full(z)
        gd = G.diagonal()
        off = np.abs(G)
        np.fill_diagonal(off, 0.0)
        norm = np.sqrt((1.0 + m.imag) / (n * z.imag))
        rows.append((float(z.real), float(z.imag),
                     float(np.max(np.abs(gd - m))),
                     float(np.max(off)),
                     float(np.max(np.abs(1.0 / gd + z + m)) / norm)))
    arr = np.asarray([r[2:] for r in rows])
    return EntrywiseReport(rows=rows,
                           max_diag_err=float(arr[:, 0].max()),
                           max_offdiag=float(arr[:, 1].max()),
                           max_schur_residual=float(arr[:, 2].max()))


def _entrywise_trial(cfg, n, trial, path):
    rep = run_entrywise(path.states[-1].resolvent, cfg.domain(n), cfg.n_im, cfg.n_re)
    return [(n, trial) + r for r in rep.rows]


def aggregate_entrywise(rows):
    """Slope fits of the entrywise maxima against N * Im z.

    Each statistic is fitted through the per-(N, Im z) median (over
    trials) of its sup over Re z; a fit without spread is None.
    """
    fits = {}
    for col, name in ((4, "diag"), (5, "offdiag"), (6, "schur")):
        sups = _sup_of_medians(rows, col)
        try:
            fits[name] = fit_scaling([n * im for n, im in sups], list(sups.values()))
        except DegenerateFit:
            fits[name] = None
    return fits


def _entrywise_reduce(_cfg, _cd, results):
    rows = [r for _n, _trial, res in results for r in res]
    fits = aggregate_entrywise(rows)
    return {"entrywise": rows}, {
        "fits": {k: (f.to_dict() if f else None) for k, f in fits.items()}}


# ------------------------------------------------------- characteristic


def _senergy_checkpoints(cfg, m):
    """Indices k in 1..m - 1 of the ode grid (0 plus m checkpoints) whose
    states, path.states[k - 1], the interior self-energy rows read."""
    return sorted(set(np.linspace(1, m - 1, cfg.senergy_times).astype(int)))


def _characteristic_matrices(cfg, times):
    """The checkpoints whose matrices _characteristic_trial reads: t = 1
    and the interior self-energy checkpoints."""
    return times[[-1] + [k - 1 for k in _senergy_checkpoints(cfg, times.size)]]


def _characteristic_trial(cfg, n, trial, path):
    """Invert the flow from Im z = char_im, then run the forward curves.

    map_to_initial per grid point, forward stopped curves from the
    recovered points (round-trip error and drift), contraction checks on
    adjacent pairs, and self-energy ratios at t = 1 plus thinned interior
    checkpoints.
    """
    dom = cfg.domain(n)
    ev = PathTraceEvaluator(path)
    tg = ev.ode_times
    z_row = np.linspace(cfg.W[0], cfg.W[1], cfg.n_re) + 1j * cfg.char_im

    map_rows, pair_rows = [], []
    curves = []
    for z in z_row:
        mr = map_to_initial(ev, z, dom, tg)
        if mr.in_D0:
            fc = flow_gamma(ev, mr.w, dom, tg)
            rt = float(abs(fc.endpoint - z))
            drift, ratio = fc.drift_sup, float(fc.ratio)
            stopped, tau = int(fc.stopped), (fc.tau if fc.stopped else float("nan"))
        else:
            fc, stopped = None, 0
            rt = drift = ratio = tau = float("nan")
        curves.append(fc)
        map_rows.append((n, trial, float(z.real), float(z.imag),
                         float(mr.w.real), float(mr.w.imag),
                         float(mr.residual), rt, int(mr.in_D0),
                         drift, ratio, stopped, tau))
    for i in range(len(curves) - 1):
        if curves[i] is not None and curves[i + 1] is not None:
            ratio = contraction_check(curves[i], curves[i + 1])
            pair_rows.append((n, trial, float(z_row[i].real),
                              float(z_row[i + 1].real), float(cfg.char_im),
                              float(ratio)))

    def senergy(t, er, dev, z):
        st = self_energy_from_diag(dev, er.diag(z), z, centered=True)
        return (n, trial, t, float(z.real), float(z.imag),
                st.error, st.normalizer, st.ratio)

    # self-energy ratios at the curve endpoints: t = 1 over the z-grid
    final = path.states[-1]
    er, dev = final.resolvent, final.sigma   # sigma is recomputed per read:
    dev -= 1.0 / n                            # center it in place, once per state
    sen_rows = [senergy(1.0, er, dev, z) for z in dom.z_grid(cfg.n_im, cfg.n_re).ravel()]
    # and along two curves at thinned interior checkpoints, one basis per
    # checkpoint shared by both, V∘V alone (only diag is read), never two at
    # once; rows stay curve by curve
    idxs = _senergy_checkpoints(cfg, len(path.states))
    along = [(curves[ci], []) for ci in (0, cfg.n_re // 2) if curves[ci] is not None]
    for k in idxs:
        er = dev = None   # the last basis and sigma go before the next comes
        live = [(fc, rows) for fc, rows in along if fc.tau is None or tg[k] < fc.tau]
        if not live:
            break
        state = path.states[k - 1]
        er, dev = EigenResolvent(state.H, full=False), state.sigma
        dev -= 1.0 / n
        for fc, rows in live:
            rows.append(senergy(float(tg[k]), er, dev, complex(fc.xi[k])))
    for _fc, rows in along:
        sen_rows.extend(rows)
    return map_rows, pair_rows, sen_rows


def aggregate_characteristic(map_rows, pair_rows, senergy_rows) -> dict:
    """Per-N quantiles for drift, contraction, inversion, self-energy."""
    per_n = {}
    n_set = sorted({r[0] for r in map_rows})
    for n in n_set:
        drift_sups = {}
        rt_errs, residuals, in_d0 = [], [], 0
        rows_n = [r for r in map_rows if r[0] == n]
        for r in rows_n:
            if r[8]:
                in_d0 += 1
                drift_sups.setdefault(r[1], []).append(r[10])
                rt_errs.append(r[7])
            residuals.append(r[6])
        trial_ratio = [max(v) for _t, v in sorted(drift_sups.items())]
        pn = {"z_count": len(rows_n),
              "in_D0_fraction": in_d0 / len(rows_n),
              "map_residual_q95": float(np.quantile(residuals, 0.95)),
              "roundtrip_q95": float(np.quantile(rt_errs, 0.95)) if rt_errs else float("nan"),
              "drift_ratio_q95": float(np.quantile(trial_ratio, 0.95)) if trial_ratio else float("nan")}
        pairs = [r[5] for r in pair_rows if r[0] == n]
        pn["contraction_worst"] = float(max(pairs)) if pairs else float("nan")
        pn["contraction_violations"] = int(sum(p > 1.0 + _CONTRACTION_SLACK for p in pairs))
        end = [r[7] for r in senergy_rows if r[0] == n and r[2] == 1.0]
        along = [r[7] for r in senergy_rows if r[0] == n and r[2] != 1.0]
        if end:
            try:
                pn["senergy_eps_hat"] = domination_quantile(end, 0.95, n)
            except DegenerateFit:
                pn["senergy_eps_hat"] = None
            pn["senergy_ratio_q95"] = float(np.quantile(end, 0.95))
        if along:
            pn["senergy_curve_q95"] = float(np.quantile(along, 0.95))
        per_n[n] = pn
    return per_n


def _characteristic_reduce(cfg, _cd, results):
    tables = {"characteristics": [], "characteristics_pairs": [],
              "characteristics_senergy": []}
    for _n, _trial, res in results:
        for rows, part in zip(tables.values(), res):
            rows.extend(part)
    per_n = aggregate_characteristic(*tables.values())
    return tables, {"theta": cfg.theta,
                    "per_n": {str(n): v for n, v in per_n.items()}}


# ------------------------------------------------------------- pipeline


@dataclass(frozen=True)
class _Experiment:
    """One reading of the trial paths.

    times(cfg) are the checkpoints it reads; trial(cfg, n, trial, path)
    reads one path restricted to those checkpoints; reduce(cfg, cd,
    results) turns the surviving (n, trial, result) triples, in task
    order, into rows per CSV table and the summary statistics.  tables
    and basis say whether trial reads the trace tables of its checkpoints
    and the eigh basis of the t = 1 state, which the lanes then prepare.
    matrices(cfg, times) are the checkpoints whose matrices trial reads,
    by default all of them; it reads the others through their tables alone.
    """

    times: Callable
    trial: Callable
    reduce: Callable
    tables: bool = False
    basis: bool = False
    matrices: Callable = lambda _cfg, times: times


def _terminal(_cfg):
    return np.array([1.0])


EXPERIMENTS = {
    "lsc": _Experiment(_terminal, _lsc_trial, _lsc_reduce),
    "characteristics": _Experiment(
        lambda cfg: checkpoint_times(cfg.schedule(), n_checkpoints=cfg.n_checkpoints),
        _characteristic_trial, _characteristic_reduce, tables=True, basis=True,
        matrices=_characteristic_matrices),
    "marginal": _Experiment(
        lambda cfg: np.array(nearest_schedule_times(cfg.schedule(), cfg.marginal_times)),
        _marginal_trial, _marginal_reduce),
    "entrywise": _Experiment(_terminal, _entrywise_trial, _entrywise_reduce, basis=True),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


@dataclass
class TrialFailure:
    n: int
    trial: int
    message: str
    traceback: str = field(default="", repr=False)   # for the manifest only


@dataclass
class Report:
    """One experiment's CSV rows, summary statistics and trial failures.

    rows maps each CSV table to its rows in task order; stats holds the
    experiment's own summary entries, empty when every trial failed.
    """

    experiment: str
    density_kind: str
    n_values: tuple
    trials: int
    base_seed: int
    rows: dict
    stats: dict
    failures: list

    def csv_tables(self) -> list:
        return [(table, COLUMNS[table], rows) for table, rows in self.rows.items()]

    def summary(self) -> dict:
        return {
            "experiment": self.experiment,
            "density": self.density_kind,
            "n_values": list(self.n_values),
            "trials": self.trials,
            "seed": self.base_seed,
            **self.stats,
            "failures": [{"n": f.n, "trial": f.trial, "message": f.message}
                         for f in self.failures],
        }


_STATE = None   # (cd, cfg, plan, checkpoints) for the current trial map
# run telemetry: the totals of the counts each trial returns, in their order
_COUNTS = ("sde_clamps", "matrices_released", "matrices_replayed", "caller_table_jobs")


def spectral_lanes(processes: int) -> int:
    """Spectral lanes per trial process: the cores this process may run on,
    divided by the number of trial processes, at least 1."""
    return max(1, len(os.sched_getaffinity(0)) // processes)


def _map_trials(worker, state, processes, tasks):
    """Run (n, trial) tasks, results in task order at any pool size.  Forked
    workers inherit `_STATE`, set before the pool starts, and the one-thread
    BLAS pin that importing resolvent set."""
    global _STATE
    _STATE = state
    try:
        if processes <= 1:
            return [worker(t) for t in tasks]
        with multiprocessing.get_context("fork").Pool(processes) as pool:
            return list(pool.imap(worker, tasks, chunksize=1))
    finally:
        _STATE = None


def _failure(n, trial, exc):
    return TrialFailure(n=n, trial=trial, message=f"{type(exc).__name__}: {exc}",
                        traceback="".join(traceback.format_exception(exc)))


def _tables_only(cfg, plan) -> set:
    """The checkpoints read only through their trace tables: in the view of
    an experiment with tables, and no experiment reads their matrices."""
    tabled = {t for exp, times in plan if exp.tables for t in times.tolist()}
    return tabled.difference(*(exp.matrices(cfg, times).tolist() for exp, times in plan))


def _handoff(lanes, plan, release=frozenset()):
    """What evolve does with each state it keeps: queue the trace tables of
    the experiments that read them, between consecutive checkpoints of
    their own view, then the t = 1 basis if read (the drain's first job).
    Then, on the integrating thread, keep the lanes' backlog bounded and
    release each state at a `release` time once no table still to come
    reads it: its own two and the next view checkpoint's midpoint table."""
    basis = any(exp.basis for exp, _times in plan)
    views = [[set(times.tolist()), None] for exp, times in plan if exp.tables]
    held = []   # states at release times, hu kept so far

    def keep(state):
        for view in views:   # [checkpoint times, the last state queued]
            if state.t in view[0]:
                lanes.tables(view[1], state)
                view[1] = state
        if basis and state.t == 1.0:
            lanes.basis(state)
        lanes.catch_up()
        if state.t in release:
            held.append(state)
        busy = lanes.reading() | {id(view[1]) for view in views}
        for s in [s for s in held if id(s) not in busy]:
            s.release()
            held.remove(s)
    return keep


def _trial(task):
    """Evolve one path, its spectral work queued on the lanes as it goes and
    its normals drawn ahead there, and hand each experiment a view of its
    checkpoints.  States read only through their tables are released as
    the tables appear, and all of them once the lanes are drained.  Returns
    the path's counts, (SDE clamps, matrices released, matrices replayed,
    table jobs the calling thread ran), all 0 if it failed, and one result
    or failure per experiment."""
    n, trial = task
    cd, cfg, plan, checkpoints = _STATE
    release = _tables_only(cfg, plan)
    try:
        with SpectralLanes(spectral_lanes(cfg.processes)) as lanes:
            path = evolve(cd, cfg.path_config(n, trial, checkpoints=checkpoints),
                          on_checkpoint=_handoff(lanes, plan, release), pool=lanes.pool)
    except Exception as exc:
        return (0, 0, 0, 0), [_failure(n, trial, exc)] * len(plan)
    for state in path.states:
        if state.t in release:
            state.release()   # every table exists now
    out = []
    for exp, times in plan:
        try:
            out.append(exp.trial(cfg, n, trial, path.view(times)))
        except Exception as exc:
            out.append(_failure(n, trial, exc))
    return (path.total_clamps, path.replay.released, path.replay.replayed,
            lanes.caller_jobs), out


def run_experiments(config: ExperimentConfig, cd: CalibratedDensity | None = None,
                    telemetry: dict | None = None) -> dict:
    """Run config.experiments on shared paths.

    Each (N, trial) path is integrated once, on the union of the
    checkpoints the experiments read.  Returns {name: Report} in the
    order of config.experiments.  A telemetry dict, if given, receives run
    totals over every evolved path: `sde_clamps`, the SDE entries clamped;
    `matrices_released` and `matrices_replayed`, the checkpoint matrices
    dropped once their tables existed and those a later read integrated
    again; and `caller_table_jobs`, the table jobs the integrating thread
    ran rather than a lane.
    """
    if cd is None:
        cd = calibrate(config.density)
    plan = [(EXPERIMENTS[name], EXPERIMENTS[name].times(config))
            for name in config.experiments]
    checkpoints = np.unique(np.concatenate([times for _exp, times in plan]))
    tasks = [(n, t) for n in config.n_values for t in range(config.trials)]
    counts, results = zip(*_map_trials(_trial, (cd, config, plan, checkpoints),
                                       config.processes, tasks))
    if telemetry is not None:
        telemetry.update((key, int(sum(c))) for key, c in zip(_COUNTS, zip(*counts)))
    reports = {}
    for i, (name, (exp, _times)) in enumerate(zip(config.experiments, plan)):
        done, failures = [], []
        for (n, trial), res in zip(tasks, results):
            if isinstance(res[i], TrialFailure):
                failures.append(res[i])
            else:
                done.append((n, trial, res[i]))
        rows, summary = exp.reduce(config, cd, done) if done else ({}, {})
        reports[name] = Report(
            experiment=name, density_kind=config.density.kind,
            n_values=config.n_values, trials=config.trials,
            base_seed=config.base_seed, rows=rows, stats=summary,
            failures=failures)
    return reports


# ------------------------------------------------------------- reports


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, columns: Sequence[str], rows: Sequence[tuple]) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_csv(report, out_dir) -> list:
    """One file per (table, N): {experiment}-{N}-{seed}.csv.  Returns paths."""
    paths = []
    for exp, columns, rows in report.csv_tables():
        by_n = {}
        for row in rows:
            by_n.setdefault(int(row[0]), []).append(row)
        for n in sorted(by_n):
            path = os.path.join(out_dir, f"{exp}-{n}-{report.base_seed}.csv")
            write_csv(path, columns, by_n[n])
            paths.append(path)
    return paths


def failure_fraction(report) -> float:
    total = len(report.n_values) * report.trials
    return len(report.failures) / total if total else 0.0
