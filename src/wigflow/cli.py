"""Command-line front end: density calibration, experiment runs, flow checks.

Thin shell over the library: every command is a small function that loads
the JSON config, calls the corresponding library operation, and writes
machine-readable outputs.  Exit codes are a stable contract:

    0  success
    1  config or IO error
    2  admissibility assumption failure (unbounded coefficient etc.)
    3  an experiment recorded more than 10% trial failures
    4  closed-form flow verification failure
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .density import DensityError, calibrate, verify_assumption
from .domains import SpectralDomain, frozen_semicircle_drift, msc
from .flows import contraction_check, flow_gamma, flow_lambda
from .harness import (EXPERIMENT_NAMES, ConfigError, ExperimentConfig,
                      failure_fraction, run_experiments, spectral_lanes,
                      write_report_csv)
from .resolvent import blas_threads

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSUMPTION = 2
EXIT_TRIAL_FAILURES = 3
EXIT_STUB = 4


class CliError(Exception):
    """Config or IO problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments, but 2 means assumption failure
    # here, so bad usage is routed through CliError -> exit 1 instead
    def error(self, message):
        raise CliError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wigflow",
                     description="matrix-martingale resolvent experiments")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="output directory "
                       "(overrides the config's output.dir)")
        p.add_argument("--overwrite", action="store_true",
                       help="replace outputs of a previous run")

    cal = sub.add_parser("calibrate", help="calibrate the density and "
                         "write the admissibility report")
    common(cal)

    run = sub.add_parser("run", help="run experiments and write CSV/JSON "
                         "reports plus a manifest")
    common(run)
    run.add_argument("--experiment", default=None,
                     choices=sorted(EXPERIMENT_NAMES) + ["all"],
                     help="override the config's experiment list")
    run.add_argument("--threads", type=int, default=None,
                     help="worker processes for trials (default: the cores "
                     "this process may run on); each gets cores / threads "
                     "spectral lanes, and BLAS always runs at one thread")
    run.add_argument("--seed", type=int, default=None,
                     help="override the config's base seed")

    sub.add_parser("stub-verify", help="closed-form flow checks against "
                   "the frozen-semicircle drift (no sampling)")
    return parser


# ------------------------------------------------------------ config IO


def _load_config(args):
    """(config text, parsed document, ExperimentConfig, output directory):
    every command validates the whole config the same way."""
    path = args.config
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path}: {exc}")
    try:
        cfg = ExperimentConfig.from_sections(doc)
    except ConfigError as exc:
        raise CliError(str(exc))
    out_dir = args.out if args.out is not None else doc.get("output", {}).get("dir", "out")
    return text, doc, cfg, Path(out_dir)


def _fresh_target(out_dir: Path, marker: str, overwrite: bool) -> Path:
    """out_dir / marker, refused if a previous run left it; creates nothing."""
    target = out_dir / marker
    if target.exists() and not overwrite:
        raise CliError(f"{target} exists; pass --overwrite to replace the "
                       "previous run")
    return target


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_json_default) + "\n",
                    encoding="utf-8")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


# ------------------------------------------------------------- commands


def cmd_calibrate(args) -> int:
    _text, _doc, cfg, out_dir = _load_config(args)
    report_path = _fresh_target(out_dir, "calibration.json", args.overwrite)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        cd = calibrate(cfg.density)
    except DensityError as exc:
        _write_json(report_path, {"passed": False,
                                  "error": type(exc).__name__,
                                  "detail": str(exc)})
        print(f"assumption failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ASSUMPTION
    report = verify_assumption(cd)
    _write_json(report_path, report.to_dict())
    print(f"calibration report written to {report_path}")
    if not report.passed:
        print("assumption failure: see report flags", file=sys.stderr)
        return EXIT_ASSUMPTION
    return EXIT_OK


def cmd_run(args) -> int:
    text, doc, cfg, out_dir = _load_config(args)
    try:
        overrides = {"threads": args.threads if args.threads is not None
                     else len(os.sched_getaffinity(0))}
        if args.seed is not None:
            overrides["base_seed"] = args.seed
        if args.experiment is not None:
            overrides["experiments"] = (EXPERIMENT_NAMES if args.experiment == "all"
                                        else (args.experiment,))
        cfg = replace(cfg, **overrides)
    except ConfigError as exc:
        raise CliError(str(exc))

    _fresh_target(out_dir, "manifest.json", args.overwrite)
    started = _now()
    try:
        cd = calibrate(cfg.density)
    except DensityError as exc:
        print(f"assumption failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_ASSUMPTION
    admissible = verify_assumption(cd)
    if not admissible.passed:
        failed = [k for k, v in admissible.to_dict().items()
                  if k.endswith("_ok") and not v]
        print(f"assumption failure: {', '.join(failed)}", file=sys.stderr)
        return EXIT_ASSUMPTION

    out_dir.mkdir(parents=True, exist_ok=True)
    experiments, failures, telemetry = {}, {}, {}
    worst = 0.0
    for name, report in run_experiments(cfg, cd, telemetry).items():
        csv_paths = write_report_csv(report, out_dir)
        summary_path = out_dir / f"{name}-summary-{cfg.base_seed}.json"
        _write_json(summary_path, report.summary())
        frac = failure_fraction(report)
        worst = max(worst, frac)
        experiments[name] = {
            "status": "ok" if frac <= 0.10 else "excess-failures",
            "failure_fraction": frac,
            "outputs": sorted(Path(p).name for p in csv_paths)
            + [summary_path.name],
        }
        failures[name] = [{"n": f.n, "trial": f.trial, "traceback": f.traceback}
                          for f in report.failures]
        print(f"{name}: {len(csv_paths)} csv file(s), "
              f"failure fraction {frac:.3f}")

    exit_code = EXIT_TRIAL_FAILURES if worst > 0.10 else EXIT_OK
    manifest = {
        "artifact": {"name": "wigflow", "version": __version__},
        "config_path": str(args.config),
        "config_echo": text,
        "config_parsed": doc,
        "seed": cfg.base_seed,
        "threads": cfg.threads,
        "started": started,
        "finished": _now(),
        "experiments": experiments,
        "exit_code": exit_code,
        # what the numbers depend on besides the config; never in the outputs
        "environment": {
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
            "spectral_lanes": spectral_lanes(cfg.processes),
            "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))},
        # what the run saw happen; never in the outputs either
        "telemetry": {**telemetry, "failures": failures},
    }
    # every listed artifact exists before the manifest itself appears
    _write_json(out_dir / "manifest.json", manifest)
    print(f"manifest written to {out_dir / 'manifest.json'}")
    return exit_code


def stub_checks(n_steps: int = 50, msc_fn=None, drift=None) -> list:
    """Closed-form flow checks; returns (name, passed, detail) triples.

    The drift and msc arguments exist for fault injection in tests; the
    defaults verify the shipped implementations.
    """
    mfn = msc if msc_fn is None else msc_fn
    field = frozen_semicircle_drift if drift is None else drift
    dom = SpectralDomain(n=500)
    t_grid = np.linspace(0.0, 1.0, n_steps + 1)
    checks = []

    re = np.linspace(-3.0, 3.0, 40)
    im = np.geomspace(0.05, 2.0, 25)
    z = (re[None, :] + 1j * im[:, None]).ravel()
    m = mfn(z)
    res = float(np.abs(m * m + z * m + 1.0).max())
    checks.append(("msc-fixed-point", res <= 1e-12,
                   f"max |m^2 + zm + 1| = {res:.3e} (tol 1e-12)"))

    min_im = float(m.imag.min())
    mi = complex(mfn(1j))
    branch_ok = min_im > 0.0 and abs(mi - 0.6180339887j) <= 1e-9
    checks.append(("msc-branch", branch_ok,
                   f"min Im m = {min_im:.3e} (must be > 0), "
                   f"m(i) = {mi.imag:.10f}i"))

    zetas = (0.8 + 0.9j, -1.1 + 0.7j, 1.4 + 1.0j, -0.5 + 1.2j)
    curves = [flow_gamma(field, zeta, dom, t_grid) for zeta in zetas]
    g_err = 0.0
    d_err = 0.0
    for zeta, c in zip(zetas, curves):
        line = zeta + c.times / zeta
        g_err = max(g_err, float(np.abs(c.xi - line).max()))
        d_err = max(d_err, max(abs(field(float(t), complex(w)) + 1.0 / zeta)
                               for t, w in zip(c.times, line)))
    checks.append(("gamma-line", g_err <= 1e-6,
                   f"max |gamma - (zeta + t/zeta)| = {g_err:.3e} (tol 1e-6)"))
    checks.append(("drift-constant", d_err <= 1e-6,
                   f"max |m_t(line) + 1/zeta| = {d_err:.3e} (tol 1e-6)"))

    lam_err = 0.0
    rt_err = 0.0
    for z0 in (0.5 + 0.8j, -1.2 + 0.6j, 1.0 + 1.0j):
        lam = flow_lambda(field, z0, dom, t_grid)
        lam_err = max(lam_err, abs(lam.endpoint + 1.0 / mfn(z0)))
        back = flow_gamma(field, lam.endpoint, dom, t_grid)
        rt_err = max(rt_err, abs(back.endpoint - z0))
    checks.append(("lambda-endpoint", lam_err <= 1e-6,
                   f"max |lambda(1,z) + 1/m(z)| = {lam_err:.3e} (tol 1e-6)"))
    checks.append(("round-trip", rt_err <= 1e-6,
                   f"max |gamma(1, lambda(1,z)) - z| = {rt_err:.3e} "
                   "(tol 1e-6)"))

    cz, cw = curves[0], curves[1]
    sep = np.abs((cz.z0 - cw.z0) * (1.0 - t_grid / (cz.z0 * cw.z0)))
    cf_err = float(np.abs(np.abs(cz.xi - cw.xi) - sep).max())
    ratio = contraction_check(cz, cw)
    checks.append(("contraction", cf_err <= 1e-8 and ratio <= 1.0 + 1e-6,
                   f"closed-form gap {cf_err:.3e} (tol 1e-8), bound ratio "
                   f"{ratio:.6f} (must be <= 1)"))

    zeta = 0.3 + 0.9j
    c = flow_gamma(field, zeta, dom, t_grid)
    tau_exact = abs(zeta) ** 2 * (1.0 - dom.eta / (4.0 * zeta.imag))
    stop_ok = c.stopped and abs(c.tau - tau_exact) <= 1e-4
    detail = (f"tau = {c.tau:.8f}, closed form {tau_exact:.8f}"
              if c.stopped else "curve failed to stop")
    checks.append(("stop-time", stop_ok, detail + " (tol 1e-4)"))
    return checks


def cmd_stub_verify(_args) -> int:
    checks = stub_checks()
    failed = []
    for name, ok, detail in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {name:<18} {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"stub verification failed: {', '.join(failed)}",
              file=sys.stderr)
        return EXIT_STUB
    print(f"all {len(checks)} closed-form checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise CliError(parser.format_usage().rstrip())
        if args.command == "calibrate":
            return cmd_calibrate(args)
        if args.command == "run":
            return cmd_run(args)
        return cmd_stub_verify(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
