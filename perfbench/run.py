"""wigflow benchmark: `wigflow run` on fixed workloads, end to end and per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload small-all [--seed 7] [--seconds 50] [--trace 0|1]
    python3 perfbench/run.py --workload small-all --record-reference

--trace 0 measures with tracing off.  It times the set-up of a fresh
interpreter SETUP_PROBES times (see probe.py), then runs `wigflow run`
as a subprocess, again while the next run is expected to end within
--seconds (at least once), and reports medians over those runs.

--trace 1 runs the workload once as a subprocess with tracing off, then
once more inside this process, serially, with spans recorded around the
package's public functions (see tracer.py), and reports per-layer
metrics next to the traced and untraced wall times.

Every run's outputs are checked (see outputs.py): against the recorded
references for the default seed, against the structural contract for
any seed.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` (trials) and `metrics`.

The caller's environment is passed to `wigflow run` unchanged apart from
PYTHONPATH, which gains the checkout's `src`; BLAS threads are not
pinned.  Scratch outputs go to .perfbench_work/ in the checkout.
"""

import argparse
import contextlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import outputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
REFERENCES = BENCH / "reference"
DEFAULT_SEED = 7            # the seed configs/small.json carries
SETUP_PROBES = 8
# share of the traced wall time the layer self times may leave unexplained
# (wrapper installation runs outside every span)
REMAINDER_LIMIT = 0.01


@dataclass(frozen=True)
class Workload:
    config: str         # relative to the checkout root
    experiment: str     # the --experiment argument; --threads is always 1


# why each workload exists: see README.md in this directory.  lsc-n1000 is
# not in BENCHMARK.json, whose run budget holds two workloads; it serves
# traced runs only
WORKLOADS = {
    "small-all": Workload("configs/small.json", "all"),
    "lsc-n1000": Workload("perfbench/configs/lsc-n1000.json", "lsc"),
    "char-n1000": Workload("perfbench/configs/char-n1000.json", "characteristics"),
}

END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "cpu_s": "s"}


@dataclass
class Invocation:
    out_dir: Path
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


@dataclass
class Checked:
    problems: list
    attempted: int
    failed: int
    compared: int = 0
    identical: int = 0


def _child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _from_checkout(module_file):
    return Path(module_file).resolve().is_relative_to(ROOT / "src")


def _experiments(w):
    return outputs.EXPERIMENTS if w.experiment == "all" else (w.experiment,)


def _run_argv(w, seed, out_dir):
    return ["run", "--config", str(ROOT / w.config), "--experiment", w.experiment,
            "--threads", "1", "--seed", str(seed), "--out", str(out_dir)]


def probe_setup(w):
    """Seconds from interpreter start until the first trial could start,
    and the environment the probe saw."""
    cmd = [sys.executable, str(BENCH / "probe.py"), str(ROOT / w.config)]
    start = time.monotonic()
    res = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"set-up probe failed:\n{res.stderr}")
    line = json.loads(res.stdout.splitlines()[-1])
    if not _from_checkout(line["wigflow"]):
        sys.exit(f"wigflow imported from {line['wigflow']}, not this checkout")
    return line["ready"] - start, line["env"]


def invoke(w, seed, out_dir):
    """One `wigflow run` subprocess, timed, with its process tree's usage."""
    cmd = [sys.executable, "-m", "wigflow.cli"] + _run_argv(w, seed, out_dir)
    with open(out_dir.with_suffix(".log"), "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            # wait4 reports the child with the pool workers it reaped:
            # summed CPU time, and the largest single process's peak RSS
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(out_dir, proc.returncode, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6)


def check(name, w, doc, seed, out_dir, returncode):
    problems, failed = outputs.check_structure(out_dir, doc, _experiments(w),
                                               seed, returncode)
    checked = Checked(problems, outputs.trials_per_experiment(doc) * len(_experiments(w)), 0)
    if seed == DEFAULT_SEED:
        ref = REFERENCES / name
        if ref.is_dir():
            more, checked.compared, checked.identical = outputs.compare_reference(out_dir, ref)
            problems += more
        else:
            problems.append(f"no reference outputs recorded in {ref}")
    # a run that fails a check counts every trial it attempted as failed
    checked.failed = checked.attempted if problems else failed
    return checked


def measure(name, w, doc, seed, seconds, work):
    """Tracing off: set-up probes, then timed runs for about `seconds`."""
    setups = [probe_setup(w) for _ in range(SETUP_PROBES)]
    runs, checks = [], []
    start = time.monotonic()
    while True:
        inv = invoke(w, seed, work / f"run-{len(runs)}")
        runs.append(inv)
        checks.append(check(name, w, doc, seed, inv.out_dir, inv.returncode))
        if time.monotonic() - start + inv.wall_s > seconds:
            break
    metrics = {
        "wall_s": statistics.median([r.wall_s for r in runs]),
        "trials_per_s": statistics.median([(c.attempted - c.failed) / r.wall_s
                                 for r, c in zip(runs, checks)]),
        "setup_s": statistics.median([s for s, _env in setups]),
        "peak_rss_mb": statistics.median([r.peak_rss_mb for r in runs]),
        "cpu_s": statistics.median([r.cpu_s for r in runs]),
    }
    notes = {"runs": len(runs), "setup_probes": len(setups),
             "wall_s_all": [r.wall_s for r in runs],
             "setup_s_all": [s for s, _env in setups]}
    return ({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
            checks, setups[0][1], notes)


def traced(name, w, doc, seed, work):
    """One untraced subprocess run, then one traced run in this process."""
    _setup, env = probe_setup(w)
    inv = invoke(w, seed, work / "untraced")
    checks = [check(name, w, doc, seed, inv.out_dir, inv.returncode)]

    sys.path.insert(0, str(ROOT / "src"))
    rec = tracer.Tracer()
    out_dir = work / "traced"
    with open(work / "traced.log", "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        start = time.perf_counter()
        cli = rec.call("cli.import", "cli", importlib.import_module, ("wigflow.cli",))
        tracer.instrument(rec)
        try:
            rc = cli.main(_run_argv(w, seed, out_dir))
        except Exception:
            # the untraced run reports this as a nonzero exit; do the same
            traceback.print_exc()
            rc = "exception (see traced.log)"
        wall = time.perf_counter() - start
    if not _from_checkout(cli.__file__):
        sys.exit(f"wigflow imported from {cli.__file__}, not this checkout")
    checks.append(check(name, w, doc, seed, out_dir, rc))
    tracer.write_spans(rec.spans, work / "spans.jsonl")

    metrics = tracer.layer_metrics(rec.spans, "cli.import", wall)
    metrics["trace.untraced_wall_s"] = (inv.wall_s, "s")
    metrics["trace.overhead_frac"] = (wall / inv.wall_s - 1.0, "share")
    metrics["cli.outputs_compared"] = (checks[0].compared, "count")
    metrics["cli.outputs_identical"] = (checks[0].identical, "count")
    remainder = metrics["trace.remainder_s"][0]
    if abs(remainder) > REMAINDER_LIMIT * wall:
        checks[-1].problems.append(
            f"layer self times leave {remainder:.3f} s of {wall:.3f} s unexplained")
    return metrics, checks, env


def record_reference(name, w, doc, work):
    inv = invoke(w, DEFAULT_SEED, work / "record")
    problems, failed = outputs.check_structure(inv.out_dir, doc, _experiments(w),
                                               DEFAULT_SEED, inv.returncode)
    if problems or failed:
        sys.exit(f"not recording a run that fails its checks: {problems}")
    ref = REFERENCES / name
    shutil.rmtree(ref, ignore_errors=True)
    ref.mkdir(parents=True)
    for f in outputs.compared_files(inv.out_dir):
        shutil.copyfile(inv.out_dir / f, ref / f)
    print(f"recorded {len(outputs.compared_files(ref))} reference files in {ref}")


def report(metrics, checks, extra):
    """Readable lines, then the result object as the last line."""
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    for key, value in extra.items():
        print(f"{key}: {json.dumps(value)}")
    for c in checks:
        for p in c.problems:
            print(f"check failed: {p}")
    for key, (value, unit) in metrics.items():
        print(f"{key:<34} {value:>14.6g} {unit}")
    print(f"{'failed_frac':<34} {failed / attempted:>14.6g} share "
          f"({failed} of {attempted} trials)")
    result = {"correct": not any(c.problems for c in checks),
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return result


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    name, w = args.workload, workloads[args.workload]
    for needed in (ROOT / "src" / "wigflow" / "cli.py", ROOT / w.config):
        if not needed.is_file():
            sys.exit(f"{needed} is missing; run from a wigflow checkout")
    doc = json.loads((ROOT / w.config).read_text(encoding="utf-8"))
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    if args.record_reference:
        record_reference(name, w, doc, work)
        return None
    if args.trace:
        metrics, checks, env = traced(name, w, doc, args.seed, work)
        extra = {"workload": name, "seed": args.seed, "trace": 1,
                 "environment": env, "spans": str(work / "spans.jsonl")}
    else:
        metrics, checks, env, notes = measure(name, w, doc, args.seed,
                                              args.seconds, work)
        extra = {"workload": name, "seed": args.seed, "trace": 0,
                 "environment": env, **notes,
                 "peak_rss_note": "largest single process, not a sum over pool workers"}
    result = report(metrics, checks, extra)
    (work / "result.json").write_text(json.dumps({**extra, **result}, indent=1) + "\n",
                                      encoding="utf-8")
    return result


if __name__ == "__main__":
    main()
