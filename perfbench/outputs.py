"""Output checks for one `wigflow run` invocation.

Two checks, both reading only the files the run wrote:

* `check_structure` holds for every seed: exit code 0, a manifest that
  lists every file in the output directory, one summary per experiment,
  the README's CSV columns, and the row counts the config implies.
* `compare_reference` holds for the seed the references were recorded at:
  every CSV and summary JSON matches its reference, byte for byte or
  within `RTOL`/`ATOL` per number.  BLAS thread settings legitimately
  change the last bits of spectral results, so bytes are counted but only
  the tolerance is a gate.

Stdlib only: the traced run times `import wigflow.cli` in this process,
so nothing here may import numpy first.
"""

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-9

# column lists of the README's CSV schemas, per table
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
TABLES = {
    "lsc": ("lsc",),
    "marginal": ("marginal",),
    "entrywise": ("entrywise",),
    "characteristics": ("characteristics", "characteristics_pairs",
                        "characteristics_senergy"),
}
EXPERIMENTS = tuple(TABLES)


def trials_per_experiment(doc):
    """(N, trial) executions one experiment runs under config `doc`."""
    exp = doc["experiments"]
    return len(exp["n_values"]) * exp["trials"]


def _row_bounds(table, doc, trials):
    """(min, max) data rows of one per-N file when `trials` trials succeed."""
    dom, exp = doc["domain"], doc["experiments"]
    grid = dom["n_im"] * dom["n_re"]
    if table in ("lsc", "entrywise"):
        return trials * grid, trials * grid
    if table == "marginal":
        # one row per distinct target time; the schedules used here are
        # fine enough that distinct targets never share a schedule point
        k = len(set(exp["marginal_times"]))
        return k, k
    if table == "characteristics":
        return trials * dom["n_re"], trials * dom["n_re"]
    if table == "characteristics_pairs":
        # only adjacent curves whose start lies in the initial domain
        return 0, trials * (dom["n_re"] - 1)
    # senergy: the full grid at t = 1, plus up to senergy_times points on
    # each of two sampled curves
    along = 2 * exp.get("senergy_times", 4)
    return trials * grid, trials * (grid + along)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return (tuple(rows[0]) if rows else ()), rows[1:]


def check_structure(out_dir, doc, experiments, seed, returncode):
    """Structural contract of one run.

    Returns (problems, failed_trials): a list of readable problems, empty
    when the run passes, and the trial failures the summaries record.
    """
    out_dir = Path(out_dir)
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    manifest_path = out_dir / "manifest.json"
    if not manifest_path.is_file():
        return problems + ["manifest.json missing"], 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if manifest.get("exit_code") != 0:
        problems.append(f"manifest exit_code {manifest.get('exit_code')}")
    if manifest.get("seed") != seed:
        problems.append(f"manifest seed {manifest.get('seed')} != {seed}")
    listed = {"manifest.json"}
    for name in experiments:
        entry = manifest.get("experiments", {}).get(name)
        if entry is None:
            problems.append(f"manifest lacks experiment {name}")
            continue
        if entry.get("status") != "ok":
            problems.append(f"{name}: status {entry.get('status')}")
        listed.update(entry.get("outputs", []))
    present = {p.name for p in out_dir.iterdir()}
    if listed != present:
        problems.append(f"manifest lists {sorted(listed - present)} missing, "
                        f"{sorted(present - listed)} unlisted")

    failed_trials = 0
    for name in experiments:
        summary_path = out_dir / f"{name}-summary-{seed}.json"
        if not summary_path.is_file():
            problems.append(f"{summary_path.name} missing")
            continue
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        if summary.get("experiment") != name or summary.get("seed") != seed:
            problems.append(f"{summary_path.name}: wrong experiment or seed")
        failures = summary.get("failures", [])
        failed_trials += len(failures)
        for n in doc["experiments"]["n_values"]:
            ok = doc["experiments"]["trials"] - sum(
                1 for f in failures if f.get("n") == n)
            for table in TABLES[name]:
                problems += _check_table(out_dir / f"{table}-{n}-{seed}.csv",
                                         table, doc, ok)
    return problems, failed_trials


def _check_table(path, table, doc, trials):
    lo, hi = _row_bounds(table, doc, trials)
    if not path.is_file():
        # write_report_csv skips a table with no rows for this N
        return [] if lo == 0 else [f"{path.name} missing"]
    header, rows = _read_csv(path)
    problems = []
    if header != COLUMNS[table]:
        problems.append(f"{path.name}: columns {header}")
    if not lo <= len(rows) <= hi:
        problems.append(f"{path.name}: {len(rows)} rows, expected "
                        f"{lo}..{hi}")
    if any(len(r) != len(COLUMNS[table]) for r in rows):
        problems.append(f"{path.name}: ragged rows")
    return problems


def compared_files(directory):
    """The outputs compared against references: CSVs and summaries."""
    return sorted(p.name for p in Path(directory).iterdir()
                  if p.suffix == ".csv" or "-summary-" in p.name)


def _close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_close, a, b))
    return a == b


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _same_values(path, ref):
    if path.suffix == ".json":
        return _close(json.loads(path.read_text(encoding="utf-8")),
                      json.loads(ref.read_text(encoding="utf-8")))
    (h1, rows1), (h2, rows2) = _read_csv(path), _read_csv(ref)
    return h1 == h2 and _close([[_cell(c) for c in r] for r in rows1],
                               [[_cell(c) for c in r] for r in rows2])


def compare_reference(out_dir, ref_dir):
    """Compare a run's outputs with recorded references.

    Returns (problems, compared, identical): files compared, and how many
    of them are byte-identical to the reference.
    """
    out_dir, ref_dir = Path(out_dir), Path(ref_dir)
    names = compared_files(ref_dir)
    have = compared_files(out_dir) if out_dir.is_dir() else []
    problems = []
    if names != have:
        problems.append(f"output files {have} != reference files {names}")
    identical = 0
    for name in sorted(set(names) & set(have)):
        out, ref = out_dir / name, ref_dir / name
        if out.read_bytes() == ref.read_bytes():
            identical += 1
        elif not _same_values(out, ref):
            problems.append(f"{name} differs from its reference beyond "
                            f"rtol {RTOL} / atol {ATOL}")
    return problems, len(names), identical
