"""Set-up probe, run in a fresh interpreter by run.py.

Usage: python3 probe.py CONFIG

Does what `wigflow run` does before its first trial can start (import
`wigflow.cli`, parse the config, calibrate the density) and prints one
JSON line: the CLOCK_MONOTONIC reading when set-up was done, which the
parent compares with its own reading taken before it started this
interpreter, the file `wigflow` was imported from, and, collected after
that reading, the environment the run sees.
"""

import json
import sys
import time

import wigflow.cli  # noqa: F401  (the import is part of set-up)
from wigflow.density import calibrate
from wigflow.harness import ExperimentConfig


def environment():
    import importlib.util
    import os
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")
                            or k == "VECLIB_MAXIMUM_THREADS"},
        "threadpoolctl_importable": importlib.util.find_spec("threadpoolctl") is not None,
        "cpu_model": cpu,
    }


def main(argv):
    with open(argv[0], encoding="utf-8") as fh:
        doc = json.load(fh)
    calibrate(ExperimentConfig.from_sections(doc).density)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "wigflow": wigflow.__file__,
                      "env": environment()}))


if __name__ == "__main__":
    main(sys.argv[1:])
