"""Deterministic derivation of independent RNG streams.

Every random draw in the package comes from a Philox counter-based
generator keyed by (base_seed, purpose, trial, ...).  Philox streams with
distinct spawn keys are statistically independent, and the derivation is
a pure function of the key tuple, so replaying any trial is bit-for-bit
reproducible regardless of how trials are scheduled across workers.
"""

from __future__ import annotations

import numpy as np

# Purpose codes, one per independent consumer of randomness.  Adding a
# new purpose must not renumber existing ones: recorded seeds would no
# longer reproduce old runs.
PURPOSE_PATH = 0      # matrix / scalar martingale increments
PURPOSE_DIRECT = 1    # direct density sampling (KS references)
PURPOSE_PAIRS = 2     # random pair / index selection in diagnostics
PURPOSE_PROBE = 3     # auxiliary probe matrices in tests and checks


def stream(base_seed: int, *key: int) -> np.random.Generator:
    """Return the generator for (base_seed, *key).

    Same arguments, same stream: calling this twice yields generators
    that produce identical output.
    """
    ss = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def path_stream(base_seed: int, n: int, trial: int) -> np.random.Generator:
    # keyed by matrix size as well, so trials at different N draw from
    # unrelated bit streams
    return stream(base_seed, PURPOSE_PATH, n, trial)
