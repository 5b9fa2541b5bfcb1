"""Resolvents of symmetric matrices and the self-energy statistic.

G(z) = (H - z)^{-1} for Im z > 0.  The entry variance profile sigma acts
on the diagonal of G through the self-energy operator

    S[sigma, A]_ij = delta_ij sum_k sigma_ik A_kk

The central measurable quantity is how close S[sigma, G] comes to the
scalar <G> I: for the flat profile sigma = 1/N it coincides exactly, and
for admissible profiles the gap concentrates at the (N Im z)^{-1/2} scale.

The package reads G through EigenResolvent alone, one numpy
eigendecomposition (GIL released) per matrix state; the tests hold it to a
residual-checked dense solve and to the Ward and minor identities
(tests/oracles.py).  Importing this module pins the two OpenBLAS copies
the numpy and scipy wheels bundle to one thread, through each one's own
thread-count symbol (pin_blas), so no output byte depends on the host's
cores or BLAS environment; forked workers inherit the pin.  A numpy or
scipy built against another BLAS fails this import.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass

import numpy as np
import scipy


class DimensionMismatch(Exception):
    pass


# the OpenBLAS copies the numpy and scipy wheels bundle, with the names of
# their thread-count symbols (numpy's copy is the ILP64 build)
_OPENBLAS = ((np, "libscipy_openblas64_*.so", "scipy_openblas_{}_num_threads64_"),
             (scipy, "libscipy_openblas-*.so", "scipy_openblas_{}_num_threads"))


def _openblas_libraries() -> list:
    """(file name, library, symbol name) of each bundled OpenBLAS, loaded here
    if its package has not yet, so that no later import finds it unpinned."""
    return [(os.path.basename(path), ctypes.CDLL(path), symbol)
            for module, pattern, symbol in _OPENBLAS
            for path in glob.glob(os.path.join(os.path.dirname(module.__file__) + ".libs",
                                               pattern))]


def blas_threads() -> dict:
    """{bundled OpenBLAS library: the thread count read back from it}."""
    return {name: getattr(lib, sym.format("get"))() for name, lib, sym in _openblas_libraries()}


def pin_blas() -> None:
    """Pin both bundled OpenBLAS copies to one thread through ctypes; read
    each back, and raise if one is missing or not at 1."""
    libs = _openblas_libraries()
    # one library per bundled copy: one not found would keep its default count
    if [sym for *_, sym in libs] != [sym for *_, sym in _OPENBLAS]:
        raise RuntimeError(f"BLAS not pinned: found {[name for name, *_ in libs]}")
    for _name, lib, sym in libs:
        getattr(lib, sym.format("set"))(1)
    threads = blas_threads()
    if set(threads.values()) != {1}:
        raise RuntimeError(f"BLAS not pinned to one thread: {threads}")


pin_blas()


class EigenResolvent:
    """Resolvents of one matrix at many spectral points.

    Decomposes H once; each z then costs O(N) for the trace mean, O(N^2)
    for the diagonal, O(N^3) for the full matrix.  Read-only after
    construction.  full=False keeps V∘V alone, in place of V: half the bytes.
    """

    def __init__(self, H: np.ndarray, full: bool = True):
        H = np.asarray(H)
        if H.ndim != 2 or H.shape[0] != H.shape[1]:
            raise DimensionMismatch(f"H must be square, got {H.shape}")
        self._decompose(H, full)

    @classmethod
    def _of(cls, H: np.ndarray) -> "EigenResolvent":
        """The same basis, built without calling __init__: the spectral lanes
        run this off the calling thread, where no public method may run."""
        er = cls.__new__(cls)
        er._decompose(H)
        return er

    def _decompose(self, H: np.ndarray, full: bool = True) -> None:
        self.n = H.shape[0]
        self.eigenvalues, V = np.linalg.eigh(H)
        self._V = V if full else None
        self._V2 = V * V if full else np.multiply(V, V, out=V)

    def diag(self, z: complex) -> np.ndarray:
        return self._V2 @ (1.0 / (self.eigenvalues - z))

    def full(self, z: complex) -> np.ndarray:
        if self._V is None:
            raise ValueError("this basis keeps V∘V alone: diag and trace_mean only")
        return (self._V * (1.0 / (self.eigenvalues - z))) @ self._V.T


@dataclass
class SelfEnergyStat:
    error: float        # max_k |S[sigma, G]_kk - <G>|
    normalizer: float   # sqrt((1 + Im <G>) / (N Im z))
    ratio: float


def self_energy_from_diag(sigma: np.ndarray, gd: np.ndarray, z: complex,
                          centered: bool = False) -> SelfEnergyStat:
    """Self-energy gap from a resolvent diagonal alone.

    Computed in centered form, (sigma - 1/N) @ diag(G), which is the same
    quantity in exact arithmetic and is identically zero for the flat
    profile sigma = 1/N (no cancellation error).  centered=True says sigma
    already holds sigma - 1/N, for callers that read many z per profile.
    """
    n = gd.size
    if sigma.shape != (n, n):
        raise DimensionMismatch(f"sigma shape {sigma.shape}, diagonal size {n}")
    dev = (sigma if centered else sigma - 1.0 / n) @ gd
    error = float(np.max(np.abs(dev)))
    tm = complex(np.mean(gd))
    normalizer = float(np.sqrt((1.0 + tm.imag) / (n * complex(z).imag)))
    return SelfEnergyStat(error=error, normalizer=normalizer, ratio=error / normalizer)

