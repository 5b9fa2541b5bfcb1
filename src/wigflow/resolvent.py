"""Resolvents of symmetric matrices and the associated operator algebra.

G(z) = (H - z)^{-1} for Im z > 0.  The entry variance profile sigma acts
on matrices through two operators:

    S[sigma, A]_ij = delta_ij sum_k sigma_ik A_kk     (self-energy)
    T[sigma, A]_ij = (1 - delta_ij) sigma_ij A_ji     (finite-volume error)

The central measurable quantity is how close S[sigma, G] comes to the
scalar <G> I: for the flat profile sigma = 1/N it coincides exactly, and
for admissible profiles the gap concentrates at the (N Im z)^{-1/2} scale.

The package reads G through EigenResolvent, one numpy eigendecomposition
(GIL released) per matrix state; the residual-checked dense solve
resolvent() is the oracle the tests hold it to.  Importing this module pins
the two OpenBLAS copies the numpy and scipy wheels bundle to one thread,
through each one's own thread-count symbol (pin_blas), so no output byte
depends on the host's cores or BLAS environment; forked workers inherit the
pin.  A numpy or scipy built against another BLAS fails this import.
"""

from __future__ import annotations

import ctypes
import glob
import os
from dataclasses import dataclass

import numpy as np
import scipy


class SolveFailure(Exception):
    """Linear solve residual exceeded tolerance."""


class DimensionMismatch(Exception):
    pass


class DivisionHazard(Exception):
    """A pivot entry G_kk fell below tolerance (cannot happen for Im z > 0)."""


# Max-norm residual allowed in resolvent(), before conditioning scaling.
_RESIDUAL_TOL = 1e-9
# Smallest |G_kk| minor_resolvent divides by.
_PIVOT_TOL = 1e-13


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


def _tolerance_scale(n: int, z: complex) -> float:
    # identity tolerances degrade with condition number 1/Im z
    return max(1.0, np.finfo(float).eps / (n * z.imag ** 2))


@dataclass
class ResolventSample:
    """G at one spectral point with its trace mean <G> = N^{-1} tr G."""

    z: complex
    G: np.ndarray
    trace_mean: complex
    residual: float | None = None

    @property
    def n(self) -> int:
        return self.G.shape[0]


def resolvent(H: np.ndarray, z: complex) -> ResolventSample:
    """Dense solve of (H - z) G = I, residual-checked.

    The max-norm residual of the defining equation is computed and
    verified against _RESIDUAL_TOL (scaled by the conditioning of the
    problem).
    """
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("resolvent needs Im z > 0")
    H = np.asarray(H)
    n = H.shape[0]
    if H.shape != (n, n):
        raise DimensionMismatch(f"H must be square, got {H.shape}")
    A = H.astype(complex, copy=True)
    idx = np.arange(n)
    A[idx, idx] -= z
    from scipy import linalg   # imported on use: the oracle is the only caller
    G = linalg.solve(A, np.eye(n, dtype=complex), assume_a="sym", check_finite=False)
    residual = float(np.max(np.abs(A @ G - np.eye(n))))
    if residual > _RESIDUAL_TOL * _tolerance_scale(n, z):
        raise SolveFailure(
            f"residual {residual:.3e} exceeds tolerance at z = {z:.6g}")
    return ResolventSample(z=z, G=G, trace_mean=complex(np.mean(G.diagonal())),
                          residual=residual)


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

    def trace_mean(self, z: complex) -> complex:
        return complex(np.mean(1.0 / (self.eigenvalues - z)))

    def diag(self, z: complex) -> np.ndarray:
        return self._V2 @ (1.0 / (self.eigenvalues - z))

    def full(self, z: complex) -> np.ndarray:
        if self._V is None:
            raise ValueError("this basis keeps V∘V alone: diag and trace_mean only")
        return (self._V * (1.0 / (self.eigenvalues - z))) @ self._V.T


def s_op(sigma: np.ndarray, A: np.ndarray) -> np.ndarray:
    """S[sigma, A]: diagonal matrix with entries sum_k sigma_ik A_kk."""
    sigma, A = np.asarray(sigma), np.asarray(A)
    if sigma.shape != A.shape or sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"shapes {sigma.shape} and {A.shape} incompatible")
    return np.diag(sigma @ A.diagonal())


def t_op(sigma: np.ndarray, A: np.ndarray) -> np.ndarray:
    """T[sigma, A]_ij = (1 - delta_ij) sigma_ij A_ji; zero diagonal."""
    sigma, A = np.asarray(sigma), np.asarray(A)
    if sigma.shape != A.shape or sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise DimensionMismatch(f"shapes {sigma.shape} and {A.shape} incompatible")
    out = sigma * A.T
    np.fill_diagonal(out, 0.0)
    return out


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


def self_energy_error(sigma: np.ndarray, sample: ResolventSample) -> SelfEnergyStat:
    """Gap between the self-energy diagonal and the trace mean."""
    return self_energy_from_diag(sigma, sample.G.diagonal(), sample.z)


@dataclass
class MinorStat:
    minor: ResolventSample        # resolvent of H with row/column k zeroed
    identity_residual: float      # max_{j != k} |G_jj - G^k_jj - G_kj G_jk / G_kk|
    trace_gap: float              # |<G^k> - <G>|


def minor_resolvent(H: np.ndarray, k: int, z: complex) -> MinorStat:
    """Rank-based identity linking G to the resolvent of the k-minor."""
    z = complex(z)
    if z.imag <= 0:
        raise ValueError("resolvent needs Im z > 0")
    H = np.asarray(H)
    n = H.shape[0]
    if not 0 <= k < n:
        raise ValueError(f"index k = {k} outside 0..{n - 1}")
    Hk = H.copy()
    Hk[k, :] = 0.0
    Hk[:, k] = 0.0
    G = EigenResolvent(H).full(z)
    Gk = EigenResolvent(Hk).full(z)
    if abs(G[k, k]) < _PIVOT_TOL:
        raise DivisionHazard(f"|G_kk| = {abs(G[k, k]):.3e} below {_PIVOT_TOL:.1e}")
    pred = Gk.diagonal() + G[k, :] * G[:, k] / G[k, k]
    resid = np.abs(G.diagonal() - pred)
    resid[k] = 0.0
    minor = ResolventSample(z=z, G=Gk, trace_mean=complex(np.mean(Gk.diagonal())))
    return MinorStat(minor=minor,
                     identity_residual=float(resid.max()),
                     trace_gap=float(abs(minor.trace_mean - np.mean(G.diagonal()))))


def ward_check(sample: ResolventSample) -> float:
    """Max relative violation of sum_j |G_ij|^2 = Im G_ii / Im z."""
    G = sample.G
    row_power = np.einsum("ij,ij->i", G, G.conj()).real
    target = G.diagonal().imag / sample.z.imag
    return float(np.max(np.abs(row_power - target) / target))


def self_consistent_residual(sample: ResolventSample) -> float:
    """N^{-1} Frobenius norm of I + (z + <G>) G."""
    n = sample.n
    M = (sample.z + sample.trace_mean) * sample.G
    M[np.arange(n), np.arange(n)] += 1.0
    return float(np.linalg.norm(M, "fro") / n)
