"""Test oracles: the residual-checked dense solve the package's
EigenResolvent is held to, the Ward and minor identities, the operators
S (self-energy) and T (finite-volume error), the drift decomposition, and
the evaluators of a basis, a density and a domain that no command runs:
the trace mean, T(h), a(h) with its range check, the density rebuilt from
a alone, and the domain D'."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from wigflow.density import TABULATED, CalibratedDensity, DensityError, _mix_sum
from wigflow.domains import SpectralDomain
from wigflow.flows import CharacteristicCurve
from wigflow.martingale import MatrixPath
from wigflow.resolvent import DimensionMismatch, EigenResolvent


class SolveFailure(Exception):
    """Linear solve residual exceeded tolerance."""


class DivisionHazard(Exception):
    """A pivot entry G_kk fell below tolerance (cannot happen for Im z > 0)."""


class OutOfRange(DensityError):
    """Evaluation point outside the working interval with clamping disabled."""


class QuadratureFailure(DensityError):
    """A quadrature underlying reconstruction did not converge."""


# Max-norm residual allowed in resolvent(), before conditioning scaling.
_RESIDUAL_TOL = 1e-9
# Smallest |G_kk| minor_resolvent divides by.
_PIVOT_TOL = 1e-13


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


@dataclass
class DriftDecomposition:
    """Cumulative trace drifts <F> and <A> with the reconstruction defect."""

    times: np.ndarray
    F: np.ndarray
    A: np.ndarray
    reconstruction_residual: float


def drift_decomposition(path: MatrixPath, curve: CharacteristicCurve) -> DriftDecomposition:
    """Split the trace evolution along a curve into its two drift pieces.

    Discrete increments, accumulated as trace means with R evaluated at
    the step's left endpoint:

        dF = -<R (dH - T[sigma, R] dt) R>
        dA =  <R (S[sigma, R] - <R>) R> dt

    The reconstruction defect |<R(t)> - <R(0)> - F - A| is limited by the
    step size and the second-order resolvent remainder.
    """
    if curve.reverse_time:
        raise ValueError("decomposition runs along forward curves")
    states = path.states
    n = states[0].n
    ode_times = np.concatenate([[0.0], [s.t for s in states]])
    if not np.array_equal(curve.times, ode_times):
        raise ValueError("curve grid does not match the path checkpoints")
    m = curve.times.size
    F = np.zeros(m, dtype=complex)
    A = np.zeros(m, dtype=complex)
    last = m - 1
    if curve.stopped:
        last = int(np.nonzero(curve.times >= curve.tau)[0][0]) - 1
    for k in range(last):
        dt = curve.times[k + 1] - curve.times[k]
        H0 = np.zeros((n, n)) if k == 0 else states[k - 1].H
        H1 = states[k].H
        sig = states[0].sigma if k == 0 else states[k - 1].sigma
        R = EigenResolvent(H0).full(curve.xi[k])
        RR = R @ R
        X = (H1 - H0) - dt * t_op(sig, R)
        F[k + 1] = F[k] - np.einsum("ij,ji->", X, RR) / n
        dev = (sig - 1.0 / n) @ R.diagonal()
        A[k + 1] = A[k] + (dev * RR.diagonal()).sum() * dt / n
    if last < m - 1:
        F[last + 1:] = F[last]
        A[last + 1:] = A[last]
    recon = np.max(np.abs((curve.r - curve.r[0]) - F - A)[:last + 1])
    return DriftDecomposition(times=curve.times, F=F, A=A,
                              reconstruction_residual=float(recon))


def trace_mean(er: EigenResolvent, z: complex) -> complex:
    return complex(np.mean(1.0 / (er.eigenvalues - z)))


def in_Dprime(dom: SpectralDomain, z) -> bool:
    """Very large domain containing every characteristic started in D0."""
    z = complex(z)
    inv = 1.0 / dom.eta
    return ((dom.W[0] - 3.0 * inv <= z.real <= dom.W[1] + 3.0 * inv)
            and (0.25 * dom.eta <= z.imag <= 1.0 + 3.0 * inv))


def tail_moment(cd: CalibratedDensity, h):
    """T(h) = integral_h^inf k rho(k) dk."""
    if cd.kind == TABULATED:
        return np.interp(h, cd.tab_h, cd.tab_T)
    return _mix_sum(cd.mix_w * cd.mix_s, h, cd.mix_s)


def a_of_h(cd: CalibratedDensity, h):
    """Diffusion coefficient a(h) = T(h)/rho(h) for |h| <= h_max."""
    h = np.asarray(h, dtype=float)
    if np.any(np.abs(h) > cd.h_max):
        bad = float(np.max(np.abs(h)))
        raise OutOfRange(f"|h| = {bad:.6g} exceeds working interval h_max = {cd.h_max:.6g}")
    return cd._a_unchecked(h)


def reconstruct_pdf(cd: CalibratedDensity, h):
    """Recover the density from a alone.

    Evaluates rho_hat(h) = C * a(h)^{-1} * exp(-integral_0^h k/a(k) dk)
    with C fixed by normalization; for a calibrated density this inverts
    the defining relation of a, so rho_hat must match rho.
    """
    h = np.asarray(h, dtype=float)
    if np.any(np.abs(h) > cd.h_max):
        raise OutOfRange("reconstruction query outside the working interval")
    grid_r, rho_hat = _reconstruction_table(cd)
    return np.interp(h, grid_r, rho_hat)


# reconstruction cache, built lazily on first use: id(cd) -> table, each
# entry dropped when its density is collected, so that no id is reused
_recon = {}


def _reconstruction_table(cd: CalibratedDensity):
    if id(cd) not in _recon:
        from scipy import integrate   # imported on use: slow to import
        n = 65537
        grid_r = np.linspace(-cd.h_max, cd.h_max, n)
        mid = n // 2            # grid_r[mid] == 0.0
        integrand = grid_r / cd._a_unchecked(grid_r)
        iu = integrate.cumulative_simpson(integrand[mid:], x=grid_r[mid:], initial=0.0)
        il = integrate.cumulative_simpson(integrand[mid::-1], x=-grid_r[mid::-1], initial=0.0)
        expo = np.concatenate([-il[::-1][:-1], iu])   # integral_0^h k/a dk
        un = np.exp(-(expo - expo.min())) / cd._a_unchecked(grid_r)
        if not np.all(np.isfinite(un)):
            raise QuadratureFailure("non-finite reconstruction integrand")
        norm = integrate.simpson(un, x=grid_r)
        if not np.isfinite(norm) or norm <= 0:
            raise QuadratureFailure("reconstruction normalization failed")
        _recon[id(cd)] = (grid_r, un / norm)
        weakref.finalize(cd, _recon.pop, id(cd), None)
    return _recon[id(cd)]
