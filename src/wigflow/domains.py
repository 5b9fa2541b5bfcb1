"""Spectral domains and the semicircle Stieltjes transform.

The minimal spectral scale is eta = N^{theta-1}.  Flows start in the
large initial domain D0, stay inside the very large domain Dprime, and
are evaluated on the bulk window D = W + i(eta, 1) with W compactly
inside (-2, 2).  The constant delta excludes a ball around the origin
where the t = 0 resolvent -1/z is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def msc(z):
    """Stieltjes transform of the semicircle law.

    m(z) = (-z + sqrt(z - 2) sqrt(z + 2)) / 2, the root of
    m^2 + z m + 1 = 0 with Im m >= 0 and m ~ -1/z at infinity.  The
    factored square root keeps the branch cut on [-2, 2], so the formula
    is valid on the whole closed upper half plane, boundary included;
    adding +0j turns an imaginary part of -0.0 (still the real axis) into
    +0.0, which keeps the root above the cut.
    """
    z = np.asarray(z, dtype=complex) + 0j
    m = 0.5 * (-z + np.sqrt(z - 2.0) * np.sqrt(z + 2.0))
    return m if m.ndim else complex(m)


def frozen_semicircle_drift(t, w):
    """Trace mean of the time-t semicircle flow: root of t m^2 + w m + 1 = 0.

    Equals msc(w/sqrt(t))/sqrt(t) for t > 0 and -1/w at t = 0.  Used as a
    deterministic stand-in for a path's resolvent trace: it turns every
    flow statement into a closed-form identity (the characteristics are
    straight lines gamma(t, zeta) = zeta + t/zeta along which the drift
    is the constant -1/zeta).
    """
    w = np.asarray(w, dtype=complex)
    if t == 0.0:
        out = -1.0 / w
    else:
        rt = np.sqrt(t)
        out = msc(w / rt) / rt
    return out if np.ndim(out) else complex(out)


@dataclass
class SpectralDomain:
    """Bulk window, spectral scale, and the nested flow domains."""

    n: int
    theta: float = 0.5
    kappa: float = 0.5
    W: tuple = (-1.5, 1.5)
    eta: float = field(init=False)
    delta: float = field(init=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 0.0 < self.theta < 1.0:
            raise ValueError("theta must lie in (0, 1)")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        w1, w2 = self.W
        if not -2.0 + self.kappa <= w1 < w2 <= 2.0 - self.kappa:
            raise ValueError(f"W = {self.W} must sit inside [-2+kappa, 2-kappa]")
        self.eta = float(self.n) ** (self.theta - 1.0)
        # largest delta with 1/(2 delta) - 2 delta >= 1 + sup |D|; shrink by
        # a hair so the inequality survives round-off
        c = 1.0 + np.sqrt(max(w1 * w1, w2 * w2) + 1.0)
        self.delta = (1.0 - 1e-9) * (np.sqrt(c * c + 4.0) - c) / 4.0

    def in_D(self, z) -> bool:
        """Bulk evaluation window W + i[eta, 1] (closed for grid endpoints)."""
        z = complex(z)
        return (self.W[0] <= z.real <= self.W[1]) and (self.eta <= z.imag <= 1.0)

    def in_D0(self, z) -> bool:
        """Initial flow domain: wide rectangle minus the delta-ball at 0."""
        z = complex(z)
        inv = 1.0 / self.eta
        return ((self.W[0] - 2.0 * inv <= z.real <= self.W[1] + 2.0 * inv)
                and (0.5 * self.eta <= z.imag <= 1.0 + 2.0 * inv)
                and abs(z) > self.delta)

    def in_Dprime(self, z) -> bool:
        """Very large domain containing every characteristic started in D0."""
        z = complex(z)
        inv = 1.0 / self.eta
        return ((self.W[0] - 3.0 * inv <= z.real <= self.W[1] + 3.0 * inv)
                and (0.25 * self.eta <= z.imag <= 1.0 + 3.0 * inv))

    def z_grid(self, n_im: int = 8, n_re: int = 9) -> np.ndarray:
        """Log-spaced Im levels from eta to 1 crossed with uniform Re across W.

        Shape (n_im, n_re), row index = imaginary level, ascending.
        """
        ims = np.geomspace(self.eta, 1.0, n_im)
        res = np.linspace(self.W[0], self.W[1], n_re)
        return res[None, :] + 1j * ims[:, None]
