"""Semicircle transform values, branch checks, and domain geometry."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import in_Dprime
from wigflow.domains import SpectralDomain, frozen_semicircle_drift, msc


def test_msc_reference_values():
    # golden-ratio value on the imaginary axis
    assert abs(msc(1j) - 0.5 * (np.sqrt(5.0) - 1.0) * 1j) <= 1e-9
    assert abs(msc(0.0) - 1j) <= 1e-12
    assert abs(msc(2.0) - (-1.0)) <= 1e-12
    assert abs(msc(-2.0) - 1.0) <= 1e-12


def test_msc_quadratic_residual_on_grid():
    re = np.linspace(-4.0, 4.0, 40)
    im = np.geomspace(1e-3, 10.0, 25)
    z = (re[None, :] + 1j * im[:, None]).ravel()
    assert z.size == 1000
    m = msc(z)
    assert np.max(np.abs(m * m + z * m + 1.0)) <= 1e-12
    assert np.min(m.imag) > 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(-10.0, 10.0),
       st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-12, 10.0)))
def test_msc_solves_the_quadratic_on_its_branch(x, y):
    # closed upper half plane, the real axis (either signed zero) included:
    # m solves m^2 + z m + 1 = 0 and is the root with Im m > 0 (on the axis,
    # Im m >= 0 and |m| <= 1; the other root is 1/m).  Below Im z = 1e-12,
    # Im m underflows outside the bulk.
    z = complex(x, y)
    m = msc(z)
    assert abs(m * m + z * m + 1.0) <= 1e-13 * (1.0 + abs(z)) ** 2
    assert abs(m) <= 1.0 + 1e-12
    if y > 0.0:
        assert m.imag > 0.0
    else:
        assert m.imag >= 0.0
        assert (m.imag > 0.0) == (abs(x) < 2.0)


def test_msc_decay_at_infinity():
    for ang in np.linspace(0.05, np.pi - 0.05, 11):
        z = 1e3 * np.exp(1j * ang)
        assert abs(msc(z) + 1.0 / z) <= 1e-6


def test_msc_scalar_and_vector_agree():
    zs = np.array([0.3 + 0.2j, -1.7 + 1e-4j, 5.0 + 2.0j])
    vec = msc(zs)
    assert isinstance(msc(zs[0]), complex)
    for i, z in enumerate(zs):
        assert abs(vec[i] - msc(complex(z))) <= 1e-14 * abs(vec[i])


def test_frozen_drift_time_slices():
    w = 0.4 + 0.8j
    assert frozen_semicircle_drift(0.0, w) == -1.0 / w
    assert abs(frozen_semicircle_drift(1.0, w) - msc(w)) <= 1e-15
    for t in (0.25, 0.5, 1.0):
        m = frozen_semicircle_drift(t, w)
        assert abs(t * m * m + w * m + 1.0) <= 1e-12
        assert m.imag > 0.0


def test_frozen_drift_constant_along_straight_lines():
    # gamma(t) = zeta + t/zeta solves the flow; the drift there is -1/zeta
    for zeta in (0.8 + 0.9j, -1.2 + 0.5j, 2.5 + 2.0j):
        for t in (0.1, 0.5, 0.9):
            g = zeta + t / zeta
            assert abs(frozen_semicircle_drift(t, g) - (-1.0 / zeta)) <= 1e-12


def test_eta_and_delta():
    dom = SpectralDomain(n=500)
    assert dom.eta == pytest.approx(500.0 ** (-0.5), rel=1e-15)
    sup_D = np.sqrt(max(dom.W[0] ** 2, dom.W[1] ** 2) + 1.0)
    lhs = 1.0 / (2.0 * dom.delta) - 2.0 * dom.delta
    assert lhs >= 1.0 + sup_D
    # delta is the near-largest admissible value
    assert lhs <= (1.0 + sup_D) * (1.0 + 1e-6)


def test_domain_validation():
    with pytest.raises(ValueError):
        SpectralDomain(n=0)
    with pytest.raises(ValueError):
        SpectralDomain(n=100, theta=1.0)
    with pytest.raises(ValueError):
        SpectralDomain(n=100, theta=0.0)
    with pytest.raises(ValueError):
        SpectralDomain(n=100, W=(-1.8, 1.8))   # violates the kappa margin
    with pytest.raises(ValueError):
        SpectralDomain(n=100, W=(1.0, -1.0))


def test_membership_D():
    dom = SpectralDomain(n=400)
    assert dom.in_D(dom.W[0] + 1j * dom.eta)       # closed corner
    assert dom.in_D(0.0 + 1.0j)
    assert not dom.in_D(0.0 + 1j * (0.5 * dom.eta))
    assert not dom.in_D(0.0 + 1.1j)
    assert not dom.in_D((dom.W[1] + 0.1) + 0.5j)


def test_membership_D0_and_Dprime():
    dom = SpectralDomain(n=400)
    assert dom.in_D0(1.01 * dom.delta * 1j)
    assert not dom.in_D0(0.99 * dom.delta * 1j)    # inside the excluded ball
    assert not dom.in_D0(1.0 + 1j * 0.4 * dom.eta)
    wide = dom.W[1] + 1.5 / dom.eta
    assert dom.in_D0(wide + 1.0j)
    assert in_Dprime(dom, wide + 1.0j)
    assert not in_Dprime(dom, 1.0 + 1j * 0.2 * dom.eta)
    # Dprime extends below and beyond D0
    assert in_Dprime(dom, 1.0 + 1j * 0.3 * dom.eta)
    assert in_Dprime(dom, dom.W[1] + 2.5 / dom.eta + 1.0j)
    assert not dom.in_D0(dom.W[1] + 2.5 / dom.eta + 1.0j)


def test_z_grid():
    dom = SpectralDomain(n=250)
    g = dom.z_grid()
    assert g.shape == (8, 9)
    assert np.all(np.diff(g.imag[:, 0]) > 0)
    assert g.imag[0, 0] == pytest.approx(dom.eta)
    assert g.imag[-1, 0] == pytest.approx(1.0)
    assert g.real[0, 0] == dom.W[0] and g.real[0, -1] == dom.W[1]
    for z in g.ravel():
        assert dom.in_D(z)
