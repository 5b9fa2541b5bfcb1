"""Density calibration, diffusion coefficients, and round trips.

Derived values are checked against quadrature oracles built here from the
defining integrals, independently of the closed forms in the package.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri

from wigflow import streams
from wigflow.density import (
    DensitySpec, MomentFailure, NonPositiveDensity, OutOfRange, UnboundedA,
    calibrate, sample_iid, verify_assumption,
)

MIX_WEIGHTS = (0.5, 0.5)
MIX_SIGMAS = (np.sqrt(0.5), np.sqrt(1.5))


@pytest.fixture(scope="module")
def gaussian():
    return calibrate(DensitySpec.gaussian())


@pytest.fixture(scope="module")
def mixture():
    return calibrate(DensitySpec.mixture(MIX_WEIGHTS, MIX_SIGMAS))


def quad_a_oracle(cd, h):
    """a(h) from the defining integrals by adaptive quadrature."""
    tail, _ = integrate.quad(lambda k: k * float(cd.rho(k)), h, cd.h_max,
                             epsabs=1e-14, epsrel=1e-12, limit=400)
    return tail / float(cd.rho(h))


def test_gaussian_a_is_one_on_grid(gaussian):
    assert np.max(np.abs(gaussian.a_grid - 1.0)) <= 1e-8
    assert gaussian.a_sup == 1.0
    assert gaussian.lipschitz_estimate <= 1e-6


def test_gaussian_a_matches_quadrature_oracle(gaussian):
    for h in (0.0, 0.7, 2.0, 3.5):
        assert abs(float(gaussian.a_of_h(h)) - quad_a_oracle(gaussian, h)) < 1e-8


def test_gaussian_is_exact_one_component_mixture(gaussian):
    # the closed forms keep every Gaussian value the same bit for bit
    u = streams.stream(3, 0).random(10_000)
    x = sample_iid(gaussian, u.size, streams.stream(3, 0))
    assert x.tobytes() == ndtri(u).tobytes()
    h = np.linspace(-1.5 * gaussian.h_max, 1.5 * gaussian.h_max, 1001)
    vals, _n = gaussian.a_clamped(h)
    assert np.all(vals == 1.0)
    assert gaussian.integral_a_rho == ndtr(gaussian.h_max) - ndtr(-gaussian.h_max)


_random_mixtures = st.integers(1, 3).flatmap(lambda k: st.tuples(
    st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k),
    st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_random_mixtures)
def test_random_mixtures_admissible_and_round_trip(weights_sigmas):
    weights, sigmas = weights_sigmas
    cd = calibrate(DensitySpec.mixture(np.asarray(weights) / sum(weights), sigmas))
    assert verify_assumption(cd).passed
    # quadrature oracle for the closed-form integral of a*rho = T
    oracle, _err = integrate.quad(lambda x: float(cd.tail_moment(x)), -cd.h_max,
                                  cd.h_max, epsabs=1e-12, epsrel=1e-11, limit=200)
    assert abs(cd.integral_a_rho - oracle) <= 1e-10
    h = np.linspace(-6.0, 6.0, 801)
    assert np.max(np.abs(cd.reconstruct_pdf(h) - cd.rho(h))) <= 1e-5


def test_mixture_a_at_zero_closed_form(mixture):
    # centered scale mixture: a(0) = (sum w sigma)/(sum w/sigma) = sigma1*sigma2
    expected = np.sqrt(3.0) / 2.0
    assert abs(float(mixture.a_of_h(0.0)) - expected) < 1e-6
    assert abs(quad_a_oracle(mixture, 0.0) - expected) < 1e-6


def test_mixture_a_far_tail_approaches_widest_variance(mixture):
    val = float(mixture.a_of_h(6.0))
    assert abs(val - 1.5) / 1.5 < 0.02
    assert abs(val - quad_a_oracle(mixture, 6.0)) < 1e-8


def test_mixture_a_no_underflow_at_interval_end(mixture):
    vals = mixture.a_of_h(np.array([-mixture.h_max, mixture.h_max]))
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


def test_exponential_tails_rejected():
    h = np.linspace(-12.0, 12.0, 1201)
    rho = np.exp(-np.sqrt(2.0) * np.abs(h)) / np.sqrt(2.0)
    with pytest.raises(UnboundedA):
        calibrate(DensitySpec.tabulated(h, rho))


def test_tabulated_gaussian_not_rejected():
    h = np.linspace(-10.0, 10.0, 2001)
    cd = calibrate(DensitySpec.tabulated(h, np.exp(-h * h / 2.0)))
    assert abs(cd.mean) < 1e-12 and abs(cd.variance - 1.0) < 1e-12
    mid = np.abs(cd.grid) <= 5.0
    assert np.max(np.abs(cd.a_grid[mid] - 1.0)) < 5e-4


def test_invariants_all_kinds(gaussian, mixture):
    h = np.linspace(-10.0, 10.0, 2001)
    tab = calibrate(DensitySpec.tabulated(h, np.exp(-h * h / 2.0)))
    for cd in (gaussian, mixture, tab):
        assert abs(cd.integral_rho - 1.0) <= 1e-8
        assert abs(cd.integral_a_rho - 1.0) <= 1e-8
        assert np.all(cd.rho_grid > 0)
        assert np.all(cd.a_grid > 0)
        assert np.max(cd.a_grid) <= cd.a_sup + 1e-15


def test_verify_assumption_reports(gaussian, mixture):
    rg = verify_assumption(gaussian)
    assert rg.passed and rg.a_sup == 1.0 and rg.lipschitz_estimate <= 1e-6
    rm = verify_assumption(mixture)
    assert rm.passed
    assert abs(rm.integral_a_rho - 1.0) <= 1e-8
    assert abs(rm.variance - 1.0) <= 1e-8
    d = rm.to_dict()
    assert set(d) >= {"a_sup", "lipschitz_estimate", "mean", "variance",
                      "integral_a_rho", "clamp_count"}


def test_reconstruction_round_trip_gaussian(gaussian):
    h = np.linspace(-6.0, 6.0, 801)
    err = np.abs(gaussian.reconstruct_pdf(h) - gaussian.rho(h))
    assert err.max() <= 1e-6


def test_reconstruction_round_trip_mixture(mixture):
    h = np.linspace(-6.0, 6.0, 801)
    err = np.abs(mixture.reconstruct_pdf(h) - mixture.rho(h))
    assert err.max() <= 1e-5


def test_reconstruction_constant_a_gives_normal():
    # with a forced to 1 the exponent integral is h^2/2 exactly
    cd = calibrate(DensitySpec.gaussian())
    h = np.linspace(-5.0, 5.0, 401)
    expected = np.exp(-h * h / 2.0) / np.sqrt(2.0 * np.pi)
    assert np.max(np.abs(cd.reconstruct_pdf(h) - expected)) < 1e-8


def test_out_of_range_raises(mixture):
    with pytest.raises(OutOfRange):
        mixture.a_of_h(mixture.h_max + 1.0)


def test_clamped_evaluation_counts(mixture):
    vals, n = mixture.a_clamped(np.array([0.0, mixture.h_max + 3.0, -mixture.h_max - 1.0]))
    assert n == 2
    assert vals[1] == pytest.approx(float(mixture.a_of_h(mixture.h_max)))


def test_clamped_evaluation_in_place_is_bitwise_equal(gaussian, mixture):
    # the SDE loop evaluates a into its input buffer with reused scratch
    for cd in (gaussian, mixture):
        h = np.linspace(-1.5 * cd.h_max, 1.5 * cd.h_max, 1001)
        vals, n = cd.a_clamped(h)
        buf = h.copy()
        got, m = cd.a_clamped(buf, out=buf, work=np.empty((4, h.size)))
        assert got is buf and m == n > 0
        assert np.array_equal(got, vals)


def test_sampling_deterministic(mixture):
    a = sample_iid(mixture, 1000, streams.stream(7, 1, 2))
    b = sample_iid(mixture, 1000, streams.stream(7, 1, 2))
    assert np.array_equal(a, b)


def test_sampling_median_symmetric(mixture):
    x = sample_iid(mixture, 200_000, streams.stream(11, 0))
    assert abs(np.median(x)) < 0.01


def test_sampling_ks_against_exact_cdf(gaussian):
    from scipy.stats import kstest
    n = 100_000
    x = sample_iid(gaussian, n, streams.stream(5, 0))
    stat = kstest(x, "norm").statistic
    assert stat < 1.36 / np.sqrt(n)


def test_sampling_matches_cdf_mixture(mixture):
    from scipy.stats import kstest
    n = 100_000
    x = sample_iid(mixture, n, streams.stream(5, 1))
    stat = kstest(x, lambda q: mixture.cdf(q)).statistic
    assert stat < 1.36 / np.sqrt(n)


def test_mixture_weight_validation():
    with pytest.raises(MomentFailure):
        calibrate(DensitySpec(kind="gaussian-mixture", weights=(0.6, 0.6),
                              sigmas=MIX_SIGMAS))
    with pytest.raises(MomentFailure):   # a mixture may not carry the Gaussian label
        calibrate(DensitySpec(kind="standard-gaussian", weights=MIX_WEIGHTS,
                              sigmas=MIX_SIGMAS))


def test_tabulated_positivity_validation():
    h = np.linspace(-5, 5, 101)
    v = np.exp(-h * h / 2)
    v[50] = 0.0
    with pytest.raises(NonPositiveDensity):
        calibrate(DensitySpec.tabulated(h, v))
