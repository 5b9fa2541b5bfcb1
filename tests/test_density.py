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
                      "integral_a_rho"}


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


# -------------------------------------------- kernels against their old forms

_SQRT2PI = np.sqrt(2.0 * np.pi)
_KINDS = {"gaussian": DensitySpec.gaussian(),
          "mix2": DensitySpec.mixture(MIX_WEIGHTS, MIX_SIGMAS),
          "mix3": DensitySpec.mixture((0.2, 0.5, 0.3), (0.6, 1.0, 1.4)),
          "tabulated": DensitySpec.tabulated(np.linspace(-8, 8, 161),
                                             np.exp(-0.5 * np.linspace(-8, 8, 161) ** 2))}


@pytest.fixture(scope="module", params=list(_KINDS))
def any_density(request):
    return calibrate(_KINDS[request.param])


def _a_clamped_reference(cd, h):
    """a_clamped as an |h| count and fill-based mixture sum: the reference form."""
    h = np.asarray(h, dtype=float)
    n_clamped = int(np.count_nonzero(np.abs(h) > cd.h_max))
    if n_clamped:
        h = np.clip(h, -cd.h_max, cd.h_max)
    if cd.kind == "tabulated":
        return np.interp(h, cd.grid, cd.a_grid), n_clamped
    w, s, cs = cd.mix_w, cd.mix_s, cd.mix_cshift
    x2 = np.square(h)
    num, den = np.full_like(x2, w[-1] * s[-1]), np.full_like(x2, w[-1] / s[-1])
    for i in range(len(s) - 1):
        e = np.exp(cs[i] * x2)
        num += (w[i] * s[i]) * e
        den += (w[i] / s[i]) * e
    return num / den, n_clamped


def _entries_at_the_edges(cd):
    hm = cd.h_max
    h = np.concatenate([streams.stream(23, 0).standard_normal(3000) * 0.6 * hm,
                        [hm, -hm, np.nextafter(hm, np.inf), -np.nextafter(hm, np.inf),
                         1.5 * hm, -2.0 * hm, 0.0, -0.0, np.nan, np.nan]])
    finite = h[:-2]   # with NaN, without, past one edge only, all inside
    return h, finite, finite[finite <= hm], finite[finite >= -hm], finite[np.abs(finite) <= hm]


@pytest.mark.bitwise
def test_a_clamped_bitwise_against_count_and_fill_form(any_density):
    cd = any_density
    for h in _entries_at_the_edges(cd):
        want, n_want = _a_clamped_reference(cd, h)
        for mode in ("plain", "out", "out+work", "aliased"):
            buf = h.copy()
            out = {"plain": None, "out": np.empty_like(h), "out+work": np.empty_like(h),
                   "aliased": buf}[mode]
            work = np.empty((4, h.size)) if mode in ("out+work", "aliased") else None
            got, n = cd.a_clamped(buf, out=out, work=work)
            assert n == n_want, mode
            assert np.asarray(got).tobytes() == want.tobytes(), mode
            if out is not None:
                assert got is out
            if mode != "aliased":
                assert np.array_equal(buf, h, equal_nan=True)


@pytest.mark.bitwise
def test_a_of_h_and_a_clamped_return_scalars_for_0d_input(any_density):
    cd = any_density
    for x in (0.0, -1.25, np.float64(0.5 * cd.h_max), np.array(-cd.h_max), np.array(2.0 * cd.h_max)):
        want, n_want = _a_clamped_reference(cd, x)
        assert type(want) is np.float64
        got, n = cd.a_clamped(x)
        assert (type(got), n, got.tobytes()) == (np.float64, n_want, want.tobytes())
        if not n_want:
            got = cd.a_of_h(x)
            assert (type(got), got.tobytes()) == (np.float64, want.tobytes())


def _mix_reference(cd):
    """rho, cdf, tail_moment and quantile of a mixture through (n, k) arrays."""
    w, s = cd.mix_w, cd.mix_s

    def mix_sum(coef, h):
        z = np.asarray(h, dtype=float)[..., None] / s
        return (coef * (np.exp(-0.5 * np.square(z)) / _SQRT2PI)).sum(axis=-1)

    def cdf(h):
        return (w * ndtr(np.asarray(h, dtype=float)[..., None] / s)).sum(axis=-1)

    def quantile(p):
        p = np.asarray(p, dtype=float)
        if s.size == 1:
            return s[0] * ndtri(p)
        x = np.interp(p, cd.cdf_grid, cd.grid)
        for _ in range(3):
            x = x - (cdf(x) - p) / np.maximum(mix_sum(w / s, x), 1e-300)
        return np.clip(x, -cd.h_max, cd.h_max)

    return {"rho": lambda h: mix_sum(w / s, h), "cdf": cdf,
            "tail_moment": lambda h: mix_sum(w * s, h), "quantile": quantile}


@pytest.mark.bitwise
@pytest.mark.parametrize("spec", ["gaussian", "mix2", "mix3"])
def test_mixture_evaluators_bitwise_against_broadcast_form(spec):
    cd = calibrate(_KINDS[spec])
    h = np.linspace(-cd.h_max, cd.h_max, 2001)
    p = streams.stream(29, 0).random(2000)
    for name, ref in _mix_reference(cd).items():
        fn = getattr(cd, name)
        for x in ((p, 0.3, np.float64(0.7), np.array(0.01)) if name == "quantile"
                  else (h, 0.0, -1.25, np.float64(2.5), np.array(-0.5))):
            got, want = fn(x), ref(x)
            assert np.shape(got) == np.shape(want), (name, x)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (name, x)
