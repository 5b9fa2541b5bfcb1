"""Resolvent algebra: exact identities, operators, concentration inputs."""

import re
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wigflow.resolvent import (
    DimensionMismatch, EigenResolvent, MinorStat, ResolventSample,
    minor_resolvent, resolvent, s_op, self_consistent_residual,
    self_energy_error, t_op, ward_check,
)


def wigner(n, seed, scale=1.0):
    """Symmetric matrix with iid N(0, scale/n) entries up to symmetry."""
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n)
    H = np.zeros((n, n))
    H[iu] = rng.standard_normal(iu[0].size) * np.sqrt(scale / n)
    H.T[iu] = H[iu]
    return H


def msc_oracle(z):
    # root of m^2 + z m + 1 with Im m > 0, computed without branch tricks
    roots = np.roots([1.0, complex(z), 1.0])
    return roots[np.argmax(roots.imag)]


def test_zero_matrix():
    s = resolvent(np.zeros((5, 5)), 1j)
    assert np.allclose(s.G, -np.eye(5) / 1j, atol=1e-14)
    assert s.trace_mean == pytest.approx(1j)


def test_one_by_one():
    s = resolvent(np.array([[0.7]]), 0.3 + 0.2j)
    assert s.G[0, 0] == pytest.approx(1.0 / (0.7 - (0.3 + 0.2j)))


def test_two_by_two_swap():
    s = resolvent(np.array([[0.0, 1.0], [1.0, 0.0]]), 1j)
    assert s.trace_mean == pytest.approx(0.5j)


def test_resolvent_bound_and_positive_imag():
    for seed in range(5):
        H = wigner(60, seed)
        z = 0.3 + 0.05j * (seed + 1)
        s = resolvent(H, z)
        assert np.linalg.norm(s.G, 2) <= 1.0 / z.imag + 1e-9
        assert s.trace_mean.imag > 0


def test_resolvent_residual_small():
    s = resolvent(wigner(80, 3), 0.2 + 0.1j)
    assert s.residual is not None and s.residual < 1e-10


def test_resolvent_rejects_lower_half():
    with pytest.raises(ValueError):
        resolvent(np.zeros((3, 3)), -1j)


def test_eigen_path_matches_solve():
    H = wigner(50, 4)
    er = EigenResolvent(H)
    for z in (1j, 0.4 + 0.03j, -1.1 + 0.5j):
        s = resolvent(H, z)
        assert abs(er.trace_mean(z) - s.trace_mean) < 1e-11
        assert np.max(np.abs(er.diag(z) - s.G.diagonal())) < 1e-10
        assert np.max(np.abs(er.full(z) - s.G)) < 1e-10


@pytest.mark.bitwise
def test_squares_only_basis_reads_diag_bitwise():
    # full=False keeps V∘V alone, in V's buffer: diag and trace_mean keep
    # their bits, full raises
    H = wigner(60, 8)
    er, half = EigenResolvent(H), EigenResolvent(H, full=False)
    assert half._V is None and half._V2.nbytes == er._V.nbytes
    assert half._V2.tobytes() == er._V2.tobytes()
    for z in (1j, 0.4 + 0.03j, -1.1 + 0.5j):
        assert half.diag(z).tobytes() == er.diag(z).tobytes()
        assert half.trace_mean(z) == er.trace_mean(z)
    with pytest.raises(ValueError, match="diag and trace_mean only"):
        half.full(1j)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(4, 40), seed=st.integers(0, 2 ** 32 - 1),
       re=st.floats(-3.0, 3.0), log_im=st.floats(-3.0, 0.5))
def test_eigen_resolvent_algebra_random(n, seed, re, log_im):
    # errors are relative to max |G| <= 1/Im z and grow with the
    # conditioning 1/Im z; measured worst cases sit near 3e-13 / Im z
    z = complex(re, 10.0 ** log_im)
    tol = 1e-11 / z.imag
    H = wigner(n, seed)
    oracle = resolvent(H, z)
    scale = float(np.max(np.abs(oracle.G)))
    er = EigenResolvent(H)
    G = er.full(z)
    assert np.max(np.abs(G - oracle.G)) <= tol * scale
    assert np.max(np.abs(er.diag(z) - oracle.G.diagonal())) <= tol * scale
    assert abs(er.trace_mean(z) - oracle.trace_mean) <= tol * scale
    assert ward_check(oracle) <= tol
    assert ward_check(ResolventSample(z=z, G=G, trace_mean=er.trace_mean(z))) <= tol
    ms = minor_resolvent(H, seed % n, z)
    assert ms.identity_residual <= tol * float(np.max(np.abs(oracle.G.diagonal())))
    assert ms.minor.G[seed % n, seed % n] == pytest.approx(-1.0 / z, rel=tol)


def test_s_op_flat_profile_collapses_to_trace():
    A = np.arange(16.0).reshape(4, 4) + 1j
    out = s_op(np.full((4, 4), 0.25), A)
    expected = np.mean(A.diagonal()) * np.eye(4)
    assert np.allclose(out, expected, atol=1e-15)


def test_s_op_identity_input():
    sigma = np.abs(wigner(4, 5)) + 0.1
    out = s_op(sigma, np.eye(4))
    assert np.allclose(np.diag(out), sigma.sum(axis=1))


def test_s_op_matches_double_loop():
    rng = np.random.default_rng(6)
    sigma = rng.random((3, 3))
    A = rng.random((3, 3)) + 1j * rng.random((3, 3))
    out = s_op(sigma, A)
    for i in range(3):
        for j in range(3):
            want = sum(sigma[i, k] * A[k, k] for k in range(3)) if i == j else 0.0
            assert out[i, j] == pytest.approx(want, abs=1e-15)


def test_t_op_diagonal_input_is_zero():
    sigma = np.ones((4, 4))
    assert np.all(t_op(sigma, np.diag([1.0, 2.0, 3.0, 4.0])) == 0)


def test_t_op_flat_profile():
    A = wigner(5, 7)
    out = t_op(np.full((5, 5), 0.2), A)
    expected = 0.2 * (A - np.diag(A.diagonal()))
    assert np.allclose(out, expected, atol=1e-15)


def test_t_op_matches_double_loop():
    rng = np.random.default_rng(8)
    sigma = rng.random((3, 3))
    A = rng.random((3, 3)) + 1j * rng.random((3, 3))
    out = t_op(sigma, A)
    for i in range(3):
        for j in range(3):
            want = 0.0 if i == j else sigma[i, j] * A[j, i]
            assert out[i, j] == pytest.approx(want, abs=1e-15)


def test_dimension_mismatch_raised():
    with pytest.raises(DimensionMismatch):
        s_op(np.ones((3, 3)), np.ones((4, 4)))
    with pytest.raises(DimensionMismatch):
        t_op(np.ones((3, 2)), np.ones((3, 2)))


def test_self_energy_zero_for_flat_profile():
    n = 40
    s = resolvent(wigner(n, 9), 0.5j)
    stat = self_energy_error(np.full((n, n), 1.0 / n), s)
    assert stat.error == 0.0


def test_self_energy_brute_force_two_by_two():
    H = np.array([[0.3, -0.2], [-0.2, 0.1]])
    sigma = np.array([[0.6, 0.4], [0.4, 0.5]])
    s = resolvent(H, 0.7j)
    stat = self_energy_error(sigma, s)
    tm = (s.G[0, 0] + s.G[1, 1]) / 2
    e0 = abs(sigma[0, 0] * s.G[0, 0] + sigma[0, 1] * s.G[1, 1] - tm)
    e1 = abs(sigma[1, 0] * s.G[0, 0] + sigma[1, 1] * s.G[1, 1] - tm)
    assert stat.error == pytest.approx(max(e0, e1), abs=1e-12)
    assert stat.normalizer == pytest.approx(
        np.sqrt((1 + tm.imag) / (2 * 0.7)), abs=1e-12)


def test_minor_identity_random():
    H = wigner(50, 10)
    st = minor_resolvent(H, 7, 1j)
    assert isinstance(st, MinorStat)
    assert st.identity_residual < 1e-10


def test_minor_rejects_lower_half():
    H = wigner(10, 1)
    for z in (-1j, 0.5 + 0j):
        with pytest.raises(ValueError):
            minor_resolvent(H, 0, z)


def test_minor_kk_entry():
    st = minor_resolvent(wigner(30, 11), 4, 0.3 + 0.8j)
    assert st.minor.G[4, 4] == pytest.approx(-1.0 / (0.3 + 0.8j), abs=1e-12)


def test_minor_trace_gap_scaling():
    # |<G^k> - <G>| <= C / (N Im z); C stays modest over random draws
    worst = 0.0
    for seed in range(100):
        n = 40
        z = 0.2 + 0.25j
        st = minor_resolvent(wigner(n, 100 + seed), seed % n, z)
        worst = max(worst, st.trace_gap * n * z.imag)
    assert worst < 4.0


def test_ward_zero_matrix():
    s = resolvent(np.zeros((6, 6)), 0.4 + 0.5j)
    assert ward_check(s) < 1e-13


def test_ward_random():
    s = resolvent(wigner(100, 12), 0.5j)
    assert ward_check(s) < 1e-9


def test_ward_diagonal_matrix():
    lam = np.array([-1.0, -0.3, 0.2, 0.9])
    s = resolvent(np.diag(lam), 0.1 + 0.3j)
    # per-row identity reduces to 1/|lam_i - z|^2
    rows = np.abs(s.G) ** 2 @ np.ones(4)
    assert np.allclose(rows, 1.0 / np.abs(lam - (0.1 + 0.3j)) ** 2, rtol=1e-12)
    assert ward_check(s) < 1e-12


def test_self_consistency_semicircle_fixed_point():
    for z in (1j, 0.5 + 0.2j, -1.2 + 0.05j):
        m = msc_oracle(z)
        G = m * np.eye(8)
        s = ResolventSample(z=z, G=G, trace_mean=m)
        assert self_consistent_residual(s) < 1e-12


def test_self_consistency_zero_matrix_closed_form():
    n, z = 50, 0.7 + 0.9j
    s = resolvent(np.zeros((n, n)), z)
    # 1 + (z + <G>)G = 1 - (z - 1/z)/z = z^{-2} entrywise on the diagonal
    assert self_consistent_residual(s) == pytest.approx(
        abs(z) ** -2 / np.sqrt(n), rel=1e-10)


def test_self_consistency_wigner_small():
    s = resolvent(wigner(300, 13), 1j)
    assert self_consistent_residual(s) <= 0.1


def test_blas_pin_fails_loudly(monkeypatch):
    from wigflow import resolvent as module
    found = module._openblas_libraries()
    # no library to pin
    monkeypatch.setattr(module, "_openblas_libraries", lambda: [])
    with pytest.raises(RuntimeError, match="not pinned"):
        module.pin_blas()
    # a library whose thread count does not read back as 1
    fake = types.SimpleNamespace(set=lambda k: None, get=lambda: 2)
    monkeypatch.setattr(module, "_openblas_libraries", lambda: [("libfake.so", fake, "{}")])
    with pytest.raises(RuntimeError, match="libfake.so"):
        module.pin_blas()
    # one bundled copy alone: the other would keep its default thread count
    monkeypatch.setattr(module, "_openblas_libraries", lambda: found[:1])
    with pytest.raises(RuntimeError, match=re.escape(str([found[0][0]]))):
        module.pin_blas()
    # every copy found, one reading back 2 after the pin
    fakes = [(f"libfake{i}.so", types.SimpleNamespace(
        **{sym.format("set"): lambda k: None, sym.format("get"): lambda i=i: 1 + i}), sym)
        for i, (_module, _pattern, sym) in enumerate(module._OPENBLAS)]
    monkeypatch.setattr(module, "_openblas_libraries", lambda: fakes)
    with pytest.raises(RuntimeError, match="'libfake1.so': 2"):
        module.pin_blas()
