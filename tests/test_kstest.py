"""The package's two-sample KS test against scipy.stats.ks_2samp, bit for bit,
on every branch of the port."""

import ast
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from wigflow import kstest
from wigflow.kstest import ks_2samp

_SOURCE = Path(kstest.__file__).read_text(encoding="utf-8")
# every return statement of the port, as (function, line)
_RETURNS = {(fn.name, node.lineno) for fn in ast.parse(_SOURCE).body
            if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
            if isinstance(node, ast.Return)}
_LAST_RETURN = max(line for name, line in _RETURNS if name == "ks_2samp")


def _branches(sample, reference) -> set:
    """The (function, line) of each return the port executes on this pair,
    plus "fallback" when an exact probability outside [0, 1] sent it on to
    the asymptotic path."""
    seen, previous = set(), sys.gettrace()

    def trace(frame, event, _arg):
        if frame.f_code.co_filename != kstest.__file__:
            return None
        if event == "return":
            seen.add((frame.f_code.co_name, frame.f_lineno))
        return trace

    sys.settrace(trace)
    try:
        ks_2samp(sample, reference)
    finally:
        sys.settrace(previous)
    if {name for name, _line in seen} >= {"_prob_outside_square", "_kstwo_sf"}:
        seen.add("fallback")
    return seen


def _same_bits(sample, reference):
    with warnings.catch_warnings():   # scipy warns where it leaves the exact path
        warnings.simplefilter("ignore", RuntimeWarning)
        want = stats.ks_2samp(sample, reference)
    got = ks_2samp(sample, reference)
    assert [type(v) for v in got] == [np.float64, np.float64]
    assert [repr(float(v)) for v in got] == [repr(float(want.statistic)),
                                             repr(float(want.pvalue))]


def _shifted(n, shift):
    return np.arange(n, dtype=float), np.arange(n) + shift


def _normals(n, shift, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n), rng.standard_normal(n) + shift


def _integers(n, seed=5):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 5, n).astype(float), rng.integers(0, 6, n).astype(float)


CASES = {
    "identical (h = 0)": (_normals(500, 0.0)[0],) * 2,
    # the exact probability reads 1 + 2^-52 or more at these d = h/n, and
    # the asymptotic path at round(n/2) decides: the support edge, t <= 1,
    # and DMTW (n odd, so t slightly above 1; and at h = 4, where the
    # p-value it gives, 0.9999999999999996, is not the clipped exact 1.0)
    "d = 1/n, n = 292": _shifted(292, 0.5),
    "d = 1/n, n = 287": _shifted(287, 0.5),
    "d = 2/n, n = 282": _shifted(282, 1.5),
    "d = 2/n, n = 283": _shifted(283, 1.5),
    "d = 4/n, n = 282": _shifted(282, 3.5),
    "exact, moderate d": _normals(1000, 0.1),
    "exact, n = 10000": _normals(10000, 0.02),
    "asymptotic, n = 10001": _normals(10001, 0.02),
    "exact, tied integers": _integers(2000),
    "asymptotic, tied integers": _integers(20000),
    # a difference of ECDFs k/n - (k-1)/n may round above 1/n, so these
    # land just past t = 0.5 and t = 1
    "asymptotic, t = 0 (identical)": (_normals(20000, 0.0)[0],) * 2,
    "asymptotic, t just above 0.5": _shifted(20000, 0.5),
    "asymptotic, t just below 1": _shifted(20001, 1.5),
    "DMTW, t just above 1": _shifted(20000, 1.5),
    "DMTW": _shifted(20000, 2.5),
    "Pelz-Good": _normals(20000, 0.0),
    "Pelz-Good, n > 100000": _normals(200004, 0.0),
    "Pelz-Good, z below 0.0417": _shifted(200004, 2.5),
    "smirnov, n d^2 >= 2.2": _normals(20000, 0.05),
    "0 at n d^2 >= 370": _normals(20000, 0.7),
    "smirnov, d >= 0.5": _normals(20000, 1.5),
    "t >= n - 1": _shifted(20000, 20000 - 1.5),
    "disjoint (d = 1)": _shifted(20000, 20000.0),
}


@pytest.mark.bitwise
def test_every_branch_matches_scipy_bitwise():
    taken = set()
    for name, (sample, reference) in CASES.items():
        _same_bits(sample, reference)
        taken |= _branches(sample, reference)
    assert "fallback" in taken
    assert _RETURNS - taken == set()


@pytest.mark.bitwise
def test_the_fallback_cases_take_it():
    for n, shift in ((292, 0.5), (287, 0.5), (282, 1.5), (283, 1.5), (282, 3.5)):
        assert "fallback" in _branches(*_shifted(n, shift))
    assert ("ks_2samp", _LAST_RETURN) not in _branches(*CASES["exact, moderate d"])


@pytest.mark.bitwise
@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(282, 12000), seed=st.integers(0, 2 ** 32 - 1),
       shift=st.floats(0.0, 1.0), scale=st.floats(0.5, 2.0),
       decimals=st.sampled_from([None, 0, 1]))
def test_random_pairs_match_scipy_bitwise(n, seed, shift, scale, decimals):
    rng = np.random.default_rng(seed)
    sample, reference = rng.standard_normal(n), scale * rng.standard_normal(n) + shift
    if decimals is not None:   # ties within and across the samples
        sample, reference = np.round(sample, decimals), np.round(reference, decimals)
    _same_bits(sample, reference)


def test_rejects_what_it_does_not_port():
    ok = np.arange(300.0)
    for sample, reference in ((ok, ok[:-1]), (ok[:281], ok[:281]),
                              (ok.reshape(3, 100), ok.reshape(3, 100)),
                              (ok, np.where(ok == 7.0, np.nan, ok)),
                              (np.where(ok == 7.0, np.inf, ok), ok)):
        with pytest.raises(ValueError):
            ks_2samp(sample, reference)
