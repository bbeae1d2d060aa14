import tracemalloc

import numpy as np
import pytest

from ckomega.cutoff import (
    CutoffFamily,
    _bump_cdf,
    derivative_bound_constant,
    profile,
    profile_deriv,
)
from ckomega.errors import InputError


def test_profile_branches_are_exact():
    assert profile(np.array([0.0]))[0] == 1.0
    assert profile(np.array([1.0]))[0] == 1.0
    assert profile(np.array([-1.0]))[0] == 1.0
    assert profile(np.array([2.0]))[0] == 0.0
    assert profile(np.array([-2.5]))[0] == 0.0


def test_profile_range_and_monotone_transition():
    u = np.linspace(-3, 3, 601)
    s = profile(u)
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    t = np.linspace(1.0, 2.0, 400)
    assert np.all(np.diff(profile(t)) <= 1e-14)


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (-2.0, -1.0)])
def test_profile_in_unit_interval_on_dense_transition_grids(lo, hi):
    # 200,001 points per band: the quadrature's sum rounds past 0 or 1 at
    # points a 601-point grid misses (sigma read -4.4e-16 at 165 points of
    # (1, 2) and 1 + 2.2e-16 on (-2, -1) before the clip)
    s = profile(np.linspace(lo, hi, 200_001))
    assert np.all(s >= 0.0) and np.all(s <= 1.0)
    assert np.all(profile(np.array([1.9999999, -1.9999999])) >= 0.0)


def test_bump_cdf_is_exactly_zero_or_one_outside_the_bump():
    z = np.array([-7.0, -0.5000001, -0.5, 0.5, 0.5000001, 7.0])
    assert _bump_cdf(z).tolist() == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    inside = _bump_cdf(np.linspace(-0.4999999, 0.4999999, 20_001))
    assert np.all(inside >= 0.0) and np.all(inside <= 1.0)


def test_profile_symmetry():
    u = np.linspace(0.9, 2.1, 97)
    assert profile(u) == pytest.approx(profile(-u), abs=1e-14)


@pytest.mark.parametrize("order,h", [(1, 1e-6), (2, 1e-5), (3, 1e-4)])
def test_profile_derivatives_match_finite_differences(order, h):
    u = np.linspace(1.02, 1.98, 45)
    if order == 1:
        fd = (profile(u + h) - profile(u - h)) / (2 * h)
    elif order == 2:
        fd = (profile(u + h) - 2 * profile(u) + profile(u - h)) / h**2
    else:
        fd = (profile(u + 2 * h) - 2 * profile(u + h) + 2 * profile(u - h)
              - profile(u - 2 * h)) / (2 * h**3)
    ex = profile_deriv(u, order)
    scale = np.max(np.abs(ex))
    assert np.max(np.abs(fd - ex)) / scale < 1e-4


def test_profile_deriv_order_guard():
    with pytest.raises(InputError):
        profile_deriv(np.array([1.5]), 9)
    for order in (1.5, 1.0, -1):
        with pytest.raises(InputError, match="profile derivative order must be an integer >= 0"):
            profile_deriv(np.array([1.5]), order)


def test_rho_is_one_on_unit_cube_and_zero_outside_double():
    cf = CutoffFamily(3, 1)
    inside = np.array([[1.0, -1.0, 0.3], [0.0, 0.0, 0.0]])
    outside = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, -2.3]])
    assert np.all(cf.rho(inside) == 1.0)
    assert np.all(cf.rho(outside) == 0.0)


def test_rho_ell_scaling_identity():
    # rho_ell(x) = rho(x / ell)
    cf1 = CutoffFamily(2, 1)
    cf3 = CutoffFamily(2, 3)
    X = np.random.default_rng(0).uniform(-6, 6, (40, 2))
    assert cf3.rho(X) == pytest.approx(cf1.rho(X / 3.0), abs=1e-15)


def test_derivative_bounds_scale_like_ell_power():
    # sampled sup |D^alpha rho_ell| <= c_{k,n} / ell^{|alpha|}
    k, n = 2, 2
    c = derivative_bound_constant(k, n)
    rng = np.random.default_rng(1)
    for ell in (1, 2, 5):
        cf = CutoffFamily(n, ell)
        X = rng.uniform(-2.0 * ell, 2.0 * ell, (4000, n))
        for alpha in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 0)]:
            if sum(alpha) > k + 1:
                continue
            vals = np.abs(cf.rho_deriv(X, alpha))
            assert np.max(vals) <= c / ell ** sum(alpha) + 1e-12


def test_derivative_bound_constant_monotone_in_k():
    assert derivative_bound_constant(0, 1) <= derivative_bound_constant(1, 1)
    assert derivative_bound_constant(1, 1) <= derivative_bound_constant(2, 1)


def test_rho_deriv_vanishes_on_plateau_and_outside():
    cf = CutoffFamily(1, 2)
    X = np.array([[0.0], [1.5], [-2.0], [4.1], [7.0]])
    assert np.all(cf.rho_deriv(X, (1,)) == 0.0)


def test_rho_blocks_match_one_block_bitwise(monkeypatch):
    X = np.random.default_rng(2).uniform(-2.5, 2.5, (300, 3))
    whole = CutoffFamily(3, 1).rho(X)
    # seven transition-band elements per block: the quadrature counts
    # 6 * 96 temporaries per element
    monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", 7 * 6 * 96)
    assert np.array_equal(CutoffFamily(3, 1).rho(X), whole)


def test_rho_memory_is_bounded_by_blocks():
    # the 51^3 lattice that smooth_EN samples at n = 3, N = 4; without
    # blocks the quadrature arrays of its transition band peak near 200 MB
    g = np.linspace(-4.0 * np.sqrt(3.0), 4.0 * np.sqrt(3.0), 51, endpoint=False)
    X = np.stack([a.ravel() for a in np.meshgrid(g, g, g, indexing="ij")], axis=1)
    cf = CutoffFamily(3, 1)
    tracemalloc.start()
    try:
        cf.rho(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150e6


def _per_point(cf, X, alpha):
    """Reference: every factor evaluated at every point, as rho used to be."""
    vals = np.stack([profile_deriv(X[:, i] / cf.ell, a) for i, a in enumerate(alpha)], axis=1)
    return np.prod(vals, axis=1) / cf.ell ** sum(alpha)


@pytest.mark.parametrize("ell", [1, 3])
def test_rho_per_coordinate_matches_per_point_bitwise(ell):
    g = np.linspace(-2.5 * ell, 2.5 * ell, 21)
    lattice = np.stack([a.ravel() for a in np.meshgrid(g, g, g, indexing="ij")], axis=1)
    scattered = np.random.default_rng(3).uniform(-2.5 * ell, 2.5 * ell, (500, 3))
    cf = CutoffFamily(3, ell)
    for X in (lattice, scattered):
        assert np.array_equal(cf.rho(X), np.prod(profile(X / ell), axis=1))
        for alpha in [(0, 0, 0), (1, 0, 2), (3, 1, 1), (0, 4, 0)]:
            assert np.array_equal(cf.rho_deriv(X, alpha), _per_point(cf, X, alpha))


def test_rho_rejects_wrong_dimension():
    with pytest.raises(InputError, match="dimension"):
        CutoffFamily(2, 1).rho(np.zeros((4, 3)))
