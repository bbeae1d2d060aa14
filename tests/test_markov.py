import math

import numpy as np
import pytest
from free_lp import solve_free

from ckomega.errors import InputError
from ckomega.fields import multi_indices
from ckomega.markov import (
    MarkovProbe,
    builtin_set_sampler,
    classify_weak_markov,
    cube_grid,
    markov_ratio,
    probe,
)
from ckomega.simplex import OPTIMAL, UNBOUNDED


def test_full_grid_sample_gives_one():
    pr = probe([0.0], 1.0, 1, np.linspace(-1, 1, 65).reshape(-1, 1), resolution=65)
    r = markov_ratio(pr)
    assert not r.capped
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_chebyshev_degree_one_extremal():
    pr = probe([0.0], 1.0, 1, np.linspace(0, 1, 65).reshape(-1, 1), resolution=65)
    r = markov_ratio(pr)
    assert r.value == pytest.approx(3.0, abs=1e-2)
    assert r.witness == (-1.0,)  # extremal p(t) = 2t - 1 peaks at t = -1


def test_isolated_point_capped_for_positive_degree():
    pr = probe([0.0], 1.0, 1, np.array([[0.0]]), resolution=9)
    r = markov_ratio(pr)
    assert r.capped and math.isinf(r.value)


def test_degree_zero_never_capped():
    pr = probe([0.0], 1.0, 0, np.array([[0.3]]), resolution=9)
    r = markov_ratio(pr)
    assert r.value == pytest.approx(1.0, abs=1e-9)


def test_empty_sample_rejected():
    with pytest.raises(InputError):
        probe([0.0], 1.0, 1, np.zeros((0, 1)))


def test_sample_outside_cube_rejected():
    with pytest.raises(InputError):
        probe([0.0], 1.0, 1, np.array([[2.0]]))


def test_non_finite_probe_rejected():
    for center, sample in (([0.0], [[0.5], [np.nan]]), ([np.nan], [[0.5]]), ([0.0], [[np.inf]])):
        with pytest.raises(InputError, match="must be finite"):
            MarkovProbe(tuple(center), 1.0, 1, np.array(sample), cube_grid([0.0], 1.0, 5))
    with pytest.raises(InputError, match="positive and finite"):
        probe([0.0], np.nan, 1, np.array([[0.0]]))


def test_ratio_at_least_one():
    rng = np.random.default_rng(0)
    for _ in range(15):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(0, 3))
        r = float(rng.uniform(0.5, 2.0))
        c = rng.uniform(-1, 1, n)
        npts = int(rng.integers(3, 8))
        sample = c[None, :] + rng.uniform(-r, r, (npts, n))
        res = markov_ratio(probe(c, r, k, sample, resolution=9))
        if not res.capped:
            assert res.value >= 1.0 - 1e-9


def test_scale_invariance():
    rng = np.random.default_rng(1)
    base_sample = np.array([[0.1], [0.4], [0.9]])
    for scale in (0.01, 1.0, 250.0):
        shift = float(rng.uniform(-5, 5))
        pr = probe([shift], scale, 2, shift + scale * base_sample, resolution=17)
        r = markov_ratio(pr)
        pr0 = probe([0.0], 1.0, 2, base_sample, resolution=17)
        r0 = markov_ratio(pr0)
        assert r.value == pytest.approx(r0.value, rel=1e-6)


def test_monotone_in_sample():
    rng = np.random.default_rng(2)
    small = np.array([[0.2], [0.7]])
    bigger = np.vstack([small, rng.uniform(-1, 1, (5, 1))])
    r_small = markov_ratio(probe([0.0], 1.0, 1, small, resolution=17))
    r_big = markov_ratio(probe([0.0], 1.0, 1, bigger, resolution=17))
    assert r_big.value <= r_small.value + 1e-9


def _two_sign_ratio(pr: MarkovProbe):
    """Reference: maximize +p(g) and -p(g) separately for every candidate g,
    in the primal free form."""
    mis = multi_indices(len(pr.center), pr.k)

    def basis(points):
        z = (points - np.asarray(pr.center)[None, :]) / pr.r
        return np.stack([np.prod(z ** np.asarray(a)[None, :], axis=1) for a in mis], axis=1)

    S = basis(pr.sample)
    best = 0.0
    for row in basis(np.vstack([pr.grid, pr.sample])):
        for sign in (1.0, -1.0):
            sol = solve_free(sign * row, lhs_ineq=np.vstack([S, -S]),
                             rhs_ineq=np.ones(2 * S.shape[0]))
            if sol.status == UNBOUNDED:
                return math.inf
            assert sol.status == OPTIMAL
            best = max(best, sol.optimum)
    return best


def test_one_sign_matches_two_sign_reference():
    # {p : |p| <= 1 on the sample} is centrally symmetric, so the +p(g) LP
    # alone attains max |p(g)|
    rng = np.random.default_rng(9)
    for _ in range(12):
        n = int(rng.integers(1, 3))
        k = int(rng.integers(0, 4 - n))
        c = rng.uniform(-1, 1, n)
        r = float(rng.uniform(0.5, 2.0))
        sample = c[None, :] + rng.uniform(-r, r, (int(rng.integers(2, 9)), n))
        pr = probe(c, r, k, sample, resolution=5)
        got, want = markov_ratio(pr), _two_sign_ratio(pr)
        if math.isinf(want):
            assert got.capped
        else:
            assert not got.capped
            assert got.value == pytest.approx(want, rel=1e-12)


def test_halfspace_k2_resolution_17_completes():
    # the primal over the 2|S| rows +-S c <= 1 cycled here (Bland's rule with
    # tolerance ties); the J-row dual finishes, at |T_2(3)| = 17
    sample = builtin_set_sampler("halfspace", 2, 17)((0.0, 0.0), 1.0)
    r = markov_ratio(probe([0.0, 0.0], 1.0, 2, sample, resolution=17))
    assert not r.capped
    assert r.value == pytest.approx(17.0, rel=1e-9)


def test_builtin_samplers_take_the_resolution():
    for name, count in (("cube", 81), ("halfspace", 45), ("segment", 9)):
        assert builtin_set_sampler(name, 2, 9)((0.0, 0.0), 1.0).shape == (count, 2)
    assert builtin_set_sampler("cube", 2)((0.0, 0.0), 1.0).shape == (33 * 33, 2)


def _brute_ratio(pr: MarkovProbe, n_dirs=40000, seed=3):
    """Dense search over the coefficient ball with shrinking local polish
    (independent oracle, n=1, small k)."""
    rng = np.random.default_rng(seed)
    mis = multi_indices(len(pr.center), pr.k)
    J = len(mis)
    zs = (pr.sample - np.asarray(pr.center)[None, :]) / pr.r
    zg = (np.vstack([pr.grid, pr.sample]) - np.asarray(pr.center)[None, :]) / pr.r
    S = np.stack([np.prod(zs ** np.asarray(a)[None, :], axis=1) for a in mis], axis=1)
    G = np.stack([np.prod(zg ** np.asarray(a)[None, :], axis=1) for a in mis], axis=1)

    def sweep(dirs):
        dirs = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
        ratios = np.max(np.abs(G @ dirs.T), axis=0) / np.max(np.abs(S @ dirs.T), axis=0)
        i = int(np.argmax(ratios))
        return float(ratios[i]), dirs[i]

    best, d0 = sweep(rng.normal(size=(n_dirs, J)))
    radius = 0.5
    for _ in range(12):
        cand = d0[None, :] + radius * rng.normal(size=(4000, J))
        val, d1 = sweep(np.vstack([cand, d0[None, :]]))
        if val > best:
            best, d0 = val, d1
        radius *= 0.5
    return best


def test_lp_matches_dense_coefficient_search():
    rng = np.random.default_rng(4)
    for _ in range(6):
        k = int(rng.integers(1, 3))
        npts = int(rng.integers(2, 6))
        sample = rng.uniform(-1, 1, (npts, 1))
        if k >= npts:  # avoid unbounded cases for the dense oracle
            sample = np.vstack([sample, rng.uniform(-1, 1, (k + 1 - npts, 1))])
        pr = probe([0.0], 1.0, k, sample, resolution=33)
        lp_val = markov_ratio(pr).value
        brute = _brute_ratio(pr)
        # the dense search is a lower bound; with 2e4 directions it lands
        # within 1e-3 relative of the LP optimum for these tiny dimensions
        assert brute <= lp_val + 1e-9
        assert lp_val == pytest.approx(brute, rel=1e-3)


def test_classify_interior_point_of_cube():
    v = classify_weak_markov([0.0], builtin_set_sampler("cube", 1), 1,
                             [1.0, 0.5, 0.25], threshold=10.0)
    assert v.verdict == "WEAK_MARKOV"
    assert all(r == pytest.approx(1.0, abs=1e-9) for r in v.ratios)


def test_classify_isolated_point_not_detected():
    v = classify_weak_markov([0.0], builtin_set_sampler("point", 1), 1,
                             [1.0, 0.5], threshold=1e5, resolution=9)
    assert v.verdict == "NOT_DETECTED"
    assert all(math.isinf(r) for r in v.ratios)


def test_classify_segment_in_plane_not_detected():
    v = classify_weak_markov([0.0, 0.0], builtin_set_sampler("segment", 2), 1,
                             [1.0, 0.5], threshold=1e5, resolution=9)
    assert v.verdict == "NOT_DETECTED"


def test_classify_halfspace_detected():
    v = classify_weak_markov([0.0], builtin_set_sampler("halfspace", 1), 1,
                             [1.0, 0.5, 0.25], threshold=5.0)
    assert v.verdict == "WEAK_MARKOV"
    assert all(r == pytest.approx(3.0, abs=1e-2) for r in v.ratios)


def test_classify_empty_radius_skipped_with_warning():
    def sampler(center, r):
        return np.zeros((0, 1)) if r < 0.7 else np.array([[0.0]])

    v = classify_weak_markov([0.0], sampler, 0, [1.0, 0.5], threshold=2.0, resolution=5)
    assert v.ratios[1] is None
    assert v.warnings


def test_radii_must_decrease():
    with pytest.raises(InputError):
        classify_weak_markov([0.0], builtin_set_sampler("cube", 1), 0,
                             [0.5, 1.0], threshold=2.0)


def test_cube_grid_shape_and_bounds():
    g = cube_grid([1.0, -1.0], 0.5, 5)
    assert g.shape == (25, 2)
    assert np.max(np.abs(g - np.array([1.0, -1.0])[None, :])) <= 0.5
