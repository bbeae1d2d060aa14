import math

import numpy as np
import pytest
from free_lp import solve_free

from ckomega.errors import InputError
from ckomega.fields import multi_indices
from ckomega.markov import (
    DEFAULT_CAP,
    MarkovProbe,
    _basis_matrix,
    builtin_set_sampler,
    classify_weak_markov,
    cube_grid,
    markov_ratio,
    probe,
)
from ckomega.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve


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


@pytest.mark.parametrize("r", [math.inf, -math.inf, 0.0, -1.0])
def test_cube_grid_rejects_radius_before_building(r):
    # checked before the grid is built, so no "invalid value" warning comes first
    for call in (lambda: probe([0.0], r, 1, [[0.0]]), lambda: cube_grid([0.0], r)):
        with pytest.raises(InputError, match="probe radius must be positive and finite"):
            call()


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


@pytest.mark.parametrize("resolution", [-1, 0, 1, 2.5])
def test_grids_and_samplers_reject_resolution_below_two(resolution):
    with pytest.raises(InputError, match="resolution must be an integer >= 2"):
        cube_grid([0.0], 1.0, resolution)
    for name in ("cube", "halfspace", "point", "segment"):
        with pytest.raises(InputError, match="resolution must be an integer >= 2"):
            builtin_set_sampler(name, 1, resolution)
    with pytest.raises(InputError, match="resolution must be an integer >= 2"):
        classify_weak_markov([0.0], lambda c, r: np.array([[0.0]]), 0, [1.0], 2.0,
                             resolution=resolution)


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_classify_rejects_non_finite_threshold(threshold):
    # a NaN threshold read NOT_DETECTED at ratio 1, and an infinite one
    # would pass a CAPPED (infinite) ratio
    with pytest.raises(InputError, match="threshold must be finite"):
        classify_weak_markov([0.0], builtin_set_sampler("cube", 1), 1, [1.0], threshold)


def test_cube_grid_shape_and_bounds():
    g = cube_grid([1.0, -1.0], 0.5, 5)
    assert g.shape == (25, 2)
    assert np.max(np.abs(g - np.array([1.0, -1.0])[None, :])) <= 0.5


def _dual_lps(pr: MarkovProbe):
    """The candidate LPs min ||mu||_1 s.t. S^T mu = G_g, as (cost, lhs, rows)."""
    mis = multi_indices(len(pr.center), pr.k)
    S = _basis_matrix(pr.sample, pr.center, pr.r, mis)
    G = _basis_matrix(np.vstack([pr.grid, pr.sample]), pr.center, pr.r, mis)
    lhs = np.hstack([S.T, -S.T])
    return np.ones(lhs.shape[1]), lhs, G


def _full_scan(pr: MarkovProbe):
    """Reference: solve every candidate's LP, in scan order; (value, capped)."""
    cost, lhs, G = _dual_lps(pr)
    best = 0.0
    for row in G:
        sol = solve(LinearProgram(cost, lhs, row))
        if sol.status == INFEASIBLE:
            return math.inf, True
        assert sol.status == OPTIMAL
        best = max(best, sol.optimum)
        if best > DEFAULT_CAP:
            return math.inf, True
    return best, False


def _seeded_probe(seed: int) -> MarkovProbe:
    """Random, halfspace-grid, repeated-point and rank-deficient samples."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 3
    k = int(rng.integers(0, 4 if n < 3 else 3))
    c = rng.uniform(-1, 1, n)
    r = float(2.0 ** rng.uniform(-3, 1))
    res = {1: 9, 2: 5, 3: 3}[n]
    J = len(multi_indices(n, k))
    kind = (seed // 3) % 4
    if kind == 0:
        sample = c + rng.uniform(-r, r, (J + int(rng.integers(0, 8)), n))
    elif kind == 1:
        grid = cube_grid(c, r, int(rng.integers(3, {1: 17, 2: 8, 3: 5}[n])))
        sample = grid[grid[:, 0] >= c[0] + r * rng.uniform(-0.5, 0.5)]
    elif kind == 2:
        base = c + rng.uniform(-r, r, (J + 2, n))
        sample = base[rng.integers(0, len(base), 2 * J + 4)]
    else:  # fewer points than J, or all on one coordinate line
        if rng.uniform() < 0.5:
            sample = c + rng.uniform(-r, r, (max(1, J - 1), n))
        else:
            sample = np.tile(c, (k + 3, 1))
            sample[:, 0] += rng.uniform(-r, r, k + 3)
    return probe(c, r, k, sample, resolution=res)


def test_pruned_scan_matches_full_scan():
    # U(g) = min over cached bases I of ||S_I^{-T} G_g||_1 bounds opt(g)
    # above, so skipping g with U(g) <= best never lowers the maximum
    capped = pruned = 0
    for seed in range(216):
        pr = _seeded_probe(seed)
        got = markov_ratio(pr)
        want, want_capped = _full_scan(pr)
        assert got.capped == want_capped, seed
        capped += got.capped
        pruned += got.pruned
        if not want_capped:
            assert got.value == pytest.approx(want, rel=1e-12, abs=0.0), seed
    assert 0 < capped < 216 and pruned > 0


def test_lp_counts_are_pinned():
    sample = builtin_set_sampler("halfspace", 2, 17)((0.0, 0.0), 1.0)
    r = markov_ratio(probe([0.0, 0.0], 1.0, 1, sample, resolution=17))
    assert r.value == pytest.approx(3.0, rel=1e-12)
    assert r.lps <= 10 and r.lps + r.pruned == 17 * 17 + len(sample)
    assert r.pivots > 0
    # 1D: the first candidate's basis bounds all the others
    for k in (2, 3):
        pts = np.linspace(0, 1, 17).reshape(-1, 1)
        r = markov_ratio(probe([0.0], 1.0, k, pts, resolution=33))
        assert (r.lps, r.pruned) == (1, 33 + 17 - 1)


def test_rank_deficient_sample_prunes_nothing():
    # a sample on the x_1-axis leaves y outside the span: no basis has J
    # rows, so nothing is cached and the first off-axis candidate is CAPPED
    sample = builtin_set_sampler("segment", 2, 9)((0.0, 0.0), 1.0)
    r = markov_ratio(probe([0.0, 0.0], 1.0, 1, sample, resolution=5))
    assert r.capped and r.pruned == 0 and r.lps == 1


@pytest.mark.parametrize("name, k", [("segment", 1), ("segment", 2), ("point", 1), ("point", 3)])
def test_rank_deficient_probe_reads_capped_through_certified_infeasible(name, k):
    # a sample on a line or a point leaves monomials outside the span: the
    # candidate LPs off it are INFEASIBLE only with a checked Farkas vector
    # (solve raises NumericalError otherwise), and agree with HiGHS
    sample = builtin_set_sampler(name, 2, 9)((0.0, 0.0), 1.0)
    pr = probe([0.0, 0.0], 1.0, k, sample, resolution=5)
    assert markov_ratio(pr).capped
    cost, lhs, G = _dual_lps(pr)
    statuses = [solve(LinearProgram(cost, lhs, row)).status for row in G]
    assert INFEASIBLE in statuses and set(statuses) <= {OPTIMAL, INFEASIBLE}
    linprog = pytest.importorskip("scipy.optimize").linprog
    for row, status in zip(G, statuses):
        ref = linprog(cost, A_eq=lhs, b_eq=row, bounds=(0, None), method="highs")
        assert ref.status == {OPTIMAL: 0, INFEASIBLE: 2}[status]


# n=1, k=3: phase 1 once stopped on a column with no positive entry after a
# reduced cost drifted to about -5e-8, and reported INFEASIBLE although the
# artificial sum was zero; candidate 8 (sample point 6) is that LP.
_PHASE1_CENTER = -0.6552604682572793
_PHASE1_RADIUS = 1.7846137006141392
_PHASE1_SAMPLE = [
    0.953951484336925, -0.6278314513278245, -0.304298990335367, -1.3685235362967856,
    -0.4872496394870949, -1.3228679181908396, -0.6487661479645199, -1.3086945821220959,
    -1.8036518803280717, 0.9598647587879745, 0.915643365563344, -2.3577553033329677,
    -1.4528566060270507, 0.9429402425299502, -0.16125862560320825,
]


def test_phase1_drift_is_not_infeasible():
    linprog = pytest.importorskip("scipy.optimize").linprog
    pr = probe([_PHASE1_CENTER], _PHASE1_RADIUS, 3, np.array(_PHASE1_SAMPLE).reshape(-1, 1),
               resolution=2)
    cost, lhs, G = _dual_lps(pr)
    best = 0.0
    for row in G:
        ref = linprog(cost, A_eq=lhs, b_eq=row, bounds=(0, None), method="highs")
        assert ref.status == 0
        sol = solve(LinearProgram(cost, lhs, row))
        assert sol.status == OPTIMAL
        assert sol.optimum == pytest.approx(ref.fun, rel=1e-9)
        best = max(best, ref.fun)
    r = markov_ratio(pr)
    assert not r.capped
    assert r.value == pytest.approx(best, rel=1e-9)
