import math
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import ckomega.fields
from ckomega import modulus as mo
from ckomega.cutoff import profile_deriv
from ckomega.errors import InputError, NumericalError
from ckomega.extension import (
    NOT_LINEAR,
    _cardinal,
    depth_audit,
    hermite_extension,
    mcshane_extension,
)
from ckomega.fields import NormContext, WhitneyField, field_from_data, field_from_jets, jet
from ckomega.whitney import whitney_lambda


def two_point():
    return field_from_data([[0.0], [1.0]], [0.0, 1.0])


# ---------------------------------------------------------------------------
# McShane


def test_mcshane_examples():
    f = two_point()
    ext = mcshane_extension(f, mo.linear())
    assert ext(np.array([[0.5]])) == pytest.approx(0.5)
    assert ext(np.array([[1.0]])) == 1.0  # exact interpolation
    assert ext(np.array([[5.0]])) == 1.0  # clamped to M


def test_mcshane_interpolates_bitwise():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3, 3, (12, 2))
    vals = rng.normal(size=12)
    f = field_from_data(pts, vals)
    ext = mcshane_extension(f, mo.power(0.5))
    for p, v in zip(pts, vals):
        assert ext(p.reshape(1, -1))[0] == v


def test_mcshane_variants_bracket_each_other():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-2, 2, (8, 1))
    vals = rng.normal(size=8)
    f = field_from_data(pts, vals)
    lo = mcshane_extension(f, mo.linear(), variant="max")
    hi = mcshane_extension(f, mo.linear(), variant="min")
    av = mcshane_extension(f, mo.linear(), variant="average")
    X = rng.uniform(-3, 3, (50, 1))
    vlo, vhi, vav = lo(X), hi(X), av(X)
    # max-extension <= average <= min-extension (clamping is monotone)
    assert np.all(vlo <= vhi + 1e-12)
    assert np.all(vlo - 1e-12 <= vav) and np.all(vav <= vhi + 1e-12)
    # where neither one-sided branch hit the clamp, the average is the midpoint
    M = hi.sup_bound
    free = (np.abs(vhi) < M - 1e-9) & (np.abs(vlo) < M - 1e-9)
    assert vav[free] == pytest.approx(0.5 * (vlo + vhi)[free], abs=1e-12)


def test_mcshane_norm_preservation_sampled():
    rng = np.random.default_rng(2)
    for trial in range(10):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 12))
        pts = rng.uniform(-2, 2, (m, n))
        while True:
            d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
            np.fill_diagonal(d2, 1.0)
            if d2.min() > 1e-4:
                break
            pts = rng.uniform(-2, 2, (m, n))
        vals = rng.normal(size=m)
        f = field_from_data(pts, vals)
        om = mo.linear() if trial % 2 else mo.power(0.5)
        ctx = NormContext(0, n, om)
        trace = whitney_lambda(f, ctx).lam
        ext = mcshane_extension(f, om)
        Q = rng.uniform(-3, 3, (400, n))
        vq = ext(Q)
        assert np.max(np.abs(vq)) <= trace + 1e-9
        ii = rng.integers(0, 400, 300)
        jj = rng.integers(0, 400, 300)
        keep = ii != jj
        d = np.linalg.norm(Q[ii[keep]] - Q[jj[keep]], axis=1)
        ratios = np.abs(vq[ii[keep]] - vq[jj[keep]]) / om(d)
        assert np.max(ratios) <= trace + 1e-9


def test_mcshane_lam_is_whitney_lambda_osc_bitwise():
    rng = np.random.default_rng(3)
    for om in (mo.linear(), mo.power(0.5), mo.capped(0.7, 0.8)) * 4:
        n = int(rng.integers(1, 4))
        pts = rng.uniform(-2, 2, (int(rng.integers(1, 30)), n))
        f = field_from_data(pts, rng.normal(size=len(pts)))
        assert mcshane_extension(f, om).lam == whitney_lambda(f, NormContext(0, n, om)).lam_osc


def _mcshane_per_query(ext, X):
    """Per-query reference: hit on a datum returns it, else the clamped
    variant of min(f + lam w(d)) / max(f - lam w(d))."""
    pts = ext.field.points
    vals = ext.field.coeffs[:, 0]
    out = []
    for q in X:
        d = np.linalg.norm(pts - q[None, :], axis=1)
        hit = np.where(d == 0.0)[0]
        if hit.size:
            out.append(vals[hit[0]])
            continue
        om = ext.omega(d)
        upper = float(np.min(vals + ext.lam * om))
        lower = float(np.max(vals - ext.lam * om))
        v = {"min": upper, "max": lower, "average": 0.5 * (upper + lower)}[ext.variant]
        out.append(min(max(v, -ext.sup_bound), ext.sup_bound))
    return np.array(out)


@pytest.mark.parametrize("variant", ["min", "max", "average"])
def test_mcshane_batch_matches_per_query_bitwise(monkeypatch, variant):
    rng = np.random.default_rng(4)
    moduli = (mo.linear(), mo.power(0.5), mo.capped(0.6, 0.9), mo.table([(0.5, 0.3), (1.0, 0.5)]))
    # the reference's distances sum over a trailing axis, in coordinate order
    # up to n = 7; mixed magnitudes make any other order round differently
    for n in range(1, 8):
        scale = 10.0 ** rng.integers(-3, 3, n)
        pts = rng.uniform(-1, 1, (11, n)) * scale
        ext = mcshane_extension(field_from_data(pts, rng.normal(size=11)), moduli[n % 4], variant)
        X = rng.uniform(-1.5, 1.5, (40, n)) * scale
        X[::4] = pts[rng.integers(0, 11, 10)]  # data-point hits, some on block edges
        ref = _mcshane_per_query(ext, X)
        assert np.array_equal(ext(X), ref)
        for queries_per_block in (1, 3, 8):
            # the query sweep's width is 4 elements per (query, data point)
            monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", queries_per_block * 4 * len(pts))
            assert np.array_equal(ext(X), ref)
        monkeypatch.undo()


def test_mcshane_query_memory_is_bounded_by_blocks():
    # 5000 queries against 2000 points in R^3: the whole distance matrix is
    # 80 MB; a block's temporaries are 8 * _BLOCK_ELEMS bytes, plus 1 MB for
    # the arrays that grow with the points or queries
    rng = np.random.default_rng(50)
    ext = mcshane_extension(field_from_data(rng.uniform(-1, 1, (2000, 3)), rng.normal(size=2000)),
                            mo.power(0.5))
    X = rng.uniform(-1.5, 1.5, (5000, 3))
    tracemalloc.start()
    try:
        ext(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * ckomega.fields._BLOCK_ELEMS + 1e6


def test_mcshane_query_whose_distance_overflows_raises(monkeypatch):
    # 1e200 from the data the squared distance overflows: a NumericalError
    # naming the query and the first data point, with no warning; 1e154 away
    # it does not, and the query takes the value of the far datum's side
    f = field_from_data([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.0])
    ext = mcshane_extension(f, mo.power(0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ext([1e154, 0.0]) == 1.0
        for rows_per_block in (None, 1):
            if rows_per_block is not None:
                monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", rows_per_block * 4 * len(f))
            named = r"query \[1e\+200, 0.0\] to the data point \[0.0, 0.0\] overflows"
            with pytest.raises(NumericalError, match=named):
                ext([[0.3, 0.2], [1e200, 0.0]])


def test_mcshane_empty_field_rejected():
    with pytest.raises(InputError, match="field needs at least one point"):
        WhitneyField(np.empty((0, 1)), np.empty((0, 1)), 0, 1)


def test_mcshane_requires_k0():
    f1 = field_from_jets([jet([0.0], [0.0, 0.0], 1), jet([1.0], [1.0, 0.0], 1)])
    with pytest.raises(InputError):
        mcshane_extension(f1, mo.linear())


# ---------------------------------------------------------------------------
# Hermite 1D


def test_hermite_k0_is_piecewise_linear():
    h = hermite_extension(two_point())
    assert h(0.25) == pytest.approx(0.25)
    assert h(np.array([0.0, 0.5, 1.0])) == pytest.approx([0.0, 0.5, 1.0])


def test_hermite_zero_jets_give_zero_cubic():
    f = field_from_jets([jet([0.0], [0.0, 0.0], 1), jet([1.0], [0.0, 0.0], 1)])
    h = hermite_extension(f)
    assert h(np.linspace(0, 1, 7)) == pytest.approx(np.zeros(7), abs=1e-15)


def test_hermite_single_point_is_taylor_near_point():
    f = field_from_jets([jet([0.5], [1.0, 2.0, 6.0], 2)])
    h = hermite_extension(f)
    x = 0.9  # within distance 1: clamp factor is exactly 1
    want = 1.0 + 2.0 * (x - 0.5) + 3.0 * (x - 0.5) ** 2
    assert h(x) == pytest.approx(want, rel=1e-14)
    far = h(np.array([3.0]))  # beyond distance 2: frozen to zero
    assert far[0] == 0.0


def test_hermite_reproduces_jets_at_data_points():
    rng = np.random.default_rng(3)
    for k in (0, 1, 2, 3):
        pts = np.sort(rng.uniform(-2, 2, 5))
        jets = [jet([p], rng.normal(size=k + 1), k) for p in pts]
        f = field_from_jets(jets)
        h = hermite_extension(f)
        for p, j in zip(pts, jets):
            assert h.evaluate_jet(p).coeffs == pytest.approx(j.coeffs, abs=1e-14)


def _table_at(table, v):
    """psi_{e,r}^(j)(v) as a (k+1, 2, k+1) array from one side of the table."""
    return sum(table[p] * v**p for p in range(table.shape[0]))


def test_hermite_derivatives_continuous_at_knots():
    # The cardinal table is the identity at its endpoints: psi_{e,r}^(j) is 1
    # at endpoint e when j = r and 0 otherwise, in both coordinates. So the
    # one-sided limits of every derivative at a knot equal the knot's jet.
    for k in (0, 1, 2, 3):
        table = _cardinal(k)
        eye = np.eye(k + 1)
        for side in (0, 1):  # side 1 is in u = 1 - s: its endpoint e sits at u = 1 - e
            for e in (0, 1):
                at = _table_at(table[side], float(e if side == 0 else 1 - e))
                assert np.max(np.abs(at[:, e, :] - eye)) < 1e-9
                assert np.max(np.abs(at[:, 1 - e, :])) < 1e-9
    # through the weight routine: the adjacent gaps at s = 1 and s = 0 (the
    # floats next to the knot) agree with the knot's own jet
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        pts = np.sort(rng.uniform(-2, 2, 4))
        while np.min(np.diff(pts)) < 0.1:
            pts = np.sort(rng.uniform(-2, 2, 4))
        f = field_from_jets([jet([p], rng.normal(size=k + 1), k) for p in pts])
        h = hermite_extension(f)
        for knot in h.knots[1:-1]:
            at, below, above = h.jets([knot, np.nextafter(knot, -np.inf), np.nextafter(knot, np.inf)])
            for side in (below, above):
                scale = np.maximum(1.0, np.abs(side))
                assert np.all(np.abs(side - at) / scale < 1e-9)


def test_hermite_linearity():
    rng = np.random.default_rng(5)
    for _ in range(60):
        k = int(rng.integers(0, 4))
        pts = np.sort(rng.uniform(-2, 2, int(rng.integers(1, 6))))
        while len(pts) > 1 and np.min(np.diff(pts)) < 1e-3:
            pts = np.sort(rng.uniform(-2, 2, len(pts)))
        j1 = [jet([p], rng.normal(size=k + 1), k) for p in pts]
        j2 = [jet([p], rng.normal(size=k + 1), k) for p in pts]
        f1, f2 = field_from_jets(j1), field_from_jets(j2)
        a, b = float(rng.normal()), float(rng.normal())
        combo = f1.scale(a).add(f2.scale(b))
        xs = rng.uniform(-4, 4, 7)
        lhs = hermite_extension(combo)(xs)
        rhs = a * hermite_extension(f1)(xs) + b * hermite_extension(f2)(xs)
        scale = max(1.0, float(np.max(np.abs(rhs))))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-10


def test_hermite_bounded_distortion_recorded_caps():
    # sampled C^{k,omega} norm of the extension of a lambda<=1 field stays
    # below a per-k empirical cap; calibration across seeds 6/7/100/2024 gave
    # {1.7, 15-20, 200-330, 5500-7200}, caps carry ~1.7x headroom
    caps = {0: 3.0, 1: 35.0, 2: 600.0, 3: 12000.0}
    rng = np.random.default_rng(6)
    om = mo.linear()
    for k in (0, 1, 2, 3):
        worst = 0.0
        for _ in range(25):
            m = int(rng.integers(2, 6))
            pts = np.sort(rng.uniform(-2, 2, m))
            while np.min(np.diff(pts)) < 0.05:
                pts = np.sort(rng.uniform(-2, 2, m))
            f = field_from_jets([jet([p], rng.normal(size=k + 1), k) for p in pts])
            ctx = NormContext(k, 1, om)
            lam = whitney_lambda(f, ctx).lam
            if lam == 0.0:
                continue
            f = f.scale(1.0 / lam)
            h = hermite_extension(f)
            xs = np.linspace(pts[0] - 2.5, pts[-1] + 2.5, 160)
            jets_on_grid = [h.evaluate_jet(x) for x in xs]
            sup = max(abs(c) for j in jets_on_grid for c in j.coeffs)
            semi = 0.0
            for ja, jb, xa, xb in zip(jets_on_grid[:-1], jets_on_grid[1:], xs[:-1], xs[1:]):
                semi = max(semi, abs(ja.coeffs[k] - jb.coeffs[k]) / om(xb - xa))
            worst = max(worst, max(sup, semi))
        assert worst <= caps[k], f"k={k}: sampled distortion {worst}"


def test_hermite_extend_1d_returns_jet():
    j = hermite_extension(two_point()).evaluate_jet(0.25)
    assert j.coeffs[0] == pytest.approx(0.25)
    assert j.k == 0


# ---------------------------------------------------------------------------
# Hermite 1D against the pre-table algorithm
#
# The oracle is the code the cardinal table replaced: divided-difference gap
# polynomials, the scalar tail loop, and audit weights from evaluating it on
# unit jets of the active points. Jets run it in exact rational arithmetic:
# in floats the divided differences themselves are off by up to about 1e-10
# relative at gaps of 1e-3, k = 3, so they could not check 1e-12.


def _hermite_gap_poly(a, b, jet_a, jet_b, k):
    """Monomial coefficients (in t = x - a) of the unique degree-(2k+1)
    polynomial matching both endpoint jets; Newton divided differences with
    repeated nodes."""
    nodes = [a] * (k + 1) + [b] * (k + 1)
    jets = {a: jet_a, b: jet_b}
    size = len(nodes)
    dd = [[0] * size for _ in range(size)]
    for i in range(size):
        dd[i][i] = jets[nodes[i]][0]
    for r in range(1, size):
        for i in range(size - r):
            j = i + r
            if nodes[i] == nodes[j]:
                dd[i][j] = jets[nodes[i]][r] / math.factorial(r)
            else:
                dd[i][j] = (dd[i + 1][j] - dd[i][j - 1]) / (nodes[j] - nodes[i])
    # Newton basis products in t = x - a: factors are t (node a) or t - (b - a)
    coeffs, basis = [0] * size, [1]
    for j in range(size):
        for p, c in enumerate(basis):
            coeffs[p] += dd[0][j] * c
        shift = 0 if nodes[j] == a else b - a
        basis = [(basis[p - 1] if p else 0) - shift * (basis[p] if p < len(basis) else 0)
                 for p in range(len(basis) + 1)]
    return coeffs


def _tail_jet(endpoint, c, k, x, num):
    """Taylor polynomial of the hull endpoint times the smooth clamp."""
    dist = (endpoint - x) if x < endpoint else (x - endpoint)
    sg = -1 if x < endpoint else 1  # d(dist)/dx
    tvals = [sum(c[r] / math.factorial(r - j) * (x - endpoint) ** (r - j) for r in range(j, k + 1))
             for j in range(k + 1)]
    svals = [num(profile_deriv(np.array([float(dist)]), j)[0]) * sg**j for j in range(k + 1)]
    return [sum(math.comb(j, i) * tvals[i] * svals[j - i] for i in range(j + 1)) for j in range(k + 1)]


def test_hermite_knots_are_read_only():
    # _gaps is cached from knots and order, so neither may change under it
    h = hermite_extension(field_from_data([[0.5], [0.0], [1.0]], [1.0, 2.0, 3.0]))
    assert len(h.knots) == 3 and h.knots[0] == 0.0 and h.order.tolist() == [1, 0, 2]
    for a in (h.knots, h.order):
        with pytest.raises(ValueError):
            a[0] = 7
    assert h(0.5) == 1.0


def _oracle_jet(knots, coeffs, k, x, exact=True):
    """D^j F(x), j <= k, for the jets coeffs[i] at the sorted knots."""
    num = Fraction if exact else float
    pos = int(np.searchsorted(knots, x))
    if pos < len(knots) and knots[pos] == x:
        return np.array(coeffs[pos], dtype=float)
    c = [[num(v) for v in row] for row in coeffs]
    if x < knots[0]:
        out = _tail_jet(num(knots[0]), c[0], k, num(x), num)
    elif x > knots[-1]:
        out = _tail_jet(num(knots[-1]), c[-1], k, num(x), num)
    else:
        a, b = num(knots[pos - 1]), num(knots[pos])
        poly = _hermite_gap_poly(a, b, c[pos - 1], c[pos], k)
        t = num(x) - a
        out = [sum(math.perm(p, j) * poly[p] * t ** (p - j) for p in range(j, len(poly)))
               for j in range(k + 1)]
    return np.array([float(v) for v in out])


def _oracle_audit(knots, order, k, x):
    """(active point count, {(field index, alpha): weight}) of the old audit:
    the extension of unit jets on the active points alone, in floats."""
    pos = int(np.searchsorted(knots, x))
    if pos < len(knots) and knots[pos] == x:
        active = [pos]
    elif x < knots[0] or x > knots[-1]:
        active = [0 if x < knots[0] else len(knots) - 1]
    else:
        active = [pos - 1, pos]
    weights = {}
    for slot in active:
        for a in range(k + 1):
            unit = [[float(s == slot and r == a) for r in range(k + 1)] for s in active]
            w = _oracle_jet([knots[s] for s in active], unit, k, x, exact=False)[0]
            if w != 0.0:
                weights[(order[slot], a)] = w
    return len(active), weights


def _random_hermite(rng, k, m):
    """Sorted knots (gaps from 1e-3 to 1, log-uniform), their jets, and the
    extension of a field that lists them in shuffled order."""
    pts = rng.uniform(-1, 1) + np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-3, 0, m - 1))])
    coeffs = rng.normal(size=(m, k + 1))
    perm = rng.permutation(m)
    h = hermite_extension(field_from_jets([jet([pts[i]], coeffs[i], k) for i in perm]))
    return pts, coeffs, h


def _hermite_queries(rng, pts):
    """Every knot, three points per gap, and points in both tails: inside the
    flat part of the clamp, in its transition, and beyond distance 2."""
    gaps = [rng.uniform(a, b, 3) for a, b in zip(pts[:-1], pts[1:])]
    dist = np.array([rng.uniform(0, 1), rng.uniform(1, 2), rng.uniform(2, 4)])
    return np.concatenate([pts, *gaps, pts[0] - dist, pts[-1] + dist])


def test_hermite_matches_divided_difference_oracle():
    rng = np.random.default_rng(10)
    for trial in range(240):
        k, m = trial % 4, 1 + (trial // 4) % 6
        pts, coeffs, h = _random_hermite(rng, k, m)
        xs = _hermite_queries(rng, pts)
        got = h.jets(xs)
        for x, row in zip(xs, got):
            ref = _oracle_jet(pts, coeffs, k, x)
            if x in pts:
                assert np.array_equal(row, ref), (k, m, x)
            else:
                assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))), (k, m, x)
            rec = depth_audit(h, x)
            active, weights = _oracle_audit(pts, h.order, k, x)
            assert rec.active_points == active
            got_w = {(i, a): w for i, a, w in rec.entries}
            assert set(got_w) == set(weights)
            assert all(abs(got_w[key] - weights[key]) <= 1e-12 for key in weights)
            assert rec.constant_residual <= 1e-12


def test_hermite_batch_equals_scalar_bitwise(monkeypatch):
    rng = np.random.default_rng(11)
    for k in range(4):
        pts, _, h = _random_hermite(rng, k, 6)
        xs = _hermite_queries(rng, pts)
        rng.shuffle(xs)
        ref = np.array([h.evaluate_jet(x).coeffs for x in xs])
        assert np.array_equal(h.jets(xs), ref)
        assert np.array_equal(h(xs), ref[:, 0])
        assert [h(x) for x in xs] == ref[:, 0].tolist()
        for elems in (1, 2000, 10000):  # one to a few dozen queries per block
            monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", elems)
            assert np.array_equal(h.jets(xs), ref)
        monkeypatch.undo()


def test_constant_residual_fails_on_a_perturbed_table(monkeypatch):
    rng = np.random.default_rng(12)
    pts, _, h = _random_hermite(rng, 2, 5)
    xs = [rng.uniform(a, b) for a, b in zip(pts[:-1], pts[1:])]
    assert max(depth_audit(h, x).constant_residual for x in xs) <= 1e-12
    table = _cardinal(2) * (1.0 + 1e-6)
    monkeypatch.setattr("ckomega.extension._cardinal", lambda k: table)
    assert min(depth_audit(h, x).constant_residual for x in xs) > 1e-9


def test_depth_audit_runtime_budget():
    # 100 audits at m = 40, k = 2: about 8 ms on one 2 vCPU Xeon core, where
    # rebuilding 2(k+1) + 1 extensions per audit took about 160 ms
    rng = np.random.default_rng(13)
    pts = np.sort(rng.uniform(-1, 1, 40))
    h = hermite_extension(field_from_jets([jet([p], rng.normal(size=3), 2) for p in pts]))
    xs = rng.uniform(pts[0], pts[-1], 100)
    depth_audit(h, xs[0])
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for x in xs:
            depth_audit(h, x)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05


def test_evaluate_jet_runtime_budget():
    # 400 scalar calls at m = 40, k = 2, one in seven on a knot: about 14 ms
    # on one 2 vCPU Xeon core, where the per-call masks, counts and Horner
    # loop of the earlier weights took 22-30 ms
    rng = np.random.default_rng(14)
    pts = np.sort(rng.uniform(-1, 1, 40))
    h = hermite_extension(field_from_jets([jet([p], rng.normal(size=3), 2) for p in pts]))
    xs = rng.uniform(pts[0], pts[-1], 400)
    xs[::7] = pts[rng.integers(0, 40, xs[::7].size)]
    h.evaluate_jet(xs[0])
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for x in xs:
            h.evaluate_jet(x)
        best = min(best, time.perf_counter() - start)
    assert best < 0.04


def test_hermite_tails_read_the_profile_only_in_its_transition_band(monkeypatch):
    # up to distance 1 the clamp is exactly 1 with zero derivatives, and from
    # distance 2 on all are 0, so only a distance in (1, 2) needs profile_deriv
    calls = []

    def counted(u, order):
        calls.append(np.size(u))
        return profile_deriv(u, order)

    monkeypatch.setattr("ckomega.extension.profile_deriv", counted)
    rng = np.random.default_rng(15)
    for k in range(4):
        pts, coeffs, h = _random_hermite(rng, k, 4)
        flat_far = np.array([pts[0] - 0.5, pts[-1] + 0.75, pts[0] - 2.5, pts[-1] + 3.0, *pts])
        calls.clear()
        for row, x in zip(h.jets(flat_far), flat_far):
            assert np.all(np.abs(row - _oracle_jet(pts, coeffs, k, x)) <= 1e-12 * np.maximum(1.0, np.abs(row)))
        assert calls == []
        h.jets(np.append(flat_far, pts[-1] + 1.5))
        assert calls == [1] * (k + 1)


def _overflowing_gap():
    # h^(r-j) overflows float64 on the gap [0, 1e-110] at k = 3
    pts, coeffs = [0.0, 1e-110, 1.0], [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], [9.0, 10.0, 11.0, 12.0]]
    return hermite_extension(field_from_jets([jet([p], c, 3) for p, c in zip(pts, coeffs)])), pts, coeffs


def test_hermite_knots_are_data_next_to_an_overflowing_gap():
    # a knot's zero weights must not turn the overflow into 0 * inf = NaN,
    # and no query warns (RuntimeWarnings fail the suite)
    h, pts, coeffs = _overflowing_gap()
    assert np.array_equal(h.jets(pts), coeffs)
    assert [depth_audit(h, x).entries for x in pts] == [((i, 0, 1.0),) for i in range(3)]


def test_hermite_jet_in_an_overflowing_gap_raises():
    # inside the gap D^3 F is about -2.1e332 in exact arithmetic, beyond
    # float64: jets and evaluate_jet raise, values are finite and returned,
    # and the other gap and the tails are unaffected
    h, pts, coeffs = _overflowing_gap()
    named = r"the jet at 5e-111 is not finite: it overflows float64 on the gap \[0.0, 1e-110\]"
    for call in (h.jets, h.evaluate_jet, lambda x: h.jets([0.5, x])):
        with pytest.raises(NumericalError, match=named):
            call(5e-111)
    assert h(5e-111) == 3.0 and np.isfinite(h([5e-111, 0.5])).all()
    xs = [-1.5, -0.5, 0.5, 1.5, 2.5]
    assert np.isfinite(h.jets(xs)).all()
    assert h.jets(xs)[:, 0].tolist() == h(xs).tolist()
    # h^4 overflows on a gap of 1e80 at k = 4, values included; knots stay data
    ends = [[1.0, 2.0, 3.0, 4.0, 5.0], [6.0, 7.0, 8.0, 9.0, 10.0]]
    wide = hermite_extension(field_from_jets([jet([-5e79], ends[0], 4), jet([5e79], ends[1], 4)]))
    with pytest.raises(NumericalError, match=r"gap \[-5e\+79, 5e\+79\]"):
        wide(0.0)
    assert wide.jets([-5e79, 5e79]).tolist() == ends


def test_hermite_far_tail_is_zero_at_any_distance():
    # beyond distance 2 the clamp is 0, so every order is exactly 0 there:
    # t^3 at t = -1e200 overflows, and times the clamp it made NaN jets
    h = hermite_extension(field_from_jets([jet([0.0], [1, 2, 3, 4], 3), jet([1.0], [1, 2, 3, 4], 3)]))
    xs = [-1e200, -3.0, 50.0, 1e100]
    assert np.array_equal(h.jets(xs), np.zeros((4, 4)))
    for x in xs:
        rec = depth_audit(h, x)
        assert rec.entries == () and rec.active_points == 1 and rec.constant_residual == 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hermite_rejects_non_finite_queries(bad):
    h = hermite_extension(two_point())
    for call in (h.evaluate_jet, h, lambda x: h.jets([0.5, x]), lambda x: depth_audit(h, x)):
        with pytest.raises(InputError, match="queries must be finite"):
            call(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_mcshane_rejects_non_finite_queries(bad):
    ext = mcshane_extension(two_point(), mo.linear())
    for q in ([bad], [[0.5], [bad]]):
        with pytest.raises(InputError, match="queries must be finite"):
            ext(q)


# ---------------------------------------------------------------------------
# depth audit


def test_depth_audit_gap_weights():
    h = hermite_extension(two_point())
    rec = depth_audit(h, 0.25)
    assert rec.linear and rec.active_points == 2
    weights = {(i, a): w for i, a, w in rec.entries}
    assert weights[(0, 0)] == pytest.approx(0.75)
    assert weights[(1, 0)] == pytest.approx(0.25)
    assert rec.constant_residual <= 1e-12


def test_depth_audit_at_data_point():
    h = hermite_extension(two_point())
    rec = depth_audit(h, 1.0)
    assert rec.active_points == 1
    assert rec.entries == ((1, 0, 1.0),)


def test_depth_audit_mcshane_not_linear():
    ext = mcshane_extension(two_point(), mo.linear())
    rec = depth_audit(ext, np.array([0.5]))
    assert not rec.linear
    assert rec.marker == NOT_LINEAR


def test_depth_audit_reconstructs_value_and_respects_bound():
    rng = np.random.default_rng(7)
    for k in (0, 1, 2, 3):
        pts = np.sort(rng.uniform(-2, 2, 4))
        jets = [jet([p], rng.normal(size=k + 1), k) for p in pts]
        f = field_from_jets(jets)
        h = hermite_extension(f)
        for x in (-2.5, float(rng.uniform(pts[1], pts[2])), pts[2], 2.9):
            rec = depth_audit(h, x)
            assert rec.active_points <= 2 * (k + 1)
            recon = sum(w * jets[i].coeffs[a] for i, a, w in rec.entries)
            assert recon == pytest.approx(h(x), rel=1e-9, abs=1e-10)
            assert rec.constant_residual <= 1e-10
