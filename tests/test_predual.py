import itertools
import re
import time

import numpy as np
import pytest
from free_lp import solve_free

from ckomega import modulus as mo
from ckomega.errors import InputError
from ckomega.extension import mcshane_extension
from ckomega.fields import (
    NormContext,
    field_from_data,
    field_from_jets,
    jet,
    mi_factorial,
    mi_order,
    mi_sub,
    multi_indices,
)
from ckomega.predual import (
    FinitenessReport,
    _bracket_lps,
    delta,
    difference,
    finiteness_gap,
    functional,
    pair,
    predual_norm_bracket,
    predual_norm_k0,
    predual_norm_k0_certificate,
)
from ckomega.simplex import OPTIMAL, LinearProgram, solve
from ckomega.whitney import whitney_lambda

CTX0 = NormContext(0, 1, mo.linear())


# ---------------------------------------------------------------------------
# pairing


def test_pair_evaluation_functional():
    f = field_from_data([[0.4]], [2.5])
    g = functional([delta([0.4])], [1.0], CTX0)
    assert pair(f, g) == 2.5


def test_pair_difference_atom_example():
    f = field_from_data([[0.0], [1.0]], [0.0, 1.0])  # f(x) = x on the support
    g = functional([difference([0.0], [1.0])], [1.0], CTX0)
    assert pair(f, g) == pytest.approx(-1.0)


def test_pair_linearity_on_constants():
    f = field_from_data([[0.0], [1.0]], [1.0, 1.0])
    g = functional([delta([0.0]), delta([1.0])], [2.0, 3.0], CTX0)
    assert pair(f, g) == pytest.approx(5.0)


def test_pair_missing_jet_raises():
    f = field_from_data([[0.0]], [1.0])
    g = functional([delta([2.0])], [1.0], CTX0)
    with pytest.raises(InputError):
        pair(f, g)


def test_atom_validation():
    ctx1 = NormContext(1, 1, mo.linear())
    with pytest.raises(InputError):
        functional([delta([0.0], [2])], [1.0], ctx1)  # |alpha| > k
    with pytest.raises(InputError):
        functional([difference([0.0], [1.0], [0])], [1.0], ctx1)  # |alpha| != k
    with pytest.raises(InputError):
        difference([0.0], [0.0])


def test_non_finite_coefficient_rejected():
    with pytest.raises(InputError, match="not finite"):
        predual_norm_k0(functional([delta([0.0]), delta([1.0])], [1.0, np.nan], CTX0))
    with pytest.raises(InputError, match="not finite"):
        functional([delta([0.0])], [np.inf], CTX0)


def test_atom_deduplication():
    g = functional([delta([0.0]), delta([0.0]), delta([1.0])], [1.0, 2.0, 0.0], CTX0)
    assert len(g.atoms) == 1
    assert g.coeffs == (3.0,)


# ---------------------------------------------------------------------------
# exact k=0 norm


def test_norm_single_atom_is_one():
    assert predual_norm_k0(functional([delta([0.7])], [1.0], CTX0)) == 1.0


def test_norm_two_point_examples():
    g_far = functional([delta([0.0]), delta([2.0])], [1.0, -1.0], CTX0)
    assert predual_norm_k0(g_far) == pytest.approx(2.0, abs=1e-10)
    g_near = functional([delta([0.0]), delta([1.0])], [1.0, -1.0], CTX0)
    assert predual_norm_k0(g_near) == pytest.approx(1.0, abs=1e-10)


def test_norm_rejects_non_k0():
    ctx1 = NormContext(1, 1, mo.linear())
    g = functional([delta([0.0], [1])], [1.0], ctx1)
    with pytest.raises(InputError):
        predual_norm_k0(g, mo.linear())


def test_k0_rejects_table_modulus_breaking_axioms():
    # without the axioms the transshipment optimum depends on points whose
    # atoms cancel (3.6426 on the support against 3.5977 with such a point kept)
    ctx = NormContext(0, 2, mo.linear())
    g = functional([delta([0.0, 0.0]), delta([0.7, 0.0]), delta([0.0, 1.5])], [1.0, -2.0, 0.5], ctx)
    for om, axiom in ((mo.table([(0.5, 0.3), (1.0, 1.2), (3.0, 2.5)]), "t/omega(t) nondecreasing"),
                      (mo.table([(1.0, 1.0), (2.0, 0.5)]), "omega nondecreasing")):
        with pytest.raises(InputError, match=re.escape(axiom)):
            predual_norm_k0(g, om)
        with pytest.raises(InputError, match=re.escape(axiom)):
            predual_norm_k0_certificate(g, om)
    # one breakpoint satisfies the axioms by construction
    assert predual_norm_k0(g, mo.table([(1.0, 2.0)])) > 0.0


def _u_lp(points, coeffs, omega):
    """The dense primal k=0 norm LP on the distinct points (coefficients of a
    repeated point summed): max c.u s.t. |u_i| <= 1, |u_i - u_j| <= omega(d_ij),
    as (A, b, c) for A u <= b, m(m+1) rows."""
    support = sorted({tuple(p) for p in points})
    index = {p: i for i, p in enumerate(support)}
    m = len(support)
    c = np.zeros(m)
    for p, v in zip(points, coeffs):
        c[index[tuple(p)]] += v
    rows, rhs = [], []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        rows += [e, -e]
        rhs += [1.0, 1.0]
    for i in range(m):
        for j in range(i + 1, m):
            d = float(np.linalg.norm(np.asarray(support[i]) - np.asarray(support[j])))
            e = np.zeros(m)
            e[i], e[j] = 1.0, -1.0
            rows += [e, -e]
            rhs += [omega(d), omega(d)]
    return np.array(rows), np.array(rhs), c


def _brute_force_k0(points, coeffs, omega):
    """Vertex enumeration of {|u_i|<=1, |u_i-u_j|<=omega(d_ij)} (oracle)."""
    A, b, c = _u_lp(points, coeffs, omega)
    m = c.size
    best = None
    for combo in itertools.combinations(range(len(A)), m):
        sub = A[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        v = np.linalg.solve(sub, b[list(combo)])
        if np.all(A @ v <= b + 1e-10):
            val = c @ v
            best = val if best is None else max(best, val)
    return best


def _dense_u_lp_k0(points, coeffs, omega):
    """The k=0 norm as the dense u-LP on free variables (oracle)."""
    A, b, c = _u_lp(points, coeffs, omega)
    sol = solve_free(c, lhs_ineq=A, rhs_ineq=b)
    assert sol.status == OPTIMAL
    return sol.optimum


def _highs_k0(points, coeffs, omega):
    """The same u-LP through HiGHS, with |u_i| <= 1 as variable bounds (oracle)."""
    from scipy.optimize import linprog

    A, b, c = _u_lp(points, coeffs, omega)
    m = c.size
    A, b = A[2 * m :], b[2 * m :]  # pair rows only
    res = linprog(-c, A_ub=A if b.size else None, b_ub=b if b.size else None,
                  bounds=[(-1.0, 1.0)] * m, method="highs")
    assert res.status == 0
    return -res.fun


K0_MODULI = (
    mo.power(0.5),
    mo.linear(),
    mo.capped(0.7, 0.5),
    mo.table([(0.5, 0.6), (1.0, 0.9), (3.0, 1.5)]),
)


def _k0_case(rng, m, index):
    """A seeded k=0 functional on m distinct points with repeated atoms (merged)
    and, for m >= 2, one point whose atoms cancel; cycles through n = 1..3
    and the four modulus kinds."""
    n = 1 + index % 3
    om = K0_MODULI[index % 4]
    pts = [tuple(p) for p in rng.uniform(-2, 2, (m, n))]
    coeffs = list(rng.normal(size=m))
    points = list(pts)
    for i in np.flatnonzero(rng.uniform(size=m) < 0.3):
        points.append(pts[i])
        coeffs.append(float(rng.normal()))
    if m >= 2:
        gone = int(rng.integers(m))
        total = sum(c for p, c in zip(points, coeffs) if p == pts[gone])
        points.append(pts[gone])
        coeffs.append(-total)
    g = functional([delta(p) for p in points], coeffs, NormContext(0, n, om))
    return g, points, coeffs, om


def _check_k0_certificate(g, om, value):
    """u from the transshipment's row duals is feasible for the u-LP and
    attains the norm."""
    norm, support, u = predual_norm_k0_certificate(g, om)
    assert norm == value
    P = np.asarray(support)
    c = np.zeros(len(support))
    index = {p: i for i, p in enumerate(support)}
    for a, coef in zip(g.atoms, g.coeffs):
        c[index[a.x]] += coef
    assert np.all(np.abs(u) <= 1.0 + 1e-9)
    for i, j in itertools.combinations(range(len(support)), 2):
        assert abs(u[i] - u[j]) <= om(float(np.linalg.norm(P[i] - P[j]))) + 1e-9
    assert c @ u == pytest.approx(value, rel=1e-9, abs=1e-12)


def test_k0_transshipment_matches_dense_u_lp():
    rng = np.random.default_rng(4040)
    for index, m in enumerate((1, 2, 3, 4, 5, 8, 12, 17, 23, 30, 40)):
        g, points, coeffs, om = _k0_case(rng, m, index)
        value = predual_norm_k0(g, om)
        assert value == pytest.approx(_dense_u_lp_k0(points, coeffs, om), rel=1e-9, abs=1e-12)
        _check_k0_certificate(g, om, value)


def test_k0_transshipment_matches_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(4141)
    for index, m in enumerate(range(1, 41)):
        g, points, coeffs, om = _k0_case(rng, m, index)
        value = predual_norm_k0(g, om)
        assert value == pytest.approx(_highs_k0(points, coeffs, om), rel=1e-9, abs=1e-12)
        _check_k0_certificate(g, om, value)


def test_k0_norm_m60_runtime():
    rng = np.random.default_rng(60)
    ctx = NormContext(0, 2, mo.power(0.5))
    g = functional([delta(p) for p in rng.uniform(-2, 2, (60, 2))], rng.normal(size=60), ctx)
    t0 = time.perf_counter()
    value = predual_norm_k0(g)
    assert time.perf_counter() - t0 < 5.0
    assert value > 0.0


def test_norm_matches_vertex_enumeration():
    rng = np.random.default_rng(77)
    for trial in range(40):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 5))
        pts = rng.uniform(-2, 2, (m, n))
        while m > 1:
            d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
            np.fill_diagonal(d2, 1.0)
            if d2.min() > 1e-3:
                break
            pts = rng.uniform(-2, 2, (m, n))
        coeffs = rng.normal(size=m)
        om = mo.linear() if trial % 2 else mo.power(0.5)
        ctx = NormContext(0, n, om)
        g = functional([delta(p) for p in pts], coeffs, ctx)
        got = predual_norm_k0(g, om)
        want = _brute_force_k0([tuple(p) for p in pts], coeffs, om)
        assert got == pytest.approx(want, abs=1e-8)


def test_norm_axioms():
    rng = np.random.default_rng(88)
    om = mo.linear()
    for _ in range(60):
        m = int(rng.integers(1, 5))
        pts = [tuple(p) for p in rng.uniform(-2, 2, (m, 1))]
        c1, c2 = rng.normal(size=m), rng.normal(size=m)
        g1 = functional([delta(p) for p in pts], c1, CTX0)
        g2 = functional([delta(p) for p in pts], c2, CTX0)
        s = float(rng.normal())
        assert predual_norm_k0(g1.scale(s), om) == pytest.approx(
            abs(s) * predual_norm_k0(g1, om), abs=1e-9
        )
        assert predual_norm_k0(g1.add(g2), om) <= (
            predual_norm_k0(g1, om) + predual_norm_k0(g2, om) + 1e-9
        )


def test_duality_mcshane_extension_attains_norm():
    rng = np.random.default_rng(99)
    om = mo.linear()
    for _ in range(20):
        m = int(rng.integers(2, 5))
        pts = rng.uniform(-2, 2, (m, 1))
        while True:
            d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
            np.fill_diagonal(d2, 1.0)
            if d2.min() > 1e-2:
                break
            pts = rng.uniform(-2, 2, (m, 1))
        coeffs = rng.normal(size=m)
        g = functional([delta(p) for p in pts], coeffs, CTX0)
        value, support, u = predual_norm_k0_certificate(g, om)
        # u is a feasible trace: its McShane extension has norm <= 1 and
        # pairs with g to the optimum (strong duality realized)
        fld = field_from_data(np.array(support), u)
        ext = mcshane_extension(fld, om)
        assert ext.lam <= 1.0 + 1e-9
        assert ext.sup_bound <= 1.0 + 1e-9
        paired = sum(c * ext(np.asarray(p).reshape(1, -1))[0]
                     for p, c in zip([a.x for a in g.atoms], g.coeffs))
        assert paired == pytest.approx(value, abs=1e-8)


def test_difference_atom_norm_formula():
    # |(delta_x - delta_y)| = min(2, omega(d)) for the unnormalized difference
    rng = np.random.default_rng(111)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        x = rng.uniform(-3, 3, n)
        y = x.copy()
        while np.linalg.norm(x - y) < 1e-6:
            y = x + rng.uniform(-4, 4, n)
        om = mo.power(float(rng.uniform(0.3, 1.0)))
        ctx = NormContext(0, n, om)
        g = functional([delta(x), delta(y)], [1.0, -1.0], ctx)
        d = float(np.linalg.norm(x - y))
        assert predual_norm_k0(g, om) == pytest.approx(min(2.0, om(d)), abs=1e-9)


# ---------------------------------------------------------------------------
# bracket for k >= 1


def test_bracket_single_atom_hi_at_most_one():
    for k, n in ((1, 1), (2, 1), (1, 2)):
        ctx = NormContext(k, n, mo.linear())
        alpha = (k,) + (0,) * (n - 1)
        g = functional([delta([0.3] * n, alpha)], [1.0], ctx)
        lo, hi = predual_norm_bracket(g, ctx)
        assert hi <= 1.0 + 1e-9
        assert lo <= hi + 1e-9


def test_bracket_zero_functional():
    ctx = NormContext(1, 1, mo.linear())
    assert predual_norm_bracket(functional([], [], ctx), ctx) == (0.0, 0.0)


def test_bracket_difference_atom_k1():
    ctx = NormContext(1, 1, mo.linear())
    g = functional([difference([0.0], [1.0], [1])], [1.0], ctx)
    lo, hi = predual_norm_bracket(g, ctx)
    assert hi <= 1.0 + 1e-9
    assert lo <= 1.0 + 1e-9
    assert lo <= hi + 1e-9


def test_bracket_consistent_with_k0_exact_norm():
    # for k=0 delta functionals the lower LP has the same feasible set as the
    # exact norm LP, so lo == exact and hi >= exact
    rng = np.random.default_rng(5)
    om = mo.linear()
    for _ in range(15):
        m = int(rng.integers(1, 5))
        pts = [tuple(p) for p in rng.uniform(-2, 2, (m, 1))]
        g = functional([delta(p) for p in pts], rng.normal(size=m), CTX0)
        exact = predual_norm_k0(g, om)
        lo, hi = predual_norm_bracket(g, CTX0)
        assert lo == pytest.approx(exact, abs=1e-8)
        assert hi >= exact - 1e-8


def test_bracket_order_random():
    rng = np.random.default_rng(6)
    for _ in range(15):
        k = int(rng.integers(1, 3))
        ctx = NormContext(k, 1, mo.linear())
        m = int(rng.integers(1, 4))
        pts = np.sort(rng.uniform(-2, 2, m))
        while m > 1 and np.min(np.diff(pts)) < 0.1:
            pts = np.sort(rng.uniform(-2, 2, m))
        atoms, coeffs = [], []
        for p in pts:
            for order in range(k + 1):
                if rng.uniform() < 0.6:
                    atoms.append(delta([p], [order]))
                    coeffs.append(float(rng.normal()))
        if not atoms:
            continue
        g = functional(atoms, coeffs, ctx)
        lo, hi = predual_norm_bracket(g, ctx)
        assert lo <= hi + 1e-7


def _loop_bracket_lps(g, ctx):
    """Reference (lo, hi) bracket LPs: one primal lo row per (pair, z, alpha)
    from a per-beta Taylor row with monomials by **, posed in lo's dual as
    one column of the transposed rows each, and one hi column per pair and
    alpha, in the order of _bracket_lps."""
    k, n, om = ctx.k, ctx.n, ctx.modulus
    support = g.support()
    mis = multi_indices(n, k)
    m, J = len(support), len(mis)
    idx = {p: i for i, p in enumerate(support)}

    def slot(p, alpha):
        return idx[p] * J + mis.index(alpha)

    gamma = np.zeros(m * J)
    for a, coef in zip(g.atoms, g.coeffs):
        if a.kind == "delta":
            gamma[slot(a.x, a.alpha)] += coef
        else:
            w = om(float(np.linalg.norm(np.asarray(a.x) - np.asarray(a.y))))
            gamma[slot(a.x, a.alpha)] += coef / w
            gamma[slot(a.y, a.alpha)] -= coef / w

    def d_taylor_row(p, alpha, z):
        row = np.zeros(m * J)
        dz = np.asarray(z) - np.asarray(p)
        for beta in mis:
            rem = mi_sub(beta, alpha)
            if rem is not None:
                row[slot(p, beta)] = float(np.prod(dz ** np.asarray(rem))) / mi_factorial(rem)
        return row

    rows, rhs = [], []
    for s in range(m * J):
        e = np.zeros(m * J)
        e[s] = 1.0
        rows += [e, -e]
        rhs += [1.0, 1.0]
    columns = list(np.eye(m * J))
    for i, j in itertools.combinations(range(m), 2):
        p, q = support[i], support[j]
        d = float(np.linalg.norm(np.asarray(p) - np.asarray(q)))
        w = om(d)
        for z in (p, q):
            for alpha in mis:
                row = d_taylor_row(p, alpha, z) - d_taylor_row(q, alpha, z)
                rows += [row, -row]
                rhs += [d ** (k - mi_order(alpha)) * w] * 2
        for alpha in mis:
            if mi_order(alpha) == k:
                col = np.zeros(m * J)
                col[slot(p, alpha)] = 1.0 / w
                col[slot(q, alpha)] = -1.0 / w
                columns.append(col)
    M = np.array(columns).T
    lo = LinearProgram(np.array(rhs), lhs_eq=np.array(rows).T, rhs_eq=gamma)
    hi = LinearProgram(np.ones(2 * M.shape[1]), lhs_eq=np.hstack([M, -M]), rhs_eq=gamma)
    return lo, hi


def test_bracket_lps_match_taylor_row_loop():
    rng = np.random.default_rng(41)
    for trial in range(32):
        n, k, om = 1 + trial % 2, 1 + (trial // 2) % 2, K0_MODULI[(trial // 4) % 4]
        m = int(rng.integers(2, 6))
        pts = rng.uniform(-1, 1, (m, n))
        mis = multi_indices(n, k)
        top = [a for a in mis if mi_order(a) == k]
        atoms = [delta(p, mis[rng.integers(len(mis))]) for p in pts]
        for _ in range(2):
            i, j = rng.choice(m, 2, replace=False)
            atoms.append(difference(pts[i], pts[j], top[rng.integers(len(top))]))
        ctx = NormContext(k, n, om)
        g = functional(atoms, rng.normal(size=len(atoms)), ctx)
        got, want = _bracket_lps(g, ctx), _loop_bracket_lps(g, ctx)
        pairs = [(got[0].lhs_eq, want[0].lhs_eq), (got[0].objective, want[0].objective),
                 (got[1].lhs_eq, want[1].lhs_eq), (got[0].rhs_eq, want[0].rhs_eq)]
        values = [(solve(a).optimum, solve(b).optimum) for a, b in zip(got, want)]
        for a, b in pairs:
            assert a.shape == b.shape
            if (n, k) == (1, 1):  # the shape the duality workload uses
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        for a, b in values:
            assert a == b if (n, k) == (1, 1) else a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# finiteness


def test_finiteness_k0_d2_ratio_exactly_one():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 12))
        pts = rng.uniform(-2, 2, (m, n))
        while True:
            d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
            np.fill_diagonal(d2, 1.0)
            if d2.min() > 1e-6:
                break
            pts = rng.uniform(-2, 2, (m, n))
        fld = field_from_data(pts, rng.normal(size=m))
        rep = finiteness_gap(fld, 2, NormContext(0, n, mo.linear()))
        assert rep.ratio == 1.0
        assert rep.subset_sup <= rep.full


def test_finiteness_single_point():
    fld = field_from_data([[0.0]], [2.0])
    rep = finiteness_gap(fld, 3, CTX0)
    assert rep.ratio == 1.0
    assert rep.witness_subset == (0,)


def test_finiteness_k1_ratio_one_for_pairwise_proxy():
    # the proxy quantity is pair-based, so d = k+2 >= 2 gives ratio 1
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(30):
        m = int(rng.integers(2, 7))
        pts = np.sort(rng.uniform(-2, 2, m))
        while np.min(np.diff(pts)) < 0.05:
            pts = np.sort(rng.uniform(-2, 2, m))
        fld = field_from_jets([jet([p], rng.normal(size=2), 1) for p in pts])
        rep = finiteness_gap(fld, 3, NormContext(1, 1, mo.linear()))
        ratios.append(rep.ratio)
        assert rep.ratio >= 1.0 - 1e-12
    assert max(ratios) <= 1.0 + 1e-12  # bounded (identically one for the proxy)


def test_finiteness_subset_sup_monotone_in_d():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(3, 8))
        pts = rng.uniform(-2, 2, (m, 2))
        while True:
            d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
            np.fill_diagonal(d2, 1.0)
            if d2.min() > 1e-4:
                break
            pts = rng.uniform(-2, 2, (m, 2))
        fld = field_from_data(pts, rng.normal(size=m))
        ctx = NormContext(0, 2, mo.power(0.5))
        prev = 0.0
        for d in (1, 2, 3):
            rep = finiteness_gap(fld, d, ctx)
            assert rep.subset_sup >= prev - 1e-15
            assert rep.subset_sup <= rep.full + 1e-15  # left inclusion, exact
            prev = rep.subset_sup


def _enumerated_gap(field, d, ctx):
    """Reference: lambda of every subset of size <= d in (size, lexicographic)
    order, stopping at the first subset whose lambda reaches the full value."""
    m = len(field)
    full = whitney_lambda(field, ctx).lam
    sup, witness, checked, early = 0.0, (), 0, False
    for size in range(1, min(d, m) + 1):
        for combo in itertools.combinations(range(m), size):
            v = whitney_lambda(field_from_jets([field.jets[i] for i in combo]), ctx).lam
            checked += 1
            if v > sup:
                sup, witness = v, combo
            if sup >= full:
                early = True
                break
        if early:
            break
    if sup == 0.0:
        ratio = 1.0 if full == 0.0 else float("inf")
    else:
        ratio = full / sup
    return FinitenessReport(full, sup, ratio, d, witness, early, checked)


def _differential_fields():
    """Seeded fields over k = 0-3, n = 1-3, m = 1-8 with random, all-zero,
    tied integer and sup-dominated jets."""
    rng = np.random.default_rng(41)
    moduli = (mo.linear(), mo.power(0.5), mo.capped(0.7, 1.0))
    for trial in range(320):
        k, n, m = int(rng.integers(0, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        J = len(multi_indices(n, k))
        pts = rng.uniform(-1, 1, (m, n))
        kind = trial % 4
        if kind == 0:
            coeffs = rng.normal(size=(m, J))
        elif kind == 1:
            coeffs = np.zeros((m, J))
        elif kind == 2:  # integer points and jets: ties between pairs
            pts = np.unique(rng.integers(-3, 4, (m, n)).astype(float), axis=0)
            coeffs = rng.integers(-2, 3, (len(pts), J)).astype(float)
        else:  # far-apart points with large jets: lam_sup attains lambda
            pts = 50.0 * pts
            coeffs = 10.0 * rng.normal(size=(m, J))
        fld = field_from_jets([jet(p, c, k) for p, c in zip(pts, coeffs)])
        yield fld, int(rng.integers(1, 4)), NormContext(k, n, moduli[trial % 3])


def test_finiteness_closed_form_matches_enumeration():
    kinds = set()
    for fld, d, ctx in _differential_fields():
        rep = finiteness_gap(fld, d, ctx)
        assert rep == _enumerated_gap(fld, d, ctx)
        kinds.add((len(rep.witness_subset), rep.early_exit))
    # every branch of the closed form was reached
    assert kinds == {(0, True), (1, True), (1, False), (2, True)}
    for fld in (field_from_data([[0.3]], [-1.5]), field_from_data([[0.0], [1.0], [2.0]], [0, 0, 0])):
        for d in (1, 2, 3):
            assert finiteness_gap(fld, d, CTX0) == _enumerated_gap(fld, d, CTX0)


def test_finiteness_large_d_is_one_sweep():
    # 40 points at d = 8 are about 10^8 subsets to enumerate; the closed form
    # needs one sweep over the 780 pairs
    pts = np.arange(40, dtype=float).reshape(-1, 1)
    for values in (np.zeros(40), np.random.default_rng(5).normal(size=40)):
        fld = field_from_data(pts, values)
        rep = finiteness_gap(fld, 8, CTX0)
        assert rep.ratio == 1.0
        assert rep.full == whitney_lambda(fld, CTX0).lam
