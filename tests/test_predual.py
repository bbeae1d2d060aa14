import collections
import itertools
import math
import re
import time

import numpy as np
import pytest
from free_lp import solve_free
from lo_sweep import lo_sweep

import ckomega.markov
import ckomega.predual
from ckomega import modulus as mo
from ckomega.errors import InputError, NumericalError
from ckomega.extension import mcshane_extension
from ckomega.fields import (
    NormContext,
    WhitneyField,
    field_from_data,
    field_from_jets,
    jet,
    mi_factorial,
    mi_order,
    mi_sub,
    multi_indices,
)
from ckomega.markov import markov_ratio
from ckomega.markov import probe as markov_probe
from ckomega.predual import (
    FinitenessReport,
    _bracket_solutions,
    _lo_lp,
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

K0_MODULI = (
    mo.power(0.5),
    mo.linear(),
    mo.capped(0.7, 0.5),
    mo.table([(0.5, 0.6), (1.0, 0.9), (3.0, 1.5)]),
)


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


def _per_atom_pair(deriv, g):
    """<f, g> and sum |term| from a per-atom loop over g's atoms (oracle):
    deriv(alpha, x) is D^alpha f at one point."""
    total, size = 0.0, 0.0
    for a, c in zip(g.atoms, g.coeffs):
        if a.kind == "delta":
            terms = [c * deriv(a.alpha, a.x)]
        else:
            w = g.ctx.modulus(float(np.linalg.norm(np.subtract(a.x, a.y))))
            terms = [c * deriv(a.alpha, a.x) / w, -c * deriv(a.alpha, a.y) / w]
        total += sum(terms)
        size += sum(abs(t) for t in terms)
    return total, size


def _mixed_functional(rng, n, k, om, m):
    """delta atoms of random order at random points of m, and for m >= 2
    three difference atoms of order k between random pairs of them."""
    pts = rng.uniform(-1, 1, (m, n))
    mis = multi_indices(n, k)
    top = [a for a in mis if mi_order(a) == k]
    atoms = [delta(pts[i], mis[rng.integers(len(mis))]) for i in rng.integers(m, size=m + 2)]
    for _ in range(3 if m >= 2 else 0):
        i, j = rng.choice(m, 2, replace=False)
        atoms.append(difference(pts[i], pts[j], top[rng.integers(len(top))]))
    return pts, functional(atoms, rng.normal(size=len(atoms)), NormContext(k, n, om))


def test_pair_matches_per_atom_loop():
    # both branches against the per-atom loop, n = 1-3, k = 0-2, delta and
    # difference atoms; the oracle is called once per alpha with a charge,
    # on the whole support
    rng = np.random.default_rng(2718)
    for trial in range(60):
        n, k, om = 1 + trial % 3, (trial // 3) % 3, K0_MODULI[(trial // 9) % 4]
        m = int(rng.integers(1, 7))
        pts, g = _mixed_functional(rng, n, k, om, m)
        kf = k + int(rng.integers(2))  # a field of higher order pairs through its prefix
        fld = WhitneyField(pts, rng.normal(size=(m, len(multi_indices(n, kf)))), kf, n)
        rows = {tuple(p): i for i, p in enumerate(pts.tolist())}
        index = {a: s for s, a in enumerate(multi_indices(n, kf))}
        want, size = _per_atom_pair(lambda alpha, x: fld.coeffs[rows[x], index[alpha]], g)
        assert abs(pair(fld, g) - want) <= 1e-12 * size

        A = rng.normal(size=(len(index), n))
        calls = []

        def oracle(alpha, X):
            calls.append((alpha, X.shape))
            return np.sin(X @ A[index[alpha]])

        want, size = _per_atom_pair(lambda alpha, x: float(oracle(alpha, np.array([x]))[0]), g)
        calls.clear()
        assert abs(pair(oracle, g) - want) <= 1e-12 * size
        alphas = {a.alpha for a in g.atoms}
        assert len(calls) == len(alphas)
        assert {alpha for alpha, _ in calls} == alphas
        assert all(shape == (len(g.support()), n) for _, shape in calls)


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


@pytest.mark.parametrize("make", [
    lambda: delta([np.nan]),
    lambda: delta([0.0, np.inf]),
    lambda: difference([0.0], [np.nan]),
    lambda: difference([-np.inf], [0.0]),
])
def test_non_finite_atom_point_rejected(make):
    with pytest.raises(InputError, match="atom point must be finite"):
        make()


def test_atom_deduplication():
    g = functional([delta([0.0]), delta([0.0]), delta([1.0])], [1.0, 2.0, 0.0], CTX0)
    assert len(g.atoms) == 1
    assert g.coeffs == (3.0,)


# ---------------------------------------------------------------------------
# exact k=0 norm


def test_norm_single_atom_is_one():
    assert predual_norm_k0(functional([delta([0.7])], [1.0], CTX0)) == 1.0


def test_k0_difference_atoms_match_both_bracket_ends():
    # at k = 0 lo's LP is the exact norm, and hi is the transportation LP on
    # the lowered charges itself, so the norm must equal both ends on mixed
    # functionals
    rng = np.random.default_rng(1961)
    for trial in range(60):
        n, om = 1 + trial % 3, K0_MODULI[(trial // 3) % 4]
        _, g = _mixed_functional(rng, n, 0, om, int(rng.integers(2, 8)))
        assert any(a.kind == "diff" for a in g.atoms)
        exact = predual_norm_k0(g)
        lo, hi = predual_norm_bracket(g)
        assert exact == pytest.approx(lo, rel=1e-9, abs=1e-9)
        assert exact == pytest.approx(hi, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("om", K0_MODULI, ids=lambda om: om.kind)
def test_k0_cancelling_charge_joins_N(om):
    # omega(d) (delta_0 - delta_y)/omega(d) - delta_0 = -delta_y: the charge at
    # 0 cancels exactly, the norm is 1, and the certificate stays feasible
    y = (1.3, 0.4)
    w = om(float(np.linalg.norm(y)))
    g = functional([difference([0.0, 0.0], y), delta([0.0, 0.0])], [w, -1.0], NormContext(0, 2, om))
    assert g.lowering[1].tolist() == [[0.0], [-1.0]]
    norm, support, u = predual_norm_k0_certificate(g)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert predual_norm_k0(g) == norm
    assert support == ((0.0, 0.0), y)
    assert np.all(np.abs(u) <= 1.0 + 1e-12)
    assert abs(u[0] - u[1]) <= w + 1e-12
    assert -u[1] == pytest.approx(norm, abs=1e-12)


def test_bracket_rejects_a_foreign_context():
    g = functional([delta([0.0], [1])], [1.0], NormContext(1, 1, mo.linear()))
    assert predual_norm_bracket(g, NormContext(1, 1, mo.linear())) == predual_norm_bracket(g)
    with pytest.raises(InputError, match="context"):
        predual_norm_bracket(g, NormContext(1, 1, mo.power(0.5)))


def test_norm_two_point_examples():
    g_far = functional([delta([0.0]), delta([2.0])], [1.0, -1.0], CTX0)
    assert predual_norm_k0(g_far) == pytest.approx(2.0, abs=1e-10)
    g_near = functional([delta([0.0]), delta([1.0])], [1.0, -1.0], CTX0)
    assert predual_norm_k0(g_near) == pytest.approx(1.0, abs=1e-10)


def test_norm_rejects_non_k0():
    ctx1 = NormContext(1, 1, mo.linear())
    g = functional([delta([0.0], [1])], [1.0], ctx1)
    with pytest.raises(InputError):
        predual_norm_k0(g)


def test_k0_rejects_table_modulus_breaking_axioms():
    # without the axioms the transshipment optimum depends on points whose
    # atoms cancel (3.6426 on the support against 3.5977 with such a point kept)
    def g(om):
        atoms = [delta([0.0, 0.0]), delta([0.7, 0.0]), delta([0.0, 1.5])]
        return functional(atoms, [1.0, -2.0, 0.5], NormContext(0, 2, om))

    for om, axiom in ((mo.table([(0.5, 0.3), (1.0, 1.2), (3.0, 2.5)]), "t/omega(t) nondecreasing"),
                      (mo.table([(1.0, 1.0), (2.0, 0.5)]), "omega nondecreasing")):
        with pytest.raises(InputError, match=re.escape(axiom)):
            predual_norm_k0(g(om))
        with pytest.raises(InputError, match=re.escape(axiom)):
            predual_norm_k0_certificate(g(om))
    # one breakpoint satisfies the axioms by construction
    assert predual_norm_k0(g(mo.table([(1.0, 2.0)]))) > 0.0


def _u_lp(points, coeffs, omega):
    """The dense primal k=0 norm LP on the distinct points (coefficients of a
    repeated point summed): max c.u s.t. |u_i| <= 1, |u_i - u_j| <= omega(d_ij),
    as (A, b, c) for A u <= b, m(m+1) rows: +-e_i per point, then
    +-(e_i - e_j) per pair i < j."""
    support = sorted({tuple(p) for p in points})
    index = {p: i for i, p in enumerate(support)}
    m = len(support)
    c = np.zeros(m)
    for p, v in zip(points, coeffs):
        c[index[tuple(p)]] += v
    P, eye = np.asarray(support).reshape(m, -1), np.eye(m)
    i, j = np.triu_indices(m, 1)
    diff = eye[i] - eye[j]
    A = np.vstack([np.stack([eye, -eye], axis=1).reshape(2 * m, m),
                   np.stack([diff, -diff], axis=1).reshape(2 * i.size, m)])
    b = np.concatenate([np.ones(2 * m), np.repeat(omega(np.linalg.norm(P[i] - P[j], axis=1)), 2)])
    return A, b, c


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
    """u from the transportation LP's repaired row duals is feasible for the
    u-LP on every pair and attains the norm."""
    norm, support, u = predual_norm_k0_certificate(g)
    assert norm == value
    P = np.asarray(support)
    c = np.zeros(len(support))
    index = {p: i for i, p in enumerate(support)}
    for a, coef in zip(g.atoms, g.coeffs):
        c[index[a.x]] += coef
    assert np.all(np.abs(u) <= 1.0 + 1e-9)
    i, j = np.triu_indices(len(support), 1)
    assert np.all(np.abs(u[i] - u[j]) <= om(np.linalg.norm(P[i] - P[j], axis=1)) + 1e-9)
    assert c @ u == pytest.approx(value, rel=1e-9, abs=1e-12)


def _transshipment_k0(g, om):
    """The k=0 norm as the full min-cost transshipment (oracle): m rows and
    m(m+1) columns, arcs both ways between every pair of support points at
    cost omega(d_ij) and to and from ground at cost 1, each row's net outflow
    the point's charge. It needs no metric, so it checks the transportation
    form's shortcut."""
    support = g.support()
    m = len(support)
    index = {p: i for i, p in enumerate(support)}
    c = np.zeros(m)
    for a, coef in zip(g.atoms, g.coeffs):
        c[index[a.x]] += coef
    P = np.asarray(support, dtype=float).reshape(m, g.ctx.n)
    i, j = np.triu_indices(m, 1)
    w = om(np.linalg.norm(P[i] - P[j], axis=1))
    inc = np.zeros((m, i.size))
    inc[i, np.arange(i.size)] = 1.0
    inc[j, np.arange(i.size)] = -1.0
    arcs, cost = np.hstack([inc, -inc]), np.concatenate([w, w])
    order = np.argsort(cost, kind="stable")
    ground = np.eye(m)
    sol = solve(LinearProgram(np.concatenate([np.ones(2 * m), cost[order]]),
                              np.hstack([ground, -ground, arcs[:, order]]), c))
    assert sol.status == OPTIMAL
    assert (sol.dual_eq.size, sol.x.size) == (m, m * (m + 1))
    return sol.optimum


def test_k0_transportation_matches_dense_u_lp():
    rng = np.random.default_rng(4040)
    for index, m in enumerate((1, 2, 3, 4, 5, 8, 12, 17, 23, 30, 40)):
        g, points, coeffs, om = _k0_case(rng, m, index)
        value = predual_norm_k0(g)
        assert value == pytest.approx(_dense_u_lp_k0(points, coeffs, om), rel=1e-9, abs=1e-12)
        _check_k0_certificate(g, om, value)


def test_k0_transportation_matches_highs():
    pytest.importorskip("scipy")
    rng = np.random.default_rng(4141)
    for index, m in enumerate(range(1, 41)):
        g, points, coeffs, om = _k0_case(rng, m, index)
        value = predual_norm_k0(g)
        assert value == pytest.approx(_highs_k0(points, coeffs, om), rel=1e-9, abs=1e-12)
        _check_k0_certificate(g, om, value)


# sign layouts of the differential test: the number of negative charges
_K0_LAYOUTS = {
    "positive": lambda m: 0,
    "negative": lambda m: m,
    "one negative": lambda m: 1,
    "balanced": lambda m: m // 2,  # |P| = |N| for even m
    "eighth": lambda m: math.ceil(m / 8),  # the benchmark's layout
}


def test_k0_transportation_differential():
    # 250 seeded cases, m = 1-60, n = 1-3, the four modulus kinds (capped at
    # 0.5 < 2; linear on [-2, 2]^n with arcs dearer than the detour through
    # ground at 2) and five sign layouts, against the full transshipment
    # and HiGHS
    pytest.importorskip("scipy")
    rng = np.random.default_rng(1958)
    dear = 0
    for index in range(250):
        layout = list(_K0_LAYOUTS)[index % 5]
        n, om = 1 + index % 3, K0_MODULI[(index // 5) % 4]
        m = int(rng.integers(1, 61))
        if layout == "balanced":
            m += m % 2
        pts = rng.uniform(-2, 2, (m, n))
        c = np.abs(rng.normal(size=m)) + 0.01
        c[rng.permutation(m)[: _K0_LAYOUTS[layout](m)]] *= -1.0
        g = functional([delta(p) for p in pts], c, NormContext(0, n, om))
        if om.kind == "linear":
            i, j = np.triu_indices(m, 1)
            dear += bool(np.any(np.linalg.norm(pts[i] - pts[j], axis=1) > 2.0))
        value = predual_norm_k0(g)
        assert value == pytest.approx(_transshipment_k0(g, om), rel=1e-9, abs=1e-12), index
        assert value == pytest.approx(_highs_k0([tuple(p) for p in pts], c, om), rel=1e-9, abs=1e-12)
        _check_k0_certificate(g, om, value)
    assert dear > 30


def test_k0_norm_m150_balanced_runtime():
    # beyond the transshipment's m = 99 limit: 150 + 75 * 75 = 5775 columns
    pytest.importorskip("scipy")
    rng = np.random.default_rng(150)
    om = mo.power(0.5)
    pts = rng.uniform(-2, 2, (150, 2))
    c = np.abs(rng.normal(size=150))
    c[rng.permutation(150)[:75]] *= -1.0
    g = functional([delta(p) for p in pts], c, NormContext(0, 2, om))
    t0 = time.perf_counter()
    value = predual_norm_k0(g)
    assert time.perf_counter() - t0 < 5.0
    assert value == pytest.approx(_highs_k0([tuple(p) for p in pts], c, om), rel=1e-9)
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
        got = predual_norm_k0(g)
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
        assert predual_norm_k0(g1.scale(s)) == pytest.approx(
            abs(s) * predual_norm_k0(g1), abs=1e-9
        )
        assert predual_norm_k0(g1.add(g2)) <= (
            predual_norm_k0(g1) + predual_norm_k0(g2) + 1e-9
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
        value, support, u = predual_norm_k0_certificate(g)
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
        assert predual_norm_k0(g) == pytest.approx(min(2.0, om(d)), abs=1e-9)


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


@pytest.mark.parametrize("d", [0.5, 0.1])
def test_bracket_lo_is_the_relaxation_optimum_not_a_lower_bound(d):
    # g = delta_d - delta_0, n = 1, k = 1, omega(t) = t: every F of trace norm
    # <= 1 has |F'| <= 1, so ||g|| <= d, while the lambda <= 1 relaxation
    # reaches d + d^2 with the jets F(d) = F'(d) = F'(0) = 1, F(0) = 1 - d - d^2
    ctx = NormContext(1, 1, mo.linear())
    lo, hi = predual_norm_bracket(functional([delta([d]), delta([0.0])], [1.0, -1.0], ctx), ctx)
    assert lo == pytest.approx(d + d * d, rel=1e-12)
    assert lo > d and hi >= d


def _lo_vs_highs(lp):
    """(our lo optimum, HiGHS's or None unless HiGHS reports optimal with a
    feasible x: on near-coincident points it once reported an optimum whose
    x was off A x = b by 0.82, while both pricing rules here certified
    another value)."""
    from scipy.optimize import linprog

    s = solve(lp)
    assert s.status == OPTIMAL  # lo is feasible and bounded below by 0
    ref = linprog(lp.objective, A_eq=lp.lhs_eq, b_eq=lp.rhs_eq, bounds=(0, None), method="highs")
    trusted = ref.status == 0 and np.max(np.abs(lp.lhs_eq @ ref.x - lp.rhs_eq)) <= 1e-7
    return s.optimum, ref.fun if trusted else None


@pytest.mark.parametrize("n, k, m", [(2, 2, 6), (1, 2, 8)])
def test_bracket_lo_degenerate_families_match_highs(n, k, m):
    # one delta atom of random order per point in [0, 1]^n, omega = t^0.5:
    # lo's right-hand side is zero off the atom slots, so almost every pivot
    # is degenerate. Under Bland's rule from an artificial basis 5 of the
    # n = 2, k = 2 seeds raised (two false UNBOUNDED rays, three cycling
    # guards) and 1 of the n = 1, k = 2 seeds did.
    pytest.importorskip("scipy")
    ctx, mis = NormContext(k, n, mo.power(0.5)), multi_indices(n, k)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (m, n))
        atoms = [delta(p, mis[rng.integers(len(mis))]) for p in pts]
        got, want = _lo_vs_highs(_lo_lp(functional(atoms, rng.normal(size=m), ctx)))
        assert want is not None, seed
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), seed


def _lo_sweep():
    """(trial, n, k, m, lo LP) of 204 seeded lo LPs, n = 1-2, k = 1-3, up to
    32 x 1024 (tests/lo_sweep.py)."""
    return lo_sweep(1973, 204)


def test_bracket_lo_sweep_matches_highs():
    # the lo sweep against HiGHS, compared only where _lo_vs_highs trusts it
    # (once it reported no optimum on an LP bounded below by 0).
    pytest.importorskip("scipy")
    raised, compared = [], 0
    for trial, n, k, m, lp in _lo_sweep():
        try:
            got, want = _lo_vs_highs(lp)
        except NumericalError:
            raised.append(trial)
            continue
        if want is not None:
            compared += 1
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12), (trial, n, k, m)
    assert raised == []
    assert compared >= 190


def test_tableau_duals_match_a_fresh_basis_solve(monkeypatch):
    # the duals read off the artificials' reduced costs against the route
    # they replaced, w = B^-T c_B solved afresh from the optimal basis, on
    # the lo sweep, k = 0 norm LPs and Markov LPs (every row is kept on
    # these families, so B is square)
    solved = []

    def record(lp):
        sol = solve(lp)
        solved.append((lp, sol))
        return sol

    for *_, lp in _lo_sweep():
        try:
            record(lp)
        except NumericalError:
            pass
    monkeypatch.setattr(ckomega.predual, "solve", record)
    monkeypatch.setattr(ckomega.markov, "solve", record)
    rng = np.random.default_rng(3)
    for trial in range(40):
        m, n = int(rng.integers(2, 12)), 1 + trial % 2
        ctx = NormContext(0, n, (mo.power(0.5), mo.linear())[trial % 2])
        predual_norm_k0(functional([delta(p) for p in rng.uniform(-1, 1, (m, n))], rng.normal(size=m), ctx))
    for n, k in ((1, 1), (1, 3), (2, 1), (2, 2)):
        markov_ratio(markov_probe([0.0] * n, 1.0, k, rng.uniform(-1, 1, (30, n)), resolution=9))
    assert len(solved) > 250
    for lp, sol in solved:
        A, c = lp.lhs_eq, lp.objective
        assert sol.basis.size == lp.n_rows
        fresh = np.linalg.solve(A[:, sol.basis].T, c[sol.basis])
        assert np.max(np.abs(sol.dual_eq - fresh), initial=0.0) <= 1e-9 * np.max(np.abs(fresh), initial=0.0)


def test_bracket_consistent_with_k0_exact_norm():
    # for k=0 delta functionals the lower LP has the same feasible set as the
    # exact norm LP, so lo == exact and hi >= exact
    rng = np.random.default_rng(5)
    om = mo.linear()
    for _ in range(15):
        m = int(rng.integers(1, 5))
        pts = [tuple(p) for p in rng.uniform(-2, 2, (m, 1))]
        g = functional([delta(p) for p in pts], rng.normal(size=m), CTX0)
        exact = predual_norm_k0(g)
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
    one column of the transposed rows each, in the order of _lo_lp, and
    _min_tv_lp's hi."""
    k, n, om = ctx.k, ctx.n, ctx.modulus
    support = g.support()
    mis = multi_indices(n, k)
    m, J = len(support), len(mis)
    idx = {p: i for i, p in enumerate(support)}

    def slot(p, alpha):
        return idx[p] * J + mis.index(alpha)

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
    for i, j in itertools.combinations(range(m), 2):
        p, q = support[i], support[j]
        d = float(np.linalg.norm(np.asarray(p) - np.asarray(q)))
        w = om(d)
        for z in (p, q):
            for alpha in mis:
                row = d_taylor_row(p, alpha, z) - d_taylor_row(q, alpha, z)
                rows += [row, -row]
                rhs += [d ** (k - mi_order(alpha)) * w] * 2
    hi = _min_tv_lp(g, ctx)
    return LinearProgram(np.array(rhs), lhs_eq=np.array(rows).T, rhs_eq=hi.rhs_eq), hi


def _min_tv_lp(g, ctx):
    """The monolithic LP of hi: minimum total variation t = tp - tm over
    the delta atoms on every slot (x_i, alpha) and the difference atoms of
    order k on every pair i < j, built atom by atom from g's atoms."""
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
    columns = list(np.eye(m * J))
    for p, q in itertools.combinations(support, 2):
        w = om(float(np.linalg.norm(np.asarray(p) - np.asarray(q))))
        for alpha in mis:
            if mi_order(alpha) == k:
                col = np.zeros(m * J)
                col[slot(p, alpha)] = 1.0 / w
                col[slot(q, alpha)] = -1.0 / w
                columns.append(col)
    M = np.array(columns).T.reshape(m * J, len(columns))
    return LinearProgram(np.ones(2 * M.shape[1]), lhs_eq=np.hstack([M, -M]), rhs_eq=gamma)


def test_bracket_lps_match_taylor_row_loop():
    # lo's LP against the row loop, and hi against the monolithic LP's optimum
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
        got, (want, want_hi) = _lo_lp(g), _loop_bracket_lps(g, ctx)
        for a, b in ((got.lhs_eq, want.lhs_eq), (got.objective, want.objective), (got.rhs_eq, want.rhs_eq)):
            assert a.shape == b.shape
            if (n, k) == (1, 1):  # the shape the duality workload uses
                assert np.array_equal(a, b)
            else:
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)
        a, b = solve(got).optimum, solve(want).optimum
        assert a == b if (n, k) == (1, 1) else a == pytest.approx(b, rel=1e-12)
        assert predual_norm_bracket(g)[1] == pytest.approx(solve(want_hi).optimum, rel=1e-12)


def _bracket_case(rng, trial):
    """(ctx, g) of the hi differential: n = 1-3, k = 0-3 and the four moduli
    in turn; every fifth g is empty and every fifth has only deltas of
    order < k (empty as well at k = 0), the rest a delta of random order per
    point and up to three difference atoms of order k."""
    n, k, om = 1 + trial % 3, (trial // 3) % 4, K0_MODULI[(trial // 12) % 4]
    ctx, mis = NormContext(k, n, om), multi_indices(n, k)
    m = int(rng.integers(1, max(3, 60 // len(mis)) + 1))
    pts = rng.uniform(-1, 1, (m, n))
    layout = trial % 5
    if layout == 0:
        return ctx, functional([], [], ctx)
    low = [a for a in mis if mi_order(a) < k]
    if layout == 1:
        atoms = [delta(p, low[rng.integers(len(low))]) for p in pts] if low else []
    else:
        top = [a for a in mis if mi_order(a) == k]
        atoms = [delta(p, mis[rng.integers(len(mis))]) for p in pts]
        for _ in range(int(rng.integers(0, 4)) if m > 1 else 0):
            i, j = rng.choice(m, 2, replace=False)
            atoms.append(difference(pts[i], pts[j], top[rng.integers(len(top))]))
    return ctx, functional(atoms, rng.normal(size=len(atoms)), ctx)


def test_bracket_hi_matches_the_monolithic_min_tv_lp(monkeypatch):
    # hi, summed from per-order transportation problems, against the one
    # min-total-variation LP over every delta and top-order difference atom.
    # lo is replaced by an empty LP, so the sweep builds and solves hi alone
    # (lo has its own sweeps: _lo_sweep and test_bracket_lps_match_taylor_row_loop)
    rng = np.random.default_rng(2503)
    layouts = collections.Counter()
    cases = [_bracket_case(rng, trial) for trial in range(300)]
    for trial, (ctx, g) in enumerate(cases):
        if ctx.k == 0:
            assert predual_norm_bracket(g)[1] == predual_norm_k0(g), trial
    monkeypatch.setattr(ckomega.predual, "_lo_lp", lambda g: LinearProgram(np.zeros(0), np.zeros((0, 0)), np.zeros(0)))
    for trial, (ctx, g) in enumerate(cases):
        hi = _bracket_solutions(g)[1]
        assert hi == pytest.approx(solve(_min_tv_lp(g, ctx)).optimum, rel=1e-12), trial
        charged = g.lowering[1].any(axis=0)
        top = np.array([mi_order(a) == ctx.k for a in multi_indices(ctx.n, ctx.k)])
        layouts["empty" if not charged.any() else "lower" if not charged[top].any() else "top"] += 1
    assert min(layouts.values()) >= 50, layouts


def test_bracket_rejects_a_table_breaking_the_axioms_before_solving(monkeypatch):
    # the same InputError as the k = 0 norm, from _transport's one check
    om = mo.table([(0.5, 0.3), (1.0, 1.2), (3.0, 2.5)])
    with pytest.raises(InputError) as k0:
        predual_norm_k0(functional([delta([0.0]), delta([0.7])], [1.0, -2.0], NormContext(0, 1, om)))
    solved = []
    monkeypatch.setattr(ckomega.predual, "solve", lambda lp: solved.append(lp))
    ctx = NormContext(1, 1, om)
    g = functional([delta([0.0], [0]), difference([0.0], [0.7], [1])], [1.0, -2.0], ctx)
    with pytest.raises(InputError) as bracket:
        predual_norm_bracket(g)
    assert str(bracket.value) == str(k0.value)
    assert "t/omega(t) nondecreasing" in str(k0.value)
    assert solved == []


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


@pytest.mark.parametrize("d", [1.5, 2.0, 0, None])
def test_finiteness_d_is_an_integer(d):
    with pytest.raises(InputError, match="d must be an integer >= 1"):
        finiteness_gap(field_from_data([[0.0], [1.0]], [0.0, 1.0]), d, CTX0)


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
            sub = list(combo)
            v = whitney_lambda(WhitneyField(field.points[sub], field.coeffs[sub], ctx.k, ctx.n), ctx).lam
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
