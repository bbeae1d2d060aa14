"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they pass;
tolerances and runtime budgets are pinned here, not configurable.
"""

import itertools
import math
import time

import numpy as np
import pytest
from free_lp import solve_free

from ckomega import modulus as mo
from ckomega.extension import hermite_extension, mcshane_extension
from ckomega.fields import (
    NormContext,
    field_from_data,
    field_from_jets,
    jet,
    mi_order,
    multi_indices,
)
from ckomega.jackson import (
    fit_trig_poly,
    jackson_smooth_1d,
    kernel_normalize,
    length_scale,
    lattice_period,
    periodize,
    smooth_EN,
    weakstar_check,
)
from ckomega.markov import markov_ratio, probe
from ckomega.predual import (
    delta,
    finiteness_gap,
    functional,
    predual_norm_k0,
    predual_norm_k0_certificate,
)
from ckomega.quadrature import periodic_nodes
from ckomega.simplex import OPTIMAL
from ckomega.whitney import faa_di_bruno_pullback, whitney_lambda


def _line(idx, name, body):
    try:
        detail = body()
    except BaseException:
        print(f"ACCEPTANCE {idx:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {idx:02d} {name}: PASS" + (f" ({detail})" if detail else ""))


def _datasets():
    """The shared random data sets of criteria 1 and 2."""
    rng = np.random.default_rng(20260809)
    out = []
    moduli = [mo.linear(), mo.power(0.5)]
    for i in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 26))
        pts = rng.uniform(-2.0, 2.0, (m, n))
        while True:
            d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
            np.fill_diagonal(d2, np.inf)
            if d2.min() > 1e-6:
                break
            pts = rng.uniform(-2.0, 2.0, (m, n))
        vals = rng.normal(size=m)
        out.append((field_from_data(pts, vals), moduli[i % 2]))
    return out


@pytest.fixture(scope="module")
def datasets():
    return _datasets()


def test_criterion_01_k0_finiteness_exactness(datasets):
    def body():
        t0 = time.perf_counter()
        worst = 0.0
        for fld, om in datasets:
            ctx = NormContext(0, fld.n, om)
            rep = finiteness_gap(fld, 2, ctx)
            worst = max(worst, abs(rep.ratio - 1.0))
            assert abs(rep.ratio - 1.0) <= 1e-9
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
        return f"max |ratio-1| = {worst:.1e}, {elapsed:.2f}s"

    _line(1, "k0 finiteness exactness (d=2, c=1)", body)


def test_criterion_02_mcshane_norm_preservation(datasets):
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        worst = -np.inf
        for fld, om in datasets:
            ctx = NormContext(0, fld.n, om)
            trace = whitney_lambda(fld, ctx).lam
            ext = mcshane_extension(fld, om)
            Q = rng.uniform(-3.0, 3.0, (1000, fld.n))
            vq = ext(Q)
            sup = float(np.max(np.abs(vq)))
            ii = rng.integers(0, 1000, 2000)
            jj = rng.integers(0, 1000, 2000)
            keep = ii != jj
            d = np.linalg.norm(Q[ii[keep]] - Q[jj[keep]], axis=1)
            semi = float(np.max(np.abs(vq[ii[keep]] - vq[jj[keep]]) / om(d)))
            worst = max(worst, max(sup, semi) - trace)
            assert max(sup, semi) <= trace + 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
        return f"max norm excess = {worst:.1e}, {elapsed:.2f}s"

    _line(2, "McShane norm preservation on 1e3-point grids", body)


def test_criterion_03_jackson_kernel_normalization():
    def body():
        for N in (2, 4, 8, 16, 32, 64, 128, 256):
            k = kernel_normalize(N)
            t, w = periodic_nodes(4 * N + 64)
            vals = k(t)
            assert np.all(vals >= 0.0)
            assert abs(w * np.sum(vals) - 1.0) <= 1e-8
        g2 = kernel_normalize(2).gamma
        assert abs(g2 - 1.0 / (2.0 * math.pi)) <= 1e-10
        return f"gamma_2 dev = {abs(g2 - 1 / (2 * math.pi)):.1e}"

    _line(3, "Jackson kernel unit mass, positivity, gamma_2", body)


def test_criterion_04_degree_bound():
    def body():
        fns = [
            lambda Y: np.sin(Y[:, 0]),
            lambda Y: np.exp(np.sin(0.7 * Y[:, 0])),
            lambda Y: 1.0 / (2.0 + np.cos(Y[:, 0])),
        ]
        ell = 2
        lam = length_scale(ell, 1)
        worst = 0.0
        for N in (8, 16, 32):
            for f in fns:
                tp = fit_trig_poly(
                    lambda U: smooth_EN(f, ell, N, lam * U), 2 * N, n=1, scale=lam
                )
                rel = tp.tail_max(N) / tp.max_coeff()
                worst = max(worst, rel)
                assert rel < 1e-10
        return f"max relative tail = {worst:.1e}"

    _line(4, "degree bound of E_N (coefficients beyond N)", body)


def test_criterion_05_jackson_error_law():
    def body():
        xs = np.linspace(-math.pi, math.pi, 2049)
        ladder = (8, 16, 32, 64, 128)
        details = []
        for name, f in (("sin", np.sin), ("|sin|", lambda x: np.abs(np.sin(x)))):
            errs = []
            for N in ladder:
                e = float(np.max(np.abs(jackson_smooth_1d(f, N, xs, quad_target=16384) - f(xs))))
                errs.append(e)
            assert all(b < a for a, b in zip(errs, errs[1:])), f"{name}: not monotone"
            products = [e * N for e, N in zip(errs, ladder)]
            assert max(products) <= 2.0 * products[0], f"{name}: c_N*N grew beyond the band"
            details.append(f"{name}: err*N in [{min(products):.3f}, {max(products):.3f}]")
        return "; ".join(details)

    _line(5, "Jackson error law (bounded c_N*N, monotone)", body)


def test_criterion_06_periodization_identities():
    def body():
        rng = np.random.default_rng(11)
        checked = 0
        for n, ell in ((1, 2), (2, 2), (3, 1)):
            f = lambda Y: np.sin(Y[:, 0]) + np.prod(np.cos(0.4 * Y), axis=1)
            res = {1: 101, 2: 17, 3: 9}[n]
            axes = [np.linspace(-ell, ell, res)] * n
            mesh = np.meshgrid(*axes, indexing="ij")
            X = np.stack([g.ravel() for g in mesh], axis=1)
            assert np.array_equal(periodize(f, ell, X), f(X))  # zero tolerance
            L = lattice_period(ell, n)
            y0 = rng.uniform(-0.49 * L, 0.49 * L, (334, n))
            mvec = rng.integers(-4, 5, (334, n)).astype(float)
            u = y0 + mvec * L
            assert np.array_equal(periodize(f, ell, u), periodize(f, ell, u - mvec * L))
            checked += 334
        assert checked >= 1000
        return f"{checked} random periodicity points, bitwise"

    _line(6, "periodization identities (exact, zero tolerance)", body)


def _vertex_oracle_k0(points, coeffs, om):
    m = len(points)
    rows, rhs = [], []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        rows += [e, -e]
        rhs += [1.0, 1.0]
    for i in range(m):
        for j in range(i + 1, m):
            d = float(np.linalg.norm(np.asarray(points[i]) - np.asarray(points[j])))
            e = np.zeros(m)
            e[i], e[j] = 1.0, -1.0
            rows += [e, -e]
            rhs += [om(d), om(d)]
    A, b, c = np.array(rows), np.array(rhs), np.asarray(coeffs)
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


def test_criterion_07_predual_duality_finite_scale():
    def body():
        rng = np.random.default_rng(123)
        worst_lp = 0.0
        worst_pair = 0.0
        for trial in range(60):
            n = int(rng.integers(1, 3))
            m = int(rng.integers(1, 5))
            pts = rng.uniform(-2, 2, (m, n))
            while m > 1:
                d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
                np.fill_diagonal(d2, np.inf)
                if d2.min() > 1e-3:
                    break
                pts = rng.uniform(-2, 2, (m, n))
            coeffs = rng.normal(size=m)
            om = mo.linear() if trial % 2 else mo.power(0.5)
            ctx = NormContext(0, n, om)
            g = functional([delta(p) for p in pts], coeffs, ctx)
            value, support, u = predual_norm_k0_certificate(g, om)
            oracle = _vertex_oracle_k0([tuple(p) for p in pts], coeffs, om)
            worst_lp = max(worst_lp, abs(value - oracle))
            assert abs(value - oracle) <= 1e-8
            ext = mcshane_extension(field_from_data(np.array(support), u), om)
            paired = sum(
                c * ext(np.asarray(a.x).reshape(1, -1))[0] for a, c in zip(g.atoms, g.coeffs)
            )
            worst_pair = max(worst_pair, abs(paired - value))
            assert abs(paired - value) <= 1e-8
        return f"max LP dev = {worst_lp:.1e}, max pairing dev = {worst_pair:.1e}"

    _line(7, "predual duality vs vertex enumeration + McShane pairing", body)


def test_criterion_08_atom_norms():
    def body():
        rng = np.random.default_rng(321)
        ctx = NormContext(0, 1, mo.linear())
        assert predual_norm_k0(functional([delta([0.7])], [1.0], ctx)) == 1.0
        eq_checked = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            x = rng.uniform(-3, 3, n)
            y = x + rng.uniform(-4, 4, n)
            while np.linalg.norm(x - y) < 1e-6:
                y = x + rng.uniform(-4, 4, n)
            om = [mo.linear(), mo.power(0.5), mo.capped(1.0, 1.5)][int(rng.integers(3))]
            cx = NormContext(0, n, om)
            d = float(np.linalg.norm(x - y))
            w = om(d)
            g = functional([delta(x), delta(y)], [1.0 / w, -1.0 / w], cx)
            val = predual_norm_k0(g, om)
            assert val <= 1.0 + 1e-9
            if w <= 2.0:
                assert abs(val - 1.0) <= 1e-9
                eq_checked += 1
        assert eq_checked >= 10
        return f"{eq_checked}/100 triples in the equality regime"

    _line(8, "atom norms (delta = 1 exactly, differences <= 1)", body)


def test_criterion_09_markov_extremal_values():
    def body():
        pr = probe([0.0], 1.0, 1, np.linspace(0, 1, 65).reshape(-1, 1), resolution=65)
        r = markov_ratio(pr)
        assert abs(r.value - 3.0) <= 1e-2
        pr_full = probe([0.0], 1.0, 1, np.linspace(-1, 1, 65).reshape(-1, 1), resolution=65)
        r_full = markov_ratio(pr_full)
        assert abs(r_full.value - 1.0) <= 1e-9
        r_iso = markov_ratio(probe([0.0], 1.0, 1, np.array([[0.0]]), resolution=9))
        assert r_iso.capped
        return f"chebyshev = {r.value:.4f}, full cube = {r_full.value:.10f}, isolated = CAPPED"

    _line(9, "Markov extremal ratios (3, 1, CAPPED)", body)


def _fd_plain(fn, x, alpha, h):
    alpha = tuple(alpha)
    if sum(alpha) == 0:
        return fn(x)
    i = next(idx for idx, a in enumerate(alpha) if a > 0)
    lower = tuple(a - (1 if idx == i else 0) for idx, a in enumerate(alpha))
    e = np.zeros(len(x))
    e[i] = h
    return (_fd_plain(fn, x + e, lower, h) - _fd_plain(fn, x - e, lower, h)) / (2 * h)


def _fd(fn, x, alpha, h=1e-2):
    return (4.0 * _fd_plain(fn, x, alpha, h / 2) - _fd_plain(fn, x, alpha, h)) / 3.0


def _random_polynomial(rng, n, k):
    # damp high-degree terms so the finite-difference oracle's truncation
    # error stays far below the 1e-5 acceptance tolerance
    mis = multi_indices(n, k + 1)
    coeffs = {a: float(rng.normal()) * 0.5 ** sum(a) / math.factorial(sum(a)) for a in mis}

    def fn(z):
        z = np.asarray(z)
        return sum(c * float(np.prod(z ** np.asarray(a))) for a, c in coeffs.items())

    def d(alpha, z):
        total = 0.0
        for beta, c in coeffs.items():
            rem = tuple(b - a for a, b in zip(alpha, beta))
            if any(r < 0 for r in rem):
                continue
            fac = 1.0
            for b, a in zip(beta, alpha):
                fac *= math.factorial(b) / math.factorial(b - a)
            total += c * fac * float(np.prod(np.asarray(z) ** np.asarray(rem)))
        return total

    return fn, d


def test_criterion_10_faa_di_bruno_vs_finite_differences():
    def body():
        rng = np.random.default_rng(55)
        k = 3
        pairs = 0
        worst = 0.0
        while pairs < 20:
            n = int(rng.integers(1, 3))
            x = rng.uniform(-0.5, 0.5, n)
            h_fns, h_ds = zip(*[_random_polynomial(rng, n, k) for _ in range(n)])
            Hx = np.array([h(x) for h in h_fns])
            f_fn, f_d = _random_polynomial(rng, n, k)
            mis = multi_indices(n, k)
            f_jet = jet(Hx, [f_d(a, Hx) for a in mis], k)
            h_jets = [jet(x, [hd(a, x) for a in mis], k) for hd in h_ds]

            def composed(z):
                return f_fn(np.array([h(z) for h in h_fns]))

            for alpha in mis:
                if mi_order(alpha) == 0:
                    continue
                got = faa_di_bruno_pullback(f_jet, h_jets, alpha)
                want = _fd(composed, x, alpha, h=5e-3)
                denom = max(abs(want), 1e-1)
                worst = max(worst, abs(got - want) / denom)
                assert abs(got - want) / denom <= 1e-5
            pairs += 1
        return f"20 pairs, max relative error = {worst:.1e}"

    _line(10, "higher-order chain rule vs finite differences", body)


def test_criterion_11_weakstar_checker_verdicts():
    def body():
        ctx = NormContext(0, 1, mo.linear())
        probes = np.linspace(-2, 2, 7).reshape(-1, 1)

        def sin_d(a, X):
            return np.sin(X[:, 0] + a[0] * math.pi / 2.0)

        v1 = weakstar_check([sin_d] * 10, ctx, probes, norm_cap=2.0)
        assert v1.converged

        fns2 = [(lambda i: lambda a, X: np.sin(X[:, 0]) / i)(i) for i in range(1, 61)]
        v2 = weakstar_check(fns2, ctx, probes, norm_cap=2.0, tol=0.02)
        assert v2.converged

        fns3 = [(lambda i: lambda a, X: np.sin(i * X[:, 0]))(i) for i in range(1, 21)]
        v3 = weakstar_check(fns3, ctx, probes, norm_cap=10.0, tol=0.02)
        assert not v3.converged and v3.failing_condition == "norm_bound"
        return "verdicts (converges, converges, fails condition (a))"

    _line(11, "weak* convergence checker example verdicts", body)


def test_criterion_12_property_suites_1000_trials():
    def body():
        rng = np.random.default_rng(424242)
        om = mo.linear()
        gap_checks = 0

        # whitney_lambda norm axioms, 1000 trials
        for _ in range(1000):
            k = int(rng.integers(0, 3))
            n = int(rng.integers(1, 3))
            m = int(rng.integers(2, 5))
            pts = rng.uniform(-2, 2, (m, n))
            while True:
                d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
                np.fill_diagonal(d2, np.inf)
                if d2.min() > 1e-4:
                    break
                pts = rng.uniform(-2, 2, (m, n))
            J = len(multi_indices(n, k))
            f1 = field_from_jets([jet(p, rng.normal(size=J), k) for p in pts])
            f2 = field_from_jets([jet(p, rng.normal(size=J), k) for p in pts])
            ctx = NormContext(k, n, om)
            s = float(rng.normal())
            l1, l2 = whitney_lambda(f1, ctx).lam, whitney_lambda(f2, ctx).lam
            assert whitney_lambda(f1.scale(s), ctx).lam == pytest.approx(
                abs(s) * l1, rel=1e-9, abs=1e-12
            )
            # relative slack: lambdas blow up like dist^-(k+1) for close pairs
            assert whitney_lambda(f1.add(f2), ctx).lam <= (l1 + l2) * (1 + 1e-12) + 1e-10

        # predual_norm_k0 norm axioms, 1000 trials (with the solver's duality
        # certificates exercised on every solve)
        ctx0 = NormContext(0, 1, om)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            pts = [tuple(p) for p in rng.uniform(-2, 2, (m, 1))]
            c1 = rng.normal(size=m)
            c2 = rng.normal(size=m)
            g1 = functional([delta(p) for p in pts], c1, ctx0)
            g2 = functional([delta(p) for p in pts], c2, ctx0)
            s = float(rng.normal())
            v1, v2 = predual_norm_k0(g1, om), predual_norm_k0(g2, om)
            assert predual_norm_k0(g1.scale(s), om) == pytest.approx(
                abs(s) * v1, abs=1e-9
            )
            assert predual_norm_k0(g1.add(g2), om) <= v1 + v2 + 1e-9

        # LP duality gap <= 1e-7, 1000 random LPs
        for _ in range(1000):
            nv = int(rng.integers(2, 4))
            A = np.vstack([np.eye(nv), -np.eye(nv), rng.normal(size=(2, nv))])
            x0 = rng.uniform(-1, 1, nv)
            b = np.concatenate([np.full(2 * nv, 2.0), A[2 * nv :] @ x0 + rng.uniform(0.1, 1, 2)])
            sol = solve_free(rng.normal(size=nv), lhs_ineq=A, rhs_ineq=b)
            assert sol.status == OPTIMAL
            assert sol.duality_gap <= 1e-7 * (1.0 + abs(sol.optimum))
            gap_checks += 1

        # subset-sup monotonicity, 1000 trials
        for _ in range(1000):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 3))
            pts = rng.uniform(-2, 2, (m, n))
            while True:
                d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
                np.fill_diagonal(d2, np.inf)
                if d2.min() > 1e-4:
                    break
                pts = rng.uniform(-2, 2, (m, n))
            fld = field_from_data(pts, rng.normal(size=m))
            ctx = NormContext(0, n, om)
            r1 = finiteness_gap(fld, 1, ctx)
            r2 = finiteness_gap(fld, 2, ctx)
            assert r1.subset_sup <= r2.subset_sup + 1e-15
            assert r2.subset_sup <= r2.full  # left inclusion, exact

        # hermite linearity, 1000 trials
        for _ in range(1000):
            k = int(rng.integers(0, 4))
            m = int(rng.integers(1, 5))
            pts = np.sort(rng.uniform(-2, 2, m))
            while m > 1 and np.min(np.diff(pts)) < 1e-2:
                pts = np.sort(rng.uniform(-2, 2, m))
            j1 = [jet([p], rng.normal(size=k + 1), k) for p in pts]
            j2 = [jet([p], rng.normal(size=k + 1), k) for p in pts]
            f1, f2 = field_from_jets(j1), field_from_jets(j2)
            a, b = float(rng.normal()), float(rng.normal())
            xs = rng.uniform(-3.5, 3.5, 3)
            lhs = hermite_extension(f1.scale(a).add(f2.scale(b)))(xs)
            rhs = a * hermite_extension(f1)(xs) + b * hermite_extension(f2)(xs)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) / scale <= 1e-10

        return f"5 x 1000 trials, {gap_checks} duality-gap certificates"

    _line(12, "randomized property suites (fixed seed)", body)
