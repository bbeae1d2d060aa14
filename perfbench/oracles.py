"""Independent reference answers for the benchmark's task kinds.

Each oracle recomputes a task's answer by a different route than the
library: brute-force NumPy sweeps for the pairwise seminorm and the McShane
envelopes, a dense linear solve for the Hermite gap polynomials, HiGHS
(through scipy, benchmark-side only) for the predual LPs, Chebyshev values
for the Markov ratios, the closed-form Fourier coefficients of the Jackson
kernel for trigonometric polynomials, and a finer periodic rule with the
closed-form kernel mass for the tensor smoothing.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# pairwise seminorm (any k), McShane envelopes


def lambda_ref(pts, coeffs, mis, k: int, omega) -> tuple[float, float]:
    """(sup part, oscillation part) of the pairwise seminorm: max |c| and the
    max over pairs, z in {x, y}, alpha of
    |D^alpha (T_x - T_y)(z)| / (d^(k-|alpha|) omega(d)), built one
    (alpha, beta) term at a time over all pairs."""
    pts = np.asarray(pts, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    sup = float(np.max(np.abs(coeffs)))
    lam = 0.0
    m = len(pts)
    if m < 2:
        return sup, lam
    ii, jj = np.triu_indices(m, 1)
    d = np.sqrt(np.sum((pts[ii] - pts[jj]) ** 2, axis=1))
    om = np.asarray(omega(d), dtype=float)
    for a_idx, alpha in enumerate(mis):
        # D^alpha T_j at x_i and D^alpha T_i at x_j
        tj_at_i = np.zeros(len(ii))
        ti_at_j = np.zeros(len(ii))
        for b_idx, beta in enumerate(mis):
            rem = [b - a for a, b in zip(alpha, beta)]
            if min(rem) < 0:
                continue
            fact = float(np.prod([math.factorial(r) for r in rem]))
            mono_fwd = np.prod((pts[ii] - pts[jj]) ** np.asarray(rem), axis=1) / fact
            mono_bwd = np.prod((pts[jj] - pts[ii]) ** np.asarray(rem), axis=1) / fact
            tj_at_i += coeffs[jj, b_idx] * mono_fwd
            ti_at_j += coeffs[ii, b_idx] * mono_bwd
        den = d ** (k - sum(alpha)) * om
        lam = max(lam, float(np.max(np.abs(coeffs[ii, a_idx] - tj_at_i) / den)),
                  float(np.max(np.abs(ti_at_j - coeffs[jj, a_idx]) / den)))
    return sup, lam


def mcshane_envelopes(pts, vals, lam: float, omega, Q):
    """(lower, upper, hit) for the clamped McShane envelopes at queries Q:
    lower/upper clamp max(f - lam w(d)) and min(f + lam w(d)) to the data's
    sup bound; hit is the index of the data point a query equals, or -1."""
    pts = np.asarray(pts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    bound = float(np.max(np.abs(vals)))
    lower = np.empty(len(Q))
    upper = np.empty(len(Q))
    hit = np.full(len(Q), -1)
    for s in range(0, len(Q), 256):
        q = Q[s:s + 256]
        d = np.sqrt(np.sum((q[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        zero = d == 0.0
        any_zero = zero.any(axis=1)
        hit[s:s + 256][any_zero] = np.argmax(zero[any_zero], axis=1)
        om = np.asarray(omega(np.where(zero, 1.0, d)), dtype=float)
        lower[s:s + 256] = np.max(vals[None, :] - lam * om, axis=1)
        upper[s:s + 256] = np.min(vals[None, :] + lam * om, axis=1)
    return np.clip(lower, -bound, bound), np.clip(upper, -bound, bound), hit


# ---------------------------------------------------------------------------
# 1D Hermite gap polynomials


def hermite_jet_ref(knots, jets, k: int, x: float) -> np.ndarray:
    """Derivatives 0..k at x (inside the knot hull) of the degree-(2k+1)
    polynomial matching the jets of the two knots around x, from a dense
    confluent Vandermonde solve. ``knots`` sorted, ``jets[i]`` the
    derivative list 0..k at knots[i]."""
    knots = np.asarray(knots, dtype=float)
    pos = int(np.searchsorted(knots, x))
    if pos < len(knots) and knots[pos] == x:
        return np.asarray(jets[pos], dtype=float)
    a, b = knots[pos - 1], knots[pos]
    deg = 2 * k + 1
    rows, rhs = [], []
    for t, jet in ((0.0, jets[pos - 1]), (b - a, jets[pos])):
        for r in range(k + 1):
            rows.append([math.perm(p, r) * t ** (p - r) if p >= r else 0.0 for p in range(deg + 1)])
            rhs.append(jet[r])
    coef = np.linalg.solve(np.array(rows), np.array(rhs))
    t = x - a
    return np.array([sum(math.perm(p, r) * coef[p] * t ** (p - r) for p in range(r, deg + 1))
                     for r in range(k + 1)])


# ---------------------------------------------------------------------------
# predual LPs through HiGHS


def _linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=None) -> float:
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    if res.status != 0:
        raise ArithmeticError(f"HiGHS status {res.status}: {res.message}")
    return float(res.fun)


def _pair_rows(m: int):
    return [(i, j) for i in range(m) for j in range(i + 1, m)]


def predual_k0_ref(points, coefs, omega) -> float:
    """max sum c_i u_i over |u_i| <= 1, |u_i - u_j| <= omega(|x_i - x_j|)."""
    support = sorted({tuple(p) for p in points})
    index = {p: i for i, p in enumerate(support)}
    m = len(support)
    c = np.zeros(m)
    for p, v in zip(points, coefs):
        c[index[tuple(p)]] += v
    rows, rhs = [], []
    P = np.asarray(support)
    for i, j in _pair_rows(m):
        w = float(omega(float(np.linalg.norm(P[i] - P[j]))))
        e = np.zeros(m)
        e[i], e[j] = 1.0, -1.0
        rows += [e, -e]
        rhs += [w, w]
    A = np.array(rows) if rows else None
    b = np.array(rhs) if rows else None
    return -_linprog(-c, A, b, bounds=[(-1.0, 1.0)] * m)


def predual_bracket_ref(atoms, mis, k: int, omega):
    """(lo, hi) of the k >= 1 predual bracket. ``atoms`` holds tuples
    (x, y or None, alpha, coef): lo maximizes the pairing over jets on the
    support with the pairwise Taylor constraints at level one; hi is the
    least total variation of a decomposition over delta atoms at every
    (point, alpha) and difference atoms at every pair and |alpha| = k."""
    support = sorted({tuple(a[0]) for a in atoms} | {tuple(a[1]) for a in atoms if a[1] is not None})
    m, J = len(support), len(mis)
    slot = {(p, alpha): i * J + a for i, p in enumerate(support) for a, alpha in enumerate(mis)}

    def dist(p, q):
        return float(np.linalg.norm(np.subtract(p, q)))

    gamma = np.zeros(m * J)
    for x, y, alpha, coef in atoms:
        if y is None:
            gamma[slot[tuple(x), alpha]] += coef
        else:
            w = float(omega(dist(x, y)))
            gamma[slot[tuple(x), alpha]] += coef / w
            gamma[slot[tuple(y), alpha]] -= coef / w

    def taylor_row(p, alpha, z):
        row = np.zeros(m * J)
        dz = np.subtract(z, p)
        for beta in mis:
            rem = [b - a for a, b in zip(alpha, beta)]
            if min(rem) < 0:
                continue
            fact = float(np.prod([math.factorial(r) for r in rem]))
            row[slot[p, beta]] = float(np.prod(dz ** np.asarray(rem))) / fact
        return row

    rows, rhs = [], []
    for i, j in _pair_rows(m):
        p, q = support[i], support[j]
        d = dist(p, q)
        w = float(omega(d))
        for z in (p, q):
            for alpha in mis:
                row = taylor_row(p, alpha, z) - taylor_row(q, alpha, z)
                bound = d ** (k - sum(alpha)) * w
                rows += [row, -row]
                rhs += [bound, bound]
    A = np.array(rows) if rows else None
    b = np.array(rhs) if rows else None
    lo = -_linprog(-gamma, A, b, bounds=[(-1.0, 1.0)] * (m * J))

    cols = [np.eye(m * J)[s] for s in range(m * J)]
    top = [alpha for alpha in mis if sum(alpha) == k]
    for i, j in _pair_rows(m):
        p, q = support[i], support[j]
        w = float(omega(dist(p, q)))
        for alpha in top:
            col = np.zeros(m * J)
            col[slot[p, alpha]] = 1.0 / w
            col[slot[q, alpha]] = -1.0 / w
            cols.append(col)
    M = np.array(cols).T
    na = M.shape[1]
    hi = _linprog(np.ones(2 * na), A_eq=np.hstack([M, -M]), b_eq=gamma,
                  bounds=[(0.0, None)] * (2 * na))
    return lo, hi


# ---------------------------------------------------------------------------
# Markov extremal values


def chebyshev_T(k: int, x: float) -> float:
    """T_k(x) by the three-term recurrence."""
    a, b = 1.0, x
    if k == 0:
        return a
    for _ in range(k - 1):
        a, b = b, 2.0 * x * b - a
    return b


# ---------------------------------------------------------------------------
# Jackson kernel


def jackson_multipliers(N: int) -> np.ndarray:
    """c_q / c_0 for q = 0..2M, M = floor(N/2): the Fourier coefficients of
    the normalized kernel (sin(Mt/2)/sin(t/2))^4, the square of the Fejer
    sum with coefficients M - |j| for |j| < M."""
    M = N // 2
    fejer = np.array([M - abs(j) for j in range(-M + 1, M)], dtype=float)
    full = np.convolve(fejer, fejer)  # frequencies -2M+2 .. 2M-2
    centre = len(full) // 2
    out = np.zeros(2 * M + 1)
    tail = full[centre:]
    out[: tail.size] = tail
    return out / tail[0]


def jackson_kernel_weights(N: int, nodes: int):
    """Nodes t and weights J_N(t) * 2 pi / nodes on the uniform periodic
    rule, with the kernel normalized by its closed-form mass
    2 pi M (2 M^2 + 1) / 3."""
    M = N // 2
    t = -np.pi + 2.0 * np.pi * np.arange(nodes) / nodes
    s = np.sin(0.5 * t)
    safe = np.abs(s) > 1e-12
    ratio = np.full(nodes, float(M))
    ratio[safe] = np.sin(0.5 * M * t[safe]) / s[safe]
    mass = 2.0 * math.pi * M * (2.0 * M * M + 1.0) / 3.0
    return t, ratio**4 / mass * (2.0 * np.pi / nodes)


def smooth_EN_ref(f, ell: int, N: int, X, nodes: int, rho) -> np.ndarray:
    """(E_N f_ell)(x) on the tensor periodic rule with ``nodes`` per axis:
    sum_t f_ell(x - lambda t) prod J_N(t_i) w, lambda = 4 ell sqrt(n)/pi,
    f_ell = rho * f reduced to the cell of period 8 ell sqrt(n)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n = X.shape[1]
    t, w = jackson_kernel_weights(N, nodes)
    grids = np.meshgrid(*([t] * n), indexing="ij")
    T = np.stack([g.ravel() for g in grids], axis=1)
    W = np.prod(np.stack([g.ravel() for g in np.meshgrid(*([w] * n), indexing="ij")], axis=1), axis=1)
    lam = 4.0 * ell * math.sqrt(n) / math.pi
    period = 8.0 * ell * math.sqrt(n)
    out = np.empty(len(X))
    step = max(1, 200_000 // len(T))
    for s in range(0, len(X), step):
        Y = X[s:s + step, None, :] - lam * T[None, :, :]
        Y = (Y - period * np.round(Y / period)).reshape(-1, n)
        vals = (rho(Y) * f(Y)).reshape(-1, len(T))
        out[s:s + step] = vals @ W
    return out


def trig_derivative(g, period: float, degree: int, order: int, xs) -> np.ndarray:
    """order-th derivative at xs of g, a trigonometric polynomial of the
    given period and degree, from 4 * degree + 1 uniform samples."""
    K = 4 * degree + 1
    coeffs = np.fft.fft(g(period * np.arange(K) / K)) / K
    freq = 2.0 * np.pi * np.fft.fftfreq(K, d=1.0 / K) / period
    xs = np.asarray(xs, dtype=float)
    return np.real(np.exp(1j * np.outer(xs, freq)) @ (coeffs * (1j * freq) ** order))


def sampled_norm_k0(values, x_vals, y_vals, dists, omega) -> float:
    """max(sup |g| on the grid, max |g(x) - g(y)| / omega(|x - y|))."""
    semi = float(np.max(np.abs(x_vals - y_vals) / omega(dists))) if len(dists) else 0.0
    return max(float(np.max(np.abs(values))), semi)
