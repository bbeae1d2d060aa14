"""The one sampled-norm routine behind ck_norm_estimate, error_report and
weakstar_check: a differential test against the sampling it replaced, call
counts, and the table of bad samples that must fail before any oracle call."""

import math

import numpy as np
import pytest

from ckomega import modulus as mo
from ckomega.errors import InputError
from ckomega.fields import NormContext, _distances, multi_indices
from ckomega.jackson import error_report, finite_rank_LNN, periodized_derivative, weakstar_check
from ckomega.whitney import ck_norm_estimate

MODULI = (
    mo.linear(),
    mo.power(0.5),
    mo.capped(0.7, 0.5),
    mo.table([(0.5, 0.6), (1.0, 0.9), (3.0, 1.5)]),
)
SEEDS = range(36)  # n = 1 + s % 3, k = (s // 3) % 3, modulus s % 4
ELL, N = 1, 4  # error_report on the default lattice


def _trig(rng, n):
    """Derivative oracle of c sin(a.x + b): D^alpha = c a^alpha sin(a.x + b +
    |alpha| pi/2). The phase is summed coordinate by coordinate, so each value
    depends on its own row only, whatever rows it is evaluated with."""
    a, b, c = rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.5, 2.0)

    def oracle(alpha, P):
        P = np.asarray(P, dtype=float)
        phase = np.full(P.shape[0], b + sum(alpha) * math.pi / 2)
        for i in range(n):
            phase += P[:, i] * a[i]
        return c * math.prod(a[i] ** alpha[i] for i in range(n)) * np.sin(phase)

    return oracle


def instance(seed):
    """ctx, oracle, grid, pairs (None on odd seeds: the entry's default) for
    a seed; every point lies in error_report's fundamental cell."""
    rng = np.random.default_rng(seed)
    n, k = 1 + seed % 3, (seed // 3) % 3
    ctx = NormContext(k, n, MODULI[seed % 4])
    grid = rng.uniform(-2.0 * ELL, 2.0 * ELL, (int(rng.integers(2, 9)), n))
    pairs = None
    if seed % 2 == 0:
        ends = rng.uniform(-2.0 * ELL, 2.0 * ELL, (int(rng.integers(0, 6)), 2, n))
        pairs = [(x, y) for x, y in ends]
    return ctx, _trig(rng, n), grid, pairs


# ---------------------------------------------------------------------------
# the sampling the routine replaced, kept here as the reference: per-alpha
# dicts, every alpha on the grid, the top order on each pair end separately


def _ref_norm(ctx, values, pair_values, px, py):
    sup = max(float(np.max(np.abs(v))) for v in values.values())
    semi = 0.0
    if len(px):
        om = ctx.modulus(_distances(px.T, py.T))
        for alpha, (vx, vy) in pair_values.items():
            if sum(alpha) == ctx.k:
                semi = max(semi, float(np.max(np.abs(vx - vy) / om)))
    return sup, semi


def _ends(pairs, n):
    px = np.array([x for x, _ in pairs], dtype=float).reshape(len(pairs), n)
    py = np.array([y for _, y in pairs], dtype=float).reshape(len(pairs), n)
    return px, py


def _ref_sampled(ctx, oracle, X, pairs):
    px, py = _ends(pairs, ctx.n)
    mis = multi_indices(ctx.n, ctx.k)
    values = {a: np.asarray(oracle(a, X), dtype=float) for a in mis}
    pair_values = {a: (np.asarray(oracle(a, px), dtype=float), np.asarray(oracle(a, py), dtype=float))
                   for a in mis if sum(a) == ctx.k}
    return _ref_norm(ctx, values, pair_values, px, py)


def _ref_error_report(f_derivs, ctx, X, pairs):
    """norm_f, norm_f_ell, norm_EN and the per-alpha sup errors, each oracle
    called once per alpha on the grid and both pair ends stacked."""
    px, py = _ends(pairs, ctx.n)
    points = np.vstack([X, px, py])
    cuts = [len(X), len(X) + len(pairs)]
    mis = multi_indices(ctx.n, ctx.k)
    out, grid_values = [], []
    for ev in (f_derivs,
               lambda a, P: periodized_derivative(f_derivs, ELL, a, P),
               lambda a, P: finite_rank_LNN(f_derivs, N, P, a, ell=ELL)):
        vals, pvals = {}, {}
        for a in mis:
            vals[a], vx, vy = np.split(np.asarray(ev(a, points), dtype=float), cuts)
            pvals[a] = (vx, vy)
        out.append(max(_ref_norm(ctx, vals, pvals, px, py)))
        grid_values.append(vals)
    errs = {a: float(np.max(np.abs(grid_values[1][a] - grid_values[2][a]))) for a in mis}
    return (*out, errs)


def _weakstar_defaults(X, n):
    step = np.zeros(n)
    step[0] = 1e-3
    return [(g, g + step) for g in X] + list(zip(X[:-1], X[1:]))


@pytest.mark.parametrize("seed", SEEDS)
def test_ck_norm_estimate_matches_the_replaced_sampling_bitwise(seed):
    ctx, oracle, X, pairs = instance(seed)
    pairs = pairs if pairs is not None else list(zip(X[:-1], X[1:]))

    def deriv(alpha, x):
        return oracle(alpha, np.asarray(x)[None, :])[0]

    def per_point(alpha, P):
        return np.array([float(deriv(alpha, x)) for x in P])

    est = ck_norm_estimate(deriv, ctx, X, pairs)
    assert (est.sup_part, est.seminorm_part) == _ref_sampled(ctx, per_point, X, pairs)
    assert (est.n_grid, est.n_pairs) == (len(X), len(pairs))


@pytest.mark.parametrize("seed", SEEDS)
def test_weakstar_norms_match_the_replaced_sampling_bitwise(seed):
    ctx, oracle, X, pairs = instance(seed)
    fns = [lambda a, P, s=s: s * oracle(a, P) for s in (1.0, 0.5, 0.25)]
    v = weakstar_check(fns, ctx, X, math.inf, grid=X, pairs=pairs)
    pairs = pairs if pairs is not None else _weakstar_defaults(X, ctx.n)
    assert v.sampled_norms == tuple(max(_ref_sampled(ctx, f, X, pairs)) for f in fns)


@pytest.mark.parametrize("seed", SEEDS)
def test_error_report_matches_the_replaced_sampling(seed):
    # at k = 0 every oracle sees the same calls on the same points; at k >= 1
    # the lower orders are now sampled on the grid alone, where the Jackson
    # engine's blocked evaluation may round differently
    ctx, oracle, X, pairs = instance(seed)
    rep = error_report(oracle, ELL, N, ctx, X, pairs=pairs)
    pairs = pairs if pairs is not None else list(zip(X[:-1], X[1:]))
    *norms, errs = _ref_error_report(oracle, ctx, X, pairs)
    got = [rep.norm_f, rep.norm_f_ell, rep.norm_EN, *rep.sup_errors_per_alpha.values()]
    want = [*norms, *errs.values()]
    assert list(rep.sup_errors_per_alpha) == list(errs)
    if ctx.k == 0:
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# call counts


@pytest.mark.parametrize("n, k", [(1, 0), (1, 2), (2, 1), (3, 2)])
def test_ck_norm_estimate_deriv_call_count(n, k):
    # every alpha once per grid point, the top orders once per pair end
    rng = np.random.default_rng(n + 3 * k)
    ctx = NormContext(k, n, mo.linear())
    X, ends = rng.uniform(-1, 1, (7, n)), rng.uniform(-1, 1, (4, 2, n))
    calls = []

    def deriv(alpha, x):
        calls.append(alpha)
        return 0.0

    ck_norm_estimate(deriv, ctx, X, [(x, y) for x, y in ends])
    J, top = len(multi_indices(n, k)), sum(sum(a) == k for a in multi_indices(n, k))
    assert len(calls) == 7 * J + 2 * 4 * top


@pytest.mark.parametrize("k", [0, 1, 2])
def test_weakstar_calls_each_function_once_per_alpha_for_its_norm(k):
    # a failed norm bound (cap -1) stops before the pointwise residual, which
    # (cap inf) calls each function once more per alpha, on the probes
    ctx = NormContext(k, 2, mo.linear())
    probes = np.linspace(-1, 1, 6).reshape(-1, 2)
    for cap, rounds in ((-1.0, 1), (math.inf, 2)):
        calls = [[], []]

        def make(i):
            def f(alpha, P):
                calls[i].append(alpha)
                return np.zeros(len(P))
            return f

        weakstar_check([make(0), make(1)], ctx, probes, cap)
        assert calls == [list(multi_indices(2, k)) * rounds] * 2


# ---------------------------------------------------------------------------
# bad samples: InputError before any oracle call, in all three entries

BAD_SAMPLES = {
    "nan grid point": ([[0.1], [math.nan]], [([0.0], [0.5])]),
    "nan grid point, default pairs": ([[0.1], [math.nan]], None),
    "inf pair end": ([[0.1], [0.2]], [([0.0], [math.inf])]),
    "pair in R^2": ([[0.1], [0.2]], [([0.0, 1.0], [1.0, 2.0])]),
    "grid in R^2": ([[0.1, 0.2]], [([0.0], [0.5])]),
    "grid in R^2, default pairs": ([[0.1, 0.2]], None),
    "coincident pair ends": ([[0.1], [0.2]], [([0.3], [0.3])]),
    "empty grid": ([], [([0.0], [0.5])]),
    "ragged pair": ([[0.1]], [([0.0], 0.5, 1.0)]),
}


@pytest.mark.parametrize("entry", ["ck_norm_estimate", "error_report", "weakstar_check"])
@pytest.mark.parametrize("case", list(BAD_SAMPLES))
def test_bad_sample_rejected_before_any_oracle_call(entry, case):
    grid, pairs = BAD_SAMPLES[case]
    ctx = NormContext(1, 1, mo.linear())
    calls = []

    def oracle(alpha, P):
        calls.append(alpha)
        return np.sin(np.asarray(P, dtype=float)[:, 0])

    with pytest.raises(InputError):
        if entry == "ck_norm_estimate":
            ck_norm_estimate(lambda a, x: oracle(a, [x])[0], ctx, grid,
                             [] if pairs is None else pairs)
        elif entry == "error_report":
            error_report(oracle, 1, 4, ctx, grid, pairs=pairs)
        else:
            weakstar_check([oracle] * 2, ctx, [[0.1]], 2.0, grid=grid, pairs=pairs)
    assert calls == []
