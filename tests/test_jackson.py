import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from periodic_rule import cosine_multipliers, periodic_nodes

from ckomega import modulus as mo
from ckomega.cutoff import CutoffFamily
from ckomega.errors import InputError, NumericalError
from ckomega.fields import NormContext, multi_indices
from ckomega.jackson import (
    JacksonKernel,
    TensorTrigPoly,
    _conv_node_count,
    _jackson_multipliers,
    _periodized_lattice,
    error_report,
    finite_rank_LNN,
    fit_trig_poly,
    jackson_smooth_1d,
    kernel_mass_closed_form,
    kernel_normalize,
    lattice_period,
    length_scale,
    periodize,
    periodized_derivative,
    reduce_to_cell,
    smooth_EN,
    weakstar_check,
)


def f_sin(Y):
    return np.sin(Y[:, 0])


def sin_derivs(alpha, X):
    return np.sin(X[:, 0] + alpha[0] * math.pi / 2.0)


# ---------------------------------------------------------------------------
# kernel


def test_gamma_2_matches_hand_value():
    k = kernel_normalize(2)
    assert abs(k.gamma - 1.0 / (2.0 * math.pi)) < 1e-14


def test_kernel_rejects_small_N():
    with pytest.raises(InputError):
        kernel_normalize(1)
    # and so does every operator
    with pytest.raises(InputError):
        smooth_EN(f_sin, 2, 1, np.array([0.5]))
    with pytest.raises(InputError):
        finite_rank_LNN(sin_derivs, 1, np.array([0.2]), (0,), ell=2)
    with pytest.raises(InputError):
        jackson_smooth_1d(np.sin, 1, 0.3)


_N_ENTRY_POINTS = {
    "kernel_normalize": lambda N: kernel_normalize(N),
    "jackson_smooth_1d": lambda N: jackson_smooth_1d(np.sin, N, 0.3),
    "smooth_EN": lambda N: smooth_EN(f_sin, 2, N, np.array([0.5])),
    "finite_rank_LNN": lambda N: finite_rank_LNN(sin_derivs, N, np.array([0.2]), (0,), ell=2),
    "error_report": lambda N: error_report(sin_derivs, 2, N, NormContext(0, 1, mo.linear()),
                                           [[0.1], [0.4]]),
}


@pytest.mark.parametrize("entry", sorted(_N_ENTRY_POINTS))
@pytest.mark.parametrize("N", [8.5, 8.0, np.float64(8.0), "8"], ids=["8.5", "8.0", "f64", "str"])
def test_operators_reject_non_integer_N(entry, N):
    # kernel_normalize(8) is cached first: a float 8.0 hashes equal to it and
    # must still be rejected, not served the integer's kernel
    kernel_normalize(8)
    with pytest.raises(InputError, match="integer N"):
        _N_ENTRY_POINTS[entry](N)


@pytest.mark.parametrize("N", [2, 4, 8, 16, 32, 64, 128, 256])
def test_kernel_unit_mass_and_positivity(N):
    k = kernel_normalize(N)
    # independent oracle: closed form of the raw mass by Fejer-kernel squaring
    assert k.gamma == pytest.approx(1.0 / kernel_mass_closed_form(N), rel=1e-13)
    t, w = periodic_nodes(4 * N + 64)
    vals = k(t)
    assert np.all(vals >= 0.0)
    assert w * np.sum(vals) == pytest.approx(1.0, abs=1e-8)


def test_raw_kernel_mass_matches_closed_form_on_exact_rule():
    # independent oracle: the (4N+1)-node periodic rule is exact on the raw
    # kernel, a trigonometric polynomial of degree 2 floor(N/2) <= N
    for N in range(2, 257):
        t, w = periodic_nodes(4 * N + 1)
        mass = w * np.sum(JacksonKernel(N, N // 2, 1.0)(t))
        assert mass == pytest.approx(kernel_mass_closed_form(N), rel=1e-13, abs=0.0)


def test_multipliers_match_cosine_rule():
    for N in range(2, 301):
        mult = _jackson_multipliers(N)
        assert mult.size == kernel_normalize(N).degree + 1
        assert mult[0] == 1.0 and mult[-2] == 0.0 and mult[-1] == 0.0
        assert np.max(np.abs(mult - cosine_multipliers(N))) <= 1e-13


def test_kernel_value_at_zero_is_limit():
    k = kernel_normalize(10)
    assert k(np.array([0.0]))[0] == pytest.approx(k.gamma * 5**4)


# ---------------------------------------------------------------------------
# 1D Jackson operator


def test_smooth_1d_preserves_constants():
    assert jackson_smooth_1d(lambda x: np.full_like(x, 3.25), 16, 0.3) == pytest.approx(
        3.25, abs=1e-12
    )


def test_smooth_1d_cos_error_matches_multiplier():
    # dual route: sup|cos - L_N cos| equals 1 - int cos(t) J_N(t) dt
    N = 64
    xs = np.linspace(-math.pi, math.pi, 257)
    err = np.max(np.abs(jackson_smooth_1d(np.cos, N, xs) - np.cos(xs)))
    k = kernel_normalize(N)
    t, w = periodic_nodes(4 * N + 1)
    jhat1 = w * np.sum(k(t) * np.cos(t))
    assert err == pytest.approx(1.0 - jhat1, rel=1e-10)
    # error <= c * omega(cos, 1/N) with omega(cos, h) <= h; the fitted c is
    # recorded by the error law acceptance test; here just sanity-bound it
    assert err <= 2.0 / N


def test_smooth_1d_range_preservation():
    def ramp(x):
        return np.clip(np.sin(x) * 3.0, -1.0, 1.0)

    xs = np.linspace(-math.pi, math.pi, 101)
    vals = jackson_smooth_1d(ramp, 32, xs)
    assert np.all(vals >= -1.0 - 1e-12) and np.all(vals <= 1.0 + 1e-12)


def test_smooth_1d_result_is_trig_poly_of_degree_N():
    N = 16
    f = lambda x: np.abs(np.sin(x))
    tp = fit_trig_poly(lambda U: jackson_smooth_1d(f, N, U[:, 0]), 2 * N, n=1)
    assert tp.tail_max(N) <= 1e-12 * tp.max_coeff()


# ---------------------------------------------------------------------------
# periodization


def test_periodize_identity_on_cell_bitwise():
    rng = np.random.default_rng(0)
    for n in (1, 2):
        ell = 2
        X = rng.uniform(-ell, ell, (40, n))
        f = lambda Y: np.cos(Y[:, 0]) + (Y[:, -1]) ** 2
        assert np.array_equal(periodize(f, ell, X), f(X))


def test_periodize_exact_lattice_periodicity():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        ell = 1 + n
        L = lattice_period(ell, n)
        f = lambda Y: np.sin(Y[:, 0]) + np.prod(np.cos(0.3 * Y), axis=1)
        y0 = rng.uniform(-0.49 * L, 0.49 * L, (200, n))
        m = rng.integers(-4, 5, (200, n)).astype(float)
        u = y0 + m * L
        assert np.array_equal(periodize(f, ell, u), periodize(f, ell, u - m * L))


def test_periodize_vanishes_outside_support():
    ell, n = 2, 1
    f = lambda Y: np.ones(Y.shape[0])
    X = np.array([[2 * ell + 0.1], [3.9 * ell]])
    assert np.all(periodize(f, ell, X) == 0.0)


def test_periodized_derivative_matches_fd():
    ell = 2
    X = np.linspace(-2.5 * ell, 2.5 * ell, 41).reshape(-1, 1)
    h = 1e-5
    exact = periodized_derivative(sin_derivs, ell, (1,), X)
    f0 = lambda Z: periodize(lambda Y: np.sin(Y[:, 0]), ell, Z)
    fd = (f0(X + h) - f0(X - h)) / (2 * h)
    assert np.max(np.abs(exact - fd)) < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_periodized_derivative_bitwise_equals_binomial_leibniz_loop(n):
    # reference: sum over nu <= alpha in graded order of
    # prod_i comb(alpha_i, nu_i) * D^nu rho_ell * D^(alpha - nu) f
    rng = np.random.default_rng(40 + n)
    ell = 2
    c = rng.uniform(0.5, 1.5, n)

    def f_derivs(beta, X):
        out = np.ones(X.shape[0])
        for i, b in enumerate(beta):
            out = out * np.sin(c[i] * X[:, i] + i + b * math.pi / 2) * c[i] ** b
        return out

    X = rng.uniform(-2.5 * ell, 2.5 * ell, (30, n))
    cf = CutoffFamily(n, ell)
    Y = X - lattice_period(ell, n) * np.round(X / lattice_period(ell, n))
    for alpha in multi_indices(n, 3):
        want = np.zeros(len(X))
        for nu in multi_indices(n, sum(alpha)):
            if any(v > a for v, a in zip(nu, alpha)):
                continue
            coef = float(math.prod(math.comb(a, v) for a, v in zip(alpha, nu)))
            rest = tuple(a - v for a, v in zip(alpha, nu))
            want += coef * cf.rho_deriv(Y, nu) * f_derivs(rest, Y)
        assert np.array_equal(periodized_derivative(f_derivs, ell, alpha, X), want), alpha


def _product_derivs(n, seed):
    """Derivative oracle of prod_i sin(c_i x_i + i) for random c_i."""
    c = np.random.default_rng(seed).uniform(0.5, 1.5, n)

    def f_derivs(beta, X):
        out = np.ones(X.shape[0])
        for i, b in enumerate(beta):
            out = out * np.sin(c[i] * X[:, i] + i + b * math.pi / 2) * c[i] ** b
        return out

    return f_derivs


def _lattice_points(M, n, lam):
    """The lattice x = lam u, u_j = 2 pi j / (2M+1), as (size^n, n) points."""
    size = 2 * M + 1
    u = 2.0 * math.pi * np.arange(size) / size
    return lam * np.stack(np.meshgrid(*([u] * n), indexing="ij"), axis=-1).reshape(-1, n)


@pytest.mark.parametrize("ell", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_samples_equal_pointwise_periodization_bitwise(n, ell):
    # the per-axis sampler against the pointwise reference on the flattened
    # lattice, for every |alpha| <= 2 and for the f-only path of smooth_EN
    M = 12
    X = _lattice_points(M, n, length_scale(ell, n))
    Y = reduce_to_cell(X, lattice_period(ell, n))
    rho = CutoffFamily(n, ell).rho(Y)
    assert np.any((rho > 0.0) & (rho < 1.0))  # the transition band is sampled
    f_derivs = _product_derivs(n, 50 + n)
    for alpha in multi_indices(n, 2):
        got = _periodized_lattice(f_derivs, ell, alpha, M)
        assert got.shape == (2 * M + 1,) * n
        assert np.array_equal(got.reshape(-1), periodized_derivative(f_derivs, ell, alpha, X)), alpha
    f = lambda P: f_derivs((0,) * n, P)
    got = _periodized_lattice(lambda beta, P: f(P), ell, (0,) * n, M)
    assert np.array_equal(got.reshape(-1), periodize(f, ell, X))


def _reference_smooth(periodic_fn, N, X, lam):
    """The engine as a full complex FFT of pointwise samples, cut to the
    kernel degree and evaluated by one exponential per frequency and point."""
    n = X.shape[1]
    mult = _jackson_multipliers(N)
    D = mult.size - 1
    M = _conv_node_count(N, n) // 2
    size = 2 * M + 1
    samples = periodic_fn(_lattice_points(M, n, lam)).reshape((size,) * n)
    coeffs = np.fft.fftshift(np.fft.fftn(samples)) / size**n
    sym = np.concatenate([mult[:0:-1], mult])
    coeffs = coeffs[(slice(M - D, M + D + 1),) * n] * reduce(np.multiply.outer, [sym] * n)
    freqs = np.arange(-D, D + 1)
    Q = np.stack(np.meshgrid(*([freqs] * n), indexing="ij"), axis=-1).reshape(-1, n)
    return np.real(np.exp(1j * (X / lam) @ Q.T) @ coeffs.reshape(-1))


def _reference_LNN(f_derivs, N, x, alpha, ell=None):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    ell = N if ell is None else ell
    return _reference_smooth(lambda P: periodized_derivative(f_derivs, ell, alpha, P),
                             N, X, length_scale(ell, len(alpha)))


def _assert_rel_close(got, want, rtol=1e-14):
    assert np.max(np.abs(np.asarray(got) - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8), (3, 4)])
def test_smooth_EN_matches_complex_fft_route(n, N):
    f_derivs = _product_derivs(n, 60 + n)
    f = lambda P: f_derivs((0,) * n, P)
    ell = 2
    X = np.random.default_rng(n).uniform(-3 * ell, 3 * ell, (20, n))
    want = _reference_smooth(lambda P: periodize(f, ell, P), N, X, length_scale(ell, n))
    _assert_rel_close(smooth_EN(f, ell, N, X), want)


@pytest.mark.parametrize("order", [1, 2])
def test_finite_rank_matches_complex_fft_route(order):
    X = np.random.default_rng(order).uniform(-2, 2, (16, 1))
    want = _reference_LNN(sin_derivs, 16, X, (order,), ell=2)
    _assert_rel_close(finite_rank_LNN(sin_derivs, 16, X, (order,), ell=2), want)


@pytest.mark.parametrize("N", [2, 8, 32, 128])
def test_smooth_1d_matches_complex_fft_route(N):
    f = lambda x: np.abs(np.sin(x)) + np.cos(3 * x)
    xs = np.random.default_rng(N).uniform(-4, 4, 200)
    want = _reference_smooth(lambda P: f(reduce_to_cell(P[:, 0], 2.0 * math.pi)),
                             N, xs.reshape(-1, 1), 1.0)
    _assert_rel_close(jackson_smooth_1d(f, N, xs), want)


def test_error_report_matches_complex_fft_route(monkeypatch):
    ctx = NormContext(1, 1, mo.linear())
    grid = np.linspace(-4, 4, 33).reshape(-1, 1)
    got = error_report(sin_derivs, 2, 8, ctx, grid)
    monkeypatch.setattr("ckomega.jackson.finite_rank_LNN", _reference_LNN)
    want = error_report(sin_derivs, 2, 8, ctx, grid)
    for name in ("norm_f", "norm_f_ell", "norm_EN", "sup_error", "c_N_emp"):
        _assert_rel_close(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("n, M", [(1, 1), (1, 33), (1, 128), (2, 32), (3, 8)])
def test_evaluate_power_recurrence_matches_direct_sum(n, M):
    # the phases are powers of one exponential per coordinate, whose error
    # grows like q eps; the direct sum takes one exponential per frequency
    rng = np.random.default_rng(100 * n + M)
    shape = (2 * M + 1,) * n
    c = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    U = rng.uniform(-2 * math.pi, 2 * math.pi, (60, n))
    freqs = np.arange(-M, M + 1)
    Q = np.stack(np.meshgrid(*([freqs] * n), indexing="ij"), axis=-1).reshape(-1, n)
    direct = np.real(np.exp(1j * (U @ Q.T)) @ c.reshape(-1))
    err = np.max(np.abs(TensorTrigPoly(c, M, 1.0).evaluate(U) - direct))
    assert err <= n * M * np.finfo(float).eps * np.sum(np.abs(c))


# ---------------------------------------------------------------------------
# tensor smoothing E_N


def test_smooth_EN_zero_function():
    assert smooth_EN(lambda Y: np.zeros(Y.shape[0]), 2, 8, np.array([0.5])) == 0.0


def test_smooth_EN_constant_deep_interior():
    # E_N 1_ell at the center misses 1 only by the kernel mass outside the
    # plateau; oracle: bound the loss by the tail mass beyond |t| < ell/lam
    for n in (1, 2):
        ell, N = 4, 32
        val = smooth_EN(lambda Y: np.ones(Y.shape[0]), ell, N, np.zeros(n))
        k = kernel_normalize(N)
        t, w = periodic_nodes(8 * N + 1)
        cut = ell / length_scale(ell, n)
        tail = w * np.sum(k(t)[np.abs(t) >= cut])
        loss_bound = 1.0 - (1.0 - n * tail)  # union bound across coordinates
        assert 0.0 <= 1.0 - val <= loss_bound + 1e-12
    # and the loss shrinks as N grows
    v1 = smooth_EN(lambda Y: np.ones(Y.shape[0]), 4, 8, np.zeros(1))
    v2 = smooth_EN(lambda Y: np.ones(Y.shape[0]), 4, 64, np.zeros(1))
    assert abs(1.0 - v2) < abs(1.0 - v1)


def test_smooth_EN_degree_bound():
    # coefficients of (E_N f_ell)(lam u) beyond frequency N vanish
    # (relative 1e-10), three smooth test functions, N in {8, 16, 32}
    fns = [
        lambda Y: np.sin(Y[:, 0]),
        lambda Y: np.exp(np.sin(0.7 * Y[:, 0])),
        lambda Y: 1.0 / (2.0 + np.cos(Y[:, 0])),
    ]
    ell = 2
    lam = length_scale(ell, 1)
    for N in (8, 16, 32):
        for f in fns:
            tp = fit_trig_poly(lambda U: smooth_EN(f, ell, N, lam * U), 2 * N, n=1, scale=lam)
            assert tp.tail_max(N) < 1e-10 * tp.max_coeff()


@pytest.mark.parametrize("N", [8, 16, 32])
def test_smoothing_degree_bound_off_grid(N):
    # a (6N+1)-point fit samples off every node lattice the smoothing uses;
    # the tail beyond N vanishes to rounding for a Lipschitz and a smooth f
    ell = 2
    lam = length_scale(ell, 1)
    for g in (lambda y: np.abs(np.sin(y)), lambda y: np.exp(np.sin(y))):
        fits = [
            fit_trig_poly(lambda U: smooth_EN(lambda Y: g(Y[:, 0]), ell, N, lam * U),
                          3 * N, n=1, scale=lam),
            fit_trig_poly(lambda U: jackson_smooth_1d(g, N, U[:, 0]), 3 * N, n=1),
        ]
        for tp in fits:
            assert tp.tail_max(N) < 1e-12 * tp.max_coeff()


def test_smooth_1d_multipliers_match_squared_fejer():
    # independent oracle: J_N is the normalized square of the Fejer sum
    # sum_{|j| < M} (M - |j|) e^{ijt}, M = floor(N/2), so L_N cos(q .) is
    # cos(q .) times the q-th coefficient of that square over the 0-th
    N = 12
    M = N // 2
    fejer = np.array([M - abs(j) for j in range(-M + 1, M)], dtype=float)
    square = np.convolve(fejer, fejer)[2 * M - 2:]
    xs = np.linspace(-math.pi, math.pi, 41)
    for q in range(2 * M + 3):
        want = square[q] / square[0] if q < square.size else 0.0
        got = jackson_smooth_1d(lambda x: np.cos(q * x), N, xs)
        assert np.max(np.abs(got - want * np.cos(q * xs))) < 1e-13


@pytest.mark.parametrize("n, N", [(1, 16), (2, 8), (3, 4)])
def test_smooth_EN_samples_f_once_whatever_the_query_count(n, N):
    m = _conv_node_count(N, n)
    lattice = (2 * (m // 2) + 1) ** n  # the odd count at or above m per axis
    for P in (1, 257):
        calls = []

        def f(Y):
            calls.append(Y.shape[0])
            return np.cos(Y[:, 0])

        X = np.random.default_rng(P).uniform(-1, 1, (P, n))
        smooth_EN(f, 1, N, X)
        assert calls == [lattice]


def test_smoothing_memory_does_not_grow_with_queries():
    rng = np.random.default_rng(12)
    peaks = []
    for P in (100, 100_000):
        X = rng.uniform(-2, 2, (P, 1))
        tracemalloc.start()
        try:
            smooth_EN(lambda Y: np.cos(Y[:, 0]), 2, 16, X)
            jackson_smooth_1d(np.cos, 32, X[:, 0])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 100k points carry 1.6 MB of input and output; a per-point evaluation
    # over the whole query set at once would need about 100 MB
    assert peaks[1] < peaks[0] + 24e6
    assert peaks[1] < 40e6


def test_smooth_EN_n3_memory():
    # the 51^3 lattice: its points (3.2 MB), f's temporaries and the sample
    # arrays peaked at 7.4 MB under tracemalloc, against 18.2 MB when the
    # cutoff and the FFT ran on the whole lattice
    X = np.random.default_rng(3).uniform(-1, 1, (3, 3))
    f = lambda Y: np.cos(Y[:, 0])
    smooth_EN(f, 1, 4, X)  # the per-axis cutoff factors are cached
    tracemalloc.start()
    try:
        smooth_EN(f, 1, 4, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


@pytest.mark.parametrize("call, size", [
    (lambda f: smooth_EN(f, 1, 32, np.zeros((1, 3))), "129^3 = 2146689"),
    (lambda f: smooth_EN(f, 1, 4, np.zeros((1, 4))), "51^4 = 6765201"),
    (lambda f: finite_rank_LNN(lambda a, Y: f(Y), 262144, np.zeros((1, 1)), (0,), ell=1),
     "2097155^1 = 2097155"),
    (lambda f: jackson_smooth_1d(lambda x: f(x.reshape(-1, 1)), 262144, 0.3),
     "2097155^1 = 2097155"),
], ids=["n3_N32", "n4", "finite_rank", "smooth_1d"])
def test_lattice_guard_names_the_size_before_sampling(call, size):
    calls = []

    def f(Y):
        calls.append(len(Y))
        return np.cos(Y[:, 0])

    with pytest.raises(InputError, match=re.escape(size + " points")):
        call(f)
    assert calls == []


def test_smooth_EN_sup_contraction():
    rng = np.random.default_rng(3)
    f = lambda Y: np.sin(3 * Y[:, 0]) * np.cos(Y[:, 0])
    ell, N = 2, 16
    cf = CutoffFamily(1, ell)
    grid = np.linspace(-4 * ell, 4 * ell, 501).reshape(-1, 1)
    sup_fell = np.max(np.abs(cf.rho(grid) * f(grid)))
    X = rng.uniform(-8, 8, (40, 1))
    vals = smooth_EN(f, ell, N, X)
    assert np.max(np.abs(vals)) <= sup_fell * (1 + 1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_smooth_EN_rejects_non_finite_queries(bad):
    with pytest.raises(InputError, match="finite"):
        smooth_EN(f_sin, 2, 8, np.array([[0.5], [bad]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_smooth_1d_rejects_non_finite_queries(bad):
    with pytest.raises(InputError, match="finite"):
        jackson_smooth_1d(np.sin, 8, bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_LNN_rejects_non_finite_queries(bad):
    with pytest.raises(InputError, match="finite"):
        finite_rank_LNN(sin_derivs, 8, np.array([[bad]]), (0,))


@pytest.mark.parametrize("entry", [
    lambda f, d, x: periodize(f, 2, x),
    lambda f, d, x: periodized_derivative(d, 2, (1,), x),
    lambda f, d, x: smooth_EN(f, 2, 8, x),
    lambda f, d, x: finite_rank_LNN(d, 8, x, (1,), ell=2),
    lambda f, d, x: jackson_smooth_1d(f, 8, np.ravel(x)),
], ids=["periodize", "periodized_derivative", "smooth_EN", "finite_rank_LNN", "jackson_smooth_1d"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_every_jackson_entry_rejects_non_finite_points_before_sampling(entry, bad):
    # each entry checks its query points once, where they enter, and never
    # evaluates f at the NaN they would reduce to
    calls = []

    def f(Y):
        calls.append(Y)
        return np.sin(np.asarray(Y).reshape(len(Y), -1)[:, 0])

    with pytest.raises(InputError, match="query points must be finite"):
        entry(f, lambda alpha, Y: f(Y), np.array([[0.5], [bad]]))
    assert calls == []


def test_smooth_EN_guards_dimension():
    with pytest.raises(InputError):
        smooth_EN(lambda Y: np.ones(Y.shape[0]), 1, 4, np.zeros(4))


# ---------------------------------------------------------------------------
# finite-rank operator


def test_LNN_constant_near_one():
    v = finite_rank_LNN(lambda a, X: np.ones(X.shape[0]) if sum(a) == 0 else np.zeros(X.shape[0]),
                        32, np.array([0.2]), (0,))
    assert v == pytest.approx(1.0, abs=0.05)


def test_LNN_linearity_bitwise_scale():
    f = sin_derivs
    g = lambda a, X: np.cos(X[:, 0] + a[0] * math.pi / 2.0)
    x = np.array([0.3])
    N = 8
    vf = finite_rank_LNN(f, N, x, (0,), ell=2)
    vg = finite_rank_LNN(g, N, x, (0,), ell=2)
    combo = lambda a, X: 2.0 * f(a, X) - 0.5 * g(a, X)
    vc = finite_rank_LNN(combo, N, x, (0,), ell=2)
    assert vc == pytest.approx(2.0 * vf - 0.5 * vg, abs=1e-10)


def test_LNN_derivative_action_deep_interior():
    # Leibniz terms with derivatives of rho_N vanish where rho_N is flat, so
    # deep inside K_N the derivative of the smoothed function tracks D f
    N = 16
    x = np.array([0.5])
    v = finite_rank_LNN(sin_derivs, N, x, (1,), ell=N)
    # compare against the 1D multiplier route on the same periodization
    ell = N
    lam = length_scale(ell, 1)
    tp = fit_trig_poly(
        lambda U: smooth_EN(lambda Y: np.sin(Y[:, 0]), ell, N, lam * U), 2 * N, n=1, scale=lam
    )
    want = tp.derivative((1,)).evaluate(np.array([[x[0] / lam]]))[0]
    assert v == pytest.approx(want, abs=1e-7)


def test_LNN_missing_derivative_raises():
    def partial(alpha, X):
        if alpha[0] > 0:
            raise InputError("derivative data missing")
        return np.sin(X[:, 0])

    with pytest.raises(InputError):
        finite_rank_LNN(partial, 8, np.array([0.0]), (1,))


def test_commutation_derivative_vs_spectral(monkeypatch):
    # D^alpha (E_N f_ell) via spectral differentiation of the fitted trig
    # polynomial vs E_N (D^alpha f_ell) via the Leibniz route, |alpha| <= 2,
    # on a 4,116-node lattice (84 (4N+1)): the default 539 nodes leave the
    # two up to 3.1e-6 apart
    monkeypatch.setattr("ckomega.jackson._conv_node_count", lambda N, n: (4 * N + 1) * 84)
    N, ell = 12, 2
    lam = length_scale(ell, 1)
    tp = fit_trig_poly(
        lambda U: smooth_EN(f_sin, ell, N, lam * U), 2 * N, n=1, scale=lam
    )
    probes = np.array([[-1.2], [0.0], [0.7], [2.5]])
    for order in (1, 2):
        spectral = tp.derivative((order,)).evaluate(probes / lam)
        leibniz = finite_rank_LNN(sin_derivs, N, probes, (order,), ell=ell)
        assert spectral == pytest.approx(leibniz, abs=1e-6)


# ---------------------------------------------------------------------------
# pointwise convergence regimes


def _bump_test_fn(Y):
    x = Y[:, 0]
    return np.where(np.abs(x) <= 1.0, np.cos(math.pi * x / 2.0) ** 2, 0.0)


def test_pointwise_convergence_fixed_ell():
    # smooth compactly supported f, ell fixed covering the support: the
    # smoothing window shrinks like 1/N and the error decays to < 1e-3
    x0 = np.array([0.5])
    exact = float(_bump_test_fn(x0.reshape(1, -1))[0])
    errs = [abs(smooth_EN(_bump_test_fn, 1, N, x0) - exact) for N in (8, 16, 32, 64, 128)]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3


@pytest.mark.xfail(
    strict=False,
    reason="with the ell=N coupling the smoothing window in x-units is "
    "Theta(1) (lambda/Ntilde ~ 8 sqrt(n)/pi), so L_NN does not converge "
    "pointwise; see \"Decisions\" in the README on keeping the lambda factor",
)
def test_pointwise_convergence_ell_equals_N_as_stated():
    x0 = np.array([0.5])
    exact = float(_bump_test_fn(x0.reshape(1, -1))[0])
    err = abs(smooth_EN(_bump_test_fn, 128, 128, x0) - exact)
    assert err < 1e-3


# ---------------------------------------------------------------------------
# error report


def test_error_report_zero_function():
    zero = lambda a, X: np.zeros(X.shape[0])
    ctx = NormContext(0, 1, mo.linear())
    grid = np.linspace(-2, 2, 17).reshape(-1, 1)
    rep = error_report(zero, 2, 8, ctx, grid)
    assert rep.c_ell_emp == 0.0 and rep.c_ell_EN_emp == 0.0 and rep.c_N_emp == 0.0


def test_error_report_fixed_ell_error_law():
    # fixed ell, growing N: the sampled C^0 error of E_N f_ell decays ~ 1/N
    # (the ell=N coupling does not; see "Decisions" in the README)
    ctx = NormContext(0, 1, mo.linear())
    ell = 2
    grid = np.linspace(-2 * ell, 2 * ell, 33).reshape(-1, 1)
    products = []
    errors = []
    for N in (8, 16, 32, 64):
        rep = error_report(sin_derivs, ell, N, ctx, grid)
        errors.append(rep.c_N_emp)
        products.append(rep.c_N_emp * N)
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert max(products) <= 4.0 * products[0] + 1e-12


def test_error_report_c_ell_approaches_one_for_linear_omega():
    # lim C_ell = 1 + c * lim 1/omega; for linear omega the limit term is 0
    ctx = NormContext(0, 1, mo.linear())
    vals = []
    for ell in (1, 2, 4, 8):
        grid = np.linspace(-2 * ell, 2 * ell, 41).reshape(-1, 1)
        rep = error_report(sin_derivs, ell, 8, ctx, grid)
        vals.append(rep.c_ell_emp)
    assert abs(vals[-1] - 1.0) <= abs(vals[0] - 1.0) + 1e-12
    assert vals[-1] == pytest.approx(1.0, abs=0.2)


def test_error_report_rejects_grid_outside_cell():
    ctx = NormContext(0, 1, mo.linear())
    with pytest.raises(InputError):
        error_report(sin_derivs, 1, 8, ctx, np.array([[100.0]]))


def test_error_report_rejects_pair_endpoints_outside_cell():
    ctx = NormContext(0, 1, mo.linear())
    grid = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
    for pairs in ([([100.0], [101.0])], [([0.0], [100.0])]):
        with pytest.raises(InputError):
            error_report(sin_derivs, 1, 8, ctx, grid, pairs=pairs)


def test_error_report_rejects_non_finite_grid_and_pairs_before_sampling():
    ctx = NormContext(0, 1, mo.linear())
    grid = np.linspace(-0.5, 0.5, 5).reshape(-1, 1)
    calls = []

    def counting(alpha, X):
        calls.append(X.shape[0])
        return sin_derivs(alpha, X)

    bad_grid = grid.copy()
    bad_grid[2, 0] = np.nan
    for g, pairs in ((bad_grid, None), (grid, [([0.0], [np.inf])]), (grid, [([np.nan], [0.1])])):
        with pytest.raises(InputError, match="finite"):
            error_report(counting, 1, 8, ctx, g, pairs=pairs)
    assert calls == []


def test_error_report_samples_each_lattice_once():
    # E_N D^alpha f_ell needs f_derivs once per Leibniz term on the lattice:
    # (0,) for alpha = (0,), (0,) and (1,) for alpha = (1,)
    ctx = NormContext(1, 1, mo.linear())
    grid = np.linspace(-2, 2, 33).reshape(-1, 1)
    sizes = []

    def counting(alpha, X):
        sizes.append(X.shape[0])
        return sin_derivs(alpha, X)

    error_report(counting, 1, 8, ctx, grid)
    # grid plus both ends of its 32 pairs is 97 points; larger calls sample a lattice
    assert sum(size > 97 for size in sizes) == 3


def test_error_report_rejects_non_finite_derivatives():
    ctx = NormContext(1, 1, mo.linear())
    grid = np.linspace(-2, 2, 9).reshape(-1, 1)

    def nan_slope(alpha, X):
        return np.full(X.shape[0], np.nan) if alpha == (1,) else sin_derivs(alpha, X)

    with pytest.raises(NumericalError, match=r"\(1,\)"):
        error_report(nan_slope, 1, 8, ctx, grid)


# ---------------------------------------------------------------------------
# weak* checker


def _scaled_sin(i):
    return lambda a, X: np.sin(X[:, 0] + a[0] * math.pi / 2.0) / i


def _fast_osc(i):
    return lambda a, X: np.sin(i * X[:, 0])


def test_weakstar_constant_sequence_converges():
    ctx = NormContext(0, 1, mo.linear())
    fns = [sin_derivs] * 10
    v = weakstar_check(fns, ctx, np.linspace(-2, 2, 7).reshape(-1, 1), norm_cap=2.0)
    assert v.converged and v.failing_condition is None


def test_weakstar_vanishing_sequence_converges():
    ctx = NormContext(0, 1, mo.linear())
    fns = [_scaled_sin(i) for i in range(1, 61)]
    v = weakstar_check(fns, ctx, np.linspace(-2, 2, 7).reshape(-1, 1),
                       norm_cap=2.0, tol=0.02)
    assert v.converged
    assert max(v.sampled_norms) <= 1.0 + 1e-9


def test_weakstar_oscillating_sequence_fails_norm_bound():
    ctx = NormContext(0, 1, mo.linear())
    fns = [_fast_osc(i) for i in range(1, 21)]
    v = weakstar_check(fns, ctx, np.linspace(-2, 2, 7).reshape(-1, 1),
                       norm_cap=10.0, tol=0.02)
    assert not v.converged
    assert v.failing_condition == "norm_bound"


@pytest.mark.parametrize("where", ["probes", "grid", "pairs"])
def test_weakstar_rejects_non_finite_points(where):
    # a NaN point is an input error (exit 1), not a failed derivative (exit 2)
    ctx = NormContext(0, 1, mo.linear())
    args = {"probes": [[0.1], [0.2]], "grid": None, "pairs": None}
    args[where] = [([0.0], [math.nan])] if where == "pairs" else [[0.1], [math.nan]]
    with pytest.raises(InputError, match="finite"):
        weakstar_check([sin_derivs] * 2, ctx, args["probes"], 2.0,
                       grid=args["grid"], pairs=args["pairs"])
