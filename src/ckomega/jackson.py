"""Jackson-kernel smoothing pipeline.

The kernel J_N(t) = gamma_N (sin(Ntilde t/2)/sin(t/2))^4, Ntilde = floor(N/2),
normalized to unit mass on [-pi, pi], drives three operators:

* the circle convolution (L_N f)(x) = int f(x - t) J_N(t) dt for 2pi-periodic f;
* the cutoff periodization f_ell (period 8 ell sqrt(n) per coordinate, equal
  to f on the cube K_ell^n, cutoff rho_ell applied on the fundamental cell);
* the tensor smoothing (E_N f_ell)(x) = int f_ell(x - lambda t) prod J_N(t_i) dt
  with scale lambda = 4 ell sqrt(n) / pi, whose rescaling u -> (E_N f_ell)(lambda u)
  is a trigonometric polynomial of degree <= N per coordinate.

All three run through one spectral engine. The periodic function is sampled
once on a uniform tensor lattice of at least 4N+1 nodes per axis: each axis's
coordinates are reduced to the cell once, the cutoff factors sigma^(a)(y/ell)
are read per axis (cached) and multiplied as outer products, and f (or each
Leibniz term's derivative) is called once on the whole lattice. A real FFT,
cut to the kernel degree axis by axis, gives the spectrum, which is
multiplied by the kernel's Fourier multipliers; the resulting trigonometric
polynomial is evaluated at the query points from one complex exponential per
coordinate and its powers, so the degree bound holds at every point (see
"Decisions" in the README, also on the ell=N coupling). The lattice is
limited to 2^21 points, a bound set from measured time and memory. Both
kernel constants are exact: J_N / gamma_N is the square of the Fejer sum
sum_{|q| < Ntilde} (Ntilde - |q|) e^{iqt}, so its Fourier coefficients are
the integer self-convolution of that triangle (a piecewise cubic in q) and
its mass is 2 pi times their q = 0 term.

Point-set callables follow one convention: f(X) takes an (m, n) array and
returns (m,); derivative oracles take (alpha, X). Purely 1D periodic
functions (jackson_smooth_1d) take plain (m,) arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .cutoff import CutoffFamily, profile_deriv
from .errors import InputError
from .fields import NormContext, _blocks, _mi_table, _multi_index, mi_order, multi_indices
from .whitney import _sample_points, _sampled_norm

# ---------------------------------------------------------------------------
# kernel


@dataclass(frozen=True)
class JacksonKernel:
    """Normalized Jackson kernel of parameter N (trig degree 2*floor(N/2))."""

    N: int
    ntilde: int
    gamma: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        s = np.sin(0.5 * t)
        num = np.sin(0.5 * self.ntilde * t)
        ratio = np.full(t.shape, float(self.ntilde))
        ok = np.abs(s) > 1e-12
        ratio[ok] = num[ok] / s[ok]
        return self.gamma * ratio**4

    @property
    def degree(self) -> int:
        return 2 * self.ntilde


def _check_N(N) -> None:
    if not isinstance(N, (int, np.integer)) or N < 2:
        raise InputError(f"Jackson kernel needs an integer N >= 2, got {N!r}")


# typed: 8.0 must miss the entry of 8, so that its call reaches the check
@lru_cache(maxsize=None, typed=True)
def kernel_normalize(N: int) -> JacksonKernel:
    """Build J_N with gamma_N the reciprocal of the closed-form raw mass."""
    _check_N(N)
    return JacksonKernel(N, N // 2, 1.0 / kernel_mass_closed_form(N))


def kernel_mass_closed_form(N: int) -> float:
    """Raw kernel mass, by squaring the Fejer kernel expansion (Parseval):
    int (sin(Mt/2)/sin(t/2))^4 dt = 2 pi sum_{|q| < M} (M - |q|)^2
    = 2 pi M (2 M^2 + 1) / 3, M = floor(N/2)."""
    m = N // 2
    return 2.0 * math.pi * m * (2.0 * m * m + 1.0) / 3.0


# ---------------------------------------------------------------------------
# periodization


def lattice_period(ell: int, n: int) -> float:
    return 8.0 * ell * math.sqrt(n)


def length_scale(ell: int, n: int) -> float:
    """The scale lambda mapping one kernel period to one lattice period."""
    return 4.0 * ell * math.sqrt(n) / math.pi


def reduce_to_cell(X, period: float) -> np.ndarray:
    """Reduce coordinates into [-period/2, period/2); identity on the open cell."""
    X = np.asarray(X, dtype=float)
    return X - period * np.round(X / period)


def _as_points(x, n: int | None = None):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError("query points must be finite")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
        return arr, True, 1
    if arr.ndim == 1:
        return arr.reshape(1, -1), True, arr.size
    if n is not None and arr.shape[1] != n:
        raise InputError(f"points have dimension {arr.shape[1]}, expected {n}")
    return arr, False, arr.shape[1]


def periodize(f, ell: int, x):
    """Evaluate f_ell at x: reduce modulo the lattice, apply rho_ell * f.

    Exactly periodic by construction; coincides with f on K_ell^n (the
    reduction returns cell points unchanged and rho_ell is literally 1 there).
    """
    X, single, n = _as_points(x)
    cf = CutoffFamily(n, ell)
    Y = reduce_to_cell(X, lattice_period(ell, n))
    vals = cf.rho(Y) * np.asarray(f(Y), dtype=float)
    return float(vals[0]) if single else vals


def periodized_derivative(f_derivs, ell: int, alpha, x):
    """D^alpha f_ell via the Leibniz rule on rho_ell * f, on reduced points.

    Requires the caller-supplied derivative oracle f_derivs(beta, X) for all
    beta <= alpha; cutoff derivatives are exact.
    """
    alpha = _multi_index(alpha)
    X, single, n = _as_points(x, len(alpha) if len(alpha) > 1 else None)
    if len(alpha) != n:
        raise InputError("multi-index dimension mismatch")
    cf = CutoffFamily(n, ell)
    Y = reduce_to_cell(X, lattice_period(ell, n))
    total = _leibniz(f_derivs, alpha, Y, lambda nu: cf.rho_deriv(Y, nu))
    return float(total[0]) if single else total


def _leibniz(f_derivs, alpha: tuple, Y: np.ndarray, rho_deriv) -> np.ndarray:
    """sum over nu + rho = alpha of alpha! / (nu! rho!) D^nu rho_ell D^rho f
    at the reduced points Y, with rho_deriv(nu) giving D^nu rho_ell there.

    The pairs nu + rho = alpha are the entries of the (n, |alpha|) table's
    shift equal to alpha's index, taken in graded nu order; the coefficient,
    a quotient of exact integers, is the product of the coordinate binomials.
    """
    t = _mi_table(len(alpha), mi_order(alpha))
    a_idx = t.index.get(alpha)
    if a_idx is None:
        raise InputError(f"{alpha} is not a multi-index")
    total = np.zeros(Y.shape[0])
    for nu, rho in zip(*np.nonzero(t.shift == a_idx)):
        fvals = np.asarray(f_derivs(t.mis[rho], Y), dtype=float)
        total += t.fact[a_idx] / (t.fact[nu] * t.fact[rho]) * rho_deriv(t.mis[nu]) * fvals
    return total


# ---------------------------------------------------------------------------
# lattices


def _lattice_u(M: int) -> np.ndarray:
    """The 2M+1 uniform nodes 2 pi j / (2M+1) of one axis, in radians."""
    size = 2 * M + 1
    return 2.0 * math.pi * np.arange(size) / size


def _tensor_points(axis: np.ndarray, n: int) -> np.ndarray:
    """The (size^n, n) tensor lattice of one axis's coordinates, in C order."""
    # stack broadcast views, so the lattice exists once, as the result
    return np.stack(np.meshgrid(*([axis] * n), indexing="ij", copy=False), axis=-1).reshape(-1, n)


def _cell_axis(M: int, lam: float, period: float) -> np.ndarray:
    """One axis of the lattice x = lam u, reduced to the cell: the lattice is
    a tensor grid, so reducing each axis gives the reduced points."""
    return reduce_to_cell(lam * _lattice_u(M), period)


# typed, and reached only after CutoffFamily has checked n and ell
@lru_cache(maxsize=256, typed=True)
def _axis_cutoff(n: int, ell: int, M: int, a: int) -> np.ndarray:
    """sigma^(a)(y / ell) at the reduced coordinates y of one lattice axis."""
    y = _cell_axis(M, length_scale(ell, n), lattice_period(ell, n))
    out = profile_deriv(y / ell, a)
    out.flags.writeable = False
    return out


def _periodized_lattice(f_derivs, ell: int, alpha: tuple, M: int) -> np.ndarray:
    """D^alpha f_ell on the (2M+1)^n lattice x = lambda u, shaped (2M+1,)*n.

    f_derivs sees the whole reduced lattice once per Leibniz term. D^nu rho_ell
    is the outer product of per-axis factors, multiplied in axis order and
    divided by ell^|nu| as CutoffFamily.rho_deriv does per point, so the
    samples equal periodized_derivative's at the lattice points bitwise.
    """
    n = len(alpha)
    CutoffFamily(n, ell)  # checks n and ell before the cache sees them
    Y = _tensor_points(_cell_axis(M, length_scale(ell, n), lattice_period(ell, n)), n)

    def rho_deriv(nu):
        factors = [_axis_cutoff(n, ell, M, a) for a in nu]
        return reduce(np.multiply.outer, factors).reshape(-1) / ell ** mi_order(nu)

    return _leibniz(f_derivs, alpha, Y, rho_deriv).reshape((2 * M + 1,) * n)


# ---------------------------------------------------------------------------
# convolutions


def _conv_node_count(N: int, n: int) -> int:
    base = 4 * N + 1
    target = {1: max(512, 8 * N), 2: 96, 3: 48}.get(n, 48)
    return base * max(1, math.ceil(target / base))


# Largest smoothing lattice, from measured cost on one core: at n = 3 a
# call takes about 95 ns and 56 bytes (tracemalloc, f = cos of one
# coordinate) per lattice point, so the 127^3 lattice of N = 31 costs
# 0.18 s and 110 MB; at n = 1 the FFT of a length with a large prime factor
# dominates, 1.0 s and 57 MB for the 2 * 10^6 nodes of N = 262,143. Every
# n = 4 lattice of the default node count (51^4 points at N = 4) is above it.
_LATTICE_MAX_POINTS = 1 << 21


def _jackson_multipliers(N: int) -> np.ndarray:
    """Fourier multipliers c_q / c_0 of J_N for q = 0..degree: the integer
    self-convolution of the Fejer triangle Ntilde - |q| over its q = 0 term.

    In closed form, exact in int64 for Ntilde up to 2 * 10^6 (K = Ntilde):
    c_q = K (2 K^2 + 1) / 3 - K q^2 + (q^3 - q) / 2 for q <= K, and
    (r - 1) r (r + 1) / 6 with r = 2 K - q above, so the entries for
    q = degree - 1 and q = degree are exactly 0.
    """
    K = kernel_normalize(N).ntilde  # rejects N < 2
    lo = np.arange(K + 1, dtype=np.int64)
    r = 2 * K - np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    c = np.concatenate([K * (2 * K * K + 1) // 3 - K * lo * lo + (lo**3 - lo) // 2,
                        (r - 1) * r * (r + 1) // 6])
    return c / c[0]


def _jackson_smooth(sample, N: int, X: np.ndarray, lam: float) -> np.ndarray:
    """Jackson smoothing at the rows of X of a (2 pi lam)-periodic function.

    sample(M) returns the function at x = lam * u on the (2M+1)^n lattice of
    u, for 2M+1 = 2 floor(m/2) + 1 nodes per axis, m = _conv_node_count(N, n);
    the sample's Fourier coefficients up to the kernel degree are multiplied
    by the Jackson multipliers, and the resulting trigonometric polynomial is
    evaluated at X / lam in query blocks.
    """
    n = X.shape[1]
    _check_N(N)
    M = _conv_node_count(N, n) // 2
    if (2 * M + 1) ** n > _LATTICE_MAX_POINTS:
        raise InputError(f"the smoothing lattice would have {2 * M + 1}^{n} = "
                         f"{(2 * M + 1) ** n} points, above the limit of {_LATTICE_MAX_POINTS}")
    mult = _jackson_multipliers(N)
    D = mult.size - 1
    sym = np.concatenate([mult[:0:-1], mult])  # frequencies -D..D
    coeffs = _spectrum(sample(M), D) * reduce(np.multiply.outer, [sym] * n)
    smoothed = TensorTrigPoly(coeffs, D, lam)
    out = np.empty(X.shape[0])
    # per query point evaluate holds every axis's 2D+1 phases and the half
    # they mirror (3 n s float64 for s = 2D+1), the partial sum after the last
    # axis (s^(n-1) complex) and the one after the next axis (s^(n-2) complex)
    s = 2 * D + 1
    for blk in _blocks(X.shape[0], 3 * n * s + 2 * (s ** (n - 1) + s ** max(n - 2, 0))):
        out[blk] = smoothed.evaluate(X[blk] / lam)
    return out


def jackson_smooth_1d(f, N: int, x):
    """(L_N f)(x) for a bounded continuous 2pi-periodic f (plain 1D arrays)."""
    X, _, _ = _as_points(np.reshape(x, (-1, 1)))
    out = _jackson_smooth(
        lambda M: np.asarray(f(_cell_axis(M, 1.0, 2.0 * math.pi)), dtype=float),
        N, X, 1.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def smooth_EN(f, ell: int, N: int, x):
    """(E_N f_ell)(x): tensor convolution of the periodized f at scale lambda."""
    X, single, n = _as_points(x)
    out = _jackson_smooth(
        lambda M: _periodized_lattice(lambda beta, Y: f(Y), ell, (0,) * n, M),
        N, X, length_scale(ell, n))
    return float(out[0]) if single else out


def finite_rank_LNN(f_derivs, N: int, x, alpha, ell: int | None = None):
    """D^alpha (L_{N,ell} f)(x) = (E_N D^alpha f_ell)(x), default ell = N,
    with D^alpha f_ell sampled by the Leibniz rule of periodized_derivative."""
    alpha = _multi_index(alpha)
    n = len(alpha)
    X, single, n_pts = _as_points(x)
    if n_pts != n:
        raise InputError("point dimension does not match the multi-index")
    if ell is None:
        ell = N
    out = _jackson_smooth(lambda M: _periodized_lattice(f_derivs, ell, alpha, M),
                          N, X, length_scale(ell, n))
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# trigonometric analysis


@dataclass(frozen=True)
class TensorTrigPoly:
    """Trigonometric polynomial data fitted from uniform samples.

    ``coeffs`` holds complex Fourier coefficients for frequencies -M..M per
    axis (index 0 is frequency -M); ``scale`` is the x-unit length of one
    radian in the sampled variable (x = scale * u).
    """

    coeffs: np.ndarray
    M: int
    scale: float

    @property
    def n(self) -> int:
        return self.coeffs.ndim

    def tail_max(self, degree: int) -> float:
        """Largest |coefficient| with some frequency component > degree."""
        freqs = np.arange(-self.M, self.M + 1)
        mask = np.zeros(self.coeffs.shape, dtype=bool)
        for axis in range(self.n):
            shape = [1] * self.n
            shape[axis] = freqs.size
            mask |= np.abs(freqs).reshape(shape) > degree
        if not mask.any():
            return 0.0
        return float(np.max(np.abs(self.coeffs[mask])))

    def max_coeff(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def derivative(self, alpha) -> "TensorTrigPoly":
        """Derivative in x-units: multiply by (i q / scale)^alpha_i per axis."""
        out = self.coeffs.copy()
        freqs = np.arange(-self.M, self.M + 1)
        for axis, a in enumerate(alpha):
            if a == 0:
                continue
            shape = [1] * self.n
            shape[axis] = freqs.size
            out = out * (1j * freqs.reshape(shape) / self.scale) ** a
        return TensorTrigPoly(out, self.M, self.scale)

    def evaluate(self, u) -> np.ndarray:
        """Evaluate at u (radian units), shape (m, n) or (m,) for n=1."""
        U = np.atleast_2d(np.asarray(u, dtype=float))
        if U.shape[0] == 1 and U.shape[1] != self.n and U.shape[1] > 1 and self.n == 1:
            U = U.T
        # contract one axis at a time, last axis first, so no temporary holds
        # the (m, (2M+1)^n) product of all phases
        s = 2 * self.M + 1
        P = _phases(U, self.M)
        vals = P[:, -1] @ self.coeffs.reshape(-1, s).T
        for axis in range(self.n - 2, -1, -1):
            vals = np.einsum("pjq,pq->pj", vals.reshape(U.shape[0], -1, s), P[:, axis])
        return np.real(vals[:, 0])


def _phases(U: np.ndarray, M: int) -> np.ndarray:
    """e^{iqu} for q = -M..M at every coordinate u of U, shape U.shape +
    (2M+1,), as powers of the one exponential e^{iu} per coordinate: a
    running product over q >= 0 (its error grows like q eps) and the
    conjugates for q < 0."""
    P = np.empty(U.shape + (2 * M + 1,), dtype=complex)
    P[..., M] = 1.0
    P[..., M + 1:] = np.exp(1j * U)[..., None]
    np.cumprod(P[..., M:], axis=-1, out=P[..., M:])
    P[..., :M] = np.conj(P[..., :M:-1])
    return P


def _spectrum(samples: np.ndarray, D: int) -> np.ndarray:
    """Fourier coefficients for frequencies -D..D per axis (index 0 is -D) of
    real samples on the uniform (2M+1)^n lattice, D <= M.

    This is rfftn taken one axis at a time and cut to |q| <= D after each
    axis, so the later transforms run on the cut array: the real FFT of the
    last axis gives its frequencies 0..D, the complex FFTs of the others
    follow, and the negative last-axis half is mirrored in by
    c_{-q} = conj(c_q), so no full complex spectrum is formed.
    """
    n = samples.ndim
    size = samples.shape[0]
    half = np.fft.rfft(samples, axis=-1)[..., : D + 1]
    keep = np.arange(-D, D + 1) % size
    for axis in range(n - 1):
        half = np.take(np.fft.fft(half, axis=axis), keep, axis=axis)
    mirror = np.conj(half[(slice(None, None, -1),) * (n - 1) + (slice(D, 0, -1),)])
    return np.concatenate([mirror, half], axis=-1) / size**n


def fit_trig_poly(fn_of_u, M: int, n: int = 1, scale: float = 1.0) -> TensorTrigPoly:
    """Fit Fourier coefficients from samples on the uniform (2M+1)^n grid.

    fn_of_u receives radian-unit points ((m, n) array) and must be
    2pi-periodic per coordinate.
    """
    size = 2 * M + 1
    samples = np.asarray(fn_of_u(_tensor_points(_lattice_u(M), n)), dtype=float)
    return TensorTrigPoly(_spectrum(samples.reshape((size,) * n), M), M, scale)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class ApproxReport:
    """Empirical constants of the periodization/smoothing pipeline on a grid."""

    N: int
    ell: int
    norm_f: float
    norm_f_ell: float
    norm_EN: float
    sup_error: float
    sup_errors_per_alpha: dict
    c_ell_emp: float
    c_ell_EN_emp: float
    c_N_emp: float
    n_grid: int
    n_pairs: int

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "ell": self.ell,
            "sampled_norm_f": self.norm_f,
            "sampled_norm_f_ell": self.norm_f_ell,
            "sampled_norm_EN_f_ell": self.norm_EN,
            "sup_error_C_k": self.sup_error,
            "sup_errors_per_alpha": {str(a): v for a, v in self.sup_errors_per_alpha.items()},
            "empirical_C_ell": self.c_ell_emp,
            "empirical_C_ell_EN": self.c_ell_EN_emp,
            "empirical_c_N": self.c_N_emp,
            "n_grid": self.n_grid,
            "n_pairs": self.n_pairs,
        }


def error_report(f_derivs, ell: int, N: int, ctx: NormContext, grid,
                 pairs=None) -> ApproxReport:
    """Empirical ratios ||f_ell||/||f||, ||E_N f_ell||/||f|| and the sampled
    C^k error ||f_ell - E_N f_ell|| / ||f|| on a grid in the fundamental cell
    and on pairs of points in it (default: consecutive grid points). The
    sampled-norm routine samples f, f_ell and E_N f_ell once per alpha, so the
    Jackson engine samples each lattice once."""
    _check_N(N)
    if pairs is None:
        X, _, _ = _sample_points(ctx, grid, [])
        pairs = list(zip(X[:-1], X[1:]))
    X, px, py = _sample_points(ctx, grid, pairs)
    if np.max(np.abs(np.vstack([X, px, py]))) >= 0.5 * lattice_period(ell, ctx.n):
        raise InputError("grid and pair endpoints must lie inside the fundamental cell")

    norm_f, _ = _sampled_norm(ctx, f_derivs, X, px, py)
    norm_fl, fl_vals = _sampled_norm(
        ctx, lambda a, P: periodized_derivative(f_derivs, ell, a, P), X, px, py)
    norm_en, en_vals = _sampled_norm(
        ctx, lambda a, P: finite_rank_LNN(f_derivs, N, P, a, ell=ell), X, px, py)
    norm_f, norm_fl, norm_en = norm_f.value, norm_fl.value, norm_en.value

    errs = {a: float(np.max(np.abs(fl_vals[a] - en_vals[a]))) for a in fl_vals}
    sup_err = max(errs.values())

    def ratio(v):
        return 0.0 if norm_f == 0.0 else v / norm_f

    return ApproxReport(
        N, ell, norm_f, norm_fl, norm_en, sup_err, errs,
        ratio(norm_fl), ratio(norm_en), ratio(sup_err), len(X), len(px),
    )


@dataclass(frozen=True)
class ConvergenceVerdict:
    converged: bool
    failing_condition: str | None  # "norm_bound" (a) or "pointwise" (b)
    sampled_norms: tuple
    norm_cap: float
    pointwise_residual: float
    tol: float


def weakstar_check(fns, ctx: NormContext, probes, norm_cap: float,
                   grid=None, pairs=None, tol: float = 1e-3) -> ConvergenceVerdict:
    """Check the two sampled conditions characterizing weak* convergence of a
    sequence: (a) sampled norms uniformly bounded by the cap, (b) per-probe
    Cauchy-style convergence of all D^alpha f_i(x) within tol (tail of the
    last half against the final element). The grid defaults to the probes,
    the pairs to 1e-3 steps along axis 0 and consecutive grid points; the
    sampled-norm routine samples each function once per alpha for its norm."""
    P = np.atleast_2d(np.asarray(probes, dtype=float))
    if P.shape[1] != ctx.n:
        raise InputError("probe dimension mismatch")
    if not np.all(np.isfinite(P)):
        raise InputError("probes must be finite")
    if grid is None:
        grid = P
    if pairs is None:
        G, _, _ = _sample_points(ctx, grid, [])
        step = np.zeros(ctx.n)
        step[0] = 1e-3
        pairs = [(g, g + step) for g in G] + list(zip(G[:-1], G[1:]))
    G, px, py = _sample_points(ctx, grid, pairs)
    mis = multi_indices(ctx.n, ctx.k)

    norms = [_sampled_norm(ctx, f, G, px, py)[0].value for f in fns]
    if any(v > norm_cap for v in norms):
        return ConvergenceVerdict(False, "norm_bound", tuple(norms), norm_cap,
                                  math.inf, tol)

    residual = 0.0
    half = len(fns) // 2
    for a in mis:
        vals = np.stack([np.asarray(f(a, P), dtype=float) for f in fns])
        tail = np.abs(vals[half:] - vals[-1])
        residual = max(residual, float(np.max(tail)))
    if residual > tol:
        return ConvergenceVerdict(False, "pointwise", tuple(norms), norm_cap, residual, tol)
    return ConvergenceVerdict(True, None, tuple(norms), norm_cap, residual, tol)
