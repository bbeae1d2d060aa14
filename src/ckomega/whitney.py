"""Smoothness norms on jets, fields and callables.

Implements derivative evaluation of Taylor polynomials, the pairwise
compatibility seminorm on Whitney fields (sup part and oscillation part with
denominator ||x-y||^(k-|alpha|) * omega(||x-y||)), sampled C^{k,omega} norm
estimates for callables (reported as lower bounds), and higher-order chain
rule pullbacks of jets through a differentiable map.

One sampled-norm routine serves ck_norm_estimate and jackson's error_report
and weakstar_check: _sample_points parses and checks the grid and the pairs
before any call, and _sampled_norm samples the derivative oracle once per
alpha, the top orders on the grid and the pair ends together.

The Taylor arithmetic is the multi-index table's (fields._mi_table):
taylor_eval and whitney_lambda re-expand jets across a step with its
weights and reexpand, and the chain rule here composes truncated Taylor
series through its recurrence and its list of sums alpha + gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .fields import Jet, NormContext, WhitneyField, _blocks, _distances, _mi_table, _multi_index, mi_order


def taylor_eval(j: Jet, alpha, z) -> float:
    """D^alpha of the jet's Taylor polynomial, evaluated at z.

    T(z) = sum_{|beta| <= k} c_beta / beta! (z - x)^beta, so
    D^alpha T(z) = sum_gamma c_{alpha+gamma} / gamma! (z - x)^gamma, the
    jet re-expanded across the step z - x.
    """
    alpha = _multi_index(alpha)
    if mi_order(alpha) > j.k:
        raise InputError(f"derivative order {alpha} exceeds jet order {j.k}")
    t = _mi_table(j.n, j.k)
    a_idx = t.index.get(alpha)
    if a_idx is None:
        raise InputError(f"{alpha} is not a multi-index on R^{j.n}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (j.n,):
        raise InputError(f"evaluation point has dimension {z.shape}, jet has n={j.n}")
    if not np.isfinite(z).all():
        raise InputError(f"evaluation point must be finite, got {z.tolist()}")
    w = t.weights((z - np.asarray(j.point))[:, None])
    return float(t.reexpand(w, np.asarray(j.coeffs)[:, None])[a_idx, 0])


@dataclass(frozen=True)
class LambdaReport:
    """Result of the pairwise field seminorm: lam = max(lam_sup, lam_osc)."""

    lam_sup: float
    lam_osc: float
    lam: float
    sup_witness: tuple  # (point index, alpha)
    osc_witness: tuple | None  # (i, j, z index 0/1, alpha) or None if single point


def whitney_lambda(field: WhitneyField, ctx: NormContext) -> LambdaReport:
    """Smallest constant bounding both the jet sizes and the pairwise Taylor
    oscillations of a Whitney field.

    lam_sup = max over points and |alpha| <= k of |c_alpha|;
    lam_osc = max over ordered pairs (x, y), z in {x, y}, |alpha| <= k of
        |D^alpha (T_x - T_y)(z)| / (||x-y||^(k-|alpha|) omega(||x-y||)).

    For k = 0 this equals the exact trace norm of the data (McShane). Every k
    runs through one vectorized sweep over the pairs i < j, taken in blocks
    whose per-pair temporaries (O(J) elements per pair: the monomial weights,
    the gathered jets and the re-expanded derivatives) stay below
    _BLOCK_ELEMS elements, a size that keeps them in the L2 cache. A block
    spells out its pairs without a search per pair: the rows i by repeating
    the block's row range, j by one shift per row; points and jets are
    gathered with take from C-contiguous coordinate-major copies; and each
    distance is raised once to each of the k exponents k - r > 0, the order-k
    rows dividing by omega alone. Pair distances come from the shared kernel
    fields._distances, so lambda and the McShane queries see the same
    distance bits for the same two points. Witnesses are the first maximum in
    lexicographic order of (point, alpha) and (i, j, z, alpha) respectively,
    whatever the block size; osc_witness is None only for a single-point
    field (constant data still has a witness). An inf or NaN ratio raises NumericalError.
    """
    if field.k != ctx.k or field.n != ctx.n:
        raise InputError("field inconsistent with norm context")
    k, n = ctx.k, ctx.n
    t = _mi_table(n, k)
    mis = t.mis
    coeffs = field.coeffs

    flat = np.abs(coeffs)
    i_sup, a_sup = np.unravel_index(int(np.argmax(flat)), flat.shape)
    lam_sup = float(flat[i_sup, a_sup])
    sup_witness = (int(i_sup), mis[a_sup])

    m = len(field)
    lam_osc = 0.0
    osc_witness = None
    if m > 1:
        J = len(mis)
        cT = coeffs.T.copy()
        ptsT = field.points.T.copy()  # C order, so take gathers whole rows
        # pairs i < j in row-major order, as np.triu_indices: row i holds the
        # pair numbers starts[i] <= p < starts[i + 1], and its j is p + shift[i]
        rows = np.arange(m)
        starts = rows * (2 * m - rows - 1) // 2
        shift = rows + 1 - starts
        # the graded layout puts each order r in one run of rows, order[r:r+2]
        expo = np.arange(k, 0, -1)[:, None]  # k - r for r < k; order k divides by omega alone
        order = np.searchsorted(t.order, np.arange(k + 2))
        # elements per pair alive at the peak, in the second t.reexpand: the
        # indices (2), dz (n; the gathered points, 2n, are dropped once the
        # distances are taken), dist and omega (2), den (k), w and the two
        # gathered jets (3J), ratios (2J), and t.reexpand's out and tmp (2J)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for blk in _blocks(m * (m - 1) // 2, 7 * J + n + k + 4):
                # rows first to last touched by the block, and their pair counts in it
                first, last = np.searchsorted(starts, (blk.start, blk.stop - 1), side="right") - 1
                edges = np.clip(starts[first:last + 2], blk.start, blk.stop)
                counts = np.diff(edges)
                ii = np.repeat(rows[first:last + 1], counts)
                jj = np.repeat(shift[first:last + 1], counts)
                jj += np.arange(blk.start, blk.stop)
                xi, xj = ptsT.take(ii, axis=1), ptsT.take(jj, axis=1)
                dist = _distances(xi, xj)
                dz = np.subtract(xi, xj, out=xi)  # shape (n, B)
                del xj
                om = np.atleast_1d(ctx.modulus(dist))
                den = dist ** expo * om  # (k, B): ||x_i - x_j||^(k - r) omega for r < k
                w = t.weights(dz)
                ci, cj = cT.take(ii, axis=1), cT.take(jj, axis=1)  # C order, as reexpand reads rows
                ratios = np.empty((2, J, len(ii)))
                # z = x_i: T_i derivs are the raw coefficients, T_j re-expanded across dz
                np.subtract(ci, t.reexpand(w, cj), out=ratios[0])
                # z = x_j: T_i re-expanded across -dz
                w *= t.sign[:, None]
                np.subtract(t.reexpand(w, ci), cj, out=ratios[1])
                np.abs(ratios, out=ratios)
                for r in range(k):
                    ratios[:, order[r]:order[r + 1]] /= den[r]
                ratios[:, order[k]:] /= om
                # strict > keeps the earliest block's maximum: lexicographic first
                best = float(ratios.max())
                if not math.isfinite(best):
                    i, j = (int(a[np.argmax(~np.isfinite(ratios).all(axis=(0, 1)))]) for a in (ii, jj))
                    raise NumericalError(f"a Taylor ratio of the points at indices {i} and {j} is not "
                                         f"finite: {field.points[[i, j]].tolist()}")
                if osc_witness is None or best > lam_osc:
                    # first maximum in (pair, z, alpha) order
                    p_idx = int(np.argmax(np.max(ratios, axis=(0, 1))))
                    z_idx, a_idx = np.unravel_index(int(np.argmax(ratios[:, :, p_idx])), (2, J))
                    lam_osc = float(ratios[z_idx, a_idx, p_idx])
                    osc_witness = (int(ii[p_idx]), int(jj[p_idx]), int(z_idx), mis[a_idx])

    lam = max(lam_sup, lam_osc)
    return LambdaReport(lam_sup, lam_osc, lam, sup_witness, osc_witness)


@dataclass(frozen=True)
class NormEstimate:
    """Sampled maxima of the sup part and the order-k oscillation seminorm.

    Both are lower bounds on the true quantities (suprema over R^n are not
    computable); the defining sample is carried along.
    """

    sup_part: float
    seminorm_part: float
    n_grid: int
    n_pairs: int

    @property
    def value(self) -> float:
        return max(self.sup_part, self.seminorm_part)


def ck_norm_estimate(deriv, ctx: NormContext, sample, pair_sample) -> NormEstimate:
    """Sampled C^{k,omega} norm of a callable with derivatives.

    Parameters
    ----------
    deriv : callable(alpha, x) -> float
        Returns D^alpha f(x) for |alpha| <= k; x is a length-n array.
    sample : (m, n) array of grid points for the sup part.
    pair_sample : list of (x, y) pairs with x != y for the seminorm part.
    """
    X, px, py = _sample_points(ctx, sample, pair_sample)
    return _sampled_norm(ctx, lambda alpha, P: [float(deriv(alpha, x)) for x in P], X, px, py)[0]


def _sample_points(ctx: NormContext, grid, pairs):
    """The grid as an (m, n) float array and the pair ends as two (p, n)
    arrays px, py: the one parser of a sampled norm's sample. Raises
    InputError, before any function is sampled, if the grid is empty, a point
    is not in R^n (a pair end may be a scalar when n = 1) or not finite, or
    a pair's ends coincide."""
    n = ctx.n
    try:
        X = np.atleast_2d(np.asarray(grid, dtype=float))
        ends = np.asarray([(x, y) for x, y in pairs], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"sample points must be points of R^{n}: {exc}") from exc
    if n == 1 and ends.ndim == 2:
        ends = ends[:, :, None]
    if X.size == 0:
        raise InputError("empty sample grid")
    if X.ndim != 2 or X.shape[1] != n:
        raise InputError(f"sample grid points must lie in R^{n}, got an array of shape {X.shape}")
    if len(ends) and ends.shape[1:] != (2, n):
        raise InputError(f"sample pairs need two ends in R^{n}, got an array of shape {ends.shape}")
    ends = ends.reshape(-1, 2, n)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(ends))):
        raise InputError("sample grid and pair endpoints must be finite")
    px, py = ends[:, 0], ends[:, 1]
    if np.any(_distances(px.T, py.T) == 0.0):
        raise InputError("pair sample contains coincident endpoints")
    return X, px, py


def _sampled_norm(ctx: NormContext, oracle, X, px, py):
    """The NormEstimate of f on a sample from _sample_points, and
    {alpha: D^alpha f on X}.

    oracle(alpha, P) returns D^alpha f on the rows of P; it is called once per
    alpha, on X for |alpha| < k and on X, px and py stacked for |alpha| = k,
    the only order the seminorm reads. A non-finite value raises
    NumericalError naming alpha and the point.
    """
    m, p = len(X), len(px)
    t = _mi_table(ctx.n, ctx.k)
    stacked = np.vstack([X, px, py])
    om = ctx.modulus(_distances(px.T, py.T)) if p else None
    values, sup, semi = {}, 0.0, 0.0
    for alpha, order in zip(t.mis, t.order):
        P = stacked if order == ctx.k else X
        v = np.asarray(oracle(alpha, P), dtype=float)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise NumericalError(f"derivative {alpha} at {P[bad[0]]} is not finite")
        values[alpha] = v[:m]
        sup = max(sup, float(np.max(np.abs(v[:m]))))
        if order == ctx.k and p:
            semi = max(semi, float(np.max(np.abs(v[m:m + p] - v[m + p:]) / om)))
    return NormEstimate(sup, semi, m, p), values


# ---------------------------------------------------------------------------
# higher-order chain rule


def faa_di_bruno_pullback(f_jet_at_Hx: Jet, H_jets_at_x, alpha) -> float:
    """D^alpha (f o H)(x) from the jet of f at H(x) and the jets of H at x.

    Composes truncated Taylor series to order K = |alpha| (Griewank-Walther,
    Evaluating Derivatives, ch. 13): dH_c, the Taylor coefficients of
    H_c - H_c(x), are H_c's jet divided by the factorials with the constant
    term 0; the powers dH^lam follow the parent/axis recurrence of f's
    multi-index table, each one truncated product through the x-table's
    shift; and D^alpha (f o H)(x) is alpha! times the dz^alpha coefficient of
    sum_{|lam| <= K} D^lam f(H(x)) / lam! dH^lam. Jets of order above K
    contribute their order-K prefix.
    """
    alpha = _multi_index(alpha)
    n, K = len(alpha), mi_order(alpha)
    if len(H_jets_at_x) != f_jet_at_Hx.n:
        raise InputError("need one component jet of H per coordinate of f's domain")
    for hj in H_jets_at_x:
        if hj.n != n:
            raise InputError("H component jets must live on the x-domain")
        if hj.k < K:
            raise InputError("H jets have insufficient order for this derivative")
    if f_jet_at_Hx.k < K:
        raise InputError("f jet has insufficient order for this derivative")
    tx, tf = _mi_table(n, K), _mi_table(f_jet_at_Hx.n, K)
    a_idx = tx.index.get(alpha)
    if a_idx is None:
        raise InputError(f"{alpha} is not a multi-index on R^{n}")

    J = len(tx.mis)
    dH = np.array([hj.coeffs[:J] for hj in H_jets_at_x]) / tx.fact
    dH[:, 0] = 0.0
    # the truncated product of series a and b adds a[i] b[j] to entry shift[i, j] < J
    left, right, target = tx.sums()
    powers = np.zeros((len(tf.mis), J))
    powers[0, 0] = 1.0
    for lam in range(1, len(tf.mis)):
        terms = powers[tf.parent[lam], left] * dH[tf.axis[lam], right]
        powers[lam] = np.bincount(target, weights=terms, minlength=J)
    f_taylor = np.asarray(f_jet_at_Hx.coeffs[: len(tf.mis)]) / tf.fact
    return float(tx.fact[a_idx] * (f_taylor @ powers[:, a_idx]))
