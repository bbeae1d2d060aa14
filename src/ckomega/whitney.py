"""Smoothness norms on jets, fields and callables.

Implements derivative evaluation of Taylor polynomials, the pairwise
compatibility seminorm on Whitney fields (sup part and oscillation part with
denominator ||x-y||^(k-|alpha|) * omega(||x-y||)), sampled C^{k,omega} norm
estimates for callables (reported as lower bounds), and higher-order chain
rule pullbacks of jets through a differentiable map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericalError
from .fields import (
    Jet,
    NormContext,
    WhitneyField,
    _blocks,
    mi_add_unit,
    mi_factorial,
    mi_order,
    mi_sub,
    multi_indices,
)


def taylor_eval(j: Jet, alpha, z) -> float:
    """D^alpha of the jet's Taylor polynomial, evaluated at z.

    T(z) = sum_{|beta| <= k} c_beta / beta! (z - x)^beta, so
    D^alpha T(z) = sum_{beta >= alpha} c_beta / (beta-alpha)! (z - x)^(beta-alpha).
    """
    alpha = tuple(int(a) for a in alpha)
    if mi_order(alpha) > j.k:
        raise InputError(f"derivative order {alpha} exceeds jet order {j.k}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (j.n,):
        raise InputError(f"evaluation point has dimension {z.shape}, jet has n={j.n}")
    dz = z - np.asarray(j.point)
    total = 0.0
    for beta, c in zip(multi_indices(j.n, j.k), j.coeffs):
        rem = mi_sub(beta, alpha)
        if rem is None or c == 0.0:
            continue
        total += c / mi_factorial(rem) * float(np.prod(dz ** np.asarray(rem)))
    return total


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
    whose (block, J, J, n) re-expansion temporary stays below _BLOCK_ELEMS
    elements. Witnesses are the first maximum in lexicographic order of
    (point, alpha) and (i, j, z, alpha) respectively; osc_witness is None
    only for a single-point field (constant data still has a witness).
    """
    if field.k != ctx.k or field.n != ctx.n:
        raise InputError("field inconsistent with norm context")
    k, n = ctx.k, ctx.n
    mis = multi_indices(n, k)
    coeffs = field.coeff_matrix()

    flat = np.abs(coeffs)
    i_sup, a_sup = np.unravel_index(int(np.argmax(flat)), flat.shape)
    lam_sup = float(flat[i_sup, a_sup])
    sup_witness = (int(i_sup), mis[a_sup])

    m = len(field)
    lam_osc = 0.0
    osc_witness = None
    if m > 1:
        pow_mat, mask, fact = _taylor_tables(n, k)
        pts = field.points_array()
        orders = np.array([mi_order(a) for a in mis], dtype=float)
        idx = np.arange(m)
        all_i, all_j = np.nonzero(idx[:, None] < idx)  # i < j in row-major order, as np.triu_indices

        def apply(delta_z, c):
            # derivatives of the Taylor polynomials with coefficients c,
            # re-expanded at base + delta_z; batched over pairs
            mono = np.prod(delta_z[:, None, None, :] ** pow_mat[None], axis=-1)
            return np.einsum("pab,pb->pa", mono * mask[None] / fact[None], c)

        for blk in _blocks(len(all_i), pow_mat.size):
            ii, jj = all_i[blk], all_j[blk]
            dz = pts[ii] - pts[jj]  # x_i - x_j, shape (B, n)
            dist = np.linalg.norm(dz, axis=1)
            om = np.atleast_1d(ctx.modulus(dist))
            den = dist[:, None] ** (k - orders)[None, :] * om[:, None]  # (B, J)
            # z = x_i: T_i derivs are the raw coefficients, T_j re-expanded across dz
            num_zi = coeffs[ii] - apply(dz, coeffs[jj])
            # z = x_j: T_i re-expanded across -dz
            num_zj = apply(-dz, coeffs[ii]) - coeffs[jj]
            ratios = np.abs(np.stack([num_zi, num_zj], axis=1)) / den[:, None, :]  # (B, 2, J)
            flat_idx = int(np.argmax(ratios))
            best = float(ratios.reshape(-1)[flat_idx])
            # strict > keeps the earliest block's maximum: lexicographic first
            if osc_witness is None or best > lam_osc:
                lam_osc = best
                p_idx, z_idx, a_idx = np.unravel_index(flat_idx, ratios.shape)
                osc_witness = (int(ii[p_idx]), int(jj[p_idx]), int(z_idx), mis[a_idx])

    lam = max(lam_sup, lam_osc)
    return LambdaReport(lam_sup, lam_osc, lam, sup_witness, osc_witness)


@lru_cache(maxsize=None)
def _taylor_tables(n: int, k: int):
    """(J, J, n) exponent table with mask and factorials for batched
    re-expansion: entry [a, b] covers the beta-alpha monomial when beta >= alpha."""
    mis = multi_indices(n, k)
    J = len(mis)
    pow_mat = np.zeros((J, J, n))
    mask = np.zeros((J, J))
    fact = np.ones((J, J))
    for a_idx, alpha in enumerate(mis):
        for b_idx, beta in enumerate(mis):
            rem = mi_sub(beta, alpha)
            if rem is None:
                continue
            pow_mat[a_idx, b_idx, :] = rem
            mask[a_idx, b_idx] = 1.0
            fact[a_idx, b_idx] = mi_factorial(rem)
    return pow_mat, mask, fact


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
    pts = np.atleast_2d(np.asarray(sample, dtype=float))
    if pts.size == 0:
        raise InputError("empty sample grid")
    if pts.shape[1] != ctx.n:
        raise InputError("sample dimension mismatch")
    mis = multi_indices(ctx.n, ctx.k)
    pairs = list(pair_sample)
    px = np.array([x for x, _ in pairs], dtype=float).reshape(len(pairs), ctx.n)
    py = np.array([y for _, y in pairs], dtype=float).reshape(len(pairs), ctx.n)

    def at(alpha, X):
        return np.array([float(deriv(alpha, x)) for x in X])

    values = {alpha: at(alpha, pts) for alpha in mis}
    pair_values = {alpha: (at(alpha, px), at(alpha, py)) for alpha in mis
                   if mi_order(alpha) == ctx.k}
    return _sampled_norm(ctx, pts, values, px, py, pair_values)


def _sampled_norm(ctx: NormContext, grid, values, px, py, pair_values) -> NormEstimate:
    """Sampled sup part and order-k oscillation part of a function given by
    its derivative samples.

    values maps alpha to D^alpha f on the rows of grid; pair_values maps alpha
    to (D^alpha f(px), D^alpha f(py)) on the pairs (px[i], py[i]), of which
    only |alpha| = k enters the seminorm. A non-finite sample raises
    NumericalError naming alpha and the point; coincident pair endpoints
    raise InputError.
    """
    dists = np.linalg.norm(px - py, axis=1)
    if np.any(dists == 0.0):
        raise InputError("pair sample contains coincident endpoints")
    samples = [(alpha, grid, v) for alpha, v in values.items()]
    for alpha, (vx, vy) in pair_values.items():
        samples += [(alpha, px, vx), (alpha, py, vy)]
    for alpha, X, v in samples:
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise NumericalError(f"derivative {alpha} at {X[bad[0]]} is not finite")

    sup = max((float(np.max(np.abs(v))) for v in values.values() if v.size), default=0.0)
    semi = 0.0
    if len(dists):
        om = ctx.modulus(dists)
        for alpha, (vx, vy) in pair_values.items():
            if mi_order(alpha) == ctx.k:
                semi = max(semi, float(np.max(np.abs(vx - vy) / om)))
    return NormEstimate(sup, semi, len(grid), len(dists))


# ---------------------------------------------------------------------------
# higher-order chain rule


def _differentiate_terms(terms: dict, i: int, n_x: int, n_f: int) -> dict:
    """One partial derivative d/dx_i of a symbolic composition expansion.

    ``terms`` maps (lam, factors) -> integer coefficient, representing
    sum coeff * D^lam f(H(x)) * prod_{(c, beta) in factors} D^beta h_c(x);
    lam is a multi-index on f's domain (dimension n_f), each beta lives on
    the x-domain (dimension n_x). ``factors`` is a sorted tuple of
    (component, beta) pairs.
    """
    out: dict = {}

    def bump(key, c):
        out[key] = out.get(key, 0) + c

    for (lam, factors), coeff in terms.items():
        # chain: differentiate the outer factor D^lam f(H(x))
        for m in range(n_f):
            new_factors = tuple(sorted(factors + ((m, mi_add_unit((0,) * n_x, i)),)))
            bump((mi_add_unit(lam, m), new_factors), coeff)
        # product: differentiate each inner factor
        for idx, (c_comp, beta) in enumerate(factors):
            new_factors = tuple(
                sorted(factors[:idx] + ((c_comp, mi_add_unit(beta, i)),) + factors[idx + 1 :])
            )
            bump((lam, new_factors), coeff)
    return {key: c for key, c in out.items() if c != 0}


def faa_di_bruno_pullback(f_jet_at_Hx: Jet, H_jets_at_x, alpha) -> float:
    """D^alpha (f o H)(x) from the jet of f at H(x) and the jets of H at x.

    Built by repeated symbolic application of the one-variable chain and
    product rules to the composition, then evaluated against the jets; this
    realizes the multivariate higher-order chain rule expansion
    sum_{0 < |lam| <= |alpha|} D^lam f(H(x)) * P_lam([D^beta H(x)]).
    """
    alpha = tuple(int(a) for a in alpha)
    n = len(alpha)
    if len(H_jets_at_x) != f_jet_at_Hx.n:
        raise InputError("need one component jet of H per coordinate of f's domain")
    for hj in H_jets_at_x:
        if hj.n != n:
            raise InputError("H component jets must live on the x-domain")
        if hj.k < mi_order(alpha):
            raise InputError("H jets have insufficient order for this derivative")
    if f_jet_at_Hx.k < mi_order(alpha):
        raise InputError("f jet has insufficient order for this derivative")

    nf = f_jet_at_Hx.n  # dimension of f's domain
    zero = (0,) * nf
    terms = {(zero, ()): 1}
    for i, reps in enumerate(alpha):
        for _ in range(reps):
            terms = _differentiate_terms(terms, i, n, nf)

    total = 0.0
    for (lam, factors), coeff in terms.items():
        val = float(coeff) * f_jet_at_Hx.coeff(lam)
        if val == 0.0:
            continue
        for c_comp, beta in factors:
            val *= H_jets_at_x[c_comp].coeff(beta)
        total += val
    return total
