"""Smoothness norms on jets, fields and callables.

Implements derivative evaluation of Taylor polynomials, the pairwise
compatibility seminorm on Whitney fields (sup part and oscillation part with
denominator ||x-y||^(k-|alpha|) * omega(||x-y||)), sampled C^{k,omega} norm
estimates for callables (reported as lower bounds), and higher-order chain
rule pullbacks of jets through a differentiable map.

One Taylor re-expansion operator, D^alpha T(x + dz) = sum_gamma dz^gamma /
gamma! c_{alpha+gamma}, serves taylor_eval, whitney_lambda and the predual
bracket's rows: the monomials come from a recurrence (one product each, no
powers), the sum over gamma runs in a fixed order, and a batch of B steps
needs O(J) elements per step, J = dim P_k.
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
    multi_indices,
    n_coefficients,
)


def taylor_eval(j: Jet, alpha, z) -> float:
    """D^alpha of the jet's Taylor polynomial, evaluated at z.

    T(z) = sum_{|beta| <= k} c_beta / beta! (z - x)^beta, so
    D^alpha T(z) = sum_gamma c_{alpha+gamma} / gamma! (z - x)^gamma, the
    jet re-expanded across the step z - x.
    """
    alpha = tuple(int(a) for a in alpha)
    if mi_order(alpha) > j.k:
        raise InputError(f"derivative order {alpha} exceeds jet order {j.k}")
    mis = multi_indices(j.n, j.k)
    if alpha not in mis:
        raise InputError(f"{alpha} is not a multi-index on R^{j.n}")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (j.n,):
        raise InputError(f"evaluation point has dimension {z.shape}, jet has n={j.n}")
    op = _reexpansion(j.n, j.k)
    w = op.weights((z - np.asarray(j.point))[:, None])
    return float(op.apply(w, np.asarray(j.coeffs)[:, None])[mis.index(alpha), 0])


# ---------------------------------------------------------------------------
# Taylor re-expansion operator


class _Reexpansion:
    """Re-expands order-k Taylor polynomials on R^n across a step dz:
    D^alpha T(x + dz) = sum_gamma dz^gamma / gamma! * c_{alpha+gamma}.

    Tables follow multi_indices(n, k), which is graded, so gamma - e_i comes
    before gamma and every alpha with |alpha| <= r comes before every alpha
    of larger order. For g >= 1, mis[g] = mis[parent[g]] + e_axis[g], axis
    being the last nonzero coordinate of gamma; fact[g] = gamma!,
    sign[g] = (-1)^|gamma|; shift[a, g] is the index of alpha + gamma, read
    only for the rows[g] first alpha, those with |alpha + gamma| <= k.
    """

    def __init__(self, n: int, k: int):
        mis = multi_indices(n, k)
        J = len(mis)
        index = {a: i for i, a in enumerate(mis)}
        self.parent = np.zeros(J, dtype=np.intp)
        self.axis = np.zeros(J, dtype=np.intp)
        for g, gamma in enumerate(mis[1:], start=1):
            self.axis[g] = max(i for i, e in enumerate(gamma) if e)
            self.parent[g] = index[tuple(e - (i == self.axis[g]) for i, e in enumerate(gamma))]
        self.fact = np.array([mi_factorial(g) for g in mis])
        self.sign = np.array([(-1.0) ** mi_order(g) for g in mis])
        self.rows = np.array([n_coefficients(n, k - mi_order(g)) for g in mis])
        self.shift = np.array(
            [[index.get(tuple(a + b for a, b in zip(alpha, gamma)), J) for gamma in mis]
             for alpha in mis],
            dtype=np.intp,
        )

    def weights(self, dz):
        """(J, B) weights dz^gamma / gamma! for the B steps in the columns of
        the (n, B) array dz; each monomial is one product of an earlier one
        with a coordinate of dz. The weights for -dz are these times sign."""
        w = np.empty((self.fact.size, dz.shape[1]))
        w[0] = 1.0
        for g in range(1, self.fact.size):
            np.multiply(w[self.parent[g]], dz[self.axis[g]], out=w[g])
        w /= self.fact[:, None]
        return w

    def apply(self, w, c):
        """(J, B) derivatives D^alpha, at base + dz, of the Taylor polynomials
        with coefficients in the columns of the (J, B) array c, for w =
        weights(dz). Terms are summed in the fixed order gamma = 0, 1, ..., so
        a column's value does not depend on B; gamma = 0 contributes c itself
        exactly, which is all there is for k = 0."""
        out = c.copy()
        tmp = np.empty_like(out)
        for g in range(1, w.shape[0]):
            r = self.rows[g]
            np.take(c, self.shift[:r, g], axis=0, out=tmp[:r])
            tmp[:r] *= w[g]
            out[:r] += tmp[:r]
        return out


@lru_cache(maxsize=None)
def _reexpansion(n: int, k: int) -> _Reexpansion:
    return _Reexpansion(n, k)


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
    _BLOCK_ELEMS elements. Witnesses are the first maximum in lexicographic
    order of (point, alpha) and (i, j, z, alpha) respectively; osc_witness is
    None only for a single-point field (constant data still has a witness).
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
        J = len(mis)
        op = _reexpansion(n, k)
        cT = coeffs.T.copy()
        ptsT = field.points_array().T
        orders = np.array([mi_order(a) for a in mis], dtype=float)
        # pairs i < j in row-major order, as np.triu_indices; row i starts at
        # pair number starts[i], so each block derives its own (i, j)
        rows = np.arange(m)
        starts = rows * (2 * m - rows - 1) // 2
        # elements per pair alive at the peak, in the second op.apply: dz (n),
        # dist and omega (2), den, w and the two gathered jets (4J), ratios
        # (2J), and op.apply's out and tmp (2J)
        for blk in _blocks(m * (m - 1) // 2, 8 * J + n + 2):
            p = np.arange(blk.start, blk.stop)
            ii = np.searchsorted(starts, p, side="right") - 1
            jj = p - starts[ii] + ii + 1
            dz = ptsT[:, ii] - ptsT[:, jj]  # x_i - x_j, shape (n, B)
            dist = np.linalg.norm(dz, axis=0)
            om = np.atleast_1d(ctx.modulus(dist))
            den = dist ** (k - orders)[:, None] * om  # (J, B)
            w = op.weights(dz)
            ci, cj = cT[:, ii], cT[:, jj]
            ratios = np.empty((2, J, len(ii)))
            # z = x_i: T_i derivs are the raw coefficients, T_j re-expanded across dz
            np.subtract(ci, op.apply(w, cj), out=ratios[0])
            # z = x_j: T_i re-expanded across -dz
            w *= op.sign[:, None]
            np.subtract(op.apply(w, ci), cj, out=ratios[1])
            np.abs(ratios, out=ratios)
            ratios /= den
            # first maximum in (pair, z, alpha) order
            p_idx = int(np.argmax(np.max(ratios, axis=(0, 1))))
            z_idx, a_idx = np.unravel_index(int(np.argmax(ratios[:, :, p_idx])), (2, J))
            best = float(ratios[z_idx, a_idx, p_idx])
            # strict > keeps the earliest block's maximum: lexicographic first
            if osc_witness is None or best > lam_osc:
                lam_osc = best
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
