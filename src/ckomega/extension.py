"""Extension operators for scattered data.

Two constructions with exact classical counterparts: the McShane/Whitney
infimal-convolution extension for k = 0 in any dimension (norm preserving,
c = 1, after clamping to the data's sup bound), and the 1D piecewise
two-point Hermite blend of degree 2k+1 for general k, which is linear in the
data and admits a depth audit (the value at any x is a fixed linear
combination of at most 2(k+1) jet entries at no more than two source points).

On a gap [a, b], h = b - a, s = (x - a)/h, the blend is D^j F(x) = sum over
e in {a, b}, r <= k of h^(r-j) psi_{e,r}^(j)(s) c_r(e), with c_r(e) the
order-r jet entry at e and psi_{e,r} the two-point Hermite cardinal
polynomials (de Boor, A Practical Guide to Splines, 1978), tabulated once
per k. Values, jets and depth audits all read these weights.

Outside the data hull the 1D extension freezes: the nearest endpoint's Taylor
polynomial is multiplied by the smooth profile equal to 1 up to distance 1
and 0 beyond distance 2, which keeps the extension bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cutoff import profile, profile_deriv
from .errors import InputError
from .fields import Jet, NormContext, WhitneyField, _blocks
from .modulus import Modulus
from .whitney import whitney_lambda

_VARIANTS = ("min", "max", "average")


@dataclass(frozen=True)
class McShaneExtension:
    """Infimal-convolution extension of k=0 data, clamped to [-M, M].

    lam is the exact k=0 trace seminorm of the data (max pairwise
    |f(x)-f(y)| / omega(||x-y||)), bitwise whitney_lambda(...).lam_osc;
    M = max |f| on the data set. The extension has omega-seminorm <= lam (each
    branch is a min/max of functions with seminorm <= lam; clamping is
    1-Lipschitz in value) and sup <= M, so the full trace norm is preserved
    exactly.

    Calls sweep the (queries x m) distance matrix in query blocks sized like
    the pair blocks of whitney_lambda. A query at distance exactly 0 from a
    data point returns the first such datum bitwise.
    """

    field: WhitneyField
    omega: Modulus
    lam: float
    sup_bound: float
    variant: str = "min"

    def __call__(self, x):
        X = np.atleast_2d(np.asarray(x, dtype=float))
        if X.shape[1] != self.field.n:
            raise InputError("query dimension mismatch")
        pts = self.field.points_array()
        vals = self.field.coeff_matrix()[:, 0]
        out = np.empty(X.shape[0])
        for blk in _blocks(X.shape[0], pts.size):
            d = np.linalg.norm(X[blk, None, :] - pts[None, :, :], axis=-1)  # (B, m)
            zero = d == 0.0
            # omega rejects t = 0; hit rows are overwritten below
            spread = self.lam * self.omega(np.where(zero, 1.0, d))
            upper = np.min(vals + spread, axis=1)
            lower = np.max(vals - spread, axis=1)
            if self.variant == "min":
                v = upper
            elif self.variant == "max":
                v = lower
            else:
                v = 0.5 * (upper + lower)
            v = np.minimum(np.maximum(v, -self.sup_bound), self.sup_bound)
            hit = zero.any(axis=1)
            # interpolation is bitwise: the first datum at distance 0, not a min of rounded terms
            v[hit] = vals[np.argmax(zero[hit], axis=1)]
            out[blk] = v
        return float(out[0]) if np.ndim(x) == 1 or np.ndim(x) == 0 else out


def mcshane_extension(field: WhitneyField, omega: Modulus, variant: str = "min") -> McShaneExtension:
    if field.k != 0:
        raise InputError("McShane extension is k=0 only")
    if variant not in _VARIANTS:
        raise InputError(f"variant must be one of {_VARIANTS}")
    lam = whitney_lambda(field, NormContext(0, field.n, omega)).lam_osc
    vals = field.coeff_matrix()[:, 0]
    return McShaneExtension(field, omega, lam, float(np.max(np.abs(vals))), variant)


def mcshane_extend(field: WhitneyField, omega: Modulus, x, variant: str = "min"):
    """One-shot evaluation of the clamped McShane extension at x."""
    return mcshane_extension(field, omega, variant)(x)


# ---------------------------------------------------------------------------
# 1D Hermite blend


@lru_cache(maxsize=None)
def _cardinal(k: int) -> np.ndarray:
    """Cardinal polynomials psi_{0,r}(s) = s^r / r! (1 - s)^(k+1) sum_{i <= k-r}
    C(k+i, i) s^i and psi_{1,r}(s) = (-1)^r psi_{0,r}(1 - s), r <= k, whose
    j-th derivatives (j <= k) are 1 at endpoint e if j = r, else 0. Entry
    [0, p, j, e, r] multiplies s^p in psi_{e,r}^(j)(s), [1, p, j, e, r] u^p in
    the same function of u = 1 - s: evaluating near s = 1 in s loses about
    1e-10 relative at k = 3 and gaps of 1e-3. r! psi has integer coefficients,
    so every entry is rounded once."""
    deg = 2 * k + 1
    one_minus = np.array([[math.comb(p, q) * (-1) ** q for q in range(deg + 1)] for p in range(deg + 1)])
    table = np.zeros((2, deg + 1, k + 1, 2, k + 1))
    for r in range(k + 1):
        left = np.zeros(deg + 1, dtype=np.int64)  # r! psi_{0,r}
        left[r:] = np.convolve(one_minus[k + 1, : k + 2], [math.comb(k + i, i) for i in range(k - r + 1)])
        for e, poly in enumerate((left, (-1) ** r * left @ one_minus)):
            for j in range(k + 1):
                perm = [math.perm(p, j) for p in range(j, deg + 1)]
                table[0, : deg + 1 - j, j, e, r] = poly[j:] * perm / math.factorial(r)
    jr = np.arange(k + 1)
    table[1] = (-1.0) ** (jr[:, None, None] + jr) * table[0, :, :, ::-1]
    table.flags.writeable = False  # shared by every caller of the cache
    return table


@dataclass(frozen=True)
class HermiteExtension1D:
    """Piecewise two-point Hermite extension of a 1D Whitney field."""

    field: WhitneyField
    knots: tuple[float, ...]
    order: tuple[int, ...]  # field indices sorted by knot

    @property
    def k(self) -> int:
        return self.field.k

    @cached_property
    def _arrays(self):
        """knots, order, jet coefficients; per gap its stencil and h^(r-j)."""
        knots, order, jr = np.asarray(self.knots), np.asarray(self.order), np.arange(self.k + 1)
        hpow = np.diff(knots)[:, None, None, None] ** (jr - jr[:, None, None])
        return knots, order, self.field.coeff_matrix(), np.stack([order[:-1], order[1:]], 1), hpow

    def _weights(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Stencils idx (P, 2) and weights w (P, k+1, 2, k+1) with D^j F(x_q) =
        sum_{e, r} w[q, j, e, r] c_r(idx[q, e]): identity weights on a knot,
        the cardinal table in a gap, the hull endpoint's Taylor polynomial
        times the clamp profile (Leibniz) in a tail, where the one point is
        repeated with zero weights. A row does not depend on P."""
        xs = np.asarray(xs, dtype=float).ravel()
        if not np.isfinite(xs).all():
            raise InputError("queries must be finite")
        k = self.k
        knots, order, _, pairs, hpow = self._arrays
        pos = np.searchsorted(knots, xs)
        hit = knots[np.minimum(pos, knots.size - 1)] == xs
        left, right = xs < knots[0], xs > knots[-1]
        gap = ~(hit | left | right)
        idx = np.empty((xs.size, 2), dtype=np.intp)
        w = np.zeros((xs.size, k + 1, 2, k + 1))

        if np.count_nonzero(hit):
            idx[hit] = order[pos[hit], None]
            w[hit, :, 0, :] = np.eye(k + 1)

        if np.count_nonzero(gap):
            g = pos[gap] - 1
            idx[gap] = pairs[g]
            a, b, x = knots[g], knots[g + 1], xs[gap]
            s, u = (x - a) / (b - a), (b - x) / (b - a)
            v = np.minimum(s, u)[:, None, None, None]
            table = _cardinal(k)[(u < s).astype(np.intp)]
            psi = table[:, -1] * v
            for p in range(2 * k, 0, -1):  # Horner
                psi += table[:, p]
                psi *= v
            w[gap] = (psi + table[:, 0]) * hpow[g]

        tail = left | right
        if np.count_nonzero(tail):
            end = np.where(left[tail], 0, knots.size - 1)
            idx[tail] = order[end, None]
            t = xs[tail] - knots[end]
            sig = np.empty((t.size, k + 1, 1))  # D^i of the clamp of |t|, times t^p / p! below
            for i in range(k + 1):
                sig[:, i, 0] = profile_deriv(np.abs(t), i)
            sig[:, 1::2] *= np.sign(t)[:, None, None]
            outer = sig * (t[:, None, None] ** np.arange(k + 1) / [math.factorial(p) for p in range(k + 1)])
            wt = outer.copy()
            for i in range(1, k + 1):  # D^j (T sigma) = sum_i C(j, i) T^(i) sigma^(j-i)
                binom = [[math.comb(j, i)] for j in range(i, k + 1)]
                wt[:, i:, i:] += binom * outer[:, : k + 1 - i, : k + 1 - i]
            w[tail, :, 0, :] = wt
        return idx, w

    def jets(self, xs) -> np.ndarray:
        """(P, k+1) array of D^j F at the points of xs (flattened), j = 0..k."""
        xs = np.asarray(xs, dtype=float).ravel()
        k = self.k
        out = np.empty((xs.size, k + 1))
        for blk in _blocks(xs.size, 8 * (k + 1) ** 2 * (k + 2)):
            idx, w = self._weights(xs[blk])
            terms = w * self._arrays[2][idx][:, None]  # (B, k+1, 2, k+1)
            acc = terms[..., 0]
            for r in range(1, k + 1):  # fixed order: a row does not depend on the block
                acc = acc + terms[..., r]
            out[blk] = acc[..., 0] + acc[..., 1]
        return out

    def evaluate_jet(self, x: float) -> Jet:
        """Values D^alpha F(x) for alpha <= k, packed as a jet at x."""
        x = float(x)
        return Jet((x,), tuple(self.jets([x])[0].tolist()), self.k)

    def __call__(self, x):
        vals = self.jets(x)[:, 0]
        return float(vals[0]) if np.ndim(x) == 0 else vals


def hermite_extension(field: WhitneyField) -> HermiteExtension1D:
    if field.n != 1:
        raise InputError("Hermite blend extension is 1D only")
    order = tuple(int(i) for i in np.argsort([p[0] for p in field.points]))
    knots = tuple(field.points[i][0] for i in order)
    return HermiteExtension1D(field, knots, order)


def hermite_extend_1d(field: WhitneyField, x) -> Jet:
    """One-shot jet of the Hermite blend extension at x."""
    return hermite_extension(field).evaluate_jet(float(x))


# ---------------------------------------------------------------------------
# depth audit


NOT_LINEAR = "NOT_LINEAR"


@dataclass(frozen=True)
class DepthRecord:
    """Active source points and weights reproducing F(x) for a linear operator.

    entries are (field point index, derivative order alpha, weight), the
    nonzero order-0 weights at x; applied to the jet entries of any data they
    reproduce the extension value at x. constant_residual is |sum of the
    alpha = 0 weights - the exact extension of constant-one data|: 1 inside
    the hull (the blend reproduces constants), the clamp profile outside.
    """

    linear: bool
    entries: tuple
    active_points: int
    constant_residual: float | None

    @property
    def marker(self):
        return None if self.linear else NOT_LINEAR


def depth_audit(op, x) -> DepthRecord:
    """Identify the source points and weights behind a single evaluation."""
    if isinstance(op, McShaneExtension):
        return DepthRecord(False, (), 0, None)
    if not isinstance(op, HermiteExtension1D):
        raise InputError("depth audit supports McShane and 1D Hermite operators")
    x = float(x)
    idx, w = op._weights([x])
    active = list(dict.fromkeys(int(i) for i in idx[0]))  # a repeated index is one point
    entries = tuple((i, a, float(w[0, 0, e, a])) for e, i in enumerate(active)
                    for a in range(op.k + 1) if w[0, 0, e, a] != 0.0)
    const_weight = sum(wt for _, a, wt in entries if a == 0)
    dist = max(op.knots[0] - x, x - op.knots[-1], 0.0)
    return DepthRecord(True, entries, len(active), abs(const_weight - float(profile(dist))))
