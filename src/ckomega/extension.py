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
per k. Values, jets and depth audits all read these weights. Where h^(r-j)
overflows float64 (h below about 1e-100 or above 1e100), knots stay exact
and a jet that is not finite raises NumericalError naming its gap.

Outside the data hull the 1D extension freezes: the nearest endpoint's Taylor
polynomial is multiplied by the smooth profile equal to 1 up to distance 1
and 0 beyond distance 2, which keeps the extension bounded; the Leibniz
weights take p! and C(j, i) = j! / (i! (j-i)!) from the multi-index table.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .cutoff import profile, profile_deriv
from .errors import InputError, NumericalError
from .fields import Jet, NormContext, WhitneyField, _blocks, _distances, _mi_table
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
        if not np.isfinite(X).all():
            raise InputError("queries must be finite")
        vals = self.field.coeffs[:, 0]
        out = np.empty(X.shape[0])
        # no distance exceeds the span's (rounding is monotone): search for inf only if it does
        with np.errstate(over="ignore"):
            wide = math.isinf(_distances(np.maximum(X.max(axis=0), self._pointsT.max(axis=1))[:, None],
                                         np.minimum(X.min(axis=0), self._pointsT.min(axis=1))[:, None])[0])
        # (query, point) elements alive at a block's peak: the distances,
        # omega's value (or a capped modulus's power and minimum) and the
        # spread (3), plus the == 0 mask and omega's argument checks, three
        # eighths of one; they are freed before the next block
        for blk in _blocks(X.shape[0], 4 * len(vals)):
            out[blk] = self._block(X[blk].T, vals, wide)
        return float(out[0]) if np.ndim(x) == 1 or np.ndim(x) == 0 else out

    @cached_property
    def _pointsT(self):  # coordinate-major, as the distance kernel reads them
        return self.field.points.T.copy()

    def _block(self, XT, vals, wide):
        """Values at the queries in the columns of XT; wide if a distance may overflow."""
        with np.errstate(over="ignore") if wide else nullcontext():
            d = _distances(XT[:, :, None], self._pointsT[:, None, :])  # (B, m)
        if wide and np.isinf(d).any():
            q, i = np.unravel_index(np.argmax(d), d.shape)  # the first inf
            raise NumericalError(f"the distance from the query {XT[:, q].tolist()} to the data point "
                                 f"{self.field.points[i].tolist()} overflows")
        zero = d == 0.0
        # omega rejects t = 0; hit rows are overwritten below
        np.copyto(d, 1.0, where=zero)
        spread = self.lam * self.omega(d)
        upper = np.min(np.add(vals, spread, out=d), axis=1)
        lower = np.max(np.subtract(vals, spread, out=spread), axis=1)
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
        return v


def mcshane_extension(field: WhitneyField, omega: Modulus, variant: str = "min") -> McShaneExtension:
    if field.k != 0:
        raise InputError("McShane extension is k=0 only")
    if variant not in _VARIANTS:
        raise InputError(f"variant must be one of {_VARIANTS}")
    lam = whitney_lambda(field, NormContext(0, field.n, omega)).lam_osc
    return McShaneExtension(field, omega, lam, float(np.max(np.abs(field.coeffs))), variant)


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


@dataclass(frozen=True, eq=False)
class HermiteExtension1D:
    """Piecewise two-point Hermite extension of a 1D Whitney field."""

    field: WhitneyField
    knots: np.ndarray  # the field's points, increasing
    order: np.ndarray  # field rows sorted by knot

    @property
    def k(self) -> int:
        return self.field.k

    @cached_property
    def _gaps(self):
        """Per gap its stencil (the two field rows), its ends and width
        (a, b, h = b - a), h^(r-j), and whether some h^(r-j) overflowed."""
        jr = np.arange(self.k + 1)
        a, b = self.knots[:-1], self.knots[1:]
        h = b - a
        with np.errstate(over="ignore"):
            hpow = h[:, None, None, None] ** (jr - jr[:, None, None])
        return (np.stack([self.order[:-1], self.order[1:]], 1), np.stack([a, b, h], 1), hpow,
                not np.isfinite(hpow).all())

    def _weights(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Stencils idx (P, 2) and weights w (P, k+1, 2, k+1) with D^j F(x_q) =
        sum_{e, r} w[q, j, e, r] c_r(idx[q, e]). Inside the hull a query reads
        the cardinal table at its gap, in one contraction of the powers of v,
        the distance in s or u to the nearer end, then scaled by h^(r-j). A
        knot is a gap row at v = 0: the table's constant term is exactly the
        identity at that end and h^0 = 1, so its weights are the identity and
        the other end's are 0. In a tail the hull endpoint's Taylor polynomial
        is multiplied by the clamp profile (Leibniz), the one point repeated
        with zero weights; a single-knot field has no gap, so every query is a
        tail there. A row does not depend on P."""
        xs = np.asarray(xs, dtype=float).ravel()
        k, knots, order = self.k, self.knots, self.order
        pairs, ends, hpow, _ = self._gaps
        if pairs.size:
            # clamped into the hull; a tail, infinite or NaN query differs from
            # its clamp, and its row is overwritten (or rejected) below
            x = np.minimum(np.maximum(xs, knots[0]), knots[-1])
            tail = x != xs
            # the gap [knots[g], knots[g + 1]] holding x: the number of interior
            # knots below x, so a knot ends the gap before it and the first
            # knot starts gap 0
            g = knots[1:-1].searchsorted(x)
            idx = pairs.take(g, axis=0)
            a, b, h = ends.take(g, axis=0).T
            s, u = (x - a) / h, (b - x) / h
            near = u < s  # the table in u = 1 - s, near the right end
            # (P, 1, 2k+2) powers of v = min(s, u) against the (P, 2k+2, X)
            # table of the nearer end, then h^(r-j)
            table = _cardinal(k).reshape(2, 2 * k + 2, -1).take(near.view(np.uint8), axis=0)
            psi = np.matmul((np.minimum(s, u)[:, None] ** np.arange(2 * k + 2))[:, None], table)
            w = psi.reshape(xs.size, k + 1, 2, k + 1)
            # a zero weight stays 0 where a gap narrower than about 1e-100
            # overflows h^(r-j): at a knot 0 * inf would make NaN of its datum
            np.multiply(w, hpow.take(g, axis=0), out=w, where=w != 0.0)
        else:
            tail = np.ones(xs.size, dtype=bool)
            idx, w = np.empty((xs.size, 2), dtype=np.intp), np.empty((xs.size, k + 1, 2, k + 1))

        if tail.any():
            xt = xs[tail]
            if not np.isfinite(xt).all():
                raise InputError("queries must be finite")
            end = np.where(xt < knots[0], 0, knots.size - 1)
            idx[tail] = order.take(end)[:, None]
            t = xt - knots.take(end)
            d = np.abs(t)
            # D^i of the clamp of |t|, times t^p / p! below: up to distance 1
            # the clamp is exactly 1 and its derivatives 0, as profile_deriv
            # gives them, and from distance 2 on all of them are 0
            sig = np.zeros((t.size, k + 1, 1))
            sig[:, 0, 0] = d <= 1.0
            band = (1.0 < d) & (d < 2.0)
            if band.any():
                for i in range(k + 1):
                    sig[band, i, 0] = profile_deriv(d[band], i)
            sig[:, 1::2] *= np.sign(t)[:, None, None]
            fact = _mi_table(1, k).fact  # p!, p <= k, exact for k <= 20
            # the powers of t times a zero clamp are 0; beyond distance 2 they
            # are taken at t = 0, where they cannot overflow into 0 * inf
            outer = sig * (np.where(d < 2.0, t, 0.0)[:, None, None] ** np.arange(k + 1) / fact)
            wt = np.zeros((t.size, k + 1, 2, k + 1))
            wt[:, :, 0] = outer
            for i in range(1, k + 1):  # D^j (T sigma) = sum_i C(j, i) T^(i) sigma^(j-i)
                binom = fact[i:, None] / (fact[i] * fact[: k + 1 - i, None])  # C(j, i), j = i..k
                wt[:, i:, 0, i:] += binom * outer[:, : k + 1 - i, : k + 1 - i]
            w[tail] = wt
        return idx, w

    def jets(self, xs) -> np.ndarray:
        """(P, k+1) array of D^j F at the points of xs (flattened), j = 0..k;
        NumericalError if one is not finite."""
        xs = np.asarray(xs, dtype=float).ravel()
        return self._finite(xs, self._jets(xs))

    def _jets(self, xs) -> np.ndarray:
        """jets(xs) for a flat float array xs, unchecked."""
        k = self.k
        out = np.empty((xs.size, k + 1))
        # elements per query alive at the peak, when w is scaled by h^(r-j):
        # the gathered cardinal table (4 (k+1)^3), w and the gathered powers
        # of h (3 (k+1)^2), and about 16 for the positions, the stencils and
        # the gap coordinates
        for blk in _blocks(xs.size, 4 * (k + 1) ** 3 + 3 * (k + 1) ** 2 + 16):
            out[blk] = self._contract(*self._weights(xs[blk]))
        return out

    def _contract(self, idx, w) -> np.ndarray:
        """(P, k+1) jets from the stencils and weights of _weights: one
        (k+1, 2k+2) by (2k+2) product per query, so a row does not depend
        on P. Weights made inf by h^(r-j) make inf or NaN, which _finite
        rejects."""
        k = self.k
        c = self.field.coeffs.take(idx, axis=0).reshape(-1, 2 * k + 2, 1)
        with np.errstate(over="ignore", invalid="ignore") if self._gaps[3] else nullcontext():
            return np.matmul(w.reshape(-1, k + 1, 2 * k + 2), c)[:, :, 0]

    def _finite(self, xs, out) -> np.ndarray:
        """out, unless a row is not finite: then NumericalError naming the
        first such query and its gap (tails are finite)."""
        if not np.isfinite(out).all():
            x = float(xs[np.flatnonzero(~np.isfinite(out).all(axis=1))[0]])
            g = self.knots[1:-1].searchsorted(x)
            a, b = self.knots[g : g + 2].tolist()
            raise NumericalError(f"the jet at {x!r} is not finite: it overflows float64 on the "
                                 f"gap [{a!r}, {b!r}]")
        return out

    def evaluate_jet(self, x: float) -> Jet:
        """Values D^alpha F(x) for alpha <= k, packed as a jet at x; raises as jets."""
        x = float(x)
        out = self._contract(*self._weights([x]))
        row = out[0].tolist()
        if not all(map(math.isfinite, row)):  # _finite's check, cheaper on one row
            self._finite([x], out)
        return Jet((x,), tuple(row), self.k)

    def __call__(self, x):
        xs = np.asarray(x, dtype=float).ravel()
        vals = self._finite(xs, self._jets(xs)[:, :1])[:, 0]
        return float(vals[0]) if np.ndim(x) == 0 else vals


def hermite_extension(field: WhitneyField) -> HermiteExtension1D:
    if field.n != 1:
        raise InputError("Hermite blend extension is 1D only")
    order = np.argsort(field.points[:, 0])
    knots = field.points[order, 0]
    knots.flags.writeable = order.flags.writeable = False  # _gaps is cached from them
    return HermiteExtension1D(field, knots, order)


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
    # the stencil's points that carry a weight, distinct since a tail repeats
    # its endpoint with zero weights; beyond distance 2 a tail carries none
    # and reports its one endpoint
    active = max(1, int(np.count_nonzero(w[0].any(axis=(0, 2)))))
    entries = tuple((int(i), a, float(wt)) for i, row in zip(idx[0], w[0, 0])
                    for a, wt in enumerate(row.tolist()) if wt != 0.0)
    const_weight = sum(wt for _, a, wt in entries if a == 0)
    dist = max(op.knots[0] - x, x - op.knots[-1], 0.0)
    clamp = 1.0 if dist <= 1.0 else float(profile(dist))  # profile is exactly 1 up to distance 1
    return DepthRecord(True, entries, active, abs(const_weight - clamp))
