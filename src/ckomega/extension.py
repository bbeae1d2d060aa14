"""Extension operators for scattered data.

Two constructions with exact classical counterparts: the McShane/Whitney
infimal-convolution extension for k = 0 in any dimension (norm preserving,
c = 1, after clamping to the data's sup bound), and the 1D piecewise
two-point Hermite blend of degree 2k+1 for general k, which is linear in the
data and admits a depth audit (the value at any x is a fixed linear
combination of at most 2(k+1) jet entries at no more than two source points).

Outside the data hull the 1D extension freezes: the nearest endpoint's Taylor
polynomial is multiplied by the smooth profile equal to 1 up to distance 1
and 0 beyond distance 2, which keeps the extension bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as P

from .cutoff import profile_deriv
from .errors import InputError
from .fields import Jet, NormContext, WhitneyField, _blocks, jet
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


def _hermite_gap_poly(a: float, b: float, jet_a: Jet, jet_b: Jet, k: int) -> np.ndarray:
    """Monomial coefficients (in t = x - a) of the unique degree-(2k+1)
    polynomial matching both endpoint jets; Newton divided differences with
    repeated nodes."""
    nodes = [a] * (k + 1) + [b] * (k + 1)
    jets = {a: jet_a, b: jet_b}
    size = len(nodes)
    dd = [[0.0] * size for _ in range(size)]
    for i in range(size):
        dd[i][i] = jets[nodes[i]].coeffs[0]
    for r in range(1, size):
        for i in range(size - r):
            j = i + r
            if nodes[i] == nodes[j]:
                dd[i][j] = jets[nodes[i]].coeffs[r] / math.factorial(r)
            else:
                dd[i][j] = (dd[i + 1][j] - dd[i][j - 1]) / (nodes[j] - nodes[i])
    # Newton basis products in t = x - a: factors are t (node a) or t - (b - a)
    coeffs = np.zeros(1)
    basis = np.ones(1)
    for j in range(size):
        coeffs = P.polyadd(coeffs, dd[0][j] * basis)
        shift = 0.0 if nodes[j] == a else (b - a)
        basis = P.polymul(basis, np.array([-shift, 1.0]))
    return coeffs


@dataclass(frozen=True)
class HermiteExtension1D:
    """Piecewise two-point Hermite extension of a 1D Whitney field."""

    field: WhitneyField
    knots: tuple[float, ...]
    order: tuple[int, ...]  # field indices sorted by knot
    gap_polys: tuple

    @property
    def k(self) -> int:
        return self.field.k

    def _tail_jet(self, x: float, side: int) -> Jet:
        """Taylor polynomial of the hull endpoint times the smooth clamp."""
        k = self.k
        idx = self.order[0] if side < 0 else self.order[-1]
        endpoint = self.knots[0] if side < 0 else self.knots[-1]
        ejet = self.field.jets[idx]
        dist = (endpoint - x) if side < 0 else (x - endpoint)
        sg = -1.0 if side < 0 else 1.0  # d(dist)/dx
        tvals = [
            sum(
                ejet.coeffs[r] / math.factorial(r - j) * (x - endpoint) ** (r - j)
                for r in range(j, k + 1)
            )
            for j in range(k + 1)
        ]
        svals = [float(profile_deriv(np.array([dist]), j)[0]) * sg**j for j in range(k + 1)]
        coeffs = [
            sum(math.comb(j, i) * tvals[i] * svals[j - i] for i in range(j + 1))
            for j in range(k + 1)
        ]
        return jet([x], coeffs, k)

    def evaluate_jet(self, x: float) -> Jet:
        """Values D^alpha F(x) for alpha <= k, packed as a jet at x."""
        x = float(x)
        k = self.k
        for pos, knot in enumerate(self.knots):
            if x == knot:  # a data point's own jet wins
                j0 = self.field.jets[self.order[pos]]
                return jet([x], j0.coeffs, k)
        if x < self.knots[0]:
            return self._tail_jet(x, -1)
        if x > self.knots[-1]:
            return self._tail_jet(x, +1)
        gap = int(np.searchsorted(self.knots, x)) - 1
        coeffs = self.gap_polys[gap]
        t = x - self.knots[gap]
        out = []
        cur = coeffs
        for _ in range(k + 1):
            out.append(float(P.polyval(t, cur)))
            cur = P.polyder(cur)
        return jet([x], out, k)

    def __call__(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
        vals = np.array([self.evaluate_jet(v).coeffs[0] for v in xs])
        return float(vals[0]) if np.ndim(x) == 0 else vals


def hermite_extension(field: WhitneyField) -> HermiteExtension1D:
    if field.n != 1:
        raise InputError("Hermite blend extension is 1D only")
    order = tuple(int(i) for i in np.argsort([p[0] for p in field.points]))
    knots = tuple(field.points[i][0] for i in order)
    polys = []
    for g in range(len(knots) - 1):
        a, b = knots[g], knots[g + 1]
        polys.append(
            _hermite_gap_poly(a, b, field.jets[order[g]], field.jets[order[g + 1]], field.k)
        )
    return HermiteExtension1D(field, knots, order, tuple(polys))


def hermite_extend_1d(field: WhitneyField, x) -> Jet:
    """One-shot jet of the Hermite blend extension at x."""
    return hermite_extension(field).evaluate_jet(float(x))


# ---------------------------------------------------------------------------
# depth audit


NOT_LINEAR = "NOT_LINEAR"


@dataclass(frozen=True)
class DepthRecord:
    """Active source points and weights reproducing F(x) for a linear operator.

    entries are (field point index, derivative order alpha, weight); applying
    the weights to the jet entries of any data reproduces the extension value
    at x. constant_residual is |sum of order-0 weights applied to constant-one
    data minus the operator's own value on that data| (the clamp makes the
    constant decay beyond distance 1 from the hull, so the check compares
    against the operator, not against 1).
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
    field = op.field
    k = field.k
    knots = op.knots
    if x in knots:
        active = [op.order[knots.index(x)]]
    elif x < knots[0]:
        active = [op.order[0]]
    elif x > knots[-1]:
        active = [op.order[-1]]
    else:
        gap = int(np.searchsorted(knots, x)) - 1
        active = [op.order[gap], op.order[gap + 1]]

    entries = []
    for idx in active:
        for order_a in range(k + 1):
            sub_jets = []
            for j in active:
                coeffs = [0.0] * (k + 1)
                if j == idx:
                    coeffs[order_a] = 1.0
                sub_jets.append(jet([field.points[j][0]], coeffs, k))
            sub = WhitneyField(
                tuple(field.points[j] for j in active), tuple(sub_jets), k, 1
            )
            w = hermite_extension(sub)(x)
            if w != 0.0:
                entries.append((idx, order_a, w))

    const_weight = sum(w for _, a, w in entries if a == 0)
    ones = WhitneyField(
        tuple(field.points[j] for j in active),
        tuple(jet([field.points[j][0]], [1.0] + [0.0] * k, k) for j in active),
        k,
        1,
    )
    residual = abs(const_weight - hermite_extension(ones)(x))
    return DepthRecord(True, tuple(entries), len(active), residual)
