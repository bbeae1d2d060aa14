"""Smooth cutoff functions with exact derivatives of every order.

The 1D profile sigma is the indicator of [-1.5, 1.5] mollified by a
C-infinity bump of radius 0.5 and unit mass, so sigma = 1 on [-1, 1],
sigma = 0 outside (-2, 2) and 0 <= sigma <= 1 everywhere. The n-dimensional
cutoff is the tensor product rho(x) = prod_i sigma(x_i), equal to one on the
unit cube with support in the doubled cube; the scaled family is
rho_ell(x) = rho(x / ell), whose derivatives obey
|D^alpha rho_ell| <= c_{k,n} / ell^{|alpha|}.

Derivatives are exact: the bump phi(v) = C exp(-1/(1 - (v/h)^2)) satisfies
phi^(j)(v) = R_j(v/h) phi(v) / h^j with R_j a rational function generated by
the recurrence R_{j+1} = R_j' + R_j * g', g(w) = -1/(1 - w^2), and
sigma^(j)(u) = phi^(j-1)(u + 1.5) - phi^(j-1)(u - 1.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InputError
from .fields import _blocks, _check_int, _multi_index, mi_order

_H = 0.5  # bump radius
_EDGE = 1.5  # mollified indicator half-width
_GL_ORDER = 96  # fixed rule shared by the normalization and the CDF
MAX_DERIV = 8  # highest sigma derivative with an exact formula


@lru_cache(maxsize=None)
def _gl_nodes(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1]."""
    return np.polynomial.legendre.leggauss(order)


@lru_cache(maxsize=None)
def _bump_rationals(max_order: int):
    """R_j as (numerator coeffs, denominator power m): R_j = num(w)/(1-w^2)^m."""
    one_minus_w2 = np.array([1.0, 0.0, -1.0])
    rs = [(np.array([1.0]), 0)]
    for _ in range(max_order):
        num, mpow = rs[-1]
        # d/dw [num/(1-w^2)^m] = [num' (1-w^2) + 2 m w num] / (1-w^2)^(m+1)
        dnum = P.polyadd(
            P.polymul(P.polyder(num), one_minus_w2),
            P.polymul(np.array([0.0, 2.0 * mpow]), num),
        )
        # + num * g' = -2 w num / (1-w^2)^(m+2); common denominator (1-w^2)^(m+2)
        new = P.polyadd(P.polymul(dnum, one_minus_w2), P.polymul(np.array([0.0, -2.0]), num))
        rs.append((new, mpow + 2))
    return rs


@lru_cache(maxsize=None)
def _bump_norm() -> float:
    """Normalizing constant C with integral of phi equal to one."""
    x, w = _gl_nodes(_GL_ORDER)
    vals = np.exp(-1.0 / (1.0 - x**2))
    return float(1.0 / (_H * (w @ vals)))


def _bump_deriv(v: np.ndarray, order: int) -> np.ndarray:
    num, mpow = _bump_rationals(MAX_DERIV)[order]
    v = np.asarray(v, dtype=float)
    w = v / _H
    inside = np.abs(w) < 1.0
    out = np.zeros_like(w)
    wi = w[inside]
    rat = P.polyval(wi, num) / (1.0 - wi**2) ** mpow
    out[inside] = rat * _bump_norm() * np.exp(-1.0 / (1.0 - wi**2)) / _H**order
    return out


def _bump_cdf(z: np.ndarray) -> np.ndarray:
    """Integral of phi from -h to z: exactly 0 for z <= -h and 1 for z >= h,
    clipped to [0, 1] between, where the quadrature runs."""
    z = np.asarray(z, dtype=float)
    out = np.where(z >= _H, 1.0, 0.0)
    inside = np.abs(z) < _H
    x, w = _gl_nodes(_GL_ORDER)
    # map the fixed rule onto [-1, z / h] per element, one block of
    # (elements, nodes) arrays at a time; einsum sums each row in one fixed
    # order, so unlike a BLAS product the values do not depend on the blocks
    half = 0.5 * (z[inside] / _H + 1.0)
    integ = np.empty(half.shape)
    # up to six (elements, nodes) arrays are alive at once: nodes, denom,
    # vals, the masked denominators and their two images, and the mask
    for blk in _blocks(half.size, 6 * _GL_ORDER):
        nodes = -1.0 + half[blk, None] * (x + 1.0)
        denom = 1.0 - np.minimum(nodes**2, 1.0)
        vals = np.zeros_like(nodes)
        safe = denom > 0.0
        vals[safe] = np.exp(-1.0 / denom[safe])
        integ[blk] = half[blk] * np.einsum("ij,j->i", vals, w)
    # the rule's sum can round past the unit mass near z = h
    out[inside] = np.clip(_bump_norm() * _H * integ, 0.0, 1.0)
    return out


def profile(u):
    """The 1D cutoff sigma: exactly 1 for |u| <= 1, exactly 0 for |u| >= 2."""
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    flat_one = np.abs(u) <= 1.0
    trans = (np.abs(u) > 1.0) & (np.abs(u) < 2.0)
    out[flat_one] = 1.0
    if np.any(trans):
        ut = u[trans]
        out[trans] = _bump_cdf(ut + _EDGE) - _bump_cdf(ut - _EDGE)
    return out


def profile_deriv(u, order: int):
    """Exact derivative sigma^(order); zero outside 1 < |u| < 2."""
    _check_int("profile derivative order", order, 0)
    if order > MAX_DERIV:
        raise InputError(f"profile derivatives available up to order {MAX_DERIV}")
    if order == 0:
        return profile(u)
    u = np.asarray(u, dtype=float)
    out = np.zeros(u.shape)
    trans = (np.abs(u) > 1.0) & (np.abs(u) < 2.0)
    if np.any(trans):
        ut = u[trans]
        out[trans] = _bump_deriv(ut + _EDGE, order - 1) - _bump_deriv(ut - _EDGE, order - 1)
    return out


@dataclass(frozen=True)
class CutoffFamily:
    """The scaled tensor cutoff rho_ell(x) = prod_i sigma(x_i / ell)."""

    n: int
    ell: int

    def __post_init__(self):
        _check_int("cutoff dimension n", self.n, 1)
        _check_int("ell", self.ell, 1)

    def rho(self, X) -> np.ndarray:
        """Evaluate rho_ell at points X of shape (m, n); returns (m,)."""
        return self.rho_deriv(X, (0,) * self.n)

    def rho_deriv(self, X, alpha) -> np.ndarray:
        """D^alpha rho_ell at points X; exact tensor derivative.

        Each factor is evaluated once per distinct coordinate of its column
        (a lattice has few), then gathered; the product runs over the axes in
        order, as ``np.prod(..., axis=1)`` does, so the values are the
        per-point ones bitwise."""
        alpha = _multi_index(alpha)
        if len(alpha) != self.n:
            raise InputError("multi-index dimension mismatch")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n:
            raise InputError(f"points have dimension {X.shape[1]}, cutoff has n={self.n}")
        out = np.ones(X.shape[0])
        for i, a in enumerate(alpha):
            u, where = np.unique(X[:, i] / self.ell, return_inverse=True)
            out = out * profile_deriv(u, a)[where]
        return out / self.ell ** mi_order(alpha)

