"""Weak Markov ratios: how much larger can a degree-k polynomial be on a cube
than on a sampled subset of it.

The ratio sup_Q |p| / sup_{Q cap S} |p| over nonzero p of degree <= k is
computed by LPs in the scale-normalized basis ((z - x)/r)^alpha: for every
objective candidate point g (the cube grid united with the sample), maximize
p(g) subject to |p| <= 1 on the sample. That feasible set is centrally
symmetric, so max p(g) = max |p(g)| and one LP per candidate suffices. It is
solved in its LP dual, opt(g) = min ||mu||_1 s.t. S^T mu = G_g with
mu = mu+ - mu-, which has J = dim P_k rows: p = 0 is feasible, so the optima
agree, and an infeasible dual (G_g outside the span of the sample's monomial
vectors) means an unbounded primal, a numerically infinite ratio, reported
as CAPPED; the cap also bounds finite blow-ups.

Most candidates are never solved. An optimal basis with J rows picks J
sample points I with S_I invertible, and mu = S_I^{-T} G_g (zero off I) is
feasible for every candidate, so U(g) = min over the bases found so far of
||S_I^{-T} G_g||_1 bounds opt(g) from above. The scan (grid, then sample)
skips every g with U(g) <= the running maximum, which it cannot raise, and
solves the rest cold; a handful of bases bound the whole grid. Only
full-rank bases are cached, and a J-row basis means S has rank J, so every
candidate is feasible and a skipped one never hides a CAPPED result; a
rank-deficient sample skips nothing. `MarkovRatio` reports the LPs solved,
the candidates skipped and the pivots.

The liminf over shrinking radii is proxied by the minimum over a
user-supplied radii ladder, so a positive verdict is one-sided: WEAK_MARKOV
certifies boundedness along the ladder, NOT_DETECTED never disproves
anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .fields import _check_int, multi_indices
from .simplex import INFEASIBLE, OPTIMAL, LinearProgram, solve

DEFAULT_CAP = 1e6
DEFAULT_RESOLUTION = 33


def cube_grid(center, r: float, resolution: int = DEFAULT_RESOLUTION) -> np.ndarray:
    """Regular grid on the closed cube Q_r(center), resolution points per axis."""
    _check_int("resolution", resolution, 2)  # both ends of each axis
    if not 0 < r < math.inf:
        raise InputError("probe radius must be positive and finite")
    center = np.atleast_1d(np.asarray(center, dtype=float))
    n = center.size
    if n > 3:
        raise InputError("cube grids limited to n <= 3")
    axes = [np.linspace(c - r, c + r, resolution) for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=1)


@dataclass(frozen=True)
class MarkovProbe:
    center: tuple[float, ...]
    r: float
    k: int
    sample: np.ndarray  # points of S inside Q_r(center)
    grid: np.ndarray  # cube discretization

    def __post_init__(self):
        if not 0 < self.r < math.inf:
            raise InputError("probe radius must be positive and finite")
        _check_int("Markov order k", self.k, 0)
        s = np.atleast_2d(np.asarray(self.sample, dtype=float))
        g = np.atleast_2d(np.asarray(self.grid, dtype=float))
        if s.size == 0:
            raise InputError("empty set sample")
        if g.size == 0:
            raise InputError("empty cube grid")
        n = len(self.center)
        if s.shape[1] != n or g.shape[1] != n:
            raise InputError("sample/grid dimension mismatch")
        if not (np.isfinite(self.center).all() and np.isfinite(s).all()):
            raise InputError("probe center and set sample must be finite")
        if np.max(np.abs(s - np.asarray(self.center)[None, :])) > self.r * (1 + 1e-12):
            raise InputError("set sample must lie inside the cube")
        object.__setattr__(self, "sample", s)
        object.__setattr__(self, "grid", g)


def probe(center, r, k, sample, resolution: int = DEFAULT_RESOLUTION) -> MarkovProbe:
    center = tuple(float(c) for c in np.atleast_1d(center))
    return MarkovProbe(center, float(r), k,
                       np.atleast_2d(np.asarray(sample, dtype=float)),
                       cube_grid(center, r, resolution))


@dataclass(frozen=True)
class MarkovRatio:
    value: float  # math.inf when capped
    capped: bool
    witness: tuple | None  # grid point attaining the max, if finite
    lps: int = 0  # candidate LPs solved
    pruned: int = 0  # candidates skipped unsolved: U(g) <= the running maximum
    pivots: int = 0  # simplex pivots over the solved LPs


def _basis_matrix(points: np.ndarray, center, r: float, mis) -> np.ndarray:
    z = (points - np.asarray(center)[None, :]) / r
    cols = [np.prod(z ** np.asarray(alpha)[None, :], axis=1) for alpha in mis]
    return np.stack(cols, axis=1)


def markov_ratio(p: MarkovProbe) -> MarkovRatio:
    """Extremal ratio of the probe; CAPPED if any extremal LP is unbounded
    (its dual infeasible) or the value exceeds DEFAULT_CAP."""
    n = len(p.center)
    mis = multi_indices(n, p.k)
    S = _basis_matrix(p.sample, p.center, p.r, mis)
    lhs = np.hstack([S.T, -S.T])  # columns mu+ then mu-
    cost = np.ones(lhs.shape[1])
    candidates = np.vstack([p.grid, p.sample])
    G = _basis_matrix(candidates, p.center, p.r, mis)
    bound = np.full(len(G), math.inf)  # U(g), min over cached bases
    best = 0.0
    witness = None
    lps = pivots = 0
    for i, (row, cand) in enumerate(zip(G, candidates)):
        if bound[i] <= best:
            continue
        sol = solve(LinearProgram(cost, lhs, row))
        lps += 1
        pivots += sol.iterations
        if sol.status == INFEASIBLE:
            return MarkovRatio(math.inf, True, None, lps, i + 1 - lps, pivots)
        if sol.status != OPTIMAL:
            raise NumericalError(f"markov LP unexpectedly {sol.status}")
        if sol.optimum > best:
            best = sol.optimum
            witness = tuple(cand)
        if best > DEFAULT_CAP:
            return MarkovRatio(math.inf, True, None, lps, i + 1 - lps, pivots)
        if sol.basis.size == len(mis):
            # mu = S_I^{-T} G_g on the basis points I is feasible for every g
            inv = np.linalg.inv(S[sol.basis % len(S)])
            bound = np.minimum(bound, np.abs(G @ inv).sum(axis=1))
    return MarkovRatio(best, False, witness, lps, len(G) - lps, pivots)


@dataclass(frozen=True)
class MarkovVerdict:
    verdict: str  # WEAK_MARKOV | NOT_DETECTED
    details: tuple  # per radius, the MarkovRatio or None for skipped
    radii: tuple
    threshold: float
    warnings: tuple

    @property
    def ratios(self) -> tuple:
        """Per radius, the ratio (math.inf for capped) or None for skipped."""
        return tuple(None if d is None else d.value for d in self.details)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "radii": list(self.radii),
            "ratios": [None if r is None else (None if math.isinf(r) else r) for r in self.ratios],
            "capped": [r is not None and math.isinf(r) for r in self.ratios],
            "threshold": self.threshold,
            "warnings": list(self.warnings),
        }


def classify_weak_markov(x, sampler, k: int, radii, threshold: float,
                         resolution: int = DEFAULT_RESOLUTION) -> MarkovVerdict:
    """Evaluate the ratio along a decreasing radii ladder and compare the
    minimum against the threshold (finite-liminf proxy; one-sided verdict).

    ``sampler(center, r)`` must return the points of S inside Q_r(center) at
    a resolution of its choice (empty -> that radius is skipped with a
    warning).
    """
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold}")
    _check_int("resolution", resolution, 2)
    center = tuple(float(c) for c in np.atleast_1d(x))
    radii = [float(r) for r in radii]
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly decreasing")
    details: list = []
    warnings: list[str] = []
    for r in radii:
        pts = np.asarray(sampler(center, r), dtype=float)
        if pts.size == 0:
            warnings.append(f"sampler returned no points at r={r}; skipped")
            details.append(None)
            continue
        pr = probe(center, r, k, pts, resolution=resolution)
        details.append(markov_ratio(pr))
    finite = [d.value for d in details if d is not None]
    ok = bool(finite) and min(finite) <= threshold
    return MarkovVerdict("WEAK_MARKOV" if ok else "NOT_DETECTED",
                         tuple(details), tuple(radii), threshold, tuple(warnings))


def builtin_set_sampler(name: str, n: int, resolution: int = DEFAULT_RESOLUTION):
    """Samplers for a few reference sets, used by the CLI and tests.

    cube: S = R^n (the sample is the whole cube grid); halfspace: x_1 >= 0;
    point: S = {origin}; segment: the x_1-axis inside R^n (measure zero for
    n >= 2). Grids and segments take resolution points per axis, at least 2.
    """
    _check_int("resolution", resolution, 2)
    if name == "cube":

        def sampler(center, r):
            return cube_grid(center, r, resolution)

    elif name == "halfspace":

        def sampler(center, r):
            g = cube_grid(center, r, resolution)
            return g[g[:, 0] >= 0.0]

    elif name == "point":

        def sampler(center, r):
            origin = np.zeros((1, n))
            inside = np.max(np.abs(origin - np.asarray(center)[None, :])) <= r
            return origin if inside else np.zeros((0, n))

    elif name == "segment":

        def sampler(center, r):
            c = np.asarray(center, dtype=float)
            if n >= 2 and np.max(np.abs(c[1:])) > r:
                return np.zeros((0, n))
            us = np.linspace(c[0] - r, c[0] + r, resolution)
            pts = np.zeros((us.size, n))
            pts[:, 0] = us
            return pts

    else:
        raise InputError(f"unknown builtin set {name!r}")
    return sampler
