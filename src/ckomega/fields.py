"""Jets, Whitney fields and the norm context.

A jet at a point x in R^n of order k stores one coefficient per multi-index
alpha with |alpha| <= k; the coefficient plays the role of D^alpha f(x). The
coefficient layout is the graded lexicographic multi-index order (sorted by
total order, then lexicographically), which is also the serialization order.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError
from .modulus import Modulus


@lru_cache(maxsize=None)
def multi_indices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices in Z_+^n with |alpha| <= k, graded lexicographic."""
    if n < 1 or k < 0:
        raise InputError("need n >= 1 and k >= 0")

    def of_order(order, dims):
        if dims == 1:
            return [(order,)]
        out = []
        for head in range(order, -1, -1):
            for rest in of_order(order - head, dims - 1):
                out.append((head,) + rest)
        return out

    result = []
    for order in range(k + 1):
        result.extend(sorted(of_order(order, n), reverse=True))
    # graded + lex within each grade, descending first coordinate:
    # (0,), (1,), (2,) ... for n=1; (0,0), (1,0), (0,1), (2,0), (1,1), ... for n=2
    return tuple(result)


def mi_order(alpha) -> int:
    return int(sum(alpha))


def mi_factorial(alpha) -> float:
    out = 1
    for a in alpha:
        out *= math.factorial(a)
    return float(out)


def mi_sub(alpha, beta):
    """alpha - beta, or None if beta is not <= alpha componentwise."""
    if any(b > a for a, b in zip(alpha, beta)):
        return None
    return tuple(a - b for a, b in zip(alpha, beta))


def mi_binom(alpha, nu) -> float:
    out = 1
    for a, v in zip(alpha, nu):
        out *= math.comb(a, v)
    return float(out)


def mi_add_unit(alpha, i):
    return tuple(a + (1 if j == i else 0) for j, a in enumerate(alpha))


def n_coefficients(n: int, k: int) -> int:
    return math.comb(n + k, n)


@dataclass(frozen=True)
class Jet:
    """Prescribed derivatives up to order k at a base point.

    ``coeffs`` is an array aligned with ``multi_indices(n, k)``; entry for
    alpha is the would-be value of D^alpha f at ``point``. The associated
    Taylor polynomial is T(z) = sum_alpha coeffs[alpha]/alpha! (z-point)^alpha.
    """

    point: tuple[float, ...]
    coeffs: tuple[float, ...]
    k: int

    def __post_init__(self):
        n = len(self.point)
        want = n_coefficients(n, self.k)
        if len(self.coeffs) != want:
            raise InputError(
                f"jet needs {want} coefficients for n={n}, k={self.k}, got {len(self.coeffs)}"
            )
        if not all(math.isfinite(c) for c in self.coeffs):
            raise InputError("jet coefficients must be finite")
        if not all(math.isfinite(x) for x in self.point):
            raise InputError(f"jet base point must be finite, got {self.point}")

    @property
    def n(self) -> int:
        return len(self.point)

    def coeff(self, alpha) -> float:
        idx = multi_indices(self.n, self.k).index(tuple(alpha))
        return self.coeffs[idx]

    def as_dict(self) -> dict:
        return dict(zip(multi_indices(self.n, self.k), self.coeffs))


def jet(point, coeffs, k: int) -> Jet:
    return Jet(tuple(float(x) for x in np.atleast_1d(point)), tuple(float(c) for c in coeffs), k)


def jet_from_dict(point, values: dict, k: int) -> Jet:
    point = tuple(float(x) for x in np.atleast_1d(point))
    n = len(point)
    mis = multi_indices(n, k)
    coeffs = [float(values.get(alpha, 0.0)) for alpha in mis]
    extra = set(tuple(a) for a in values) - set(mis)
    if extra:
        raise InputError(f"jet has entries beyond order {k}: {sorted(extra)}")
    return Jet(point, tuple(coeffs), k)


# Size in float64 elements (about 16 MB) of the largest temporary one block of
# a blockwise sweep may allocate, so memory stays bounded for any number of
# pairs, queries or points.
_BLOCK_ELEMS = 2_000_000


def _blocks(count: int, width: int):
    """Consecutive slices of range(count) of at most _BLOCK_ELEMS // width
    items each (at least one), for temporaries of width elements per item."""
    step = max(1, _BLOCK_ELEMS // width)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


@dataclass(frozen=True)
class WhitneyField:
    """A finite set of pairwise-distinct points, each carrying a jet."""

    points: tuple[tuple[float, ...], ...]
    jets: tuple[Jet, ...]
    k: int
    n: int

    def __post_init__(self):
        if not self.points:
            raise InputError("field needs at least one point")
        if len(self.points) != len(self.jets):
            raise InputError("one jet per point required")
        for p, j in zip(self.points, self.jets):
            if len(p) != self.n or j.k != self.k or j.n != self.n:
                raise InputError("jet dimensions inconsistent with field")
            if tuple(j.point) != tuple(p):
                raise InputError("jet base point differs from field point")
        pts = np.asarray(self.points, dtype=float)
        # row blocks in order, so the reported pair is the first coincident
        # pair in row-major order of the full distance matrix
        for blk in _blocks(len(pts), pts.size):
            d2 = np.sum((pts[blk, None, :] - pts[None, :, :]) ** 2, axis=-1)
            d2.reshape(-1)[blk.start :: len(pts) + 1] = np.inf  # entries (i, i)
            if np.min(d2) <= 0.0:
                i, j = np.unravel_index(np.argmin(d2), d2.shape)
                i += blk.start
                raise InputError(f"coincident points at indices {i} and {j}: {self.points[i]}")

    def __len__(self) -> int:
        return len(self.points)

    def points_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)

    def coeff_matrix(self) -> np.ndarray:
        """(num_points, num_multi_indices) array of jet coefficients."""
        return np.asarray([j.coeffs for j in self.jets], dtype=float)

    def scale(self, s: float) -> "WhitneyField":
        return WhitneyField(
            self.points,
            tuple(Jet(j.point, tuple(s * c for c in j.coeffs), self.k) for j in self.jets),
            self.k,
            self.n,
        )

    def add(self, other: "WhitneyField") -> "WhitneyField":
        if self.points != other.points or self.k != other.k or self.n != other.n:
            raise InputError("fields must share points, k and n to be added")
        return WhitneyField(
            self.points,
            tuple(
                Jet(a.point, tuple(ca + cb for ca, cb in zip(a.coeffs, b.coeffs)), self.k)
                for a, b in zip(self.jets, other.jets)
            ),
            self.k,
            self.n,
        )


def field_from_data(points, values, k: int = 0) -> WhitneyField:
    """k=0 convenience constructor from points and scalar values."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and np.ndim(points) == 1 and pts.shape[1] > 1:
        # ambiguous 1D input: a list of scalars means n=1 points
        pts = pts.T
    vals = np.asarray(values, dtype=float).ravel()
    if k != 0:
        raise InputError("field_from_data is k=0 only; build jets explicitly for k >= 1")
    if len(vals) != len(pts):
        raise InputError("one value per point required")
    n = pts.shape[1]
    jets = tuple(jet(p, [v], 0) for p, v in zip(pts, vals))
    return WhitneyField(tuple(tuple(p) for p in pts), jets, 0, n)


def field_from_jets(jets_: list[Jet]) -> WhitneyField:
    if not jets_:
        raise InputError("field needs at least one jet")
    k, n = jets_[0].k, jets_[0].n
    return WhitneyField(tuple(j.point for j in jets_), tuple(jets_), k, n)


@dataclass(frozen=True)
class NormContext:
    """Ambient smoothness parameters: order k, dimension n, modulus omega."""

    k: int
    n: int
    modulus: Modulus

    def __post_init__(self):
        if self.k < 0 or self.n < 1:
            raise InputError("need k >= 0 and n >= 1")


# ---------------------------------------------------------------------------
# serialization
#
# Field JSON schema:
#   {"k": int, "n": int, "points": [[x...], ...],
#    "jets": [[{"alpha": [int...], "value": num}, ...], ...]}   one list per point


def field_from_json(obj) -> WhitneyField:
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        k, n = int(obj["k"]), int(obj["n"])
        points = list(obj["points"])
        jets_spec = list(obj["jets"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"field JSON needs k, n, points, jets: {exc}") from exc
    if len(points) != len(jets_spec):
        raise InputError("field JSON: one jet list per point required")
    jets_ = []
    for i, (p, entries) in enumerate(zip(points, jets_spec)):
        if not isinstance(p, (list, tuple)) or not isinstance(entries, (list, tuple)):
            raise InputError(f"field JSON: point {i} needs a coordinate list and a jet list, "
                             f"got {p!r} and {entries!r}")
        values = {}
        for e in entries:
            try:
                alpha = tuple(int(a) for a in e["alpha"])
                values[alpha] = float(e["value"])
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"field JSON: jet entry {e!r} of point {i} needs an integer "
                                 f"alpha list and a numeric value") from exc
            if len(alpha) != n or mi_order(alpha) > k:
                raise InputError(f"bad multi-index {alpha} for n={n}, k={k}")
        try:
            point = [float(x) for x in p]
        except (TypeError, ValueError) as exc:
            raise InputError(f"field JSON: point {i} coordinates {p!r} are not numbers") from exc
        jets_.append(jet_from_dict(point, values, k))
    return WhitneyField(tuple(j.point for j in jets_), tuple(jets_), k, n)


def field_to_json(f: WhitneyField) -> dict:
    mis = multi_indices(f.n, f.k)
    return {
        "k": f.k,
        "n": f.n,
        "points": [list(p) for p in f.points],
        "jets": [
            [{"alpha": list(alpha), "value": c} for alpha, c in zip(mis, j.coeffs)]
            for j in f.jets
        ],
    }


def field_from_csv(path) -> WhitneyField:
    """k=0 scattered data from CSV with columns x_1..x_n, f."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    if not rows:
        raise InputError("empty CSV")
    start = 0
    try:
        [float(c) for c in rows[0]]
    except ValueError:
        start = 1  # header row
    data = []
    for r in rows[start:]:
        try:
            data.append([float(c) for c in r])
        except ValueError as exc:
            raise InputError(f"non-numeric CSV row {r!r}") from exc
    arr = np.asarray(data, dtype=float)
    if arr.shape[1] < 2:
        raise InputError("CSV needs at least one coordinate column and a value column")
    return field_from_data(arr[:, :-1], arr[:, -1], k=0)
