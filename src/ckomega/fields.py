"""Jets, Whitney fields and the norm context.

A jet at a point x in R^n of order k stores one coefficient per multi-index
alpha with |alpha| <= k; the coefficient plays the role of D^alpha f(x). The
coefficient layout is the graded lexicographic multi-index order (sorted by
total order, then lexicographically), which is also the serialization order.
A Whitney field is two read-only arrays, points (m, n) and coeffs (m, J), one
row per point; a Jet is the single-point form the Taylor and Hermite code use.

The layout is known here only: _mi_table(n, k), cached per (n, k), holds the
multi-indices, their positions, orders, factorials and signs, the graded
monomial recurrence and the index of every sum alpha + gamma, and does all
truncated Taylor arithmetic on them (Griewank-Walther, Evaluating
Derivatives, ch. 13): step weights dz^gamma / gamma!, re-expansion across a
step and the list of sums of order <= k. Jet lookups, the field JSON,
taylor_eval, whitney_lambda, the predual lowering and bracket, the Hermite
tails, the Leibniz sums of the periodization and the chain rule read it.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InputError, NumericalError
from .modulus import Modulus


# typed: 1.0 must miss the entry of 1, so that its call reaches the check
@lru_cache(maxsize=None, typed=True)
def multi_indices(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices in Z_+^n with |alpha| <= k, graded lexicographic:
    by order, then descending lexicographic, e.g. (0, 0), (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2) for n = k = 2. The multisets of r axes, in the
    order combinations_with_replacement yields them, are the order-r
    multi-indices in that order, so nothing is filtered or sorted."""
    _check_int("dimension n", n, 1)
    _check_int("order k", k, 0)
    return tuple(tuple(axes.count(i) for i in range(n)) for r in range(k + 1)
                 for axes in itertools.combinations_with_replacement(range(n), r))


def _check_int(name: str, value, low: int) -> None:
    """InputError unless value is an integer (Python or numpy, not a float)
    of at least low."""
    if not isinstance(value, (int, np.integer)) or value < low:
        raise InputError(f"{name} must be an integer >= {low}, got {value!r}")


def _multi_index(alpha) -> tuple[int, ...]:
    """alpha as a tuple of ints; InputError unless each entry is an integer >= 0."""
    alpha = tuple(alpha)
    for a in alpha:
        _check_int("entry of the integer alpha list", a, 0)
    return tuple(int(a) for a in alpha)


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


def n_coefficients(n: int, k: int) -> int:
    return math.comb(n + k, n)


@dataclass(frozen=True, eq=False)
class _MultiIndexTable:
    """The layout of order-k jets on R^n, shared by every jet computation.

    mis = multi_indices(n, k), J of them, and index maps each to its
    position. Per alpha: order = |alpha|, fact = alpha! and sign =
    (-1)^|alpha| (floats); for g >= 1, mis[g] = mis[parent[g]] + e_axis[g],
    axis being the last nonzero coordinate (the order is graded, so the
    parent comes first); rows[g] = dim P_{k-|gamma|}, the number of alpha
    with |alpha + gamma| <= k, which come first; shift[a, g] is the index of
    alpha + gamma, or J when its order exceeds k. Tables are cached and
    shared, so index and the arrays are read-only. The methods are the
    Taylor arithmetic on this layout.
    """

    mis: tuple
    index: MappingProxyType
    order: np.ndarray
    fact: np.ndarray
    sign: np.ndarray
    parent: np.ndarray
    axis: np.ndarray
    rows: np.ndarray
    shift: np.ndarray

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

    def reexpand(self, w, c):
        """(J, B) derivatives D^alpha, at base + dz, of the Taylor polynomials
        with coefficients in the columns of the (J, B) array c, for w =
        weights(dz). Terms are summed in the fixed order gamma = 0, 1, ..., so
        a column's value does not depend on B; gamma = 0 contributes c itself
        exactly, which is all there is for k = 0. c should be C-contiguous:
        np.take copies any other c whole, once per gamma."""
        out = c.copy()
        tmp = np.empty_like(out)
        for g in range(1, w.shape[0]):
            r = self.rows[g]
            # every index read is below J (a test checks the table), and
            # mode="clip" writes straight into tmp where "raise" buffers it
            np.take(c, self.shift[:r, g], axis=0, out=tmp[:r], mode="clip")
            tmp[:r] *= w[g]
            out[:r] += tmp[:r]
        return out

    def sums(self):
        """(a, g, s) over the pairs alpha = mis[a], gamma = mis[g] with
        |alpha + gamma| <= k in row-major order, s the index of alpha + gamma."""
        a, g = np.nonzero(self.shift < self.fact.size)
        return a, g, self.shift[a, g]


@lru_cache(maxsize=None)
def _mi_table(n: int, k: int) -> _MultiIndexTable:
    mis = multi_indices(n, k)
    J = len(mis)
    index = MappingProxyType({a: i for i, a in enumerate(mis)})
    order = np.array([sum(a) for a in mis], dtype=np.intp)
    axis = np.array([0] + [max(i for i, e in enumerate(g) if e) for g in mis[1:]], dtype=np.intp)
    parent = np.array([0] + [index[g[:i] + (g[i] - 1,) + g[i + 1:]]
                             for g, i in zip(mis[1:], axis[1:])], dtype=np.intp)
    # up[i, c] is the index of mis[i] + e_c, J above order k and for i = J, so
    # alpha + gamma = (alpha + parent(gamma)) + e_axis(gamma) fills shift by columns
    up = np.full((J + 1, n), J, dtype=np.intp)
    for i, a in enumerate(mis):
        for c in range(n):
            up[i, c] = index.get(a[:c] + (a[c] + 1,) + a[c + 1:], J)
    shift = np.empty((J, J), dtype=np.intp)
    shift[:, 0] = np.arange(J)
    for g in range(1, J):
        shift[:, g] = up[shift[:, parent[g]], axis[g]]
    table = _MultiIndexTable(
        mis, index, order, np.array([mi_factorial(a) for a in mis]), (-1.0) ** order, parent,
        axis, np.array([n_coefficients(n, k - r) for r in order], dtype=np.intp), shift)
    for arr in (order, table.fact, table.sign, parent, axis, table.rows, shift):
        arr.flags.writeable = False
    return table


@dataclass(frozen=True)
class Jet:
    """Prescribed derivatives up to order k at a base point.

    ``coeffs`` is a tuple aligned with ``multi_indices(n, k)``; entry for
    alpha is the would-be value of D^alpha f at ``point``. The associated
    Taylor polynomial is T(z) = sum_alpha coeffs[alpha]/alpha! (z-point)^alpha.
    """

    point: tuple[float, ...]
    coeffs: tuple[float, ...]
    k: int

    def __post_init__(self):
        _check_int("jet order k", self.k, 0)
        n = len(self.point)
        want = n_coefficients(n, self.k)
        if len(self.coeffs) != want:
            raise InputError(
                f"jet needs {want} coefficients for n={n}, k={self.k}, got {len(self.coeffs)}"
            )
        if not all(map(math.isfinite, self.coeffs)):
            raise InputError("jet coefficients must be finite")
        if not all(map(math.isfinite, self.point)):
            raise InputError(f"jet base point must be finite, got {self.point}")

    @property
    def n(self) -> int:
        return len(self.point)

    def coeff(self, alpha) -> float:
        idx = _mi_table(self.n, self.k).index.get(tuple(alpha))
        if idx is None:
            raise InputError(f"{tuple(alpha)} is not a multi-index of this jet")
        return self.coeffs[idx]


def jet(point, coeffs, k: int) -> Jet:
    return Jet(_floats(np.atleast_1d(point)), _floats(coeffs), k)


def _floats(values) -> tuple[float, ...]:
    """float() of each entry, as a tuple; a 1-D float64 array gives the same
    floats in one tolist, without a numpy scalar per entry."""
    if isinstance(values, np.ndarray) and values.dtype == np.float64 and values.ndim == 1:
        return tuple(values.tolist())
    return tuple(map(float, values))


# Size in float64 elements (2 MB) of the temporaries one block of a
# blockwise sweep holds at once, so memory stays bounded for any number of
# pairs, queries or points. It is sized to the L2 cache, not to a memory
# budget: a block's temporaries are written and read again several times,
# and each pass runs from cache only while they fit. On a 2 vCPU Xeon with
# 4 MiB of L2, whitney_lambda at m = 300, n = 3, k = 2 takes 16-21 ms at
# 2**18 or 2**19 elements and 33-35 ms at 2**21, about the 16 MB blocks this
# replaced; 2**18 holds half the memory of 2**19. tests/block_sweep.py
# reruns the sweep (README, "Decisions").
_BLOCK_ELEMS = 1 << 18


def _blocks(count: int, width: int):
    """Consecutive slices of range(count) of at most _BLOCK_ELEMS // width
    items each (at least one), for width elements of temporaries alive per
    item at the sweep's peak."""
    step = max(1, _BLOCK_ELEMS // width)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _distances(a, b) -> np.ndarray:
    """Euclidean distances between points given coordinate-major: a[c] and
    b[c] hold the c-th coordinates and broadcast against each other.

    The squared differences are summed one coordinate at a time in
    coordinate order, the order of np.linalg.norm(a - b, axis=0), so every
    pair and query sweep gets the same bits for the same two points at every
    n. Two arrays of the broadcast shape are alive at once. Distinct points
    closer than about 1e-162 underflow to distance 0.
    """
    d = np.subtract(a[0], b[0])
    d *= d
    tmp = np.empty_like(d)
    for c in range(1, len(a)):
        np.subtract(a[c], b[c], out=tmp)
        tmp *= tmp
        d += tmp
    return np.sqrt(d, out=d)


@dataclass(frozen=True, eq=False)
class WhitneyField:
    """Pairwise-distinct points, rows of ``points`` (m, n), with their jets,
    rows of ``coeffs`` (m, J): read-only C-contiguous float64 copies validated
    once. Fields compare by identity; compare the arrays instead."""

    points: np.ndarray
    coeffs: np.ndarray
    k: int
    n: int

    def __post_init__(self):
        _check_int("field order k", self.k, 0)
        _check_int("field dimension n", self.n, 1)
        pts = np.array(self.points, dtype=float, order="C")
        coeffs = np.array(self.coeffs, dtype=float, order="C")
        if (pts.ndim != 2 or pts.shape[1] != self.n or coeffs.ndim != 2
                or coeffs.shape[1] != n_coefficients(self.n, self.k)):
            raise InputError(f"jet dimensions inconsistent with field: k={self.k}, n={self.n}, "
                             f"points {pts.shape}, coefficients {coeffs.shape}")
        m = len(pts)
        if len(coeffs) != m:
            raise InputError("one jet per point required")
        if m == 0:
            raise InputError("field needs at least one point")
        if not np.isfinite(coeffs).all():
            raise InputError("jet coefficients must be finite")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise InputError(f"jet base point must be finite, got {pts[bad[0]].tolist()}")
        ptsT = pts.T.copy()
        # row blocks in order, each against the columns from its first row on
        # with the entries j <= i masked: distances are symmetric, so the
        # first coincident pair in row-major order of the full distance
        # matrix has j > i, and the reported pair is that one. A block's peak
        # is the two arrays of the distance kernel; distances, unlike
        # coordinates, also catch a distance underflowing to 0.
        # Rounding is monotone, so no pair is farther apart than the corners
        # of the coordinate spans: when that distance is finite no pair
        # overflows, and only otherwise are the blocks searched for inf
        def first_pair(mask, blk):
            return (blk.start + c for c in np.unravel_index(np.argmax(mask), mask.shape))

        with np.errstate(over="ignore"):
            wide = np.isinf(_distances(ptsT.max(axis=1, keepdims=True), ptsT.min(axis=1, keepdims=True))[0])
            for blk in _blocks(m, 3 * m):
                dist = _distances(ptsT[:, blk, None], ptsT[:, None, blk.start :])
                dist[np.arange(dist.shape[0])[:, None] >= np.arange(dist.shape[1])] = np.nan
                if (dist == 0.0).any():
                    i, j = first_pair(dist == 0.0, blk)
                    raise InputError(f"coincident points at indices {i} and {j}: {pts[i].tolist()}")
                if wide and np.isinf(dist).any():
                    i, j = first_pair(np.isinf(dist), blk)
                    raise NumericalError(f"the distance between the points at indices {i} and {j} "
                                         f"overflows: {pts[i].tolist()} and {pts[j].tolist()}")
                del dist  # before the next block's kernel allocates
        pts.flags.writeable = coeffs.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "coeffs", coeffs)

    def __len__(self) -> int:
        return len(self.points)

    def scale(self, s: float) -> "WhitneyField":
        return WhitneyField(self.points, s * self.coeffs, self.k, self.n)

    def add(self, other: "WhitneyField") -> "WhitneyField":
        if not np.array_equal(self.points, other.points) or self.k != other.k or self.n != other.n:
            raise InputError("fields must share points, k and n to be added")
        return WhitneyField(self.points, self.coeffs + other.coeffs, self.k, self.n)


def field_from_data(points, values) -> WhitneyField:
    """k=0 convenience constructor from points and scalar values."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and np.ndim(points) == 1 and pts.shape[1] > 1:
        # ambiguous 1D input: a list of scalars means n=1 points
        pts = pts.T
    vals = np.asarray(values, dtype=float).ravel()
    if len(vals) != len(pts):
        raise InputError("one value per point required")
    return WhitneyField(pts, vals[:, None], 0, pts.shape[1])


def field_from_jets(jets_: list[Jet]) -> WhitneyField:
    if not jets_:
        raise InputError("field needs at least one jet")
    k, n = jets_[0].k, jets_[0].n
    if any(j.k != k or j.n != n for j in jets_):
        raise InputError("jet dimensions inconsistent with field")
    return WhitneyField([j.point for j in jets_], [j.coeffs for j in jets_], k, n)


@dataclass(frozen=True)
class NormContext:
    """Ambient smoothness parameters: order k, dimension n, modulus omega."""

    k: int
    n: int
    modulus: Modulus

    def __post_init__(self):
        _check_int("order k", self.k, 0)
        _check_int("dimension n", self.n, 1)


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
        k, n = obj["k"], obj["n"]
        points = list(obj["points"])
        jets_spec = list(obj["jets"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"field JSON needs k, n, points, jets: {exc}") from exc
    _check_int("field JSON: k", k, 0)
    _check_int("field JSON: n", n, 1)
    if len(points) != len(jets_spec):
        raise InputError("field JSON: one jet list per point required")
    index = _mi_table(n, k).index
    pts, coeffs = np.zeros((len(points), n)), np.zeros((len(points), len(index)))
    for i, (p, entries) in enumerate(zip(points, jets_spec)):
        if not isinstance(p, (list, tuple)) or not isinstance(entries, (list, tuple)):
            raise InputError(f"field JSON: point {i} needs a coordinate list and a jet list, "
                             f"got {p!r} and {entries!r}")
        for e in entries:
            try:
                alpha = _multi_index(e["alpha"])
                value = float(e["value"])
            except (InputError, KeyError, TypeError, ValueError) as exc:
                raise InputError(f"field JSON: jet entry {e!r} of point {i} needs an integer "
                                 f"alpha list and a numeric value ({exc})") from exc
            if alpha not in index:
                raise InputError(f"bad multi-index {alpha} for n={n}, k={k}")
            coeffs[i, index[alpha]] = value
        try:
            pts[i] = np.array([float(x) for x in p]).reshape(n)  # a row would broadcast [x]
        except (TypeError, ValueError) as exc:
            raise InputError(f"field JSON: point {i} coordinates {p!r} are not {n} numbers") from exc
    return WhitneyField(pts, coeffs, k, n)


def field_to_json(f: WhitneyField) -> dict:
    mis = multi_indices(f.n, f.k)
    return {
        "k": f.k,
        "n": f.n,
        "points": f.points.tolist(),
        "jets": [[{"alpha": list(alpha), "value": c} for alpha, c in zip(mis, row)]
                 for row in f.coeffs.tolist()],
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
    if start == len(rows):
        raise InputError(f"CSV {path} has a header but no data rows")
    data = []
    for r in rows[start:]:
        try:
            data.append([float(c) for c in r])
        except ValueError as exc:
            raise InputError(f"non-numeric CSV row {r!r}") from exc
        if len(r) != len(data[0]):
            raise InputError(f"CSV row {r!r} has {len(r)} columns, the first data row has {len(data[0])}")
    arr = np.asarray(data, dtype=float)
    if arr.shape[1] < 2:
        raise InputError("CSV needs at least one coordinate column and a value column")
    return field_from_data(arr[:, :-1], arr[:, -1])
