"""Atomic functionals, dual pairing, LP-based predual norms, and the
finiteness certifier.

The generating atoms are point evaluations delta_x^alpha (|alpha| <= k) and
scaled differences (delta_x^alpha - delta_y^alpha)/omega(||x-y||) with
|alpha| = k, x != y. A finite combination is lowered once to one charge per
jet slot (x, alpha) (``AtomicFunctional.lowering``); the pairing, the k = 0
LP and the bracket read the charges. For k = 0 the norm of every finite
combination is exact: the LP over the charges c
    max sum c_i u_i   s.t. |u_i| <= 1, |u_i - u_j| <= omega(||x_i - x_j||)
ranges over exactly the traces of norm-<=1 functions (every feasible u
McShane-extends with the same constants), so the optimum is the true norm.
It is solved in its LP dual, an m-row min-cost transportation problem that
ships the positive charges to the negative ones and to a ground node, which
the modulus axioms make exact (``_transport``); the duals of its rows,
repaired by a double omega-transform, are an optimal u.
For k >= 1 only a pair [lo, hi] is produced: hi, the minimum total-variation
atomic decomposition over atoms on the functional's own points, is a sound
upper bound, one transportation problem per charged order-k alpha; lo, the
optimum of the relaxation to fields with pairwise lambda <= 1, can exceed
the norm. Every LP is in the solver's one form, min c.x s.t. Ax = b, x >= 0,
lo in its LP dual, whose row duals are an optimal field; a status other
than OPTIMAL from any of them raises NumericalError.

The finiteness certifier compares the pairwise compatibility constant lambda
of a field with its supremum over subsets of at most d points. lambda is a
maximum over single points and pairs, so that supremum has a closed form
read off one sweep over the full field; no subset is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NumericalError
from .fields import NormContext, WhitneyField, _check_int, _distances, _mi_table, _multi_index, mi_order
from .modulus import validate
from .simplex import OPTIMAL, LinearProgram, solve
from .whitney import whitney_lambda


@dataclass(frozen=True)
class Atom:
    """delta_x^alpha, or the scaled difference (delta_x^alpha - delta_y^alpha)/omega."""

    kind: str  # "delta" | "diff"
    x: tuple[float, ...]
    alpha: tuple[int, ...]
    y: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("delta", "diff"):
            raise InputError("atom kind must be 'delta' or 'diff'")
        if self.kind == "diff":
            if self.y is None:
                raise InputError("difference atom needs a second point")
            if tuple(self.y) == tuple(self.x):
                raise InputError("difference atom needs distinct points")
        for p in (self.x, self.y or ()):
            if not all(math.isfinite(v) for v in p):
                raise InputError(f"atom point must be finite, got {p}")

    def validate(self, ctx: NormContext):
        if len(self.x) != ctx.n or len(self.alpha) != ctx.n:
            raise InputError("atom dimension mismatch")
        if self.kind == "delta" and mi_order(self.alpha) > ctx.k:
            raise InputError(f"delta atom needs |alpha| <= {ctx.k}")
        if self.kind == "diff" and mi_order(self.alpha) != ctx.k:
            raise InputError(f"difference atom needs |alpha| = {ctx.k}")


def delta(x, alpha=None) -> Atom:
    x = tuple(float(v) for v in np.atleast_1d(x))
    alpha = (0,) * len(x) if alpha is None else _multi_index(alpha)
    return Atom("delta", x, alpha)


def difference(x, y, alpha=None) -> Atom:
    x = tuple(float(v) for v in np.atleast_1d(x))
    y = tuple(float(v) for v in np.atleast_1d(y))
    alpha = (0,) * len(x) if alpha is None else _multi_index(alpha)
    return Atom("diff", x, alpha, y)


@dataclass(frozen=True)
class AtomicFunctional:
    """Finite combination of atoms; duplicates merged, zero coefficients dropped."""

    atoms: tuple[Atom, ...]
    coeffs: tuple[float, ...]
    ctx: NormContext

    def __post_init__(self):
        if len(self.atoms) != len(self.coeffs):
            raise InputError("one coefficient per atom required")
        merged: dict[Atom, float] = {}
        for a, c in zip(self.atoms, self.coeffs):
            a.validate(self.ctx)
            if not math.isfinite(c):
                raise InputError(f"coefficient {c} of atom {a} is not finite")
            merged[a] = merged.get(a, 0.0) + float(c)
        pruned = [(a, c) for a, c in merged.items() if c != 0.0]
        object.__setattr__(self, "atoms", tuple(a for a, _ in pruned))
        object.__setattr__(self, "coeffs", tuple(c for _, c in pruned))

    def support(self) -> tuple[tuple[float, ...], ...]:
        return tuple(map(tuple, self.lowering[0].tolist()))

    @cached_property
    def lowering(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (points, charges): the sorted support (m, n) and the
        charges (m, J) of its jet slots. A delta atom adds coef
        to its slot, a difference atom +-coef/omega(||x - y||) to the slots
        of x and y, in atom order (the 1D bracket's bits depend on it)."""
        n, om = self.ctx.n, self.ctx.modulus
        support = sorted({p for a in self.atoms for p in (a.x, a.y or a.x)})
        row = {p: i for i, p in enumerate(support)}
        index = _mi_table(n, self.ctx.k).index
        points = np.array(support, dtype=float).reshape(len(support), n)
        charges = np.zeros((len(support), len(index)))
        xs = [row[a.x] for a in self.atoms]
        ys = [row[a.y or a.x] for a in self.atoms]
        dist = _distances(points.T[:, xs], points.T[:, ys])  # 0 for a delta atom
        for a, coef, i, j, d in zip(self.atoms, self.coeffs, xs, ys, dist):
            s = index[a.alpha]
            if a.kind == "delta":
                charges[i, s] += coef
            else:
                w = om(float(d))
                charges[i, s] += coef / w
                charges[j, s] -= coef / w
        points.flags.writeable = charges.flags.writeable = False
        return points, charges

    def scale(self, s: float) -> "AtomicFunctional":
        return AtomicFunctional(self.atoms, tuple(s * c for c in self.coeffs), self.ctx)

    def add(self, other: "AtomicFunctional") -> "AtomicFunctional":
        if other.ctx != self.ctx:
            raise InputError("functionals live in different contexts")
        return AtomicFunctional(self.atoms + other.atoms, self.coeffs + other.coeffs, self.ctx)


def functional(atoms, coeffs, ctx: NormContext) -> AtomicFunctional:
    return AtomicFunctional(tuple(atoms), tuple(float(c) for c in coeffs), ctx)


def pair(f, g: AtomicFunctional) -> float:
    """Dual pairing <f, g>: the sum of the charges of g times the values of f
    at their jet slots.

    f is a WhitneyField carrying jets at every support point (its order-<=k
    coefficients are a prefix of its own in graded order), or a derivative
    oracle callable(alpha, X), called once per alpha that carries a charge,
    on the (m, n) support array.
    """
    points, charges = g.lowering
    m, J = charges.shape
    if isinstance(f, WhitneyField):
        if f.k < g.ctx.k or f.n != g.ctx.n:
            raise InputError("field order/dimension insufficient for the functional")
        index = {p: i for i, p in enumerate(map(tuple, f.points.tolist()))}
        rows = [index.get(p) for p in map(tuple, points.tolist())]
        if None in rows:
            raise InputError(f"field has no jet at atom point {tuple(points[rows.index(None)].tolist())}")
        values = f.coeffs[rows, :J]
    else:
        mis = _mi_table(g.ctx.n, g.ctx.k).mis
        values = np.zeros((m, J))
        for s in np.flatnonzero(charges.any(axis=0)):
            values[:, s] = np.asarray(f(mis[s], points), dtype=float).reshape(m)
    return float(np.sum(charges * values))


# ---------------------------------------------------------------------------
# k = 0 exact norm


def _transport(points, c, omega):
    """(w, LPSolution) of the min-cost transportation problem whose optimum
    is the k=0 norm of the charges c on the rows of points (no rows and no
    variables for no points): one conservation row per point (net outflow
    c_i), a ground arc of cost 1 per point (out of P = {c > 0}, into N; a
    zero charge is in N and forces its arcs to 0) and an arc i -> j of cost
    w[a, b] = omega(||x_i - x_j||) per i = P[a], j = N[b], in index order.
    Under the modulus axioms omega is nondecreasing and subadditive, so
    omega(||x - y||) capped at 2 (the detour through ground) is a metric:
    every flow path shortcuts to its ends at no more cost, and this LP has
    the full transshipment's optimum. It is the LP dual of max c.u s.t.
    u_i <= 1 on P, u_j >= -1 on N, u_i - u_j <= w on P x N, so its row duals
    are u feasible only on P x N (``predual_norm_k0_certificate`` repairs them).
    """
    if omega.kind == "table" and len(omega.breakpoints) > 1:
        # Without the axioms a feasible u need not extend with the same
        # constants, and the optimum then depends on points whose atoms
        # cancel; nor is the transportation form exact. A table is linear
        # between breakpoints, where t/omega(t) is monotone, so checking them
        # checks all of (0, inf).
        bad = validate(omega, [t for t, _ in omega.breakpoints]).violations
        if bad:
            v = bad[0]
            raise InputError(f"k=0 norm needs a modulus with {v.axiom}: it fails "
                             f"between t = {v.t_lo} and t = {v.t_hi}")
    m = len(points)
    pos = c > 0.0
    P, N = np.flatnonzero(pos), np.flatnonzero(~pos)
    w = omega(_distances(points.T[:, P, None], points.T[:, None, N]).ravel()).reshape(P.size, N.size)
    pa, na = np.divmod(np.arange(w.size), N.size)  # arc P[pa] -> N[na]: +1 at P[pa], -1 at N[na]
    arcs = np.zeros((m, w.size))
    arcs[P[pa], np.arange(w.size)] = 1.0
    arcs[N[na], np.arange(w.size)] = -1.0
    sol = solve(LinearProgram(np.concatenate([np.ones(m), w.ravel()]),
                              np.hstack([np.diag(np.where(pos, 1.0, -1.0)), arcs]), c))
    if sol.status != OPTIMAL:
        raise NumericalError(f"transportation LP unexpectedly {sol.status}")
    return w, sol


def _k0_norm_lp(g: AtomicFunctional):
    """(c, w, LPSolution) of ``_transport`` on the order-0 charges c."""
    if any(mi_order(a.alpha) > 0 for a in g.atoms):
        raise InputError("predual_norm_k0 handles atoms of order 0 only")
    points, charges = g.lowering
    return (charges[:, 0], *_transport(points, charges[:, 0], g.ctx.modulus))


def predual_norm_k0(g: AtomicFunctional) -> float:
    """Exact predual norm of a k=0 combination of atoms, under g's modulus."""
    return _k0_norm_lp(g)[-1].optimum


def predual_norm_k0_certificate(g: AtomicFunctional):
    """(norm, support points, optimal trace vector u) for duality tests:
    the McShane extension of u attains the pairing value.

    The transportation LP's row duals bound u - omega only on P x N pairs.
    The double omega-transform u_N <- max(-1, max_P (u_i - w)), then u_P <-
    min(1, min_N (u_j + w)) (McShane in both directions) can only lower u_N
    and raise u_P, so it can only raise c.u; its result is bounded by 1 and
    omega-Lipschitz on every pair, so it is an optimal trace."""
    c, w, sol = _k0_norm_lp(g)
    pos = c > 0.0
    u = sol.dual_eq.copy()
    u[~pos] = np.maximum(-1.0, np.max(u[pos, None] - w, axis=0, initial=-np.inf))
    u[pos] = np.minimum(1.0, np.min(u[~pos] + w, axis=1, initial=np.inf))
    return sol.optimum, g.support(), u


# ---------------------------------------------------------------------------
# general k bracket


def predual_norm_bracket(g: AtomicFunctional, ctx: NormContext | None = None):
    """The pair [lo, hi] for the predual norm at general k.

    lo: max <f, g> over Whitney fields on the support with the pairwise
    compatibility constant lambda <= 1, solved in its LP dual, whose row
    duals are an optimal field. Not a lower bound: lambda <= ||F|| has no
    converse, and at k >= 1 lo can exceed the norm (n = 1, k = 1,
    omega(t) = t, g = delta_d - delta_0: lo = d + d^2 > d >= ||g||).
    hi: minimum total variation of g over atoms on the support points (sound:
    every atom has norm <= 1), one k = 0 norm per charged order-k alpha, for
    which a table modulus must meet the axioms. ctx, if given, must be g's.
    """
    if ctx is not None and ctx != g.ctx:
        raise InputError("bracket context differs from the functional's context")
    lo, hi, _ = _bracket_solutions(g)
    return lo.optimum, hi


def _bracket_solutions(g: AtomicFunctional):
    """(lo, hi, transports): lo's LPSolution, hi and its transportation
    LPSolutions, one per charged order-k alpha in graded order. Only its own
    delta atom reaches a slot of order < k, which costs |charge|, and the
    difference atoms of an order-k alpha reach only its slots, whose charges
    cost their k = 0 norm. lo is built first and solved last, so its input
    checks and then the transportation problems' modulus check come first."""
    lo_lp = _lo_lp(g)
    points, charges = g.lowering
    order = _mi_table(g.ctx.n, g.ctx.k).order
    top = np.flatnonzero((order == g.ctx.k) & charges.any(axis=0))
    transports = [_transport(points, charges[:, s], g.ctx.modulus)[1] for s in top]
    lo = solve(lo_lp)
    if lo.status != OPTIMAL:
        raise NumericalError(f"bracket lower LP unexpectedly {lo.status}")
    return lo, float(np.abs(charges[:, order < g.ctx.k]).sum()) + sum(t.optimum for t in transports), transports


def _lo_lp(g: AtomicFunctional):
    """lo's LinearProgram, over the jet slots i*J + alpha of the sorted
    support points x_i, whose charges gamma are the flattened lowering (no
    rows and no variables for an empty support).

    lo is the LP dual min rhs.y s.t. A^T y = gamma, y >= 0 of max gamma.f
    s.t. A f <= rhs over free slot values f. The rows of A (the columns of
    A^T, one variable y each) are +-e_slot <= 1 for each slot, then for each
    pair i < j, z in (x_i, x_j) and alpha in turn
    +-(D^alpha T_i(z) - D^alpha T_j(z)) <= ||x_i - x_j||^(k-|alpha|) omega,
    with T_i the Taylor polynomial of the slots of x_i. f = 0 is feasible and
    the box rows bound f, so both LPs have the same finite optimum, and an
    optimal f is lo's dual_eq.
    """
    k, n, om = g.ctx.k, g.ctx.n, g.ctx.modulus
    pts, charges = g.lowering
    t = _mi_table(n, k)
    (m, J), gamma = charges.shape, charges.ravel()
    pi, pj = np.triu_indices(m, 1)
    pairs = np.arange(pi.size)[:, None]
    dz = (pts[pi] - pts[pj]).T  # x_i - x_j, shape (n, pairs)
    dist = _distances(pts.T[:, pi], pts.T[:, pj])

    # the coefficient of slot (j, alpha + gamma) in D^alpha T_j(x_i) is the
    # re-expansion weight dz^gamma / gamma!; across -dz it is the same
    # weight times (-1)^|gamma|. Column r of At is primal row r.
    w = t.weights(dz)
    a_idx, g_idx, shifted = t.sums()  # |alpha + gamma| <= k
    own = np.arange(J)
    At = np.zeros((m * J, 2 * m * J + 4 * pi.size * J))
    s = np.arange(m * J)
    At[s, 2 * s], At[s, 2 * s + 1] = 1.0, -1.0
    R = At[:, 2 * m * J :].reshape(m * J, pi.size, 2, J, 2)  # (slot, pair, z, alpha, +-), a view
    R[pj[:, None] * J + shifted, pairs, 0, a_idx, 0] = -w[g_idx].T
    R[pi[:, None] * J + own, pairs, 0, own, 0] = 1.0
    R[pi[:, None] * J + shifted, pairs, 1, a_idx, 0] = (w * t.sign[:, None])[g_idx].T
    R[pj[:, None] * J + own, pairs, 1, own, 0] = -1.0
    R[..., 1] = -R[..., 0]
    bound = dist[:, None] ** (k - t.order) * np.atleast_1d(om(dist))[:, None]  # (pair, alpha)
    rhs = np.concatenate([np.ones(2 * m * J), np.repeat(np.tile(bound, 2), 2)])
    return LinearProgram(rhs, At, gamma)


# ---------------------------------------------------------------------------
# finiteness certifier


@dataclass(frozen=True)
class FinitenessReport:
    full: float
    subset_sup: float
    ratio: float
    d: int
    witness_subset: tuple
    early_exit: bool
    n_subsets: int

    def to_dict(self) -> dict:
        return {**asdict(self), "witness_subset": list(self.witness_subset)}


def finiteness_gap(field: WhitneyField, d: int, ctx: NormContext) -> FinitenessReport:
    """Compare the full trace quantity with its sup over card <= d subsets.

    The trace quantity is the pairwise compatibility constant lambda (for
    k = 0 the exact trace norm). lambda is a maximum over single points and
    pairs, so its sup over subsets is lam_sup for d = 1 (a single point has
    no oscillation) and lambda itself for d >= 2: one sweep over the full
    field gives the answer in closed form, and ratio is 1 whenever d >= 2.

    witness_subset is the subset attaining the sup: () for lambda = 0, the
    sup witness point when it attains lambda or d = 1, else the oscillation
    witness pair. n_subsets and early_exit describe enumerating the subsets
    in order of size, then lexicographically, and stopping at the first one
    whose lambda reaches the full value: n_subsets is the witness's
    1-based position in that order (m with early_exit False when d = 1 and
    no point reaches lambda).
    """
    _check_int("d", d, 1)
    m = len(field)
    rep = whitney_lambda(field, ctx)
    full = rep.lam
    if rep.lam_sup == full:  # a single point attains lambda
        i = rep.sup_witness[0]
        subset_sup, witness, early, checked = full, (i,) if full > 0.0 else (), True, i + 1
    elif d == 1:  # no subset reaches lambda, so all m points are enumerated
        subset_sup, witness, early, checked = rep.lam_sup, (rep.sup_witness[0],), False, m
    else:
        i, j = rep.osc_witness[:2]
        # m singletons, then the pairs before (i, j) in lexicographic order, then (i, j)
        subset_sup, witness, early = full, (i, j), True
        checked = m + i * (m - 1) - i * (i - 1) // 2 + (j - i)
    # subset_sup is 0 only for all-zero jets, where full is 0 as well
    ratio = full / subset_sup if subset_sup > 0.0 else 1.0
    return FinitenessReport(full, subset_sup, ratio, d, witness, early, checked)
