"""Atomic functionals, dual pairing, LP-based predual norms, and the
finiteness certifier.

The generating atoms are point evaluations delta_x^alpha (|alpha| <= k) and
scaled differences (delta_x^alpha - delta_y^alpha)/omega(||x-y||) with
|alpha| = k, x != y. For k = 0 the predual norm of a finite combination of
evaluation atoms is computed exactly: the LP
    max sum c_i u_i   s.t. |u_i| <= 1, |u_i - u_j| <= omega(||x_i - x_j||)
ranges over exactly the traces of norm-<=1 functions (every feasible u
McShane-extends with the same constants), so the optimum is the true norm.
It is solved in its LP dual, an m-row min-cost transshipment over the m
support points and a ground node; the duals of its rows are an optimal u.
For k >= 1 only a bracket [lo, hi] is produced: lo maximizes the pairing over
fields satisfying the pairwise compatibility constraints with lambda <= 1,
hi is the minimum total-variation atomic decomposition over atoms supported
on the functional's own points. Every LP here is in the solver's one form,
min c.x s.t. Ax = b, x >= 0: the transshipment and hi are posed that way,
and lo is solved in its LP dual, whose row duals are an optimal field. A
status other than OPTIMAL from any of them raises NumericalError.

The finiteness certifier compares the pairwise compatibility constant lambda
of a field with its supremum over subsets of at most d points. lambda is a
maximum over single points and pairs, so that supremum has a closed form
read off one sweep over the full field; no subset is enumerated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError
from .fields import NormContext, WhitneyField, mi_order, multi_indices
from .modulus import Modulus, validate
from .simplex import OPTIMAL, LinearProgram, solve
from .whitney import _reexpansion, whitney_lambda


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

    def validate(self, ctx: NormContext):
        if len(self.x) != ctx.n or len(self.alpha) != ctx.n:
            raise InputError("atom dimension mismatch")
        if self.kind == "delta" and mi_order(self.alpha) > ctx.k:
            raise InputError(f"delta atom needs |alpha| <= {ctx.k}")
        if self.kind == "diff" and mi_order(self.alpha) != ctx.k:
            raise InputError(f"difference atom needs |alpha| = {ctx.k}")


def delta(x, alpha=None) -> Atom:
    x = tuple(float(v) for v in np.atleast_1d(x))
    alpha = (0,) * len(x) if alpha is None else tuple(int(a) for a in alpha)
    return Atom("delta", x, alpha)


def difference(x, y, alpha=None) -> Atom:
    x = tuple(float(v) for v in np.atleast_1d(x))
    y = tuple(float(v) for v in np.atleast_1d(y))
    alpha = (0,) * len(x) if alpha is None else tuple(int(a) for a in alpha)
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
        pts = set()
        for a in self.atoms:
            pts.add(a.x)
            if a.y is not None:
                pts.add(a.y)
        return tuple(sorted(pts))

    def scale(self, s: float) -> "AtomicFunctional":
        return AtomicFunctional(self.atoms, tuple(s * c for c in self.coeffs), self.ctx)

    def add(self, other: "AtomicFunctional") -> "AtomicFunctional":
        if other.ctx != self.ctx:
            raise InputError("functionals live in different contexts")
        return AtomicFunctional(self.atoms + other.atoms, self.coeffs + other.coeffs, self.ctx)


def functional(atoms, coeffs, ctx: NormContext) -> AtomicFunctional:
    return AtomicFunctional(tuple(atoms), tuple(float(c) for c in coeffs), ctx)


def pair(f, g: AtomicFunctional) -> float:
    """Dual pairing <f, g> = sum coef * (D^alpha f(x) or the scaled difference).

    f is a WhitneyField carrying jets at every atom point, or a derivative
    oracle callable(alpha, X) on (m, n) arrays.
    """
    om = g.ctx.modulus
    if isinstance(f, WhitneyField):
        if f.k < g.ctx.k or f.n != g.ctx.n:
            raise InputError("field order/dimension insufficient for the functional")
        table = {tuple(p): j for p, j in zip(f.points, f.jets)}

        def deriv(alpha, pt):
            j = table.get(tuple(pt))
            if j is None:
                raise InputError(f"field has no jet at atom point {pt}")
            return j.coeff(alpha)

    else:

        def deriv(alpha, pt):
            return float(np.asarray(f(alpha, np.asarray(pt, dtype=float).reshape(1, -1)))[0])

    total = 0.0
    for a, c in zip(g.atoms, g.coeffs):
        if a.kind == "delta":
            total += c * deriv(a.alpha, a.x)
        else:
            d = float(np.linalg.norm(np.asarray(a.x) - np.asarray(a.y)))
            total += c * (deriv(a.alpha, a.x) - deriv(a.alpha, a.y)) / om(d)
    return total


# ---------------------------------------------------------------------------
# k = 0 exact norm


def _k0_norm_lp(g: AtomicFunctional, omega: Modulus):
    """(support, LPSolution) of the min-cost transshipment that gives the k=0
    norm (an LP with no rows and no variables for an empty support).

    One conservation row per support point i (net outflow = c_i) over arcs
    i -> j and j -> i of cost omega(||x_i - x_j||) and arcs to and from
    ground of cost 1. It is the LP dual of max c.u s.t. |u_i| <= 1,
    |u_i - u_j| <= omega_ij, so the duals of its rows are an optimal u.
    """
    n = g.ctx.n
    zero = (0,) * n
    for a in g.atoms:
        if a.kind != "delta" or a.alpha != zero:
            raise InputError("predual_norm_k0 handles k=0 delta atoms only")
    if omega.kind == "table" and len(omega.breakpoints) > 1:
        # Without the axioms a feasible u need not extend with the same
        # constants, and the optimum then depends on points whose atoms
        # cancel. A table is linear between breakpoints, where t/omega(t) is
        # monotone, so checking them checks all of (0, inf).
        bad = validate(omega, [t for t, _ in omega.breakpoints]).violations
        if bad:
            v = bad[0]
            raise InputError(f"k=0 norm needs a modulus with {v.axiom}: it fails "
                             f"between t = {v.t_lo} and t = {v.t_hi}")
    support = g.support()
    index = {p: i for i, p in enumerate(support)}
    m = len(support)
    c = np.zeros(m)
    for a, coef in zip(g.atoms, g.coeffs):
        c[index[a.x]] += coef
    P = np.asarray(support, dtype=float).reshape(m, n)
    i, j = np.triu_indices(m, 1)
    w = omega(np.linalg.norm(P[i] - P[j], axis=1))
    inc = np.zeros((m, i.size))  # arc i -> j: +1 at i, -1 at j
    inc[i, np.arange(i.size)] = 1.0
    inc[j, np.arange(i.size)] = -1.0
    arcs, cost = np.hstack([inc, -inc]), np.concatenate([w, w])
    # Ground arcs first give a feasible basis in m phase-1 pivots; arcs in
    # increasing cost make Bland's rule enter cheap arcs first (3-5x fewer
    # pivots than pair order at m = 28-60).
    order = np.argsort(cost, kind="stable")
    ground = np.eye(m)
    sol = solve(LinearProgram(np.concatenate([np.ones(2 * m), cost[order]]),
                              np.hstack([ground, -ground, arcs[:, order]]), c))
    if sol.status != OPTIMAL:
        raise NumericalError(f"k=0 norm LP unexpectedly {sol.status}")
    return support, sol


def predual_norm_k0(g: AtomicFunctional, omega: Modulus | None = None) -> float:
    """Exact predual norm of a k=0 combination of evaluation atoms."""
    om = omega or g.ctx.modulus
    _, sol = _k0_norm_lp(g, om)
    return sol.optimum


def predual_norm_k0_certificate(g: AtomicFunctional, omega: Modulus | None = None):
    """(norm, support points, optimal trace vector u) for duality tests:
    the McShane extension of u attains the pairing value. u is read off the
    duals of the transshipment's conservation rows."""
    om = omega or g.ctx.modulus
    support, sol = _k0_norm_lp(g, om)
    return sol.optimum, support, sol.dual_eq


# ---------------------------------------------------------------------------
# general k bracket


def predual_norm_bracket(g: AtomicFunctional, ctx: NormContext | None = None):
    """Two-sided bracket [lo, hi] for the predual norm at general k.

    lo: max <f, g> over Whitney fields on the support with the pairwise
    compatibility constant lambda <= 1 (a valid lower bound: lambda
    underestimates the true trace norm up to fixed equivalence constants, and
    every atom has |<f, atom>| <= 1 under these constraints), solved in its
    LP dual, whose row duals are an optimal field.
    hi: minimum total variation of a decomposition of g over atoms supported
    on the support points (a valid upper bound since every atom has norm <= 1).
    """
    lo, hi = _bracket_solutions(g, ctx or g.ctx)
    return lo.optimum, hi.optimum


def _bracket_solutions(g: AtomicFunctional, ctx: NormContext):
    """(lo, hi) LPSolutions of the two bracket LPs built by _bracket_lps."""
    lo_lp, hi_lp = _bracket_lps(g, ctx)
    lo = solve(lo_lp)
    if lo.status != OPTIMAL:
        raise NumericalError(f"bracket lower LP unexpectedly {lo.status}")
    hi = solve(hi_lp)
    if hi.status != OPTIMAL:
        raise NumericalError(f"bracket upper LP unexpectedly {hi.status}")
    return lo, hi


def _bracket_lps(g: AtomicFunctional, ctx: NormContext):
    """(lo, hi) LinearPrograms of the bracket, over the jet slots i*J + alpha
    of the sorted support points x_i (no rows and no variables for an empty
    support).

    lo is the LP dual min rhs.y s.t. A^T y = gamma, y >= 0 of max gamma.f
    s.t. A f <= rhs over free slot values f. The rows of A (the columns of
    A^T, one variable y each) are +-e_slot <= 1 for each slot, then for each
    pair i < j, z in (x_i, x_j) and alpha in turn
    +-(D^alpha T_i(z) - D^alpha T_j(z)) <= ||x_i - x_j||^(k-|alpha|) omega,
    with T_i the Taylor polynomial of the slots of x_i. f = 0 is feasible and
    the box rows bound f, so both LPs have the same finite optimum, and an
    optimal f is lo's dual_eq.
    hi, min total variation over the delta atoms on every slot and the
    difference atoms of order k on every pair i < j, split as t = tp - tm.
    """
    k, n, om = ctx.k, ctx.n, ctx.modulus
    support = g.support()
    mis = multi_indices(n, k)
    m, J = len(support), len(mis)
    idx = {p: i for i, p in enumerate(support)}

    def slot(p, alpha):
        return idx[p] * J + mis.index(alpha)

    gamma = np.zeros(m * J)
    for a, coef in zip(g.atoms, g.coeffs):
        if a.kind == "delta":
            gamma[slot(a.x, a.alpha)] += coef
        else:
            d = float(np.linalg.norm(np.asarray(a.x) - np.asarray(a.y)))
            w = om(d)
            gamma[slot(a.x, a.alpha)] += coef / w
            gamma[slot(a.y, a.alpha)] -= coef / w

    pts = np.asarray(support, dtype=float).reshape(m, n)
    pi, pj = np.triu_indices(m, 1)
    pairs = np.arange(pi.size)[:, None]
    dz = (pts[pi] - pts[pj]).T  # x_i - x_j, shape (n, pairs)
    dist = np.linalg.norm(dz, axis=0)
    w_om = np.atleast_1d(om(dist))
    orders = np.array([mi_order(a) for a in mis], dtype=float)

    # --- lo: the coefficient of slot (j, alpha + gamma) in D^alpha T_j(x_i)
    # is the re-expansion weight dz^gamma / gamma!; across -dz it is the same
    # weight times (-1)^|gamma|. Column r of At is primal row r.
    op = _reexpansion(n, k)
    w = op.weights(dz)
    a_idx, g_idx = np.nonzero(np.arange(J)[:, None] < op.rows)  # |alpha + gamma| <= k
    shifted, own = op.shift[a_idx, g_idx], np.arange(J)
    At = np.zeros((m * J, 2 * m * J + 4 * pi.size * J))
    s = np.arange(m * J)
    At[s, 2 * s], At[s, 2 * s + 1] = 1.0, -1.0
    R = At[:, 2 * m * J :].reshape(m * J, pi.size, 2, J, 2)  # (slot, pair, z, alpha, +-), a view
    R[pj[:, None] * J + shifted, pairs, 0, a_idx, 0] = -w[g_idx].T
    R[pi[:, None] * J + own, pairs, 0, own, 0] = 1.0
    R[pi[:, None] * J + shifted, pairs, 1, a_idx, 0] = (w * op.sign[:, None])[g_idx].T
    R[pj[:, None] * J + own, pairs, 1, own, 0] = -1.0
    R[..., 1] = -R[..., 0]
    bound = dist[:, None] ** (k - orders) * w_om[:, None]  # (pair, alpha)
    rhs = np.concatenate([np.ones(2 * m * J), np.repeat(np.tile(bound, 2), 2)])
    lo = LinearProgram(rhs, At, gamma)

    # --- hi: one column per slot, then per pair i < j and |alpha| = k
    top = np.flatnonzero(orders == k)
    D = np.zeros((m * J, pi.size, top.size))
    D[pi[:, None] * J + top, pairs, np.arange(top.size)] = 1.0 / w_om[:, None]
    D[pj[:, None] * J + top, pairs, np.arange(top.size)] = -1.0 / w_om[:, None]
    M = np.hstack([np.eye(m * J), D.reshape(m * J, pi.size * top.size)])
    hi = LinearProgram(np.ones(2 * M.shape[1]), np.hstack([M, -M]), gamma)
    return lo, hi


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
        return {
            "full": self.full,
            "subset_sup": self.subset_sup,
            "ratio": self.ratio,
            "d": self.d,
            "witness_subset": list(self.witness_subset),
            "early_exit": self.early_exit,
            "n_subsets": self.n_subsets,
        }


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
    if d < 1:
        raise InputError("d must be >= 1")
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
