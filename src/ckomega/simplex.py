"""Dense two-phase simplex on one standard form.

Internal LP layer powering predual norms and Markov ratios. Every LP is

    min c.x  subject to  A x = b,  x >= 0;

callers whose natural problem has free variables or inequality rows pose its
LP dual instead, which is of this form, and read their free variables off
the duals of its rows (``LPSolution.dual_eq``). Problems are small and
dense. Pivots follow Dantzig's rule, with Bland's entering rule after a
degenerate streak, and leave by one largest-pivot ratio test (``_iterate``);
every choice breaks ties by index, so identical inputs produce identical
pivot sequences and outputs. One tableau serves
both phases: it holds the structural columns, then one artificial per row;
phase 1 starts from a crash basis that puts a unit column of A in every row
that has one, and phase 2 prices only the structural columns, so the
artificial block stays B^-1 and the duals are read off its reduced costs.
Each status is certified against A, b and c before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

_PIVOT_TOL = 1e-9
_PIVOT_REL = 1e-8  # a ratio-test entry must also exceed this times its column's largest
_COST_TOL = 1e-9
_PHASE1_TOL = 1e-8
_RAY_TOL = 1e-7  # every certificate residual allowed per unit of its scale, e.g. |A d| per ||A|| ||d||
_DEGENERATE_TOL = 1e-12  # a pivot whose leaving row has rhs <= this does not move x
_STALL = 50  # consecutive degenerate pivots after which Bland's rule enters

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  lhs_eq x = rhs_eq,  x >= 0."""

    objective: np.ndarray
    lhs_eq: np.ndarray
    rhs_eq: np.ndarray

    # Not fields: perfbench's tracer (tracer._tableau_mb) still reads the
    # inequality rows of an earlier free-variable form; there are none.
    lhs_ineq = None
    rhs_ineq = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        nv = c.size
        a = np.atleast_2d(np.asarray(self.lhs_eq, dtype=float))
        b = np.atleast_1d(np.asarray(self.rhs_eq, dtype=float))
        if a.shape[0] != b.size:
            raise InputError(f"{a.shape[0]} rows for {b.size} right-hand sides")
        if a.shape[1] != nv:
            raise InputError(f"{a.shape[1]} columns for {nv} variables")
        if not (np.isfinite(c).all() and np.isfinite(a).all() and np.isfinite(b).all()):
            raise InputError("LP data must be finite")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "lhs_eq", a)
        object.__setattr__(self, "rhs_eq", b)
        if nv > 10**4 or self.n_rows > 10**4:
            raise InputError("dense solver guard: dimensions exceed 1e4")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.lhs_eq.shape[0]


@dataclass(frozen=True)
class LPSolution:
    status: str
    optimum: float | None
    x: np.ndarray | None
    dual_eq: np.ndarray | None  # w with A^T w <= c and b.w = optimum, if OPTIMAL
    iterations: int
    feasibility_residual: float | None = None
    duality_gap: float | None = None
    complementarity_residual: float | None = None
    basis: np.ndarray | None = field(default=None, repr=False)  # structural columns of the optimal basis, one per kept row
    ray: np.ndarray | None = field(default=None, repr=False)  # d >= 0, A d = 0, c.d < 0 if UNBOUNDED


def _pivot(T, r, j):
    """Pivot tableau T on (r, j), updating only the rows with a nonzero
    entry in column j: the others would subtract an exact zero."""
    T[r, :] /= T[r, j]
    factors = T[:, j].copy()
    factors[r] = 0.0
    nz = np.flatnonzero(factors)
    T[nz] -= factors[nz, None] * T[r]
    T[:, j] = 0.0
    T[r, j] = 1.0


def _iterate(T, basis, max_iter, ncol):
    """Run simplex pivots on tableau T (last row = reduced costs, last column
    = rhs / negated objective) until optimal or unbounded, pricing only the
    first ncol columns. Minimization convention: optimal when all their
    reduced costs >= -tol. basis is an int array, updated in place.

    Dantzig's rule enters the most negative reduced cost; once ``_STALL``
    pivots in a row are degenerate (leaving rhs <= 1e-12), Bland's entering
    rule (the smallest eligible index) chooses until a pivot is not. In both
    modes the ratio test admits a row only if its entry exceeds
    max(_PIVOT_TOL, _PIVOT_REL times the column's largest magnitude), so a
    pivot is never rounding noise relative to its column (Harris, Math.
    Programming 5, 1973), and leaves, among rows within 1e-12 of the
    smallest ratio, the one with the largest pivot entry, which keeps the
    tableau well conditioned. Nothing proves that this terminates in
    floating point (Bland's proof assumes exact arithmetic, and his
    smallest-index leaving rule, which took pivots down to 9e-9, cycled on
    bracket LPs); more than max_iter pivots raise NumericalError.
    """
    m = T.shape[0] - 1
    it = stall = 0
    if ncol == 0:
        return "optimal", it, None
    while True:
        cost = T[-1, :ncol]
        j = int((cost < -_COST_TOL).argmax()) if stall >= _STALL else int(cost.argmin())
        if cost[j] >= -_COST_TOL:
            return "optimal", it, None
        col = T[:m, j]
        rows = np.flatnonzero(col > max(_PIVOT_TOL, _PIVOT_REL * float(np.abs(col).max(initial=0.0))))
        if rows.size == 0:
            return "unbounded", it, j
        if rows.size == 1:
            r = int(rows[0])
        else:
            ratios = T[rows, -1] / col[rows]
            tied = rows[ratios <= ratios.min() + 1e-12]
            r = int(tied[np.argmax(col[tied])])
        stall = stall + 1 if T[r, -1] <= _DEGENERATE_TOL else 0
        _pivot(T, r, j)
        basis[r] = j
        it += 1
        if it > max_iter:
            raise NumericalError(f"simplex exceeded {max_iter} iterations (possible cycling)")


def solve(lp: LinearProgram) -> LPSolution:
    """Solve a dense LP; status-correct result with optimality certificates.

    OPTIMAL solutions carry the dual vector and the residuals that certify
    them: primal feasibility, duality gap and complementary slackness.
    OPTIMAL is returned only with x >= 0, A x = b, A^T w <= c and c.x = b.w
    checked, UNBOUNDED only with a checked ray and INFEASIBLE only with a
    checked Farkas vector; a failed check raises NumericalError.
    """
    c, A, b = lp.objective, lp.lhs_eq, lp.rhs_eq
    rows, nv = A.shape
    # rows flipped so that the rhs is >= 0; the artificials are a feasible basis
    flip = np.where(b < 0.0, -1.0, 1.0)
    ncol = nv + rows
    T = np.zeros((rows + 1, ncol + 1))
    T[:rows, :nv] = A * flip[:, None]
    T[:rows, nv:ncol] = np.eye(rows)
    T[:rows, ncol] = b * flip
    basis = np.arange(nv, ncol)
    # crash: a row takes the first column whose one nonzero is a positive
    # entry there, scaled to 1; the tableau stays B^-1 [A | I]
    unit = np.flatnonzero(np.count_nonzero(T[:rows, :nv], axis=0) == 1)
    at = np.nonzero(T[:rows, unit].T)[1]  # the row of each, in column order
    positive = T[at, unit] > 0.0
    crashed, first = np.unique(at[positive], return_index=True)
    unit = unit[positive][first]
    T[crashed] /= T[crashed, unit][:, None]
    basis[crashed] = unit
    max_iter = 2000 + 60 * (rows + ncol)
    iterations = 0

    artificial = basis >= nv
    if artificial.any():
        # phase 1: minimize the sum of the artificials; only those of the rows
        # left without a unit column are basic
        T[-1, nv:ncol] = 1.0
        T[-1] -= T[:rows][artificial].sum(axis=0)
        # phase 1 is bounded below by 0, so an "unbounded" stop is rounding
        # drift on a reduced cost near -_COST_TOL: only the artificial sum
        # decides feasibility
        _, it1, _ = _iterate(T, basis, max_iter, ncol)
        iterations += it1
        if -T[-1, ncol] > _PHASE1_TOL:
            # the phase-1 duals, read off the artificials' reduced costs
            # 1 - yhat_i, are a Farkas vector y = flip * yhat on the rows
            _check_farkas(A, b, flip * (1.0 - T[-1, nv:ncol]), iterations)
            return LPSolution(INFEASIBLE, None, None, None, iterations)
        # drive remaining artificials out of the basis (degenerate at zero).
        # A row with no structural entry left is redundant: its artificial
        # stays basic at zero, and with the rounding noise in its structural
        # entries cleared no phase-2 pivot chooses or changes the row
        for i in np.flatnonzero(basis >= nv):
            nz = np.flatnonzero(np.abs(T[i, :nv]) > _PIVOT_TOL)
            if nz.size == 0:
                T[i, :nv] = 0.0
                continue
            _pivot(T, i, int(nz[0]))
            basis[i] = nz[0]

    # phase 2 on the same tableau with the true costs; the artificials cost 0
    # and are not priced, so they never re-enter
    T[-1, :nv], T[-1, nv:] = c, 0.0
    T[-1] -= T[-1, basis] @ T[:-1]
    status, it2, enter_j = _iterate(T, basis, max_iter, nv)
    iterations += it2

    if status == "unbounded":
        # x moves along e_enter - T[:, enter] on the basis
        ray = np.zeros(ncol)
        ray[enter_j] = 1.0
        ray[basis] -= T[:-1, enter_j]
        ray = ray[:nv]
        _check_ray(c, A, ray, iterations)
        return LPSolution(UNBOUNDED, None, None, None, iterations, ray=ray)

    x = np.zeros(ncol)
    x[basis] = T[:-1, ncol]
    x = x[:nv]
    # the artificials' reduced costs are -c_B B^-1 on the flipped rows
    dual = -flip * T[-1, nv:ncol]
    feas, gap, comp = _check_optimal(c, A, b, x, dual, iterations)
    return LPSolution(OPTIMAL, float(c @ x), x, dual, iterations, feas, gap, comp, basis=basis[basis < nv])


def _norm_inf(A) -> float:
    """The induced infinity norm of A, its largest absolute row sum."""
    return float(np.max(np.abs(A).sum(axis=1), initial=0.0))


def _fail(status, checks, iterations):
    """Raise NumericalError naming the first failed (name, value, ok) check
    of a status's certificate."""
    for name, value, ok in checks:
        if not ok:
            raise NumericalError(f"{status} fails {name} ({value:.3e}) after {iterations} "
                                 f"iterations: the tableau lost accuracy")


def _check_ray(c, A, d, iterations):
    """Raise NumericalError unless d certifies unboundedness: d >= 0, A d = 0
    against ||A|| ||d|| and c.d < 0; a tableau rounding blew up can fail them."""
    size, resid = float(np.max(np.abs(d))), float(np.max(np.abs(A @ d), initial=0.0))
    _fail("UNBOUNDED ray", (("d >= 0", d.min(), d.min() >= -_PIVOT_TOL * size),
                            ("A d = 0", resid, resid <= _RAY_TOL * _norm_inf(A) * size),
                            ("c.d < 0", c @ d, c @ d < 0.0)), iterations)


def _check_farkas(A, b, y, iterations):
    """Raise NumericalError unless y certifies infeasibility (Farkas): A^T y
    <= 0 against ||A|| ||y|| and b.y > 0, so b.y = (A^T y).x <= 0 for every
    x >= 0 with A x = b, and there is none."""
    size = float(np.max(np.abs(y), initial=0.0))
    worst, by = float(np.max(A.T @ y, initial=0.0)), float(b @ y)
    _fail("INFEASIBLE certificate", (("A^T y <= 0", worst, worst <= _RAY_TOL * _norm_inf(A) * size),
                                     ("b.y > 0", by, by > 0.0)), iterations)


def _check_optimal(c, A, b, x, w, iterations):
    """Raise NumericalError unless x and w certify each other optimal: x >= 0
    against ||x||, A x = b against ||A|| ||x||, A^T w <= c against
    ||A^T|| ||w|| + ||c|| and c.x = b.w against ||c|| ||x|| + ||b|| ||w||
    (weak duality then bounds every feasible c.x below by b.w). Return the
    primal residual, the duality gap and the complementarity residual."""
    size, lowest = float(np.max(np.abs(x), initial=0.0)), float(np.min(x, initial=0.0))
    size_w, size_c = float(np.max(np.abs(w), initial=0.0)), float(np.max(np.abs(c), initial=0.0))
    primal, reduced = float(np.max(np.abs(A @ x - b), initial=0.0)), c - A.T @ w
    worst, gap = float(np.max(-reduced, initial=0.0)), abs(float(c @ x - b @ w))
    gap_scale = size_c * size + float(np.max(np.abs(b), initial=0.0)) * size_w
    _fail("OPTIMAL certificate", (("x >= 0", lowest, lowest >= -_PIVOT_TOL * size),
                                  ("A x = b", primal, primal <= _RAY_TOL * _norm_inf(A) * size),
                                  ("A^T w <= c", worst, worst <= _RAY_TOL * (_norm_inf(A.T) * size_w + size_c)),
                                  ("c.x = b.w", gap, gap <= _RAY_TOL * gap_scale)), iterations)
    return max(primal, -lowest), gap, float(np.max(np.abs(x * reduced), initial=0.0))
