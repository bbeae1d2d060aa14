"""Dense two-phase simplex with Bland's rule, on one standard form.

Internal LP layer powering predual norms and Markov ratios. Every LP is

    min c.x  subject to  A x = b,  x >= 0;

callers whose natural problem has free variables or inequality rows pose its
LP dual instead, which is of this form, and read their free variables off
the duals of its rows (``LPSolution.dual_eq``). Problems are small and
dense, so determinism wins over speed: fixed Bland pivoting (smallest
eligible index enters; ties in the ratio test broken by smallest basic
index) makes identical inputs produce identical pivot sequences and outputs.
The tableau holds the structural columns, then one artificial per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError

_PIVOT_TOL = 1e-9
_COST_TOL = 1e-9
_PHASE1_TOL = 1e-8

OPTIMAL = "OPTIMAL"
UNBOUNDED = "UNBOUNDED"
INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class LinearProgram:
    """min objective . x  subject to  lhs_eq x = rhs_eq,  x >= 0
    (no rows when lhs_eq is None)."""

    objective: np.ndarray
    lhs_eq: np.ndarray | None = None
    rhs_eq: np.ndarray | None = None

    # Not fields: perfbench's tracer (tracer._tableau_mb) still reads the
    # inequality rows of an earlier free-variable form; there are none.
    lhs_ineq = None
    rhs_ineq = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        nv = c.size
        if self.lhs_eq is None:
            if self.rhs_eq is not None:
                raise InputError("rhs_eq given without lhs_eq")
            a, b = np.zeros((0, nv)), np.zeros(0)
        else:
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
    ray: np.ndarray | None = field(default=None, repr=False)  # d >= 0, A d = 0, c.d < 0 if UNBOUNDED


def _pivot(T, r, j):
    """Pivot tableau T on (r, j), updating only the rows with a nonzero
    entry in column j: the others would subtract an exact zero."""
    T[r, :] /= T[r, j]
    factors = T[:, j].copy()
    factors[r] = 0.0
    nz = np.flatnonzero(factors)
    T[nz] -= np.outer(factors[nz], T[r, :])
    T[:, j] = 0.0
    T[r, j] = 1.0


def _bland_iterate(T, basis, max_iter):
    """Run simplex pivots on tableau T (last row = reduced costs, last column
    = rhs / negated objective) until optimal or unbounded. Minimization
    convention: optimal when all reduced costs >= -tol."""
    m = T.shape[0] - 1
    ncol = T.shape[1] - 1
    it = 0
    while True:
        cost = T[-1, :ncol]
        candidates = np.where(cost < -_COST_TOL)[0]
        if candidates.size == 0:
            return "optimal", it, None
        j = int(candidates[0])  # Bland: smallest index enters
        col = T[:m, j]
        rows = np.where(col > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded", it, j
        ratios = T[rows, ncol] / col[rows]
        best = np.min(ratios)
        tied = rows[ratios <= best + 1e-12]
        r = int(tied[np.argmin([basis[i] for i in tied])])  # Bland: smallest basic index leaves
        _pivot(T, r, j)
        basis[r] = j
        it += 1
        if it > max_iter:
            raise NumericalError(f"simplex exceeded {max_iter} iterations (possible cycling)")


def solve(lp: LinearProgram) -> LPSolution:
    """Solve a dense LP; status-correct result with optimality certificates.

    OPTIMAL solutions carry the dual vector and the residuals used to certify
    them: primal feasibility, duality gap and complementary slackness.
    """
    c, A, b = lp.objective, lp.lhs_eq, lp.rhs_eq
    rows, nv = A.shape
    # rows flipped so that the rhs is >= 0; the artificials are a feasible basis
    flip = np.where(b < 0.0, -1.0, 1.0)
    full = A * flip[:, None]
    ncol = nv + rows
    T = np.zeros((rows + 1, ncol + 1))
    T[:rows, :nv] = full
    T[:rows, nv:ncol] = np.eye(rows)
    T[:rows, ncol] = b * flip
    basis = list(range(nv, ncol))
    max_iter = 2000 + 60 * (rows + ncol)
    iterations = 0
    drop_rows = []

    if rows:
        # phase 1: minimize sum of artificials
        T[-1, nv:ncol] = 1.0
        for i in range(rows):
            T[-1, :] -= T[i, :]
        status, it1, _ = _bland_iterate(T, basis, max_iter)
        iterations += it1
        if status != "optimal" or -T[-1, ncol] > _PHASE1_TOL:
            return LPSolution(INFEASIBLE, None, None, None, iterations)
        # drive remaining artificials out of the basis (degenerate at zero);
        # a row with no structural entry left is redundant and dropped
        for i in range(rows):
            if basis[i] >= nv:
                nz = np.where(np.abs(T[i, :nv]) > _PIVOT_TOL)[0]
                if nz.size == 0:
                    drop_rows.append(i)
                    continue
                j = int(nz[0])
                _pivot(T, i, j)
                basis[i] = j
    keep_rows = [i for i in range(rows) if i not in drop_rows]
    basis = [basis[i] for i in keep_rows]

    # phase 2 on the structural columns and the rhs, with the true costs
    T = T[np.ix_(keep_rows + [rows], np.r_[:nv, ncol])]
    T[-1, :nv], T[-1, nv] = c, 0.0
    for i, j in enumerate(basis):
        if c[j] != 0.0:
            T[-1, :] -= c[j] * T[i, :]
    status, it2, enter_j = _bland_iterate(T, basis, max_iter)
    iterations += it2

    if status == "unbounded":
        # x moves along e_enter - T[:, enter] on the basis
        ray = np.zeros(nv)
        ray[enter_j] = 1.0
        for i, j in enumerate(basis):
            ray[j] -= T[i, enter_j]
        return LPSolution(UNBOUNDED, None, None, None, iterations, ray=ray)

    x = np.zeros(nv)
    x[basis] = T[: len(basis), nv]
    optimum = float(c @ x)
    dual, gap, comp, feas = _certify(lp, x, full, flip, basis, keep_rows)
    if gap > 1e-7 * (1.0 + abs(optimum)):
        raise NumericalError(
            f"duality gap {gap:.3e} exceeds certificate tolerance after {iterations} iterations"
        )
    return LPSolution(
        OPTIMAL,
        optimum,
        x,
        dual,
        iterations,
        feasibility_residual=feas,
        duality_gap=gap,
        complementarity_residual=comp,
    )


def _certify(lp, x, full, flip, basis, keep_rows):
    """Recover the dual vector from the final basis and compute residuals.

    The dual of min c.x s.t. Ax = b, x >= 0 is max b.w s.t. A^T w <= c. On
    the flipped rows that survive phase 1 the basis equation B^T what = c_B
    holds, and w_row = flip_row * what_row (zero for rows dropped as
    redundant).
    """
    c, A, b = lp.objective, lp.lhs_eq, lp.rhs_eq
    feas = max(float(np.max(np.abs(A @ x - b), initial=0.0)), float(np.max(-x, initial=0.0)))
    w = np.zeros(b.size)
    if keep_rows:
        B = full[keep_rows][:, basis]
        try:
            what = np.linalg.solve(B.T, c[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular basis while extracting duals: {exc}") from exc
        w[keep_rows] = flip[keep_rows] * what
    gap = abs(float(c @ x) - float(b @ w))
    comp = float(np.max(np.abs(x * (c - A.T @ w)), initial=0.0))
    return w, gap, comp, feas
