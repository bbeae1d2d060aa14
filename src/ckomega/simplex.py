"""Dense two-phase simplex with Bland's rule.

Internal LP layer powering predual norms, finiteness gaps and Markov ratios.
Problems are small and dense, so determinism wins over speed: fixed Bland
pivoting (smallest eligible index enters; ties in the ratio test broken by
smallest basic index) makes identical inputs produce identical pivot
sequences and outputs. Variables are free, or all nonnegative with
``nonneg=True``: free variables are split as x = p - q in the standard form,
nonnegative ones keep one tableau column each and need no bound rows.
Absolute-value constraints are pre-lowered to paired inequalities by the
callers.
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
    """max/min objective . x  subject to  lhs_ineq x <= rhs_ineq,
    lhs_eq x = rhs_eq, x free (or x >= 0 with nonneg=True)."""

    objective: np.ndarray
    lhs_ineq: np.ndarray | None = None
    rhs_ineq: np.ndarray | None = None
    lhs_eq: np.ndarray | None = None
    rhs_eq: np.ndarray | None = None
    sense: str = "max"
    nonneg: bool = False

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.objective, dtype=float))
        object.__setattr__(self, "objective", c)
        nv = c.size
        for name, lhs, rhs in (
            ("ineq", self.lhs_ineq, self.rhs_ineq),
            ("eq", self.lhs_eq, self.rhs_eq),
        ):
            if lhs is None:
                if rhs is not None:
                    raise InputError(f"{name}: bounds without a matrix")
                continue
            a = np.atleast_2d(np.asarray(lhs, dtype=float))
            b = np.atleast_1d(np.asarray(rhs, dtype=float))
            if a.shape[0] != b.size:
                raise InputError(f"{name}: row count {a.shape[0]} != bound count {b.size}")
            if a.shape[1] != nv:
                raise InputError(f"{name}: {a.shape[1]} columns for {nv} variables")
            object.__setattr__(self, f"lhs_{name}", a)
            object.__setattr__(self, f"rhs_{name}", b)
        if self.sense not in ("max", "min"):
            raise InputError("sense must be 'max' or 'min'")
        if nv > 10**4 or self.n_rows > 10**4:
            raise InputError("dense solver guard: dimensions exceed 1e4")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        m = 0 if self.lhs_ineq is None else self.lhs_ineq.shape[0]
        me = 0 if self.lhs_eq is None else self.lhs_eq.shape[0]
        return m + me


@dataclass(frozen=True)
class LPSolution:
    status: str
    optimum: float | None
    x: np.ndarray | None
    dual_ineq: np.ndarray | None
    dual_eq: np.ndarray | None
    iterations: int
    feasibility_residual: float | None = None
    duality_gap: float | None = None
    complementarity_residual: float | None = None
    ray: np.ndarray | None = field(default=None, repr=False)  # improving direction if UNBOUNDED


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
        piv = T[r, j]
        T[r, :] /= piv
        factors = T[:, j].copy()
        factors[r] = 0.0
        T -= np.outer(factors, T[r, :])
        T[:, j] = 0.0
        T[r, j] = 1.0
        basis[r] = j
        it += 1
        if it > max_iter:
            raise NumericalError(f"simplex exceeded {max_iter} iterations (possible cycling)")


def solve(lp: LinearProgram) -> LPSolution:
    """Solve a dense LP; status-correct result with optimality certificates.

    OPTIMAL solutions carry the dual vector and the residuals used to certify
    them: primal feasibility, duality gap and complementary slackness.
    """
    c = lp.objective if lp.sense == "max" else -lp.objective
    nv = lp.n_vars
    A = lp.lhs_ineq if lp.lhs_ineq is not None else np.zeros((0, nv))
    b = lp.rhs_ineq if lp.rhs_ineq is not None else np.zeros(0)
    E = lp.lhs_eq if lp.lhs_eq is not None else np.zeros((0, nv))
    d = lp.rhs_eq if lp.rhs_eq is not None else np.zeros(0)
    m, me = A.shape[0], E.shape[0]
    rows = m + me

    # standard form: z = (x, s, a) >= 0 for nonnegative x, z = (p, q, s, a) >= 0
    # with x = p - q for free x; flipped rows have rhs >= 0
    nc = nv if lp.nonneg else 2 * nv  # structural columns
    if lp.nonneg:
        full = np.vstack([A, E])
    else:
        full = np.vstack([np.hstack([A, -A]), np.hstack([E, -E])]) if rows else np.zeros((0, nc))
    rhs = np.concatenate([b, d])
    flip = np.where(rhs < 0.0, -1.0, 1.0)
    full = full * flip[:, None]
    rhs = rhs * flip
    slack = np.zeros((rows, m))
    for i in range(m):
        slack[i, i] = flip[i]

    # initial basis: slack columns where usable (+1 coefficient), else artificials
    basis = [-1] * rows
    keep_rows = list(range(rows))
    need_art = []
    for i in range(rows):
        if i < m and flip[i] > 0:
            basis[i] = nc + i
        else:
            need_art.append(i)
    art = np.zeros((rows, len(need_art)))
    for j, i in enumerate(need_art):
        art[i, j] = 1.0
        basis[i] = nc + m + j

    ncol = nc + m + len(need_art)
    T = np.zeros((rows + 1, ncol + 1))
    if rows:
        T[:rows, :nc] = full
        T[:rows, nc : nc + m] = slack
        T[:rows, nc + m :ncol] = art
        T[:rows, ncol] = rhs
    max_iter = 2000 + 60 * (rows + ncol)
    iterations = 0

    if need_art:
        # phase 1: minimize sum of artificials
        cost1 = np.zeros(ncol + 1)
        cost1[nc + m : ncol] = 1.0
        T[-1, :] = cost1
        for i in range(rows):
            if basis[i] >= nc + m:  # basic artificial contributes to cost row
                T[-1, :] -= T[i, :]
        status, it1, _ = _bland_iterate(T, basis, max_iter)
        iterations += it1
        if status != "optimal" or -T[-1, ncol] > _PHASE1_TOL:
            return LPSolution(INFEASIBLE, None, None, None, None, iterations)
        # drive remaining artificials out of the basis (degenerate at zero)
        drop_rows = []
        for i in range(rows):
            if basis[i] >= nc + m:
                row = T[i, : nc + m]
                nz = np.where(np.abs(row) > _PIVOT_TOL)[0]
                if nz.size == 0:
                    drop_rows.append(i)
                    continue
                j = int(nz[0])
                piv = T[i, j]
                T[i, :] /= piv
                factors = T[:, j].copy()
                factors[i] = 0.0
                T -= np.outer(factors, T[i, :])
                T[:, j] = 0.0
                T[i, j] = 1.0
                basis[i] = j
        if drop_rows:
            keep = [i for i in range(rows) if i not in drop_rows]
            T = T[keep + [rows], :]
            basis = [basis[i] for i in keep]
            keep_rows = [keep_rows[i] for i in keep]
            rows = len(keep)

    # phase 2: erase artificial columns, install true costs
    T[:, nc + m : ncol] = 0.0
    cost2 = np.zeros(ncol + 1)
    cost2[:nv] = -c
    if not lp.nonneg:
        cost2[nv:nc] = c
    T[-1, :] = cost2
    for i in range(rows):
        if cost2[basis[i]] != 0.0:
            T[-1, :] -= cost2[basis[i]] * T[i, :]
    status, it2, enter_j = _bland_iterate(T, basis, max_iter)
    iterations += it2

    if status == "unbounded":
        # z moves along e_enter - T[:, enter] on the basis; x reads off its
        # structural part (an entering slack moves x through the basis only)
        ray = np.zeros(nv)
        if enter_j < nv:
            ray[enter_j] = 1.0
        elif enter_j < nc:
            ray[enter_j - nv] = -1.0
        for i in range(rows):
            if basis[i] < nv:
                ray[basis[i]] -= T[i, enter_j]
            elif basis[i] < nc:
                ray[basis[i] - nv] += T[i, enter_j]
        return LPSolution(UNBOUNDED, None, None, None, None, iterations, ray=ray)

    z = np.zeros(ncol)
    for i in range(rows):
        z[basis[i]] = T[i, ncol]
    x = z[:nv] if lp.nonneg else z[:nv] - z[nv:nc]
    optimum = float(lp.objective @ x)

    dual_in, dual_eq, gap, comp, feas = _certify(
        lp, x, c, cost2[: nc + m], basis, keep_rows, full, slack, flip, m, me
    )
    if gap > 1e-7 * (1.0 + abs(optimum)):
        raise NumericalError(
            f"duality gap {gap:.3e} exceeds certificate tolerance after {iterations} iterations"
        )
    return LPSolution(
        OPTIMAL,
        optimum,
        x,
        dual_in,
        dual_eq,
        iterations,
        feasibility_residual=feas,
        duality_gap=gap,
        complementarity_residual=comp,
    )


def _certify(lp, x, c, cost_std, basis, keep_rows, full, slack, flip, m, me):
    """Recover the dual vector from the final basis and compute residuals.

    Internally the problem is max c.x s.t. Ax <= b, Ex = d; its dual is
    min b.y + d.w with A^T y + E^T w = c (>= c for nonnegative x), y >= 0.
    In the standard min form, with costs cost_std on the structural and
    slack columns, the basis equation B^T yhat = c_B holds, and the original
    multipliers are lam_row = -flip_row * yhat_row (zero for rows dropped as
    redundant).
    """
    nv = lp.n_vars
    A = lp.lhs_ineq if lp.lhs_ineq is not None else np.zeros((0, nv))
    b = lp.rhs_ineq if lp.rhs_ineq is not None else np.zeros(0)
    E = lp.lhs_eq if lp.lhs_eq is not None else np.zeros((0, nv))
    d = lp.rhs_eq if lp.rhs_eq is not None else np.zeros(0)

    feas = 0.0
    if m:
        feas = max(feas, float(np.max(A @ x - b, initial=0.0)))
    if me:
        feas = max(feas, float(np.max(np.abs(E @ x - d), initial=0.0)))
    if lp.nonneg:
        feas = max(feas, float(np.max(-x, initial=0.0)))

    rows = len(keep_rows)
    y = np.zeros(m)
    w = np.zeros(me)
    if rows:
        S = np.hstack([full, slack])[keep_rows, :]  # surviving standard-form rows
        B = S[:, basis]
        c_B = cost_std[np.asarray(basis)]
        try:
            yhat = np.linalg.solve(B.T, c_B)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular basis while extracting duals: {exc}") from exc
        for pos, i in enumerate(keep_rows):
            lam = -flip[i] * yhat[pos]
            if i < m:
                y[i] = lam
            else:
                w[i - m] = lam
        y = np.where(np.abs(y) < 1e-11, 0.0, y)

    primal = float(c @ x)
    dual_val = float(b @ y + d @ w)
    gap = abs(primal - dual_val)
    comp = float(np.max(np.abs(y * (b - A @ x)), initial=0.0)) if m else 0.0
    sign = 1.0 if lp.sense == "max" else -1.0
    return sign * y, sign * w, gap, comp, feas
