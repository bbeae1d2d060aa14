"""Free-form LPs for tests, lowered to the solver's one form.

The oracles and random suites state LPs as  max/min c.x  s.t.  A x <= b,
E x = d  with x free. ``solve_free`` lowers such an LP to min c'.z s.t.
M z = rhs, z >= 0 by the textbook steps (x = p - q, one slack per
inequality row, negated objective for max), solves it, and maps the result
back: x = p - q, an unbounded ray p - q, and the multipliers (y, w) of the
inequality and equality rows with b.y + d.w = optimum (y >= 0 for max,
y <= 0 for min, A^T y + E^T w = c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ckomega.simplex import OPTIMAL, UNBOUNDED, LinearProgram, LPSolution, solve


@dataclass(frozen=True)
class FreeSolution:
    status: str
    optimum: float | None
    x: np.ndarray | None
    dual_ineq: np.ndarray | None
    dual_eq: np.ndarray | None
    ray: np.ndarray | None
    standard: LPSolution  # the solution of the lowered LP

    def __getattr__(self, name):
        # iterations and the residuals are those of the lowered LP
        return getattr(self.standard, name)


def lower(c, lhs_ineq=None, rhs_ineq=None, lhs_eq=None, rhs_eq=None, sense="max") -> LinearProgram:
    """The free-form LP as a LinearProgram on z = (s, p, q) >= 0. Each slack
    is a unit column, so the simplex's crash basis starts it basic wherever
    the right-hand side is nonnegative, and no phase-1 pivot brings it in."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    nv = c.size
    A = np.zeros((0, nv)) if lhs_ineq is None else np.atleast_2d(np.asarray(lhs_ineq, dtype=float))
    b = np.zeros(0) if rhs_ineq is None else np.atleast_1d(np.asarray(rhs_ineq, dtype=float))
    E = np.zeros((0, nv)) if lhs_eq is None else np.atleast_2d(np.asarray(lhs_eq, dtype=float))
    d = np.zeros(0) if rhs_eq is None else np.atleast_1d(np.asarray(rhs_eq, dtype=float))
    m, me = A.shape[0], E.shape[0]
    M = np.block([[np.eye(m), A, -A], [np.zeros((me, m)), E, -E]])
    sign = -1.0 if sense == "max" else 1.0
    return LinearProgram(np.concatenate([np.zeros(m), sign * c, -sign * c]), M, np.concatenate([b, d]))


def solve_free(c, lhs_ineq=None, rhs_ineq=None, lhs_eq=None, rhs_eq=None, sense="max") -> FreeSolution:
    lp = lower(c, lhs_ineq, rhs_ineq, lhs_eq, rhs_eq, sense)
    nv = np.atleast_1d(c).size
    m = lp.n_vars - 2 * nv
    sol = solve(lp)
    if sol.status == UNBOUNDED:
        return FreeSolution(UNBOUNDED, None, None, None, None, sol.ray[m : m + nv] - sol.ray[m + nv :], sol)
    if sol.status != OPTIMAL:
        return FreeSolution(sol.status, None, None, None, None, None, sol)
    sign = -1.0 if sense == "max" else 1.0
    dual = sign * sol.dual_eq
    x = sol.x[m : m + nv] - sol.x[m + nv :]
    return FreeSolution(OPTIMAL, sign * sol.optimum, x, dual[:m], dual[m:], None, sol)
