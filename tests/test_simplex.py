import dataclasses
import itertools

import numpy as np
import pytest
from free_lp import solve_free

from ckomega.errors import InputError
from ckomega.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, solve


def test_spec_examples():
    s = solve_free(np.array([1.0]), lhs_ineq=[[1.0]], rhs_ineq=[1.0])
    assert s.status == OPTIMAL and s.optimum == pytest.approx(1.0, abs=1e-12)

    s = solve_free(np.array([1.0]))
    assert s.status == UNBOUNDED

    s = solve_free(
        np.array([1.0, 1.0]),
        lhs_ineq=[[1, 1], [1, 0], [0, 1], [-1, 0], [0, -1]],
        rhs_ineq=[2, 1, 1, 0, 0],
    )
    assert s.status == OPTIMAL and s.optimum == pytest.approx(2.0, abs=1e-12)


def test_infeasible():
    s = solve_free(np.array([1.0]), lhs_ineq=[[1.0], [-1.0]], rhs_ineq=[-1.0, -2.0])
    assert s.status == INFEASIBLE


def test_equality_rows_and_min_sense():
    s = solve_free(
        np.array([1.0, 2.0]),
        lhs_ineq=[[-1, 0], [0, -1]],
        rhs_ineq=[0, 0],
        lhs_eq=[[1, 1]],
        rhs_eq=[1],
    )
    assert s.status == OPTIMAL and s.optimum == pytest.approx(2.0)
    assert s.x == pytest.approx([0.0, 1.0])

    s = solve_free(np.array([1.0]), lhs_ineq=[[-1.0]], rhs_ineq=[-3.0], sense="min")
    assert s.status == OPTIMAL and s.optimum == pytest.approx(3.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        LinearProgram(np.array([1.0, 2.0]), lhs_eq=[[1.0, 0.0]], rhs_eq=[1.0, 2.0])
    with pytest.raises(InputError):
        LinearProgram(np.array([1.0, 2.0]), lhs_eq=[[1.0, 0.0, 1.0]], rhs_eq=[1.0])


@pytest.mark.parametrize("c, a, b", [
    ([1.0, np.nan], [[1.0, 1.0]], [1.0]),
    ([1.0, 1.0], [[1.0, np.inf]], [1.0]),
    ([1.0, 1.0], [[1.0, 1.0]], [-np.inf]),
])
def test_non_finite_data_rejected(c, a, b):
    with pytest.raises(InputError, match="LP data must be finite"):
        LinearProgram(c, a, b)


def test_one_standard_form():
    # min c.x s.t. Ax = b, x >= 0 is the only form: three settable fields;
    # lhs_ineq / rhs_ineq are read-only None class attributes
    assert [f.name for f in dataclasses.fields(LinearProgram)] == ["objective", "lhs_eq", "rhs_eq"]
    lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0])
    assert lp.lhs_ineq is None and lp.rhs_ineq is None
    assert (lp.n_rows, lp.n_vars) == (1, 2)
    assert not hasattr(solve(lp), "dual_ineq")


def _random_bounded_lp(rng, nv):
    """Random feasible bounded LP: box plus a few random cuts through a point."""
    m_extra = int(rng.integers(1, 6))
    A = [np.eye(nv), -np.eye(nv)]
    b = [np.full(nv, 2.0), np.full(nv, 2.0)]
    x0 = rng.uniform(-1, 1, nv)
    Ax = rng.normal(size=(m_extra, nv))
    b_extra = Ax @ x0 + rng.uniform(0.1, 2.0, m_extra)
    A.append(Ax)
    b.append(b_extra)
    return np.vstack(A), np.concatenate(b), rng.normal(size=nv)


def _vertex_enumerate(A, b, c):
    """Brute-force optimum over vertices of {Ax <= b} (independent oracle)."""
    m, nv = A.shape
    best = None
    for rows in itertools.combinations(range(m), nv):
        sub = A[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-10:
            continue
        v = np.linalg.solve(sub, b[list(rows)])
        if np.all(A @ v <= b + 1e-9):
            val = c @ v
            if best is None or val > best:
                best = val
    return best


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2024)
    for _ in range(120):
        nv = int(rng.integers(2, 4))
        A, b, c = _random_bounded_lp(rng, nv)
        s = solve_free(c, lhs_ineq=A, rhs_ineq=b)
        assert s.status == OPTIMAL
        oracle = _vertex_enumerate(A, b, c)
        assert oracle is not None
        assert s.optimum == pytest.approx(oracle, abs=1e-8)
        assert s.feasibility_residual <= 1e-9
        assert s.duality_gap <= 1e-7 * (1 + abs(s.optimum))
        assert s.complementarity_residual <= 1e-7 * (1 + abs(s.optimum))


def test_determinism_bitwise():
    rng = np.random.default_rng(5)
    A, b, c = _random_bounded_lp(rng, 3)
    s1 = solve_free(c, lhs_ineq=A, rhs_ineq=b)
    s2 = solve_free(c.copy(), lhs_ineq=A.copy(), rhs_ineq=b.copy())
    assert s1.optimum == s2.optimum
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.dual_ineq, s2.dual_ineq)


def test_duals_reproduce_objective():
    rng = np.random.default_rng(6)
    for _ in range(40):
        A, b, c = _random_bounded_lp(rng, 3)
        s = solve_free(c, lhs_ineq=A, rhs_ineq=b)
        assert s.dual_ineq is not None
        assert np.all(s.dual_ineq >= -1e-9)
        assert b @ s.dual_ineq == pytest.approx(s.optimum, abs=1e-7 * (1 + abs(s.optimum)))


def test_degenerate_equality_redundant_rows():
    # x + y = 1 stated twice; min -x s.t. x, y >= 0: one row is dropped and
    # its dual is zero
    s = solve(LinearProgram(np.array([-1.0, 0.0]), [[1, 1], [1, 1]], [1, 1]))
    assert s.status == OPTIMAL and s.optimum == pytest.approx(-1.0)
    assert s.x == pytest.approx([1.0, 0.0])
    assert s.dual_eq @ [1.0, 1.0] == pytest.approx(-1.0)


def _random_nonneg_lp(rng, kind):
    """Random LP on x >= 0 of a chosen kind: 'optimal' (a budget row bounds
    every direction), 'infeasible' (an equality row with positive
    coefficients and negative right-hand side) or 'unbounded' (an objective
    that grows along a recession direction of the feasible set)."""
    nv = int(rng.integers(1, 6))
    m, me = int(rng.integers(0, 4)), int(rng.integers(0, 3))
    x0 = rng.uniform(0.0, 1.0, nv)
    A = rng.normal(size=(m, nv))
    b = A @ x0 + rng.uniform(0.0, 1.0, m)
    E = rng.normal(size=(me, nv))
    d = E @ x0
    c = rng.normal(size=nv)
    if kind == "optimal":
        A = np.vstack([A, np.ones(nv)])
        b = np.append(b, x0.sum() + 1.0)
    elif kind == "infeasible":
        E = np.vstack([E, rng.uniform(0.5, 1.0, nv)])
        d = np.append(d, -1.0)
    else:
        ray = rng.uniform(0.0, 1.0, nv)
        ray[int(rng.integers(nv))] += 1.0
        # rows that do not block the ray: A ray <= 0, E ray = 0
        A = A - np.outer(np.maximum(A @ ray, 0.0) + rng.uniform(0.0, 1.0, m), ray) / (ray @ ray)
        b = A @ x0 + rng.uniform(0.0, 1.0, m)
        E = E - np.outer(E @ ray, ray) / (ray @ ray)
        d = E @ x0
        c = c - (c @ ray) * ray / (ray @ ray) + ray
    return A, b, E, d, c


def test_nonneg_matches_explicit_bound_rows():
    # the standard form with one slack per inequality row against the free
    # form with explicit bound rows -x <= 0, lowered by free_lp
    rng = np.random.default_rng(31)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(180):
        kind = ("optimal", "infeasible", "unbounded")[trial % 3]
        A, b, E, d, c = _random_nonneg_lp(rng, kind)
        nv, m = c.size, b.size
        sense = "max" if trial % 2 else "min"
        if sense == "min":
            c = -c
        sign = -1.0 if sense == "max" else 1.0
        M = np.block([[A, np.eye(m)], [E, np.zeros((E.shape[0], m))]])
        s = solve(LinearProgram(np.concatenate([sign * c, np.zeros(m)]), M, np.concatenate([b, d])))
        A_free, b_free = np.vstack([A, -np.eye(nv)]), np.concatenate([b, np.zeros(nv)])
        f = solve_free(c, A_free, b_free, E, d, sense=sense)
        assert s.status == f.status == {"optimal": OPTIMAL, "infeasible": INFEASIBLE,
                                         "unbounded": UNBOUNDED}[kind]
        seen[s.status] += 1
        if s.status == OPTIMAL:
            assert sign * s.optimum == pytest.approx(f.optimum, abs=1e-9 * (1 + abs(f.optimum)))
            assert np.all(s.x >= -1e-12) and s.feasibility_residual <= 1e-9
            y, w = sign * s.dual_eq[:m], sign * s.dual_eq[m:]
            # the duals' objective is the optimum, and they are dual feasible
            assert b @ y + d @ w == pytest.approx(sign * s.optimum, abs=1e-9 * (1 + abs(s.optimum)))
            reduced = A.T @ y + E.T @ w - c
            assert np.all(reduced >= -1e-9 if sense == "max" else reduced <= 1e-9)
        elif s.status == UNBOUNDED:
            for r in (s.ray[:nv], f.ray):  # feasible and improving in both forms
                assert np.all(r >= -1e-9)
                assert np.all(A @ r <= 1e-9) and np.allclose(E @ r, 0.0, atol=1e-9)
                assert (c @ r > 1e-9) if sense == "max" else (c @ r < -1e-9)
    assert min(seen.values()) == 60


def test_nonneg_needs_no_bound_rows():
    # min x + 2y s.t. x + y = 1, x, y >= 0: the equality row is the only row
    s = solve(LinearProgram([1.0, 2.0], lhs_eq=[[1.0, 1.0]], rhs_eq=[1.0]))
    assert s.status == OPTIMAL and s.optimum == 1.0
    assert np.array_equal(s.x, [1.0, 0.0])
    assert s.dual_eq == pytest.approx([1.0])


def test_dense_guard_counts_rows_and_variables():
    with pytest.raises(InputError, match="1e4"):
        LinearProgram(np.zeros(10**4 + 1))
    with pytest.raises(InputError, match="1e4"):
        LinearProgram(np.zeros(1), np.zeros((10**4 + 1, 1)), np.zeros(10**4 + 1))
    assert LinearProgram(np.zeros(10**4)).n_vars == 10**4


# Beale's LP (1955), which cycles under the largest-coefficient rule: min
# -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 over three rows, optimum -1/20
_BEALE = (
    np.array([0.0, 0.0, 0.0, -0.75, 150.0, -0.02, 6.0]),
    np.array([[1.0, 0.0, 0.0, 0.25, -60.0, -0.04, 9.0],
              [0.0, 1.0, 0.0, 0.5, -90.0, -0.02, 3.0],
              [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]]),
    np.array([0.0, 0.0, 1.0]),
)


def _degenerate_lp(rng, kind):
    """A standard-form LP (c, A, b) of a chosen kind, small integer data so
    that ratio and cost ties are common:
    'degenerate' -- b = A x0 for an x0 with fewer positive entries than rows;
    'redundant'  -- as degenerate, plus rows that are sums of other rows;
    'duplicated' -- as degenerate, plus exact and scaled copies of rows;
    'beale'      -- Beale's LP with permuted columns, scaled rows and
                    columns, and ties perturbed by 1e-10 (near cycling)."""
    if kind == "beale":
        c, A, b = (a.copy() for a in _BEALE)
        perm = rng.permutation(c.size)
        col = rng.choice([0.5, 1.0, 2.0, 4.0], c.size)
        row = rng.choice([-2.0, -1.0, 1.0, 3.0], b.size)
        A = (A * col * row[:, None])[:, perm]
        c = (c * col)[perm] + rng.choice([0.0, 1e-10, -1e-10], c.size)
        return c, A, b * row
    me, nv = int(rng.integers(2, 7)), int(rng.integers(3, 12))
    A = rng.integers(-2, 3, (me, nv)).astype(float)
    x0 = np.zeros(nv)
    x0[rng.choice(nv, int(rng.integers(0, min(me, nv))), replace=False)] = rng.integers(1, 3)
    if kind == "redundant":
        extra = [A[rng.choice(me, 2, replace=False)].sum(axis=0) for _ in range(int(rng.integers(1, 3)))]
        A = np.vstack([A] + extra)
    elif kind == "duplicated":
        rows = rng.choice(me, int(rng.integers(1, 4)))
        A = np.vstack([A, A[rows] * rng.choice([1.0, -1.0, 2.0], rows.size)[:, None]])
    A = A[rng.permutation(A.shape[0])]
    c = rng.integers(-3, 4, nv).astype(float)
    b = A @ x0
    if rng.uniform() < 0.7:  # a budget row keeps most of them bounded
        A = np.vstack([A, np.ones(nv)])
        b = np.append(b, x0.sum() + int(rng.integers(0, 3)))
    return c, A, b


def test_degenerate_lps_match_highs():
    pytest.importorskip("scipy")
    from scipy.optimize import linprog

    rng = np.random.default_rng(1977)
    seen = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
    for trial in range(240):
        kind = ("degenerate", "redundant", "duplicated", "beale")[trial % 4]
        c, A, b = _degenerate_lp(rng, kind)
        if kind != "beale" and trial % 8 == 1:  # an inconsistent copy of a row
            A, b = np.vstack([A, A[:1]]), np.append(b, b[0] + 1.0)
        s = solve(LinearProgram(c, A, b))
        ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
        assert s.status == {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[ref.status], (trial, kind)
        seen[s.status] += 1
        if s.status == OPTIMAL:
            tol = 1e-9 * (1 + abs(ref.fun))
            assert s.optimum == pytest.approx(ref.fun, abs=tol)
            assert np.all(s.x >= -1e-12) and s.feasibility_residual <= 1e-9
            # dual feasible, and its objective is the optimum
            assert np.all(A.T @ s.dual_eq <= c + 1e-9)
            assert b @ s.dual_eq == pytest.approx(s.optimum, abs=tol)
        elif s.status == UNBOUNDED:
            assert np.all(s.ray >= -1e-9) and np.allclose(A @ s.ray, 0.0, atol=1e-9)
            assert c @ s.ray < -1e-9
    assert min(seen.values()) > 0, seen
