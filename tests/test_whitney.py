import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from ckomega import modulus as mo
from ckomega.errors import InputError, NumericalError
from ckomega.extension import mcshane_extension
from ckomega.fields import (
    Jet,
    NormContext,
    field_from_data,
    field_from_jets,
    field_from_json,
    field_to_json,
    jet,
    jet_from_dict,
    mi_factorial,
    mi_order,
    mi_sub,
    multi_indices,
)
from ckomega.whitney import (
    LambdaReport,
    ck_norm_estimate,
    faa_di_bruno_pullback,
    taylor_eval,
    whitney_lambda,
)

MODULI = (mo.linear(), mo.power(0.5), mo.capped(0.7, 0.8),
          mo.table([(0.1, 0.2), (0.5, 0.6), (2.0, 1.5)]))


def random_field(rng, k, n, m, spread=1.0):
    pts = rng.uniform(-spread, spread, (m, n))
    while True:
        d2 = np.sum((pts[:, None] - pts[None, :]) ** 2, -1)
        np.fill_diagonal(d2, 1.0)
        if d2.min() > 1e-6:
            break
        pts = rng.uniform(-spread, spread, (m, n))
    J = len(multi_indices(n, k))
    return field_from_jets([jet(p, rng.normal(size=J), k) for p in pts])


# ---------------------------------------------------------------------------
# taylor_eval


def test_taylor_eval_examples():
    j0 = jet([0.0, 0.0], [1.0] + [0.0] * 5, 2)
    assert taylor_eval(j0, (0, 0), [3.0, -2.0]) == 1.0

    j1 = jet([0.0], [0.0, 1.0], 1)
    assert taylor_eval(j1, (0,), [3.0]) == 3.0

    j2 = jet([1.0], [1.0, 2.0, 2.0], 2)  # 1 + 2(z-1) + (z-1)^2
    assert taylor_eval(j2, (1,), [2.0]) == pytest.approx(4.0)


def test_taylor_eval_order_error():
    j1 = jet([0.0], [0.0, 1.0], 1)
    with pytest.raises(InputError):
        taylor_eval(j1, (2,), [0.0])
    with pytest.raises(InputError):
        taylor_eval(j1, (0, 0), [0.0])


def _loop_taylor_eval(j, alpha, z):
    """Reference: one term c_beta / (beta - alpha)! (z - x)^(beta - alpha)
    per beta >= alpha, monomials by **."""
    dz = np.asarray(z, dtype=float) - np.asarray(j.point)
    total = 0.0
    for beta, c in zip(multi_indices(j.n, j.k), j.coeffs):
        rem = mi_sub(beta, alpha)
        if rem is None or c == 0.0:
            continue
        total += c / mi_factorial(rem) * float(np.prod(dz ** np.asarray(rem)))
    return total


def test_taylor_eval_matches_loop():
    rng = np.random.default_rng(31)
    for trial in range(60):
        k, n = trial % 4, 1 + trial % 3
        mis = multi_indices(n, k)
        j = jet(rng.uniform(-1, 1, n), rng.normal(size=len(mis)), k)
        z = rng.uniform(-2, 2, n)
        scale = np.sum(np.abs(j.coeffs)) * (1.0 + np.max(np.abs(z - np.asarray(j.point)))) ** k
        for alpha in mis:
            assert taylor_eval(j, alpha, z) == pytest.approx(
                _loop_taylor_eval(j, alpha, z), rel=1e-12, abs=1e-14 * scale)


# ---------------------------------------------------------------------------
# whitney_lambda


def test_lambda_k0_two_point_example():
    f = field_from_data([[0.0], [1.0]], [0.0, 1.0])
    rep = whitney_lambda(f, NormContext(0, 1, mo.linear()))
    assert rep.lam_sup == 1.0
    assert rep.lam_osc == 1.0
    assert rep.lam == 1.0


def test_lambda_zero_field():
    rng = np.random.default_rng(0)
    f = random_field(rng, 2, 2, 4).scale(0.0)
    rep = whitney_lambda(f, NormContext(2, 2, mo.linear()))
    assert rep.lam == 0.0


def test_lambda_k1_hand_example():
    f = field_from_jets([jet([0.0], [0.0, 0.0], 1), jet([1.0], [1.0, 0.0], 1)])
    rep = whitney_lambda(f, NormContext(1, 1, mo.linear()))
    assert rep.lam == pytest.approx(1.0)


def brute_lambda(field, ctx):
    """Independent oracle: direct loop over (x, y, z, alpha) with the
    reference Taylor loop."""
    mis = multi_indices(ctx.n, ctx.k)
    pts = field.points_array()
    lam_sup = max(abs(c) for j in field.jets for c in j.coeffs)
    lam_osc = 0.0
    for i in range(len(field)):
        for j in range(len(field)):
            if i == j:
                continue
            d = float(np.linalg.norm(pts[i] - pts[j]))
            om = ctx.modulus(d)
            for z in (pts[i], pts[j]):
                for a in mis:
                    num = abs(_loop_taylor_eval(field.jets[i], a, z)
                              - _loop_taylor_eval(field.jets[j], a, z))
                    lam_osc = max(lam_osc, num / (d ** (ctx.k - mi_order(a)) * om))
    return max(lam_sup, lam_osc)


def test_lambda_matches_bruteforce_loop():
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = int(rng.integers(0, 4))
        n = int(rng.integers(1, 3))
        f = random_field(rng, k, n, int(rng.integers(2, 6)))
        ctx = NormContext(k, n, mo.power(0.5))
        assert whitney_lambda(f, ctx).lam == pytest.approx(brute_lambda(f, ctx), rel=1e-12)


def test_lambda_homogeneity():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k, n = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        f = random_field(rng, k, n, 4)
        ctx = NormContext(k, n, mo.linear())
        s = float(rng.normal())
        assert whitney_lambda(f.scale(s), ctx).lam == pytest.approx(
            abs(s) * whitney_lambda(f, ctx).lam, rel=1e-10, abs=1e-12
        )


def test_lambda_triangle_inequality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        k, n = int(rng.integers(0, 3)), int(rng.integers(1, 3))
        f = random_field(rng, k, n, 4)
        g = field_from_jets([jet(p, rng.normal(size=len(j.coeffs)), k)
                             for p, j in zip(f.points_array(), f.jets)])
        ctx = NormContext(k, n, mo.linear())
        assert whitney_lambda(f.add(g), ctx).lam <= (
            whitney_lambda(f, ctx).lam + whitney_lambda(g, ctx).lam + 1e-10
        )


def test_lambda_polynomial_field_has_zero_oscillation():
    # jets sampled from a fixed polynomial of degree <= k: all Taylor
    # polynomials coincide with the polynomial itself
    rng = np.random.default_rng(3)
    for k, n in ((1, 1), (2, 1), (3, 1), (2, 2)):
        mis = multi_indices(n, k)
        coeffs = {a: rng.normal() for a in mis}  # monomial coeffs of p
        # well-separated points keep the float cancellation in the numerator
        # far below the 1e-10 assertion
        pts_1d = np.linspace(-1.0, 1.0, 5) + rng.uniform(-0.05, 0.05, 5)

        def d_poly(alpha, x):
            total = 0.0
            for beta, c in coeffs.items():
                rem = tuple(b - a for a, b in zip(alpha, beta))
                if any(r < 0 for r in rem):
                    continue
                fac = 1.0
                for b, a in zip(beta, alpha):
                    fac *= math.factorial(b) / math.factorial(b - a)
                total += c * fac * float(np.prod(np.asarray(x) ** np.asarray(rem)))
            return total

        if n == 1:
            pts = pts_1d.reshape(-1, 1)
        else:
            pts = np.stack([pts_1d, rng.permutation(pts_1d)], axis=1)
        jets = [jet(p, [d_poly(a, p) for a in mis], k) for p in pts]
        f = field_from_jets(jets)
        rep = whitney_lambda(f, NormContext(k, n, mo.linear()))
        assert rep.lam_osc <= 1e-10


def test_lambda_witnesses_identify_attaining_terms():
    f = field_from_data([[0.0], [1.0], [4.0]], [0.0, 3.0, 3.5])
    ctx = NormContext(0, 1, mo.linear())
    rep = whitney_lambda(f, ctx)
    assert rep.sup_witness[0] == 2  # value 3.5
    i, j, _, _ = rep.osc_witness
    assert (i, j) == (0, 1)  # slope 3 between first two points


def _k0_loop_reference(field, ctx):
    """Per-pair Python loop for k = 0: |f(x_i) - f(x_j)| / omega(d) with the
    first strict maximum over i < j (constant data reports the first pair)."""
    vals = [j.coeffs[0] for j in field.jets]
    zero = (0,) * ctx.n
    best, witness = None, None
    for i, j in itertools.combinations(range(len(field)), 2):
        d = math.sqrt(sum((a - b) ** 2 for a, b in zip(field.points[i], field.points[j])))
        ratio = abs(vals[i] - vals[j]) / ctx.modulus(d)
        if best is None or ratio > best:
            best, witness = ratio, (i, j, 0, zero)
    return (0.0 if best is None else best), witness


def test_lambda_k0_matches_pair_loop_bitwise():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = int(rng.integers(1, 4))
        f = random_field(rng, 0, n, int(rng.integers(2, 40)))
        ctx = NormContext(0, n, MODULI[trial % 4])
        rep = whitney_lambda(f, ctx)
        assert (rep.lam_osc, rep.osc_witness) == _k0_loop_reference(f, ctx)


def test_lambda_k0_zero_oscillation_witness():
    # constant data: the ratio is 0 on every pair and the witness is the first
    # pair, as for k >= 1; None is reserved for a single-point field
    ctx = NormContext(0, 2, mo.linear())
    rep = whitney_lambda(field_from_data([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]], [2.0] * 3), ctx)
    assert rep.lam_osc == 0.0
    assert rep.osc_witness == (0, 1, 0, (0, 0))
    single = whitney_lambda(field_from_data([[0.5, 0.5]], [2.0]), ctx)
    assert single.osc_witness is None and single.lam == 2.0


def _lattice_field(rng, k, n, m):
    # lattice points with coefficients in {-1, 0, 1}: many pairwise ratios tie,
    # so the first-maximum rule is exercised across block edges
    pts = np.array(list(itertools.product(range(3), repeat=n)), dtype=float)[:m]
    J = len(multi_indices(n, k))
    return field_from_jets([jet(p, rng.integers(-1, 2, J).astype(float), k) for p in pts])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_lambda_blocks_match_one_block_bitwise(monkeypatch, k):
    rng = np.random.default_rng(20 + k)
    fields = [make(rng, k, n, 9) for n in (1, 2, 3) for make in (random_field, _lattice_field)]
    fields.append(_lattice_field(rng, k, 1, 3).scale(0.0))
    ctxs = [NormContext(k, f.n, mo.power(0.5)) for f in fields]
    whole = [whitney_lambda(f, ctx) for f, ctx in zip(fields, ctxs)]
    for pairs_per_block in (1, 2, 7):
        for f, ctx, ref in zip(fields, ctxs, whole):
            width = 8 * len(multi_indices(f.n, k)) + f.n + 2  # whitney_lambda's per-pair width
            monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", pairs_per_block * width)
            assert whitney_lambda(f, ctx) == ref


def _exponent_tensor_lambda(field, ctx):
    """Reference engine: every pair's (J, J, n) exponent tensor, raised by **
    and multiplied over n, then contracted with einsum, all pairs at once."""
    k, n = ctx.k, ctx.n
    mis = multi_indices(n, k)
    J = len(mis)
    pow_mat, mask, fact = np.zeros((J, J, n)), np.zeros((J, J)), np.ones((J, J))
    for a_idx, alpha in enumerate(mis):
        for b_idx, beta in enumerate(mis):
            rem = mi_sub(beta, alpha)
            if rem is not None:
                pow_mat[a_idx, b_idx], mask[a_idx, b_idx] = rem, 1.0
                fact[a_idx, b_idx] = mi_factorial(rem)
    coeffs = np.abs(field.coeff_matrix())
    i_sup, a_sup = np.unravel_index(int(np.argmax(coeffs)), coeffs.shape)
    lam_sup = float(coeffs[i_sup, a_sup])
    coeffs = field.coeff_matrix()
    m = len(field)
    if m == 1:
        return LambdaReport(lam_sup, 0.0, lam_sup, (int(i_sup), mis[a_sup]), None)
    pts = field.points_array()
    ii, jj = np.triu_indices(m, 1)

    def apply(delta_z, c):
        mono = np.prod(delta_z[:, None, None, :] ** pow_mat[None], axis=-1)
        return np.einsum("pab,pb->pa", mono * mask[None] / fact[None], c)

    dz = pts[ii] - pts[jj]
    dist = np.linalg.norm(dz, axis=1)
    orders = np.array([mi_order(a) for a in mis], dtype=float)
    den = dist[:, None] ** (k - orders)[None, :] * np.atleast_1d(ctx.modulus(dist))[:, None]
    num = np.stack([coeffs[ii] - apply(dz, coeffs[jj]), apply(-dz, coeffs[ii]) - coeffs[jj]], axis=1)
    ratios = np.abs(num) / den[:, None, :]
    p_idx, z_idx, a_idx = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    lam_osc = float(ratios[p_idx, z_idx, a_idx])
    return LambdaReport(lam_sup, lam_osc, max(lam_sup, lam_osc), (int(i_sup), mis[a_sup]),
                        (int(ii[p_idx]), int(jj[p_idx]), int(z_idx), mis[a_idx]))


def test_lambda_matches_exponent_tensor_engine():
    rng = np.random.default_rng(17)
    for trial in range(240):
        k, n, om = trial % 4, 1 + (trial // 4) % 3, MODULI[(trial // 12) % 4]
        m = int(rng.integers(1, 25))
        f = _lattice_field(rng, k, n, m) if trial % 5 == 0 else random_field(rng, k, n, m)
        ctx = NormContext(k, n, om)
        got, want = whitney_lambda(f, ctx), _exponent_tensor_lambda(f, ctx)
        if k == 0:
            assert got == want
            assert mcshane_extension(f, om).lam == want.lam_osc
            continue
        for name in ("lam", "lam_sup", "lam_osc"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12)
        assert (got.sup_witness, got.osc_witness) == (want.sup_witness, want.osc_witness)


def test_lambda_k2_runtime():
    # m=300, n=3, k=2: 44850 pairs, about 0.9 s for the exponent-tensor engine
    f = random_field(np.random.default_rng(12), 2, 3, 300)
    ctx = NormContext(2, 3, mo.power(0.5))
    whitney_lambda(f, ctx)
    start = time.perf_counter()
    whitney_lambda(f, ctx)
    assert time.perf_counter() - start < 0.4


def test_lambda_memory_is_bounded_by_blocks():
    # one block's temporaries are about 16 MB; the exponent tensor of all
    # pairs, (pairs, J, J, n), would be over 100 MB at this size
    rng = np.random.default_rng(5)
    f = random_field(rng, 3, 3, 150)
    ctx = NormContext(3, 3, mo.power(0.5))
    tracemalloc.start()
    try:
        whitney_lambda(f, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48e6


def test_lambda_pair_indices_are_bounded_by_blocks():
    # 4.5 million pairs: index arrays of all of them would be 72 MB, while
    # each block derives its own (i, j) from its range of the i < j order
    rng = np.random.default_rng(3000)
    f = field_from_data(rng.uniform(-1, 1, (3000, 2)), rng.normal(size=3000))
    tracemalloc.start()
    try:
        whitney_lambda(f, NormContext(0, 2, mo.power(0.5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def _first_coincident_pair(pts):
    # the full (m, m) distance matrix, scanned in row-major order
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return np.unravel_index(np.argmin(d2), d2.shape)


def test_field_coincident_pair_independent_of_blocks(monkeypatch):
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        pts = rng.uniform(-1, 1, (12, n))
        pts[9] = pts[4]
        pts[7] = pts[5]
        pts[11] = pts[5]
        i, j = _first_coincident_pair(pts)
        want = f"coincident points at indices {i} and {j}: {tuple(pts[i])}"
        assert (i, j) == (4, 9)
        for rows_per_block in (None, 1, 2, 5):
            if rows_per_block is not None:
                monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", rows_per_block * pts.size)
            with pytest.raises(InputError) as err:
                field_from_data(pts, np.zeros(len(pts)))
            assert str(err.value) == want
        monkeypatch.undo()


def test_field_validation_memory_is_bounded_by_blocks():
    # the whole (m, m, n) difference array at this size would be 96 MB
    pts = np.random.default_rng(6).uniform(-1, 1, (2000, 3))
    tracemalloc.start()
    try:
        field_from_data(pts, np.zeros(len(pts)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("k, n", [(0, 2), (2, 3)])
def test_field_json_round_trip(k, n):
    f = random_field(np.random.default_rng(k), k, n, 5)
    assert field_from_json(field_to_json(f)) == f
    assert field_from_json(json.dumps(field_to_json(f))) == f


@pytest.mark.parametrize("build", [
    lambda p: jet([p], [1.0], 0),
    lambda p: jet_from_dict([p], {(0,): 1.0}, 0),
    lambda p: Jet((p,), (1.0,), 0),
    lambda p: field_from_data([[p], [1.0]], [1.0, 2.0]),
    lambda p: field_from_json({"k": 0, "n": 1, "points": [[p]], "jets": [[{"alpha": [0], "value": 1.0}]]}),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_base_point_rejected(build, bad):
    with pytest.raises(InputError, match="jet base point must be finite"):
        build(bad)


# ---------------------------------------------------------------------------
# ck_norm_estimate


def _const_zero(alpha, x):
    return 0.0


def test_norm_estimate_zero_function():
    est = ck_norm_estimate(_const_zero, NormContext(1, 1, mo.linear()),
                           [[0.0], [1.0]], [([0.0], [1.0])])
    assert est.sup_part == 0.0 and est.seminorm_part == 0.0


def test_norm_estimate_identity_function():
    def deriv(alpha, x):
        return float(x[0]) if alpha == (0,) else 1.0

    est = ck_norm_estimate(deriv, NormContext(0, 1, mo.linear()),
                           [[-1.0], [0.0], [1.0]], [([-1.0], [1.0]), ([0.0], [1.0])])
    assert est.sup_part == 1.0
    # k=0 seminorm of f(x)=x with linear omega: |x-y|/|x-y| = 1
    def deriv0(alpha, x):
        return float(x[0])

    est0 = ck_norm_estimate(deriv0, NormContext(0, 1, mo.linear()),
                            [[-1.0], [0.0], [1.0]], [([-1.0], [1.0]), ([0.0], [1.0])])
    assert est0.seminorm_part == pytest.approx(1.0)


def test_norm_estimate_sin_refines_to_one():
    def deriv(alpha, x):
        return math.sin(x[0]) if alpha == (0,) else math.cos(x[0])

    ctx = NormContext(1, 1, mo.linear())
    coarse = np.linspace(-math.pi, math.pi, 9).reshape(-1, 1)
    fine = np.linspace(-math.pi, math.pi, 201).reshape(-1, 1)
    pairs = [(a, b) for a, b in zip(fine[:-1], fine[1:])]
    est_c = ck_norm_estimate(deriv, ctx, coarse, pairs[:3])
    est_f = ck_norm_estimate(deriv, ctx, fine, pairs)
    assert est_f.sup_part >= est_c.sup_part  # monotone under refinement
    assert est_f.sup_part == pytest.approx(1.0, abs=1e-3)


def test_norm_estimate_monotone_under_refinement_random():
    rng = np.random.default_rng(9)

    def deriv(alpha, x):
        return math.sin(2 * x[0]) * math.cos(x[0]) if alpha == (0,) else 0.0

    ctx = NormContext(0, 1, mo.linear())
    grid = rng.uniform(-2, 2, (30, 1))
    pairs = [(grid[i], grid[i + 1]) for i in range(10)]
    base = ck_norm_estimate(deriv, ctx, grid[:10], pairs[:4])
    bigger = ck_norm_estimate(deriv, ctx, grid, pairs)
    assert bigger.sup_part >= base.sup_part
    assert bigger.seminorm_part >= base.seminorm_part


def test_norm_estimate_rejects_nan():
    def bad(alpha, x):
        return float("nan")

    with pytest.raises(NumericalError):
        ck_norm_estimate(bad, NormContext(0, 1, mo.linear()), [[0.0]], [])


# ---------------------------------------------------------------------------
# higher-order chain rule


def test_faa_di_bruno_identity_composition():
    rng = np.random.default_rng(4)
    for n, k in ((1, 3), (2, 2)):
        mis = multi_indices(n, k)
        x = rng.uniform(-1, 1, n)
        f_jet = jet(x, rng.normal(size=len(mis)), k)
        h_jets = []
        for i in range(n):
            coeffs = np.zeros(len(mis))
            coeffs[0] = x[i]
            unit = tuple(1 if j == i else 0 for j in range(n))
            coeffs[mis.index(unit)] = 1.0
            h_jets.append(jet(x, coeffs, k))
        for alpha in mis:
            assert faa_di_bruno_pullback(f_jet, h_jets, alpha) == pytest.approx(
                f_jet.coeff(alpha), rel=1e-12, abs=1e-12
            )


def test_faa_di_bruno_1d_linear_rescale():
    # h(x) = a x: D^m (f o h)(x) = a^m f^(m)(a x)
    a, x = 1.7, 0.3
    fc = [math.sin(a * x), math.cos(a * x), -math.sin(a * x), -math.cos(a * x)]
    f_jet = jet([a * x], fc, 3)
    h_jet = jet([x], [a * x, a, 0.0, 0.0], 3)
    for m in range(4):
        assert faa_di_bruno_pullback(f_jet, [h_jet], (m,)) == pytest.approx(
            a**m * fc[m], rel=1e-12
        )


def test_faa_di_bruno_exp_sin_second_derivative():
    x = 0.3
    h = math.sin(x)
    e = math.exp(h)
    f_jet = jet([h], [e, e, e], 2)
    h_jet = jet([x], [h, math.cos(x), -math.sin(x)], 2)
    got = faa_di_bruno_pullback(f_jet, [h_jet], (2,))
    want = e * math.cos(x) ** 2 + e * (-math.sin(x))
    assert got == pytest.approx(want, rel=1e-12)


def _fd_plain(fn, x, alpha, h):
    alpha = tuple(alpha)
    if sum(alpha) == 0:
        return fn(x)
    i = next(idx for idx, a in enumerate(alpha) if a > 0)
    lower = tuple(a - (1 if idx == i else 0) for idx, a in enumerate(alpha))
    e = np.zeros(len(x))
    e[i] = h
    return (_fd_plain(fn, x + e, lower, h) - _fd_plain(fn, x - e, lower, h)) / (2 * h)


def _fd_derivative(fn, x, alpha, h=1e-2):
    """Richardson-extrapolated central differences (h^4 accurate)."""
    return (4.0 * _fd_plain(fn, x, alpha, h / 2) - _fd_plain(fn, x, alpha, h)) / 3.0


def _poly_eval_and_jet(rng, n, k, x):
    mis = multi_indices(n, k + 1)
    coeffs = {a: float(rng.normal()) for a in mis}

    def fn(z):
        z = np.asarray(z)
        return sum(c * float(np.prod(z**np.asarray(a))) for a, c in coeffs.items())

    def d(alpha, z):
        total = 0.0
        for beta, c in coeffs.items():
            rem = tuple(b - a for a, b in zip(alpha, beta))
            if any(r < 0 for r in rem):
                continue
            fac = 1.0
            for b, a in zip(beta, alpha):
                fac *= math.factorial(b) / math.factorial(b - a)
            total += c * fac * float(np.prod(np.asarray(z) ** np.asarray(rem)))
        return total

    return fn, d


def test_faa_di_bruno_against_finite_differences():
    rng = np.random.default_rng(123)
    checks = 0
    for trial in range(8):
        n = int(rng.integers(1, 3))
        k = 3
        x = rng.uniform(-0.5, 0.5, n)
        h_fns, h_ds = zip(*[_poly_eval_and_jet(rng, n, k, x) for _ in range(n)])
        Hx = np.array([h(x) for h in h_fns])
        f_fn, f_d = _poly_eval_and_jet(rng, n, k, Hx)
        mis = multi_indices(n, k)
        f_jet = jet(Hx, [f_d(a, Hx) for a in mis], k)
        h_jets = [jet(x, [hd(a, x) for a in mis], k) for hd in h_ds]

        def composed(z):
            return f_fn(np.array([h(z) for h in h_fns]))

        for alpha in mis:
            if mi_order(alpha) == 0:
                continue
            got = faa_di_bruno_pullback(f_jet, h_jets, alpha)
            want = _fd_derivative(composed, x, alpha, h=1e-2)
            assert got == pytest.approx(want, rel=1e-5, abs=1e-6)
            checks += 1
    assert checks >= 20


def test_faa_di_bruno_input_errors():
    f_jet = jet([0.0], [1.0, 1.0], 1)
    h_jet = jet([0.0, 0.0], [0.0, 1.0, 0.0], 1)
    with pytest.raises(InputError):
        faa_di_bruno_pullback(f_jet, [h_jet, h_jet], (1, 0))
    with pytest.raises(InputError):
        faa_di_bruno_pullback(f_jet, [h_jet], (2, 0))
