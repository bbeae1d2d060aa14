import hashlib
import itertools
import json
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import ckomega.fields
from ckomega import modulus as mo
from ckomega.cutoff import CutoffFamily
from ckomega.errors import InputError, NumericalError
from ckomega.extension import hermite_extension, mcshane_extension
from ckomega.fields import (
    Jet,
    NormContext,
    WhitneyField,
    _distances,
    _mi_table,
    field_from_data,
    field_from_jets,
    field_from_json,
    field_to_json,
    jet,
    mi_factorial,
    mi_order,
    multi_indices,
)
from ckomega.jackson import error_report, finite_rank_LNN, periodize, periodized_derivative, smooth_EN
from ckomega.markov import probe
from ckomega.predual import _lo_lp, delta, difference, functional
from ckomega.whitney import (
    LambdaReport,
    ck_norm_estimate,
    faa_di_bruno_pullback,
    taylor_eval,
    whitney_lambda,
)

MODULI = (mo.linear(), mo.power(0.5), mo.capped(0.7, 0.8),
          mo.table([(0.1, 0.2), (0.5, 0.6), (2.0, 1.5)]))


def mi_sub(alpha, beta):
    """alpha - beta, or None if beta is not <= alpha componentwise (the
    reference implementations' own, independent of the library's tables)."""
    if any(b > a for a, b in zip(alpha, beta)):
        return None
    return tuple(a - b for a, b in zip(alpha, beta))


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_taylor_eval_rejects_non_finite_point(bad):
    j2 = jet([0.0, 0.0], [1.0, 2.0, 3.0], 1)
    with pytest.raises(InputError, match="evaluation point must be finite"):
        taylor_eval(j2, (0, 0), [0.5, bad])


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
    pts = field.points
    jets = [jet(p, c, field.k) for p, c in zip(pts, field.coeffs)]
    lam_sup = max(abs(c) for j in jets for c in j.coeffs)
    lam_osc = 0.0
    for i in range(len(field)):
        for j in range(len(field)):
            if i == j:
                continue
            d = float(np.linalg.norm(pts[i] - pts[j]))
            om = ctx.modulus(d)
            for z in (pts[i], pts[j]):
                for a in mis:
                    num = abs(_loop_taylor_eval(jets[i], a, z)
                              - _loop_taylor_eval(jets[j], a, z))
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
        g = field_from_jets([jet(p, rng.normal(size=f.coeffs.shape[1]), k) for p in f.points])
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
    vals = field.coeffs[:, 0].tolist()
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


def _set_pairs_per_block(monkeypatch, field, pairs):
    """Size the blocks of whitney_lambda's sweep to the given number of pairs."""
    width = 7 * len(multi_indices(field.n, field.k)) + field.n + field.k + 4  # its per-pair width
    monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", pairs * width)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_lambda_blocks_match_one_block_bitwise(monkeypatch, k):
    rng = np.random.default_rng(20 + k)
    fields = [make(rng, k, n, 9) for n in (1, 2, 3) for make in (random_field, _lattice_field)]
    fields.append(_lattice_field(rng, k, 1, 3).scale(0.0))
    ctxs = [NormContext(k, f.n, mo.power(0.5)) for f in fields]
    whole = [whitney_lambda(f, ctx) for f, ctx in zip(fields, ctxs)]
    for pairs_per_block in (1, 2, 7):
        for f, ctx, ref in zip(fields, ctxs, whole):
            _set_pairs_per_block(monkeypatch, f, pairs_per_block)
            assert whitney_lambda(f, ctx) == ref


# sha256 of the reports below, computed with the sweep that derived each
# pair's row by a binary search and raised every jet row's distance to its
# power: the sweep's bits, witnesses included, are pinned to that engine's
_LAMBDA_DIGEST = "baed04a64d91d5a0c542111813aede382252ef74e4399d9c0f8ca8a4056258cd"


def test_lambda_reports_match_pinned_digest(monkeypatch):
    # every k <= 3, n <= 3 and modulus: one point, m = 9 at the default
    # block size and at 1, 2 and 7 pairs per block, m = 60, and for one
    # modulus per (k, n) m = 300 (up to 14 blocks)
    moduli = [mo.power(0.5), mo.linear(), mo.capped(0.7, 0.5), mo.table([(0.1, 0.2), (0.5, 0.6), (2.0, 1.5)])]
    digest = hashlib.sha256()
    for k, n in itertools.product(range(4), (1, 2, 3)):
        J = len(multi_indices(n, k))
        for which, om in enumerate(moduli):
            rng = np.random.default_rng([k, n, which])
            sizes = [(1, (None,)), (9, (None, 1, 2, 7)), (60, (None,))]
            if which == (k + n) % 4:
                sizes.append((300, (None,)))
            for m, blocks in sizes:
                pts, coeffs = rng.uniform(-1, 1, (m, n)), rng.normal(size=(m, J))
                f = field_from_jets([jet(p, c, k) for p, c in zip(pts, coeffs)])
                for pairs in blocks:
                    monkeypatch.undo()
                    if pairs is not None:
                        _set_pairs_per_block(monkeypatch, f, pairs)
                    rep = whitney_lambda(f, NormContext(k, n, om))
                    digest.update(repr((rep.lam_sup, rep.lam_osc, rep.lam, rep.sup_witness,
                                        rep.osc_witness)).encode())
    assert digest.hexdigest() == _LAMBDA_DIGEST


# sha256 of the arrays and values below, computed before the re-expansion,
# the Hermite tail constants and the (alpha, gamma) sum list moved onto the
# multi-index table: the jet arithmetic's bits are pinned to that code's.
# "bracket" hashes the lo LP alone since hi left the LP; it was recomputed
# on the last code that built hi, which still met the digest of both LPs
_JET_DIGESTS = {
    "bracket": "9811117452fb9c7b8ac704b31d4e913f6e8b4c2be766957bc522212b84bf9db3",
    "taylor": "a6f819c23e28abaf9e28dfaffa824c7dec186c1ca99cbbb00c63677481f096fd",
    "hermite": "2019b30d1f60752f14c7345bef74497cb03e5dacae8e16016096670dcc476ac8",
}


def _bracket_digest():
    # the lo LP of a seeded functional per n <= 3, k <= 3 and modulus: a
    # delta atom of random order per point, a top-order difference
    digest = hashlib.sha256()
    for n, k, which in itertools.product((1, 2, 3), range(4), range(3)):
        rng = np.random.default_rng([n, k, which])
        ctx = NormContext(k, n, (mo.power(0.5), mo.linear(), mo.capped(0.7, 0.5))[which])
        mis = multi_indices(n, k)
        top = [a for a in mis if mi_order(a) == k]
        pts = rng.uniform(-1, 1, (int(rng.integers(2, 5)), n))
        atoms = [delta(p, mis[rng.integers(len(mis))]) for p in pts]
        atoms.append(difference(pts[0], pts[-1], top[rng.integers(len(top))]))
        lp = _lo_lp(functional(atoms, rng.normal(size=len(atoms)), ctx))
        for arr in (lp.objective, lp.lhs_eq, lp.rhs_eq):
            digest.update(repr(arr.shape).encode() + arr.tobytes())
    return digest.hexdigest()


def _taylor_digest():
    # every alpha of seeded jets at near, far and base-point queries
    digest = hashlib.sha256()
    for n, k in itertools.product((1, 2, 3), range(4)):
        rng = np.random.default_rng([n, k])
        mis = multi_indices(n, k)
        for _ in range(3):
            j = jet(rng.uniform(-1, 1, n), rng.normal(size=len(mis)), k)
            for z in (j.point, rng.uniform(-1, 1, n), 1e3 * rng.normal(size=n)):
                digest.update(repr([taylor_eval(j, alpha, z) for alpha in mis]).encode())
    return digest.hexdigest()


def _hermite_digest():
    # jets, k <= 4, at the knots, inside the gaps and in both tails at
    # distances below 1, between 1 and 2 and beyond 2, and evaluate_jet
    digest = hashlib.sha256()
    for k in range(5):
        rng = np.random.default_rng([7, k])
        knots = rng.permutation(np.cumsum(rng.uniform(0.05, 1.0, 6)))
        h = hermite_extension(field_from_jets([jet([p], rng.normal(size=k + 1), k) for p in knots]))
        lo, hi = knots.min(), knots.max()
        xs = np.concatenate([knots, rng.uniform(lo, hi, 40), lo - rng.uniform(0, 3, 10),
                             hi + rng.uniform(0, 3, 10), [lo - 0.5, lo - 1.5, hi + 1.0, hi + 2.5]])
        digest.update(h.jets(xs).tobytes())
        digest.update(repr([h.evaluate_jet(x).coeffs for x in xs[::7]]).encode())
    return digest.hexdigest()


def test_jet_arithmetic_matches_pinned_digests():
    got = {"bracket": _bracket_digest(), "taylor": _taylor_digest(), "hermite": _hermite_digest()}
    assert got == _JET_DIGESTS


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
    coeffs = field.coeffs
    i_sup, a_sup = np.unravel_index(int(np.argmax(np.abs(coeffs))), coeffs.shape)
    lam_sup = float(abs(coeffs[i_sup, a_sup]))
    m = len(field)
    if m == 1:
        return LambdaReport(lam_sup, 0.0, lam_sup, (int(i_sup), mis[a_sup]), None)
    pts = field.points
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
    # one block's temporaries are 8 * _BLOCK_ELEMS bytes (2 MB), plus 1 MB
    # for the arrays that grow with the points; the exponent tensor of all
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
    assert peak < min(48e6, 8 * ckomega.fields._BLOCK_ELEMS + 1e6)


def test_lambda_pair_indices_are_bounded_by_blocks():
    # 4.5 million pairs: index arrays of all of them would be 72 MB, while
    # each block derives its own (i, j) from its range of the i < j order;
    # one block's temporaries are 8 * _BLOCK_ELEMS bytes, plus 1 MB
    rng = np.random.default_rng(3000)
    f = field_from_data(rng.uniform(-1, 1, (3000, 2)), rng.normal(size=3000))
    tracemalloc.start()
    try:
        whitney_lambda(f, NormContext(0, 2, mo.power(0.5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(40e6, 8 * ckomega.fields._BLOCK_ELEMS + 1e6)


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
        want = f"coincident points at indices {i} and {j}: {pts[i].tolist()}"  # plain floats
        assert (i, j) == (4, 9)
        for rows_per_block in (None, 1, 2, 5):
            if rows_per_block is not None:
                monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", rows_per_block * 3 * len(pts))
            with pytest.raises(InputError) as err:
                field_from_data(pts, np.zeros(len(pts)))
            assert str(err.value) == want
        monkeypatch.undo()


@pytest.mark.parametrize("i, j", [(0, 1), (0, 12), (6, 7), (5, 9), (11, 12), (3, 4), (4, 5)])
def test_field_coincident_pair_at_first_middle_last_rows(monkeypatch, i, j):
    # only the columns after each row are compared; with 4 rows per block
    # the pairs (3, 4) and (4, 5) straddle or start a block boundary
    rng = np.random.default_rng(i * 13 + j)
    pts = rng.uniform(-1, 1, (13, 2))
    pts[j] = pts[i]
    want = f"coincident points at indices {i} and {j}: {pts[i].tolist()}"
    assert tuple(_first_coincident_pair(pts)) == (i, j)
    for rows_per_block in (None, 1, 4):
        if rows_per_block is not None:
            monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", rows_per_block * 3 * len(pts))
        with pytest.raises(InputError) as err:
            field_from_data(pts, np.zeros(len(pts)))
        assert str(err.value) == want
    monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_field_rejects_distinct_points_at_underflowing_distance(n):
    # 1e-162 apart: the squared distance 1e-324 underflows to 0
    pts = np.zeros((4, n))
    pts[1, -1] = 1e-162
    pts[2:, 0] = [0.5, -0.5]
    assert pts[0, -1] != pts[1, -1]
    with pytest.raises(InputError, match="coincident points at indices 0 and 1"):
        field_from_data(pts, np.zeros(4))


def test_field_rejects_points_whose_distance_overflows(monkeypatch):
    # 2e200 apart the squared distance overflows; 2e150 apart it does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"indices 0 and 1 overflows: \[-1e\+200\] and \[1e\+200\]"):
            field_from_jets([jet([-1e200], [0.0, 1.0], 1), jet([1e200], [1.0, 0.0], 1)])
    f = field_from_jets([jet([-1e150], [0.0, 1.0], 1), jet([1e150], [1.0, 0.0], 1)])
    assert np.isfinite(whitney_lambda(f, NormContext(1, 1, mo.linear())).lam)
    # 1e154 from the others, 2e154 from each other: only the pair (2, 5)
    # overflows, found in whichever block holds row 2
    pts = np.random.default_rng(3).uniform(-1, 1, (8, 1))
    pts[2], pts[5] = -1e154, 1e154
    for rows_per_block in (None, 1, 2):
        if rows_per_block is not None:
            monkeypatch.setattr("ckomega.fields._BLOCK_ELEMS", rows_per_block * 3 * len(pts))
        with pytest.raises(NumericalError, match="indices 2 and 5 overflows"):
            field_from_data(pts, np.zeros(len(pts)))


def test_lambda_far_apart_field_reports_without_a_warning():
    # +-1e100 apart at k = 3, the order-0 denominator d^3 omega(d) overflows
    # to inf, so its ratio is 0, and every other ratio is finite
    ctx = NormContext(3, 2, mo.linear())
    coeffs = np.random.default_rng(5).normal(size=(2, 10))
    f = field_from_jets([jet([1e100, 1e100], coeffs[0], 3), jet([-1e100, -1e100], coeffs[1], 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = whitney_lambda(f, ctx)
    assert rep.lam == rep.lam_sup == np.max(np.abs(coeffs)) and 0.0 < rep.lam_osc < 1e-99


def test_lambda_ratio_that_overflows_raises(monkeypatch):
    # a third-order coefficient of 1e10 re-expanded across about 1e100
    # overflows to inf, and inf / inf is a NaN ratio: the pair is named,
    # whichever block holds it
    pts = np.random.default_rng(6).uniform(-1, 1, (6, 1))
    pts[4] = 1e100
    coeffs = np.zeros((6, 4))
    coeffs[1, 3] = 1e10
    f = field_from_jets([jet(p, c, 3) for p, c in zip(pts, coeffs)])
    for pairs in (None, 1, 4):
        if pairs is not None:
            _set_pairs_per_block(monkeypatch, f, pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=r"points at indices 1 and 4 is not finite: \[\[-0.313"):
                whitney_lambda(f, NormContext(3, 1, mo.linear()))


@pytest.mark.parametrize("n", range(1, 13))
def test_distances_match_norm_over_leading_axis_bitwise(n):
    rng = np.random.default_rng(n)
    # coordinates of mixed magnitudes, so a different summation order would
    # round differently
    a = rng.normal(size=(n, 400)) * 10.0 ** rng.integers(-6, 6, (n, 1))
    b = rng.normal(size=(n, 400))
    assert np.array_equal(_distances(a, b), np.linalg.norm(a - b, axis=0))
    # broadcast, as the query sweeps use it: (n, B, 1) against (n, 1, m)
    d = _distances(a[:, :30, None], b[:, None, :50])
    assert np.array_equal(d, np.linalg.norm(a[:, :30, None] - b[:, None, :50], axis=0))


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(6)])
def test_reexpansion_table_indices_are_in_range(n, k):
    # reexpand gathers with np.take(mode="clip"), which would silently clamp
    # a bad index: every index it reads must name a coefficient
    t = _mi_table(n, k)
    J = len(multi_indices(n, k))
    for g in range(J):
        read = t.shift[: t.rows[g], g]
        assert read.size == t.rows[g] and np.all((0 <= read) & (read < J))
    # the sum list is every pair of order <= k, in row-major order
    a_idx, g_idx, s_idx = t.sums()
    pairs = [(a, g) for a, alpha in enumerate(t.mis) for g, gamma in enumerate(t.mis)
             if sum(alpha) + sum(gamma) <= k]
    assert list(zip(a_idx.tolist(), g_idx.tolist())) == pairs
    assert np.array_equal(s_idx, t.shift[a_idx, g_idx])
    # the table, entry by entry
    for i, alpha in enumerate(t.mis):
        assert t.index[alpha] == i
        assert t.order[i] == sum(alpha) and t.sign[i] == (-1.0) ** sum(alpha)
        assert t.fact[i] == math.prod(math.factorial(a) for a in alpha)
        if i:
            unit = tuple(int(c == t.axis[i]) for c in range(n))
            assert tuple(p + u for p, u in zip(t.mis[t.parent[i]], unit)) == alpha
        for g, gamma in enumerate(t.mis):
            total = tuple(a + c for a, c in zip(alpha, gamma))
            assert t.shift[i, g] == t.index.get(total, J)


@pytest.mark.parametrize("n", range(1, 8))
def test_multi_indices_properties(n):
    # checked against properties, not against another enumeration
    for k in range(6):
        mis = multi_indices(n, k)
        assert len(mis) == math.comb(n + k, n) == len(set(mis))
        orders = [sum(a) for a in mis]
        assert orders == sorted(orders)
        for a, b in zip(mis, mis[1:]):
            if sum(a) == sum(b):
                assert a > b  # strictly descending lexicographic within an order
        everything = {a for a in itertools.product(range(k + 1), repeat=n) if sum(a) <= k}
        assert set(mis) == everything


@pytest.mark.parametrize("n, k", [(2, 1.0), (2.0, 1), (np.float64(2), 1)])
def test_multi_indices_rejects_a_float_after_the_int_is_cached(n, k):
    # 1.0 hashes like 1: the check must run before the cache answers
    multi_indices(int(n), int(k))
    with pytest.raises(InputError, match="must be an integer"):
        multi_indices(n, k)


def test_field_validation_memory_is_bounded_by_blocks():
    # the whole (m, m, n) difference array at this size would be 96 MB; one
    # block's temporaries are 8 * _BLOCK_ELEMS bytes, plus 1 MB for the jets
    pts = np.random.default_rng(6).uniform(-1, 1, (2000, 3))
    tracemalloc.start()
    try:
        field_from_data(pts, np.zeros(len(pts)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < min(40e6, 8 * ckomega.fields._BLOCK_ELEMS + 1e6)


def test_field_arrays_are_read_only_copies():
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    f = field_from_data(pts, [1.0, -2.0])
    for a in (f.points, f.coeffs):
        assert a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
    with pytest.raises(ValueError):
        f.coeffs[0, 0] = 5.0
    pts[0, 0] = 9.0  # the caller's array stays writable; the field holds a copy
    assert f.points[0, 0] == 0.0
    assert f.scale(2.0).coeffs.tolist() == [[2.0], [-4.0]]
    assert f.add(f.scale(0.5)).coeffs.tolist() == [[1.5], [-3.0]]
    with pytest.raises(InputError, match="share points"):
        f.add(field_from_data([[0.0, 1.0], [2.0, 4.0]], [0.0, 0.0]))
    with pytest.raises(InputError, match="inconsistent"):
        field_from_jets([jet([0.0], [1.0], 0), jet([1.0], [1.0, 0.0], 1)])


@pytest.mark.parametrize("k, n", [(0, 2), (2, 3)])
def test_field_json_round_trip(k, n):
    f = random_field(np.random.default_rng(k), k, n, 5)
    for g in (field_from_json(field_to_json(f)), field_from_json(json.dumps(field_to_json(f)))):
        assert (g.k, g.n) == (f.k, f.n)
        assert g.points.tobytes() == f.points.tobytes() and g.points.shape == f.points.shape
        assert g.coeffs.tobytes() == f.coeffs.tobytes() and g.coeffs.shape == f.coeffs.shape


@pytest.mark.parametrize("build", [
    lambda p: jet([p], [1.0], 0),
    lambda p: Jet((p,), (1.0,), 0),
    lambda p: field_from_data([[p], [1.0]], [1.0, 2.0]),
    lambda p: field_from_json({"k": 0, "n": 1, "points": [[p]], "jets": [[{"alpha": [0], "value": 1.0}]]}),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_base_point_rejected(build, bad):
    with pytest.raises(InputError, match="jet base point must be finite"):
        build(bad)


def _float_error(value) -> str:
    try:
        float(value)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"float({value!r}) did not raise")


@pytest.mark.parametrize("call, error, message", [
    (lambda: jet([0.0], [1.0, math.nan], 1), InputError, "jet coefficients must be finite"),
    (lambda: jet([0.0], np.array([1.0, math.nan]), 1), InputError, "jet coefficients must be finite"),
    (lambda: jet(np.array([0.5, math.inf]), np.ones(3), 1), InputError,
     "jet base point must be finite, got (0.5, inf)"),
    (lambda: jet([0.0, 1.0], [1.0, 2.0], 1), InputError, "jet needs 3 coefficients for n=2, k=1, got 2"),
    (lambda: jet([0.0], np.ones(3), 1), InputError, "jet needs 2 coefficients for n=1, k=1, got 3"),
    (lambda: jet([0.0], [1.0, "x"], 1), ValueError, "could not convert string to float: 'x'"),
    # a point is converted entry by entry of its array, numpy's string scalars included
    (lambda: jet(["y"], [1.0], 0), ValueError, _float_error(np.atleast_1d(["y"])[0])),
    (lambda: jet([0.0], [1.0, None], 1), TypeError,
     "float() argument must be a string or a real number, not 'NoneType'"),
    (lambda: Jet((0.0,), (1.0, "x"), 1), TypeError, "must be real number, not str"),
])
def test_jet_errors_are_pinned(call, error, message):
    # jet converts each entry with float(), and Jet checks the count, then
    # the coefficients, then the point: these types and messages are the API
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def _sin(Y):
    return np.sin(Y[:, 0])


@pytest.mark.parametrize("call", [
    lambda: NormContext(0.0, 1, mo.linear()),
    lambda: NormContext(1.5, 1, mo.linear()),
    lambda: NormContext(0, 1.0, mo.linear()),
    lambda: NormContext(True, 1, mo.linear()),
    lambda: NormContext(0, True, mo.linear()),
    lambda: multi_indices(True, 1),
    lambda: WhitneyField([[0.0]], [[1.0]], 0.0, 1),
    lambda: WhitneyField([[0.0]], [[1.0]], 0, 1.0),
    lambda: Jet((0.0,), (1.0,), 0.0),
    lambda: jet([0.0], [1.0, 2.0], 1.5),
    lambda: jet([0.0], [1.0, 2.0], True),
    lambda: WhitneyField([[0.0]], [[1.0, 2.0]], True, 1),
    lambda: CutoffFamily(1, 2.5),
    lambda: CutoffFamily(1.0, 2),
    lambda: periodize(_sin, 2.5, [[0.1]]),
    lambda: periodize(_sin, 0, [[0.1]]),
    lambda: periodized_derivative(lambda alpha, Y: _sin(Y), 2.5, (0,), [[0.1]]),
    lambda: smooth_EN(_sin, 2.5, 4, [[0.1]]),
    lambda: finite_rank_LNN(lambda alpha, Y: _sin(Y), 4, [[0.1]], (0,), ell=2.5),
    lambda: error_report(lambda alpha, Y: _sin(Y), 2.5, 4, NormContext(0, 1, mo.linear()), [[0.1], [0.2]]),
    lambda: probe([0.0], 1.0, 1.7, [[0.0]]),
    lambda: probe([0.0], 1.0, -1, [[0.0]]),
])
def test_integer_parameters_rejected_unless_integers(call):
    # k, n, ell and the Markov order are counts: a float, even 0.0, or a
    # bool (an int subclass, as JSON's true becomes) is an input error where
    # it enters, not a TypeError deep inside or a silent truncation
    with pytest.raises(InputError, match="must be an integer"):
        call()


def _zero_derivs(alpha, X):
    return np.zeros(len(X))


@pytest.mark.parametrize("call", [
    lambda: taylor_eval(jet([0.0], [1.0, 2.0], 1), (0.9,), [0.5]),
    lambda: faa_di_bruno_pullback(jet([0.0], [1.0, 2.0], 1), [jet([0.0], [1.0, 2.0], 1)], (0.9,)),
    lambda: periodized_derivative(_zero_derivs, 8, (0.9,), [[0.3]]),
    lambda: finite_rank_LNN(_zero_derivs, 8, [[0.3]], (0.9,)),
    lambda: CutoffFamily(1, 8).rho_deriv([[0.3]], (0.9,)),
    lambda: taylor_eval(jet([0.0], [1.0, 2.0], 1), (True,), [0.5]),
    lambda: delta([0.0], [True]),
], ids=["taylor_eval", "faa_di_bruno_pullback", "periodized_derivative", "finite_rank_LNN",
        "rho_deriv", "taylor_eval_bool", "delta_bool"])
def test_multi_index_entries_rejected_unless_integers(call):
    # a multi-index entry of 0.9 is an input error, not the derivative of
    # order 0 that int() truncation made of it; True is not order 1
    with pytest.raises(InputError, match="entry of the integer alpha list"):
        call()


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


def test_faa_di_bruno_against_finite_differences_order_4_in_3d():
    # every |alpha| = 4 derivative at n = 3, where the step h = 3e-3 keeps
    # the Richardson error near 1e-5 relative
    rng = np.random.default_rng(5)
    n, k = 3, 4
    for trial in range(2):
        x = rng.uniform(-0.5, 0.5, n)
        h_fns, h_ds = zip(*[_poly_eval_and_jet(rng, n, k, x) for _ in range(n)])
        Hx = np.array([h(x) for h in h_fns])
        f_fn, f_d = _poly_eval_and_jet(rng, n, k, Hx)
        mis = multi_indices(n, k)
        f_jet = jet(Hx, [f_d(a, Hx) for a in mis], k)
        h_jets = [jet(x, [hd(a, x) for a in mis], k) for hd in h_ds]

        def composed(z):
            return f_fn(np.array([h(z) for h in h_fns]))

        for alpha in mis[len(multi_indices(n, k - 1)):]:
            got = faa_di_bruno_pullback(f_jet, h_jets, alpha)
            want = _fd_derivative(composed, x, alpha, h=3e-3)
            assert got == pytest.approx(want, rel=1e-4, abs=1e-4)


def test_faa_di_bruno_1d_polynomial_composition_to_order_6():
    # H(x) = y0 + Q(x - x0) with Q(0) = 0 and f(y) = P(y - y0), so the jets are
    # m! times Taylor coefficients and D^m (f o H)(x0) = m! [t^m] P(Q(t)),
    # read off numpy's polynomial composition. Composing in x and evaluating
    # the degree-18 result at x0 instead loses about 5e-12 to cancellation.
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = rng.normal(size=7)
        q = np.concatenate([[0.0], rng.normal(size=3)])
        composed = np.polynomial.Polynomial(p)(np.polynomial.Polynomial(q)).coef
        x0, y0 = rng.uniform(-1, 1, 2)
        f_jet = jet([y0], [math.factorial(j) * p[j] for j in range(7)], 6)
        h_jet = jet([x0], [y0] + [math.factorial(j) * q[j] for j in range(1, 4)] + [0.0] * 3, 6)
        for m in range(7):
            got = faa_di_bruno_pullback(f_jet, [h_jet], (m,))
            assert got == pytest.approx(math.factorial(m) * composed[m], rel=1e-12)


def test_faa_di_bruno_input_errors():
    f_jet = jet([0.0], [1.0, 1.0], 1)
    h_jet = jet([0.0, 0.0], [0.0, 1.0, 0.0], 1)
    with pytest.raises(InputError):
        faa_di_bruno_pullback(f_jet, [h_jet, h_jet], (1, 0))
    with pytest.raises(InputError):
        faa_di_bruno_pullback(f_jet, [h_jet], (2, 0))
