"""The benchmark's three workloads, each a fixed task list made from a seed.

A task is one user-visible call (or one CLI run) with its inputs fixed at
generation time. ``run(state, tracer)`` performs the call and returns its
output; ``check(output)`` compares that output with an independent oracle
and returns a description of the miss, or None. Tasks of one session run in
order and may pass objects forward through ``state`` (a McShane extension
built by one task is queried by the next).

Sizes are fixed per task slot; the seed changes only point positions, data
values and function parameters, so the cost of a session barely depends on
the seed. Why each workload exists is recorded in README.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable

import numpy as np

from ckomega import cli
from ckomega import modulus as mo
from ckomega.cutoff import CutoffFamily
from ckomega.extension import depth_audit, hermite_extension, mcshane_extension
from ckomega.fields import NormContext, field_from_data, field_from_jets, field_to_json, jet, multi_indices
from ckomega.jackson import error_report, finite_rank_LNN, jackson_smooth_1d, smooth_EN
from ckomega.markov import builtin_set_sampler, classify_weak_markov, markov_ratio, probe
from ckomega.predual import delta, difference, finiteness_gap, functional, predual_norm_bracket, predual_norm_k0
from ckomega.whitney import ck_norm_estimate, whitney_lambda

from . import oracles

WORKLOADS = ("trace", "duality", "approx")

MODULI = {
    "power": mo.power(0.5),
    "linear": mo.linear(),
    "capped": mo.capped(0.7, 0.5),
    "table": mo.table([(0.1, 0.2), (0.5, 0.6), (2.0, 1.5)]),
}


# Absolute tolerances of the smoothing oracles: ten times the largest
# difference between the library (at its default node counts) and the
# oracle seen when this benchmark was written, so that an engine that is
# more exact still passes. The oracle's own error is far below these.
EN_TOL = {1: 1e-8, 2: 5e-4, 3: 2e-3}
EN_REF_NODES = {1: 2048, 2: 150, 3: 61}
FINITE_RANK_TOL = {1: 1e-6, 2: 1e-4}


@dataclass
class Task:
    id: str
    kind: str
    signature: tuple  # kind plus every parameter but the sizes; one warm-up per signature
    inputs: dict
    run: Callable[[dict, Any], Any]
    check: Callable[[Any], "str | None"]
    direct: Callable[[], Any] | None = None  # CLI tasks: the library call on parsed inputs
    attrs: dict = field(default_factory=dict)


def fingerprint(task: Task) -> str:
    h = hashlib.sha256(task.kind.encode())
    for key in sorted(task.inputs):
        val = task.inputs[key]
        h.update(key.encode())
        h.update(np.ascontiguousarray(val).tobytes() if isinstance(val, np.ndarray) else repr(val).encode())
    return h.hexdigest()


class Counted:
    """A benchmark callable that counts the points it is evaluated at (the
    last positional argument is the point array)."""

    def __init__(self, fn):
        self.fn = fn
        self.evals = 0

    def __call__(self, *args):
        self.evals += len(args[-1])
        return self.fn(*args)


def call_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _rel_miss(name, got, want, rtol, atol=0.0):
    if not (abs(got - want) <= atol + rtol * abs(want)):
        return f"{name}: got {got!r}, oracle {want!r}"
    return None


def _first(*misses):
    return next((m for m in misses if m), None)


def _cli_report(out):
    code, text, err = out
    if code != 0:
        raise RuntimeError(f"CLI exit {code}: {err.strip()}")
    return json.loads(text)


class Builder:
    """Collects the tasks of one workload; ``minimal`` shrinks every size so
    the list becomes the warm-up instances."""

    def __init__(self, workload: str, seed: int, minimal: bool):
        self.workload, self.seed, self.minimal = workload, seed, minimal
        self.tasks: list[Task] = []

    def rng(self):
        return np.random.default_rng([self.seed, len(self.tasks), int(self.minimal)])

    def size(self, full, small):
        return small if self.minimal else full

    def add(self, kind, signature, inputs, run, check, direct=None, **attrs):
        task = Task(f"{self.workload}:{len(self.tasks)}", kind, (kind,) + tuple(signature),
                    inputs, run, check, direct, attrs)
        self.tasks.append(task)
        return task

    # ------------------------------------------------------------------ trace

    def k0_group(self, key, m, n, om_name, queries=1000):
        """Scattered k=0 data: build + lambda, McShane build, query batch
        with every tenth query on a data point."""
        rng = self.rng()
        m, q = self.size(m, 3), self.size(queries, 4)
        om = MODULI[om_name]
        pts = rng.uniform(-1.0, 1.0, (m, n))
        vals = rng.normal(size=m)
        Q = rng.uniform(-1.2, 1.2, (q, n))
        on_data = np.arange(0, q, 10)
        Q[on_data] = pts[rng.integers(0, m, on_data.size)]
        ref = cache(lambda: oracles.lambda_ref(pts, vals[:, None], ((0,) * n,), 0, om))

        def run_lambda(state, tr):
            with tr.span("fields.build"):
                fld = field_from_data(pts, vals)
            with tr.span("whitney.lambda", pairs=m * (m - 1) // 2):
                rep = whitney_lambda(fld, NormContext(0, n, om))
            state[key] = fld
            return rep

        def check_lambda(rep):
            sup, osc = ref()
            miss = _first(_rel_miss("lambda", rep.lam, max(sup, osc), 1e-12))
            if miss or rep.osc_witness is None:
                return miss
            i, j = rep.osc_witness[:2]
            at = abs(vals[i] - vals[j]) / om(float(np.linalg.norm(pts[i] - pts[j])))
            return _rel_miss("witness ratio", at, osc, 1e-12)

        def run_build(state, tr):
            with tr.span("extension.mcshane_build"):
                ext = mcshane_extension(state[key], om)
            state[key + "/ext"] = ext
            return ext.lam, ext.sup_bound

        def check_build(out):
            return _first(_rel_miss("mcshane lam", out[0], ref()[1], 1e-12),
                          _rel_miss("sup bound", out[1], float(np.max(np.abs(vals))), 0.0))

        def run_query(state, tr):
            with tr.span("extension.mcshane_query", queries=q):
                return state[key + "/ext"](Q)

        def check_query(values):
            lower, upper, hit = oracles.mcshane_envelopes(pts, vals, ref()[1], om, Q)
            on = hit >= 0
            if not np.array_equal(values[on], vals[hit[on]]):
                return "McShane value at a data point is not bitwise the datum"
            tol = 1e-12 * (1.0 + np.abs(values[~on]))
            bad = (values[~on] < lower[~on] - tol) | (values[~on] > upper[~on] + tol)
            return f"{int(bad.sum())} McShane values outside the envelopes" if bad.any() else None

        sig = (n, om_name, key)
        self.add("whitney.k0_lambda", sig, {"pts": pts, "vals": vals}, run_lambda, check_lambda)
        self.add("extension.mcshane_build", sig, {"pts": pts}, run_build, check_build)
        self.add("extension.mcshane_query", sig, {"Q": Q}, run_query, check_query)

    def jet_lambda(self, m, n, k, om_name="power"):
        rng = self.rng()
        m = self.size(m, 3)
        om = MODULI[om_name]
        mis = multi_indices(n, k)
        pts = rng.uniform(-1.0, 1.0, (m, n))
        coeffs = rng.normal(size=(m, len(mis)))
        ref = cache(lambda: max(oracles.lambda_ref(pts, coeffs, mis, k, om)))

        def run(state, tr):
            with tr.span("fields.build"):
                fld = field_from_jets([jet(p, c, k) for p, c in zip(pts, coeffs)])
            with tr.span("whitney.lambda", pairs=m * (m - 1) // 2):
                return whitney_lambda(fld, NormContext(k, n, om))

        self.add("whitney.jet_lambda", (n, k, om_name), {"pts": pts, "coeffs": coeffs},
                 run, lambda rep: _rel_miss("lambda", rep.lam, ref(), 1e-10))

    def hermite_group(self, key, m, k, jet_batches=4, batch=50, audit_batches=2, audit_batch=8):
        """1D Hermite field: build, evaluate_jet batches inside the hull (a
        few exactly on knots), depth-audit batches."""
        rng = self.rng()
        m = self.size(m, 3)
        batch, audit_batch = self.size(batch, 2), self.size(audit_batch, 1)
        jet_batches, audit_batches = self.size(jet_batches, 1), self.size(audit_batches, 1)
        xs = np.sort(rng.uniform(-1.0, 1.0, m))
        coeffs = rng.normal(size=(m, k + 1))
        perm = rng.permutation(m)  # the field lists its points unsorted

        def queries(count):
            qs = rng.uniform(xs[0], xs[-1], count)
            qs[::7] = xs[rng.integers(0, m, qs[::7].size)]
            return qs

        def jets_ref(x):
            return oracles.hermite_jet_ref(xs, coeffs, k, x)

        def run_build(state, tr):
            with tr.span("fields.build"):
                fld = field_from_jets([jet([xs[i]], coeffs[i], k) for i in perm])
            with tr.span("extension.hermite_build"):
                state[key] = hermite_extension(fld)
            return len(state[key].knots)

        sig = (k, key)
        self.add("extension.hermite_build", sig, {"xs": xs, "coeffs": coeffs, "perm": perm},
                 run_build, lambda out: None if out == m else f"{out} knots for {m} points")

        for _ in range(jet_batches):
            qs = queries(batch)

            def run_jets(state, tr, qs=qs):
                with tr.span("extension.hermite_jets", jets=len(qs)):
                    ext = state[key]
                    return np.array([ext.evaluate_jet(x).coeffs for x in qs])

            def check_jets(out, qs=qs):
                for x, got in zip(qs, out):
                    want = jets_ref(x)
                    if not np.allclose(got, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want))):
                        return f"Hermite jet at {x!r}: got {got}, oracle {want}"
                return None

            self.add("extension.hermite_jets", sig, {"qs": qs}, run_jets, check_jets)

        for _ in range(audit_batches):
            qs = queries(audit_batch)

            def run_audit(state, tr, qs=qs):
                with tr.span("extension.audit", calls=len(qs)):
                    ext = state[key]
                    return [depth_audit(ext, x) for x in qs]

            def check_audit(recs, qs=qs):
                for x, rec in zip(qs, recs):
                    if not rec.linear or not 1 <= rec.active_points <= 2:
                        return f"audit at {x!r}: linear={rec.linear}, active={rec.active_points}"
                    value = sum(w * coeffs[perm[i], a] for i, a, w in rec.entries)
                    want = jets_ref(x)[0]
                    miss = _rel_miss(f"audit weights at {x!r}", value, want, 1e-8,
                                     1e-8 * np.max(np.abs(coeffs)))
                    if miss or rec.constant_residual > 1e-9:
                        return miss or f"audit constant residual {rec.constant_residual}"
                return None

            self.add("extension.audit", sig, {"qs": qs}, run_audit, check_audit)

    def norm_estimate(self, samples=100, pairs=100, om_name="power"):
        """ck_norm_estimate of f(x) = sin(a.x + b) in 2D, k = 1."""
        rng = self.rng()
        samples, pairs = self.size(samples, 2), self.size(pairs, 2)
        om = MODULI[om_name]
        a, b = rng.uniform(0.5, 1.5, 2), rng.uniform(0.0, math.pi)
        grid = rng.uniform(-1.0, 1.0, (samples, 2))
        px = rng.uniform(-1.0, 1.0, (pairs, 2))
        py = px + rng.uniform(0.01, 0.2, (pairs, 2))

        def deriv(alpha, x):
            order = sum(alpha)
            return a[0] ** alpha[0] * a[1] ** alpha[1] * np.sin(np.dot(a, x) + b + order * math.pi / 2)

        def run(state, tr):
            with tr.span("whitney.norm_estimate"):
                return ck_norm_estimate(deriv, NormContext(1, 2, om), grid, list(zip(px, py)))

        def check(est):
            phase = grid @ a + b
            sup = max(np.max(np.abs(np.sin(phase))), *(np.max(np.abs(a[i] * np.cos(phase))) for i in (0, 1)))
            d = np.linalg.norm(px - py, axis=1)
            semi = max(np.max(np.abs(a[i] * (np.cos(px @ a + b) - np.cos(py @ a + b))) / om(d)) for i in (0, 1))
            return _first(_rel_miss("sup part", est.sup_part, sup, 1e-12),
                          _rel_miss("seminorm part", est.seminorm_part, semi, 1e-9))

        self.add("whitney.norm_estimate", (om_name,), {"grid": grid, "px": px, "py": py, "ab": (a, b)},
                 run, check)

    def cli_norm(self, m, n, k, om_name="power"):
        rng = self.rng()
        m = self.size(m, 2)
        om = MODULI[om_name]
        mis = multi_indices(n, k)
        pts = rng.uniform(-1.0, 1.0, (m, n))
        coeffs = rng.normal(size=(m, len(mis)))
        fld = field_from_jets([jet(p, c, k) for p, c in zip(pts, coeffs)])
        argv = ["norm", "--field", json.dumps(field_to_json(fld)),
                "--omega", json.dumps(mo.to_json(om)), "--out", "-"]
        ref = cache(lambda: max(oracles.lambda_ref(pts, coeffs, mis, k, om)))

        def run(state, tr):
            with tr.span("cli.norm"):
                return call_cli(argv)

        def check(out):
            return _rel_miss("CLI lambda", _cli_report(out)["results"]["lambda"], ref(), 1e-10)

        self.add("cli.norm", (n, k, om_name), {"argv": argv}, run, check,
                 direct=lambda: whitney_lambda(fld, NormContext(k, n, om)))

    def cli_extend_mcshane(self, m, n, queries, om_name="power"):
        rng = self.rng()
        m, queries = self.size(m, 2), self.size(queries, 2)
        om = MODULI[om_name]
        pts = rng.uniform(-1.0, 1.0, (m, n))
        vals = rng.normal(size=m)
        Q = rng.uniform(-1.2, 1.2, (queries, n))
        Q[::10] = pts[rng.integers(0, m, Q[::10].shape[0])]
        fld = field_from_data(pts, vals)
        argv = ["extend", "--input", json.dumps(field_to_json(fld)), "--queries", json.dumps(Q.tolist()),
                "--method", "mcshane", "--omega", json.dumps(mo.to_json(om)), "--out", "-"]

        def run(state, tr):
            with tr.span("cli.extend"):
                return call_cli(argv)

        def check(out):
            values = np.asarray(_cli_report(out)["results"]["values"])
            osc = oracles.lambda_ref(pts, vals[:, None], ((0,) * n,), 0, om)[1]
            lower, upper, hit = oracles.mcshane_envelopes(pts, vals, osc, om, Q)
            on = hit >= 0
            if not np.array_equal(values[on], vals[hit[on]]):
                return "CLI McShane value at a data point is not bitwise the datum"
            tol = 1e-12 * (1.0 + np.abs(values[~on]))
            if np.any((values[~on] < lower[~on] - tol) | (values[~on] > upper[~on] + tol)):
                return "CLI McShane values outside the envelopes"
            return None

        def direct():
            ext = mcshane_extension(fld, om)
            return [float(ext(q.reshape(1, -1))[0]) for q in Q]

        self.add("cli.extend_mcshane", (n, om_name), {"argv": argv}, run, check, direct=direct)

    def cli_extend_hermite(self, m, k, queries):
        rng = self.rng()
        m, queries = self.size(m, 2), self.size(queries, 2)
        xs = np.sort(rng.uniform(-1.0, 1.0, m))
        coeffs = rng.normal(size=(m, k + 1))
        qs = rng.uniform(xs[0], xs[-1], queries)
        fld = field_from_jets([jet([x], c, k) for x, c in zip(xs, coeffs)])
        argv = ["extend", "--input", json.dumps(field_to_json(fld)),
                "--queries", json.dumps(qs.reshape(-1, 1).tolist()), "--method", "hermite1d",
                "--audit", "--out", "-"]

        def run(state, tr):
            with tr.span("cli.extend"):
                return call_cli(argv)

        def check(out):
            res = _cli_report(out)["results"]
            for x, got, audit in zip(qs, res["jets"], res["depth_audits"]):
                want = oracles.hermite_jet_ref(xs, coeffs, k, x)
                if not np.allclose(got, want, rtol=1e-8, atol=1e-8 * np.max(np.abs(want))):
                    return f"CLI Hermite jet at {x!r}: got {got}, oracle {want}"
                value = sum(w * coeffs[i, a] for i, a, w in audit["entries"])
                miss = _rel_miss("CLI audit weights", value, want[0], 1e-8, 1e-8 * np.max(np.abs(coeffs)))
                if miss:
                    return miss
            return None

        def direct():
            ext = hermite_extension(fld)
            return [ext.evaluate_jet(x) for x in qs], [depth_audit(ext, x) for x in qs]

        self.add("cli.extend_hermite", (k,), {"argv": argv}, run, check, direct=direct)

    # ---------------------------------------------------------------- duality

    @staticmethod
    def _charges(rng, m):
        """|N(0, 1)| weights with exactly ceil(m/8) of them negated: the
        simplex's pivot count grows with the number of negative atoms, and
        fixing that number keeps the LP cost nearly the same on every seed."""
        coefs = np.abs(rng.normal(size=m))
        coefs[rng.choice(m, math.ceil(m / 8), replace=False)] *= -1.0
        return coefs

    def predual_k0(self, m, n=2, om_name="power"):
        rng = self.rng()
        m = self.size(m, 2)
        om = MODULI[om_name]
        pts = rng.uniform(-1.0, 1.0, (m, n))
        coefs = self._charges(rng, m)
        ref = cache(lambda: oracles.predual_k0_ref(pts, coefs, om))

        def run(state, tr):
            g = functional([delta(p) for p in pts], coefs, NormContext(0, n, om))
            with tr.span("predual.k0"):
                return predual_norm_k0(g)

        self.add("predual.k0", (n, om_name), {"pts": pts, "coefs": coefs}, run,
                 lambda v: _rel_miss("k=0 predual norm", v, ref(), 1e-7, 1e-9))

    def _bracket_atoms(self, rng, m, n, k):
        pts = rng.uniform(-1.0, 1.0, (m, n))
        mis = multi_indices(n, k)
        top = [a for a in mis if sum(a) == k]
        atoms = [(tuple(p), None, mis[rng.integers(len(mis))], float(rng.normal())) for p in pts]
        for _ in range(2):
            i, j = rng.choice(m, 2, replace=False)
            atoms.append((tuple(pts[i]), tuple(pts[j]), top[rng.integers(len(top))], float(rng.normal())))
        return pts, mis, atoms

    def predual_bracket(self, m, n=1, k=1, om_name="power"):
        rng = self.rng()
        m = self.size(m, 2)
        om = MODULI[om_name]
        pts, mis, atoms = self._bracket_atoms(rng, m, n, k)
        ref = cache(lambda: oracles.predual_bracket_ref(atoms, mis, k, om))

        def run(state, tr):
            ctx = NormContext(k, n, om)
            g = functional([delta(x, a) if y is None else difference(x, y, a) for x, y, a, _ in atoms],
                           [c for *_, c in atoms], ctx)
            with tr.span("predual.bracket"):
                return predual_norm_bracket(g, ctx)

        def check(out):
            lo, hi = ref()
            return _first(_rel_miss("bracket lo", out[0], lo, 1e-7, 1e-9),
                          _rel_miss("bracket hi", out[1], hi, 1e-7, 1e-9),
                          None if out[0] <= out[1] + 1e-9 else f"bracket lo {out[0]} > hi {out[1]}")

        self.add("predual.bracket", (n, k, om_name), {"atoms": atoms}, run, check)

    @staticmethod
    def _last_pair_field(rng, m, n, k):
        """Points on a jittered grid with small jets, except that the last
        point sits close to the one before it with a jump of 0.5 in value:
        that pair is the seminorm's witness and comes last in subset order,
        so finiteness_gap enumerates every subset on every seed."""
        side = math.ceil(m ** (1.0 / n))
        spacing = 2.0 / max(side - 1, 1)
        axes = np.meshgrid(*([np.linspace(-1.0, 1.0, side)] * n), indexing="ij")
        pts = np.stack([g.ravel() for g in axes], axis=1)[:m]
        pts = pts + rng.uniform(-0.1, 0.1, pts.shape) * spacing
        direction = rng.normal(size=n)
        pts[m - 1] = pts[m - 2] + 0.3 * spacing * direction / np.linalg.norm(direction)
        coeffs = rng.uniform(-0.05, 0.05, (m, len(multi_indices(n, k))))
        coeffs[m - 1, 0] = coeffs[m - 2, 0] + 0.5
        return pts, coeffs

    def finiteness(self, m, n=2, k=0, d=2, om_name="power"):
        rng = self.rng()
        m = self.size(m, 2)
        om = MODULI[om_name]
        mis = multi_indices(n, k)
        pts, coeffs = self._last_pair_field(rng, m, n, k)
        ref = cache(lambda: max(oracles.lambda_ref(pts, coeffs, mis, k, om)))

        def run(state, tr):
            with tr.span("fields.build"):
                fld = field_from_jets([jet(p, c, k) for p, c in zip(pts, coeffs)])
            with tr.span("predual.finiteness"):
                return finiteness_gap(fld, d, NormContext(k, n, om))

        def check(rep):
            return _first(_rel_miss("full lambda", rep.full, ref(), 1e-10),
                          None if rep.subset_sup == rep.full else "subset sup differs from full",
                          None if rep.ratio == 1.0 else f"ratio {rep.ratio} != 1 for d >= 2",
                          None if 1 <= len(rep.witness_subset) <= d else "witness subset size")

        self.add("predual.finiteness", (n, k, d, om_name), {"pts": pts, "coeffs": coeffs}, run, check)

    def cli_predual(self, m, n, k, om_name="power"):
        rng = self.rng()
        m = self.size(m, 2)
        om = MODULI[om_name]
        if k == 0:
            pts = rng.uniform(-1.0, 1.0, (m, n))
            coefs = self._charges(rng, m)
            atoms = [(tuple(p), None, (0,) * n, float(c)) for p, c in zip(pts, coefs)]
            ref = cache(lambda: oracles.predual_k0_ref(pts, coefs, om))
        else:
            _, mis, atoms = self._bracket_atoms(rng, m, n, k)
            ref = cache(lambda: oracles.predual_bracket_ref(atoms, mis, k, om))
        spec = [{"type": "delta" if y is None else "diff", "x": list(x), "alpha": list(a), "coef": c,
                 **({} if y is None else {"y": list(y)})} for x, y, a, c in atoms]
        argv = ["predual-norm", "--atoms", json.dumps(spec), "--omega", json.dumps(mo.to_json(om)),
                "--k", str(k), "--out", "-"]

        def run(state, tr):
            with tr.span("cli.predual_norm"):
                return call_cli(argv)

        def check(out):
            res = _cli_report(out)["results"]
            if k == 0:
                return _rel_miss("CLI k=0 norm", res["norm"], ref(), 1e-7, 1e-9)
            (lo, hi), (rlo, rhi) = res["norm_bracket"], ref()
            return _first(_rel_miss("CLI bracket lo", lo, rlo, 1e-7, 1e-9),
                          _rel_miss("CLI bracket hi", hi, rhi, 1e-7, 1e-9))

        def direct():
            ctx = NormContext(k, n, om)
            g = functional([delta(x, a) if y is None else difference(x, y, a) for x, y, a, _ in atoms],
                           [c for *_, c in atoms], ctx)
            return predual_norm_k0(g) if k == 0 else predual_norm_bracket(g, ctx)

        self.add("cli.predual_norm", (n, k, om_name), {"argv": argv}, run, check, direct=direct)

    def cli_finiteness(self, m, n=2, d=2, om_name="power"):
        rng = self.rng()
        m = self.size(m, 2)
        om = MODULI[om_name]
        pts, coeffs = self._last_pair_field(rng, m, n, 0)
        vals = coeffs[:, 0]
        fld = field_from_data(pts, vals)
        argv = ["finiteness", "--field", json.dumps(field_to_json(fld)), "--d", str(d),
                "--omega", json.dumps(mo.to_json(om)), "--out", "-"]
        ref = cache(lambda: max(oracles.lambda_ref(pts, vals[:, None], ((0,) * n,), 0, om)))

        def run(state, tr):
            with tr.span("cli.finiteness"):
                return call_cli(argv)

        def check(out):
            res = _cli_report(out)["results"]
            return _first(_rel_miss("CLI full lambda", res["full"], ref(), 1e-10),
                          None if res["ratio"] == 1.0 else f"CLI ratio {res['ratio']} != 1")

        self.add("cli.finiteness", (n, d, om_name), {"argv": argv}, run, check,
                 direct=lambda: finiteness_gap(fld, d, NormContext(0, n, om)))

    # ----------------------------------------------------------------- approx

    def smooth_en(self, n, N, ell, points, fixed_points=False):
        """smooth_EN at random points; with ``fixed_points`` the points do
        not depend on the seed (only f does), which keeps the call's peak
        memory, set by how many lattice coordinates fall in the cutoff's
        transition band, the same on every seed."""
        rng = self.rng()
        points = self.size(points, 1)
        a, b = rng.uniform(0.5, 1.0), rng.uniform(0.2, 0.4)
        X = (np.random.default_rng(n) if fixed_points else rng).uniform(-ell, ell, (points, n))

        def f(Y):
            return np.exp(np.sin(a * Y[:, 0])) * np.cos(b * Y[:, -1])

        rho = CutoffFamily(n, ell).rho
        ref = cache(lambda: oracles.smooth_EN_ref(f, ell, N, X, EN_REF_NODES[n], rho))

        def run(state, tr):
            fn = Counted(f)
            with tr.span("jackson.smooth_EN", points=points):
                values = smooth_EN(fn, ell, N, X)
            return values, fn.evals

        def check(out):
            err = float(np.max(np.abs(out[0] - ref())))
            return None if err <= EN_TOL[n] else f"smooth_EN n={n}: max error {err:.3e}"

        self.add("jackson.smooth_EN", (n, N, ell), {"X": X, "ab": (a, b)}, run, check, N=N)

    def finite_rank(self, N, ell, order, points):
        rng = self.rng()
        points = self.size(points, 1)
        a, b, c = rng.uniform(0.5, 1.5), rng.uniform(0, math.pi), rng.uniform(0.2, 0.6)
        X = rng.uniform(-ell, ell, (points, 1))

        def f_derivs(alpha, Y):
            j, y = alpha[0], Y[:, 0]
            return a**j * np.sin(a * y + b + j * math.pi / 2) + 0.5 * c**j * np.cos(c * y + j * math.pi / 2)

        rho = CutoffFamily(1, ell).rho

        def g(xs):  # E_N f_ell: a trigonometric polynomial of degree N, period 8 ell
            return oracles.smooth_EN_ref(lambda Y: f_derivs((0,), Y), ell, N, xs.reshape(-1, 1), 2048, rho)

        ref = cache(lambda: oracles.trig_derivative(g, 8.0 * ell, N, order, X[:, 0]))

        def run(state, tr):
            fn = Counted(f_derivs)
            with tr.span("jackson.finite_rank", points=points):
                values = finite_rank_LNN(fn, N, X, (order,), ell=ell)
            return values, fn.evals

        def check(out):
            err = float(np.max(np.abs(out[0] - ref())))
            return None if err <= FINITE_RANK_TOL[order] else f"finite_rank order {order}: error {err:.3e}"

        self.add("jackson.finite_rank", (N, ell, order), {"X": X, "abc": (a, b, c)}, run, check, N=N)

    def _error_report_ref(self, f, ell, N, grid, om):
        """Sampled k=0 norms of f, f_ell and E_N f_ell on the grid and its
        consecutive pairs, and the sup error, from the oracle smoothing."""
        rho = CutoffFamily(1, ell).rho
        px, py = grid[:-1], grid[1:]
        d = np.abs(px - py)[:, 0]

        def en(P):
            return oracles.smooth_EN_ref(f, ell, N, P, 2048, rho)

        fl = rho(grid) * f(grid)
        en_grid = en(grid)
        return {
            "norm_f": oracles.sampled_norm_k0(f(grid), f(px), f(py), d, om),
            "norm_f_ell": oracles.sampled_norm_k0(fl, rho(px) * f(px), rho(py) * f(py), d, om),
            "norm_EN": oracles.sampled_norm_k0(en_grid, en(px), en(py), d, om),
            "sup_error": float(np.max(np.abs(fl - en_grid))),
        }

    def _check_error_report(self, got, want):
        return _first(*(_rel_miss(name, got[name], want[name], 1e-9, 1e-9) for name in want))

    def error_report(self, N, ell, grid_points, om_name="power"):
        rng = self.rng()
        grid_points = self.size(grid_points, 2)
        om = MODULI[om_name]
        a, b = rng.uniform(0.5, 1.5), rng.uniform(0, math.pi)
        grid = np.sort(rng.uniform(-2 * ell, 2 * ell, grid_points)).reshape(-1, 1)

        def f(Y):
            return np.sin(a * Y[:, 0] + b)

        ref = cache(lambda: self._error_report_ref(f, ell, N, grid, om))

        def run(state, tr):
            fn = Counted(lambda alpha, Y: f(Y))
            with tr.span("jackson.error_report"):
                rep = error_report(fn, ell, N, NormContext(0, 1, om), grid)
            return rep, fn.evals

        def check(out):
            rep = out[0]
            got = {"norm_f": rep.norm_f, "norm_f_ell": rep.norm_f_ell, "norm_EN": rep.norm_EN,
                   "sup_error": rep.sup_error}
            return self._check_error_report(got, ref())

        self.add("jackson.error_report", (N, ell, om_name), {"grid": grid, "ab": (a, b)}, run, check, N=N)

    def smooth_1d(self, N, points, degree=6):
        """jackson_smooth_1d on a random trigonometric polynomial, checked
        against the kernel's closed-form Fourier multipliers."""
        rng = self.rng()
        points = self.size(points, 1)
        ca, cb = rng.normal(size=degree + 1), rng.normal(size=degree + 1)
        xs = rng.uniform(-math.pi, math.pi, points)
        q = np.arange(degree + 1)

        def f(x):
            return np.cos(np.outer(x, q)) @ ca + np.sin(np.outer(x, q)) @ cb

        def ref():
            mult = np.zeros(degree + 1)
            mj = oracles.jackson_multipliers(N)
            mult[: min(degree + 1, mj.size)] = mj[: degree + 1]
            return np.cos(np.outer(xs, q)) @ (mult * ca) + np.sin(np.outer(xs, q)) @ (mult * cb)

        def run(state, tr):
            fn = Counted(f)
            with tr.span("jackson.smooth_1d", points=points):
                values = jackson_smooth_1d(fn, N, xs)
            return values, fn.evals

        def check(out):
            err = float(np.max(np.abs(out[0] - ref())))
            return None if err <= 1e-10 * (1 + np.sum(np.abs(ca) + np.abs(cb))) else f"smooth_1d error {err:.3e}"

        self.add("jackson.smooth_1d", (N,), {"xs": xs, "ca": ca, "cb": cb}, run, check, N=N)

    def markov(self, n, k, resolution):
        """markov_ratio at one radius for the halfspace through the centre:
        the ratio is |T_k(3)| in 1D and on the 2D square (first axis)."""
        rng = self.rng()
        resolution = self.size(resolution, 3)
        center = rng.uniform(-1.0, 1.0, n)
        r = 2.0 ** -rng.uniform(0.0, 4.0)
        axes = [np.linspace(c - r, c + r, resolution) for c in center]
        grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
        sample = grid[grid[:, 0] - center[0] >= -1e-12 * r]
        want = abs(oracles.chebyshev_T(k, 3.0))

        def run(state, tr):
            with tr.span("markov.ratio"):
                return markov_ratio(probe(center, r, k, sample, resolution=resolution))

        def check(res):
            if res.capped:
                return "Markov ratio capped"
            return _rel_miss(f"Markov ratio n={n} k={k}", res.value, want, 1e-6)

        self.add("markov.ratio", (n, k), {"center": center, "r": r, "sample": sample}, run, check)

    def cli_jackson(self, N, ell, grid_points):
        rng = self.rng()
        grid_points = self.size(grid_points, 2)
        name = ("sin", "cos")[int(rng.integers(2))]
        om = mo.power(float(rng.uniform(0.3, 1.0)))
        argv = ["jackson", "--f", f"builtin:{name}", "--N", str(N), "--ell", str(ell), "--k", "0",
                "--omega", json.dumps(mo.to_json(om)), "--grid-points", str(grid_points), "--report", "-"]
        fn = {"sin": lambda Y: np.sin(Y[:, 0]), "cos": lambda Y: np.cos(Y[:, 0])}[name]
        grid = np.linspace(-2 * ell, 2 * ell, grid_points).reshape(-1, 1)
        ref = cache(lambda: self._error_report_ref(fn, ell, N, grid, om))

        def run(state, tr):
            with tr.span("cli.jackson"):
                return call_cli(argv)

        def check(out):
            res = _cli_report(out)["results"]
            got = {"norm_f": res["sampled_norm_f"], "norm_f_ell": res["sampled_norm_f_ell"],
                   "norm_EN": res["sampled_norm_EN_f_ell"], "sup_error": res["sup_error_C_k"]}
            return self._check_error_report(got, ref())

        self.add("cli.jackson", (N, ell), {"argv": argv}, run, check,
                 direct=lambda: error_report(lambda alpha, Y: fn(Y), ell, N, NormContext(0, 1, om), grid), N=N)

    def cli_markov(self, k, radii=2, resolution=33):
        rng = self.rng()
        radii, resolution = self.size(radii, 1), self.size(resolution, 3)
        rs = sorted((2.0 ** -rng.uniform(0.0, 4.0, radii)).tolist(), reverse=True)
        argv = ["markov", "--center", "[0.0]", "--set", "builtin:halfspace", "--k", str(k),
                "--radii", json.dumps(rs), "--resolution", str(resolution), "--out", "-"]
        want = abs(oracles.chebyshev_T(k, 3.0))

        def run(state, tr):
            with tr.span("cli.markov"):
                return call_cli(argv)

        def check(out):
            res = _cli_report(out)["results"]
            if res["verdict"] != "WEAK_MARKOV" or any(res["capped"]):
                return f"CLI markov verdict {res['verdict']}, capped {res['capped']}"
            return _first(*(_rel_miss("CLI Markov ratio", v, want, 1e-6) for v in res["ratios"]))

        self.add("cli.markov", (k,), {"argv": argv}, run, check,
                 direct=lambda: classify_weak_markov([0.0], builtin_set_sampler("halfspace", 1), k, rs,
                                                     1e3, resolution=resolution))


def _trace(b: Builder):
    for key, n, om in (("f1", 2, "power"), ("f2", 3, "linear"), ("f3", 2, "capped"), ("f4", 3, "table")):
        b.k0_group(key, 180, n, om)
    b.jet_lambda(300, 3, 2)
    for m, n, k in ((100, 2, 1), (60, 2, 3), (80, 1, 3), (120, 1, 2), (50, 3, 1)):
        b.jet_lambda(m, n, k)
    b.hermite_group("h1", 40, 2, audit_batches=4)
    b.hermite_group("h2", 40, 2, audit_batches=4)
    b.norm_estimate()
    b.cli_norm(60, 2, 0)
    b.cli_norm(40, 2, 1)
    b.cli_extend_mcshane(60, 2, 200)
    b.cli_extend_hermite(20, 2, 40)


def _duality(b: Builder):
    # many LPs of a few sizes: the dense simplex's pivot count varies by
    # 15-30% between random layouts, so the session sums several. Counts
    # put p50 inside the k=1 finiteness tasks and p90 inside the m=28 LPs.
    for m in (24, 24, 24, 28, 28, 28, 28, 28, 28, 32, 32):
        b.predual_k0(m)
    for _ in range(8):
        b.predual_bracket(6)
    for k in (0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 1):
        b.finiteness(20 if k == 0 else 16, k=k)
    b.cli_predual(24, 2, 0)
    b.cli_predual(6, 1, 1)
    b.cli_finiteness(20)


def _approx(b: Builder):
    # counts put p50 inside the 13 smooth_1d tasks and p90 inside the three
    # 2D k=1 Markov ratios, not on a gap between two groups of tasks
    for points in (1, 2, 3, 64, 128):
        b.smooth_en(1, 16, 2, points)
    for points in (1, 2, 3, 20):
        b.smooth_en(2, 8, 2, points)
    b.smooth_en(3, 4, 1, 3, fixed_points=True)
    for order, points in ((1, 4), (1, 16), (2, 4), (2, 16)):
        b.finite_rank(16, 2, order, points)
    b.error_report(8, 2, 33)
    b.error_report(16, 2, 33)
    for N in (8, 16, 32) * 4 + (16,):
        b.smooth_1d(N, 384)
    for n, k, res in ((1, 2, 33), (1, 3, 33), (2, 1, 9)) * 3 + ((2, 2, 9),):
        b.markov(n, k, res)
    b.cli_jackson(8, 2, 33)
    b.cli_markov(2)


_BUILDERS = {"trace": _trace, "duality": _duality, "approx": _approx}


def build(workload: str, seed: int, minimal: bool = False) -> list[Task]:
    """The task list of one session. With ``minimal``, one smallest
    instance per task signature: the warm-up that fills the caches."""
    b = Builder(workload, seed, minimal)
    _BUILDERS[workload](b)
    if not minimal:
        return b.tasks
    seen, out = set(), []
    for task in b.tasks:
        if task.signature not in seen:
            seen.add(task.signature)
            out.append(task)
    return out
