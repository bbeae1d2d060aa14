"""Command-line front door.

Subcommands: norm, extend, jackson, predual-norm, finiteness, markov,
validate-omega. Inputs are JSON (inline or a file path; CSV accepted for
k=0 scattered data). Every run writes a JSON report with the config echo,
the results object, and a provenance block carrying grids, tolerances, the
seed and solver statuses; fitted constants are namespaced "empirical_*".
Exit codes: 0 success, 1 input error, 2 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import InputError, NumericalError
from .extension import depth_audit, hermite_extension, mcshane_extension
from .fields import NormContext, field_from_csv, field_from_json
from .jackson import error_report
from .markov import (
    DEFAULT_RESOLUTION,
    builtin_set_sampler,
    classify_weak_markov,
)
from .modulus import default_grid, from_json as modulus_from_json, to_json as modulus_to_json, validate
from .predual import AtomicFunctional, _bracket_solutions, _k0_norm_lp, delta, difference, finiteness_gap
from .whitney import whitney_lambda


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 with usage, not argparse's 2
        raise InputError(f"{message}\n{self.format_usage()}")


def _load_json(text_or_path, what: str):
    s = str(text_or_path).strip()
    if s.startswith("{") or s.startswith("["):
        src, label = s, "<inline>"
    else:
        try:
            with open(s) as fh:
                src = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {what} from {s!r}: {exc}") from exc
        label = s
    try:
        return json.loads(src)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON for {what} in {label} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def _load_field(path_or_json):
    s = str(path_or_json)
    if s.endswith(".csv"):
        return field_from_csv(s)
    return field_from_json(_load_json(s, "field"))


def _load_modulus(spec):
    if spec is None:
        return modulus_from_json({"kind": "linear"})
    return modulus_from_json(_load_json(spec, "modulus"))


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _report(subcommand: str, config: dict, results: dict, provenance: dict) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "results": results,
        "provenance": provenance,
        "version": __version__,
    }


def _build_parser() -> _Parser:
    p = _Parser(prog="ckomega", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    sub = p.add_subparsers(dest="subcommand")

    q = sub.add_parser("validate-omega", help="check modulus axioms on a grid")
    q.add_argument("--omega", required=True)
    q.add_argument("--grid", default="default")
    q.add_argument("--out", default="-")

    q = sub.add_parser("norm", help="pairwise field seminorm (Whitney lambda)")
    q.add_argument("--field", required=True)
    q.add_argument("--omega", default=None)
    q.add_argument("--out", default="-")

    q = sub.add_parser("extend", help="evaluate an extension operator on queries")
    q.add_argument("--input", required=True)
    q.add_argument("--queries", required=True)
    q.add_argument("--method", choices=("mcshane", "hermite1d"), required=True)
    q.add_argument("--omega", default=None)
    q.add_argument("--variant", choices=("min", "max", "average"), default="min")
    q.add_argument("--audit", action="store_true", help="include depth audits per query")
    q.add_argument("--out", default="-")

    q = sub.add_parser("jackson", help="periodization/smoothing error report")
    q.add_argument("--f", required=True, help="builtin:<sin|cos|abs_sin|bump> or table:<file>")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--ell", type=int, required=True)
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--omega", default=None)
    q.add_argument("--grid-points", type=int, default=65)
    q.add_argument("--out", "--report", dest="out", default="-")

    q = sub.add_parser("predual-norm", help="atomic functional norm (exact k=0, bracket else)")
    q.add_argument("--atoms", required=True)
    q.add_argument("--omega", default=None)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--out", default="-")

    q = sub.add_parser("finiteness", help="closed-form finiteness gap: lambda against its sup over subsets of size <= d")
    q.add_argument("--field", required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--omega", default=None)
    q.add_argument("--out", default="-")

    q = sub.add_parser("markov", help="weak Markov ratio ladder")
    q.add_argument("--center", required=True)
    q.add_argument("--set", dest="set_spec", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--radii", default="default")
    q.add_argument("--threshold", type=float, default=1e3)
    q.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    q.add_argument("--out", default="-")
    return p


# ---------------------------------------------------------------------------
# subcommand bodies


def _run_validate_omega(args) -> dict:
    m = _load_modulus(args.omega)
    grid = default_grid() if args.grid == "default" else [float(t) for t in _load_json(args.grid, "grid")]
    rep = validate(m, grid)
    results = rep.to_dict()
    prov = {"grid": list(grid), "seed": args.seed}
    return _report("validate-omega", {"omega": modulus_to_json(m)}, results, prov)


def _run_norm(args) -> dict:
    fld = _load_field(args.field)
    m = _load_modulus(args.omega)
    ctx = NormContext(fld.k, fld.n, m)
    rep = whitney_lambda(fld, ctx)
    results = {
        "lambda_sup": rep.lam_sup,
        "lambda_osc": rep.lam_osc,
        "lambda": rep.lam,
        "sup_witness": {"point_index": rep.sup_witness[0], "alpha": list(rep.sup_witness[1])},
        "osc_witness": None
        if rep.osc_witness is None
        else {
            "point_indices": [rep.osc_witness[0], rep.osc_witness[1]],
            "z_choice": rep.osc_witness[2],
            "alpha": list(rep.osc_witness[3]),
        },
    }
    prov = {"n_points": len(fld), "k": fld.k, "n": fld.n, "seed": args.seed}
    return _report("norm", {"omega": modulus_to_json(m)}, results, prov)


def _run_extend(args) -> dict:
    fld = _load_field(args.input)
    m = _load_modulus(args.omega)
    queries = _load_json(args.queries, "queries")
    if isinstance(queries, dict):
        queries = queries["points"]
    Q = np.atleast_2d(np.asarray(queries, dtype=float))
    if Q.shape[1] != fld.n:
        raise InputError(f"queries have dimension {Q.shape[1]}, field has n={fld.n}")
    audits = []
    if args.method == "mcshane":
        op = mcshane_extension(fld, m, variant=args.variant)
        values = op(Q).tolist()
        jets = None
    else:
        op = hermite_extension(fld)
        J = op.jets(Q[:, 0])
        values, jets = J[:, 0].tolist(), J.tolist()
    if args.audit:
        for q in Q:
            rec = depth_audit(op, float(q[0]) if args.method == "hermite1d" else q)
            audits.append(
                {"linear": rec.linear, "marker": rec.marker, "active_points": rec.active_points,
                 "entries": [[i, a, w] for i, a, w in rec.entries]}
                if rec.linear
                else {"linear": False, "marker": rec.marker}
            )
    results = {"values": values}
    if jets is not None:
        results["jets"] = jets
    if audits:
        results["depth_audits"] = audits
    extras = {}
    if args.method == "mcshane":
        extras = {"trace_seminorm": op.lam, "sup_bound": op.sup_bound, "variant": args.variant}
    prov = {"n_queries": int(Q.shape[0]), "seed": args.seed, **extras}
    return _report("extend", {"method": args.method, "omega": modulus_to_json(m)}, results, prov)


def _builtin_derivs(name: str, k: int):
    from .cutoff import profile_deriv

    if name == "sin":
        return lambda alpha, X: np.sin(X[:, 0] + alpha[0] * math.pi / 2.0)
    if name == "cos":
        return lambda alpha, X: np.cos(X[:, 0] + alpha[0] * math.pi / 2.0)
    if name == "bump":
        return lambda alpha, X: profile_deriv(X[:, 0], alpha[0])
    if name == "abs_sin":
        if k > 0:
            raise InputError("abs_sin is Lipschitz only; use k=0")
        return lambda alpha, X: np.abs(np.sin(X[:, 0]))
    raise InputError(f"unknown builtin function {name!r}")


def _run_jackson(args) -> dict:
    m = _load_modulus(args.omega)
    ctx = NormContext(args.k, 1, m)
    if args.f.startswith("builtin:"):
        derivs = _builtin_derivs(args.f.split(":", 1)[1], args.k)
        f_desc = args.f
    elif args.f.startswith("table:"):
        if args.k > 0:
            raise InputError("table functions support k=0 only")
        tab = _load_json(args.f.split(":", 1)[1], "function table")
        xs = np.asarray(tab["x"], dtype=float)
        fs = np.asarray(tab["f"], dtype=float)
        derivs = lambda alpha, X: np.interp(X[:, 0], xs, fs)
        f_desc = args.f
    else:
        raise InputError("--f must be builtin:<name> or table:<file>")
    # span the cutoff transition region so the periodization ratio is informative
    grid = np.linspace(-2 * args.ell, 2 * args.ell, args.grid_points).reshape(-1, 1)
    rep = error_report(derivs, args.ell, args.N, ctx, grid)
    results = rep.to_dict()
    prov = {
        "grid": {"lo": -2 * args.ell, "hi": 2 * args.ell, "points": args.grid_points},
        "quadrature": "spectral: FFT of samples on a uniform lattice of at least 4N+1 "
                      "nodes per axis, times the Jackson kernel's Fourier multipliers",
        "seed": args.seed,
    }
    return _report(
        "jackson",
        {"f": f_desc, "N": args.N, "ell": args.ell, "k": args.k, "omega": modulus_to_json(m)},
        results,
        prov,
    )


def _parse_atoms(spec, ctx: NormContext) -> AtomicFunctional:
    entries = _load_json(spec, "atoms")
    atoms, coeffs = [], []
    for e in entries:
        alpha = tuple(int(a) for a in e.get("alpha", (0,) * ctx.n))
        if e.get("type", "delta") == "delta":
            atoms.append(delta(e["x"], alpha))
        else:
            atoms.append(difference(e["x"], e["y"], alpha))
        coeffs.append(float(e.get("coef", 1.0)))
    return AtomicFunctional(tuple(atoms), tuple(coeffs), ctx)


def _lp_provenance(formulation: str, sol) -> dict:
    return {
        "formulation": formulation,
        "rows": sol.dual_eq.size,
        "vars": sol.x.size,
        "iterations": sol.iterations,
        "duality_gap": sol.duality_gap,
    }


def _run_predual_norm(args) -> dict:
    m = _load_modulus(args.omega)
    entries = _load_json(args.atoms, "atoms")
    if not entries:
        raise InputError("empty atom list")
    n = args.n or len(entries[0]["x"])
    ctx = NormContext(args.k, n, m)
    g = _parse_atoms(args.atoms, ctx)
    prov = {"n_atoms": len(g.atoms), "support_size": len(g.support()), "seed": args.seed}
    if args.k == 0 and all(a.kind == "delta" for a in g.atoms):
        _, sol = _k0_norm_lp(g, m)
        results = {"norm": sol.optimum, "exact": True}
        prov["lp"] = _lp_provenance("transshipment", sol)
    else:
        lo, hi = _bracket_solutions(g, ctx)
        results = {"norm_bracket": [lo.optimum, hi.optimum], "exact": False}
        prov["lp_lo"] = _lp_provenance("bracket-lo", lo)
        prov["lp_hi"] = _lp_provenance("bracket-hi", hi)
    return _report("predual-norm", {"k": args.k, "n": n, "omega": modulus_to_json(m)}, results, prov)


def _run_finiteness(args) -> dict:
    fld = _load_field(args.field)
    m = _load_modulus(args.omega)
    ctx = NormContext(fld.k, fld.n, m)
    rep = finiteness_gap(fld, args.d, ctx)
    prov = {"n_points": len(fld), "k": fld.k, "n": fld.n, "seed": args.seed}
    return _report("finiteness", {"d": args.d, "omega": modulus_to_json(m)}, rep.to_dict(), prov)


def _run_markov(args) -> dict:
    center = _load_json(args.center, "center")
    if isinstance(center, dict):
        center = center["x"]
    center = [float(c) for c in np.atleast_1d(center)]
    n = len(center)
    if args.set_spec.startswith("builtin:"):
        sampler = builtin_set_sampler(args.set_spec.split(":", 1)[1], n, args.resolution)
        set_desc = args.set_spec
    else:
        pts = _load_json(args.set_spec, "set")
        if isinstance(pts, dict):
            pts = pts["points"]
        P = np.atleast_2d(np.asarray(pts, dtype=float))
        if P.shape[1] != n:
            raise InputError("set points dimension mismatch")

        def sampler(c, r):
            mask = np.max(np.abs(P - np.asarray(c)[None, :]), axis=1) <= r
            return P[mask]

        set_desc = "explicit"
    if args.radii == "default":
        radii = [2.0**-j for j in range(0, 11)]
    else:
        radii = [float(r) for r in _load_json(args.radii, "radii")]
    verdict = classify_weak_markov(center, sampler, args.k, radii, args.threshold,
                                   resolution=args.resolution)
    prov = {"resolution": args.resolution, "cap": 1e6, "seed": args.seed,
            "one_sided": "NOT_DETECTED never disproves the property"}
    return _report("markov", {"center": center, "set": set_desc, "k": args.k,
                              "threshold": args.threshold}, verdict.to_dict(), prov)


_RUNNERS = {
    "validate-omega": _run_validate_omega,
    "norm": _run_norm,
    "extend": _run_extend,
    "jackson": _run_jackson,
    "predual-norm": _run_predual_norm,
    "finiteness": _run_finiteness,
    "markov": _run_markov,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            raise InputError(parser.format_usage())
        report = _RUNNERS[args.subcommand](args)
        _emit(report, args.out)
        return 0
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
