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
import functools
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
    DEFAULT_CAP,
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


def _floats(value, what: str, ndim: int, key: str | None = None) -> np.ndarray:
    """value, or its entry key if it is an object, as a finite float array
    of ndim dimensions (1: a list of numbers, 2: a list of points); a
    malformed one is an InputError naming what."""
    if key is not None and isinstance(value, dict):
        if key not in value:
            raise InputError(f"{what} object has no {key!r} list")
        value = value[key]
    kind = ("values", "points")[ndim - 1]
    try:
        a = np.array(value, dtype=float, ndmin=ndim)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a list of numeric {kind}: {exc}") from exc
    if a.ndim != ndim:
        raise InputError(f"{what} must be a list of {kind}, got an array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{what} must be finite")
    return a


def _load_modulus(spec):
    if spec is None:
        return modulus_from_json({"kind": "linear"})
    return modulus_from_json(_load_json(spec, "modulus"))


def _field_context(args):
    """The field of args.field (JSON, or CSV by extension) and its norm
    context under the modulus of args.omega."""
    s = str(args.field)
    fld = field_from_csv(s) if s.endswith(".csv") else field_from_json(_load_json(s, "field"))
    return fld, NormContext(fld.k, fld.n, _load_modulus(args.omega))


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out is None or out == "-":
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (config, results, provenance), and main
# adds the subcommand, the seed and the version


def _run_validate_omega(args):
    m = _load_modulus(args.omega)
    grid = default_grid() if args.grid == "default" else _floats(_load_json(args.grid, "grid"), "grid", 1).tolist()
    return {"omega": modulus_to_json(m)}, validate(m, grid).to_dict(), {"grid": list(grid)}


def _run_norm(args):
    fld, ctx = _field_context(args)
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
    prov = {"n_points": len(fld), "k": fld.k, "n": fld.n}
    return {"omega": modulus_to_json(ctx.modulus)}, results, prov


def _run_extend(args):
    fld, ctx = _field_context(args)
    Q = _floats(_load_json(args.queries, "queries"), "queries", 2, "points")
    if Q.shape[1] != fld.n:
        raise InputError(f"queries have dimension {Q.shape[1]}, field has n={fld.n}")
    prov = {"n_queries": int(Q.shape[0])}
    if args.method == "mcshane":
        op = mcshane_extension(fld, ctx.modulus, variant=args.variant)
        results, sites = {"values": op(Q).tolist()}, Q
        prov.update(trace_seminorm=op.lam, sup_bound=op.sup_bound, variant=args.variant)
    else:
        op = hermite_extension(fld)
        J = op.jets(Q[:, 0])
        results, sites = {"values": J[:, 0].tolist(), "jets": J.tolist()}, Q[:, 0]
    if args.audit:
        results["depth_audits"] = [
            {"linear": rec.linear, "marker": rec.marker, "active_points": rec.active_points,
             "entries": [[i, a, w] for i, a, w in rec.entries]}
            if rec.linear
            else {"linear": False, "marker": rec.marker}
            for rec in (depth_audit(op, q) for q in sites)
        ]
    return {"method": args.method, "omega": modulus_to_json(ctx.modulus)}, results, prov


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


def _run_jackson(args):
    if args.grid_points < 2:
        raise InputError(f"grid-points must be an integer >= 2, got {args.grid_points}")
    m = _load_modulus(args.omega)
    ctx = NormContext(args.k, 1, m)
    if args.f.startswith("builtin:"):
        derivs = _builtin_derivs(args.f.split(":", 1)[1], args.k)
    elif args.f.startswith("table:"):
        if args.k > 0:
            raise InputError("table functions support k=0 only")
        tab = _load_json(args.f.split(":", 1)[1], "function table")
        if not isinstance(tab, dict) or not {"x", "f"} <= tab.keys():
            raise InputError("function table must be an object with lists 'x' and 'f'")
        xs, fs = (_floats(tab[key], f"function table {key}", 1) for key in ("x", "f"))
        if xs.size != fs.size or xs.size == 0 or not np.all(np.diff(xs) > 0.0):
            raise InputError("function table x must be a nonempty strictly increasing list, with one f per x")
        derivs = lambda alpha, X: np.interp(X[:, 0], xs, fs)
    else:
        raise InputError("--f must be builtin:<name> or table:<file>")
    # span the cutoff transition region so the periodization ratio is informative
    grid = np.linspace(-2 * args.ell, 2 * args.ell, args.grid_points).reshape(-1, 1)
    rep = error_report(derivs, args.ell, args.N, ctx, grid)
    prov = {
        "grid": {"lo": -2 * args.ell, "hi": 2 * args.ell, "points": args.grid_points},
        "quadrature": "spectral: FFT of samples on a uniform lattice of at least 4N+1 "
                      "nodes per axis, times the Jackson kernel's Fourier multipliers",
    }
    config = {"f": args.f, "N": args.N, "ell": args.ell, "k": args.k, "omega": modulus_to_json(m)}
    return config, rep.to_dict(), prov


def _parse_atoms(entries) -> tuple[list, list]:
    """Atoms and coefficients of the atoms JSON, a list of entry objects."""
    if not isinstance(entries, list) or not entries:
        raise InputError("atoms must be a non-empty list of atom objects")
    atoms, coeffs = [], []
    for i, e in enumerate(entries):
        kind = e.get("type", "delta") if isinstance(e, dict) else None
        if kind not in ("delta", "diff"):
            raise InputError(f"atom entry {i} {e!r} must be an object of type 'delta' or 'diff'")
        try:
            ends = (e["x"], e["y"]) if kind == "diff" else (e["x"],)
            atoms.append((difference if kind == "diff" else delta)(*ends, e.get("alpha")))
            coeffs.append(float(e.get("coef", 1.0)))
        except InputError as exc:
            raise InputError(f"atom entry {i} {e!r}: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"atom entry {i} {e!r} needs numeric point{'s x, y' if kind == 'diff' else ' x'}, "
                             f"an integer alpha list and a numeric coef ({exc!r})") from exc
    return atoms, coeffs


def _lp_provenance(formulation: str, sol) -> dict:
    return {
        "formulation": formulation,
        "rows": sol.dual_eq.size,
        "vars": sol.x.size,
        "iterations": sol.iterations,
        "duality_gap": sol.duality_gap,
    }


def _run_predual_norm(args):
    m = _load_modulus(args.omega)
    atoms, coeffs = _parse_atoms(_load_json(args.atoms, "atoms"))
    n = len(atoms[0].x) if args.n is None else args.n
    ctx = NormContext(args.k, n, m)
    g = AtomicFunctional(tuple(atoms), tuple(coeffs), ctx)
    prov = {"n_atoms": len(g.atoms), "support_size": len(g.support())}
    if args.k == 0:
        sol = _k0_norm_lp(g)[-1]
        results = {"norm": sol.optimum, "exact": True}
        prov["lp"] = _lp_provenance("transportation", sol)
    else:
        lo, hi, transports = _bracket_solutions(g)
        results = {"norm_bracket": [lo.optimum, hi], "exact": False}
        prov["lp_lo"] = _lp_provenance("bracket-lo", lo)
        prov["lp_hi"] = [_lp_provenance("transportation", sol) for sol in transports]
    return {"k": args.k, "n": n, "omega": modulus_to_json(m)}, results, prov


def _run_finiteness(args):
    fld, ctx = _field_context(args)
    rep = finiteness_gap(fld, args.d, ctx)
    prov = {"n_points": len(fld), "k": fld.k, "n": fld.n}
    return {"d": args.d, "omega": modulus_to_json(ctx.modulus)}, rep.to_dict(), prov


def _run_markov(args):
    center = _floats(_load_json(args.center, "center"), "center", 1, "x").tolist()
    n = len(center)
    if args.set_spec.startswith("builtin:"):
        sampler = builtin_set_sampler(args.set_spec.split(":", 1)[1], n, args.resolution)
        set_desc = args.set_spec
    else:
        P = _floats(_load_json(args.set_spec, "set"), "set", 2, "points")
        if P.shape[1] != n:
            raise InputError("set points dimension mismatch")

        def sampler(c, r):
            mask = np.max(np.abs(P - np.asarray(c)[None, :]), axis=1) <= r
            return P[mask]

        set_desc = "explicit"
    radii = ([2.0**-j for j in range(0, 11)] if args.radii == "default"
             else _floats(_load_json(args.radii, "radii"), "radii", 1).tolist())
    verdict = classify_weak_markov(center, sampler, args.k, radii, args.threshold,
                                   resolution=args.resolution)
    prov = {"resolution": args.resolution, "cap": DEFAULT_CAP,
            "one_sided": "NOT_DETECTED never disproves the property",
            "lps": [None if d is None else d.lps for d in verdict.details],
            "pruned": [None if d is None else d.pruned for d in verdict.details],
            "pivots": sum(d.pivots for d in verdict.details if d is not None)}
    config = {"center": center, "set": set_desc, "k": args.k, "threshold": args.threshold}
    return config, verdict.to_dict(), prov


@functools.cache
def _parser() -> _Parser:
    p = _Parser(prog="ckomega", description=__doc__)
    p.add_argument("--seed", type=int, default=0, help="seed recorded in reports")
    sub = p.add_subparsers(dest="subcommand")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-")
    omega = argparse.ArgumentParser(add_help=False)
    omega.add_argument("--omega", default=None)

    def command(name, run, help, parents=(out, omega)):
        q = sub.add_parser(name, help=help, parents=parents)
        q.set_defaults(run=run)
        return q

    q = command("validate-omega", _run_validate_omega, "check modulus axioms on a grid", (out,))
    q.add_argument("--omega", required=True)
    q.add_argument("--grid", default="default")

    q = command("norm", _run_norm, "pairwise field seminorm (Whitney lambda)")
    q.add_argument("--field", required=True)

    q = command("extend", _run_extend, "evaluate an extension operator on queries")
    q.add_argument("--input", dest="field", metavar="INPUT", required=True)
    q.add_argument("--queries", required=True)
    q.add_argument("--method", choices=("mcshane", "hermite1d"), required=True)
    q.add_argument("--variant", choices=("min", "max", "average"), default="min")
    q.add_argument("--audit", action="store_true", help="include depth audits per query")

    q = command("jackson", _run_jackson, "periodization/smoothing error report", (omega,))
    q.add_argument("--f", required=True, help="builtin:<sin|cos|abs_sin|bump> or table:<file>")
    q.add_argument("--N", type=int, required=True)
    q.add_argument("--ell", type=int, required=True)
    q.add_argument("--k", type=int, default=0)
    q.add_argument("--grid-points", type=int, default=65)
    q.add_argument("--out", "--report", dest="out", default="-")

    q = command("predual-norm", _run_predual_norm, "atomic functional norm (exact k=0, bracket else)")
    q.add_argument("--atoms", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, default=None)

    q = command("finiteness", _run_finiteness,
                "closed-form finiteness gap: lambda against its sup over subsets of size <= d")
    q.add_argument("--field", required=True)
    q.add_argument("--d", type=int, required=True)

    q = command("markov", _run_markov, "weak Markov ratio ladder", (out,))
    q.add_argument("--center", required=True)
    q.add_argument("--set", dest="set_spec", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--radii", default="default")
    q.add_argument("--threshold", type=float, default=1e3)
    q.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    return p


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if not args.subcommand:
            raise InputError(parser.format_usage())
        config, results, provenance = args.run(args)
        report = {"subcommand": args.subcommand, "config": config, "results": results,
                  "provenance": {**provenance, "seed": args.seed}, "version": __version__}
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
