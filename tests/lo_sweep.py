"""Seeded sweep of the predual bracket's lo LPs, and a record of how each solves.

The generator is the one ``tests/test_predual.py`` runs at seed 1973 with 204
trials: per trial n = 1-2 and k = 1-3 in turn, one delta atom of random
order per point and one top-order difference atom, up to 32 x 1024. Run
as a script it solves every trial and writes one JSON line per trial
(trial, n, k, m, status, optimum, pivots, optimal basis; status "raised"
with the message when a certificate fails), then prints the status counts
and the total pivots. With ``--against`` it prints every trial whose line
differs from an earlier run's file, so a solver change reports each LP that
moves, with HiGHS's optimum (scipy) and the relative distance of the old
and the new optimum from it. It asserts nothing and pytest does not collect
it.

    PYTHONPATH=src python tests/lo_sweep.py --seed 11 --trials 3000 --out new.jsonl [--against old.jsonl]
"""

from __future__ import annotations

import argparse
import collections
import json

import numpy as np

from ckomega import modulus as mo
from ckomega.errors import NumericalError
from ckomega.fields import NormContext, mi_order, multi_indices
from ckomega.predual import _lo_lp, delta, difference, functional
from ckomega.simplex import solve

M_MAX = {(1, 1): 16, (1, 2): 10, (1, 3): 8, (2, 1): 10, (2, 2): 5, (2, 3): 3}  # <= 32 rows


def lo_sweep(seed: int, trials: int):
    """(trial, n, k, m, lo LP) of the seeded lo LPs."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n, k = 1 + trial % 2, 1 + (trial // 2) % 3
        ctx = NormContext(k, n, (mo.power(0.5), mo.linear())[(trial // 6) % 2])
        m = int(rng.integers(2, M_MAX[n, k] + 1))
        pts = rng.uniform(-1, 1, (m, n))
        mis = multi_indices(n, k)
        top = [a for a in mis if mi_order(a) == k]
        atoms = [delta(p, mis[rng.integers(len(mis))]) for p in pts]
        i, j = rng.choice(m, 2, replace=False)
        atoms.append(difference(pts[i], pts[j], top[rng.integers(len(top))]))
        yield trial, n, k, m, _lo_lp(functional(atoms, rng.normal(size=len(atoms)), ctx))


def record(trial, n, k, m, lp) -> dict:
    rec = {"trial": trial, "n": n, "k": k, "m": m}
    try:
        s = solve(lp)
    except NumericalError as exc:
        return {**rec, "status": "raised", "error": str(exc)}
    return {**rec, "status": s.status, "optimum": s.optimum, "pivots": s.iterations,
            "basis": None if s.basis is None else s.basis.tolist()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1973)
    parser.add_argument("--trials", type=int, default=204)
    parser.add_argument("--out", required=True, help="JSON lines, one per trial")
    parser.add_argument("--against", help="an earlier --out file to compare with")
    args = parser.parse_args()
    old = []
    if args.against:
        with open(args.against) as fh:
            old = [json.loads(line) for line in fh]
    records, moves = [], []
    for trial, n, k, m, lp in lo_sweep(args.seed, args.trials):
        records.append(record(trial, n, k, m, lp))
        if trial < len(old) and old[trial] != records[-1]:
            moves.append(move(old[trial], records[-1], lp))
    with open(args.out, "w") as fh:
        fh.writelines(json.dumps(r) + "\n" for r in records)
    print(dict(collections.Counter(r["status"] for r in records)),
          "pivots", sum(r.get("pivots", 0) for r in records))
    for line in moves:
        print(line)


def move(was, now, lp) -> str:
    """One line on a trial whose record moved: the fields that differ, and
    HiGHS's optimum with the old and the new optimum's relative distance."""
    from scipy.optimize import linprog

    moved = sorted(key for key in was.keys() | now.keys() if was.get(key) != now.get(key))
    line = (f"trial {now['trial']} (n={now['n']}, k={now['k']}, m={now['m']}) moves {moved}: "
            + ", ".join(f"{key} {was.get(key)} -> {now.get(key)}" for key in moved if key != "basis"))
    ref = linprog(lp.objective, A_eq=lp.lhs_eq, b_eq=lp.rhs_eq, bounds=(0, None), method="highs")
    if ref.status != 0:
        return f"{line}; HiGHS: {ref.message}"

    def distance(rec):
        opt = rec.get("optimum")
        return "-" if opt is None else f"{abs(opt - ref.fun) / max(abs(ref.fun), 1e-300):.1e}"

    return f"{line}; HiGHS {ref.fun!r}, relative distance {distance(was)} -> {distance(now)}"


if __name__ == "__main__":
    main()
