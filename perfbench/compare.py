"""Compare two sets of untraced results, parent against change.

    python3 perfbench/compare.py PARENT_RESULTS_DIR CHANGE_RESULTS_DIR

Each directory holds the records run.py writes to .bench_out/results/.
Runs of one workload are paired in start order (i-th parent with i-th
change); at least ten pairs are needed, and the sides should alternate in
which runs first, e.g.

    for i in 0 1 2 3 4 5 6 7 8 9; do
      if [ $((i % 2)) = 0 ]; then order="parent change"; else order="change parent"; fi
      for side in $order; do (cd $side && python3 perfbench/run.py --workload trace --seed $i \
          --seconds 10 --trace 0); done
    done

One row per end-to-end metric and workload, with the rule:
  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's IQR;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side's IQR/median is wider than the bound, unless every
              change run beats every parent run;
  same        otherwise.
Exits 1 when any row is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10


def load(directory) -> dict[str, list[dict]]:
    """Untraced records by workload, in start order."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            by_workload.setdefault(rec["workload"], []).append(rec)
    for recs in by_workload.values():
        recs.sort(key=lambda r: r["started"])
    return by_workload


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better: str, bound: float, parent_first=None) -> dict:
    """Apply the rule to one metric's paired values."""
    sign = 1.0 if better == "lower" else -1.0
    n = min(len(parent), len(change))
    parent, change = parent[:n], change[:n]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    if n < MIN_PAIRS:
        result = "too few pairs"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif wins >= 0.9 * n and sign * (pm - cm) > p3 - p1:
        result = "gain"
    elif worse_by > bound:
        result = "regression"
    else:
        result = "same"
    out = {"pairs": n, "parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
           "worse_by": worse_by, "spread": spread, "verdict": result}
    if parent_first is not None:
        out["alternating"] = all(a != b for a, b in zip(parent_first, parent_first[1:]))
    return out


def compare(parent_dir, change_dir, spec) -> list[tuple]:
    parent, change = load(parent_dir), load(change_dir)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        prs, chs = parent.get(workload, []), change.get(workload, [])
        n = min(len(prs), len(chs))
        first = [p["started"] < c["started"] for p, c in zip(prs[:n], chs[:n])]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in prs[:n]]
            cv = [r["metrics"][name]["value"] for r in chs[:n]]
            if n < 2:
                rows.append((workload, name, {"pairs": n, "verdict": "too few pairs"}))
                continue
            rows.append((workload, name, verdict(pv, cv, metric["better"], metric["bound"], first)))
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    rows = compare(args[0], args[1], spec)
    print(f"{'workload':9s} {'metric':12s} {'parent median [q1, q3]':>34s} {'change median [q1, q3]':>34s} "
          f"{'wins':>6s} {'worse':>8s} verdict")
    for workload, name, r in rows:
        if "parent" not in r:
            print(f"{workload:9s} {name:12s} {'':>34s} {'':>34s} {'':>6s} {'':>8s} {r['verdict']} ({r['pairs']})")
            continue
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        note = "" if r.get("alternating", True) else " (pairs not alternating)"
        print(f"{workload:9s} {name:12s} {pm:12.6g} [{p1:9.4g}, {p3:9.4g}] {cm:12.6g} [{c1:9.4g}, {c3:9.4g}] "
              f"{r['wins']:3d}/{r['pairs']:<2d} {100 * r['worse_by']:+7.2f}% {r['verdict']}{note}")
    return 1 if any(r["verdict"] == "regression" for _, _, r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
