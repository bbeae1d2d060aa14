"""End-to-end and per-layer metrics from session records and spans."""

from __future__ import annotations

import statistics

import numpy as np

from .tracer import Span, has_ancestor, self_times

MEMORY_SPANS = frozenset({"whitney.lambda", "jackson.smooth_EN", "jackson.finite_rank",
                          "jackson.error_report", "jackson.smooth_1d"})
# jackson spans whose callables are counted per output point
CONVOLUTION_SPANS = ("jackson.smooth_EN", "jackson.finite_rank", "jackson.smooth_1d")
CLI_SPANS = ("cli.norm", "cli.extend", "cli.predual_norm", "cli.finiteness", "cli.jackson", "cli.markov")


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(session_seconds, task_seconds, setup_seconds, peak_rss_mb) -> dict:
    return {
        "session_s": (statistics.median(session_seconds), "s"),
        "task_ms.p50": (1000 * percentile(task_seconds, 50), "ms"),
        "task_ms.p90": (1000 * percentile(task_seconds, 90), "ms"),
        "setup_s": (statistics.median(setup_seconds), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def session_layers(spans: list[Span], outputs: dict) -> dict:
    """Per-layer values of one traced session. ``spans`` are the session's
    spans, ids local to the list; ``outputs`` maps task kind to the list of
    that kind's outputs in the session."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)

    def ms(name):
        return 1000 * sum(sp.duration for sp in by_name.get(name, ()))

    def self_ms(name):
        return 1000 * sum(selfs[sp.id] for sp in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(sp.attrs.get(key, 0) for sp in by_name.get(name, ()))

    solves = by_name.get("simplex.solve", [])
    pivots = sum(sp.attrs["pivots"] for sp in solves)
    markov_lps = sum(1 for sp in solves if has_ancestor(spans, sp, "markov.ratio"))
    conv_points = sum(attr_sum(name, "points") for name in CONVOLUTION_SPANS)
    conv_evals = sum(out[1] for name in CONVOLUTION_SPANS for out in outputs.get(name, ()))
    f_evals = conv_evals + sum(out[1] for out in outputs.get("jackson.error_report", ()))
    cli_bytes = sum(len(out[1]) for kind, outs in outputs.items() if kind.startswith("cli.") for out in outs)

    out = {
        "fields.build_ms": (ms("fields.build"), "ms"),
        "fields.build_calls": (count("fields.build"), "count"),
        "whitney.lambda_calls": (count("whitney.lambda"), "count"),
        "whitney.lambda_ms": (ms("whitney.lambda"), "ms"),
        "whitney.pairs": (attr_sum("whitney.lambda", "pairs"), "count"),
        "whitney.pairs_per_s": (_ratio(attr_sum("whitney.lambda", "pairs"), ms("whitney.lambda") / 1000), "1/s"),
        "whitney.norm_estimate_ms": (ms("whitney.norm_estimate"), "ms"),
        "extension.mcshane_build_ms": (ms("extension.mcshane_build"), "ms"),
        "extension.mcshane_queries_per_s": (
            _ratio(attr_sum("extension.mcshane_query", "queries"), ms("extension.mcshane_query") / 1000), "1/s"),
        "extension.hermite_jets_per_s": (
            _ratio(attr_sum("extension.hermite_jets", "jets"), ms("extension.hermite_jets") / 1000), "1/s"),
        "extension.audit_ms": (ms("extension.audit"), "ms"),
        "extension.audit_calls": (attr_sum("extension.audit", "calls"), "count"),
        "predual.k0_ms": (ms("predual.k0"), "ms"),
        "predual.bracket_ms": (ms("predual.bracket"), "ms"),
        "predual.finiteness_ms": (ms("predual.finiteness"), "ms"),
        "predual.finiteness_self_ms": (self_ms("predual.finiteness"), "ms"),
        "predual.finiteness_subsets": (
            sum(rep.n_subsets for rep in outputs.get("predual.finiteness", ())), "count"),
        "simplex.solves": (len(solves), "count"),
        "simplex.solve_ms": (ms("simplex.solve"), "ms"),
        "simplex.pivots": (pivots, "count"),
        "simplex.pivots_per_solve": (_ratio(pivots, len(solves)), "count"),
        "simplex.us_per_pivot": (_ratio(1000 * ms("simplex.solve"), pivots), "us"),
        "simplex.rows_max": (max((sp.attrs["rows"] for sp in solves), default=0), "count"),
        "simplex.tableau_mb_max": (max((sp.attrs["tableau_mb"] for sp in solves), default=0.0), "MB"),
        "markov.ratio_ms": (ms("markov.ratio"), "ms"),
        "markov.self_ms": (self_ms("markov.ratio"), "ms"),
        "markov.lps_per_ratio": (_ratio(markov_lps, count("markov.ratio")), "count"),
        "jackson.smooth_EN_ms": (ms("jackson.smooth_EN"), "ms"),
        "jackson.finite_rank_ms": (ms("jackson.finite_rank"), "ms"),
        "jackson.error_report_ms": (ms("jackson.error_report"), "ms"),
        "jackson.smooth_1d_ms": (ms("jackson.smooth_1d"), "ms"),
        "jackson.f_evals": (f_evals, "count"),
        "jackson.f_evals_per_point": (_ratio(conv_evals, conv_points), "count"),
        "cli.report_bytes": (cli_bytes, "bytes"),
    }
    for name in CLI_SPANS:
        out[name + "_ms"] = (ms(name), "ms")
    return out


def memory_peaks(spans: list[Span]) -> dict:
    def peak(names):
        return max((sp.attrs.get("peak_mb", 0.0) for sp in spans if sp.name in names), default=0.0)

    return {
        "whitney.lambda_peak_mb": (peak({"whitney.lambda"}), "MB"),
        "jackson.peak_mb": (peak(MEMORY_SPANS - {"whitney.lambda"}), "MB"),
    }


def median_layers(per_session: list[dict]) -> dict:
    """Median over sessions of each per-layer value."""
    return {name: (statistics.median(s[name][0] for s in per_session), unit)
            for name, (_, unit) in per_session[0].items()}
