"""Tests of the benchmark's own code: input generation, oracles, span
self times and the compare rule."""

import dataclasses
import json

import pytest

from perfbench import compare, workloads
from perfbench.tracer import NULL_TRACER, Span, has_ancestor, self_times


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for minimal in (False, True):
        a = [workloads.fingerprint(t) for t in workloads.build(workload, 7, minimal)]
        b = [workloads.fingerprint(t) for t in workloads.build(workload, 7, minimal)]
        assert a == b
    c = [workloads.fingerprint(t) for t in workloads.build(workload, 8)]
    assert c != a


def _edit_cli(path, fn):
    def corrupt(out):
        code, text, err = out
        report = json.loads(text)
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
        return code, json.dumps(report), err
    return corrupt


def _scaled(field_name, factor=1.01):
    return lambda out: dataclasses.replace(out, **{field_name: getattr(out, field_name) * factor})


PLANTS = {
    "whitney.k0_lambda": _scaled("lam"),
    "whitney.jet_lambda": _scaled("lam"),
    "whitney.norm_estimate": _scaled("sup_part"),
    "extension.mcshane_build": lambda out: (out[0] * 1.01, out[1]),
    "extension.mcshane_query": lambda out: out + 0.5,
    "extension.hermite_build": lambda out: out + 1,
    "extension.hermite_jets": lambda out: out + 1e-3,
    "extension.audit": lambda recs: [dataclasses.replace(r, entries=tuple((i, a, 1.01 * w) for i, a, w in r.entries))
                                     for r in recs],
    "predual.k0": lambda v: v * 1.01,
    "predual.bracket": lambda out: (out[0] * 1.01, out[1]),
    "predual.finiteness": _scaled("full"),
    "jackson.smooth_EN": lambda out: (out[0] + 0.01, out[1]),
    "jackson.finite_rank": lambda out: (out[0] + 1e-3, out[1]),
    "jackson.error_report": lambda out: (dataclasses.replace(out[0], norm_EN=out[0].norm_EN * 1.01), out[1]),
    "jackson.smooth_1d": lambda out: (out[0] + 1e-6, out[1]),
    "markov.ratio": _scaled("value"),
    "cli.norm": _edit_cli(["results", "lambda"], lambda v: v * 1.01),
    "cli.extend_mcshane": _edit_cli(["results", "values"], lambda v: [x + 0.5 for x in v]),
    "cli.extend_hermite": _edit_cli(["results", "jets"], lambda v: [[x + 1e-3 for x in j] for j in v]),
    "cli.predual_norm": lambda out: _edit_cli(["results", "norm"], lambda v: v * 1.01)(out)
    if '"norm"' in out[1] else _edit_cli(["results", "norm_bracket"], lambda v: [v[0], v[1] * 1.01])(out),
    "cli.finiteness": _edit_cli(["results", "full"], lambda v: v * 1.01),
    "cli.jackson": _edit_cli(["results", "sampled_norm_EN_f_ell"], lambda v: v * 1.01),
    "cli.markov": _edit_cli(["results", "ratios"], lambda v: [x * 1.01 for x in v]),
}


def _small_tasks():
    b = workloads.Builder("small", 3, minimal=False)
    b.k0_group("f", 12, 2, "table", queries=30)
    b.jet_lambda(10, 2, 2)
    b.hermite_group("h", 6, 2, jet_batches=1, batch=8, audit_batches=1, audit_batch=3)
    b.norm_estimate(10, 10)
    b.cli_norm(8, 2, 1)
    b.cli_extend_mcshane(8, 2, 20)
    b.cli_extend_hermite(5, 2, 6)
    b.predual_k0(6)
    b.predual_bracket(3)
    b.finiteness(6, k=1)
    b.cli_predual(6, 2, 0)
    b.cli_predual(3, 1, 1)
    b.cli_finiteness(6)
    b.smooth_en(1, 16, 2, 3)
    b.smooth_en(2, 8, 2, 1)
    b.finite_rank(16, 2, 2, 2)
    b.error_report(8, 2, 9)
    b.smooth_1d(8, 16)
    b.markov(1, 3, 33)
    b.markov(2, 1, 9)
    b.cli_jackson(8, 2, 9)
    b.cli_markov(2, radii=1)
    return b.tasks


def test_every_oracle_passes_the_program_and_catches_a_planted_wrong_answer():
    kinds = {t.kind for w in workloads.WORKLOADS for t in workloads.build(w, 0)}
    tasks = _small_tasks()
    assert kinds == {t.kind for t in tasks} == set(PLANTS)
    state = {}
    for task in tasks:
        out = task.run(state, NULL_TRACER)
        assert task.check(out) is None, task.kind
        assert task.check(PLANTS[task.kind](out)) is not None, task.kind


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span(0, "root", "t", None, 0.0, 10.0),
        Span(1, "a", "t", 0, 1.0, 4.0),
        Span(2, "a.child", "t", 1, 2.0, 3.0),
        Span(3, "b", "t", 0, 3.0, 6.0),  # overlaps a: the union counts once
        Span(4, "c", "t", 0, 8.0, 12.0),  # clipped to the parent's end
    ]
    st = self_times(spans)
    assert st == pytest.approx({0: 10.0 - 5.0 - 2.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 4.0})
    assert has_ancestor(spans, spans[2], "root") and not has_ancestor(spans, spans[1], "b")


def test_compare_rule():
    parent = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1)["verdict"] == "gain"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1)["verdict"] == "regression"
    assert compare.verdict(parent, [v * 1.05 for v in parent], "lower", 0.1)["verdict"] == "same"
    noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
    assert compare.verdict(parent, noisy, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(parent[:5], parent[:5], "lower", 0.1)["verdict"] == "too few pairs"
