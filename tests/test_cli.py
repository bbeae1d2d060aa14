import json

import numpy as np
import pytest

from ckomega.cli import main
from ckomega.markov import cube_grid, markov_ratio, probe


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


FIELD_2PT = json.dumps(
    {
        "k": 0,
        "n": 1,
        "points": [[0.0], [1.0]],
        "jets": [[{"alpha": [0], "value": 0.0}], [{"alpha": [0], "value": 1.0}]],
    }
)


def test_validate_omega_power_clean(capsys):
    code, out, _ = run_cli(capsys, "validate-omega", "--omega",
                           '{"kind":"power","exponent":0.5}', "--grid", "default")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["ok"] is True
    assert rep["results"]["violations"] == []
    assert rep["version"]


def test_validate_omega_table_violation(capsys):
    code, out, _ = run_cli(capsys, "validate-omega", "--omega",
                           '{"kind":"table","breakpoints":[[0.1,0.01],[1.0,1.0]]}',
                           "--grid", "[0.1, 1.0]")
    assert code == 0
    rep = json.loads(out)
    assert not rep["results"]["ok"]


def test_validate_omega_steep_moduli_clean(capsys):
    # both vanish at 0+ although omega is still large at the smallest grid point
    for spec in ('{"kind":"power","exponent":0.05}',
                 '{"kind":"table","breakpoints":[[1e-20,1.0]]}'):
        code, out, _ = run_cli(capsys, "validate-omega", "--omega", spec, "--grid", "default")
        assert code == 0
        assert json.loads(out)["results"]["violations"] == []


@pytest.mark.parametrize("module, argv", [
    ("predual", ["predual-norm", "--k", "0", "--atoms", '[{"x":[0.0],"coef":1.0},{"x":[1.0],"coef":-1.0}]']),
    ("predual", ["predual-norm", "--k", "1", "--atoms",
                 '[{"type":"diff","x":[0.0],"y":[1.0],"alpha":[1],"coef":1.0}]']),
    ("markov", ["markov", "--center", "[0.0]", "--set", "builtin:cube", "--k", "1",
                "--radii", "[1.0]", "--resolution", "5"]),
])
def test_unexpected_lp_status_exits_2(capsys, monkeypatch, module, argv):
    import importlib

    from ckomega.simplex import UNBOUNDED, LPSolution

    mod = importlib.import_module(f"ckomega.{module}")
    monkeypatch.setattr(mod, "solve", lambda lp: LPSolution(UNBOUNDED, None, None, None, 0))
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "unexpectedly UNBOUNDED" in err


def test_finiteness_two_point_ratio_one(capsys, tmp_path):
    p = tmp_path / "twopoint.json"
    p.write_text(FIELD_2PT)
    code, out, _ = run_cli(capsys, "finiteness", "--field", str(p), "--d", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["ratio"] == 1.0


def test_norm_duplicate_points_exit_1_names_point(capsys):
    bad = json.dumps(
        {
            "k": 0,
            "n": 1,
            "points": [[0.5], [0.5]],
            "jets": [[{"alpha": [0], "value": 0.0}], [{"alpha": [0], "value": 1.0}]],
        }
    )
    code, _, err = run_cli(capsys, "norm", "--field", bad)
    assert code == 1
    assert "0.5" in err


def test_unknown_subcommand_exit_1_with_usage(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 1
    assert "usage" in err.lower()


def test_malformed_json_reports_line_and_column(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"k": 0, "n": 1,\n  "points": [[0.0],]\n}')
    code, _, err = run_cli(capsys, "norm", "--field", str(p))
    assert code == 1
    assert "line 2" in err and "column" in err


def test_extend_mcshane_report(capsys, tmp_path):
    q = tmp_path / "queries.json"
    q.write_text("[[0.5],[5.0]]")
    code, out, _ = run_cli(capsys, "extend", "--input", FIELD_2PT, "--queries", str(q),
                           "--method", "mcshane")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["values"] == [0.5, 1.0]
    assert rep["provenance"]["trace_seminorm"] == 1.0


def test_extend_hermite_with_audit(capsys, tmp_path):
    q = tmp_path / "queries.json"
    q.write_text("[[0.25]]")
    code, out, _ = run_cli(capsys, "extend", "--input", FIELD_2PT, "--queries", str(q),
                           "--method", "hermite1d", "--audit")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["values"] == [0.25]
    audit = rep["results"]["depth_audits"][0]
    assert audit["linear"] and audit["active_points"] == 2


def test_predual_norm_exact_and_bracket(capsys):
    code, out, _ = run_cli(capsys, "predual-norm", "--atoms",
                           '[{"type":"delta","x":[0.0],"alpha":[0],"coef":1.0},'
                           '{"type":"delta","x":[2.0],"alpha":[0],"coef":-1.0}]',
                           "--k", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["exact"] is True
    assert rep["results"]["norm"] == pytest.approx(2.0, abs=1e-9)

    code, out, _ = run_cli(capsys, "predual-norm", "--atoms",
                           '[{"type":"diff","x":[0.0],"y":[1.0],"alpha":[1],"coef":1.0}]',
                           "--k", "1")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["exact"] is False
    lo, hi = rep["results"]["norm_bracket"]
    assert lo <= hi + 1e-9


def test_predual_norm_k0_reports_its_lp(capsys):
    code, out, _ = run_cli(capsys, "predual-norm", "--k", "0", "--atoms",
                           '[{"x":[0.0,0.0],"coef":1.0},{"x":[0.5,0.0],"coef":-2.0},'
                           '{"x":[0.0,3.0],"coef":0.5}]')
    assert code == 0
    lp = json.loads(out)["provenance"]["lp"]
    assert set(lp) == {"formulation", "rows", "vars", "iterations", "duality_gap"}
    assert lp["formulation"] == "transshipment"
    assert (lp["rows"], lp["vars"]) == (3, 12)  # m rows, m(m+1) variables
    assert lp["iterations"] > 0
    assert 0.0 <= lp["duality_gap"] <= 1e-9


@pytest.mark.parametrize("points, jets, names", [
    ([[0.0]], [[1.0]], "jet entry 1.0"),  # entry is not an object
    ([[0.0]], [[{"alpha": [0]}]], "jet entry {'alpha': [0]}"),  # no value
    ([[0.0]], [[{"alpha": [0], "value": "abc"}]], "'value': 'abc'"),  # non-numeric value
    ([0.0], [[{"alpha": [0], "value": 1.0}]], "point 0"),  # point is not a list
    ([[0.0]], [5], "point 0"),  # per-point jets entry is not a list
])
def test_norm_malformed_field_json_exit_1(capsys, points, jets, names):
    bad = json.dumps({"k": 0, "n": 1, "points": points, "jets": jets})
    code, _, err = run_cli(capsys, "norm", "--field", bad)
    assert code == 1
    assert err.startswith("input error: field JSON") and names in err


@pytest.mark.parametrize("queries", ["[[NaN]]", "[[0.5], [Infinity]]"])
def test_extend_hermite_non_finite_query_exit_1(capsys, queries):
    code, _, err = run_cli(capsys, "extend", "--input", FIELD_2PT, "--queries", queries,
                           "--method", "hermite1d", "--audit")
    assert code == 1
    assert "input error" in err and "queries must be finite" in err


def test_predual_norm_nan_weight_exit_1(capsys):
    code, _, err = run_cli(capsys, "predual-norm", "--k", "0", "--atoms",
                           '[{"x":[0.0],"coef":1.0},{"x":[1.0],"coef":NaN}]')
    assert code == 1
    assert "input error" in err and "not finite" in err


def test_predual_norm_k0_rejects_modulus_breaking_axioms(capsys):
    code, _, err = run_cli(capsys, "predual-norm", "--k", "0", "--atoms",
                           '[{"x":[0.0,0.0],"coef":1.0},{"x":[0.7,0.0],"coef":-2.0},'
                           '{"x":[0.0,1.5],"coef":0.5}]',
                           "--omega", '{"kind":"table","breakpoints":[[0.5,0.3],[1.0,1.2],[3.0,2.5]]}')
    assert code == 1
    assert "t/omega(t) nondecreasing" in err


def test_predual_norm_bracket_reports_its_lps(capsys):
    code, out, _ = run_cli(capsys, "predual-norm", "--k", "1", "--atoms",
                           '[{"type":"diff","x":[0.0],"y":[1.0],"alpha":[1],"coef":1.0}]')
    assert code == 0
    rep = json.loads(out)
    lo, hi = rep["provenance"]["lp_lo"], rep["provenance"]["lp_hi"]
    for lp, formulation in ((lo, "bracket-lo"), (hi, "bracket-hi")):
        assert set(lp) == {"formulation", "rows", "vars", "iterations", "duality_gap"}
        assert lp["formulation"] == formulation
        assert lp["iterations"] > 0
        assert 0.0 <= lp["duality_gap"] <= 1e-9
    # m=2 points, J=2 slots each, one pair: lo, in its dual, has mJ rows on
    # one variable per primal row (2mJ box rows and 4J pair rows); hi has mJ
    # rows on mJ + 1 atoms split in two
    assert (lo["rows"], lo["vars"]) == (4, 16)
    assert (hi["rows"], hi["vars"]) == (4, 10)


def test_markov_builtin_verdict(capsys):
    code, out, _ = run_cli(capsys, "markov", "--center", "[0.0]", "--set", "builtin:cube",
                           "--k", "1", "--radii", "[1.0, 0.5]", "--resolution", "9")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["verdict"] == "WEAK_MARKOV"


def test_markov_builtin_sampler_uses_resolution(capsys):
    code, out, _ = run_cli(capsys, "markov", "--center", "[0.0]", "--set", "builtin:halfspace",
                           "--k", "4", "--radii", "[1.0]", "--resolution", "9")
    assert code == 0
    ratio = json.loads(out)["results"]["ratios"][0]
    # the halfspace sample at 9 and at the default 33 points per axis give
    # different ratios, so the CLI value shows which sample was used
    ratios = {}
    for res in (9, 33):
        grid = cube_grid([0.0], 1.0, res)
        ratios[res] = markov_ratio(probe([0.0], 1.0, 4, grid[grid[:, 0] >= 0.0], resolution=9)).value
    assert abs(ratios[9] - ratios[33]) > 1e-6
    assert ratio == pytest.approx(ratios[9], rel=1e-12)


def test_jackson_out_and_report_spellings_agree(capsys, tmp_path):
    argv = ["jackson", "--f", "builtin:cos", "--N", "8", "--ell", "2", "--grid-points", "9"]
    reports = []
    for flag in ("--out", "--report"):
        target = tmp_path / f"{flag[2:]}.json"
        code, out, _ = run_cli(capsys, *argv, flag, str(target))
        assert code == 0 and out == ""
        reports.append(target.read_text())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["subcommand"] == "jackson"


def test_jackson_report_fields(capsys):
    code, out, _ = run_cli(capsys, "--seed", "3", "jackson", "--f", "builtin:sin",
                           "--N", "8", "--ell", "2", "--k", "0", "--grid-points", "17")
    assert code == 0
    rep = json.loads(out)
    assert "empirical_c_N" in rep["results"]
    assert rep["provenance"]["seed"] == 3


def test_csv_ingestion_k0(capsys, tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("x,f\n0.0,0.0\n1.0,1.0\n")
    code, out, _ = run_cli(capsys, "norm", "--field", str(p))
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["lambda"] == 1.0


def test_reports_are_deterministic(capsys, tmp_path):
    argv = ["finiteness", "--field", FIELD_2PT, "--d", "2"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_roundtrip_schema(capsys):
    code, out, _ = run_cli(capsys, "norm", "--field", FIELD_2PT)
    assert code == 0
    rep = json.loads(out)
    for key in ("subcommand", "config", "results", "provenance", "version"):
        assert key in rep
    assert json.loads(json.dumps(rep)) == rep


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "norm", "--field", FIELD_2PT, "--out", str(target))
    assert code == 0
    assert out == ""
    rep = json.loads(target.read_text())
    assert rep["subcommand"] == "norm"
