import argparse
import hashlib
import json

import numpy as np
import pytest

from ckomega import cli
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


def test_norm_overflowing_distance_exit_2(capsys):
    field = json.dumps({"k": 0, "n": 1, "points": [[-1e200], [1e200]],
                        "jets": [[{"alpha": [0], "value": 0.0}], [{"alpha": [0], "value": 1.0}]]})
    code, out, err = run_cli(capsys, "norm", "--field", field)
    assert (code, out) == (2, "")
    assert err.startswith("numerical error: ") and "indices 0 and 1 overflows" in err


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
    assert lp["formulation"] == "transportation"
    assert (lp["rows"], lp["vars"]) == (3, 5)  # m rows, m + |P||N| variables (P = 2, N = 1)
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


@pytest.mark.parametrize("field, names", [
    ({"k": 0.9, "n": 1, "points": [[0.0]], "jets": [[]]}, "field JSON: k must be an integer >= 0, got 0.9"),
    ({"k": 0, "n": 1.0, "points": [[0.0]], "jets": [[]]}, "field JSON: n must be an integer >= 1, got 1.0"),
    # at k = 1 the stray (0.9,) entry would overwrite the point's (0,) value
    ({"k": 1, "n": 1, "points": [[0.0], [1.0]],
      "jets": [[{"alpha": [0], "value": 0.0}, {"alpha": [0.9], "value": 5.0}],
               [{"alpha": [0], "value": 1.0}]]}, "jet entry {'alpha': [0.9], 'value': 5.0} of point 0"),
])
def test_norm_field_json_non_integer_order_or_index_exit_1(capsys, field, names):
    code, _, err = run_cli(capsys, "norm", "--field", json.dumps(field))
    assert code == 1
    assert err.startswith("input error: ") and names in err


@pytest.mark.parametrize("atom", ['{"x":[0.0],"alpha":[0.7]}',
                                  '{"type":"diff","x":[0.0],"y":[1.0],"alpha":[1.5]}'])
def test_predual_norm_non_integer_alpha_exit_1(capsys, atom):
    code, _, err = run_cli(capsys, "predual-norm", "--k", "1", "--atoms", f"[{atom}]")
    assert code == 1
    assert err.startswith("input error: atom entry 0") and "integer alpha list" in err


@pytest.mark.parametrize("points, jets", [
    ([[0.5]], [[{"alpha": [0, 0], "value": 1.0}]]),  # 1 coordinate for n = 2, with an entry
    ([[0.5]], [[]]),  # the same point with no entries
    ([[0.5, 0.7, 0.9]], [[]]),  # 3 coordinates for n = 2
])
def test_norm_field_json_point_of_wrong_length_exit_1(capsys, points, jets):
    bad = json.dumps({"k": 0, "n": 2, "points": points, "jets": jets})
    code, _, err = run_cli(capsys, "norm", "--field", bad)
    assert code == 1
    assert err.startswith("input error: field JSON: point 0 coordinates") and "not 2 numbers" in err


@pytest.mark.parametrize("queries", ["[[NaN]]", "[[0.5], [Infinity]]"])
def test_extend_hermite_non_finite_query_exit_1(capsys, queries):
    code, _, err = run_cli(capsys, "extend", "--input", FIELD_2PT, "--queries", queries,
                           "--method", "hermite1d", "--audit")
    assert code == 1
    assert "input error" in err and "queries must be finite" in err


def test_extend_hermite_jet_in_an_overflowing_gap_exit_2(capsys):
    field = json.dumps({"k": 3, "n": 1, "points": [[0.0], [1e-110], [1.0]],
                        "jets": [[{"alpha": [a], "value": float(4 * i + a + 1)} for a in range(4)]
                                 for i in range(3)]})
    code, out, err = run_cli(capsys, "extend", "--input", field, "--queries", "[[0.5], [5e-111]]",
                             "--method", "hermite1d")
    assert code == 2 and out == ""
    assert err.startswith("numerical error: ") and "gap [0.0, 1e-110]" in err
    code, _, _ = run_cli(capsys, "extend", "--input", field, "--queries", "[[0.5], [1e-110]]",
                         "--method", "hermite1d")
    assert code == 0


def test_extend_mcshane_query_whose_distance_overflows_exit_2(capsys):
    code, out, err = run_cli(capsys, "extend", "--input", FIELD_2PT, "--queries", "[[0.5], [1e200]]",
                             "--method", "mcshane")
    assert code == 2 and out == ""
    assert err.startswith("numerical error: ") and "query [1e+200] to the data point [0.0]" in err


@pytest.mark.parametrize("method", ["mcshane", "hermite1d"])
@pytest.mark.parametrize("queries, names", [
    ('[["a"]]', "queries must be a list of numeric points"),
    ("[[0.5], [1.0, 2.0]]", "queries must be a list of numeric points"),
    ("[[[0.5]]]", "queries must be a list of points"),
    ('{"x": [0.5]}', "queries object has no 'points' list"),
    ("[[NaN]]", "queries must be finite"),
])
def test_extend_malformed_queries_exit_1(capsys, method, queries, names):
    code, _, err = run_cli(capsys, "extend", "--input", FIELD_2PT, "--queries", queries,
                           "--method", method)
    assert code == 1
    assert err.startswith("input error: ") and names in err


def test_predual_norm_nan_weight_exit_1(capsys):
    code, _, err = run_cli(capsys, "predual-norm", "--k", "0", "--atoms",
                           '[{"x":[0.0],"coef":1.0},{"x":[1.0],"coef":NaN}]')
    assert code == 1
    assert "input error" in err and "not finite" in err


def test_predual_norm_k0_difference_atom_is_exact(capsys):
    # (delta_0 - delta_1)/omega(1) - delta_0 = -delta_1, norm 1: the k = 0
    # transportation LP takes difference atoms, not only the bracket
    code, out, _ = run_cli(capsys, "predual-norm", "--k", "0", "--atoms",
                           '[{"type":"diff","x":[0.0],"y":[1.0],"coef":1.0},{"x":[0.0],"coef":-1.0}]')
    assert code == 0
    rep = json.loads(out)
    assert rep["results"] == {"norm": pytest.approx(1.0, abs=1e-12), "exact": True}
    assert rep["provenance"]["lp"]["formulation"] == "transportation"
    assert rep["provenance"]["support_size"] == 2


@pytest.mark.parametrize("atoms, names", [
    ('[{"x":[NaN],"coef":1.0}]', "atom point must be finite"),
    ('[{"type":"delta"}]', "atom entry 0 {'type': 'delta'}"),  # no point
    ('[{"x":[0.0],"coef":"a"}]', "atom entry 0 {'x': [0.0], 'coef': 'a'}"),  # non-numeric coef
    ('[{"x":[0.0]},[0.0]]', "atom entry 1 [0.0]"),  # entry is not an object
    ('[{"type":"diff","x":[0.0],"coef":1.0}]', "needs numeric points x, y"),  # diff without y
    ('[{"type":"dif","x":[0.0],"y":[1.0]}]', "type 'delta' or 'diff'"),  # unknown type
    ('[{"x":[0.0],"alpha":"a"}]', "integer alpha list"),
    ('{"x":[0.0]}', "non-empty list"),
    ('[]', "non-empty list"),
])
def test_predual_norm_malformed_atoms_exit_1(capsys, atoms, names):
    code, _, err = run_cli(capsys, "predual-norm", "--k", "0", "--atoms", atoms)
    assert code == 1
    assert err.startswith("input error: ") and names in err


def test_predual_norm_n_zero_exit_1(capsys):
    # --n 0 is passed on and rejected, not replaced by the atoms' dimension
    code, out, err = run_cli(capsys, "predual-norm", "--k", "0", "--n", "0", "--atoms",
                             '[{"x":[0.0],"coef":1.0},{"x":[1.0],"coef":-1.0}]')
    assert code == 1 and out == ""
    assert err.startswith("input error: ") and "dimension n must be an integer >= 1" in err


@pytest.mark.parametrize("omega, names", [
    ('{"kind":"capped","exponent":0.5,"cap":NaN}', "modulus cap must be a finite number"),
    ('{"kind":"power","exponent":"x"}', "modulus exponent must be a finite number"),
    ('{"kind":"power","exponent":true}', "modulus exponent must be a finite number"),
    ('{"kind":"table","breakpoints":[[1]]}', "table breakpoints must be (t, w) pairs"),
    ('{"kind":"table","breakpoints":[[1.0,Infinity]]}', "table breakpoint w must be a finite number"),
])
def test_norm_malformed_modulus_exit_1(capsys, omega, names):
    # a NaN cap used to exit 0 with "lambda_osc": NaN, which is not JSON
    code, out, err = run_cli(capsys, "norm", "--field", FIELD_2PT, "--omega", omega)
    assert code == 1 and out == ""
    assert err.startswith("input error: ") and names in err


def test_predual_norm_reads_the_atoms_once(capsys, monkeypatch, tmp_path):
    path = tmp_path / "atoms.json"
    path.write_text('[{"x":[0.0],"coef":1.0},{"x":[2.0],"coef":-1.0}]')
    loads = []
    real = cli._load_json
    monkeypatch.setattr(cli, "_load_json", lambda spec, what: loads.append(what) or real(spec, what))
    code, out, _ = run_cli(capsys, "predual-norm", "--k", "0", "--atoms", str(path))
    assert code == 0
    assert json.loads(out)["results"]["norm"] == pytest.approx(2.0, abs=1e-9)
    assert loads == ["atoms"]


def test_predual_norm_k0_rejects_modulus_breaking_axioms(capsys):
    code, _, err = run_cli(capsys, "predual-norm", "--k", "0", "--atoms",
                           '[{"x":[0.0,0.0],"coef":1.0},{"x":[0.7,0.0],"coef":-2.0},'
                           '{"x":[0.0,1.5],"coef":0.5}]',
                           "--omega", '{"kind":"table","breakpoints":[[0.5,0.3],[1.0,1.2],[3.0,2.5]]}')
    assert code == 1
    assert "t/omega(t) nondecreasing" in err


def test_predual_norm_k1_rejects_modulus_breaking_axioms(capsys):
    # the k = 0 norm's error, raised by the transportation problem of hi
    omega = '{"kind":"table","breakpoints":[[0.5,0.3],[1.0,1.2],[3.0,2.5]]}'
    errors = []
    for k, atoms in (("0", '[{"x":[0.0],"coef":1.0},{"x":[0.7],"coef":-2.0}]'),
                     ("1", '[{"x":[0.0],"coef":1.0},{"type":"diff","x":[0.0],"y":[0.7],"alpha":[1],"coef":-2.0}]')):
        code, out, err = run_cli(capsys, "predual-norm", "--k", k, "--atoms", atoms, "--omega", omega)
        assert code == 1 and out == ""
        errors.append(err)
    assert errors[0] == errors[1]
    assert "t/omega(t) nondecreasing" in errors[1]


def test_predual_norm_bracket_reports_its_lps(capsys):
    code, out, _ = run_cli(capsys, "predual-norm", "--k", "1", "--atoms",
                           '[{"type":"diff","x":[0.0],"y":[1.0],"alpha":[1],"coef":1.0}]')
    assert code == 0
    rep = json.loads(out)
    lo, hi = rep["provenance"]["lp_lo"], rep["provenance"]["lp_hi"]
    assert isinstance(hi, list) and len(hi) == 1  # one per charged alpha of order k
    for lp, formulation in ((lo, "bracket-lo"), (hi[0], "transportation")):
        assert set(lp) == {"formulation", "rows", "vars", "iterations", "duality_gap"}
        assert lp["formulation"] == formulation
        assert lp["iterations"] > 0
        assert 0.0 <= lp["duality_gap"] <= 1e-9
    # m=2 points, J=2 slots each, one pair: lo, in its dual, has mJ rows on
    # one variable per primal row (2mJ box rows and 4J pair rows); hi's
    # transportation problem for alpha = 1 has m rows on m ground arcs and
    # the one arc from the positive charge to the negative one
    assert (lo["rows"], lo["vars"]) == (4, 16)
    assert (hi[0]["rows"], hi[0]["vars"]) == (2, 3)


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


@pytest.mark.parametrize("set_spec", ["builtin:cube", "[[0.0], [0.5]]"])
@pytest.mark.parametrize("option, value, names", [
    ("--resolution", "-1", "resolution must be an integer >= 2"),
    ("--resolution", "0", "resolution must be an integer >= 2"),
    ("--resolution", "1", "resolution must be an integer >= 2"),
    ("--threshold", "nan", "threshold must be finite"),
    ("--threshold", "inf", "threshold must be finite"),
])
def test_markov_bad_resolution_or_threshold_exit_1(capsys, set_spec, option, value, names):
    code, out, err = run_cli(capsys, "markov", "--center", "[0.0]", "--set", set_spec,
                             "--k", "1", "--radii", "[1.0]", option, value)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and names in err


@pytest.mark.parametrize("option, value, names", [
    ("--center", '{"y":[0]}', "center object has no 'x' list"),
    ("--center", '["a"]', "center must be a list of numeric values"),
    ("--center", "[[0.0]]", "center must be a list of values"),
    ("--set", '{"pts":[[0.1]]}', "set object has no 'points' list"),
    ("--set", '[["a"]]', "set must be a list of numeric points"),
    ("--set", "[[0.0], [NaN]]", "set must be finite"),
    ("--radii", '[1.0,"a"]', "radii must be a list of numeric values"),
])
def test_markov_malformed_json_exit_1(capsys, option, value, names):
    argv = {"--center": "[0.0]", "--set": "[[0.0], [0.5]]", "--radii": "[1.0]", option: value}
    code, out, err = run_cli(capsys, "markov", "--k", "1", *(a for kv in argv.items() for a in kv))
    assert code == 1 and out == ""
    assert err.startswith("input error: ") and names in err


@pytest.mark.parametrize("grid, names", [
    ('["a","b"]', "grid must be a list of numeric values"),
    ("[0.5, NaN]", "grid must be finite"),
])
def test_validate_omega_malformed_grid_exit_1(capsys, grid, names):
    code, out, err = run_cli(capsys, "validate-omega", "--omega", '{"kind":"linear"}', "--grid", grid)
    assert code == 1 and out == ""
    assert err.startswith("input error: ") and names in err


@pytest.mark.parametrize("table, names", [
    ('{"x":[0.0,1.0,2.0]}', "function table must be an object with lists 'x' and 'f'"),
    ("[[0.0, 1.0]]", "function table must be an object with lists 'x' and 'f'"),
    ('{"x":[2.0,1.0,0.0],"f":[0.0,1.0,0.0]}', "strictly increasing"),
    ('{"x":[0.0,0.0,2.0],"f":[0.0,1.0,0.0]}', "strictly increasing"),
    ('{"x":[0.0,1.0],"f":[0.0,1.0,0.0]}', "one f per x"),
    ('{"x":[],"f":[]}', "nonempty"),
    ('{"x":[0.0,NaN,2.0],"f":[0.0,1.0,0.0]}', "function table x must be finite"),
    ('{"x":[0.0,1.0,2.0],"f":[0.0,"a",0.0]}', "function table f must be a list of numeric values"),
])
def test_jackson_malformed_table_exit_1(capsys, table, names):
    # a decreasing x used to exit 0 with sampled_norm_f 0.0, since np.interp
    # assumes increasing sample points
    code, out, err = run_cli(capsys, "jackson", "--f", f"table:{table}", "--N", "8", "--ell", "2")
    assert code == 1 and out == ""
    assert err.startswith("input error: ") and names in err


def test_jackson_table_of_increasing_x(capsys):
    code, out, _ = run_cli(capsys, "jackson", "--f", 'table:{"x":[0.0,1.0,2.0],"f":[0.0,1.0,0.0]}',
                           "--N", "8", "--ell", "2")
    assert code == 0
    assert json.loads(out)["results"]["sampled_norm_f"] == pytest.approx(1.0)


@pytest.mark.parametrize("option, value, names", [
    ("--grid-points", "-1", "grid-points must be an integer >= 2"),
    ("--grid-points", "0", "grid-points must be an integer >= 2"),
    ("--grid-points", "1", "grid-points must be an integer >= 2"),
    ("--N", "1", "N >= 2"),
    ("--N", "262144", "2097155 points"),  # the smoothing lattice is over its limit
])
def test_jackson_bad_grid_points_or_N_exit_1(capsys, option, value, names):
    code, out, err = run_cli(capsys, "jackson", "--f", "builtin:sin", "--N", "8", "--ell", "2",
                             option, value)
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and names in err


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


@pytest.mark.parametrize("text, names", [
    ("x,f\n0.0,0.0\n1.0,2.0,1.0\n", "['1.0', '2.0', '1.0']"),  # ragged rows name the row
    ("x,f\n", "data.csv"),  # a header alone names the file
])
def test_csv_malformed_is_input_error(capsys, tmp_path, text, names):
    p = tmp_path / "data.csv"
    p.write_text(text)
    code, out, err = run_cli(capsys, "norm", "--field", str(p))
    assert code == 1 and out == ""
    assert err.startswith("input error:") and names in err
    assert "Traceback" not in err


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


def test_markov_provenance_counts_lps(capsys):
    # 2D halfspace, k=1, resolution 33, default 11-radius ladder: every ratio
    # is |T_1(3)| = 3, and cached bases bound all but a few of the 1650
    # candidates per radius
    code, out, _ = run_cli(capsys, "markov", "--center", "[0.0, 0.0]", "--set",
                           "builtin:halfspace", "--k", "1", "--resolution", "33")
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["ratios"] == pytest.approx([3.0] * 11, rel=1e-12)
    prov = rep["provenance"]
    assert len(prov["lps"]) == len(prov["pruned"]) == 11
    assert all(1 <= lps <= 10 for lps in prov["lps"])
    assert all(lps + pruned == 33 * 33 + 33 * 17 for lps, pruned in zip(prov["lps"], prov["pruned"]))
    assert prov["pivots"] >= sum(prov["lps"])


FIELD_K1 = json.dumps({"k": 1, "n": 1, "points": [[0.0], [0.5], [2.0]],
                       "jets": [[{"alpha": [0], "value": 0.0}, {"alpha": [1], "value": 1.0}],
                                [{"alpha": [0], "value": 0.75}, {"alpha": [1], "value": 0.5}],
                                [{"alpha": [0], "value": -1.0}, {"alpha": [1], "value": 2.0}]]})
POWER = '{"kind":"power","exponent":0.5}'
# stdout and exit code of every subcommand, then stderr (up to its usage
# line) of three error paths; pinned from the reports as first released,
# then re-pinned once, when provenance.lp_hi of the predual-norm --k 1 case
# became a list of transportation problems (nothing else in them moved)
_CLI_CASES = [
    ["validate-omega", "--omega", POWER],
    ["norm", "--field", FIELD_K1, "--omega", POWER],
    ["extend", "--input", FIELD_2PT, "--queries", "[[0.25],[3.0]]", "--method", "mcshane", "--audit"],
    ["extend", "--input", FIELD_K1, "--queries", "[[0.25],[3.0]]", "--method", "hermite1d", "--audit"],
    ["jackson", "--f", "builtin:sin", "--N", "8", "--ell", "2", "--grid-points", "17"],
    ["predual-norm", "--k", "0", "--atoms", '[{"x":[0.0],"coef":1.0},{"x":[2.0],"coef":-1.0}]'],
    ["predual-norm", "--k", "1", "--omega", POWER, "--atoms",
     '[{"type":"diff","x":[0.0],"y":[1.0],"alpha":[1],"coef":1.0}]'],
    ["finiteness", "--field", FIELD_K1, "--d", "2"],
    ["markov", "--center", "[0.0]", "--set", "builtin:cube", "--k", "1", "--radii", "[1.0, 0.5]",
     "--resolution", "9"],
    ["--seed", "3", "norm", "--field", FIELD_2PT],
]
_CLI_ERROR_CASES = [
    ["norm", "--field", '{"k": 0,'],
    ["predual-norm", "--k", "0", "--atoms", "[]"],
    ["frobnicate"],
]
_CLI_DIGEST = "24c159908f724ce4b8d5e45d52954ac019acba2ae852b15639987407c8ffc692"


def test_cli_output_matches_pinned_digest(capsys):
    digest = hashlib.sha256()
    for argv in _CLI_CASES:
        code, out, _ = run_cli(capsys, *argv)
        digest.update(repr((code, out)).encode())
    for argv in _CLI_ERROR_CASES:
        code, out, err = run_cli(capsys, *argv)
        digest.update(repr((code, out, err.split("usage:")[0])).encode())
    assert digest.hexdigest() == _CLI_DIGEST


def test_one_parser_with_a_runner_per_subcommand():
    parser = cli._parser()
    assert cli._parser() is parser
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    runners = {name: q.get_default("run") for name, q in sub.choices.items()}
    assert len(runners) == 7 and all(map(callable, runners.values()))
    assert len(set(runners.values())) == len(runners)
