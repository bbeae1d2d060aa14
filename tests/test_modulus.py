import json
import math
import re

import numpy as np
import pytest

from ckomega import modulus as mo
from ckomega.errors import InputError


def test_eval_examples():
    assert mo.power(0.5)(4.0) == 2.0
    assert mo.linear()(1.0) == 1.0
    assert mo.capped(1.0, 2.0)(5.0) == 2.0


def test_eval_domain_error():
    with pytest.raises(InputError):
        mo.linear()(0.0)
    with pytest.raises(InputError):
        mo.power(0.5)(-1.0)
    with pytest.raises(InputError):
        mo.linear()(float("nan"))


def test_builtin_kinds_validate_clean():
    grid = list(np.logspace(-4, 4, 33))
    for m in (mo.power(0.3), mo.power(1.0), mo.linear(), mo.capped(0.5, 1.5),
              mo.table([[0.5, 0.7], [1.0, 1.0], [2.0, 1.3]])):
        rep = mo.validate(m, grid)
        assert rep.ok, (m, rep.violations)


def test_steep_moduli_validate_clean():
    # omega(0+) = 0 holds by construction even where omega is still large at
    # the smallest grid point: t^0.05 is 0.5 at t = 1e-6, and this table
    # rises to 1 within t = 1e-20
    grid = mo.default_grid()
    for m in (mo.power(0.05), mo.table([[1e-20, 1.0]])):
        rep = mo.validate(m, grid)
        assert rep.ok and rep.violations == (), (m, rep.violations)
        assert rep.to_dict()["ok"] is True


def test_table_encoding_t_squared_violates_second_axiom():
    m = mo.table([[0.1, 0.01], [1.0, 1.0]])
    rep = mo.validate(m, [0.1, 1.0])
    axioms = {v.axiom for v in rep.violations}
    assert "t/omega(t) nondecreasing" in axioms
    v = next(v for v in rep.violations if v.axiom == "t/omega(t) nondecreasing")
    assert (v.t_lo, v.t_hi) == (0.1, 1.0)


def test_decreasing_table_violates_monotonicity():
    m = mo.table([[1.0, 2.0], [2.0, 2.0], [3.0, 2.5]])
    # force a non-monotone sample through a handcrafted evaluator
    rep = mo.validate(mo.table([[1.0, 1.0], [2.0, 0.5]]), [1.0, 2.0])
    assert any(v.axiom == "omega nondecreasing" for v in rep.violations)
    assert mo.validate(m, [1.0, 2.0, 3.0]).ok


def test_validate_input_errors():
    with pytest.raises(InputError):
        mo.validate(mo.linear(), [1.0])
    with pytest.raises(InputError):
        mo.validate(mo.linear(), [2.0, 1.0])
    with pytest.raises(InputError):
        mo.validate(mo.linear(), [-1.0, 1.0])


def test_eval_monotone_property():
    rng = np.random.default_rng(11)
    kinds = [mo.power(0.4), mo.linear(), mo.capped(0.8, 1.2),
             mo.table([[0.2, 0.3], [1.0, 1.0], [5.0, 2.0]])]
    for _ in range(300):
        m = kinds[rng.integers(len(kinds))]
        t = np.sort(rng.uniform(1e-6, 50.0, size=2))
        assert m(t[0]) <= m(t[1]) + 1e-12


def test_eval_over_t_nonincreasing_property():
    rng = np.random.default_rng(12)
    kinds = [mo.power(0.4), mo.linear(), mo.capped(0.8, 1.2),
             mo.table([[0.2, 0.3], [1.0, 1.0], [5.0, 2.0]])]
    for _ in range(300):
        m = kinds[rng.integers(len(kinds))]
        t = np.sort(rng.uniform(1e-6, 50.0, size=2))
        r0, r1 = m(t[0]) / t[0], m(t[1]) / t[1]
        assert r1 <= r0 * (1 + 1e-12)


def test_table_left_anchor_and_right_extrapolation():
    m = mo.table([[1.0, 1.0], [2.0, 1.5]])
    assert m(0.5) == pytest.approx(0.5)  # linear through (0, 0)
    assert m(10.0) == 1.5  # constant beyond the last breakpoint


def test_json_round_trip():
    for m in (mo.power(0.5), mo.linear(), mo.capped(0.7, 2.0),
              mo.table([[1.0, 1.0], [2.0, 1.5]])):
        m2 = mo.from_json(json.dumps(mo.to_json(m)))
        assert m2 == m


def test_from_json_rejects_garbage():
    with pytest.raises(InputError):
        mo.from_json({"no_kind": 1})
    with pytest.raises(InputError):
        mo.from_json({"kind": "power", "exponent": 1.5})
    with pytest.raises(InputError):
        mo.from_json({"kind": "table", "breakpoints": [[2.0, 1.0], [1.0, 2.0]]})


@pytest.mark.parametrize("build, names", [
    (lambda: mo.capped(0.5, math.nan), "modulus cap must be a finite number"),
    (lambda: mo.capped(0.5, "1"), "modulus cap must be a finite number"),
    (lambda: mo.power("x"), "modulus exponent must be a finite number"),
    (lambda: mo.power(True), "modulus exponent must be a finite number"),
    (lambda: mo.power(None), "modulus exponent must be a finite number"),
    (lambda: mo.table([(1.0, math.nan)]), "table breakpoint w must be a finite number"),
    (lambda: mo.table([(math.nan, 1.0)]), "table breakpoint t must be a finite number"),
    (lambda: mo.table([(1.0, math.inf)]), "table breakpoint w must be a finite number"),
    (lambda: mo.from_json({"kind": "table", "breakpoints": [[1]]}), "(t, w) pairs"),
    (lambda: mo.from_json({"kind": "table", "breakpoints": [1.0, 2.0]}), "(t, w) pairs"),
    (lambda: mo.from_json({"kind": "table"}), "at least one breakpoint"),
], ids=["nan cap", "str cap", "str exponent", "bool exponent", "no exponent", "nan w", "nan t", "inf w",
        "json short pair", "json numbers", "json no breakpoints"])
def test_non_finite_or_non_numeric_parameters_rejected(build, names):
    # each of these used to build a modulus that evaluates to NaN or inf, or
    # to raise a bare TypeError / ValueError, or (a bool exponent) to be read
    # as 1
    with pytest.raises(InputError, match=re.escape(names)):
        build()


def test_parameters_are_stored_as_floats():
    m = mo.capped(1, 2)
    assert (m.exponent, m.cap) == (1.0, 2.0) and isinstance(m.exponent, float)
    assert mo.table([(1, 2)]).breakpoints == ((1.0, 2.0),)
