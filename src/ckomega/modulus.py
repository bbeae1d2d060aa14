"""Moduli of continuity.

A modulus omega is a nonnegative function on (0, inf) such that omega(t) and
t/omega(t) are nondecreasing and omega(t) -> 0 as t -> 0+. Four kinds are
provided: power (t^a with 0 < a <= 1), linear (t), capped (min(t^a, cap)) and
table (piecewise-linear through sorted breakpoints, anchored at (0, 0) on the
left and constant beyond the last breakpoint). All four vanish at 0+ by
construction; the two monotonicity axioms are checked on a grid, not
symbolically; see ``validate``.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

_KINDS = ("power", "linear", "capped", "table")


def _finite(value, what: str) -> float:
    """value as a float if it is a finite real number and not a bool; else
    an InputError naming what."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise InputError(f"{what} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Modulus:
    """A modulus of continuity. Immutable; evaluation is pure.

    Parameters
    ----------
    kind : str
        One of "power", "linear", "capped", "table".
    exponent : float, optional
        Exponent a in (0, 1] for the power/capped kinds.
    cap : float, optional
        Ceiling value for the capped kind (must be > 0).
    breakpoints : sequence of (t, w) pairs, optional
        Sorted positive breakpoints for the table kind. Evaluation is linear
        between (0, 0), the breakpoints, and constant after the last one.
    """

    kind: str
    exponent: float | None = None
    cap: float | None = None
    breakpoints: tuple[tuple[float, float], ...] | None = field(default=None)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown modulus kind {self.kind!r}")
        if self.kind in ("power", "capped"):
            a = _finite(self.exponent, "modulus exponent")
            if not (0.0 < a <= 1.0):
                raise InputError("power modulus needs exponent in (0, 1]")
            object.__setattr__(self, "exponent", a)
        if self.kind == "capped":
            cap = _finite(self.cap, "modulus cap")
            if cap <= 0.0:
                raise InputError("capped modulus needs cap > 0")
            object.__setattr__(self, "cap", cap)
        if self.kind == "table":
            try:
                bp = [(t, w) for t, w in (() if self.breakpoints is None else self.breakpoints)]
            except (TypeError, ValueError) as exc:
                raise InputError(f"table breakpoints must be (t, w) pairs: {exc}") from exc
            bp = tuple((_finite(t, "table breakpoint t"), _finite(w, "table breakpoint w")) for t, w in bp)
            if not bp:
                raise InputError("table modulus needs at least one breakpoint")
            ts = [t for t, _ in bp]
            if min(min(p) for p in bp) <= 0.0:
                raise InputError("table breakpoints must be positive")
            if sorted(set(ts)) != ts:
                raise InputError("table breakpoints must be strictly increasing")
            object.__setattr__(self, "breakpoints", bp)

    def __call__(self, t):
        """Evaluate omega(t). Accepts scalars or arrays; t must be > 0."""
        arr = np.asarray(t, dtype=float)
        if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
            raise InputError("modulus argument must be finite and > 0")
        if self.kind == "linear":
            out = arr
        elif self.kind == "power":
            out = arr ** self.exponent
        elif self.kind == "capped":
            out = np.minimum(arr ** self.exponent, self.cap)
        else:
            out = np.interp(arr, *np.array(((0.0, 0.0),) + self.breakpoints).T)  # constant beyond the last breakpoint
        if np.ndim(t) == 0:
            return float(out)
        return out


def linear() -> Modulus:
    return Modulus("linear")


def power(exponent: float) -> Modulus:
    return Modulus("power", exponent=exponent)


def capped(exponent: float, cap: float) -> Modulus:
    return Modulus("capped", exponent=exponent, cap=cap)


def table(breakpoints) -> Modulus:
    return Modulus("table", breakpoints=tuple(breakpoints))


@dataclass(frozen=True)
class Violation:
    axiom: str
    t_lo: float
    t_hi: float
    value_lo: float
    value_hi: float


@dataclass(frozen=True)
class ValidationReport:
    """Grid-based axiom check result. ``violations`` empty means both
    monotonicity axioms hold on the supplied grid (not a proof for all of
    (0, inf)); omega(0+) = 0 holds for every Modulus by construction."""

    grid: tuple[float, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "grid": list(self.grid),
            "ok": self.ok,
            "violations": [
                {
                    "axiom": v.axiom,
                    "pair": [v.t_lo, v.t_hi],
                    "values": [v.value_lo, v.value_hi],
                }
                for v in self.violations
            ],
        }


# Comparison slack: axiom checks should not fail on float roundoff alone.
_REL_SLACK = 1e-12


def validate(m: Modulus, grid) -> ValidationReport:
    """Check the modulus axioms on a sorted positive grid.

    Checks, pairwise on consecutive grid points: omega nondecreasing and
    t/omega(t) nondecreasing. The third axiom, omega(t) -> 0 as t -> 0+,
    needs no check: t^a and min(t^a, cap) vanish there because the
    constructor enforces a > 0, t does, and a table interpolates linearly
    from its anchor (0, 0) to its first breakpoint.
    """
    g = [float(t) for t in grid]
    if len(g) < 2:
        raise InputError("validation grid needs at least 2 points")
    if any(t <= 0 for t in g):
        raise InputError("validation grid must be positive")
    if sorted(g) != g:
        raise InputError("validation grid must be sorted ascending")

    violations: list[Violation] = []
    vals = [m(t) for t in g]
    for (t0, w0), (t1, w1) in zip(zip(g, vals), zip(g[1:], vals[1:])):
        slack = _REL_SLACK * max(abs(w0), abs(w1), 1.0)
        if w1 < w0 - slack:
            violations.append(Violation("omega nondecreasing", t0, t1, w0, w1))
        r0, r1 = t0 / w0, t1 / w1
        slack_r = _REL_SLACK * max(abs(r0), abs(r1), 1.0)
        if r1 < r0 - slack_r:
            violations.append(Violation("t/omega(t) nondecreasing", t0, t1, r0, r1))

    return ValidationReport(tuple(g), tuple(violations))


def limit_at_infinity_reciprocal(m: Modulus, probe: float) -> float:
    """Numerical proxy for lim_{t->inf} 1/omega(t), evaluated at a large probe.

    The probe choice is the caller's responsibility and should be recorded
    alongside the result.
    """
    if probe < 1.0:
        raise InputError("probe must be >= 1")
    return 1.0 / m(probe)


def default_grid() -> list[float]:
    """Logarithmic default grid used by the CLI for validate-omega."""
    return list(np.logspace(-6, 6, 49))


def from_json(spec) -> Modulus:
    """Build a Modulus from its JSON object form.

    Schema: {"kind": "power"|"linear"|"capped"|"table",
             "exponent"?: num, "cap"?: num, "breakpoints"?: [[t, w], ...]}.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InputError("modulus spec must be an object with a 'kind' field")
    if spec["kind"] == "table":
        return Modulus("table", breakpoints=spec.get("breakpoints"))
    return Modulus(spec["kind"], exponent=spec.get("exponent"), cap=spec.get("cap"))


def to_json(m: Modulus) -> dict:
    out: dict = {"kind": m.kind}
    if m.exponent is not None:
        out["exponent"] = m.exponent
    if m.cap is not None:
        out["cap"] = m.cap
    if m.breakpoints is not None:
        out["breakpoints"] = [list(p) for p in m.breakpoints]
    return out
