"""Classification of the radial ODE (1-r^2) g'(r) + g(r)^2 = A.

Constancy of F(r) over a grid decides whether a metric supports a group
action of the studied type; the constant A selects the solution branch:
A = 0 gives the BKM function, A > 0 the family_a(A) functions, and A < 0
leads to tangent-type functions with poles inside the state space, which
are excluded (represented as a first-class Exclusion carrying evidence).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError
from .metric_family import MonotoneFunctionSpec, big_f, bkm, family_a, family_b
from .state_space import Record, require_all, require_array, require_count, require_finite

CONSTANCY_TOL = 1e-6  # separates constant branches (~1e-9) from RLD (>0.1)
ZERO_TOL = 1e-9  # |mean F| within it, or within F's range, is labelled bkm_a0


class OdeClassification(Record):
    # constant: the mean of F if the verdict is constant, else None;
    # branch: "bkm_a0" | "family_a_pos" | "family_b_neg" | "none"
    __slots__ = ("spec", "grid", "values", "constant", "range_width", "branch")

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def to_json(self) -> dict:
        return {"spec": self.spec, "grid": list(self.grid),
                "values": list(self.values), "constant": self.constant,
                "range_width": self.range_width, "branch": self.branch}


def classify(spec: MonotoneFunctionSpec, grid) -> OdeClassification:
    """Evaluate F over the grid and detect constancy."""
    grid = require_array("grid", grid).ravel()
    require_count("grid size", grid.size, 20)
    require_all((grid > 0.0) & (grid < 1.0), grid, DomainError, "grid",
                "is outside (0, 1)")
    values = np.asarray(big_f(spec, grid), dtype=float)
    width = float(values.max() - values.min())
    a_const, branch = None, "none"
    if width < CONSTANCY_TOL:
        a_const = float(values.mean())
        branch = ("bkm_a0" if abs(a_const) <= max(ZERO_TOL, width) else
                  "family_a_pos" if a_const > 0.0 else "family_b_neg")
    return OdeClassification(spec.name, tuple(grid.tolist()),
                             tuple(values.tolist()), a_const, width, branch)


class SingularityList(Record):
    """Pole locations of the tangent family inside the state space."""

    __slots__ = ("b_const", "c", "t_values", "r_values")

    def to_json(self) -> dict:
        return {"B": self.b_const, "c": self.c,
                "t_values": list(self.t_values), "r_values": list(self.r_values)}


def singularities(b_const: float, c: float = 0.0,
                  max_count: int = 10) -> SingularityList:
    """First max_count poles t_k = exp(c - (pi/2 + k pi)/sqrt(B)) in (0, 1].

    k_min is the first k with t_k <= 1; the scan stops after max_count + 1
    values of k, so rounding at an extreme c cannot keep it going.  B and c
    are checked as family_b(B, c) checks them.  A t_k that is 0 or not below
    the one before it (poles collide in double precision), or a scan short
    of max_count poles, is a NumericError.
    """
    family_b(b_const, c)
    require_count("max_count", max_count)
    sb = math.sqrt(b_const)
    k_start = c * sb / math.pi - 0.5
    if not math.isfinite(k_start):
        raise DomainError(f"c * sqrt(B) = {c} * {sb} overflows")
    k_min = max(0, math.ceil(k_start))
    ts, rs = [], []
    for k in range(k_min, k_min + max_count + 1):
        t = math.exp(min(1.0, c - (math.pi / 2.0 + k * math.pi) / sb))
        if t <= 1.0 and len(ts) < max_count:
            if not 0.0 < t < (ts[-1] if ts else math.inf):
                raise NumericError(f"B = {b_const!r}, c = {c!r}: pole t_{k} = {t!r} is 0 "
                                   f"or not below the pole before it (poles collide)")
            ts.append(t)
            rs.append((1.0 - t) / (1.0 + t))
    if len(ts) < max_count:
        raise NumericError(f"B = {b_const!r}, c = {c!r}: {len(ts)} of {max_count} "
                           f"poles t_k round into (0, 1]")
    return SingularityList(float(b_const), float(c), tuple(ts), tuple(rs))


class Exclusion(Record):
    """The A < 0 branch: a spec that cannot define a metric on the full ball."""

    __slots__ = ("a_const", "b_const", "spec", "poles")  # b_const: B = -A/4

    def to_json(self) -> dict:
        return {"A": self.a_const, "B": self.b_const,
                "excluded": True, "poles": self.poles.to_json()}


def solve_branch(a_const: float, c: float = 0.0) -> MonotoneFunctionSpec | Exclusion:
    """Closed-form solution of F = A.

    A = 0 returns the BKM spec, A > 0 the family_a(A) spec: one coth kernel
    with f(1) = 1, continuous as A -> 0.  A < 0 returns an Exclusion carrying
    the family_b spec (B = -A/4, c a free parameter) and the enumerated poles
    that rule it out; its f(1) = 1 only for c = -pi/(2 sqrt(B)) mod pi/sqrt(B).
    """
    require_finite("A", a_const)
    if a_const >= 0.0:
        return family_a(a_const) if a_const else bkm()
    b_const = -a_const / 4.0
    return Exclusion(float(a_const), b_const, family_b(b_const, c),
                     singularities(b_const, c))

