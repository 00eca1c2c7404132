"""Aggregated verification suites.

Every mathematically checkable claim of the construction gets a suite with a
pinned tolerance; ``SUITES`` maps each suite's name to its function, and
each report is deterministic given the seed.  Every suite takes the keywords
``seed`` and ``tol`` (its main tolerance); ``actions`` also takes
``samples`` and ``commutators`` ``spec``.  Per-suite RNG seeds derive
from the root seed by the counter scheme
``sub_seed = seed * 1000 + SUITE_IDS[name]`` so adding a suite never
perturbs the samples of another one.  A seed or tol out of its domain is a
DomainError (flows and poles ignore the seed, monotone the tol).
"""

from __future__ import annotations

import math

import numpy as np

from . import group_actions as ga
from . import metric_family as mf
from . import ode_classifier as oc
from .errors import DomainError, PoleError
from .flow_engine import compare_flow_to_orbit, integrate_flow
from .state_space import (QubitState, SphericalPoint, TracelessObservable,
                          require_count, require_positive)
from .vector_fields import (fundamental_field, gradient_field_closed,
                            gradient_field_from_metric, lie_bracket_numeric,
                            rescaled_gradient_field,
                            verify_commutator_relations)

SUITE_IDS = {
    "commutators": 1,
    "fconstancy": 2,
    "actions": 3,
    "generators": 4,
    "flows": 5,
    "monotone": 6,
    "poles": 7,
}


def sub_seed(seed: int, suite: str) -> int:
    """The seed of a suite's draws; a bad seed or suite is a DomainError."""
    require_count("seed", seed, 0)
    if not (isinstance(suite, str) and suite in SUITE_IDS):
        raise DomainError(f"suite = {suite!r} is not one of {sorted(SUITE_IDS)}")
    return seed * 1000 + SUITE_IDS[suite]


def _interior_points(rng, count: int, r_hi: float = 0.85) -> np.ndarray:
    """Random Bloch points, radius in [0.15, r_hi), |cos theta| <= 0.95."""
    pts = []
    while len(pts) < count:
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        if abs(v[2]) > 0.95:
            continue
        pts.append(rng.uniform(0.15, r_hi) * v)
    return np.array(pts)


def _catalog_with_families():
    return [mf.bkm(), mf.bures_helstrom(), mf.wigner_yanase(),
            mf.family_a(0.5), mf.family_a(2.0), mf.rld()]


def suite_commutators(seed: int = 0, tol: float = 1e-6,
                      spec: mf.MonotoneFunctionSpec | None = None) -> dict:
    """[Y_i, Y_j] = F(r) X_k for the constant-F catalog; RLD must fail.

    With ``spec``, only that spec is checked, on the same points: it must
    meet the bracket relations and have a constant radial invariant F (the
    relations need a constant coefficient).
    """
    require_positive("suite_commutators", "tol", tol)
    rng = np.random.default_rng(sub_seed(seed, "commutators"))
    pts = _interior_points(rng, 50)
    if spec is not None:
        max_error = verify_commutator_relations(spec, pts).max_error
        constant = oc.classify(spec, np.linspace(0.05, 0.95, 50)).is_constant
        return {"name": "commutators", "spec": spec.name,
                "max_error": max_error, "constant_coefficient": constant,
                "tolerance": tol, "passed": max_error < tol and constant}

    specs = [mf.bkm(), mf.bures_helstrom(), mf.wigner_yanase(), mf.family_a(2.0)]
    per_spec = {}
    for spec in specs:
        rep = verify_commutator_relations(spec, pts)
        per_spec[spec.name] = {"max_error": rep.max_error,
                               "closure_residual": rep.closure_residual,
                               "convention_sign": rep.convention_sign}
    passed = all(d["max_error"] < tol for d in per_spec.values())

    # Negative control: for RLD no single constant c makes [Y1,Y2] = c X3.
    basis = [TracelessObservable.from_coeffs(e) for e in np.eye(3)]
    y1 = gradient_field_closed(basis[0], mf.rld())
    y2 = gradient_field_closed(basis[1], mf.rld())
    brackets = lie_bracket_numeric(y1, y2, pts).components
    refs = fundamental_field(basis[2]).cartesian(pts)
    c_best = float(np.sum(brackets * refs) / np.sum(refs * refs))
    control = float(np.max(np.abs(brackets - c_best * refs)))
    passed = passed and control > 1e-2
    return {"name": "commutators", "passed": passed, "tolerance": tol,
            "per_spec": per_spec, "rld_best_constant_mismatch": control}


def suite_fconstancy(seed: int = 0, tol: float = 1e-8) -> dict:
    """Constancy of F for the solution families, plus branch round trips."""
    require_positive("suite_fconstancy", "tol", tol)
    rng = np.random.default_rng(sub_seed(seed, "fconstancy"))
    grid = np.arange(0.05, 0.951, 0.05)
    details = {}
    passed = True

    for a_const in (0.25, 0.5, 1.0, 2.0, 4.0):
        dev = float(np.max(np.abs(mf.big_f(mf.family_a(a_const), grid) - a_const)))
        details[f"family_a({a_const:g})_dev"] = dev
        passed = passed and dev < tol
    dev0 = float(np.max(np.abs(mf.big_f(mf.bkm(), grid))))
    details["bkm_dev"] = dev0
    passed = passed and dev0 < tol
    rld_vals = np.asarray(mf.big_f(mf.rld(), grid))
    details["rld_range_width"] = float(rld_vals.max() - rld_vals.min())
    passed = passed and details["rld_range_width"] > 0.1

    # family_a(1) is Bures-Helstrom, family_a(1/4) is Wigner-Yanase.
    ts = np.linspace(0.01, 1.0, 100)
    dev_bh = float(np.max(np.abs(mf.f_eval(mf.family_a(1.0), ts) - (1.0 + ts) / 2.0)))
    dev_wy = float(np.max(np.abs(mf.f_eval(mf.family_a(0.25), ts)
                                 - (1.0 + np.sqrt(ts)) ** 2 / 4.0)))
    details["family_a(1)_vs_bh"] = dev_bh
    details["family_a(0.25)_vs_wy"] = dev_wy
    passed = passed and dev_bh < 1e-12 and dev_wy < 1e-12

    # ODE branch round trip and residual.
    cls_grid = np.linspace(0.05, 0.95, 50)
    worst_rt = 0.0
    worst_res = 0.0
    for a_const in [0.0] + list(np.linspace(0.25, 5.0, 20)):
        spec = oc.solve_branch(a_const)
        cls = oc.classify(spec, cls_grid)
        if not cls.is_constant:
            worst_rt = math.inf
            continue
        worst_rt = max(worst_rt, abs(cls.constant - a_const))
        worst_res = max(worst_res, max(abs(v - a_const) for v in cls.values))
    details["roundtrip_dev"] = worst_rt
    details["ode_residual"] = worst_res
    passed = passed and worst_rt < 1e-6 and worst_res < 1e-8

    # Gradient-field cross-validation: closed form vs metric-raised form.
    pts = _interior_points(rng, 1000)
    worst_cross = 0.0
    obs = TracelessObservable.from_coeffs(rng.uniform(-1.0, 1.0, 3))
    for spec in _catalog_with_families():
        closed = gradient_field_closed(obs, spec).cartesian(pts)
        raised = gradient_field_from_metric(obs, spec).cartesian(pts)
        dev = float(np.max(np.abs(closed - raised)))
        details[f"cross_{spec.name}"] = dev
        worst_cross = max(worst_cross, dev)
    details["gradient_cross_validation"] = worst_cross
    passed = passed and worst_cross < 1e-10

    return {"name": "fconstancy", "passed": passed, "tolerance": tol,
            "details": details}


def suite_actions(seed: int = 0, samples: int = 200, tol: float = 1e-10) -> dict:
    """Identity/compatibility axioms and the transitivity probe."""
    require_positive("suite_actions", "tol", tol)
    s = sub_seed(seed, "actions")
    details = {}
    passed = True
    for a_const in (0.25, 0.5, 1.0, 2.0):
        rep = ga.verify_alpha_action(a_const, samples=samples, seed=s)
        details[rep.action] = rep.max_dev
        passed = passed and rep.max_dev < tol
    rep = ga.verify_bkm_action(samples=samples, seed=s)
    details[rep.action] = rep.max_dev
    passed = passed and rep.max_dev < tol
    trans = ga.transitivity_probe(samples=100, seed=s)
    details["transitivity"] = trans
    passed = passed and trans < tol
    return {"name": "actions", "passed": passed, "tolerance": tol,
            "details": details}


def suite_generators(seed: int = 0, tol: float = 1e-6) -> dict:
    """Action derivatives at t = 0 match the fundamental/gradient fields."""
    require_positive("suite_generators", "tol", tol)
    rng = np.random.default_rng(sub_seed(seed, "generators"))
    states = _interior_points(rng, 5, r_hi=0.7)
    obs = [TracelessObservable.from_coeffs(rng.uniform(-1.0, 1.0, 3))
           for _ in range(3)]
    zero = TracelessObservable(0.0, 0.0, 0.0)
    details = {}
    worst = 0.0

    def dev(subgroup, vfield) -> float:
        num = ga.generator_of_action(subgroup, states)
        return float(np.max(np.abs(num - vfield.cartesian(states))))

    for a_const in (0.25, 1.0, 3.0):
        dev_fund = max(dev(ga.alpha_subgroup(a_const, zero, a), fundamental_field(a))
                       for a in obs)
        dev_grad = max(dev(ga.alpha_subgroup(a_const, a, zero),
                           rescaled_gradient_field(a, a_const)) for a in obs)
        details[f"alpha_A({a_const:g})_fundamental"] = dev_fund
        details[f"alpha_A({a_const:g})_gradient"] = dev_grad
        worst = max(worst, dev_fund, dev_grad)

    dev_fund = max(dev(ga.bkm_subgroup(zero, a), fundamental_field(a)) for a in obs)
    dev_grad = max(dev(ga.bkm_subgroup(a, zero), gradient_field_closed(a, mf.bkm()))
                   for a in obs)
    details["bkm_fundamental"] = dev_fund
    details["bkm_gradient"] = dev_grad
    worst = max(worst, dev_fund, dev_grad)

    return {"name": "generators", "passed": worst < tol, "tolerance": tol,
            "details": details, "max_dev": worst}


def suite_flows(seed: int = 0, tol: float = 1e-6) -> dict:
    """RK4 gradient flows match exact orbits; RK4 order check.
    Deterministic, so ``seed`` is ignored."""
    require_positive("suite_flows", "tol", tol)
    t_end, steps = 1.0, 1000
    start = QubitState(0.25, -0.15, 0.35)
    a = TracelessObservable(0.4, -0.3, 0.6)
    zero = TracelessObservable(0.0, 0.0, 0.0)
    details = {}
    passed = True

    cases = [
        ("bures_helstrom", rescaled_gradient_field(a, 1.0), ga.alpha_subgroup(1.0, a, zero)),
        ("wigner_yanase", rescaled_gradient_field(a, 0.25), ga.alpha_subgroup(0.25, a, zero)),
        ("family_a(2)", rescaled_gradient_field(a, 2.0), ga.alpha_subgroup(2.0, a, zero)),
        ("bkm", gradient_field_closed(a, mf.bkm()), ga.bkm_subgroup(a, zero)),
    ]
    for name, vfield, orbit in cases:
        dev = compare_flow_to_orbit(vfield, orbit, start, t_end, steps)
        details[f"flow_vs_orbit_{name}"] = dev
        passed = passed and dev < tol

    dev = compare_flow_to_orbit(fundamental_field(a),
                                ga.alpha_subgroup(1.0, zero, a),
                                start, t_end, steps)
    details["fundamental_vs_unitary_orbit"] = dev
    passed = passed and dev < 1e-8

    # Order check at coarse steps, where truncation dominates roundoff.
    vfield = rescaled_gradient_field(a, 1.0)
    orbit = ga.alpha_subgroup(1.0, a, zero)
    dev_coarse = compare_flow_to_orbit(vfield, orbit, start, 2.0, 16)
    dev_fine = compare_flow_to_orbit(vfield, orbit, start, 2.0, 32)
    ratio = dev_coarse / dev_fine
    details["rk4_order_ratio"] = ratio
    passed = passed and 8.0 <= ratio <= 32.0

    return {"name": "flows", "passed": passed, "tolerance": tol,
            "details": details}


def suite_monotone(seed: int = 0, tol: float | None = None) -> dict:
    """Matrix-order scan: violations for A > 1, clean for the monotone trio.
    Its thresholds are fixed: no main tolerance, so ``tol`` is ignored."""
    s = sub_seed(seed, "monotone")
    details = {}
    passed = True
    expected = [
        (mf.bures_helstrom(), False),
        (mf.wigner_yanase(), False),
        (mf.bkm(), False),
        (mf.family_a(2.0), True),
        (mf.family_a(4.0), True),
    ]
    reports = mf.scan_monotonicity([spec for spec, _ in expected],
                                   samples=10_000, seed=s)
    for rep, (spec, expect_violation) in zip(reports, expected):
        details[spec.name] = {"min_gap": rep.min_gap, "violated": rep.violated}
        passed = passed and (rep.violated == expect_violation)

    # Scalar counterexample for A = 4 and the derivative limit at 0+.
    f4 = mf.family_a(4.0)
    scalar_gap = float(mf.f_eval(f4, 0.01)) - float(mf.f_eval(f4, 0.2))
    details["scalar_counterexample_gap_A4"] = scalar_gap
    passed = passed and scalar_gap > 0.0
    lim = mf.derivative_limit_at_zero(4.0)
    details["derivative_limit_A4"] = lim
    passed = passed and abs(lim - (-1.0)) < 1e-4

    return {"name": "monotone", "passed": passed, "details": details}


def suite_poles(seed: int = 0, tol: float = 1e-10) -> dict:
    """Tangent-family poles of family_b(1, 0): located analytically, simple,
    and metric-fatal.  Deterministic, so ``seed`` is ignored; ``tol`` bounds
    the location error."""
    require_positive("suite_poles", "tol", tol)
    poles = oc.singularities(1.0, 0.0, max_count=3)
    spec = mf.family_b(1.0, 0.0)
    details = {"t_values": list(poles.t_values)}
    passed = True

    expected = [math.exp(-(math.pi / 2.0 + k * math.pi)) for k in range(3)]
    locate_dev = max(abs(t - e) for t, e in zip(poles.t_values, expected))
    details["locate_dev"] = locate_dev
    passed = passed and locate_dev < tol

    for t_k, r_k in zip(poles.t_values, poles.r_values):
        left = float(mf.f_eval(spec, t_k * (1.0 - 1e-9)))
        right = float(mf.f_eval(spec, min(t_k * (1.0 + 1e-9), 1.0)))
        passed = passed and abs(left) > 1e6 and abs(right) > 1e6
        passed = passed and left * right < 0.0  # simple pole: sign flip
        try:
            mf.metric_spherical(spec, SphericalPoint(r_k, math.pi / 2.0, 0.0))
            passed = False
            details[f"metric_at_r={r_k:.6g}"] = "no PoleError"
        except PoleError:
            details[f"metric_at_r={r_k:.6g}"] = "PoleError"

    return {"name": "poles", "passed": passed, "details": details}


SUITES = {
    "commutators": suite_commutators,
    "fconstancy": suite_fconstancy,
    "actions": suite_actions,
    "generators": suite_generators,
    "flows": suite_flows,
    "monotone": suite_monotone,
    "poles": suite_poles,
}
