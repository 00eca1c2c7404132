"""Flow integration on the Bloch ball and flow-versus-orbit comparison.

Gradient and fundamental fields are integrated with fixed-step classical
RK4 in the Cartesian chart (deterministic output matters more here than
efficiency).  Group-action orbits along one-parameter subgroups are
evaluated exactly, on the whole time grid at once, so the comparison
isolates the integrator error.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, LeftManifold
from .group_actions import Subgroup
from .state_space import (EPS_BOUNDARY, QubitState, TracelessObservable,
                          bloch_norm)
from .vector_fields import VectorField


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    points: np.ndarray  # shape (n, 3), Bloch Cartesian
    metadata: dict = field(default_factory=dict)

    @property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def endpoint(self) -> np.ndarray:
        return self.points[-1]

    def to_csv(self, observable: TracelessObservable | None = None) -> str:
        """Columns t, x, y, z, r and, if an observable is given, l_a = a . v."""
        buf = io.StringIO()
        header = "t,x,y,z,r"
        cols = [self.times, self.points[:, 0], self.points[:, 1],
                self.points[:, 2], self.radii]
        if observable is not None:
            header += ",l_a"
            cols.append(self.points @ observable.coeffs)
        buf.write(header + "\n")
        for row in zip(*cols):
            buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
        return buf.getvalue()


def _check_interior(v: np.ndarray) -> None:
    r = bloch_norm(v)
    if not r < 1.0 - EPS_BOUNDARY:
        raise LeftManifold(f"trajectory reached |v| = {r}")


def _time_grid(t_end: float, steps: int) -> np.ndarray:
    """steps + 1 uniform times on [0, t_end]."""
    if not (math.isfinite(t_end) and steps >= 1):
        raise DomainError(f"need a finite t_end and steps >= 1, got {t_end}, {steps}")
    return np.linspace(0.0, t_end, steps + 1)


def _rk4_step(f, v: np.ndarray, h: float) -> np.ndarray:
    k1 = f(v)
    k2 = f(v + 0.5 * h * k1)
    k3 = f(v + 0.5 * h * k2)
    k4 = f(v + h * k3)
    return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(vfield: VectorField, start: QubitState, t_end: float,
                   steps: int) -> Trajectory:
    """Integrate the field from ``start`` over [0, t_end] with fixed-step RK4."""

    def f(v):
        _check_interior(v)
        return vfield.cartesian(v)

    times = _time_grid(t_end, steps)
    h = t_end / steps
    points = np.empty((steps + 1, 3))
    points[0] = start.bloch
    v = start.bloch
    for i in range(steps):
        v = _rk4_step(f, v, h)
        _check_interior(v)
        points[i + 1] = v
    meta = {"field": vfield.descriptor, "integrator": "rk4", "steps": steps}
    return Trajectory(times, points, meta)


def orbit_curve(subgroup: Subgroup, start: QubitState, t_end: float,
                samples: int) -> Trajectory:
    """Exact orbit t -> subgroup(t)(start) on a uniform time grid.

    The subgroup (see group_actions.alpha_subgroup / bkm_subgroup) acts
    with every time of the grid in one batched call.
    """
    times = _time_grid(t_end, samples)
    points = subgroup.orbit(times, start)
    return Trajectory(times, points, {"kind": "orbit", "samples": samples})


def compare_flow_to_orbit(vfield: VectorField, subgroup: Subgroup,
                          start: QubitState, t_end: float, steps: int) -> float:
    """Max Bloch-space gap between the RK4 flow and the exact orbit."""
    flow = integrate_flow(vfield, start, t_end, steps)
    orbit = orbit_curve(subgroup, start, t_end, steps)
    return float(np.max(np.linalg.norm(flow.points - orbit.points, axis=1)))
