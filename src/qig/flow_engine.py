"""Flow integration on the Bloch ball and flow-versus-orbit comparison.

Gradient and fundamental fields are integrated with fixed-step classical
RK4 in the Cartesian chart (deterministic output matters more here than
efficiency).  Group-action orbits along one-parameter subgroups are
evaluated exactly, on the whole time grid at once, so the comparison
isolates the integrator error.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import LeftManifold
from .group_actions import Subgroup
from .state_space import (EPS_BOUNDARY, QubitState, Record, TracelessObservable,
                          bloch_norm, require_count, require_finite, require_instance)
from .vector_fields import VectorField


class Trajectory(Record):
    __slots__ = ("times", "points")  # points: shape (n, 3), Bloch Cartesian

    @property
    def radii(self) -> np.ndarray:
        return np.linalg.norm(self.points, axis=1)

    def to_csv(self, observable: TracelessObservable) -> str:
        """Columns t, x, y, z, r and l_a = a . v of the observable a."""
        require_instance("observable", observable, TracelessObservable)
        return csv_table(["t", "x", "y", "z", "r", "l_a"],
                         [self.times, *self.points.T, self.radii,
                          self.points @ observable.coeffs])


# Rows converted to Python floats at a time: .tolist() formats faster than
# numpy scalars, and a block at a time keeps the floats of a long table from
# all being alive at once, which would raise the peak memory.
_CSV_BLOCK = 256


def csv_table(header, columns) -> str:
    """CSV text: the header row, then row i of the equal-length float
    arrays in columns, every value written with 17 significant digits, which
    round-trip."""
    row = ",".join(["%.17g"] * len(columns))  # % formats faster than str.format
    lines = [",".join(header)]
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        block = (c[start:start + _CSV_BLOCK].tolist() for c in columns)
        lines += [row % values for values in zip(*block)]
    return "\n".join(lines) + "\n"


_INTERIOR_SQ = (1.0 - EPS_BOUNDARY) ** 2


def _check_interior(x: float, y: float, z: float) -> None:
    # Cheaper than |v|, which only the message needs; a NaN or inf fails it.
    if not x * x + y * y + z * z < _INTERIOR_SQ:
        raise LeftManifold(f"trajectory reached |v| = "
                           f"{bloch_norm(np.array([x, y, z]))}")


def _time_grid(t_end: float, steps: int, name: str) -> np.ndarray:
    """steps + 1 uniform times on [0, t_end]; name is the caller's name for
    steps."""
    require_count(name, steps)
    require_finite("t_end", t_end)
    return np.linspace(0.0, t_end, steps + 1)


def integrate_flow(vfield: VectorField, start: QubitState, t_end: float,
                   steps: int) -> Trajectory:
    """Integrate the field from ``start`` over [0, t_end] with fixed-step RK4.

    The loop runs on Python floats through the field's per-point evaluator,
    with the arithmetic of RK4 on (3,) arrays, component by component.
    Every stage checks its point before evaluating the field there, so the
    first stage of a step checks the previous step's result; the final
    point is checked on its own.  A point not inside the ball by
    EPS_BOUNDARY raises LeftManifold naming its |v|.
    """
    require_instance("vfield", vfield, VectorField)
    require_instance("start", start, QubitState)
    times = _time_grid(t_end, steps, "steps")
    h = t_end / steps
    half, sixth = 0.5 * h, h / 6.0
    field = vfield.point

    def f(x, y, z):
        _check_interior(x, y, z)
        return field(x, y, z)

    x, y, z = start.bloch.tolist()
    flat = [x, y, z]
    # A step too long for the field may overflow to inf, quietly on floats,
    # and the next check reports the point; a warnings filter keeps a field
    # evaluated by numpy quiet too, at no cost per step.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                RuntimeWarning)
        for _ in range(steps):
            k1x, k1y, k1z = f(x, y, z)
            k2x, k2y, k2z = f(x + half * k1x, y + half * k1y, z + half * k1z)
            k3x, k3y, k3z = f(x + half * k2x, y + half * k2y, z + half * k2z)
            k4x, k4y, k4z = f(x + h * k3x, y + h * k3y, z + h * k3z)
            x += sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y += sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            z += sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            flat += (x, y, z)
        _check_interior(x, y, z)
    return Trajectory(times, np.array(flat).reshape(steps + 1, 3))


def orbit_curve(subgroup: Subgroup, start: QubitState, t_end: float,
                samples: int) -> Trajectory:
    """Exact orbit t -> subgroup(t)(start) on a uniform time grid.

    The subgroup (see group_actions.alpha_subgroup / bkm_subgroup) acts
    with every time of the grid in one batched call.
    """
    require_instance("subgroup", subgroup, Subgroup)
    require_instance("start", start, QubitState)
    times = _time_grid(t_end, samples, "samples")
    return Trajectory(times, subgroup.orbit(times, start))


def compare_flow_to_orbit(vfield: VectorField, subgroup: Subgroup,
                          start: QubitState, t_end: float, steps: int) -> float:
    """Max Bloch-space gap between the RK4 flow and the exact orbit."""
    require_instance("subgroup", subgroup, Subgroup)  # before RK4, not after
    flow = integrate_flow(vfield, start, t_end, steps)
    orbit = orbit_curve(subgroup, start, t_end, steps)
    return float(np.max(np.linalg.norm(flow.points - orbit.points, axis=1)))
