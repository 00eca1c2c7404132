"""Exception hierarchy shared by all qig modules.

Input errors (bad arguments, points outside the valid domain) map to CLI
exit code 2; numeric failures (poles, ill-conditioning, non-finite results)
map to exit code 3.
"""


class QigError(Exception):
    """Base class for all qig errors."""


class InputError(QigError):
    """Invalid argument or point outside the admissible domain."""


class NumericError(QigError):
    """Numerically impossible or unstable operation."""


class BoundaryViolation(InputError):
    """Bloch point on or outside the unit sphere (state not faithful)."""


class ChartSingularity(InputError):
    """Point on the polar axis or at the center, outside the spherical chart."""


class CenterSingularity(InputError):
    """Cartesian metric requested at (or too close to) the center of the ball."""


class DomainError(InputError):
    """Scalar argument outside the function's domain."""


class NeighborhoodOutsideBall(InputError):
    """Finite-difference stencil would leave the open unit ball."""


class PoleError(NumericError):
    """Evaluation at (or numerically on top of) a tangent-family pole."""


class IllConditioned(NumericError):
    """Matrix condition number too large to invert reliably."""


class ExtrapolationUnstable(NumericError):
    """Limit extrapolation sequence did not converge."""


class LeftManifold(NumericError):
    """Integrated trajectory reached the boundary of the Bloch ball."""
