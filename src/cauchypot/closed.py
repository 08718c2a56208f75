"""Solving Sf = g on closed contours.

On a closed rectifiable curve the singular operator is an involution,
S(Sf) = f, so the equation Sf = g is solved by applying S once more:
f = Sg, with no linear system anywhere.  The involution residual doubles
as the discretization quality check.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import GeometryError
from .geometry import ClosedContour
from .cauchy import singular_S
from .sampling import SampledDensity

__all__ = ["solve_closed", "involution_residual"]


def solve_closed(g, tolerance=1e-8):
    """Solution of Sf = g on a closed contour.

    The returned density carries meta["residual"] = max node error of
    S f - g, and meta["worst_node"], the node where that error peaks.  A
    residual above ``tolerance`` signals that the contour is under-resolved
    for this right-hand side; that is reported as a warning, not an error,
    since the solution is still the best the grid affords.
    """
    host = g.host
    if not isinstance(host, ClosedContour):
        raise GeometryError("solve_closed needs a closed contour host")
    f = singular_S(g)
    back = singular_S(f)
    err = np.abs(back.values - g.values)
    residual = float(np.max(err))
    if tolerance is not None and residual > tolerance:
        warnings.warn(
            f"solve_closed residual {residual:.3g} exceeds {tolerance:.3g}; "
            "the discretization looks too coarse for this right-hand side",
            stacklevel=2,
        )
    return SampledDensity(host, f.values,
                          meta={"residual": residual, "worst_node": int(np.argmax(err))})


def involution_residual(g):
    """Max node error of S(Sg) - g; zero in exact arithmetic."""
    if not isinstance(g.host, ClosedContour):
        raise GeometryError("the involution check needs a closed contour host")
    return solve_closed(g, tolerance=None).meta["residual"]
