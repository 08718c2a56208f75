"""Exception taxonomy shared across the package."""


class CauchypotError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(CauchypotError):
    """Invalid or degenerate geometry; ``key`` names the spec key at fault."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ResolutionError(GeometryError):
    """Discretization too coarse for the requested construction."""


class DisjointnessError(GeometryError):
    """Arcs of a system overlap or come too close to be treated as disjoint."""


class DegenerateSystemError(GeometryError):
    """Endpoint data makes the polynomial R degenerate (repeated roots)."""


class AlignmentError(CauchypotError):
    """Sample vector does not line up with the host node set."""


class NearBoundaryError(CauchypotError):
    """Evaluation point is too close to the curve for off-curve formulas."""


class EndpointSingularityError(CauchypotError):
    """Quantity requested at an arc endpoint where it is singular."""


class InterpolationRequiredError(CauchypotError):
    """Pole (or evaluation point) does not coincide with a host node."""


class BoundaryLimitError(CauchypotError):
    """One-sided limit did not converge under extrapolation."""


class SchemaError(CauchypotError):
    """Config or input file violates the expected schema; ``key`` names the
    config key at fault."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
