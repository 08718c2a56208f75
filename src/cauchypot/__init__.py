"""Cauchy singular integral equations on curves, and potential-to-measure recovery."""

from .arcs import (
    ComplexPolynomial,
    SolveReport,
    bounded_solution,
    candidate_f0,
    defect_polynomial,
    general_solution,
    holder_diagnostic,
    homogeneous_basis,
    modified_residual,
    solvability_moments,
    sqrtR_polynomial_part,
)
from .cauchy import (
    DENSITY_CLASSES,
    boundary_value,
    cauchy_transform,
    plemelj_residuals,
    singular_S,
)
from .closed import involution_residual, solve_closed
from .errors import (
    AlignmentError,
    BoundaryLimitError,
    CauchypotError,
    DegenerateSystemError,
    DisjointnessError,
    EndpointSingularityError,
    GeometryError,
    InterpolationRequiredError,
    NearBoundaryError,
    ResolutionError,
    SchemaError,
)
from .geometry import (
    Arc,
    ArcSystem,
    ClosedContour,
    build_arc_system,
    build_closed_contour,
    eval_sqrtR,
    parse_geometry,
    sqrtR_boundary_plus,
)
from .potential import (
    MeasureEstimate,
    PotentialField,
    detect_point_masses,
    equilibrium_density,
    log_potential,
    log_potential_nodes,
    read_potential_binary,
    read_potential_csv,
    recover_area_density,
    recover_curve_density,
    write_potential_binary,
    write_potential_csv,
)
from .quadrature import QuadratureRule, host_rule, integrate, integrate_arclength
from .sampling import (
    SampledDensity,
    read_density_csv,
    read_solution_csv,
    write_density_csv,
    write_solution_csv,
)

__version__ = "0.1.0"
