"""Modified orthogonal frames, Darboux vectors and spherical indicatrices
of analytic space curves, with every closed form checked against
independent numerical oracles."""

from . import errors
from .curves import (
    CurveSpec,
    Jet,
    arclength,
    at_arclength,
    circle,
    helix,
    line,
    planar_cubic,
    salkowski,
    total_arclength,
    twisted_cubic,
)
from .darboux import DarbouxData, check_alignment, darboux
from .frames import (
    FrenetFrame,
    ModifiedFrame,
    check_frame_ode,
    curvature,
    frenet_frame,
    modified_frame,
    modified_frames,
    torsion_general,
)
from .geodesic import (
    GeodesicReport,
    geodesic_curvature_closed,
    geodesic_curvature_oracle,
    geodesic_curvature_sphere,
    geodesic_report,
)
from .indicatrix import (
    IndicatrixKind,
    IndicatrixSample,
    cov_deriv_closed,
    cov_deriv_numeric,
    indicatrix_point,
    indicatrix_speed,
    indicatrix_tangent,
)
from .involute import InvolutePair, InvoluteReport, involute_inner, involute_scan
from .numerics import Vec3, cross, diff_vec, invert_monotone, vec
from .validation import ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "CurveSpec", "Jet", "Vec3",
    "line", "circle", "helix", "twisted_cubic", "planar_cubic", "salkowski",
    "arclength", "at_arclength", "total_arclength",
    "FrenetFrame", "ModifiedFrame", "frenet_frame", "modified_frame",
    "modified_frames",
    "curvature", "torsion_general", "check_frame_ode",
    "DarbouxData", "darboux", "check_alignment",
    "IndicatrixKind", "IndicatrixSample", "indicatrix_point",
    "indicatrix_speed", "indicatrix_tangent", "cov_deriv_closed",
    "cov_deriv_numeric",
    "GeodesicReport", "geodesic_curvature_closed", "geodesic_curvature_oracle",
    "geodesic_curvature_sphere", "geodesic_report",
    "InvolutePair", "InvoluteReport", "involute_inner", "involute_scan",
    "cross", "diff_vec", "invert_monotone", "vec",
    "ValidationReport", "run_validation",
    "errors",
]
