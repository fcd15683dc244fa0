"""Differential geometry of curves on parametric surfaces whose position
vector lies in the tangent plane.

The library parses analytic surfaces and parameter curves, evaluates them
with exact truncated Taylor jets, computes fundamental forms, connection
symbols, Frenet frames and geodesic/normal curvature, decomposes the
position vector in the moving tangent basis, verifies the resulting
closed-form component identities against ambient dot products, traces
tangent-position curves as zero sets of the tangency residual, and checks
which of those quantities survive a metric-preserving change of surface.
"""

from .curves import (
    KAPPA_MIN,
    CurvatureReport,
    CurveSample,
    FrenetData,
    frenet,
    reparametrize_arclength,
    stack_samples,
    surface_curvatures,
    transfer_sample,
)
from .errors import (
    ArityError,
    ConfigError,
    DegeneratePoint,
    DomainError,
    EvalError,
    ExpressionError,
    ExpressionSyntaxError,
    FrameUndefined,
    GeometryError,
    IdenticallyTangent,
    IrregularCurve,
    MetricMismatch,
    NoSeed,
    OracleMismatch,
    SingularLocus,
    UnknownIdentifierError,
)
from .forms import (
    Christoffel,
    FirstForm,
    PointGeometry,
    SecondForm,
    christoffel,
    christoffel_from_metric,
    first_form,
    gauss_equation_residual,
    point_geometry,
    second_form,
    tangency_gradient,
)
from .isometry import (
    InvarianceReport,
    IsometryPair,
    invariance_report,
    register_pair,
    second_form_relation,
    tangent_position_preservation,
    verify_metric_match,
)
from .scene import SceneConfig, builtin_scene, load_scene
from .surface import (
    CurvePath,
    SurfaceJet,
    SurfacePatch,
    parse_curve,
    parse_surface,
)
from .tangent import (
    FrameCoefficients,
    GeodesicCurvature,
    PositionComponentReport,
    TangentDecomposition,
    TracedCurve,
    binormal_formula_check,
    decompose_position,
    frame_coefficients,
    geodesic_curvature_formula,
    position_component_report,
    ratio_identity_check,
    tangency_residual,
    trace_tangent_curve,
    velocity_coefficients,
)

__version__ = "0.1.0"
