"""nil3lab: geometry and minimal-surface PDE laboratory for Nil3 with the balanced metric."""

from .nilcore import (
    ChartPoint,
    ChristoffelAtPoint,
    GroupElement,
    IDENTITY,
    MetricAtPoint,
    TangentVector,
    balanced_metric_from_translations,
    christoffel_closed_form,
    christoffel_from_metric,
    geodesic_ode_rhs,
    integrate_geodesic,
    inverse,
    metric_closed_form,
    multiply,
)
from .surface import (
    BoundaryData,
    CenterElement,
    PolarCoord,
    SurfacePoint,
    circle_action,
    curvature_closed_forms,
    distance_to_identity,
    gaussian_curvature_riemann,
    geodesic_closed_form,
    second_fundamental_form_slice,
    splitting_isometry,
    splitting_isometry_inverse,
    warp_g,
)
from .radial import (
    BarrierParams,
    CatenoidParams,
    FluxGraph,
    NoAdmissibleFluxError,
    RadialProfile,
    barrier_f,
    catenoid_flux_check,
    radial_mse_solve,
    subsolution_check,
    t0_min,
)
from .solver import (
    AnnulusGrid,
    ExteriorSolution,
    NewtonError,
    SolverConfig,
    asymptotic_solve,
    boundary_gradient_sup,
    cartesian_operator_residual,
    dirichlet_solve,
    exterior_solve,
    foliation_check,
    mse_operator,
)
from .verify import (
    ClaimReport,
    SurfaceSample,
    graph_embed,
    mean_curvature_residual,
    run_claim_checks,
)

__version__ = "0.1.0"
