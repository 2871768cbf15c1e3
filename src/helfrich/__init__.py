"""Helfrich / locally constrained Willmore energies, Euler-Lagrange residuals,
and descent flows on triangle meshes and exact parametric surfaces."""

from .analytic import (
    AmbientField,
    EstimateReport,
    ParametricSurface,
    PointGeometry,
    QuadratureGrid,
    catenoid,
    enclosed_volume,
    estimate_report,
    graph_surface,
    identity_check,
    oracle_geometry,
    oracle_integrate,
    plane_patch,
    sphere,
    torus,
    variation_check,
)
from .classify import (
    BranchVerdict,
    ScanTable,
    classify_case,
    critical_sphere_radius,
    plane_residual,
    radius_scan,
    sphere_family_energy,
    sphere_residual,
)
from .curvature import (
    CurvatureBundle,
    SparseOperator,
    cotan_operator,
    curvature_bundle,
    laplace_field,
)
from .energy import EnergyParams, EnergyReport, evaluate_energies, localized_gap
from .errors import (
    DomainError,
    FitError,
    HelfrichError,
    MeshInputError,
    NumericalError,
    OperatorError,
    ParameterError,
    TopologyError,
    UndefinedFunctionalError,
    UnsupportedError,
)
from .flow import FlowConfig, FlowTrace, best_fit_sphere, flow_run
from .mesh import (
    PrimitiveSpec,
    TriangleMesh,
    catenoid_mesh,
    flat_patch,
    icosphere,
    load_mesh,
    make_primitive,
    mesh_integrals,
    perturbed_sphere,
    refine,
    save_mesh,
    validate,
)
from .variation import (
    GradientCheckReport,
    ResidualField,
    area_gradient,
    el_residual,
    energy_gradient,
    gradient_check,
    volume_gradient,
)

__version__ = "0.1.0"
