"""Scattering through non-Hermitian tight-binding centers.

Compute scattering matrices of small complex centers coupled to uniform
leads, verify the conservation law linking a center to its Hermitian
conjugate, search for pseudo-Hermiticity metrics that protect energy or
energy-difference conservation, and run wave-packet experiments on finite
embedding chains.
"""

__version__ = "0.1.0"

from .conservation import (
    ConservationReport,
    FluxClass,
    classify_flux,
    flux_deviations,
    verify_conservation_law,
)
from .cmt import CmtCoupling, cmt_smatrix, two_port_coupling
from .dynamics import (
    ChainGeometry,
    WaveTrajectory,
    block_intensities,
    build_chain,
    gaussian_packet,
    packet_experiment,
    propagate_rk4,
)
from .errors import (
    BandEdgeError,
    ConfigError,
    ConventionMismatchError,
    DimensionTooLargeError,
    GeometryTooSmallError,
    KMismatchError,
    NotTwoPortError,
    PacketOutOfBoundsError,
    PortConditionError,
    ScatterError,
    ScatteringSingularityError,
    SingularMatrixError,
    WorkLimitError,
)
from .model import (
    DAMPED,
    UNDAMPED,
    ModeParameters,
    ScatteringSystem,
    dagger,
    make_prototype,
    mode_params,
    port_indicator,
    prototype_system,
)
from .numerics import (
    as_complex_matrix,
    determinant,
    invert,
    matrix_from_json,
    matrix_to_json,
)
from .smatrix import (
    Convention,
    ScatteringMatrix,
    closed_form_damped,
    closed_form_undamped,
    dressed_smatrix,
    lead_smatrices,
    scattering_matrix,
)
from .symmetry import (
    MetricOperator,
    PhaseClass,
    is_anti_pt,
    metric_space,
    phase_of,
    port_metric,
    port_signature,
)

__all__ = [
    "BandEdgeError",
    "ChainGeometry",
    "CmtCoupling",
    "ConfigError",
    "ConservationReport",
    "Convention",
    "ConventionMismatchError",
    "DAMPED",
    "DimensionTooLargeError",
    "FluxClass",
    "GeometryTooSmallError",
    "KMismatchError",
    "MetricOperator",
    "ModeParameters",
    "NotTwoPortError",
    "PacketOutOfBoundsError",
    "PhaseClass",
    "PortConditionError",
    "ScatterError",
    "ScatteringMatrix",
    "ScatteringSingularityError",
    "ScatteringSystem",
    "SingularMatrixError",
    "UNDAMPED",
    "WaveTrajectory",
    "WorkLimitError",
    "as_complex_matrix",
    "block_intensities",
    "build_chain",
    "classify_flux",
    "closed_form_damped",
    "closed_form_undamped",
    "cmt_smatrix",
    "dagger",
    "determinant",
    "dressed_smatrix",
    "flux_deviations",
    "gaussian_packet",
    "invert",
    "is_anti_pt",
    "lead_smatrices",
    "make_prototype",
    "matrix_from_json",
    "matrix_to_json",
    "metric_space",
    "mode_params",
    "packet_experiment",
    "phase_of",
    "port_indicator",
    "port_metric",
    "port_signature",
    "propagate_rk4",
    "prototype_system",
    "scattering_matrix",
    "two_port_coupling",
    "verify_conservation_law",
]
