"""Scattering through non-Hermitian tight-binding centers.

Compute scattering matrices of small complex centers coupled to uniform
leads, verify the conservation law linking a center to its Hermitian
conjugate, search for pseudo-Hermiticity metrics that protect energy or
energy-difference conservation, and run wave-packet experiments on finite
embedding chains.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .conservation import (
    ConservationReport,
    FluxClass,
    classify_flux,
    flux_deviations,
    verify_conservation_law,
)
from .cmt import CmtCoupling, cmt_smatrix, two_port_coupling
from .dynamics import (
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

# The public names are the ones imported above; the submodules they bind stay
# reachable as attributes but are not exported.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
