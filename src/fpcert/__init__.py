"""Rigorous fixed-point existence certificates via interval arithmetic."""

from .certify import (
    CERTIFIED,
    INDETERMINATE,
    REFUTED,
    Certificate,
    SingleHoleError,
    UnsupportedDomainError,
    certify_cone_shell,
    certify_cylinder,
    certify_holes,
    certify_miranda,
    certify_problem,
)
from .continuation import ContinuumWitness, trace_continuum
from .degree import (
    BoundaryZeroError,
    DegreeResult,
    degree_1d,
    fixed_point_index,
    winding_degree_2d,
)
from .geometry import (
    AnnulusSpec,
    ConeShellSpec,
    CylinderSpec,
    Functional,
    HoledBallSpec,
    RectDomain,
    face,
    parse_domain,
)
from .interval import (
    Box,
    DegenerateAxisError,
    DimensionMismatchError,
    DomainError,
    Interval,
    IntervalDivisionError,
)
from .localize import (
    Enclosure,
    LocalizeResult,
    localize_fixed_points,
)
from .mapdsl import (
    EvaluationError,
    MapSpec,
    ParseError,
    UnknownIdentifierError,
    flip_coordinates,
    parse_map,
    parse_program,
)

__version__ = "0.1.0"
