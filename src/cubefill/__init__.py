"""Z2 cycle filling in the n-cube.

Chain algebra on cube cells, constructive filling algorithms with
certified weight bounds, an exact minimum-weight search, and the
alternating-block cycle family whose fillings make those bounds tight.
"""

from .chainfile import (
    ChainFormatError,
    format_chain_text,
    parse_chain_text,
    read_chain,
    write_chain,
)
from .chains import Chain, SliceDecomposition, random_cycle
from .constants import (
    BOUND_REL_TOL,
    PREDICATE_TOL,
    ConstantSet,
    c_constant,
    check_absorbed_cost,
    check_split_overhead,
    constants_for,
    leq_with_tolerance,
)
from .faces import (
    MAX_COORDINATES,
    Face,
    enumerate_faces,
    face_count,
    parse_face,
    render_face,
)
from .filling import (
    DEFAULT_NODE_BUDGET,
    FillResult,
    connected_components,
    exact_fill,
    fill_bound_linear,
    fill_bound_power,
    linear_fill,
    recursive_fill,
    support_subcube,
)
from .minimizers import (
    SharpnessRow,
    minimizer_cycle,
    minimizer_fill_value,
    minimizer_member,
    minimizer_norm,
    sharpness_asymptote,
    sharpness_table,
    verify_minimizer,
)

__version__ = "0.1.0"

__all__ = [
    "BOUND_REL_TOL",
    "Chain",
    "ChainFormatError",
    "ConstantSet",
    "DEFAULT_NODE_BUDGET",
    "Face",
    "FillResult",
    "MAX_COORDINATES",
    "PREDICATE_TOL",
    "SharpnessRow",
    "SliceDecomposition",
    "c_constant",
    "check_absorbed_cost",
    "check_split_overhead",
    "connected_components",
    "constants_for",
    "enumerate_faces",
    "exact_fill",
    "face_count",
    "fill_bound_linear",
    "fill_bound_power",
    "format_chain_text",
    "leq_with_tolerance",
    "linear_fill",
    "minimizer_cycle",
    "minimizer_fill_value",
    "minimizer_member",
    "minimizer_norm",
    "parse_chain_text",
    "parse_face",
    "random_cycle",
    "read_chain",
    "recursive_fill",
    "render_face",
    "sharpness_asymptote",
    "sharpness_table",
    "support_subcube",
    "verify_minimizer",
    "write_chain",
]
