"""Covering codes over [q]^n: constructions, exact optima, density bounds."""

from .bounds import (
    BoundParams,
    OptimizationResult,
    classic_bound,
    closed_form_bound,
    closed_form_chain_check,
    feasibility,
    nested_parametric_bound,
    optimize_parametric_bound,
    parametric_bound,
)
from .codes import (
    Code,
    CoverVerdict,
    SampleVerdict,
    code_from_dict,
    code_to_dict,
    density,
    read_code,
    verify_covering,
    verify_covering_sampled,
)
from .construct import (
    ConstructionTrace,
    DominationResult,
    dominating_partial,
    recursive_construct,
)
from .errors import (
    DominationFailure,
    InfeasibleParamsError,
    SpaceTooLargeError,
)
from .hamming import (
    DEFAULT_ENUMERATION_GUARD,
    HammingSpace,
    Word,
    ball_volume,
    hamming_distance,
    index_word,
    word_index,
)
from .solver import EXACT_SOLVER_GUARD, SolveResult, greedy_ball_cover, minimal_covering_code

__version__ = "0.1.0"
