"""Sign-vector posets behind the number-partitioning problem.

The library materializes the poset of {+1,-1} vectors under prefix-sum
dominance and its middle subposet of vectors incomparable with zero, verifies
their structural properties exactly, and solves the optimization version of
the partition problem through candidate reduction over that subposet.

The names from ``poset``, whose module imports numpy, are loaded on first
access, so importing the package, solving with a certificate or the DP, and
counting rank profiles do not import numpy.
"""

from .core import (
    Instance,
    PosetKind,
    SignVector,
    SubsetRef,
    delta,
    diff_vector,
    from_subset,
    iso_f,
    leq,
    membership,
    negate,
    normalize_instance,
    prefix_sums,
    to_subset,
)
from .counting import (
    ProfileChecks,
    RankProfile,
    ballot_count,
    catalan,
    height_formula,
    p_rank_profile,
    profile_checks,
    q_rank_profile,
    q_size,
    rminus_rank_profile,
    rplus_rank_profile,
    width_value,
)
from .errors import (
    EmptyInput,
    LengthMismatch,
    NegativeValue,
    NotInPoset,
    OperatorUndefined,
    Overflow,
    ParseError,
    PartitionPosetsError,
    TooLarge,
    TooSmall,
    UnknownAlgorithm,
    UnknownCheck,
    WidthUncertified,
)
from .solver import (
    ALGORITHMS,
    Solution,
    solve,
    solve_brute,
    solve_corollary,
    solve_dp,
    solve_min_fastpath,
    solve_mitm,
    solve_pruned,
    solve_q_enum,
)

__version__ = "0.1.0"

_POSET_NAMES = frozenset({
    "CheckResult",
    "Extremes",
    "HasseDag",
    "apply_addition",
    "apply_swap",
    "build_hasse",
    "extremes",
    "iter_poset",
    "lower_covers",
    "m_dominance_leq",
    "meet_join",
    "poset_height",
    "poset_width",
    "rank",
    "upper_covers",
    "verify_structure",
})


def __getattr__(name: str):
    # PEP 562: the first access to a poset name imports .poset (and numpy)
    if name in _POSET_NAMES:
        from . import poset

        value = globals()[name] = getattr(poset, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _POSET_NAMES)

__all__ = [
    "ALGORITHMS",
    "CheckResult",
    "EmptyInput",
    "Extremes",
    "HasseDag",
    "Instance",
    "LengthMismatch",
    "NegativeValue",
    "NotInPoset",
    "OperatorUndefined",
    "Overflow",
    "ParseError",
    "PartitionPosetsError",
    "PosetKind",
    "ProfileChecks",
    "RankProfile",
    "SignVector",
    "Solution",
    "SubsetRef",
    "TooLarge",
    "TooSmall",
    "UnknownAlgorithm",
    "UnknownCheck",
    "WidthUncertified",
    "apply_addition",
    "apply_swap",
    "ballot_count",
    "build_hasse",
    "catalan",
    "delta",
    "diff_vector",
    "extremes",
    "from_subset",
    "height_formula",
    "iso_f",
    "iter_poset",
    "leq",
    "lower_covers",
    "m_dominance_leq",
    "meet_join",
    "membership",
    "negate",
    "normalize_instance",
    "p_rank_profile",
    "poset_height",
    "poset_width",
    "prefix_sums",
    "profile_checks",
    "q_rank_profile",
    "q_size",
    "rank",
    "rminus_rank_profile",
    "rplus_rank_profile",
    "solve",
    "solve_brute",
    "solve_corollary",
    "solve_dp",
    "solve_min_fastpath",
    "solve_mitm",
    "solve_pruned",
    "solve_q_enum",
    "to_subset",
    "upper_covers",
    "verify_structure",
    "width_value",
]
