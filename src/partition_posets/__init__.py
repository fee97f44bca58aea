"""Sign-vector posets behind the number-partitioning problem.

The library materializes the poset of {+1,-1} vectors under prefix-sum
dominance and its middle subposet of vectors incomparable with zero, verifies
their structural properties exactly, and solves the optimization version of
the partition problem through candidate reduction over that subposet.

The names from ``poset``, whose module imports numpy, are loaded on first
access.  The Q(n) table comes from ``core`` as bytes, and so does the
longest-chain height that ``profile`` cross-checks, so importing the
package, solving with a certificate, the DP, a DP-sized ``pruned`` call or
a fresh process's first meet at n <= 24, and profiling ranks and heights do
not import numpy.
"""

from types import ModuleType as _ModuleType

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


# each public name is spelled once, in its import above or in _POSET_NAMES;
# the submodules bound by those imports are not part of the API
__all__ = sorted(_POSET_NAMES.union(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
))
del _ModuleType

