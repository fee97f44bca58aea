"""Exact sizes and rank profiles of the posets, computed without enumeration.

The full poset's profile is the coefficient list of prod_{i<=n} (1 + q^i):
level t counts the subsets of [n] with element sum t.  The nonnegative
half-space R+(n) is profiled by a lattice-path DP refined by rank, where the
rank of a vector is (n+1) * (#up-steps) - (sum of up-step positions); the
middle poset's profile is what remains after removing both half-spaces.

Both DPs run on packed integers (Kronecker substitution): a polynomial is one
Python int whose coefficient of q^t sits in the fixed-width slot t, so one
big-int shift and add updates every coefficient at once.  Every count at
n <= MAX_COUNT_N stays below 2**MAX_COUNT_N, which the slot width is derived
from, so slots never carry into each other; the n <= 120 guard keeps that
bound (and runtimes) honest, raising instead of ever producing a wrapped or
approximate count.

Each profile is an ``lru_cache``d pure function, safe to call concurrently:
P(n) is packed at the n asked for, and R+(n) is read off the one cached
ballot walk, which ascending requests extend and a smaller n walks anew.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import MAX_COUNT_N, PosetKind
from .errors import TooLarge, TooSmall

U128_LIMIT = 1 << 128
_SLOT_BYTES = MAX_COUNT_N // 8 + 1  # holds any count below 2**MAX_COUNT_N
_SLOT = 8 * _SLOT_BYTES


@dataclass(frozen=True)
class RankProfile:
    """Element counts per rank level.

    For kinds P, R+ and R- the index is the P-rank (length n(n+1)/2 + 1 with
    zeros on unpopulated levels).  For kind Q the index is the Q-rank, i.e.
    the P-rank shifted down by n.
    """

    kind: PosetKind
    n: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ProfileChecks:
    symmetric: bool
    unimodal: bool
    max_level: int


def _unpack(packed: int, length: int) -> tuple[int, ...]:
    """The coefficients in the first ``length`` slots of a packed int."""
    raw = packed.to_bytes(length * _SLOT_BYTES, "little")
    return tuple([int.from_bytes(raw[i:i + _SLOT_BYTES], "little")
                  for i in range(0, len(raw), _SLOT_BYTES)])


def _guard(n: int) -> None:
    if n < 1:
        raise TooSmall("n must be at least 1")
    if n > MAX_COUNT_N:
        raise TooLarge(f"counting is capped at n = {MAX_COUNT_N}")


@functools.lru_cache(maxsize=1)
def _ballot(steps: int) -> tuple[int, ...]:
    """Packed nonnegative paths of ``steps`` steps by up-step count u, over
    the key (sum of up positions) - u(u+1)/2.  The offset, the least sum,
    does not depend on the step: entry u (live for 2u >= steps) is a
    down-step from entry u, which keeps the key, plus an up-step at
    ``steps`` from entry u - 1, which adds steps - u, so each entry is one
    shift and one add, and it holds only its u(steps-u)+1 live slots.  Only
    the last walk is kept, so ascending requests extend it by one step and
    a smaller one walks anew."""
    if steps == 0:
        return (1,)
    prev = (*_ballot(steps - 1), 0)  # no walk of steps - 1 steps has steps up-steps
    nxt = [0] * (steps + 1)
    for u in range((steps + 1) // 2, steps + 1):
        nxt[u] = prev[u] + (prev[u - 1] << _SLOT * (steps - u))
    return tuple(nxt)


@functools.lru_cache(maxsize=None)
def p_rank_profile(n: int) -> RankProfile:
    """counts[t] = number of subsets of [n] with element sum t."""
    _guard(n)
    packed = 1
    for i in range(1, n + 1):
        packed += packed << _SLOT * i
    counts = _unpack(packed, n * (n + 1) // 2 + 1)
    if sum(counts) != 1 << n:
        raise AssertionError("profile total disagrees with 2**n")
    return RankProfile(kind=PosetKind.P, n=n, counts=counts)


@functools.lru_cache(maxsize=None)
def rplus_rank_profile(n: int) -> RankProfile:
    """Per-rank counts of vectors whose running sums never go negative."""
    _guard(n)
    ballot = _ballot(n)
    # rank (n+1)u - u(u+1)/2 - key lands in R- slot r - rank
    r = n * (n + 1) // 2
    rminus = sum(ballot[u] << _SLOT * (r - (n + 1) * u + u * (u + 1) // 2)
                 for u in range((n + 1) // 2, n + 1))
    counts = _unpack(rminus, r + 1)[::-1]
    if sum(counts) != math.comb(n, n // 2):
        raise AssertionError("half-space total disagrees with the central binomial")
    return RankProfile(kind=PosetKind.R_PLUS, n=n, counts=counts)


def rminus_rank_profile(n: int) -> RankProfile:
    """The mirror half-space, by rank reflection of R+ (negation symmetry)."""
    plus = rplus_rank_profile(n)
    return RankProfile(kind=PosetKind.R_MINUS, n=n, counts=plus.counts[::-1])


def q_rank_profile(n: int) -> RankProfile:
    """Middle-poset counts by Q-rank: full profile minus both half-spaces,
    re-indexed by subtracting n."""
    _guard(n)
    p = p_rank_profile(n).counts
    rp = rplus_rank_profile(n).counts
    diff = [a - b - c for a, b, c in zip(p, rp, reversed(rp))]
    if any(v < 0 for v in diff):
        raise AssertionError("half-space profiles exceed the full profile")
    r = n * (n + 1) // 2
    lo, hi = min(n, r + 1), max(r - n + 1, 0)
    if any(diff[:lo]) or any(diff[hi:]):
        raise AssertionError("middle poset has mass outside rank window [n, r-n]")
    counts = tuple(diff[lo:hi])
    if sum(counts) != q_size(n):
        raise AssertionError("middle-poset profile total disagrees with closed form")
    return RankProfile(kind=PosetKind.Q, n=n, counts=counts)


def q_size(n: int) -> int:
    """Closed-form size of the middle poset: 2^n - 2 * C(n, floor(n/2))."""
    _guard(n)
    return (1 << n) - 2 * math.comb(n, n // 2)


def width_value(n: int) -> int:
    """The middle coefficient N([n], floor(n(n+1)/4)): the width of both posets."""
    profile = p_rank_profile(n).counts
    value = profile[n * (n + 1) // 4]
    if value != max(profile):
        raise AssertionError("middle coefficient is not the peak level")
    return value


def catalan(m: int) -> int:
    """Number of 2m-step nonnegative walks from 0 back to 0."""
    if m < 0:
        raise TooSmall("catalan is defined for m >= 0")
    if m > 63:
        raise TooLarge("catalan is capped at m = 63 to honor the 128-bit bound")
    value, rem = divmod(math.comb(2 * m, m), m + 1)
    if rem:
        raise AssertionError("central binomial not divisible by m + 1")
    return value


def ballot_count(n: int) -> int:
    """Number of n-step walks from 0 that never go negative.

    Computed by the doubling recurrence (subtracting the walks that return
    to 0 on odd steps) and cross-checked against the closed form
    C(n, floor(n/2)); the two must agree exactly.
    """
    if n == 0:
        return 1
    _guard(n)
    x = 1
    for i in range(1, n + 1):
        x = 2 * x - (catalan((i - 1) // 2) if i % 2 else 0)
    closed = math.comb(n, n // 2)
    if x != closed:
        raise AssertionError(f"recurrence {x} != closed form {closed} at n = {n}")
    if x >= U128_LIMIT:
        raise AssertionError("count exceeded the 128-bit bound")
    return x


def height_formula(n: int, kind: PosetKind) -> int:
    """Closed-form largest chain size for P(n) or Q(n)."""
    if kind is PosetKind.P:
        if n < 1:
            raise TooSmall("P(n) needs n >= 1")
        return n * (n + 1) // 2 + 1
    if kind is not PosetKind.Q:
        raise ValueError("height formulas exist for kinds P and Q")
    if n < 3:
        raise TooSmall(f"Q({n}) is empty")
    if n >= 8:
        return (n - 2) * (n - 3) // 2 + 1
    ell = (n - 1) // 2
    return n * (n - 1) // 2 - (2 * n - 3 * ell) * (ell + 1) // 2 + 1


def profile_checks(profile: RankProfile) -> ProfileChecks:
    """Rank-symmetry and rank-unimodality of the populated levels."""
    counts = list(profile.counts)
    while counts and counts[0] == 0:
        counts.pop(0)
    while counts and counts[-1] == 0:
        counts.pop()
    if not counts:
        return ProfileChecks(symmetric=True, unimodal=True, max_level=0)
    symmetric = counts == counts[::-1]
    k = 0
    while k + 1 < len(counts) and counts[k] <= counts[k + 1]:
        k += 1
    while k + 1 < len(counts) and counts[k] >= counts[k + 1]:
        k += 1
    return ProfileChecks(
        symmetric=symmetric,
        unimodal=k == len(counts) - 1,
        max_level=max(counts),
    )
