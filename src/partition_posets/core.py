"""Sign vectors, the prefix-sum partial order, and partition arithmetic.

A subset S of [n] is encoded as the length-n vector with +1 at positions in S
and -1 elsewhere; the signed partition difference of S is the inner product of
that vector with the instance weights.  The order compares running sums
componentwise, so comparability of two vectors decides the inequality of their
differences for every weight vector at once.

The poset kinds, the classification of one vector among them and of all
2**n masks at once (the membership tables), the two cover operator families
as bitmask moves and the masks of Q(n)'s extremal elements live here too:
they are pure Python, so the solvers and the counting layer need no numpy
to read them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import EmptyInput, LengthMismatch, NegativeValue, Overflow, TooLarge, TooSmall

MAX_N = 64
"""Vector lengths are capped by the bitmask encoding."""

MAX_COUNT_N = 120
"""Exact rank profiles (the ``counting`` layer) are computed up to this n."""

VALUE_LIMIT = 1 << 63
"""Weights and totals must stay below 2**63 so signed 64-bit arithmetic is exact."""


@dataclass(frozen=True)
class SignVector:
    """A length-n vector over {+1, -1}.

    Bit i-1 of ``mask`` is set exactly when entry i equals +1 (entries are
    1-based throughout, matching the [n] index convention).
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_N:
            raise ValueError(f"length must be in [1, {MAX_N}], got {self.n}")
        if not 0 <= self.mask < 1 << self.n:
            raise ValueError("mask has bits beyond position n-1")

    @classmethod
    def from_entries(cls, entries: Iterable[int]) -> "SignVector":
        entries = tuple(entries)
        mask = 0
        for i, e in enumerate(entries):
            if e == 1:
                mask |= 1 << i
            elif e != -1:
                raise ValueError(f"entries must be +1 or -1, got {e!r}")
        return cls(len(entries), mask)

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(1 if self.mask >> i & 1 else -1 for i in range(self.n))

    def entry(self, i: int) -> int:
        """The i-th entry, 1-based."""
        if not 1 <= i <= self.n:
            raise IndexError(f"entry index {i} outside [1, {self.n}]")
        return 1 if self.mask >> (i - 1) & 1 else -1

    def sign_string(self) -> str:
        """Entries left to right as '+'/'-', e.g. '+-+--'."""
        return "".join("+" if self.mask >> i & 1 else "-" for i in range(self.n))

    def __neg__(self) -> "SignVector":
        return negate(self)

    def __le__(self, other: "SignVector") -> bool:
        # partial order: incomparable pairs fail in both directions
        return leq(self, other)

    def __repr__(self) -> str:
        return f"SignVector({self.sign_string()!r})"


@dataclass(frozen=True)
class SubsetRef:
    """A subset of [n], kept as a strictly increasing tuple of 1-based indices."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices", tuple(self.indices))
        prev = 0
        for i in self.indices:
            if not prev < i <= self.n:
                raise ValueError(
                    f"indices must be strictly increasing within [1, {self.n}]"
                )
            prev = i

    def __len__(self) -> int:
        return len(self.indices)


class PosetKind(Enum):
    P = "P"
    Q = "Q"
    R_PLUS = "R+"
    R_MINUS = "R-"


@dataclass(frozen=True)
class Instance:
    """A normalized instance: weights sorted non-increasingly.

    ``perm[k]`` is the original 1-based position of ``c[k]``, so results
    computed on the sorted weights can be reported in input order.
    """

    c: tuple[int, ...]
    perm: tuple[int, ...]
    total: int

    @property
    def n(self) -> int:
        return len(self.c)


def _shown(v: int) -> str:
    """``v``, or past 128 bits a power-of-two bound (str() refuses 4,300 digits)."""
    k = v.bit_length() - 1
    return str(v) if k < 128 else f"-2**{k} or less" if v < 0 else f"2**{k} or more"


def normalize_instance(raw: Sequence[int]) -> Instance:
    """Sort weights non-increasingly (stable on ties) and record the permutation.

    Raises ``TooLarge`` beyond ``MAX_N`` weights, the length of a sign-vector
    bitmask, and ``Overflow`` for a weight or total of 2**63 or more.
    """
    try:
        values = list(map(operator.index, raw))
    except TypeError as exc:
        raise NegativeValue(f"weights must be integers: {exc}") from None
    if not values:
        raise EmptyInput("an instance needs at least one weight")
    if len(values) > MAX_N:
        raise TooLarge(f"an instance holds at most {MAX_N} weights, got {len(values)}")
    if min(values) < 0 or max(values) >= VALUE_LIMIT:
        for v in values:  # the first offending weight, in input order
            if v < 0:
                raise NegativeValue(f"weights must be nonnegative, got {_shown(v)}")
            if v >= VALUE_LIMIT:
                raise Overflow(f"weight {_shown(v)} does not fit in 63 bits")
    total = sum(values)
    if total >= VALUE_LIMIT:
        raise Overflow("total weight does not fit in 63 bits")
    at = [0, *values]  # at[k] is the weight at 1-based position k
    perm = tuple(sorted(range(1, len(at)), key=at.__getitem__, reverse=True))  # stable on ties
    return Instance(c=tuple(map(at.__getitem__, perm)), perm=perm, total=total)


def from_subset(s: SubsetRef) -> SignVector:
    """The vector with +1 exactly at the subset's positions."""
    mask = 0
    for i in s.indices:
        mask |= 1 << (i - 1)
    return SignVector(s.n, mask)


def to_subset(v: SignVector) -> SubsetRef:
    """Positions carrying +1, as a subset of [n]; inverse of from_subset."""
    return SubsetRef(tuple(i + 1 for i in range(v.n) if v.mask >> i & 1), v.n)


def negate(v: SignVector) -> SignVector:
    """Entrywise negation, i.e. the complement subset."""
    return SignVector(v.n, v.mask ^ ((1 << v.n) - 1))


def prefix_sums(v: SignVector) -> tuple[int, ...]:
    """Running sums of the entries; the last equals 2|S| - n."""
    out = []
    s = 0
    for i in range(v.n):
        s += 1 if v.mask >> i & 1 else -1
        out.append(s)
    return tuple(out)


def leq(v: SignVector, w: SignVector) -> bool:
    """Prefix-sum dominance: every running sum of v is <= the one of w."""
    if v.n != w.n:
        raise LengthMismatch(f"lengths differ: {v.n} != {w.n}")
    sv = sw = 0
    for i in range(v.n):
        sv += 1 if v.mask >> i & 1 else -1
        sw += 1 if w.mask >> i & 1 else -1
        if sv > sw:
            return False
    return True


def delta(v: SignVector, inst: Instance) -> int:
    """Signed partition difference: weights at +1 entries minus the rest."""
    if v.n != inst.n:
        raise LengthMismatch(f"vector length {v.n} != instance size {inst.n}")
    s = 0
    for i in range(v.n):
        if v.mask >> i & 1:
            s += inst.c[i]
    return s - (inst.total - s)


def diff_vector(inst: Instance) -> tuple[int, ...]:
    """Consecutive weight differences d[i] = c[i] - c[i+1], with c[n+1] = 0.

    The identity delta(v) == dot(prefix_sums(v), diff_vector(inst)) rewrites
    the difference in a form where order comparisons become sign arguments.
    """
    c = inst.c
    return tuple(c[i] - c[i + 1] for i in range(len(c) - 1)) + (c[-1],)


def iso_f(v: SignVector) -> SubsetRef:
    """Image of v in the subset-dominance world: i is in the image iff entry n+1-i is +1."""
    return SubsetRef(tuple(sorted(v.n - i for i in range(v.n) if v.mask >> i & 1)), v.n)


def membership(v: SignVector) -> PosetKind:
    """Classify v: above zero (R+), below zero (R-), or in the middle poset Q."""
    ps = prefix_sums(v)
    if min(ps) >= 0:
        return PosetKind.R_PLUS
    if max(ps) <= 0:
        return PosetKind.R_MINUS
    return PosetKind.Q


TABLE_MAX_N = 24
"""Membership tables hold one byte per mask, so they stop at 2**24 bytes."""

# A table state is one byte: the running sum plus 32 in bits 0-5, bit 6 set
# once it went negative, bit 7 once it went positive.  The step tables map
# every byte, reachable or not, to the state after one more entry -1 or +1.
_DOWN, _UP = (bytes(s & 192 | (s + d) & 63 | 64 * ((s & 63) + d < 32) | 128 * ((s & 63) + d > 32)
                    for s in range(256)) for d in (-1, 1))
_PICK = {PosetKind.Q: bytes(s >= 192 for s in range(256)),  # went both ways
         PosetKind.R_PLUS: bytes(not s & 64 for s in range(256)),
         PosetKind.R_MINUS: bytes(not s & 128 for s in range(256))}
_TOP_BITS = 8  # membership_table composes this many top entries


@lru_cache(maxsize=None)
def membership_table(n: int, kind: PosetKind) -> bytes:
    """One byte per mask of P(n), 1 exactly for the members of ``kind``
    (Q, R+ or R-): ``membership`` of all 2**n masks at once, cached.

    Masks m and m | 2**(j-1) share their first j - 1 entries, so the states
    of the low entries double: those of one entry fewer stepped down, then
    up, one ``bytes.translate`` each.  The top (at most 8) entries are
    composed instead, with the pick of the kind, into one translate table
    per top pattern t; row t of the table is the low states translated
    through table t, and the table is written once, by one join."""
    if kind not in _PICK:
        raise ValueError("membership tables exist for kinds Q, R+ and R-")
    if not 1 <= n <= TABLE_MAX_N:
        raise (TooSmall("n must be at least 1") if n < 1 else
               TooLarge(f"membership tables stop at n = {TABLE_MAX_N}"))
    states = bytes([32])  # running sum 0
    for _ in range(n - _TOP_BITS):
        states = states.translate(_DOWN) + states.translate(_UP)
    tops = [bytes(range(256))]
    for _ in range(min(n, _TOP_BITS)):
        tops = [t.translate(_DOWN) for t in tops] + [t.translate(_UP) for t in tops]
    pick = _PICK[kind]
    return b"".join([states.translate(t.translate(pick)) for t in tops])


@lru_cache(maxsize=None)
def cover_moves(n: int) -> tuple[tuple[int, int], ...]:
    """The two cover operator families of P(n) as (flip, low) pairs: a mask
    u with ``u & flip == low`` is covered by ``u ^ flip``.

    The swap of an adjacent (-1, +1) pair at bits j, j + 1 (flip 3 << j, low
    2 << j) maps u to u - 2**j; the addition at the last entry (flip
    2**(n - 1), low 0) maps u to u + 2**(n - 1).  The swaps come first, for
    j descending, then the addition, so one mask's covers come in ascending
    order, as ``upper_covers`` and ``build_hasse`` list them.
    ``solver.solve_pruned``'s ascent reads the moves reversed, the addition
    and then the swaps for j ascending, so in descending order.
    """
    return tuple((3 << j, 2 << j) for j in range(n - 2, -1, -1)) + ((1 << n - 1, 0),)


def max_element_mask(n: int, k: int) -> int:
    """Maximal element k of Q(n): k ones, then k+1 minus-ones, then ones."""
    head = (1 << k) - 1
    return head | (((1 << (n - 2 * k - 1)) - 1) << (2 * k + 1))


def min_element_mask(n: int, k: int) -> int:
    """Minimal element k of Q(n): k minus-ones, then k+1 ones, then minus-ones."""
    return ((1 << (k + 1)) - 1) << k
