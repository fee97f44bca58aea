"""Exact partition solvers.

Two independent oracles (exhaustive scan and subset-sum DP), an enumeration
restricted to the middle poset Q(n) (which contains a representative of every
optimal partition), a dominance-pruned ascent over Q's cover DAG, two
closed-form fast paths built on its extremal elements, and a meet in the
middle on the signed sums of the two halves of the weights.  All of them
report the same optimal |delta|; subsets are reported in the original input
order.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress
from typing import TYPE_CHECKING

from .core import (
    Instance,
    PosetKind,
    TABLE_MAX_N,
    SubsetRef,
    cover_moves,
    max_element_mask,
    membership,  # not called here: bench/tracing.py wraps solver.membership
    membership_table,
    min_element_mask,
)
from .counting import q_size
from .errors import TooLarge, TooSmall, UnknownAlgorithm

if TYPE_CHECKING:
    import numpy as np

# numpy is imported inside the functions that build delta tables or search
# half sums; core's Q(n) table is bytes, so DP-sized solves run without it,
# and so does a process's first meet in the middle at n <= TABLE_MAX_N

BRUTE_MAX_N = 24  # brute's run time; Q(n) solvers stop at core.TABLE_MAX_N
DP_MAX_CELLS = 10**8
SWEEP_DP_MAX_CELLS = 1 << 22  # the closed form reads v* from the DP bitset up to here
_BLOCK_BITS = 20  # scans and candidate tests hold 2**20-cell (8 MB) arrays


@dataclass(frozen=True)
class Solution:
    """An exact partition result.

    ``subset`` uses original 1-based input positions.  ``nodes_visited``
    counts candidate evaluations: sign patterns scanned by the enumeration
    solvers, extremal elements tested by the fast paths, half sums built by
    the meet in the middle.  For the DP oracle it is the table size
    n * (total + 1), not the cells filled: the build stops at the first
    prefix that reaches ceil(total/2).  For the pruned ascent it counts
    heap pops plus the nonnegative minimal elements; its closed form, one
    answer that "auto" and "pruned" share, counts a full sweep's |Q(n)|/2
    pops.
    """

    subset: SubsetRef
    delta: int
    abs_delta: int
    algorithm: str
    nodes_visited: int


@lru_cache(maxsize=None)
def _signs(k: int) -> np.ndarray:
    # row m of the read-only (2^k, k) int64 matrix is the sign vector of
    # mask m: +1 at the columns of its set bits, -1 elsewhere.  No caller
    # passes _delta_table more than 22 weights, so k <= 11 (180 KB)
    import numpy as np

    bits = np.arange(1 << k)[:, None] >> np.arange(k) & 1
    signs = (2 * bits - 1).astype(np.int64)
    signs.flags.writeable = False
    return signs


def _delta_table(c: tuple[int, ...]) -> np.ndarray:
    """All 2^len(c) signed sums in int64, weight i taken + in the masks with
    bit i: mask t << h | lo (h = len(c) // 2) adds the signed sums of c[h:]
    and c[:h], each a ``_signs`` product.  Every partial sum of a product,
    and every cell, is a signed sum of some of the weights, so at most the
    total in size and exact."""
    import numpy as np

    h = len(c) // 2
    w = np.array(c, dtype=np.int64)
    return np.add.outer(_signs(len(c) - h) @ w[h:], _signs(h) @ w[:h]).ravel()


def _meet(lows: np.ndarray, highs: np.ndarray) -> tuple[np.ndarray, ...]:
    """Horowitz & Sahni's half-sum kernel on sorted values.  Row t holds
    the sums lows + highs[t] and is named by its query q = -highs[t], not
    by t.  Returns the queries sorted into ``queries``, and per sorted
    query its row's least sum >= 0, ``above``, and greatest sum < 0,
    ``below``.  A row with no sum >= 0
    clips ``above`` to its greatest sum and one with no sum < 0 clips
    ``below`` to its least, so every entry is one of its row's sums, and
    the least |sum| of a row is the smaller of its |above| and |below|.
    Callers find a row by its query's value (``_first_row``).

    The queries ascend, so each search starts where the last one ended.
    All three arrays are new: callers may overwrite them."""
    import numpy as np

    keys = np.sort(lows)
    queries = np.negative(highs)
    queries.sort()
    j = np.searchsorted(keys, queries)
    above = keys.take(j, mode="clip")
    above -= queries
    j -= 1
    below = keys.take(j, mode="clip")
    below -= queries
    return queries, above, below


def _first_row(highs: np.ndarray, winners: np.ndarray) -> int:
    """The first row t whose query -highs[t] is among the sorted
    ``winners``, one entry per winning row.  When they are all one query,
    however many rows share it, one comparison of ``highs`` against it
    finds the row.  Otherwise, with w of the N rows winning, the first lies
    near row N / w, so rows are searched in slices from 8 N / w rows that
    double until one hits: one slice of every row when few win, and a
    short one when narrow weights let most rows win."""
    import numpy as np

    if winners[0] == winners[-1]:
        return int((highs == -int(winners[0])).argmax())
    start, size = 0, 8 * len(highs) // len(winners)
    while start < len(highs):
        queries = np.negative(highs[start:start + size])
        i = np.searchsorted(winners, queries)
        hit = winners.take(i, mode="clip") == queries
        if hit.any():
            return start + int(hit.argmax())
        start, size = start + size, 2 * size
    raise AssertionError("no row has a winning query")


def _minimal_deltas(inst: Instance) -> list[int]:
    """d_k = 2 sum(c[k:2k+1]) - total for k = 0..floor((n-1)/2): the delta
    of minimal element k of Q(n), +1 exactly at entries k+1..2k+1, and minus
    that of its negation, maximal element k.  O(n) from prefix sums."""
    p = list(accumulate(inst.c, initial=0))
    return [2 * (p[2 * k + 1] - p[k]) - inst.total for k in range((inst.n - 1) // 2 + 1)]


_DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _subset_from_mask(inst: Instance, mask: int) -> SubsetRef:
    # bin() writes the mask's bits once, from the top; reversed, as bytes
    # 0 and 1, character i is bit i, which selects perm[i]
    bits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)
    return SubsetRef(tuple(sorted(compress(inst.perm, bits))), inst.n)


def _make_solution(
    inst: Instance, mask: int, d: int, algorithm: str, nodes_visited: int
) -> Solution:
    return Solution(
        subset=_subset_from_mask(inst, mask),
        delta=d,
        abs_delta=abs(d),
        algorithm=algorithm,
        nodes_visited=nodes_visited,
    )


# ---------------------------------------------------------------------------
# oracles


def _scan_blocks(inst: Instance, q: bytes | None = None) -> tuple[int, int, int]:
    """Smallest |delta| over the first-entry-+1 masks, in Q(n) when ``q``
    (the Q(n) membership table) is given; returns (mask, delta, scanned).

    With h = min(n, 20), mask ``t << h | lo`` has delta ``lows[lo] + tops[t]``
    (partial sums stay below the total, so int64 is exact).  Blocks are
    scanned in ascending t and only a strictly smaller |delta| replaces the
    best, so ties resolve to the smallest mask.
    """
    import numpy as np

    h = min(inst.n, _BLOCK_BITS)
    lows = _delta_table(inst.c[:h])
    tops = _delta_table(inst.c[h:])  # at most 2**4 entries
    odd = np.arange(1, 1 << h, 2)
    q_rows = None if q is None else np.frombuffer(q, dtype=bool).reshape(-1, 1 << h)
    best_mask, best_delta = 0, inst.total + 1  # above every |delta|
    scanned = 0
    for t, top in enumerate(tops.tolist()):
        # every Q row holds lo = 1, whose running sums go +1, 0, -1
        lo = odd if q_rows is None else odd[q_rows[t, 1::2]]
        d = lows[lo] + top
        i = int(np.argmin(np.abs(d)))
        scanned += len(lo)
        if abs(int(d[i])) < abs(best_delta):
            best_mask, best_delta = t << h | int(lo[i]), int(d[i])
    return best_mask, best_delta, scanned


def solve_brute(inst: Instance) -> Solution:
    """Scan the 2^(n-1) sign patterns whose first entry is +1.

    Every unordered partition has exactly one such representative because
    negation flips the first entry.  Patterns are scanned in blocks of 2**20
    by ascending mask; |delta| ties resolve to the smallest bitmask.
    """
    if inst.n > BRUTE_MAX_N:
        raise TooLarge(f"brute force is capped at n = {BRUTE_MAX_N}")
    mask, d, scanned = _scan_blocks(inst)
    return _make_solution(inst, mask, d, "brute", scanned)


def _subset_sums(inst: Instance) -> list[int]:
    """Bitsets of reachable sums: bit s of entry i is set when some subset
    of c[:i] sums to s.  The build stops at the first prefix that reaches
    ceil(total/2), a perfect partition; bits are never lost, so every later
    entry would hold that bit too.  So fewer than n + 1 entries mean a
    perfect partition (though all n + 1 may end with one)."""
    half = (inst.total + 1) // 2
    bits = 1
    snapshots = [bits]
    for ci in inst.c:
        if bits >> half & 1:
            break
        bits |= bits << ci
        snapshots.append(bits)
    return snapshots


def _dp_optimum(inst: Instance, snapshots: list[int]) -> tuple[int, int]:
    """``solve_dp``'s (mask, delta) from ``_subset_sums(inst)``, without its
    size check.  The backtrack starts at the last bitset built; a weight
    past it is never taken, as it would not be from the full table."""
    c, total = inst.c, inst.total
    half = (total + 1) // 2
    rest = snapshots[-1] >> half  # never 0: the total itself is reachable
    s = chosen = half + (rest & -rest).bit_length() - 1
    mask = 0
    for i in range(len(snapshots) - 2, -1, -1):
        if not snapshots[i] >> s & 1:  # unreachable without item i+1: take it
            mask |= 1 << i
            s -= c[i]
    if s != 0:
        raise AssertionError("backtracking failed to reproduce the chosen sum")
    return mask, 2 * chosen - total


def solve_dp(inst: Instance, *, snapshots: list[int] | None = None) -> Solution:
    """Pseudo-polynomial oracle: reachable subset sums as bitsets.

    The complement of a subset summing below total/2 sums as far above it,
    so the smallest reachable sum >= total/2 is the closest to it, and the
    answer has delta +v* >= 0, the optimum.  The build stops at the first
    prefix that reaches ceil(total/2), a perfect partition.  The backtrack
    takes a weight only when the sum is unreachable without it, clearing
    every high bit it can (and no weight past the stop), so the answer is
    the smallest bitmask of delta +v*.  ``nodes_visited`` is the table size
    n * (total + 1), not the cells filled.  ``snapshots`` is
    ``_subset_sums(inst)`` when the caller has built it already.
    """
    cells = inst.n * (inst.total + 1)
    if cells > DP_MAX_CELLS:
        raise TooLarge(f"DP table would exceed {DP_MAX_CELLS} cells")
    if snapshots is None:
        snapshots = _subset_sums(inst)
    return _make_solution(inst, *_dp_optimum(inst, snapshots), "dp", cells)


def _signed_sums(c: tuple[int, ...], base: int) -> list[int]:
    """``_delta_table(c) + base`` as a list of ints, by doubling: entry m
    takes weight i + where bit i of m is set."""
    sums = [base - sum(c)]
    for w in c:
        sums += [s + 2 * w for s in sums]
    return sums


def _pure_mitm(inst: Instance) -> Solution:
    """``solve_mitm``'s meet in pure Python, with its exact ``Solution``.
    Row t's least |sum| is read beside one ``bisect`` of its query -hd
    among the sorted low sums, between sentinels beyond every |delta|; the
    first row that meets v* holds the smallest mask, at its first low sum
    of |delta| v*."""
    n, c = inst.n, inst.c
    h = n // 2 + 1
    lows = _signed_sums(c[1:h], c[0])
    highs = _signed_sums(c[h:], 0)
    edge = 2 * inst.total + 1
    keys = [-edge, *sorted(lows), edge]
    best, t = edge, 0
    for row, hd in enumerate(highs):
        j = bisect_left(keys, -hd)
        least = min(keys[j] + hd, -hd - keys[j - 1])
        if least < best:
            best, t = least, row
    hd = highs[t]
    lo = min(lows.index(v - hd) for v in (best, -best) if v - hd in lows)
    return _make_solution(inst, t << h | 2 * lo + 1, lows[lo] + hd, "mitm",
                          len(lows) + len(highs))


_meet_ran = False  # whether this process has called solve_mitm


def solve_mitm(inst: Instance) -> Solution:
    """Meet in the middle (Horowitz & Sahni) over the 2^(n-1) sign patterns
    whose first entry is +1, with ``brute``'s answer: the least |delta|,
    ties to the smallest bitmask.

    With h = n // 2 + 1, mask ``t << h | 2 lo + 1`` has delta ``lows[lo] +
    highs[t]``: the signed sums of weights 2..h plus the first weight, and
    those of the rest.  ``_meet`` finds each row's sums on either side of
    0; the least of their absolute values, taken in place, is the optimum
    v*, and one comparison picks the sorted queries -hd of the rows that
    meet it.  ``_first_row`` finds the first such row t, and the smallest
    mask reaching v* lies in it, at the first low mask with |lows + hd| =
    v*.  ``nodes_visited`` counts the half sums built.  Capped at n = 44,
    where a call peaks near 145 MB of arrays.

    The first call of a process that has not imported numpy runs
    ``_pure_mitm`` instead at n <= TABLE_MAX_N, where numpy's import
    (about 70 ms) outweighs the whole search: a one-instance process never
    loads it, and a long-running one pays it at its second meet.  Both
    kernels give the same ``Solution``, so only timing depends on which ran.
    """
    global _meet_ran
    n, c = inst.n, inst.c
    if n > 44:
        raise TooLarge("meet in the middle is capped at n = 44")
    first, _meet_ran = not _meet_ran, True
    if first and n <= TABLE_MAX_N and "numpy" not in sys.modules:
        return _pure_mitm(inst)
    import numpy as np

    h = n // 2 + 1
    lows = _delta_table(c[1:h])
    lows += c[0]
    highs = _delta_table(c[h:])
    queries, above, below = _meet(lows, highs)
    # in place: each row's least |sum| lands in ``above``; the kernel's
    # arrays are freed before the row search allocates its own
    least = np.minimum(np.abs(above, out=above), np.abs(below, out=below), out=above)
    best = int(least.min())
    winners = queries[least == best]
    del queries, above, below, least
    t = _first_row(highs, winners)
    hd = int(highs[t])
    # each lows + hd is a signed sum of all the weights, so no int64 overflow
    sums = lows + hd
    lo = int((np.abs(sums, out=sums) == best).argmax())
    d = int(lows[lo]) + hd
    return _make_solution(inst, t << h | 2 * lo + 1, d, "mitm", len(lows) + len(highs))


# ---------------------------------------------------------------------------
# candidate reduction to the middle poset


def solve_q_enum(inst: Instance) -> Solution:
    """Enumerate one representative per complementary pair in Q(n).

    Q(n) carries a representative of every optimal partition, so scanning its
    first-entry-+1 members (half the poset) is exact.  They are read from the
    cached Q table in blocks of 2**20 masks by ascending mask; |delta| ties
    resolve to the smallest bitmask.
    """
    n = inst.n
    if n < 3:
        raise TooSmall("Q(n) is empty for n < 3")
    if n > TABLE_MAX_N:
        raise TooLarge(f"enumeration is capped at n = {TABLE_MAX_N}")
    mask, d, scanned = _scan_blocks(inst, membership_table(n, PosetKind.Q))
    return _make_solution(inst, mask, d, "qenum", scanned)


def solve_pruned(inst: Instance) -> Solution:
    """Dominance-pruned ascent over Q(n)'s cover DAG.

    Delta never decreases along covers (weights are sorted), so a node with
    nonnegative delta dominates its whole up-set and the down-set of its
    negation: it is recorded and never expanded.  Negative nodes are expanded
    to their Q-covers; their own |delta| needs no recording since the negation
    lies above a recorded node.  |delta| is congruent to the total mod 2, so a
    recorded value equal to that parity is optimal and stops the search
    early.  The frontier pops least-negative delta first (ties by smaller
    mask), which reaches the nonnegative boundary quickly; any processing
    order gives the same value.  Each popped node offers its covers in the
    reverse of ``core.cover_moves``' order, the addition and then the swaps
    by ascending bit, which is descending mask order: of two covers of one
    node that both reach the parity, the larger mask is the answer.
    ``nodes_visited`` counts pops plus nonnegative minimal elements.

    When the optimum is above the parity, ``_full_sweep`` answers first in
    closed form, the answer "auto" gives too.  Otherwise the ascent runs
    until it records a node of the parity's delta.  It copies
    ``core.membership_table``'s cached 2**n-byte Q(n) table (16 MB at
    n = 24) into a bytearray whose nonzero entries are the Q members not
    reached yet, so one index answers both membership and the seen-set test.
    """
    n = inst.n
    if n < 3:
        raise TooSmall("Q(n) is empty for n < 3")
    if n > TABLE_MAX_N:
        raise TooLarge(f"pruned search is capped at n = {TABLE_MAX_N}")
    minimal_deltas = _minimal_deltas(inst)
    swept = _full_sweep(inst, minimal_deltas)
    if swept is not None:
        return swept
    parity = inst.total & 1
    full = (1 << n) - 1
    # A heap key is (-d << n) | mask, which pops in the order of (-d, mask)
    # tuples because mask < 2**n.  A move of ``_cover_gains`` sets bit b =
    # flip ^ low and clears bit 2b (for the addition, low 0, the bit above
    # the mask), so it applies where b is set in ~mask & (mask >> 1 |
    # top_bit) and maps mask to mask - b mod 2**n: ``fresh`` has 2**n
    # entries, so the addition's negative index wraps.  Its cover's key is
    # the parent's plus steps[b], the move's shift and gain.
    top_bit = 1 << (n - 1)
    steps = {flip ^ low: (flip ^ low) - low - (gain << n)
             for flip, low, gain in _cover_gains(inst.c)}
    fresh = bytearray(membership_table(n, PosetKind.Q))  # in Q(n) and not reached yet
    visited = 0
    heap: list[int] = []
    push, pop = heapq.heappush, heapq.heappop
    for k, d in enumerate(minimal_deltas):
        mask = min_element_mask(n, k)
        fresh[mask] = 0
        if d < 0:
            push(heap, (-d << n) | mask)
            continue
        visited += 1
        if d == parity:
            return _make_solution(inst, mask, d, "pruned", visited)
    # a cover key above `full` has negative delta, and the first recorded
    # key of delta `parity` is the answer
    while heap:
        key = pop(heap)
        visited += 1
        mask = key & full
        pat = ~mask & (mask >> 1 | top_bit)
        b = pat & top_bit or pat & -pat  # the addition, then ascending swaps
        while b:
            pat ^= b
            if fresh[w := mask - b]:
                fresh[w] = 0
                wkey = key + steps[b]
                if wkey > full:
                    push(heap, wkey)
                elif -(wkey >> n) == parity:
                    return _make_solution(inst, w & full, parity, "pruned", visited)
            b = pat & -pat
    raise AssertionError("the ascent ended without its parity stop")


def _cover_gains(c: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """``cover_moves(len(c))`` as (flip, low, gain) triples: a mask u with
    u & flip == low is covered by u ^ flip, which sets bit flip ^ low and
    clears bit low (none for the addition), so its delta is delta(u) +
    gain, twice the difference of those two bits' weights."""
    weight = (0, *c)  # weight[b.bit_length()] is one-bit mask b's weight, 0 for b = 0
    return [(flip, low, 2 * (weight[(flip ^ low).bit_length()] - weight[low.bit_length()]))
            for flip, low in cover_moves(len(c))]


def _recorded(w: int, q: bytes, minimal: list[int], moves: list[tuple[int, int]]) -> bool:
    """Whether the full ascent records mask w of delta v*: w is in Q(n)
    (``q``, the Q(n) membership table) and is minimal or has a lower
    cover in Q(n) through one of ``moves``, (flip, flip ^ low) pairs of
    the ``_cover_gains`` of positive gain."""
    return q[w] and (w in minimal or any(w & f == b and q[w ^ f] for f, b in moves))


def _full_sweep(inst: Instance, deltas: list[int],
                snapshots: list[int] | None = None) -> Solution | None:
    """``solve_pruned``'s answer without its ascent, or None when the
    ascent's parity stop will fire.  ``deltas`` is ``_minimal_deltas(inst)``
    and ``snapshots``, if given, ``_subset_sums(inst)``.

    Q(n) is convex in P(n) and delta never decreases along covers, so
    without the parity stop the ascent pops every negative element of Q(n)
    and records exactly the nonnegative ones that are minimal or have a
    negative lower cover in Q(n).  The optimum v* and the smallest mask
    with delta +v* come from ``dp``'s bitsets and backtrack when
    ``n * (total + 1)`` is at most SWEEP_DP_MAX_CELLS, otherwise from
    ``_meet`` on the signed sums of the low n // 2 weights and of the rest:
    the smallest low mask of the first row that meets v*.  If v* is above
    the total's parity, no element has delta 0 and negation halves Q(n):
    the ascent pops |Q(n)|/2 elements, records the nonnegative minimal
    ones without stopping, and ends with the smallest recorded mask of
    delta v*, the smallest element of Q(n) that it records at the optimum.

    v* is the least |delta| over all of P(n), so a lower cover of a mask
    with delta v* has gain 0 or at least 2 v*, and then negative delta.
    When no move has gain 0 (no two adjacent weights tie and the last one
    is nonzero), every member of Q(n) with delta v* is therefore recorded:
    one that is not minimal has a lower cover in Q(n).  No mask outside
    Q(n) has delta v* then either: R-(n) lies at delta <= 0, and a mask of
    R+(n) whose lower covers are all negative is minimal in R+(n), the
    alternating vector +-+-..., whose delta would then be half the sum of
    its at least two lower covers' gains, so at least 2 v*.  So the
    smallest mask with delta v* is tested first, and without a tie or a
    zero weight it is the answer.  Otherwise the half-sum rows are scanned
    in ascending blocks from that mask's row, each row's masks of delta v*
    being those whose low sum is v* - hd, until a block holds a recorded one.
    """
    n, c, total = inst.n, inst.c, inst.total
    h = n // 2
    lows = None
    if n * (total + 1) <= SWEEP_DP_MAX_CELLS:
        snapshots = snapshots or _subset_sums(inst)
        if snapshots[-1] >> (total + 1) // 2 & 1:  # v* is the parity: no backtrack
            return None
        w, best = _dp_optimum(inst, snapshots)
    else:
        lows, highs = _delta_table(c[:h]), _delta_table(c[h:])
        queries, above, _ = _meet(lows, highs)
        # negating every sign shows that v* is attained with delta +v*,
        # which the least sum >= 0 of that row gives: no need to look below 0
        best = int(abs(above).min())
        if best == total & 1:
            return None
        # A sum in [0, v*) would beat v*, so the masks t << h | lo with delta
        # v* are those of the rows t whose least sum >= 0 is v*.  v* <= c[0],
        # a low weight, so |v* - hd| <= c[0] + sum(c[h:]) <= total: no int64
        # overflow.
        t = _first_row(highs, queries[above == best])
        w = t << h | int((lows == best - highs[t]).argmax())
    q = membership_table(n, PosetKind.Q)
    minimal = [min_element_mask(n, k) for k in range((n - 1) // 2 + 1)]
    # on masks of delta v*, exactly the moves of positive gain reach a
    # negative lower cover
    moves = [(flip, flip ^ low) for flip, low, gain in _cover_gains(c) if gain > 0]
    if not _recorded(w, q, minimal, moves):
        import numpy as np  # the walk, reached only with tied or zero weights

        if lows is None:
            lows, highs = _delta_table(c[:h]), _delta_table(c[h:])
        table = np.frombuffer(q, dtype=bool)
        # one row per test: any(axis=0) then ORs whole rows, which numpy
        # does faster than reducing many short rows
        flip, bit = np.array(moves, dtype=np.int64).reshape(-1, 2).T[:, :, None]
        minimal = np.array(minimal)[:, None]
        # blocks of half-sum rows whose (tests x masks) temporaries stay
        # within 2**_BLOCK_BITS cells, from w's row: no earlier mask has delta v*
        rows = max(1, (1 << _BLOCK_BITS) // (len(minimal) + len(flip)) >> h)
        for t in range(w >> h, len(highs), rows):
            # row t's masks of delta v* are t << h | lo with lows[lo] = v* - hd
            ws = np.flatnonzero(lows == best - highs[t:t + rows, None]) + (t << h)
            ws = ws[table[ws]]
            hit = (ws == minimal).any(axis=0)
            hit |= (((ws & flip) == bit) & table[ws ^ flip]).any(axis=0)
            if hit.any():
                w = int(ws[hit.argmax()])
                break
        else:
            raise AssertionError("no recorded element of Q(n) has the optimal delta")
    return _make_solution(inst, w, best, "pruned", q_size(n) // 2 + sum(d >= 0 for d in deltas))


# ---------------------------------------------------------------------------
# closed-form fast paths on the extremal elements


def solve_min_fastpath(inst: Instance, *, deltas: list[int] | None = None) -> Solution | None:
    """The first minimal element of Q(n) with nonnegative delta is optimal.

    Reads the floor((n-1)/2) + 1 minimal elements' deltas from one O(n)
    pass over prefix sums, ``_minimal_deltas(inst)``, or from ``deltas``
    when the caller has built that pass already; returns None when none
    qualifies.
    """
    n = inst.n
    if n < 3:
        raise TooSmall("Q(n) is empty for n < 3")
    if deltas is None:
        deltas = _minimal_deltas(inst)
    for k, d in enumerate(deltas):
        if d >= 0:
            return _make_solution(inst, min_element_mask(n, k), d, "minfast", k + 1)
    return None


def solve_corollary(inst: Instance, *, deltas: list[int] | None = None) -> Solution | None:
    """Maximal-element certificate.

    A maximal element wins when its delta is nonnegative and each defined
    cover of its negation (the adjacent swap for k != 0, the last-entry
    addition for 2k != n-1) has a delta at least as large.  The negation is
    minimal element k, of delta -d_top; the swap at entries k, k+1 adds
    2 (c[k-1] - c[k]) to it and the addition 2 c[n-1], so each test compares
    d_top with half of that gain.  As in ``solve_min_fastpath``, ``deltas``
    is ``_minimal_deltas(inst)`` when the caller has built it already.
    """
    n, c = inst.n, inst.c
    if n < 3:
        raise TooSmall("Q(n) is empty for n < 3")
    if deltas is None:
        deltas = _minimal_deltas(inst)
    for k, d in enumerate(deltas):
        d_top = -d
        if d_top < 0:
            continue
        if k != 0 and d_top > c[k - 1] - c[k]:
            continue
        if 2 * k != n - 1 and d_top > c[n - 1]:
            continue
        return _make_solution(inst, max_element_mask(n, k), d_top, "corollary", k + 1)
    return None


# ---------------------------------------------------------------------------
# dispatch

_SOLVERS = {"brute": solve_brute, "dp": solve_dp, "qenum": solve_q_enum, "pruned": solve_pruned,
            "minfast": solve_min_fastpath, "corollary": solve_corollary, "mitm": solve_mitm}
ALGORITHMS = (*_SOLVERS, "auto")


def solve(inst: Instance, algo: str = "auto") -> Solution | None:
    """Run the named algorithm; "auto" tries the fast paths on one pass of
    minimal-element deltas, which the closed form reuses, then:

    - inside the bitset bound (n <= TABLE_MAX_N and n * (total + 1) <=
      SWEEP_DP_MAX_CELLS), it builds the DP bitsets once and answers with
      the DP oracle when they reach ceil(total/2) (or n < 3), otherwise
      with the pruned search's closed form (never its ascent);
    - beyond it, never with the closed form: with the meet in the middle
      for n <= TABLE_MAX_N, where at most 2**12 half sums a side bound its
      time while the DP's table, past 2**22 cells, grows with the total;
      above that with the DP oracle when its table has at most
      DP_MAX_CELLS cells, otherwise with the meet in the middle up to n = 44.

    Only "minfast" and "corollary" may return None (no certificate applies).
    So "auto" is exact at every n up to 44; above it, an instance that no
    certificate answers and whose DP table is over DP_MAX_CELLS raises a
    ``TooLarge`` naming both caps.
    """
    if algo in _SOLVERS:
        return _SOLVERS[algo](inst)
    if algo != "auto":
        raise UnknownAlgorithm(f"unknown algorithm {algo!r}")
    n, cells = inst.n, inst.n * (inst.total + 1)
    # by module name, not through _SOLVERS, so wrappers of these attributes
    # see the calls; one pass of minimal-element deltas serves all three reads
    if n >= 3:
        deltas = _minimal_deltas(inst)
        sol = solve_min_fastpath(inst, deltas=deltas) or solve_corollary(inst, deltas=deltas)
        if sol is not None:
            return sol
    if n <= TABLE_MAX_N and cells <= SWEEP_DP_MAX_CELLS:
        snapshots = _subset_sums(inst)
        swept = _full_sweep(inst, deltas, snapshots) if n >= 3 else None
        return swept or solve_dp(inst, snapshots=snapshots)
    if n > TABLE_MAX_N and cells <= DP_MAX_CELLS:
        return solve_dp(inst)
    try:
        return solve_mitm(inst)
    except TooLarge as exc:
        raise TooLarge(
            f"no certificate applies at n = {inst.n}; {exc} and the DP table "
            f"would exceed {DP_MAX_CELLS} cells"
        ) from None
