"""Independent reference computations the library is tested against.

Everything here works on plain tuples and masks with naive algorithms, kept
deliberately separate from the library's bit tricks and DP tables.  The
certificate references spell the paper's operators with the library's
sign-vector API (``negate``, ``apply_swap``, ``apply_addition``, ``delta``),
which the solvers replace by mask arithmetic.
"""

from __future__ import annotations

import bisect
import heapq
import itertools

import numpy as np

from partition_posets import (
    TooLarge,
    apply_addition,
    apply_swap,
    delta,
    extremes,
    iter_poset,
    negate,
    rank,
    upper_covers,
)
from partition_posets.poset import _hopcroft_karp, min_element_mask, q_membership_table

WIDTH_MAX_PAIRS = 800_000  # Q(12) has 752,688; dilworth_width takes about 2 s there


def entries_of(mask: int, n: int) -> tuple[int, ...]:
    return tuple(1 if mask >> i & 1 else -1 for i in range(n))


def prefix_sums_of(entries: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    s = 0
    for e in entries:
        s += e
        out.append(s)
    return tuple(out)


def leq_entries(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(prefix_sums_of(a), prefix_sums_of(b)))


def classify(entries: tuple[int, ...]) -> str:
    ps = prefix_sums_of(entries)
    if all(s >= 0 for s in ps):
        return "R+"
    if all(s <= 0 for s in ps):
        return "R-"
    return "Q"


def rank_of(entries: tuple[int, ...]) -> int:
    n = len(entries)
    dot = sum(e * (n - i) for i, e in enumerate(entries))
    return (dot + n * (n + 1) // 2) // 2


def transitive_reduction(elements: list, le) -> set[tuple[int, int]]:
    """Cover pairs (i, j) by index, from a generic strict-order triple scan."""
    m = len(elements)
    strict = [[le(elements[i], elements[j]) and elements[i] != elements[j]
               for j in range(m)] for i in range(m)]
    covers = set()
    for i in range(m):
        for j in range(m):
            if not strict[i][j]:
                continue
            if any(strict[i][k] and strict[k][j] for k in range(m)):
                continue
            covers.add((i, j))
    return covers


def max_antichain_bruteforce(elements: list, le) -> int:
    """Largest pairwise-incomparable subset, checked over all subsets."""
    m = len(elements)
    best = 0
    for pick in range(1 << m):
        idx = [i for i in range(m) if pick >> i & 1]
        if len(idx) <= best:
            continue
        ok = all(
            not le(elements[i], elements[j]) and not le(elements[j], elements[i])
            for i, j in itertools.combinations(idx, 2)
        )
        if ok:
            best = len(idx)
    return best


def hasse_by_objects(n: int, kind) -> tuple[tuple, tuple, dict]:
    """(nodes, edges, rank_of) of P(n) or Q(n), one SignVector at a time:
    nodes in ascending mask order, each node's upper covers among the nodes
    in ascending mask order, and ranks from ``rank``."""
    nodes = tuple(iter_poset(n, kind))
    members = set(nodes)
    edges = tuple((v, w) for v in nodes for w in upper_covers(v) if w in members)
    return nodes, edges, {v: rank(v, kind) for v in nodes}


def dilworth_width(dag) -> int:
    """Dilworth: the width equals the minimum number of chains covering the
    poset, which is node count minus a maximum matching on the strict
    comparability graph, i.e. the number of unmatched left vertices.

    Works on any DAG, graded or not, through ``nodes`` and ``edges``.  The
    matching's cost follows the number of comparable pairs, not of nodes
    (P(11) has fewer nodes than Q(12) but 1.8 times its pairs, and takes
    over twice as long), so the pairs are counted from the reachability
    bitsets as they are built and capped at WIDTH_MAX_PAIRS.
    """
    nv = len(dag.nodes)
    index = {v: i for i, v in enumerate(dag.nodes)}
    succ: list[list[int]] = [[] for _ in range(nv)]
    for v, w in dag.edges:
        succ[index[v]].append(index[w])
    # a topological order from the edges, not the ranks, which a DAG that
    # fails the grading guard need not respect
    indegree = [0] * nv
    for out in succ:
        for j in out:
            indegree[j] += 1
    order = [i for i in range(nv) if not indegree[i]]
    for i in order:  # grows as nodes lose their last incoming edge
        for j in succ[i]:
            indegree[j] -= 1
            if not indegree[j]:
                order.append(j)
    # strict reachability as bitsets, successors first
    reach = [0] * nv
    pairs = 0
    for i in reversed(order):
        r = 0
        for j in succ[i]:
            r |= reach[j] | (1 << j)
        reach[i] = r
        pairs += r.bit_count()
        if pairs > WIDTH_MAX_PAIRS:
            raise TooLarge(
                f"the Dilworth width oracle is capped at {WIDTH_MAX_PAIRS} comparable pairs"
            )
    adj = []
    for i in range(nv):
        bits = []
        r = reach[i]
        while r:
            b = r & -r
            bits.append(b.bit_length() - 1)
            r &= r - 1
        adj.append(bits)
    return _hopcroft_karp(adj, nv).count(-1)


def subset_sum_counts(n: int) -> list[int]:
    """Histogram of subset sums of [n] by direct enumeration."""
    counts = [0] * (n * (n + 1) // 2 + 1)
    for mask in range(1 << n):
        counts[sum(i + 1 for i in range(n) if mask >> i & 1)] += 1
    return counts


def rank_profiles_by_lists(n_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """P(n) and R+(n) counts by P-rank for every n <= n_max, from plain
    coefficient lists.

    P(n) multiplies P(n-1) by 1 + q^n.  The half-space DP keys its lattice
    paths by up-step count u as (offset, coefficients) polynomials over the sum
    of up positions: step n keeps a path nonnegative after a down-step only
    when 2u >= n, and an up-step at position n adds n to the position sum.  A
    path's P-rank is (n+1)u - (sum of up positions).
    """
    p: list[list[int]] = [[1]]
    rplus: list[list[int]] = [[1]]
    ballot: dict[int, tuple[int, list[int]]] = {0: (0, [1])}
    for n in range(1, n_max + 1):
        prev = p[-1]
        cur = prev + [0] * n
        for t in range(len(prev) - 1, -1, -1):
            cur[t + n] += prev[t]
        p.append(cur)

        nxt = {u: (off, coeffs[:]) for u, (off, coeffs) in ballot.items() if 2 * u >= n}
        for u, (off, coeffs) in ballot.items():
            shifted_off = off + n
            if u + 1 in nxt:
                eoff, ec = nxt[u + 1]
                lo = min(eoff, shifted_off)
                hi = max(eoff + len(ec), shifted_off + len(coeffs))
                merged = [0] * (hi - lo)
                for j, val in enumerate(ec):
                    merged[eoff - lo + j] += val
                for j, val in enumerate(coeffs):
                    merged[shifted_off - lo + j] += val
                nxt[u + 1] = (lo, merged)
            else:
                nxt[u + 1] = (shifted_off, coeffs[:])
        ballot = nxt

        prof = [0] * (n * (n + 1) // 2 + 1)
        for u, (off, coeffs) in nxt.items():
            base = (n + 1) * u - off
            for j, val in enumerate(coeffs):
                prof[base - j] += val
        rplus.append(prof)
    return p, rplus


def catalan_paths(m: int) -> int:
    """2m-step nonnegative walks from 0 back to 0, by explicit enumeration."""
    count = 0
    for steps in itertools.product((1, -1), repeat=2 * m):
        h = 0
        for s in steps:
            h += s
            if h < 0:
                break
        else:
            if h == 0:
                count += 1
    return count


def nonneg_walks(n: int) -> int:
    """n-step walks from 0 that never go negative, by explicit enumeration."""
    count = 0
    for steps in itertools.product((1, -1), repeat=n):
        h = 0
        for s in steps:
            h += s
            if h < 0:
                break
        else:
            count += 1
    return count


def min_abs_delta(values: list[int]) -> int:
    """Optimal |delta| by scanning every subset of the raw values."""
    total = sum(values)
    best = total
    for pick in itertools.product((0, 1), repeat=len(values)):
        s = sum(v for v, p in zip(values, pick) if p)
        best = min(best, abs(2 * s - total))
    return best


def min_abs_delta_halves(values: list[int]) -> int:
    """Optimal |delta| by matching subset sums of the two halves of the values
    (Horowitz & Sahni): for each left sum s, the sorted right sums nearest
    to half the remainder, found by ``np.searchsorted``.

    Every sum is of disjoint values, so below the total and 2**63: a pair
    s + r is at most the total, and its delta total - 2 (s + r) is formed
    as (total - (s + r)) - (s + r), which stays within int64."""
    def sums(part):
        out = np.zeros(1, dtype=np.int64)
        for v in part:
            out = np.concatenate((out, out + v))
        return out

    total = sum(values)
    h = len(values) // 2
    left, right = sums(values[:h]), np.sort(sums(values[h:]))
    # the first right sum r with 2 r >= total - 2 s, and the one before it
    i = np.searchsorted(right, (total + 1) // 2 - left)
    best = total
    for j in (i - 1, i):
        x = left + right[np.clip(j, 0, len(right) - 1)]
        best = min(best, int(np.abs((total - x) - x).min()))
    return best


def dp_full_backtrack(values: list[int]) -> tuple[tuple[int, ...], int, int]:
    """The subset-sum DP over its full table, with no early stop.

    Weights are sorted non-increasingly (stable on ties).  Row i holds, as
    the bits of an integer, the sums reachable with the first i of them,
    and all n + 1 rows are built.  The chosen sum is the smallest reachable
    one >= total / 2; the backtrack, from the last weight to the first,
    takes weight i only when the sum is unreachable without it.  Returns
    the subset as sorted 1-based input positions, its delta and the table
    size n * (total + 1).
    """
    n, total = len(values), sum(values)
    order = sorted(range(n), key=lambda k: -values[k])  # stable on ties
    rows = [1]
    for k in order:
        rows.append(rows[-1] | rows[-1] << values[k])
    chosen = next(s for s in range((total + 1) // 2, total + 1) if rows[n] >> s & 1)
    s, taken = chosen, []
    for i in range(n - 1, -1, -1):
        if not rows[i] >> s & 1:
            taken.append(order[i] + 1)
            s -= values[order[i]]
    assert s == 0
    return tuple(sorted(taken)), 2 * chosen - total, n * (total + 1)


def dominance(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    """Subset dominance on decreasingly sorted index tuples."""
    da = sorted(a, reverse=True)
    db = sorted(b, reverse=True)
    return len(da) <= len(db) and all(x <= y for x, y in zip(da, db))


def pruned_ascent(values: list[int]) -> tuple[tuple[int, ...], int, int]:
    """The dominance-pruned ascent over Q(n), spelled out naively.

    Weights are sorted non-increasingly (stable on ties).  The frontier holds
    (-delta, mask) tuples and starts from the minimal elements of Q(n) (k
    minus signs, k + 1 plus signs, then minus signs); a popped node offers the
    addition cover (last entry -1 -> +1), then its adjacent (-1, +1) swaps
    from the left, keeping those that ``classify`` puts in Q and that were not
    reached before.  Nonnegative nodes are recorded as (delta, mask) and never
    expanded, and a recorded delta equal to total mod 2 stops the search.
    Returns the best subset as sorted 1-based input positions, its delta, and
    the count of pops plus nonnegative minimal elements.
    """
    order = sorted(range(len(values)), key=lambda k: (-values[k], k))
    c = [values[k] for k in order]
    n, total = len(c), sum(c)

    def mask_of(entries):
        return sum(1 << i for i, e in enumerate(entries) if e == 1)

    def delta_of(mask):
        return sum(w * e for w, e in zip(c, entries_of(mask, n)))

    def covers(mask):
        e = list(entries_of(mask, n))
        out = []
        if e[-1] == -1:
            out.append(mask_of(e[:-1] + [1]))
        for i in range(n - 1):
            if (e[i], e[i + 1]) == (-1, 1):
                out.append(mask_of(e[:i] + [1, -1] + e[i + 2:]))
        return [w for w in out if classify(entries_of(w, n)) == "Q"]

    best = None
    visited = 0
    seen = set()
    heap = []

    def record(mask, d):
        nonlocal best
        if best is None or (d, mask) < best:
            best = (d, mask)
        return best[0] == total % 2

    done = False
    for k in range((n - 1) // 2 + 1):
        mask = mask_of([-1] * k + [1] * (k + 1) + [-1] * (n - 2 * k - 1))
        seen.add(mask)
        d = delta_of(mask)
        if d >= 0:
            visited += 1
            if record(mask, d):
                done = True
                break
        else:
            heapq.heappush(heap, (-d, mask))
    while heap and not done:
        _, mask = heapq.heappop(heap)
        visited += 1
        for w in covers(mask):
            if w in seen:
                continue
            seen.add(w)
            dw = delta_of(w)
            if dw >= 0:
                if record(w, dw):
                    done = True
                    break
            else:
                heapq.heappush(heap, (-dw, w))
    d, mask = best
    return tuple(sorted(order[i] + 1 for i in range(n) if mask >> i & 1)), d, visited


def signed_sums(weights) -> list[int]:
    """All 2^len signed sums; bit i of the index is the sign of weight i."""
    d = [0]
    for w in weights:
        d = [x - w for x in d] + [x + w for x in d]
    return d


def full_sweep_by_bisect(inst):
    """``solver._full_sweep`` in pure Python: the (mask, delta) that the
    pruned ascent ends with when its parity stop never fires, or None when
    it does.

    The optimum v* comes from the sorted signed sums of the low n // 2
    weights, bisected for each signed sum of the high ones (Horowitz &
    Sahni).  If v* is not the total's parity, the masks with delta v* are
    listed in ascending order, and the first one in Q(n) that the ascent
    records wins: a minimal element, or one with a lower cover in Q(n) whose
    delta is negative.
    """
    n, c = inst.n, inst.c
    h = n // 2
    lows, highs = signed_sums(c[:h]), signed_sums(c[h:])
    order = sorted(range(1 << h), key=lows.__getitem__)  # stable: ties by mask
    keys = [lows[lo] for lo in order]
    best = inst.total
    for hd in highs:  # the nearest low sums on either side of -hd
        i = bisect.bisect_left(keys, -hd)
        if i < len(keys) and keys[i] + hd < best:
            best = keys[i] + hd
        if i and -hd - keys[i - 1] < best:
            best = -hd - keys[i - 1]
    if best == inst.total & 1:
        return None
    q = q_membership_table(n)
    minimal = {min_element_mask(n, k) for k in range((n - 1) // 2 + 1)}
    # the lower covers that undo a move whose delta gain exceeds v*, so that
    # they are negative: the addition (gain 2 c[n-1]) clears the top bit, and
    # the swap at bits (j, j + 1) (gain 2 (c[j] - c[j+1])) turns 1, 0 into 0, 1
    add_bit = 1 << (n - 1) if 2 * c[n - 1] > best else 0
    swaps = sum(1 << j for j in range(n - 1) if 2 * (c[j] - c[j + 1]) > best)
    for t, hd in enumerate(highs):
        target = best - hd
        i = bisect.bisect_left(keys, target)
        while i < len(keys) and keys[i] == target:
            w = t << h | order[i]
            i += 1
            if not q[w]:
                continue
            if w in minimal or (w & add_bit and q[w ^ add_bit]):
                return w, best
            pat = w & ~(w >> 1) & swaps
            while pat:
                b = pat & -pat
                if q[w + b]:
                    return w, best
                pat ^= b
    raise AssertionError("no recorded element of Q(n) has the optimal delta")


def _certificate(inst, v, d, tried):
    return tuple(sorted(inst.perm[i] for i in range(inst.n) if v.mask >> i & 1)), d, tried


def min_fastpath_by_operators(inst):
    """``solve_min_fastpath`` through the sign-vector API: the first minimal
    element of Q(n) with nonnegative delta, as (subset, delta, elements
    tested), or None."""
    for k, v in enumerate(extremes(inst.n).minimal):
        d = delta(v, inst)
        if d >= 0:
            return _certificate(inst, v, d, k + 1)
    return None


def corollary_by_operators(inst):
    """``solve_corollary`` through the sign-vector API: the first maximal
    element with nonnegative delta whose negation's defined covers (the swap
    of entries k, k + 1 and the addition at entry n) have no smaller delta."""
    n = inst.n
    for k, top in enumerate(extremes(n).maximal):
        d_top = delta(top, inst)
        if d_top < 0:
            continue
        bottom = negate(top)
        if k != 0 and d_top > delta(apply_swap(bottom, k, k + 1), inst):
            continue
        if 2 * k != n - 1 and d_top > delta(apply_addition(bottom, n), inst):
            continue
        return _certificate(inst, top, d_top, k + 1)
    return None
