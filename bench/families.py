"""Seeded instance families and the benchmark's own arithmetic.

Every generator takes a ``random.Random`` seeded from the workload seed and
returns raw weights in input order; the program under test receives only
those weights.  The arithmetic helpers below (signed differences, Q(n) sizes,
certificate conditions, cover counts, a meet-in-the-middle oracle) are written
here independently of the library, so that answers can be checked against
values the benchmark derives itself.
"""

from __future__ import annotations

import bisect
import math
import random

VALUE_LIMIT = 1 << 63


# ---------------------------------------------------------------------------
# arithmetic on raw weights, independent of the library


def q_size(n: int) -> int:
    """|Q(n)| = 2^n - 2 C(n, floor(n/2))."""
    return (1 << n) - 2 * math.comb(n, n // 2)


def subset_delta(raw: list[int], subset: list[int]) -> int:
    """Signed difference of a subset given by 1-based input positions."""
    inside = sum(raw[i - 1] for i in subset)
    return inside - (sum(raw) - inside)


def certificate_fires(raw: list[int]) -> bool:
    """Whether one of the paper's O(n^2) certificates applies.

    On weights sorted non-increasingly: a minimal element of Q(n) (k minus
    signs, k+1 plus signs, then minus signs) with nonnegative difference, or a
    maximal element with nonnegative difference whose negation's defined
    covers (adjacent swap at k, addition at n) are no smaller.
    """
    c = sorted(raw, reverse=True)
    n, total = len(c), sum(c)
    for k in range((n - 1) // 2 + 1):
        if 2 * sum(c[k:2 * k + 1]) - total >= 0:
            return True
    for k in range((n - 1) // 2 + 1):
        d_top = 2 * (sum(c[:k]) + sum(c[2 * k + 1:])) - total
        if d_top < 0:
            continue
        if k != 0 and d_top > -d_top + 2 * (c[k - 1] - c[k]):
            continue
        if 2 * k != n - 1 and d_top > -d_top + 2 * c[n - 1]:
            continue
        return True
    return False


def mitm_abs_delta(raw: list[int]) -> int:
    """Exact optimum by meeting in the middle; used where no library oracle
    admits the instance (n > 24 with large weights)."""
    total = sum(raw)
    h = len(raw) // 2

    def sums(ws: list[int]) -> list[int]:
        out = [0]
        for w in ws:
            out += [s + w for s in out]
        return out

    right = sorted(sums(raw[h:]))
    best = total
    for s in sums(raw[:h]):
        j = bisect.bisect_left(right, total // 2 - s)
        for t in right[max(j - 1, 0):j + 1]:
            best = min(best, abs(total - 2 * (s + t)))
    return best


def _prefix_extrema(mask: int, n: int) -> tuple[int, int]:
    s = lo = hi = 0
    for i in range(n):
        s += 1 if mask >> i & 1 else -1
        lo, hi = min(lo, s), max(hi, s)
    return lo, hi


def in_q(mask: int, n: int) -> bool:
    lo, hi = _prefix_extrema(mask, n)
    return lo < 0 < hi


def hasse_counts(n: int, kind: str) -> tuple[int, int]:
    """Node and edge counts of the cover DAG of P(n) or Q(n).

    Covers in P(n) raise the last entry from -1 to +1, or swap an adjacent
    (-1, +1) pair; Q(n) keeps the covers between two of its members.
    """
    member = [True] * (1 << n) if kind == "P" else [in_q(m, n) for m in range(1 << n)]
    nodes = edges = 0
    for m in range(1 << n):
        if not member[m]:
            continue
        nodes += 1
        if not m >> (n - 1) & 1 and member[m | 1 << (n - 1)]:
            edges += 1
        for i in range(n - 1):
            if not m >> i & 1 and m >> (i + 1) & 1 and member[m ^ (3 << i)]:
                edges += 1
    return nodes, edges


def q_peak_level(n: int) -> int:
    """Largest rank level of Q(n); the P-rank of a vector is the sum of
    n - i over its +1 positions i (0-based)."""
    levels: dict[int, int] = {}
    for m in range(1 << n):
        if in_q(m, n):
            r = sum(n - i for i in range(n) if m >> i & 1)
            levels[r] = levels.get(r, 0) + 1
    return max(levels.values())


# ---------------------------------------------------------------------------
# families


def phase(rng: random.Random, n: int) -> list[int]:
    # Phase transition (Mertens 1998): log2(max weight)/n = 1 + 4/n > 1, so
    # perfect partitions are rare and the pruned ascent must sweep Q(n).
    return [rng.randrange(1, 1 << (n + 4)) for _ in range(n)]


def boundary63(rng: random.Random, n: int) -> list[int]:
    # 63-bit boundary: the total lies in [2^62, 2^63), so every int64 delta
    # table and running sum works at the top of its exact range.
    cap = (VALUE_LIMIT - 1) // n
    return [rng.randrange(cap // 2, cap) for _ in range(n)]


def parity_gap(rng: random.Random, n: int) -> list[int]:
    # Ties and zeros with a parity gap: multiples of 5 whose multipliers sum
    # to an odd number, so the optimum is at least 5 while the parity bound
    # (total mod 2) is 1 and the parity stop can never fire.
    m = [rng.randint(0, 20) for _ in range(n)]
    m[0] = m[1] = 0
    if sum(m) % 2 == 0:
        m[2] += 1
    w = [5 * x for x in m]
    rng.shuffle(w)
    return w


def envelope(rng: random.Random, n: int) -> list[int]:
    # DP-cap envelope: n = 25..32 with weights of 32 bits or more lies inside
    # the documented bounds, but auto refuses it because the DP table would
    # exceed its cell cap.
    return [rng.randrange(1 << 32, 1 << 36) for _ in range(n)]


def uniform(rng: random.Random, n: int) -> list[int]:
    # Weights in 0..1000, as the test suite uses: perfect partitions abound,
    # so auto ends in a certificate or an early parity stop.
    return [rng.randint(0, 1000) for _ in range(n)]


def dominant(rng: random.Random, n: int) -> list[int]:
    # Certificate, minfast: one weight at least the sum of the others.  Near
    # 2^62 up to n = 20, where the brute oracle applies; DP-sized above.
    rest = [rng.randint(0, 1000) for _ in range(n - 1)]
    big = (1 << 62) - rng.randrange(1 << 20) if n <= 20 else sum(rest) + rng.randint(0, 1000)
    w = [big] + rest
    rng.shuffle(w)
    return w


def superincreasing(rng: random.Random, n: int) -> list[int]:
    # Certificate, corollary or minfast: near-powers of two, kept only when a
    # certificate applies (without one, pruned would sweep all of Q(n)/2).
    while True:
        w = [(1 << (n - i)) + rng.randint(0, 1) for i in range(n)]
        rng.shuffle(w)
        if certificate_fires(w):
            return w


def planted(rng: random.Random, n: int) -> list[int]:
    # Ties and zeros with a planted perfect partition: one half of values in
    # 0..9 is duplicated, so delta 0 exists and the parity stop fires.
    half = [rng.randint(0, 9) for _ in range(n // 2)]
    w = half + half
    rng.shuffle(w)
    return w


FAMILIES = {
    "phase": phase,
    "boundary63": boundary63,
    "parity_gap": parity_gap,
    "envelope": envelope,
    "uniform": uniform,
    "dominant": dominant,
    "superincreasing": superincreasing,
    "planted": planted,
}
