"""Structure of the sign-vector posets: operators, covers, Hasse DAGs, checks.

Three related posets over {+1,-1}^n are handled: the full poset P(n), the
middle poset Q(n) of vectors incomparable with zero, and the half-spaces
R+(n) / R-(n) of vectors whose running sums never go negative / positive.
Covers in P(n) are generated by exactly two operator families: flipping the
last entry up, and swapping an adjacent (-1, +1) pair.  ``core.cover_moves``
encodes them as bitmask moves once; the covers, the Hasse DAG, the pruned
solver's ascent and closed-form sweep, and ``core.longest_chain`` (the
pure-Python height behind ``profile``'s cross-check) all read them from
there.

``verify_structure`` runs the checks of ``_CHECK_TABLE``.  A check returns
None when it passes and its failure detail otherwise; one guard rule
(lo <= n <= hi, else SKIP under "all" and an error when named) covers all.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .core import (  # PosetKind, membership and the extremal masks are re-exported
    MAX_COUNT_N,
    MAX_N,
    PosetKind,
    SignVector,
    SubsetRef,
    TABLE_MAX_N,
    cover_moves,
    leq,
    max_element_mask,
    membership,
    membership_table,
    min_element_mask,
    negate,
    prefix_sums,
)
from .errors import (
    LengthMismatch,
    NotInPoset,
    OperatorUndefined,
    TooLarge,
    TooSmall,
    UnknownCheck,
    WidthUncertified,
)

ENUM_MAX_N = 24
DAG_MAX_N = {"P": 14, "Q": 16}
_PROFILE_ENUM_MAX_N = 14  # the profiles check also enumerates R+ and Q up to here


# ---------------------------------------------------------------------------
# membership and rank


def q_membership_table(n: int) -> np.ndarray:
    """Boolean array over all masks, True exactly for members of Q(n): a
    read-only view of ``core.membership_table``'s cached bytes."""
    return np.frombuffer(membership_table(n, PosetKind.Q), dtype=bool)


def rank(v: SignVector, kind: PosetKind = PosetKind.P) -> int:
    """Graded rank with minimum 0: the P rank is the sum of n - i over the +1
    entries at 0-based positions i; the Q rank is the P rank shifted down by n."""
    n = v.n
    if kind is PosetKind.Q:
        if membership(v) is not PosetKind.Q:
            raise NotInPoset(f"{v!r} is not in Q({n})")
    elif kind is not PosetKind.P:
        raise ValueError("rank is defined for kinds P and Q")
    rho = sum(n - i for i in range(n) if v.mask >> i & 1)
    return rho if kind is PosetKind.P else rho - n


# ---------------------------------------------------------------------------
# operators and covers


def apply_addition(v: SignVector, k: int) -> SignVector:
    """Flip entry k (1-based) from -1 to +1."""
    if not 1 <= k <= v.n:
        raise OperatorUndefined(f"addition index {k} outside [1, {v.n}]")
    if v.mask >> (k - 1) & 1:
        raise OperatorUndefined(f"addition needs entry {k} = -1")
    return SignVector(v.n, v.mask | 1 << (k - 1))


def apply_swap(v: SignVector, j: int, k: int) -> SignVector:
    """Exchange entries j < k (1-based); defined when v[j] = -1 and v[k] = +1."""
    if not 1 <= j < k <= v.n:
        raise OperatorUndefined(f"swap needs 1 <= j < k <= n, got ({j}, {k})")
    if v.mask >> (j - 1) & 1 or not v.mask >> (k - 1) & 1:
        raise OperatorUndefined(f"swap needs entries ({j}, {k}) = (-1, +1)")
    return SignVector(v.n, v.mask ^ (1 << (j - 1) | 1 << (k - 1)))


def upper_covers(v: SignVector, kind: PosetKind = PosetKind.P) -> list[SignVector]:
    """Elements covering v, in ascending bitmask order (Q-filtered for kind Q)."""
    if kind not in (PosetKind.P, PosetKind.Q):
        raise ValueError("covers are defined for kinds P and Q")
    if kind is PosetKind.Q and membership(v) is not PosetKind.Q:
        raise NotInPoset(f"{v!r} is not in Q({v.n})")
    covers = [SignVector(v.n, v.mask ^ f) for f, low in cover_moves(v.n) if v.mask & f == low]
    if kind is PosetKind.Q:
        covers = [w for w in covers if membership(w) is PosetKind.Q]
    return covers


def lower_covers(v: SignVector, kind: PosetKind = PosetKind.P) -> list[SignVector]:
    """Elements covered by v, derived through the negation symmetry of the order."""
    below = [negate(w) for w in upper_covers(negate(v), kind)]
    below.sort(key=lambda u: u.mask)
    return below


# ---------------------------------------------------------------------------
# extremal elements of Q(n)


@dataclass(frozen=True)
class Extremes:
    """The maximal elements of Q(n) and their negations, indexed by k."""

    n: int
    maximal: tuple[SignVector, ...]
    minimal: tuple[SignVector, ...]

    @property
    def ell(self) -> int:
        return (self.n - 1) // 2


def extremes(n: int) -> Extremes:
    """Explicit maximal elements (k ones, k+1 minus-ones, then ones) and negations."""
    if n < 3:
        raise TooSmall(f"Q({n}) is empty")
    ell = (n - 1) // 2
    maximal = tuple(SignVector(n, max_element_mask(n, k)) for k in range(ell + 1))
    minimal = tuple(negate(v) for v in maximal)
    return Extremes(n=n, maximal=maximal, minimal=minimal)


# ---------------------------------------------------------------------------
# lattice operations on P(n)


def meet_join(v: SignVector, w: SignVector) -> tuple[SignVector, SignVector]:
    """Greatest lower and least upper bound in P(n).

    The pointwise min / max of the two prefix-sum sequences again moves in
    unit steps (both sequences share the parity of the step index), so each
    decodes back to a sign vector.
    """
    if v.n != w.n:
        raise LengthMismatch(f"lengths differ: {v.n} != {w.n}")
    pv, pw = prefix_sums(v), prefix_sums(w)
    lo_mask = hi_mask = 0
    lo_prev = hi_prev = 0
    for i in range(v.n):
        lo_cur = min(pv[i], pw[i])
        hi_cur = max(pv[i], pw[i])
        if lo_cur == lo_prev + 1:
            lo_mask |= 1 << i
        if hi_cur == hi_prev + 1:
            hi_mask |= 1 << i
        lo_prev, hi_prev = lo_cur, hi_cur
    return SignVector(v.n, lo_mask), SignVector(v.n, hi_mask)


# ---------------------------------------------------------------------------
# enumeration and the Hasse DAG


def _check_size(n: int, limit: int, what: str, force: bool) -> None:
    """Raise unless 1 <= n <= MAX_N and, without ``force``, n <= ``limit``."""
    if n < 1:
        raise TooSmall("n must be at least 1")
    if n > MAX_N:
        raise TooLarge(f"sign vectors are capped at n = {MAX_N}")
    if n > limit and not force:
        raise TooLarge(f"{what} capped at n = {limit} (force=True overrides)")


def iter_poset(n: int, kind: PosetKind, *, force: bool = False) -> Iterator[SignVector]:
    """Yield every element of the named poset once, in ascending bitmask order.

    ``force`` lifts the enumeration cap for P; the other kinds are read from
    membership tables, which stop at n = 24 regardless.
    """
    _check_size(n, ENUM_MAX_N, "enumeration", force)
    if kind is PosetKind.P:
        for mask in range(1 << n):
            yield SignVector(n, mask)
        return
    for mask in np.flatnonzero(np.frombuffer(membership_table(n, kind), dtype=bool)):
        yield SignVector(n, int(mask))


@dataclass(frozen=True, eq=False)
class HasseDag:
    """Cover-relation DAG of P(n) or Q(n), held as numpy arrays.

    ``masks`` holds the nodes' bitmasks in ascending order and ``ranks``
    their ranks, as ``rank`` gives them.  Edge e runs from node
    ``lower[e]`` up to node ``upper[e]`` (indices into ``masks``); edges are
    in ascending (lower mask, upper mask) order.  ``build_hasse`` makes the
    arrays read-only; treat the DAG as immutable.  ``nodes``, ``edges`` and
    ``rank_of`` give the same DAG as ``SignVector`` objects, derived on
    first access.
    """

    kind: PosetKind
    n: int
    masks: np.ndarray
    ranks: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @cached_property
    def nodes(self) -> tuple[SignVector, ...]:
        return tuple(SignVector(self.n, m) for m in self.masks.tolist())

    @cached_property
    def edges(self) -> tuple[tuple[SignVector, SignVector], ...]:
        pairs = zip(self.lower.tolist(), self.upper.tolist())
        return tuple((self.nodes[i], self.nodes[j]) for i, j in pairs)

    @cached_property
    def rank_of(self) -> Mapping[SignVector, int]:
        return MappingProxyType(dict(zip(self.nodes, self.ranks.tolist())))


def build_hasse(n: int, kind: PosetKind, *, force: bool = False) -> HasseDag:
    """Operator-generated covers over the member masks, one operator at a time.

    Column c of a (nodes x n) table marks where move c of
    ``core.cover_moves`` applies.  The moves give each node's covers in
    ascending mask order, so the table's row-major order is ascending
    (lower mask, upper mask) order.  For kind Q a move counts only where its
    target is a member; that is exact because Q is graded by the same rank
    function as P.
    """
    if kind not in (PosetKind.P, PosetKind.Q):
        raise ValueError("Hasse DAGs are built for kinds P and Q")
    _check_size(n, DAG_MAX_N[kind.value], f"{kind.value}({n}) DAG", force)
    if n > TABLE_MAX_N:
        raise TooLarge(f"DAGs are built from membership tables, which stop at n = {TABLE_MAX_N}")
    member = q_membership_table(n) if kind is PosetKind.Q else np.ones(1 << n, dtype=bool)
    masks = np.flatnonzero(member)
    index = np.cumsum(member) - 1  # node index of each member mask
    moves = cover_moves(n)
    keep = np.empty((len(masks), n), dtype=bool)
    for c, (flip, low) in enumerate(moves):
        keep[:, c] = ((masks & flip) == low) & member[masks ^ flip]
    rows, cols = np.nonzero(keep)
    flips = np.array([flip for flip, _ in moves], dtype=np.int64)
    upper = index[masks[rows] ^ flips[cols]]
    ranks = _mask_ranks(masks, n) - (n if kind is PosetKind.Q else 0)
    for a in (masks, ranks, rows, upper):
        a.setflags(write=False)
    return HasseDag(kind=kind, n=n, masks=masks, ranks=ranks, lower=rows, upper=upper)


def _mask_ranks(masks: np.ndarray, n: int) -> np.ndarray:
    """P rank of each mask: the sum of n - i over its set bits i."""
    ranks = np.zeros(len(masks), dtype=np.int64)
    for i in range(n):
        ranks += ((masks >> i) & 1) * (n - i)
    return ranks


def poset_height(dag: HasseDag) -> int:
    """Size of the longest chain: 1 + longest path, by a DP over the rank
    levels from the lowest up, which needs every edge to climb in rank, as
    every edge ``build_hasse`` makes does."""
    if not len(dag.masks):
        return 0
    start = dag.ranks[dag.lower]
    order = np.argsort(start, kind="stable")
    cuts = np.flatnonzero(np.diff(start[order])) + 1
    dist = np.zeros(len(dag.masks), dtype=np.int64)
    for level in np.split(order, cuts):
        np.maximum.at(dist, dag.upper[level], dist[dag.lower[level]] + 1)
    return int(dist.max()) + 1


def _hopcroft_karp(adj: list[list[int]], n_right: int) -> list[int]:
    """Maximum bipartite matching; adj[u] lists right neighbours of u.

    Returns each left vertex's right partner, or -1 where it is unmatched.
    """
    inf = float("inf")
    n_left = len(adj)
    pair_u = [-1] * n_left
    pair_v = [-1] * n_right
    dist = [inf] * n_left
    # one greedy pass first: adjacent rank levels match almost perfectly, so
    # few vertices are left for the BFS phases
    for u, neighbours in enumerate(adj):
        for v in neighbours:
            if pair_v[v] == -1:
                pair_u[u] = v
                pair_v[v] = u
                break

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if pair_u[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                w = pair_v[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(root: int) -> bool:
        # augmenting path along the BFS layers, without recursion: each
        # stacked left vertex keeps its own neighbour iterator, and path[i]
        # is the right vertex that leads from stack[i] to stack[i + 1]
        stack = [(root, iter(adj[root]))]
        path: list[int] = []
        while stack:
            u, neighbours = stack[-1]
            for v in neighbours:
                w = pair_v[v]
                if w == -1:
                    path.append(v)
                    for (x, _), y in zip(stack, path):
                        pair_u[x] = y
                        pair_v[y] = x
                    return True
                if dist[w] == dist[u] + 1:
                    path.append(v)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                dist[u] = inf
                stack.pop()
                if path:
                    path.pop()
        return False

    # no matching outgrows the smaller side: once that is full, no BFS phase
    # is needed to prove the matching maximum
    size, cap = n_left - pair_u.count(-1), min(n_left, n_right)
    while size < cap and bfs():
        for u in range(n_left):
            if pair_u[u] == -1:
                size += dfs(u)
    return pair_u


def _level_chains(dag: HasseDag) -> np.ndarray | None:
    """Chain partition from maximum matchings between adjacent rank levels.

    Each level r is matched to level r + 1 over the cover edges between them
    only.  Every node then has at most one partner up and one down, so the
    matched pairs link into disjoint chains of consecutive covers, |V| minus
    the total matching size of them.  Returns ``above``, each node's
    successor on its chain as a node index, or -1 at the top of a chain;
    returns None unless every edge climbs exactly one rank.
    """
    ranks, lower, upper = dag.ranks, dag.lower, dag.upper
    if np.any(ranks[upper] != ranks[lower] + 1):
        return None
    order = np.argsort(ranks, kind="stable")  # levels, each in ascending mask order
    _, starts, sizes = np.unique(ranks[order], return_index=True, return_counts=True)
    slot = np.empty(len(ranks), dtype=np.int64)  # position of each node within its level
    slot[order] = np.arange(len(ranks)) - np.repeat(starts, sizes)
    # edges are sorted by lower node, so each node's up-slots are one run
    bounds = np.searchsorted(lower, np.arange(len(ranks) + 1)).tolist()
    up_slots = slot[upper].tolist()
    above = np.full(len(ranks), -1, dtype=np.int64)
    levels = np.split(order, starts[1:])
    for level, next_level in zip(levels, levels[1:]):
        adj = [up_slots[bounds[i]:bounds[i + 1]] for i in level.tolist()]
        partner = np.array(_hopcroft_karp(adj, len(next_level)), dtype=np.int64)
        matched = partner >= 0
        above[level[matched]] = next_level[partner[matched]]
    return above


def poset_width(dag: HasseDag) -> int:
    """Largest antichain size, certified by chains between rank levels.

    If every edge climbs exactly one rank, each rank level is an antichain,
    so the largest level bounds the width from below, while the chains
    linked from maximum matchings between adjacent levels (``_level_chains``)
    bound it from above.  When the two counts agree, that count is the
    width.  P(n) is Peck (Stanley 1980), so the counts agree on every P DAG;
    they also agree on every Q DAG ``build_hasse`` makes within its caps.
    Where they do not, ``WidthUncertified`` is raised: the peak rank level
    is never assumed to realize the width.
    """
    above = _level_chains(dag)
    if above is not None:
        peak = int(np.unique(dag.ranks, return_counts=True)[1].max(initial=0))
        if len(above) - np.count_nonzero(above >= 0) == peak:
            return peak
    raise WidthUncertified(
        f"the level-chain certificate does not hold on this {dag.kind.value}({dag.n}) DAG"
    )


# ---------------------------------------------------------------------------
# structural verification


def m_dominance_leq(a: SubsetRef, b: SubsetRef) -> bool:
    """Subset dominance: |a| <= |b| and the i-th largest element of a is <= b's."""
    if a.n != b.n:
        raise LengthMismatch(f"ground sets differ: {a.n} != {b.n}")
    da = sorted(a.indices, reverse=True)
    db = sorted(b.indices, reverse=True)
    if len(da) > len(db):
        return False
    return all(x <= y for x, y in zip(da, db))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    skipped: bool = False
    detail: str = ""


@lru_cache(maxsize=8)
def _psums_matrix(n: int) -> np.ndarray:
    """Running-sum matrix over all masks: row m holds the prefix sums of mask m."""
    masks = np.arange(1 << n, dtype=np.uint32)
    steps = (2 * ((masks[:, None] >> np.arange(n)) & 1) - 1).astype(np.int8)
    ps = np.cumsum(steps, axis=1, dtype=np.int8)
    ps.setflags(write=False)
    return ps


def _leq_matrix(ps: np.ndarray) -> np.ndarray:
    # out[i, j]: row i is at most row j in every column
    out = np.ones((len(ps), len(ps)), dtype=bool)
    for col in ps.T:
        out &= col[:, None] <= col[None, :]
    return out


@lru_cache(maxsize=None)
def _order_matrix(n: int) -> np.ndarray:
    """leq over all masks of P(n), shared read-only by the checks (4**n cells)."""
    le = _leq_matrix(_psums_matrix(n))
    le.setflags(write=False)
    return le


def _members(n: int, kind: PosetKind) -> np.ndarray:
    return np.arange(1 << n) if kind is PosetKind.P else np.flatnonzero(q_membership_table(n))


@lru_cache(maxsize=None)
def _cover_matrix(n: int, kind: PosetKind) -> np.ndarray:
    """Transitive reduction of the order on the members of P(n) or Q(n), in
    ascending mask order, shared read-only by the checks: the strict pairs
    with nothing strictly between (a boolean matmul)."""
    idx = _members(n, kind)
    strict = _order_matrix(n)[np.ix_(idx, idx)] & ~np.eye(len(idx), dtype=bool)
    through = (strict.astype(np.float32) @ strict.astype(np.float32)) > 0.5
    covers = strict & ~through
    covers.setflags(write=False)
    return covers


def _check_covers(n: int) -> str | None:
    for kind in (PosetKind.P, PosetKind.Q):
        expected = _cover_matrix(n, kind)
        dag = build_hasse(n, kind)
        got = np.zeros_like(expected)
        got[dag.lower, dag.upper] = True
        same_nodes = np.array_equal(dag.masks, _members(n, kind))
        if not (same_nodes and np.array_equal(got, expected)):
            return f"operator covers != transitive reduction for {kind.value}({n})"
    return None


def _check_iso(n: int) -> str | None:
    from .core import iso_f

    size = 1 << n
    le = _order_matrix(n)
    # padded decreasing element lists make dominance a componentwise comparison
    padded = np.zeros((size, n), dtype=np.int8)
    for mask in range(size):
        row = [n - b for b in range(n) if mask >> b & 1]
        padded[mask, : len(row)] = row
    dom = _leq_matrix(padded)
    if np.array_equal(le, dom):
        return None
    i, j = np.argwhere(le != dom)[0]
    a, b = SignVector(n, int(i)), SignVector(n, int(j))
    return (f"order and image dominance disagree on {a!r}, {b!r} "
            f"(images {iso_f(a).indices}, {iso_f(b).indices})")


def _check_symmetry(n: int) -> str | None:
    le = _order_matrix(n)
    neg = np.arange(1 << n)[::-1].copy()  # negation of mask m is fullmask - m
    mirrored = le[np.ix_(neg, neg)].T
    if np.array_equal(le, mirrored):
        return None
    i, j = np.argwhere(le != mirrored)[0]
    return f"leq(v, w) != leq(-w, -v) at masks ({int(i)}, {int(j)})"


def _check_chains(n: int) -> str | None:
    ext = extremes(n)
    for k, lo in enumerate(ext.minimal):
        for kp, hi in enumerate(ext.maximal):
            if k != kp and not (leq(lo, hi) and lo != hi):
                return f"minimal #{k} is not strictly below maximal #{kp} at n = {n}"
    return None


def _check_dominance(n: int) -> str | None:
    ps = _psums_matrix(n)
    ext = extremes(n)
    neg = np.arange(1 << n)[::-1]
    for k, lo in enumerate(ext.minimal):
        above = np.all(ps >= ps[lo.mask], axis=1)
        count = int(above.sum())
        if count != 1 << (n - 1):
            return f"minimal #{k} sits below {count} vectors, expected {1 << (n - 1)}"
        if not np.all(above | above[neg]):
            return f"some vector and its negation both avoid minimal #{k}"
    return None


def _check_graded(n: int) -> str | None:
    ranks = _mask_ranks(_members(n, PosetKind.Q), n)
    lower, upper = np.nonzero(_cover_matrix(n, PosetKind.Q))
    jumps = ranks[upper] - ranks[lower]
    bad = np.flatnonzero(jumps != 1)
    return f"a cover in Q({n}) jumps rank by {int(jumps[bad[0]])}" if len(bad) else None


def _check_profiles(n: int) -> str | None:
    from . import counting

    p = counting.p_rank_profile(n)
    rp = counting.rplus_rank_profile(n)
    rm = counting.rminus_rank_profile(n)
    q = counting.q_rank_profile(n)
    r = n * (n + 1) // 2
    padded = [0] * (r + 1)
    padded[n:n + len(q.counts)] = q.counts  # Q rank = P rank - n
    for rho in range(r + 1):
        if p.counts[rho] != padded[rho] + rp.counts[rho] + rm.counts[rho]:
            return f"conservation fails at rank {rho}"
    if q.total != counting.q_size(n):
        return "Q size mismatch"
    if n <= _PROFILE_ENUM_MAX_N:
        ranks = _mask_ranks(np.arange(1 << n), n)
        for kind, counts in ((PosetKind.R_PLUS, rp.counts), (PosetKind.Q, padded)):
            member = np.frombuffer(membership_table(n, kind), dtype=bool)
            if np.bincount(ranks[member], minlength=r + 1).tolist() != list(counts):
                return f"{kind.value} profile disagrees with enumeration"
    return None


def _check_solvers(n: int) -> str | None:
    # through module attributes, so wrappers installed on them see the calls
    from . import core, solver

    rng = random.Random(20_000 + n)
    for _ in range(20):
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = core.normalize_instance(raw)
        ref = solver.solve_brute(inst).abs_delta
        results = {"dp": solver.solve_dp(inst).abs_delta, "mitm": solver.solve_mitm(inst).abs_delta}
        if n >= 3:
            results["qenum"] = solver.solve_q_enum(inst).abs_delta
            results["pruned"] = solver.solve_pruned(inst).abs_delta
        for name, value in results.items():
            if value != ref:
                return f"{name} got {value}, brute got {ref} on {raw}"
    return None


# name -> (check, smallest n it runs at, size guard); a check returns None
# when it passes and its failure detail otherwise
_CHECK_TABLE = {
    "covers": (_check_covers, 1, 10),
    "iso": (_check_iso, 1, 10),
    "symmetry": (_check_symmetry, 1, 10),
    "chains": (_check_chains, 4, 16),
    "dominance": (_check_dominance, 3, 16),
    "graded": (_check_graded, 3, 10),
    "profiles": (_check_profiles, 1, MAX_COUNT_N),
    "solvers": (_check_solvers, 1, 16),
}
CHECKS = tuple(_CHECK_TABLE)


def verify_structure(n: int, checks: Iterable[str] | str = "all") -> list[CheckResult]:
    """Run the named checks at size n, in the order given; ``checks`` is
    "all", one check name, or an iterable of names.

    Besides the structural checks, ``profiles`` cross-checks the counting
    DPs and ``solvers`` the exact solvers against brute force.  Each check
    returns None when it passes and its failure detail otherwise; the
    ``CheckResult`` is built here, named by the check's table key.  One
    guard rule holds for every check: it runs when lo <= n <= hi for its
    table row.  Outside that range, ``checks="all"`` reports it as skipped
    with the reason, while a named check raises ``TooSmall`` below lo and
    ``TooLarge`` above hi.  An unknown name, or a selection that names no
    check, raises ``UnknownCheck``.
    """
    explicit = checks != "all"
    if isinstance(checks, str):  # "all" or one check name
        checks = [checks] if explicit else CHECKS
    names = list(checks)
    if not names:
        raise UnknownCheck("--checks names no check")
    for name in names:
        if name not in _CHECK_TABLE:
            raise UnknownCheck(f"unknown check {name!r}")
    if n < 1:
        raise TooSmall("n must be at least 1")
    results = []
    for name in names:
        check, lo, hi = _CHECK_TABLE[name]
        if lo <= n <= hi:
            detail = check(n)
            results.append(CheckResult(name, detail is None, detail=detail or ""))
        elif not explicit:
            reason = f"requires n >= {lo}" if n < lo else f"capped at n = {hi}"
            results.append(CheckResult(name, True, skipped=True, detail=reason))
        elif n < lo:
            raise TooSmall(f"check {name!r} requires n >= {lo}")
        else:
            raise TooLarge(f"check {name!r} is capped at n = {hi}")
    return results
