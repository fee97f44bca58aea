import itertools
import random
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from partition_posets import (
    HasseDag,
    NotInPoset,
    OperatorUndefined,
    PosetKind,
    SignVector,
    SubsetRef,
    TooLarge,
    TooSmall,
    UnknownCheck,
    WidthUncertified,
    apply_addition,
    apply_swap,
    build_hasse,
    extremes,
    iter_poset,
    leq,
    lower_covers,
    m_dominance_leq,
    meet_join,
    membership,
    negate,
    poset_height,
    poset_width,
    q_size,
    rank,
    upper_covers,
    verify_structure,
    width_value,
)
from partition_posets import poset

import oracles


def sv(*entries):
    return SignVector.from_entries(entries)


# ---------------------------------------------------------------------------
# operators


def test_addition_operator():
    assert apply_addition(sv(1, -1, -1, -1, -1), 5) == sv(1, -1, -1, -1, 1)
    assert apply_addition(sv(-1, 1), 1) == sv(1, 1)
    with pytest.raises(OperatorUndefined):
        apply_addition(sv(1, 1, -1), 2)


def test_swap_operator():
    assert apply_swap(sv(-1, 1, 1, 1, 1), 1, 2) == sv(1, -1, 1, 1, 1)
    assert apply_swap(sv(1, -1, -1, 1), 2, 4) == sv(1, 1, -1, -1)
    with pytest.raises(OperatorUndefined):
        apply_swap(sv(1, -1, 1), 1, 3)
    with pytest.raises(OperatorUndefined):
        apply_swap(sv(-1, 1, 1), 2, 1)


def test_operators_increase_order():
    for n in range(2, 7):
        for mask in range(1 << n):
            v = SignVector(n, mask)
            for k in range(1, n + 1):
                if v.entry(k) == -1:
                    assert leq(v, apply_addition(v, k))
            for j, k in itertools.combinations(range(1, n + 1), 2):
                if v.entry(j) == -1 and v.entry(k) == 1:
                    assert leq(v, apply_swap(v, j, k))


# ---------------------------------------------------------------------------
# membership


def test_membership_examples():
    assert membership(sv(1, -1, -1)) is PosetKind.Q
    assert membership(sv(-1, 1, 1)) is PosetKind.Q
    assert membership(sv(1, -1, 1, -1, 1)) is PosetKind.R_PLUS
    assert membership(sv(-1, -1, 1)) is PosetKind.R_MINUS


def test_membership_trichotomy_exhaustive():
    for n in range(1, 9):
        for mask in range(1 << n):
            v = SignVector(n, mask)
            assert membership(v).value == oracles.classify(v.entries)


def test_q_membership_table_matches_classify():
    from partition_posets.poset import q_membership_table

    for n in range(1, 13):
        table = q_membership_table(n)
        expected = [oracles.classify(oracles.entries_of(m, n)) == "Q" for m in range(1 << n)]
        assert table.tolist() == expected
    rng = random.Random(29)
    for n in range(21, 25):
        table = q_membership_table(n)
        assert len(table) == 1 << n
        for mask in [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(2000)]:
            assert table[mask] == (oracles.classify(oracles.entries_of(mask, n)) == "Q")


def test_q_lower_covers_and_complement_lemma():
    # the two facts behind solve_pruned's closed-form sweep count: Q(n) is
    # closed under complement, and an element of Q(n) with anything of Q(n)
    # below it has a lower cover in Q(n)
    import numpy as np

    from partition_posets.poset import _leq_matrix, _psums_matrix, q_membership_table

    for n in range(3, 13):
        q = q_membership_table(n)
        assert np.array_equal(q, q[::-1])  # the complement of mask m is 2**n - 1 - m
        idx = np.nonzero(q)[0]
        strict = _leq_matrix(_psums_matrix(n)[idx]) & ~np.eye(len(idx), dtype=bool)
        has_lower = strict.any(axis=0)
        top_bit = 1 << (n - 1)
        for j, w in enumerate(idx.tolist()):
            # the lower covers spelled on bits, independently of
            # core.cover_moves (the one encoding, which lower_covers reads):
            # the addition undone, and each swap undone at bits (i, i + 1)
            # holding (1, 0)
            downs = [w ^ top_bit] if w & top_bit else []
            downs += [w + (1 << i) for i in range(n - 1) if (w >> i) & 3 == 1]
            assert sorted(downs) == sorted(v.mask for v in lower_covers(SignVector(n, w)))
            assert any(q[u] for u in downs) == has_lower[j], (n, w)


# ---------------------------------------------------------------------------
# covers


def test_upper_covers_examples():
    assert upper_covers(sv(1, -1, -1, -1, -1)) == [sv(1, -1, -1, -1, 1)]
    assert upper_covers(sv(-1, 1, 1)) == [sv(1, -1, 1)]
    top = extremes(5).maximal
    for m in top:
        assert upper_covers(m, PosetKind.Q) == []


def test_upper_covers_not_in_poset():
    with pytest.raises(NotInPoset):
        upper_covers(sv(1, 1, 1), PosetKind.Q)


def test_lower_covers_mirror_upper():
    for mask in range(1 << 5):
        v = SignVector(5, mask)
        ups = {w.mask for w in upper_covers(v)}
        downs = {w.mask for w in lower_covers(negate(v))}
        assert ups == {negate(SignVector(5, m)).mask for m in downs}


@pytest.mark.parametrize("n", range(3, 11))
def test_cover_soundness_n_up_to_10(n):
    dag = build_hasse(n, PosetKind.P)
    for v, w in dag.edges:
        assert leq(v, w) and v != w
        assert dag.rank_of[w] == dag.rank_of[v] + 1
    assert dag.rank_of == {v: oracles.rank_of(v.entries) for v in dag.nodes}
    dagq = build_hasse(n, PosetKind.Q)
    for v, w in dagq.edges:
        assert leq(v, w)
        assert dagq.rank_of[w] == dagq.rank_of[v] + 1
    assert dagq.rank_of == {v: oracles.rank_of(v.entries) - n for v in dagq.nodes}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", [PosetKind.P, PosetKind.Q])
def test_cover_completeness_vs_reduction(n, kind):
    dag = build_hasse(n, kind)
    elements = [v.entries for v in dag.nodes]
    expected = oracles.transitive_reduction(elements, oracles.leq_entries)
    index = {v: i for i, v in enumerate(dag.nodes)}
    got = {(index[v], index[w]) for v, w in dag.edges}
    assert got == expected


def test_order_decomposes_into_cover_paths_p6():
    dag = build_hasse(6, PosetKind.P)
    index = {v: i for i, v in enumerate(dag.nodes)}
    reach = [0] * len(dag.nodes)
    for v, w in sorted(dag.edges, key=lambda e: -dag.rank_of[e[0]]):
        i, j = index[v], index[w]
        reach[i] |= reach[j] | (1 << j)
    for i, v in enumerate(dag.nodes):
        for j, w in enumerate(dag.nodes):
            if i != j:
                assert leq(v, w) == bool(reach[i] >> j & 1)


# ---------------------------------------------------------------------------
# rank


def test_rank_examples():
    assert rank(sv(-1, -1, -1, -1)) == 0
    assert rank(sv(1, 1, 1, 1, 1)) == 15
    assert rank(sv(1, -1, -1, -1, -1), PosetKind.Q) == 0


def test_rank_minimum_over_q5_is_zero():
    ranks = [rank(v, PosetKind.Q) for v in iter_poset(5, PosetKind.Q)]
    assert min(ranks) == 0


def test_rank_rejects_non_members():
    with pytest.raises(NotInPoset):
        rank(sv(1, 1, 1), PosetKind.Q)


# ---------------------------------------------------------------------------
# extremes


def test_extremes_n5():
    ext = extremes(5)
    assert ext.maximal == (sv(-1, 1, 1, 1, 1), sv(1, -1, -1, 1, 1), sv(1, 1, -1, -1, -1))
    assert ext.minimal == tuple(negate(v) for v in ext.maximal)


def test_extremes_n3_and_n4():
    ext3 = extremes(3)
    assert set(ext3.maximal) == {sv(-1, 1, 1), sv(1, -1, -1)}
    assert set(ext3.maximal) == set(ext3.minimal)
    ext4 = extremes(4)
    assert ext4.ell == 1
    assert ext4.maximal == (sv(-1, 1, 1, 1), sv(1, -1, -1, 1))


def test_extremes_too_small():
    with pytest.raises(TooSmall):
        extremes(2)


@pytest.mark.parametrize("n", range(3, 13))
def test_extremes_match_dag_endpoints(n):
    dag = build_hasse(n, PosetKind.Q)
    has_out = {v for v, _ in dag.edges}
    has_in = {w for _, w in dag.edges}
    ext = extremes(n)
    assert set(ext.maximal) == set(dag.nodes) - has_out
    assert set(ext.minimal) == set(dag.nodes) - has_in


# ---------------------------------------------------------------------------
# lattice operations


def test_meet_join_example():
    meet, join = meet_join(sv(1, -1, -1), sv(-1, 1, 1))
    assert join == sv(1, -1, 1)
    assert meet == sv(-1, 1, -1)


def test_meet_join_idempotent_and_absorbing():
    bottom = sv(-1, -1, -1, -1)
    for mask in range(16):
        v = SignVector(4, mask)
        assert meet_join(v, v) == (v, v)
        assert meet_join(v, bottom)[0] == bottom


def test_meet_join_are_glb_lub_p3():
    elems = [SignVector(3, m) for m in range(8)]
    for v, w in itertools.product(elems, repeat=2):
        meet, join = meet_join(v, w)
        uppers = [u for u in elems if leq(v, u) and leq(w, u)]
        lowers = [u for u in elems if leq(u, v) and leq(u, w)]
        assert join in uppers and all(leq(join, u) for u in uppers)
        assert meet in lowers and all(leq(u, meet) for u in lowers)


def test_lattice_laws_p4():
    elems = [SignVector(4, m) for m in range(16)]
    for x, y, z in itertools.product(elems, repeat=3):
        xy_m, xy_j = meet_join(x, y)
        yx_m, yx_j = meet_join(y, x)
        assert (xy_m, xy_j) == (yx_m, yx_j)  # commutative
        # associativity of join
        assert meet_join(xy_j, z)[1] == meet_join(x, meet_join(y, z)[1])[1]
        # absorption
        assert meet_join(x, xy_j)[0] == x
        # distributivity
        yz_m = meet_join(y, z)[0]
        lhs = meet_join(x, yz_m)[1]
        rhs = meet_join(meet_join(x, y)[1], meet_join(x, z)[1])[0]
        assert lhs == rhs


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    assert sum(1 for _ in iter_poset(4, PosetKind.Q)) == 4
    assert sum(1 for _ in iter_poset(5, PosetKind.Q)) == 12
    assert sum(1 for _ in iter_poset(6, PosetKind.Q)) == 24
    assert sum(1 for _ in iter_poset(4, PosetKind.R_PLUS)) == 6


@pytest.mark.parametrize("n", range(1, 11))
def test_enumeration_matches_closed_forms(n):
    import math

    assert sum(1 for _ in iter_poset(n, PosetKind.P)) == 1 << n
    assert sum(1 for _ in iter_poset(n, PosetKind.Q)) == q_size(n)
    assert sum(1 for _ in iter_poset(n, PosetKind.R_PLUS)) == math.comb(n, n // 2)
    assert sum(1 for _ in iter_poset(n, PosetKind.R_MINUS)) == math.comb(n, n // 2)


def test_enumeration_ascending_and_guarded():
    masks = [v.mask for v in iter_poset(6, PosetKind.Q)]
    assert masks == sorted(masks)
    with pytest.raises(TooLarge):
        list(iter_poset(25, PosetKind.P))
    first = next(iter_poset(25, PosetKind.P, force=True))
    assert first.mask == 0
    with pytest.raises(TooLarge, match="stop at n = 24"):
        next(iter_poset(25, PosetKind.Q, force=True))


def test_enumeration_force_stops_at_sign_vector_length():
    # force lifts the enumeration cap, never the 64-bit mask encoding
    with pytest.raises(TooLarge):
        next(iter_poset(65, PosetKind.Q, force=True))


# ---------------------------------------------------------------------------
# Hasse DAGs, heights, widths


def test_hasse_q3():
    dag = build_hasse(3, PosetKind.Q)
    assert len(dag.nodes) == 2
    assert dag.edges == ()
    assert poset_height(dag) == 1


def test_hasse_q4():
    dag = build_hasse(4, PosetKind.Q)
    assert len(dag.nodes) == 4
    assert len(dag.edges) == 2
    assert poset_height(dag) == 2


def test_hasse_p5_counts():
    dag = build_hasse(5, PosetKind.P)
    assert len(dag.nodes) == 32
    elements = [v.entries for v in dag.nodes]
    assert len(dag.edges) == len(
        oracles.transitive_reduction(elements, oracles.leq_entries)
    )
    assert poset_height(dag) == 16


def test_hasse_guards():
    with pytest.raises(TooLarge):
        build_hasse(15, PosetKind.P)
    with pytest.raises(TooLarge):
        build_hasse(17, PosetKind.Q)
    with pytest.raises(ValueError):
        build_hasse(4, PosetKind.R_PLUS)


@pytest.mark.parametrize("kind", [PosetKind.P, PosetKind.Q])
def test_forced_hasse_stops_at_the_table_cap(kind):
    # force lifts the DAG caps, but the membership tables stop at n = 24
    with pytest.raises(TooLarge, match="stop at n = 24"):
        build_hasse(25, kind, force=True)


@pytest.mark.parametrize("n", range(1, 17))
def test_heights_match_formulas(n):
    # every buildable size: P(1..14) and Q(3..16)
    from partition_posets import height_formula

    if n <= 14:
        assert poset_height(build_hasse(n, PosetKind.P)) == height_formula(n, PosetKind.P)
    if n >= 3:
        assert poset_height(build_hasse(n, PosetKind.Q)) == height_formula(n, PosetKind.Q)


@pytest.mark.parametrize(
    "kind, sizes", [(PosetKind.P, range(1, 11)), (PosetKind.Q, range(3, 13))]
)
def test_array_dag_matches_object_build(kind, sizes):
    for n in sizes:
        dag = build_hasse(n, kind)
        nodes, edges, rank_of = oracles.hasse_by_objects(n, kind)
        assert dag.nodes == nodes, (kind, n)
        assert dag.edges == edges, (kind, n)
        assert dag.rank_of == rank_of, (kind, n)


def test_width_p3_bruteforce():
    dag = build_hasse(3, PosetKind.P)
    elements = [v.entries for v in dag.nodes]
    assert poset_width(dag) == oracles.max_antichain_bruteforce(
        elements, oracles.leq_entries
    ) == 2


def test_width_values_small():
    assert poset_width(build_hasse(5, PosetKind.P)) == 3
    assert poset_width(build_hasse(5, PosetKind.Q)) == 3


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_width_equality_and_sperner(n):
    from partition_posets import p_rank_profile, width_value

    wp = poset_width(build_hasse(n, PosetKind.P))
    wq = poset_width(build_hasse(n, PosetKind.Q))
    assert wp == wq == width_value(n) == max(p_rank_profile(n).counts)


def test_width_leaves_the_recursion_limit_alone(monkeypatch):
    # the matching is iterative: the process-wide recursion limit is never set
    def refuse(limit):
        raise AssertionError("sys.setrecursionlimit called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert poset_width(build_hasse(9, PosetKind.P)) == width_value(9)
    assert poset_width(build_hasse(10, PosetKind.Q)) == width_value(10)
    with pytest.raises(WidthUncertified):
        poset_width(_non_peck_dag())
    assert oracles.dilworth_width(_non_peck_dag()) == 3  # the oracle's matching


def test_width_in_two_threads_at_once():
    dag = build_hasse(10, PosetKind.Q)
    non_peck = _non_peck_dag()
    widths = []
    fallback_widths = []

    def work():
        widths.append(poset_width(dag))
        try:
            poset_width(non_peck)
        except WidthUncertified:
            fallback_widths.append(oracles.dilworth_width(non_peck))

    threads = [threading.Thread(target=work) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the two matchings finely
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert widths == [40, 40]
    assert fallback_widths == [3, 3]


def _hand_dag(ranked: dict[int, int], edges: list[tuple[int, int]]) -> HasseDag:
    # a HasseDag built by hand: node mask -> rank, and (lower, upper) mask
    # pairs, listed in ascending order as build_hasse lists its edges
    n = max(1, max(ranked).bit_length())
    masks = sorted(ranked)
    index = {m: i for i, m in enumerate(masks)}
    return HasseDag(
        kind=PosetKind.P,
        n=n,
        masks=np.array(masks, dtype=np.int64),
        ranks=np.array([ranked[m] for m in masks], dtype=np.int64),
        lower=np.array([index[a] for a, _ in edges], dtype=np.int64),
        upper=np.array([index[b] for _, b in edges], dtype=np.int64),
    )


def _non_peck_dag() -> HasseDag:
    # graded, but level 0 = {a1, a2} cannot be matched into level 1 = {b1, b2}:
    # only a1 has covers (a1 -> b1, a1 -> b2), so the levels give 3 chains
    a1, a2, b1, b2 = 0, 1, 2, 3
    return _hand_dag({a1: 0, a2: 0, b1: 1, b2: 1}, [(a1, b1), (a1, b2)])


def _reach_leq(dag: HasseDag):
    # v <= w in the DAG's order: w is reachable from v along its edges
    succ = {v: [] for v in dag.nodes}
    for v, w in dag.edges:
        succ[v].append(w)

    def le(v, w):
        stack, seen = [v], set()
        while stack:
            u = stack.pop()
            if u == w:
                return True
            if u not in seen:
                seen.add(u)
                stack.extend(succ[u])
        return False

    return le


def _chains(dag: HasseDag, above) -> list[tuple[SignVector, ...]]:
    # the chains linked by above, bottom up, ordered by their lowest node
    tops = set(above.tolist())
    chains = []
    for i in range(len(above)):
        if i not in tops:
            chain = [dag.nodes[i]]
            while above[i] != -1:
                i = above[i]
                chain.append(dag.nodes[i])
            chains.append(tuple(chain))
    return chains


def _check_chain_partition(dag: HasseDag, chains) -> None:
    covers = {(v.mask, w.mask) for v, w in dag.edges}
    for chain in chains:
        assert all((v.mask, w.mask) in covers for v, w in zip(chain, chain[1:]))
    seen = [v.mask for chain in chains for v in chain]
    assert len(seen) == len(set(seen)) == len(dag.nodes)
    assert set(seen) == {v.mask for v in dag.nodes}


@pytest.mark.parametrize(
    "kind, sizes", [(PosetKind.P, range(1, 15)), (PosetKind.Q, range(3, 17))]
)
def test_level_chains_certify_width_at_every_buildable_size(kind, sizes):
    for n in sizes:
        dag = build_hasse(n, kind)
        chains = _chains(dag, poset._level_chains(dag))
        _check_chain_partition(dag, chains)
        peak = max(Counter(dag.rank_of.values()).values())
        assert len(chains) == peak == width_value(n), (kind, n)
        assert poset_width(dag) == width_value(n), (kind, n)


def _max_matching_size(adj, n_right):
    # Kuhn's augmenting paths from each left vertex in turn, no greedy start
    pair_v = [-1] * n_right

    def augment(u, seen):
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if pair_v[v] == -1 or augment(pair_v[v], seen):
                    pair_v[v] = u
                    return True
        return False

    return sum(augment(u, set()) for u in range(len(adj)))


def test_hopcroft_karp_after_its_greedy_start():
    # the greedy pass takes each left vertex's first free neighbour, so
    # [[0, 1], [0]] leaves vertex 1 for an augmenting path; random graphs of
    # either shape must still reach Kuhn's maximum with a valid matching
    assert poset._hopcroft_karp([[0, 1], [0]], 2) == [1, 0]
    assert poset._hopcroft_karp([[0], [0], [1, 0]], 2) == [0, -1, 1]
    rng = random.Random(41)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 12), rng.randint(1, 12)
        p = rng.choice((0.1, 0.25, 0.5))
        adj = [[v for v in range(n_right) if rng.random() < p] for _ in range(n_left)]
        pair_u = poset._hopcroft_karp(adj, n_right)
        matched = [(u, v) for u, v in enumerate(pair_u) if v >= 0]
        assert all(v in adj[u] for u, v in matched)
        assert len({v for _, v in matched}) == len(matched)
        assert len(matched) == _max_matching_size(adj, n_right), adj


def test_width_refuses_a_non_peck_dag():
    dag = _non_peck_dag()
    chains = _chains(dag, poset._level_chains(dag))
    _check_chain_partition(dag, chains)
    assert len(chains) == 3 > max(Counter(dag.rank_of.values()).values()) == 2
    with pytest.raises(WidthUncertified, match="level-chain certificate"):
        poset_width(dag)
    assert oracles.dilworth_width(dag) == 3 == oracles.max_antichain_bruteforce(
        list(dag.nodes), _reach_leq(dag)
    )


@pytest.mark.parametrize(
    "ranked, edges, width",
    [
        # a -> b -> c and d -> c, where d -> c jumps from rank 0 to rank 2
        ({0: 0, 1: 1, 2: 2, 3: 0}, [(0, 1), (1, 2), (3, 2)], 2),
        # an edge inside one level: that level is no antichain, so its size
        # (2) is no lower bound and the certificate must not answer
        ({0: 0, 1: 0}, [(0, 1)], 1),
        # a, c -> b -> d, e inside one level: reachability must follow the
        # edges, not the ranks, or a < d is missed and three chains appear
        ({0: 0, 1: 0, 2: 0, 3: 0, 4: 0}, [(0, 2), (1, 2), (2, 3), (2, 4)], 2),
    ],
    ids=["skipped-rank", "flat-edge", "flat-bowtie"],
)
def test_width_skips_the_certificate_on_ungraded_edges(ranked, edges, width):
    dag = _hand_dag(ranked, edges)
    assert poset._level_chains(dag) is None
    with pytest.raises(WidthUncertified):
        poset_width(dag)
    assert oracles.dilworth_width(dag) == width == oracles.max_antichain_bruteforce(
        list(dag.nodes), _reach_leq(dag)
    )


def test_width_caps_only_the_dilworth_fallback(monkeypatch):
    # the certificate has no cap: it answers Q(14), far above this one
    # (tested above), and refuses each ungraded DAG below at once.  The
    # Dilworth oracle is capped by comparable pairs, not nodes: a chain
    # inside one level (no grading) with one pair too many is refused,
    # while more nodes than Q(12) has, with one pair, are answered
    k = 2
    while k * (k + 1) // 2 <= oracles.WIDTH_MAX_PAIRS:
        k += 1
    chain = _hand_dag({m: 0 for m in range(k + 1)}, [(m, m + 1) for m in range(k)])
    with pytest.raises(TooLarge, match="Dilworth width oracle"):
        oracles.dilworth_width(chain)
    with pytest.raises(WidthUncertified):
        poset_width(chain)
    wide = _hand_dag({m: 0 for m in range(4096)}, [(0, 1)])
    assert oracles.dilworth_width(wide) == 4095
    with pytest.raises(WidthUncertified):
        poset_width(wide)
    # the bound itself: the three pairs of a three-node chain
    small = _hand_dag({0: 0, 1: 0, 2: 0}, [(0, 1), (1, 2)])
    monkeypatch.setattr(oracles, "WIDTH_MAX_PAIRS", 3)
    assert oracles.dilworth_width(small) == 1
    monkeypatch.setattr(oracles, "WIDTH_MAX_PAIRS", 2)
    with pytest.raises(TooLarge, match="capped at 2 comparable pairs"):
        oracles.dilworth_width(small)
    with pytest.raises(WidthUncertified):
        poset_width(small)


def test_dilworth_fallback_agrees_with_the_certificate():
    for kind, sizes in ((PosetKind.P, range(1, 11)), (PosetKind.Q, range(3, 12))):
        for n in sizes:
            dag = build_hasse(n, kind)
            chains = _chains(dag, poset._level_chains(dag))
            assert oracles.dilworth_width(dag) == len(chains), (kind, n)


# ---------------------------------------------------------------------------
# dominance order helper and verify_structure


def test_m_dominance():
    assert m_dominance_leq(SubsetRef((3,), 5), SubsetRef((3, 5), 5))
    assert not m_dominance_leq(SubsetRef((1, 2, 3), 5), SubsetRef((4, 5), 5))
    assert m_dominance_leq(SubsetRef((), 5), SubsetRef((1,), 5))


def test_verify_structure_all_pass():
    results = verify_structure(5, "all")
    assert all(r.passed for r in results)
    assert not any(r.skipped for r in results)


def test_verify_structure_skips_chains_at_n3():
    results = {r.name: r for r in verify_structure(3, "all")}
    assert results["chains"].skipped


def test_verify_structure_takes_one_check_name_as_a_string():
    results = verify_structure(6, "covers")
    assert [(r.name, r.passed, r.skipped) for r in results] == [("covers", True, False)]


def test_graded_reports_the_first_rank_jump(monkeypatch):
    # doubled ranks make every cover of Q(5) jump by 2
    real = poset._mask_ranks
    monkeypatch.setattr(poset, "_mask_ranks", lambda masks, n: 2 * real(masks, n))
    (res,) = verify_structure(5, ["graded"])
    assert not res.passed and res.detail == "a cover in Q(5) jumps rank by 2"


def test_verify_structure_guards():
    with pytest.raises(UnknownCheck):
        verify_structure(5, ["bogus"])
    with pytest.raises(TooLarge, match="check 'covers' is capped at n = 10"):
        verify_structure(12, ["covers"])
    with pytest.raises(TooSmall, match="check 'graded' requires n >= 3"):
        verify_structure(2, "graded")
    with pytest.raises(UnknownCheck, match="names no check"):
        verify_structure(5, [])
    skipped = {r.name: r for r in verify_structure(12, "all")}
    assert skipped["covers"].skipped
    assert not skipped["chains"].skipped
