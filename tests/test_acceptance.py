"""Acceptance suite: one test per criterion, printing a PASS line when it holds.

Everything asserts exact integer equality; run with ``pytest -s`` to see the
per-criterion lines.
"""

import math
import random
import statistics

import numpy as np
import pytest

from partition_posets import (
    PosetKind,
    SignVector,
    ballot_count,
    build_hasse,
    delta,
    extremes,
    height_formula,
    iter_poset,
    leq,
    negate,
    normalize_instance,
    p_rank_profile,
    poset_height,
    poset_width,
    profile_checks,
    q_rank_profile,
    q_size,
    rank,
    rminus_rank_profile,
    rplus_rank_profile,
    solve_brute,
    solve_corollary,
    solve_dp,
    solve_min_fastpath,
    solve_mitm,
    solve_pruned,
    solve_q_enum,
    width_value,
)
from partition_posets.poset import q_membership_table
from partition_posets.solver import _delta_table

import oracles


def _report(number, name):
    print(f"ACCEPTANCE {number:2d} {name}: PASS")


def test_01_q_size_formula():
    for n in range(1, 17):
        enumerated = sum(1 for _ in iter_poset(n, PosetKind.Q))
        assert enumerated == (1 << n) - 2 * math.comb(n, n // 2) == q_size(n)
    assert (q_size(4), q_size(5), q_size(6)) == (4, 12, 24)
    _report(1, "Q size formula, n in [1,16]")


def test_02_cover_characterization():
    for n in range(3, 9):
        for kind in (PosetKind.P, PosetKind.Q):
            dag = build_hasse(n, kind)
            elements = [v.entries for v in dag.nodes]
            expected = oracles.transitive_reduction(elements, oracles.leq_entries)
            index = {v: i for i, v in enumerate(dag.nodes)}
            got = {(index[v], index[w]) for v, w in dag.edges}
            assert got == expected, (n, kind)
    _report(2, "operator covers == transitive reduction, n in [3,8]")


def test_03_order_isomorphism():
    for n in range(3, 9):
        vectors = [SignVector(n, m) for m in range(1 << n)]
        images = [
            tuple(sorted((n - b for b in range(n) if m >> b & 1), reverse=True))
            for m in range(1 << n)
        ]
        for i, v in enumerate(vectors):
            for j, w in enumerate(vectors):
                assert leq(v, w) == oracles.dominance(images[i], images[j]), (n, i, j)
    _report(3, "order isomorphism with subset dominance, n in [3,8]")


def test_04_heights():
    for n in range(3, 13):
        dag_p = build_hasse(n, PosetKind.P)
        assert poset_height(dag_p) == n * (n + 1) // 2 + 1
        dag_q = build_hasse(n, PosetKind.Q)
        assert poset_height(dag_q) == height_formula(n, PosetKind.Q), n
    assert height_formula(3, PosetKind.Q) == 1
    assert height_formula(8, PosetKind.Q) == 16
    _report(4, "heights match closed forms, n in [3,12], both branches")


def test_05_width_and_sperner():
    for n in range(4, 10):
        wp = poset_width(build_hasse(n, PosetKind.P))
        wq = poset_width(build_hasse(n, PosetKind.Q))
        peak = max(p_rank_profile(n).counts)
        assert wp == wq == peak == width_value(n), n
    assert width_value(5) == 3 == oracles.subset_sum_counts(5)[7]
    assert width_value(6) == 5 == oracles.subset_sum_counts(6)[10]
    _report(5, "width via matching == peak level == middle coefficient, n in [4,9]")


def test_06_rank_structure():
    for n in range(3, 15):
        profile = q_rank_profile(n)
        hist = [0] * len(profile.counts)
        for v in iter_poset(n, PosetKind.Q):
            hist[rank(v, PosetKind.Q)] += 1
        assert list(profile.counts) == hist, n
    for n in range(3, 31):
        assert profile_checks(q_rank_profile(n)).symmetric, n
    for n in range(3, 22):
        assert profile_checks(q_rank_profile(n)).unimodal, n
    _report(6, "Q profiles: enumeration <= 14, symmetric <= 30, unimodal <= 21")


def test_07_counting_identities():
    for n in range(1, 121):
        assert ballot_count(n) == math.comb(n, n // 2)
    for n in range(1, 121):
        p = p_rank_profile(n).counts
        rp = rplus_rank_profile(n).counts
        rm = rminus_rank_profile(n).counts
        q = q_rank_profile(n).counts
        r = n * (n + 1) // 2
        for rho in range(r + 1):
            q_at = q[rho - n] if 0 <= rho - n < len(q) else 0
            assert p[rho] == q_at + rp[rho] + rm[rho], (n, rho)
        assert max(p) < 1 << 128
    _report(7, "recurrence == closed form and profile conservation, n <= 120")


def test_08_solver_oracle_equivalence():
    rng = random.Random(0xACCE55)
    minfast_fired = corollary_fired = 0
    for _ in range(500):
        n = rng.randint(3, 16)
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = normalize_instance(raw)
        reference = solve_brute(inst).abs_delta
        assert solve_dp(inst).abs_delta == reference, raw
        assert solve_q_enum(inst).abs_delta == reference, raw
        assert solve_pruned(inst).abs_delta == reference, raw
        assert solve_mitm(inst).abs_delta == reference, raw
        fast = solve_min_fastpath(inst)
        if fast is not None:
            minfast_fired += 1
            assert fast.abs_delta == reference, raw
        cor = solve_corollary(inst)
        if cor is not None:
            corollary_fired += 1
            assert cor.abs_delta == reference, raw
    # targeted firing instances
    targeted_fast = solve_min_fastpath(normalize_instance([10, 3, 2, 1]))
    assert targeted_fast is not None and targeted_fast.abs_delta == 4
    minfast_fired += 1
    targeted_cor = solve_corollary(normalize_instance([10, 4, 3, 2, 2]))
    assert targeted_cor is not None and targeted_cor.abs_delta == 1
    corollary_fired += 1
    assert minfast_fired >= 1 and corollary_fired >= 1
    print(f"fast paths fired: minfast {minfast_fired}, corollary {corollary_fired}")
    _report(8, "five exact solvers agree on 500 random instances, n in [3,16]")


def test_09_dominance_pruning_property():
    rng = random.Random(0xD0E)
    for n in range(4, 11):
        members = np.nonzero(np.asarray(q_membership_table(n)))[0]
        full = (1 << n) - 1
        vecs = [SignVector(n, int(m)) for m in members]
        pos = {int(m): i for i, m in enumerate(members)}
        le = np.zeros((len(vecs), len(vecs)), dtype=bool)
        for i, v in enumerate(vecs):
            for j, w in enumerate(vecs):
                le[i, j] = leq(v, w)
        for _ in range(20):
            inst = normalize_instance([rng.randint(0, 1000) for _ in range(n)])
            dt = _delta_table(inst.c)
            dq = dt[members]
            absdq = np.abs(dq)
            for i, m in enumerate(members):
                if dq[i] < 0:
                    continue
                dominated = le[i] | le[:, pos[full ^ int(m)]]
                assert not (absdq[dominated] < dq[i]).any(), (n, int(m))
    _report(9, "nonnegative nodes dominate up-sets and negated down-sets, n in [4,10]")


def test_10_minimal_element_lemmas():
    for n in range(4, 17):
        ext = extremes(n)
        for k, lo in enumerate(ext.minimal):
            for kp, hi in enumerate(ext.maximal):
                if k != kp:
                    assert leq(lo, hi) and lo != hi, (n, k, kp)
    for n in range(3, 13):
        ext = extremes(n)
        vectors = [SignVector(n, m) for m in range(1 << n)]
        for lo in ext.minimal:
            above = [v for v in vectors if leq(lo, v)]
            assert len(above) == 1 << (n - 1), (n, lo)
            above_masks = {v.mask for v in above}
            full = (1 << n) - 1
            for v in vectors:
                assert v.mask in above_masks or (full ^ v.mask) in above_masks, (n, lo, v)
    _report(10, "minimal-element chain and dominance lemmas, n in [4,16] / [3,12]")


def test_11_pruning_effectiveness():
    rng = random.Random(0xBEEF)
    n = 18
    visits = []
    for _ in range(50):
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = normalize_instance(raw)
        sol = solve_pruned(inst)
        assert sol.abs_delta == solve_dp(inst).abs_delta, raw
        visits.append(sol.nodes_visited)
    median = statistics.median(visits)
    assert median < q_size(n) // 2, (median, q_size(n) // 2)
    print(f"median nodes visited at n=18: {median} (candidate pairs: {q_size(n) // 2})")
    _report(11, "pruned search median nodes below candidate-pair count at n = 18")
