import heapq
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partition_posets import (
    ALGORITHMS,
    PosetKind,
    SignVector,
    SubsetRef,
    TooLarge,
    TooSmall,
    UnknownAlgorithm,
    delta,
    extremes,
    iter_poset,
    leq,
    negate,
    normalize_instance,
    q_size,
    solve,
    solve_brute,
    solve_corollary,
    solve_dp,
    solve_min_fastpath,
    solve_mitm,
    solve_pruned,
    solve_q_enum,
)
from partition_posets import solver
from partition_posets.core import cover_moves
from partition_posets.poset import q_membership_table
from partition_posets.solver import _delta_table

import oracles


def inst_of(*values):
    return normalize_instance(list(values))


def recompute(raw, subset):
    total = sum(raw)
    s = sum(raw[i - 1] for i in subset.indices)
    return 2 * s - total


# ---------------------------------------------------------------------------
# brute force


def test_brute_examples():
    sol = solve_brute(inst_of(4, 3, 2, 1))
    assert sol.abs_delta == 0
    assert sol.subset.indices == (1, 4)
    assert solve_brute(inst_of(5, 5, 5)).abs_delta == 5
    single = solve_brute(inst_of(1))
    assert single.abs_delta == 1 and single.subset.indices == (1,)


def test_brute_guard():
    with pytest.raises(TooLarge):
        solve_brute(normalize_instance([1] * 30))


def test_brute_vs_subset_enumeration():
    rng = random.Random(11)
    for _ in range(50):
        raw = [rng.randint(0, 200) for _ in range(rng.randint(1, 10))]
        assert solve_brute(normalize_instance(raw)).abs_delta == oracles.min_abs_delta(raw)


def test_brute_reports_original_indices():
    raw = [3, 10, 2, 1]
    sol = solve_brute(normalize_instance(raw))
    assert recompute(raw, sol.subset) == sol.delta
    assert sol.abs_delta == oracles.min_abs_delta(raw)


# ---------------------------------------------------------------------------
# DP oracle


def test_dp_examples():
    assert solve_dp(inst_of(10, 3, 2, 1)).abs_delta == 4
    tied = solve_dp(inst_of(7, 0))
    assert tied.abs_delta == 7
    assert tied.subset.indices == (1,)
    assert solve_dp(inst_of(4, 3, 2, 1)).abs_delta == 0


def test_dp_guard():
    with pytest.raises(TooLarge):
        solve_dp(normalize_instance([10**7] * 20))


def test_dp_agrees_with_brute():
    rng = random.Random(23)
    for _ in range(100):
        raw = [rng.randint(0, 1000) for _ in range(rng.randint(1, 12))]
        inst = normalize_instance(raw)
        assert solve_dp(inst).abs_delta == solve_brute(inst).abs_delta


def test_dp_answers_plus_optimum_at_smallest_mask():
    # pruned's closed form takes its first candidate from solve_dp: delta
    # +v*, never -v*, at the smallest mask of that delta, also where zeros
    # and ties give many masks the optimum
    rng = random.Random(29)
    families = [SWEEP_FAMILIES["zeros"], PRUNED_FAMILIES["ties_zeros"], PRUNED_FAMILIES["uniform"]]
    for n in range(1, 15):
        for draw in families:
            for _ in range(6):
                inst = normalize_instance(draw(rng, n))
                sol = solve_dp(inst)
                sums = oracles.signed_sums(inst.c)
                best = min(map(abs, sums))
                chosen = set(sol.subset.indices)
                mask = sum(1 << i for i, p in enumerate(inst.perm) if p in chosen)
                assert sol.delta == best and mask == sums.index(best), inst.c


# ---------------------------------------------------------------------------
# middle-poset enumeration


def test_qenum_examples():
    sol = solve_q_enum(inst_of(5, 5, 5))
    assert sol.abs_delta == 5
    assert sol.nodes_visited == 1  # a single complementary pair in Q(3)
    four = solve_q_enum(inst_of(4, 3, 2, 1))
    assert four.abs_delta == 0
    assert four.nodes_visited == q_size(4) // 2 == 2


def test_qenum_guards():
    with pytest.raises(TooSmall):
        solve_q_enum(inst_of(1, 2))
    with pytest.raises(TooLarge):
        solve_q_enum(normalize_instance([1] * 25))


def test_qenum_agrees_with_brute():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(3, 14)
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = normalize_instance(raw)
        assert solve_q_enum(inst).abs_delta == solve_brute(inst).abs_delta


def test_candidates_outside_middle_poset_never_win():
    # dropping everything comparable with zero keeps at least one optimum
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(3, 14)
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = normalize_instance(raw)
        dt = np.abs(_delta_table(inst.c))
        from partition_posets.poset import q_membership_table

        in_q = np.asarray(q_membership_table(n))
        assert dt[in_q].min() <= dt[~in_q].min()


# ---------------------------------------------------------------------------
# pruned ascent


def test_pruned_examples():
    sol = solve_pruned(inst_of(10, 3, 2, 1))
    assert sol.abs_delta == 4
    assert sol.subset.indices == (1,)
    zero = solve_pruned(inst_of(3, 3, 2, 2, 2))
    assert zero.abs_delta == 0
    assert zero.subset.indices == (3, 4, 5)


def test_pruned_agrees_with_brute_and_bounds():
    rng = random.Random(53)
    for _ in range(50):
        n = rng.randint(3, 18)
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = normalize_instance(raw)
        sol = solve_pruned(inst)
        assert sol.abs_delta == solve_brute(inst).abs_delta
        n_minimal = (n - 1) // 2 + 1
        assert sol.nodes_visited <= q_size(n) // 2 + n_minimal


def _parity_gap(rng, n):
    # multiples of 5 with an odd multiplier sum: the optimum is at least 5
    # while the parity bound is 1, so the parity stop never fires
    m = [rng.randint(0, 20) for _ in range(n)]
    m[0] += 1 - sum(m) % 2
    return [5 * x for x in m]


PRUNED_FAMILIES = {
    "uniform": lambda rng, n: [rng.randint(0, 1000) for _ in range(n)],
    "ties_zeros": lambda rng, n: [rng.choice((0, 0, 5, 5, 10)) for _ in range(n)],
    "bits62": lambda rng, n: [rng.randrange(1 << 61, 1 << 62) // n for _ in range(n)],
    "phase": lambda rng, n: [rng.randrange(1, 1 << (n + 4)) for _ in range(n)],
    "parity_gap": _parity_gap,
}


def _spy_pruned(monkeypatch):
    # logs what solve_pruned does: each heap pop, each copy of the Q table,
    # and each closed-form check as (pops made before it, what it returned)
    pops, copies, checks = [], [], []
    heappop = heapq.heappop
    monkeypatch.setattr(heapq, "heappop", lambda heap: pops.append(1) or heappop(heap))
    monkeypatch.setattr(solver, "bytearray", lambda t: copies.append(1) or bytearray(t), raising=False)
    full_sweep = solver._full_sweep

    def spy(inst, *args):
        checks.append((len(pops), full_sweep(inst, *args)))
        return checks[-1][1]

    monkeypatch.setattr(solver, "_full_sweep", spy)
    return pops, copies, checks


def _one_order(inst, sol, pops, copies, checks):
    # one check per call, before any pop: a closed-form answer pops and copies
    # nothing, and only a parity stop copies the Q table
    assert len(checks) == 1 and checks[0][0] == 0
    swept = checks[0][1]
    if swept is None:
        assert copies == [1] and sol.abs_delta == inst.total % 2
        return "parity stop"
    assert not pops and not copies
    assert swept == sol and sol.delta > inst.total % 2
    return "closed form"


def test_pruned_matches_naive_ascent(monkeypatch):
    # same traversal as the reference: subset, delta and pop count all agree,
    # whether the check answers the full sweep in closed form or returns None
    # (the DP filter included) and the ascent runs to its parity stop
    logs = _spy_pruned(monkeypatch)
    rng = random.Random(97)
    seen = []
    for name, draw in PRUNED_FAMILIES.items():
        for n in range(3, 15):
            for _ in range(3):
                raw = draw(rng, n)
                ref = oracles.pruned_ascent(raw)  # pops through heapq as well
                for log in logs:
                    log.clear()
                inst = normalize_instance(raw)
                sol = solve_pruned(inst)
                assert (sol.subset.indices, sol.delta, sol.nodes_visited) == ref, (name, raw)
                seen.append(_one_order(inst, sol, *logs))
    assert seen.count("parity stop") > 20 and seen.count("closed form") > 20


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(sorted(PRUNED_FAMILIES)),
    st.integers(3, 14),
    st.randoms(use_true_random=False),
)
def test_pruned_matches_naive_ascent_property(family, n, rng):
    # the families of the seeded test, drawn at random
    raw = PRUNED_FAMILIES[family](rng, n)
    sol = solve_pruned(normalize_instance(raw))
    assert (sol.subset.indices, sol.delta, sol.nodes_visited) == oracles.pruned_ascent(raw)


@pytest.mark.parametrize("name", ["phase", "parity_gap"])
@pytest.mark.parametrize("n", [16, 21, 24])
def test_pruned_full_sweep_in_closed_form(n, name, monkeypatch):
    # instances without the parity stop, answered in closed form before any
    # pop or table copy, with weights beyond the DP filter (phase) or within
    # it (parity_gap).  The naive ascent at n = 16 is the reference, above it
    # brute and the count formula
    logs = _spy_pruned(monkeypatch)
    raw = PRUNED_FAMILIES[name](random.Random(n), n)
    inst = normalize_instance(raw)
    assert (n * (inst.total + 1) <= solver.SWEEP_DP_MAX_CELLS) == (name == "parity_gap")
    sol = solve_pruned(inst)
    assert _one_order(inst, sol, *logs) == "closed form"
    if n == 16:
        assert (sol.subset.indices, sol.delta, sol.nodes_visited) == oracles.pruned_ascent(raw)
        return
    assert sol.delta == solve_brute(inst).abs_delta
    assert recompute(raw, sol.subset) == sol.delta
    nonneg_minimal = sum(delta(v, inst) >= 0 for v in extremes(n).minimal)
    assert sol.nodes_visited == q_size(n) // 2 + nonneg_minimal


def _duplicated_halves(rng, n):
    # 40-bit weights, each half drawn once and repeated: a perfect partition
    # beyond the DP filter, so the check returns None and the ascent stops
    half = [rng.randrange(1 << 39, 1 << 40) for _ in range(n // 2)]
    return half + half + [0] * (n % 2)


def test_pruned_kernel_path_matches_naive_ascent(monkeypatch):
    # weights beyond the DP filter, at every n: the check runs before the
    # first pop and before the Q-table copy, and each outcome gives the
    # reference's subset, delta and pop count.  Both outcomes occur below
    # n = 12, where a whole ascent costs less than the numpy kernel, and above
    logs = _spy_pruned(monkeypatch)
    families = {
        "bits62": PRUNED_FAMILIES["bits62"],
        "phase": PRUNED_FAMILIES["phase"],
        "duplicated_halves": _duplicated_halves,
    }
    rng = random.Random(12)
    seen = set()
    for n in range(3, 17):
        for name, draw in families.items():
            if name == "phase" and n < 14:  # within the DP filter
                continue
            for _ in range(3 if n < 14 else 1):
                raw = draw(rng, n)
                inst = normalize_instance(raw)
                assert n * (inst.total + 1) > solver.SWEEP_DP_MAX_CELLS
                ref = oracles.pruned_ascent(raw)  # pops through heapq as well
                for log in logs:
                    log.clear()
                sol = solve_pruned(inst)
                assert (sol.subset.indices, sol.delta, sol.nodes_visited) == ref, raw
                seen.add((n < 12, _one_order(inst, sol, *logs)))
    assert seen == {(small, how) for small in (True, False) for how in ("closed form", "parity stop")}


def test_pruned_closed_form_at_every_n():
    # the closed form on its own, also at n where solve_pruned's budget
    # outlasts the sweep; the listed instances each need one of its tests
    # (candidate in Q, the swap or the addition undone landing in Q)
    rng = random.Random(151)
    cases = [[3, 0, 3, 3], [22, 22, 28, 1, 28, 8, 30], [22, 17, 22, 9, 23]]
    cases += [[rng.randint(0, 30) for _ in range(rng.randint(3, 10))] for _ in range(400)]
    for raw in cases:
        inst = normalize_instance(raw)
        subset, d, visited = oracles.pruned_ascent(raw)
        got = solver._full_sweep(inst, solver._minimal_deltas(inst))
        if d == inst.total % 2:
            assert got is None, raw
            continue
        assert (got.subset.indices, got.delta, got.nodes_visited) == (subset, d, visited), raw


def _swept(inst):
    # the closed form's (subset, delta), or None
    sol = solver._full_sweep(inst, solver._minimal_deltas(inst))
    return None if sol is None else (sol.subset, sol.delta)


def _swept_by_bisect(inst):
    # the pure-Python sweep's (mask, delta) as a (subset, delta) pair
    got = oracles.full_sweep_by_bisect(inst)
    return None if got is None else (solver._subset_from_mask(inst, got[0]), got[1])


SWEEP_FAMILIES = {
    **PRUNED_FAMILIES,
    # odd n with an even weight: optimum 2 * weight above parity 0, with
    # C(n, (n + 1) // 2) masks reaching it
    "all_equal": lambda rng, n: [2 * rng.randint(1, 3)] * n,
    "zeros": lambda rng, n: [rng.choice((0, rng.randint(1, 60))) for _ in range(n)],
    # two tied values: the rows that meet v* lie sparse among the half-sum
    # rows past the first candidate's, so the walk scans many blocks
    "two_values": lambda rng, n: [rng.choice((7, 11)) for _ in range(n)],
}


@pytest.mark.parametrize("dp_filter", [True, False], ids=["dp-filter", "kernel-only"])
def test_full_sweep_matches_bisect_oracle(dp_filter, monkeypatch):
    # the check against the pure-Python bisect sweep it replaced, with v*
    # and the first candidate read from the DP bitset and backtrack where
    # it is small, and with that filter off (the half-sum kernel throughout,
    # in blocks of one half-sum row from n = 14 on, so that walks cross
    # block boundaries).  Either way a failed first candidate falls through
    # to the numpy walk, also at n <= 16 within the DP filter
    if not dp_filter:
        monkeypatch.setattr(solver, "SWEEP_DP_MAX_CELLS", 0)
        monkeypatch.setattr(solver, "_BLOCK_BITS", 10)
    walks = _spy_walk(monkeypatch)
    rng = random.Random(331)
    small_walks = answered = 0
    for n in range(3, 23):
        for name, draw in SWEEP_FAMILIES.items():
            for _ in range(4 if n <= 16 else 1):
                inst = normalize_instance(draw(rng, n))
                expected = _swept_by_bisect(inst)
                before = len(walks)
                assert _swept(inst) == expected, (name, inst.c)
                answered += expected is not None
                small = n <= 16 and n * (inst.total + 1) <= solver.SWEEP_DP_MAX_CELLS
                small_walks += small and len(walks) > before
    assert answered > 250 and len(walks) > 50
    assert small_walks > 40 if dp_filter else small_walks == 0


def _spy_walk(monkeypatch):
    # logs each walk, the closed form's fallback, which runs exactly when
    # its first candidate, the smallest mask with the optimal delta, is not
    # recorded
    walks = []
    recorded = solver._recorded
    monkeypatch.setattr(solver, "_recorded",
                        lambda *args: recorded(*args) or walks.append(1) or False)
    return walks


def _boundary63(rng, n):
    # the benchmark's 63-bit boundary family: the total lies in [2**62, 2**63)
    cap = (2**63 - 1) // n
    return [rng.randrange(cap // 2, cap) for _ in range(n)]


def test_closed_form_needs_one_candidate_without_ties(monkeypatch):
    # with distinct weights and no zero, no cover move has gain 0, so the
    # smallest mask with the optimal delta lies in Q(n) and is recorded: the
    # walk never runs.  Phase and 63-bit boundary weights, beyond the DP
    # filter (phase from n = 14 on), so that the numpy kernel finds v*
    walks = _spy_walk(monkeypatch)
    rng = random.Random(19)
    answered = 0
    for n in range(3, 25):
        for name, draw in (("phase", PRUNED_FAMILIES["phase"]), ("boundary63", _boundary63)):
            if name == "phase" and n < 14:
                continue
            for _ in range(2):
                raw = draw(rng, n)
                inst = normalize_instance(raw)
                assert n * (inst.total + 1) > solver.SWEEP_DP_MAX_CELLS
                if len(set(raw)) < n:
                    continue
                got = _swept(inst)
                assert got == _swept_by_bisect(inst), (name, raw)
                answered += got is not None
    assert not walks and answered > 40


def test_closed_form_walks_past_an_unrecorded_first_candidate(monkeypatch):
    # a parity-gap instance of the benchmark (n = 17, seed 4): ties and
    # zeros leave its smallest mask of delta 5 unrecorded, and the walk
    # finds the answer among the later candidates
    walks = _spy_walk(monkeypatch)
    raw = [60, 85, 55, 0, 15, 15, 45, 50, 55, 50, 35, 5, 0, 5, 15, 70, 15]
    inst = normalize_instance(raw)
    # v* and the first candidate come from the DP bitset and backtrack
    assert inst.n * (inst.total + 1) <= solver.SWEEP_DP_MAX_CELLS
    sol = solve_pruned(inst)
    assert walks == [1]
    assert (sol.subset.indices, sol.delta, sol.nodes_visited) == ((1, 3, 9, 10, 16), 5, 41226)
    assert _swept(inst) == _swept_by_bisect(inst)


@pytest.mark.parametrize("dp_filter", [True, False], ids=["dp-filter", "kernel-only"])
def test_full_sweep_without_ties_answers_with_dp(dp_filter, monkeypatch):
    # no two weights equal and none zero, inside the bitset bound: the
    # closed form returns None exactly at a perfect partition, and dp's
    # subset and delta otherwise, with v* read from the DP bitset or (filter
    # off) from the half-sum kernel.  auto runs it once minfast has failed,
    # so with no nonnegative minimal element: |Q(n)|/2 nodes
    if not dp_filter:
        monkeypatch.setattr(solver, "SWEEP_DP_MAX_CELLS", 0)
    autos = []

    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 24).flatmap(lambda n: st.lists(
        st.integers(1, (1 << 22) // n**2 - 1), min_size=n, max_size=n, unique=True)))
    def check(raw):
        inst = normalize_instance(raw)
        assert inst.n * (inst.total + 1) <= 1 << 22
        dp = solve_dp(inst)
        swept = solver._full_sweep(inst, solver._minimal_deltas(inst))
        if dp.abs_delta == inst.total % 2:
            assert swept is None, raw
        else:
            assert (swept.subset, swept.delta) == (dp.subset, dp.delta), raw
        sol = solve(inst)
        if sol.algorithm == "pruned":
            autos.append(1)
            assert sol.nodes_visited == q_size(inst.n) // 2, raw

    check()
    assert bool(autos) == dp_filter


def _tie_heavy(rng, n):
    # two or three distinct multipliers, one odd and one even, small or 40
    # bits (beyond the DP filter), times a step of 3, 5 or 7; the odd
    # multiplier sum puts the optimum at the step or above, over the parity
    # bound 1, so the closed form always answers
    pool = rng.sample(range(rng.choice((21, 1 << 40))), 3)[:rng.choice((2, 3))]
    pool[0] |= 1
    pool[1] &= ~1
    m = [rng.choice(pool) for _ in range(n)]
    if sum(m) % 2 == 0:
        m[0] = pool[m[0] % 2]  # the other parity
    step = rng.choice((3, 5, 7))
    return [step * x for x in m]


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 14), st.randoms(use_true_random=False))
def test_pruned_matches_naive_ascent_on_ties_property(n, rng):
    # tied adjacent weights and zeros give cover moves of gain 0, the one
    # case where the closed form's first candidate can fail; either way the
    # answer is the naive ascent's
    raw = _tie_heavy(rng, n)
    sol = solve_pruned(normalize_instance(raw))
    assert (sol.subset.indices, sol.delta, sol.nodes_visited) == oracles.pruned_ascent(raw)


def _perfect_ties(rng, n):
    # pools of 2-4 small weights, redrawn until the draw is perfect and no
    # minimal element has the parity's delta: the ascent reaches its parity
    # stop through covers, often at a node with two covers that reach it
    while True:
        pool = rng.sample(range(1, 13), rng.randint(2, 4))
        raw = [rng.choice(pool) for _ in range(n)]
        inst = normalize_instance(raw)
        if solve_dp(inst).abs_delta == inst.total % 2 not in solver._minimal_deltas(inst):
            return raw


def test_pruned_matches_naive_ascent_on_perfect_ties():
    # the order of a node's covers decides which of two parity-reaching
    # covers is the answer: the addition first, then the swaps by ascending
    # bit.  The three other orders with sorted swaps each change some drawn
    # answers, and pinned ones: the swaps by descending bit before the
    # addition (all three), the swaps by ascending bit before it (the last
    # two), or after it (the first)
    pinned = [
        ([5, 7, 5, 7, 9, 5], ((1, 3, 5), 0, 2)),
        ([10, 10, 4, 2, 2, 4, 4, 10, 10], ((3, 4, 5, 8, 9), 0, 3)),
        ([2, 6, 11, 8, 6, 6, 11, 11], ((1, 2, 5, 6, 8), 1, 2)),
    ]
    rng = random.Random(31)
    drawn = [(_perfect_ties(rng, n), None) for n in range(5, 13) for _ in range(100)]
    for raw, expected in pinned + drawn:
        sol = solve_pruned(normalize_instance(raw))
        got = (sol.subset.indices, sol.delta, sol.nodes_visited)
        assert got == oracles.pruned_ascent(raw) and expected in (None, got), raw


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 16), st.randoms(use_true_random=False))
def test_cover_gains_are_the_covers_delta_steps(n, rng):
    # each move's gain is delta(u ^ flip) - delta(u) on every mask u it applies to
    # up to 16 weights below 2**58: the total stays below 2**63
    inst = normalize_instance([rng.choice((0, rng.randrange(1 << rng.randint(1, 58)))) for _ in range(n)])
    gains = solver._cover_gains(inst.c)
    assert [(flip, low) for flip, low, _ in gains] == list(cover_moves(n))
    for flip, low, gain in gains:
        for _ in range(20):
            u = rng.randrange(1 << n) & ~flip | low
            assert delta(SignVector(n, u ^ flip), inst) - delta(SignVector(n, u), inst) == gain


@pytest.mark.parametrize("n", range(3, 11))
def test_ascent_move_index_matches_cover_moves(n):
    # solve_pruned's ascent picks a mask's covers by the bit b = flip ^ low
    # each move sets: they apply where b is set in ~mask & (mask >> 1 |
    # top_bit), and each maps mask to mask - b mod 2**n
    top_bit = 1 << (n - 1)
    for mask in range(1 << n):
        pat = ~mask & (mask >> 1 | top_bit)
        applying = {flip ^ low: mask ^ flip for flip, low in cover_moves(n) if mask & flip == low}
        assert {b: (mask - b) % (1 << n) for b in applying} == applying
        assert sum(applying) == pat


@pytest.mark.parametrize("n", range(17, 23))
def test_pruned_int64_headroom(n, monkeypatch):
    # totals just below 2**63 without a certificate: the closed-form sweep's
    # int64 signed sums and targets v* - hd must not overflow
    checks = _spy_pruned(monkeypatch)[2]
    rng = random.Random(1000 + n)
    mean = 2**63 // n
    while True:
        raw = [rng.randrange(mean // 2, 3 * mean // 2) for _ in range(n - 1)]
        raw.append(2**63 - 1 - sum(raw) - rng.randrange(1 << 32))
        if raw[-1] < mean // 2:
            continue
        inst = normalize_instance(raw)
        if solve_min_fastpath(inst) is None and solve_corollary(inst) is None:
            break
    assert 2**63 - 2**33 < inst.total < 2**63
    sol = solve(inst, "pruned")
    assert len(checks) == 1 and checks[0][1] is not None
    assert sol.abs_delta == solve_brute(inst).abs_delta > inst.total % 2
    assert recompute(raw, sol.subset) == sol.delta


@pytest.mark.parametrize("n", [21, 22, 24])
def test_pruned_matches_naive_ascent_above_20(n):
    # sizes that once took the per-mask membership path; the parity stop fires
    rng = random.Random(n)
    raw = [rng.randint(0, 1000) for _ in range(n)]
    sol = solve_pruned(normalize_instance(raw))
    assert (sol.subset.indices, sol.delta, sol.nodes_visited) == oracles.pruned_ascent(raw)
    assert sol.abs_delta == sum(raw) % 2 and sol.nodes_visited < 100


def test_pruned_guards():
    with pytest.raises(TooSmall):
        solve_pruned(inst_of(1, 2))
    with pytest.raises(TooLarge):
        solve_pruned(normalize_instance([1] * 25))


def test_dominance_pruning_statement_exhaustive():
    # a nonnegative node beats everything above it and below its negation
    rng = random.Random(61)
    for n in (4, 6):
        members = list(iter_poset(n, PosetKind.Q))
        pairs = [(v, w) for v in members for w in members]
        for _ in range(5):
            inst = normalize_instance([rng.randint(0, 50) for _ in range(n)])
            dv = {v: delta(v, inst) for v in members}
            for v in members:
                if dv[v] < 0:
                    continue
                for w in members:
                    if leq(v, w) or leq(w, negate(v)):
                        assert abs(dv[w]) >= dv[v]


# ---------------------------------------------------------------------------
# fast paths


def test_minfast_examples():
    sol = solve_min_fastpath(inst_of(10, 3, 2, 1))
    assert sol is not None
    assert (sol.abs_delta, sol.subset.indices) == (4, (1,))
    tri = solve_min_fastpath(inst_of(3, 3, 2, 2, 2))
    assert tri is not None and tri.abs_delta == 0
    assert tri.subset.indices == (3, 4, 5)
    mid = solve_min_fastpath(inst_of(4, 3, 2, 1))
    assert mid is not None and mid.abs_delta == 0
    assert mid.subset.indices == (2, 3)


def test_minfast_none_when_all_minimals_negative():
    assert solve_min_fastpath(inst_of(10, 6, 5, 2)) is None


def test_minfast_sound_whenever_it_fires():
    rng = random.Random(71)
    fired = 0
    for _ in range(200):
        n = rng.randint(3, 12)
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = normalize_instance(raw)
        sol = solve_min_fastpath(inst)
        if sol is not None:
            fired += 1
            assert sol.abs_delta == solve_brute(inst).abs_delta
    assert fired >= 1


def test_corollary_targeted_instances():
    fires = solve_corollary(inst_of(10, 4, 3, 2, 2))
    assert fires is not None
    assert fires.abs_delta == 1 == solve_brute(inst_of(10, 4, 3, 2, 2)).abs_delta
    assert fires.subset.indices == (2, 3, 4, 5)
    assert solve_corollary(inst_of(10, 1, 1, 1)) is None


def test_corollary_fires_where_minfast_hits_zero():
    for raw in ([3, 3, 2, 2, 2], [4, 3, 2, 1]):
        inst = normalize_instance(raw)
        mf = solve_min_fastpath(inst)
        assert mf is not None and mf.abs_delta == 0
        cor = solve_corollary(inst)
        assert cor is not None and cor.abs_delta == 0


def test_corollary_sound_whenever_it_fires():
    rng = random.Random(83)
    fired = 0
    for _ in range(300):
        n = rng.randint(4, 10)
        raw = [rng.randint(0, 100) for _ in range(n)]
        inst = normalize_instance(raw)
        sol = solve_corollary(inst)
        if sol is not None:
            fired += 1
            assert sol.abs_delta == solve_brute(inst).abs_delta
    print(f"corollary fired on {fired}/300 sampled instances")
    assert fired >= 1


def _dominant(rng, n):
    rest = [rng.randint(0, 1000) for _ in range(n - 1)]
    return rng.sample([sum(rest) + rng.randint(0, 1000)] + rest, n)


def _superincreasing(rng, n):
    # near-powers of two, superincreasing up to 60 weights (totals stay below 2**63)
    return rng.sample([(1 << max(60 - i, 0)) + rng.randint(0, 1) for i in range(n)], n)


CERTIFICATE_FAMILIES = {
    "uniform": PRUNED_FAMILIES["uniform"],
    "ties_zeros": PRUNED_FAMILIES["ties_zeros"],
    "bits58": lambda rng, n: [rng.randrange(1 << 57, 1 << 58) // n for _ in range(n)],
    "dominant": _dominant,
    "superincreasing": _superincreasing,
}


def test_certificates_match_operator_reference():
    # the mask arithmetic of both fast paths against the operator-built
    # reference: same (subset, delta, elements tested), or both None; more
    # draws at small n, where the corollary fires more often
    rng = random.Random(2024)
    fired = {"minfast": 0, "corollary": 0}
    for name, draw in CERTIFICATE_FAMILIES.items():
        for n in range(3, 65):
            for _ in range(12 if n <= 18 else 3):
                inst = normalize_instance(draw(rng, n))
                for algo, fast, ref in (
                    ("minfast", solve_min_fastpath, oracles.min_fastpath_by_operators),
                    ("corollary", solve_corollary, oracles.corollary_by_operators),
                ):
                    sol = fast(inst)
                    got = None if sol is None else (sol.subset.indices, sol.delta, sol.nodes_visited)
                    assert got == ref(inst), (algo, name, inst.c)
                    fired[algo] += sol is not None
    assert fired["minfast"] >= 500 and fired["corollary"] >= 100, fired


SHARED_DELTA_FAMILIES = {
    **CERTIFICATE_FAMILIES,
    "zeros": SWEEP_FAMILIES["zeros"],
}


def _outcome_or_none(sol):
    return None if sol is None else (sol.subset, sol.delta, sol.algorithm, sol.nodes_visited)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(SHARED_DELTA_FAMILIES)),
    st.integers(3, 64),
    st.randoms(use_true_random=False),
)
def test_certificates_on_shared_deltas_match_their_own_pass(family, n, rng):
    # handing a certificate the caller's minimal-element deltas changes
    # nothing, None results included; nor does handing them to the closed
    # form, whose count of nonnegative minimal elements reads that list
    inst = normalize_instance(SHARED_DELTA_FAMILIES[family](rng, n))
    deltas = solver._minimal_deltas(inst)
    for fast in (solve_min_fastpath, solve_corollary):
        assert _outcome_or_none(fast(inst, deltas=deltas)) == _outcome_or_none(fast(inst)), (
            fast.__name__, inst.c)
    swept = solver._full_sweep(inst, deltas) if n <= 16 else None
    if swept is not None:
        nonneg_minimal = sum(delta(v, inst) >= 0 for v in extremes(n).minimal)
        assert swept == solve_pruned(inst), inst.c
        assert swept.nodes_visited == q_size(n) // 2 + nonneg_minimal, inst.c


def _count_minimal_deltas(monkeypatch):
    # counts solver._minimal_deltas calls, and logs each certificate call
    # made through its module attribute with the keyword arguments it got
    passes, certificates = [], []
    minimal_deltas = solver._minimal_deltas
    monkeypatch.setattr(solver, "_minimal_deltas",
                        lambda inst: passes.append(1) or minimal_deltas(inst))
    for name in ("solve_min_fastpath", "solve_corollary"):
        def wrapper(inst, fn=getattr(solver, name), name=name, **kwargs):
            certificates.append((name, kwargs))
            return fn(inst, **kwargs)

        monkeypatch.setattr(solver, name, wrapper)
    return passes, certificates


def _narrow_30():
    # n = 30, 14-bit weights: a DP table under DP_MAX_CELLS, beyond the bitset bound
    rng = random.Random(30)
    return _certificate_free(lambda: [rng.randrange(1 << 14) for _ in range(30)],
                             (6 * 10**6, 8 * 10**6))[0]


def _wide_30():
    # n = 30, 40-bit weights: no certificate, a DP table over DP_MAX_CELLS
    rng = random.Random(30)
    return [rng.randint(1, 2**40) for _ in range(30)]


@pytest.mark.parametrize("algorithm,raw", [
    ("minfast", [10, 3, 2, 1]),
    ("corollary", [10, 4, 3, 2, 2]),
    ("pruned", [13, 8, 5, 3, 1]),  # the closed form
    ("dp", [7, 6, 5, 4, 3, 2, 2]),  # a parity stop inside the bitset bound
    ("dp", [1000, 999]),  # n < 3: no certificate, no deltas
    ("dp", _narrow_30),
    ("mitm", [13 * 10**6, 8 * 10**6, 5 * 10**6, 3 * 10**6, 10**6]),  # beyond the bound, n <= 24
    ("mitm", _wide_30),
])
def test_auto_builds_minimal_deltas_once(algorithm, raw, monkeypatch):
    # every auto path reads the minimal-element deltas from at most one
    # pass, and calls both certificates through their module attributes
    # (which bench/tracing.py wraps) with that pass as ``deltas``
    raw = raw() if callable(raw) else raw
    passes, certificates = _count_minimal_deltas(monkeypatch)
    sol = solve(normalize_instance(raw))
    assert sol.algorithm == algorithm
    assert len(passes) == (len(raw) >= 3)
    tried = ["solve_min_fastpath", "solve_corollary"][:1 if algorithm == "minfast" else 2]
    assert [name for name, _ in certificates] == (tried if len(raw) >= 3 else [])
    assert all(list(kwargs) == ["deltas"] for _, kwargs in certificates)
    assert len({id(kwargs["deltas"]) for _, kwargs in certificates}) <= 1


# ---------------------------------------------------------------------------
# meet in the middle


def test_delta_table_is_exact_near_2_62():
    # one weight near 2**62 beside weights below 2**61 in total, or n weights
    # near 2**62 / n as in the 63-bit boundary family: every signed sum fits
    # int64, and each cell must be the exact sum, as over Python ints
    rng = random.Random(62)
    cases = [(), (2**63 - 1,)]
    for n in range(1, 21):
        rest = [rng.randrange(2**61 // n) for _ in range(n - 1)]
        cases.append([rng.randrange(2**62, 2**62 + 2**61), *rest])
        cases.append([rng.randrange(2**62 // n, 2**63 // n) for _ in range(n)])
    for c in cases:
        c = tuple(sorted(c, reverse=True))
        assert _delta_table(c).tolist() == oracles.signed_sums(c), c


def test_signs_are_cached_and_read_only():
    # one shared matrix per k: row m holds mask m's signs, +1 at its set bits
    signs = solver._signs(5)
    assert solver._signs(5) is signs
    assert signs.shape == (32, 5) and signs.dtype == np.int64
    assert signs[6].tolist() == [-1, 1, 1, -1, -1]
    with pytest.raises(ValueError):
        signs[0, 0] = 1


@pytest.mark.parametrize("case", ["near_2_63", "one_weight_2_62"])
def test_delta_table_is_exact_at_length_22(case):
    # the quarters solve_mitm builds at n = 44: 2**22 cells, each spot-checked
    # cell equal to its signed sum over Python ints from the mask's bits
    rng = random.Random(22)
    if case == "near_2_63":
        c = [rng.randrange(2**63 // 23, 2**63 // 22) for _ in range(22)]
    else:
        c = [rng.randrange(2**62, 2**62 + 2**61), *(rng.randrange(2**61 // 21) for _ in range(21))]
    c = tuple(sorted(c, reverse=True))
    assert 2**62 <= sum(c) < 2**63
    table = _delta_table(c)
    assert len(table) == 1 << 22
    masks = [0, (1 << 22) - 1, *(rng.randrange(1 << 22) for _ in range(1000))]
    for m in masks:
        assert int(table[m]) == sum(w if m >> i & 1 else -w for i, w in enumerate(c)), (case, m)


def test_meet_matches_outer_sums():
    # small sums give ties; a high sum hd below -6 puts every low sum below
    # -hd, so that row has no sum >= 0 and its ``above`` is clipped, and one
    # above 6 leaves it no sum < 0, which clips its ``below``
    rng = np.random.default_rng(21)
    clipped = 0
    for _ in range(300):
        lows = rng.integers(-6, 7, rng.integers(1, 9))
        highs = rng.integers(-14, 15, rng.integers(1, 9))
        queries, above, below = solver._meet(lows, highs)
        assert queries.tolist() == sorted((-highs).tolist())
        for q, up, down in zip(queries, above, below):
            row = lows - q  # the sums of the row of high sum -q
            # a clipped entry is the row's greatest or least sum
            assert up == (row[row >= 0].min() if (row >= 0).any() else row.max())
            assert down == (row[row < 0].max() if (row < 0).any() else row.min())
            clipped += (row < 0).all() or (row >= 0).all()
    assert clipped > 0


def test_first_row_finds_the_first_winning_row():
    # one winners entry per winning row; the first of 1,000 winning rows at
    # row 100 lies past the first slice of 8 N / w rows, so the slices double
    cases = [(np.array([0] * 100 + [1] * 1000), np.full(1000, -1))]
    # one winning query, met by one comparison of the rows against it: in
    # the first row, in the last, and shared by several rows, of which the
    # first is returned
    distinct = np.arange(-50, 50) * 7
    cases += [(distinct, np.array([-distinct[0]])), (distinct, np.array([-distinct[-1]]))]
    shared = np.array([5, -3, 8, -3, 0, -3, 8])
    cases += [(shared, np.full(3, 3)), (shared, np.full(2, -8)), (shared, np.array([-5]))]
    rng = np.random.default_rng(7)
    for _ in range(300):
        highs = rng.integers(-9, 10, rng.integers(1, 400))
        win = np.isin(highs, rng.choice(highs, rng.integers(1, 4)))
        cases.append((highs, np.sort(-highs[win])))
    for highs, winners in cases:
        assert solver._first_row(highs, winners) == int(np.flatnonzero(np.isin(-highs, winners))[0])
    assert solver._first_row(shared, np.full(3, 3)) == 1
    assert solver._first_row(shared, np.full(2, -8)) == 2


def test_pruned_walks_beyond_the_bitset_bound_like_the_naive_ascent(monkeypatch):
    # tied and zero weights of 28-30 bits put every draw beyond the DP
    # filter, so v* and the walk's candidates come from the half sums; the
    # answer is still the naive ascent's, and some draws reach the walk
    walks = _spy_walk(monkeypatch)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(3, 16), st.randoms(use_true_random=False))
    def check(n, rng):
        pool = [rng.randrange(1 << 27, 1 << 30) for _ in range(rng.randint(1, 3))]
        # the first weight comes from the pool alone, so the total is never 0
        raw = [rng.choice(pool)] + [rng.choice(pool + [0] * rng.randint(0, 1)) for _ in range(n - 1)]
        inst = normalize_instance(raw)
        assert n * (inst.total + 1) > solver.SWEEP_DP_MAX_CELLS
        sol = solve(inst, "pruned")
        assert (sol.subset.indices, sol.delta, sol.nodes_visited) == oracles.pruned_ascent(raw)

    check()
    assert walks


def test_mitm_examples_and_guard():
    sol = solve_mitm(inst_of(4, 3, 2, 1))
    assert (sol.subset.indices, sol.delta, sol.algorithm) == ((1, 4), 0, "mitm")
    assert sol.nodes_visited == 4 + 2  # sums of weights 2..3 (first +), then of weight 4
    single = solve_mitm(inst_of(7))
    assert (single.subset.indices, single.delta, single.nodes_visited) == ((1,), 7, 2)
    with pytest.raises(TooLarge):
        solve_mitm(normalize_instance([1] * 45))


def _near_2_63(rng, n):
    # totals just below 2**63
    return [rng.randrange(2**63 // (2 * n), 2**63 // n) for _ in range(n)]


MITM_FAMILIES = {
    **SWEEP_FAMILIES,
    "bits63": _near_2_63,
    "huge_first": lambda rng, n: [rng.randrange(2**62, 2**62 + 2**61)] + [
        rng.randrange(2**61 // n) for _ in range(n - 1)],
}


def _same_as_brute(inst):
    # this process has imported numpy, so solve_mitm runs the numpy kernel;
    # the pure kernel, which a numpy-free process's first meet runs, is
    # called directly and must give the same Solution
    got, ref = solve_mitm(inst), solve_brute(inst)
    return solver._pure_mitm(inst) == got and (
        (got.subset, got.delta, got.abs_delta) == (ref.subset, ref.delta, ref.abs_delta))


def test_mitm_matches_brute_with_one_or_many_winning_queries(monkeypatch):
    # phase weights leave v* to one query (one high sum, though rows may
    # share it): _first_row answers with one comparison; narrow and tied
    # weights let many distinct queries meet v*, which the doubling slices
    # search.  Either way solve_mitm, and the pure kernel, give brute's
    # subset and delta
    paths = []
    first_row = solver._first_row

    def spy(highs, winners):
        paths.append("one" if winners[0] == winners[-1] else "slices")
        return first_row(highs, winners)

    monkeypatch.setattr(solver, "_first_row", spy)
    rng = random.Random(2029)
    for n in range(2, 21):
        draws = {
            "phase": [rng.randrange(1, 1 << (n + 4)) for _ in range(n)],
            "narrow": [rng.randrange(1, 16) for _ in range(n)],
            "tied": [rng.choice((0, 6, 6, 10)) for _ in range(n)],
        }
        for name, raw in draws.items():
            paths.clear()
            inst = normalize_instance(raw)
            assert _same_as_brute(inst), (name, raw)
            assert len(paths) == 1, name
            if name == "phase" and n >= 12:
                assert paths == ["one"], raw
            if name != "phase" and n >= 12:
                assert paths == ["slices"], (name, raw)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(MITM_FAMILIES)),
    st.integers(1, 20),
    st.randoms(use_true_random=False),
)
@example("phase", 1, random.Random(1))
@example("bits63", 2, random.Random(2))
@example("ties_zeros", 2, random.Random(3))
def test_mitm_matches_brute_property(family, n, rng):
    # brute's subset, ties to the smallest mask included, on ties, zeros and
    # 63-bit weights, from both kernels
    inst = normalize_instance(MITM_FAMILIES[family](rng, n))
    assert _same_as_brute(inst), (family, inst.c)


@pytest.mark.parametrize("n", [21, 24])
def test_mitm_matches_brute_across_blocks(n):
    # brute scans 2**20-mask blocks above n = 20; the tied families put
    # optima in every block
    for name in ("ties_zeros", "zeros", "all_equal", "bits63"):
        inst = normalize_instance(MITM_FAMILIES[name](random.Random(n), n))
        assert _same_as_brute(inst), name


@pytest.mark.parametrize("n", [25, 28, 31, 34])
def test_mitm_matches_halves_oracle_beyond_brute(n):
    rng = random.Random(300 + n)
    for name in ("phase", "bits63", "ties_zeros"):
        raw = MITM_FAMILIES[name](rng, n)
        inst = normalize_instance(raw)
        sol = solve_mitm(inst)
        assert sol.abs_delta == oracles.min_abs_delta_halves(raw), name
        assert recompute(raw, sol.subset) == sol.delta
        assert inst.perm[0] in sol.subset.indices  # first entry +1, as in brute
        assert sol.nodes_visited == 2 ** (n // 2) + 2 ** (n - n // 2 - 1)


# ---------------------------------------------------------------------------
# dispatcher


def test_auto_prefers_fast_paths():
    sol = solve(inst_of(10, 3, 2, 1), "auto")
    assert sol.algorithm == "minfast"


def test_auto_falls_back_to_dp_for_tiny_n():
    sol = solve(inst_of(1), "auto")
    assert sol.algorithm == "dp" and sol.abs_delta == 1


def test_auto_reaches_pruned():
    # neither certificate fires on this non-perfect instance, so auto answers
    # with pruned's closed form
    inst = inst_of(13, 8, 5, 3, 1)
    sol = solve(inst, "auto")
    assert sol.algorithm == "pruned"
    assert sol.abs_delta == solve_brute(inst).abs_delta == 2


def test_auto_skips_the_parity_stop_ascent():
    # certificate-free and perfect: pruned would run its ascent to the parity
    # stop, so auto moves on to the DP; pruned itself still runs the ascent
    inst = inst_of(7, 6, 5, 4, 3, 2, 2)
    sol = solve(inst, "auto")
    assert sol.algorithm == "dp"
    assert sol.abs_delta == solve_brute(inst).abs_delta == 1
    pruned = solve(inst, "pruned")
    assert (pruned.algorithm, pruned.abs_delta, pruned.nodes_visited) == ("pruned", 1, 2)


def test_auto_too_large_names_both_caps():
    # n = 45 and 40-bit weights: no certificate, beyond the meet in the middle
    # and the DP
    rng = random.Random(45)
    inst = normalize_instance([rng.randint(1, 2**40) for _ in range(45)])
    assert solve_min_fastpath(inst) is None and solve_corollary(inst) is None
    message = ("no certificate applies at n = 45; meet in the middle is capped at n = 44 "
               "and the DP table would exceed 100000000 cells")
    with pytest.raises(TooLarge) as excinfo:
        solve(inst, "auto")
    assert str(excinfo.value) == message


def test_auto_answers_beyond_pruned_with_mitm():
    # n = 30 and 40-bit weights: no certificate, beyond pruned and the DP
    raw = _wide_30()
    inst = normalize_instance(raw)
    assert solve_min_fastpath(inst) is None and solve_corollary(inst) is None
    sol = solve(inst, "auto")
    assert sol.algorithm == "mitm"
    assert sol.abs_delta == oracles.min_abs_delta_halves(raw)
    assert recompute(raw, sol.subset) == sol.delta


def _bench_shapes(n):
    # the benchmark's instance shapes at n weights, as strategies
    def parity_gap(m):
        m[0] = m[1] = 0
        m[2] += 1 - sum(m) % 2
        return [5 * x for x in m]

    cap = (2**63 - 1) // n  # 63-bit boundary: the total lies in [2**62, 2**63)
    rest = st.lists(st.integers(0, 1000), min_size=n - 1, max_size=n - 1)
    shapes = [
        st.lists(st.integers(0, 1000), min_size=n, max_size=n),
        # one weight at least the sum of the others: near 2**62, or DP-sized
        st.tuples(rest, st.integers(0, 1000)).map(
            lambda r: [2**62 - r[1] if n <= 20 else sum(r[0]) + r[1], *r[0]]),
        st.lists(st.integers(0, 1), min_size=n, max_size=n).map(
            lambda bits: [(1 << (n - i)) + b for i, b in enumerate(bits)]),
        # ties and zeros with a planted perfect partition
        st.lists(st.integers(0, 9), min_size=n // 2, max_size=n // 2).map(
            lambda h: h + h + [0] * (n % 2)),
        st.lists(st.integers(1, (1 << (n + 4)) - 1), min_size=n, max_size=n),
        st.lists(st.integers(cap // 2, cap - 1), min_size=n, max_size=n),
    ]
    if n >= 3:
        shapes.append(st.lists(st.integers(0, 20), min_size=n, max_size=n).map(parity_gap))
    return st.one_of(shapes)


def _admits(algo, inst):
    # the guards of the explicit algorithms, n <= 18 (within brute's cap)
    if algo == "dp":
        return inst.n * (inst.total + 1) <= solver.DP_MAX_CELLS
    return algo in ("brute", "mitm") or inst.n >= 3


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.tuples(st.sampled_from(sorted(MITM_FAMILIES)), st.integers(1, 34),
              st.randoms(use_true_random=False)).map(lambda f: MITM_FAMILIES[f[0]](f[2], f[1])),
    st.integers(1, 34).flatmap(_bench_shapes),
))
def test_auto_is_exact_property(raw):
    # auto states a subset of its delta, with the optimal |delta|: brute's up
    # to n = 18, where every explicit algorithm admitted by its guard agrees
    # (the certificates when they fire), and the halves oracle's up to 34
    inst = normalize_instance(raw)
    sol = solve(inst)
    assert recompute(raw, sol.subset) == sol.delta and sol.abs_delta == abs(sol.delta)
    # auto never runs pruned's ascent: a parity-stop answer comes from elsewhere
    if sol.abs_delta == inst.total % 2:
        assert sol.algorithm != "pruned", raw
    if inst.n > 18:
        assert sol.abs_delta == oracles.min_abs_delta_halves(raw), raw
        return
    for algo in ALGORITHMS:
        other = solve(inst, algo) if _admits(algo, inst) else None
        if other is not None:
            assert recompute(raw, other.subset) == other.delta, (algo, raw)
            assert other.abs_delta == sol.abs_delta, (algo, raw)


def _certificate_free(draw, cells=(0, solver.DP_MAX_CELLS)):
    # the first draw() that no certificate answers, with a DP table of
    # cells[0] to cells[1] cells
    while True:
        raw = draw()
        inst = normalize_instance(raw)
        if (cells[0] <= inst.n * (inst.total + 1) <= cells[1]
                and solve_min_fastpath(inst) is None and solve_corollary(inst) is None):
            return raw, inst


def test_auto_answers_perfect_wide_draws_with_mitm():
    # perfect 18-bit draws at n = 20: about 4.5e7 DP cells, beyond the bitset
    # bound, and total + 1 is about 2,000 times 2**10, so the half sums cost
    # less than the DP's bitsets
    rng = random.Random(7)
    perfect = 0
    while perfect < 3:
        raw, inst = _certificate_free(lambda: [rng.randrange(1, 1 << 18) for _ in range(20)])
        sol = solve(inst)
        assert sol.algorithm == "mitm"
        assert sol.abs_delta == solve_dp(inst).abs_delta
        assert recompute(raw, sol.subset) == sol.delta
        perfect += sol.abs_delta == inst.total % 2


def test_auto_keeps_dp_for_narrow_draws_beyond_the_bound():
    # uniform 14-bit draws at n = 30: 6-8 million DP cells, beyond the bitset
    # bound, but above n = 24 auto keeps the DP whenever its table fits
    rng = random.Random(30)
    for _ in range(3):
        _, inst = _certificate_free(lambda: [rng.randrange(1 << 14) for _ in range(30)],
                                    (6 * 10**6, 8 * 10**6))
        sol, dp = solve(inst), solve_dp(inst)
        assert (sol.algorithm, sol.subset, sol.delta) == ("dp", dp.subset, dp.delta)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.one_of(
    st.lists(st.integers(1 << 22, 1 << 40), min_size=n, max_size=n),
    st.randoms(use_true_random=False).map(
        lambda rng: [((1 << 22) + 1) * w for w in _parity_gap(rng, n)]))))
@example([13 * 10**6, 8 * 10**6, 5 * 10**6, 3 * 10**6, 10**6])
def test_auto_never_answers_pruned_beyond_the_bitset_bound(raw):
    # beyond the bound auto answers n <= 24 with mitm and never runs pruned's
    # closed form; parity gaps scaled past the bound are never perfect
    inst = normalize_instance(raw)
    assume(inst.n * (inst.total + 1) > solver.SWEEP_DP_MAX_CELLS)
    sol = solve(inst)
    assert sol.algorithm in ("minfast", "corollary", "mitm"), raw
    assert sol.abs_delta == oracles.min_abs_delta_halves(raw), raw
    assert recompute(raw, sol.subset) == sol.delta


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24).flatmap(_bench_shapes))
@example([13, 8, 5, 3, 1])  # closed form
@example([6, 5, 4, 3, 3, 1])  # parity stop
@example([1000, 999])  # n < 3: Q(n) is empty
def test_auto_inside_the_bitset_bound_matches_pruned_or_dp(raw):
    # one bitset build answers both: pruned's closed form, or dp's backtrack
    # on a parity stop, each byte for byte as the explicit algorithm
    inst = normalize_instance(raw)
    assume(inst.n * (inst.total + 1) <= solver.SWEEP_DP_MAX_CELLS)
    sol = solve(inst)
    if sol.algorithm in ("minfast", "corollary"):
        return
    assert sol.algorithm in ("pruned", "dp"), raw
    other = (solve_pruned if sol.algorithm == "pruned" else solve_dp)(inst)
    assert (sol.subset, sol.delta, sol.nodes_visited) == (
        other.subset, other.delta, other.nodes_visited), raw
    assert sol.algorithm == "pruned" or sol.abs_delta == inst.total % 2 or inst.n < 3


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(
    lambda n: st.lists(st.integers(0, 1000), min_size=n, max_size=n)))
@example([1000] * 24)  # the largest table inside the bitset bound
@example([1000] * 25)  # the smallest n at which auto goes straight to the DP
@example([1000] * 2)
def test_auto_never_sends_uniform_weights_to_mitm(raw):
    # weights in 0..1000 stay on the certificates, the closed form and the
    # DP at every n, so those solves never load numpy
    assert solve(normalize_instance(raw)).algorithm != "mitm", raw


def test_explicit_guard_propagates():
    with pytest.raises(TooLarge):
        solve(normalize_instance([1] * 30), "brute")


def test_unknown_algorithm():
    with pytest.raises(UnknownAlgorithm):
        solve(inst_of(1, 2), "magic")


# ---------------------------------------------------------------------------
# cross-cutting invariants


def test_parity_invariant():
    rng = random.Random(97)
    for _ in range(100):
        n = rng.randint(1, 12)
        raw = [rng.randint(0, 1000) for _ in range(n)]
        inst = normalize_instance(raw)
        sol = solve(inst, "auto")
        assert sol.abs_delta % 2 == inst.total % 2
        assert sol.abs_delta == abs(sol.delta)
        assert recompute(raw, sol.subset) == sol.delta


def test_decision_version_consistency():
    rng = random.Random(101)
    for _ in range(50):
        raw = [rng.randint(0, 60) for _ in range(8)]
        inst = normalize_instance(raw)
        reach = 1
        for v in raw:
            reach |= reach << v
        perfect = inst.total % 2 == 0 and bool(reach >> (inst.total // 2) & 1)
        assert (solve_dp(inst).abs_delta == 0) == perfect


def test_zero_weights_resolved_deterministically():
    sol_a = solve_brute(inst_of(7, 0))
    sol_b = solve_brute(inst_of(7, 0))
    assert sol_a == sol_b
    assert sol_a.subset.indices == (1,)


def _one_shot_scan(inst):
    # reference: argmin over the whole 2**n delta table in one shot
    dt = _delta_table(inst.c)
    brute_mask = 2 * int(np.argmin(np.abs(dt[1::2]))) + 1
    q_masks = 2 * np.nonzero(q_membership_table(inst.n)[1::2])[0] + 1
    q_mask = int(q_masks[np.argmin(np.abs(dt[q_masks]))])
    return brute_mask, int(dt[brute_mask]), q_mask, int(dt[q_mask]), len(q_masks)


def _outcome(inst, mask, d, visited):
    subset = tuple(sorted(inst.perm[i] for i in range(inst.n) if mask >> i & 1))
    return subset, d, visited


def test_halves_oracle_matches_subset_scan():
    rng = random.Random(41)
    for name, draw in PRUNED_FAMILIES.items():
        for n in range(1, 11):
            raw = draw(rng, n)
            assert oracles.min_abs_delta_halves(raw) == oracles.min_abs_delta(raw), (name, raw)
    for n in range(1, 11):  # totals just below 2**63, at the top of int64's exact range
        raw = _near_2_63(rng, n)
        assert oracles.min_abs_delta_halves(raw) == oracles.min_abs_delta(raw), raw


def test_beyond_table_paths_agree():
    # n > 20 scans several 2**20-mask blocks; the ties-and-zeros family puts
    # optima in every block, so the smallest-mask tie-break crosses blocks
    for n in (21, 22, 24):
        for name in ("uniform", "ties_zeros", "bits62"):
            raw = PRUNED_FAMILIES[name](random.Random(100 + n), n)
            inst = normalize_instance(raw)
            brute, qenum = solve_brute(inst), solve_q_enum(inst)
            got = [(s.subset.indices, s.delta, s.nodes_visited) for s in (brute, qenum)]
            if n < 24:
                b_mask, b_d, q_mask, q_d, q_count = _one_shot_scan(inst)
                assert got == [
                    _outcome(inst, b_mask, b_d, 1 << (n - 1)),
                    _outcome(inst, q_mask, q_d, q_count),
                ], (n, name)
                continue
            if name == "bits62":  # beyond the DP cell cap
                expected = oracles.min_abs_delta_halves(raw)
            else:
                expected = solve_dp(inst).abs_delta
            assert brute.abs_delta == qenum.abs_delta == expected, name
            assert brute.nodes_visited == 1 << (n - 1)
            assert qenum.nodes_visited == q_size(n) // 2
            for sol in (brute, qenum):
                assert recompute(raw, sol.subset) == sol.delta


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_scan_memory_is_flat(monkeypatch):
    # 2**20-delta blocks keep the peak near 20 MB; a one-shot 2**24 table
    # would need about 320 MB
    inst = normalize_instance(PRUNED_FAMILIES["bits62"](random.Random(7), 24))
    q_membership_table(24)  # the cached table is not part of the scan
    for scan in (solve_brute, solve_q_enum):
        peak = _traced_peak(lambda: scan(inst))
        assert peak < 64 << 20, (scan.__name__, peak)
    # the walk over 23 equal weights reads its C(23, 12) masks of delta v*
    # in blocks of half-sum rows; holding them all, sorted, would take
    # about 31 MB
    equal = normalize_instance([3] * 23)
    q_membership_table(23)
    walks = _spy_walk(monkeypatch)
    peak = _traced_peak(lambda: solver._full_sweep(equal, solver._minimal_deltas(equal)))
    assert walks == [1] and peak < 4 << 20, peak


def test_full_sweep_on_hard_instances():
    # large distinct weights rarely hit the parity bound: the ascent must
    # exhaust the negative region and still return the optimum
    rng = random.Random(77)
    for _ in range(5):
        raw = [rng.randint(10**8, 10**9) for _ in range(12)]
        inst = normalize_instance(raw)
        sol = solve_pruned(inst)
        assert sol.abs_delta == solve_brute(inst).abs_delta
        n_minimal = (12 - 1) // 2 + 1
        assert sol.nodes_visited <= q_size(12) // 2 + n_minimal


def test_63_bit_boundary_weights():
    big = 1 << 61
    inst = normalize_instance([big, big - 1, 3])
    for fn in (solve_brute, solve_q_enum, solve_pruned):
        assert fn(inst).abs_delta == 2
    sol = solve_min_fastpath(inst)
    assert sol is not None and sol.abs_delta == 2


# ---------------------------------------------------------------------------
# the DP's early stop at ceil(total/2)


def _planted_halves(rng, n):
    # a perfect partition planted by duplication, in a shuffled order
    half = [rng.randint(0, 1000) for _ in range(n // 2)]
    raw = half + half + [0] * (n % 2)
    rng.shuffle(raw)
    return raw


DP_FAMILIES = {
    "uniform": PRUNED_FAMILIES["uniform"],
    "planted": _planted_halves,
    "ties_zeros": PRUNED_FAMILIES["ties_zeros"],
    "parity_gap": _parity_gap,  # never perfect: every bitset is built
}


def _dp_matches_full_backtrack(raw):
    # solve_dp, and auto wherever it answers with the DP, report the full
    # table's subset, delta and table size; returns whether the build stopped
    inst = normalize_instance(raw)
    expected = oracles.dp_full_backtrack(raw)
    sol = solve_dp(inst)
    assert (sol.subset.indices, sol.delta, sol.nodes_visited) == expected, raw
    auto = solve(inst)
    if auto.algorithm == "dp":
        assert (auto.subset.indices, auto.delta, auto.nodes_visited) == expected, raw
    return len(solver._subset_sums(inst)) < inst.n + 1


def test_dp_early_stop_matches_full_backtrack():
    rng = random.Random(2024)
    stopped = {name: 0 for name in DP_FAMILIES}
    for n in range(1, 65):
        for name, draw in DP_FAMILIES.items():
            for _ in range(2):
                stopped[name] += _dp_matches_full_backtrack(draw(rng, n))
    # the stop fires on every planted draw and on most others, never on a gap
    assert stopped["planted"] == 2 * 64 and stopped["parity_gap"] == 0
    assert min(stopped["uniform"], stopped["ties_zeros"]) > 50


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DP_FAMILIES)), st.integers(1, 64),
       st.randoms(use_true_random=False))
def test_dp_early_stop_matches_full_backtrack_property(family, n, rng):
    _dp_matches_full_backtrack(DP_FAMILIES[family](rng, n))


def test_subset_sums_stop_only_on_a_perfect_draw():
    rng = random.Random(48)
    perfect = normalize_instance(DP_FAMILIES["uniform"](rng, 48))
    assert solve_dp(perfect).abs_delta == perfect.total % 2
    assert len(solver._subset_sums(perfect)) < 48 + 1
    gap = normalize_instance(_parity_gap(rng, 48))
    assert solve_dp(gap).abs_delta > gap.total % 2
    assert len(solver._subset_sums(gap)) == 48 + 1


# ---------------------------------------------------------------------------
# reporting in input order


def _masks(n):
    # 0, any mask, and masks with the top bit set (bit 63 at n = 64)
    every = st.integers(0, (1 << n) - 1)
    return st.one_of(st.just(0), every, every.map(lambda m: m | 1 << (n - 1)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, 1000), min_size=n, max_size=n), _masks(n))))
@example((list(range(64)), 1 << 63))
@example((list(range(64)), 0))
def test_subset_from_mask_lists_the_set_bits_positions(case):
    raw, mask = case
    inst = normalize_instance(raw)
    # the generator expression the bin() reading replaced
    expected = tuple(sorted(inst.perm[i] for i in range(inst.n) if mask >> i & 1))
    assert solver._subset_from_mask(inst, mask) == SubsetRef(expected, inst.n)
