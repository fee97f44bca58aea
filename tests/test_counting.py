import functools
import math
import sys
import threading

import pytest

from partition_posets import (
    CheckResult,
    PosetKind,
    TooLarge,
    TooSmall,
    ballot_count,
    catalan,
    counting,
    height_formula,
    iter_poset,
    p_rank_profile,
    profile_checks,
    q_rank_profile,
    q_size,
    rank,
    rminus_rank_profile,
    rplus_rank_profile,
    verify_structure,
    width_value,
)

import oracles


# ---------------------------------------------------------------------------
# the full poset profile


def test_p_profile_examples():
    assert p_rank_profile(5).counts[7] == 3
    assert p_rank_profile(3).counts == (1, 1, 1, 2, 1, 1, 1)
    for n in (1, 4, 9):
        counts = p_rank_profile(n).counts
        assert counts[0] == counts[-1] == 1


@pytest.mark.parametrize("n", range(1, 15))
def test_p_profile_matches_enumeration(n):
    assert list(p_rank_profile(n).counts) == oracles.subset_sum_counts(n)


@pytest.mark.parametrize("n", range(1, 26))
def test_p_profile_symmetric_unimodal(n):
    checks = profile_checks(p_rank_profile(n))
    assert checks.symmetric and checks.unimodal


def test_width_value_examples():
    assert width_value(5) == 3
    assert width_value(6) == 5
    assert width_value(3) == 2


@pytest.mark.parametrize("n", range(1, 11))
def test_width_value_vs_enumeration(n):
    counts = oracles.subset_sum_counts(n)
    assert width_value(n) == counts[n * (n + 1) // 4] == max(counts)


def test_width_ratio_bracket():
    # growth-rate regression: ratio to 2^n / n^(3/2) stays inside a frozen band
    for n in (8, 11, 12, 15, 16, 19, 20):
        ratio = width_value(n) * n**1.5 / 2**n
        assert 1.2 <= ratio <= 1.4, (n, ratio)


# ---------------------------------------------------------------------------
# sizes


def test_q_size_values():
    assert q_size(1) == 0
    assert q_size(2) == 0
    assert q_size(3) == 2
    assert (q_size(4), q_size(5), q_size(6)) == (4, 12, 24)


def test_q_size_guards():
    with pytest.raises(TooSmall):
        q_size(0)
    with pytest.raises(TooLarge):
        q_size(121)


# ---------------------------------------------------------------------------
# walk counts


def test_ballot_and_catalan_examples():
    assert ballot_count(4) == 6 == math.comb(4, 2)
    assert catalan(2) == 2
    assert catalan(3) == 5
    assert ballot_count(5) == 2 * ballot_count(4) - catalan(2) == 10


@pytest.mark.parametrize("m", range(7))
def test_catalan_vs_path_enumeration(m):
    assert catalan(m) == oracles.catalan_paths(m)


@pytest.mark.parametrize("n", range(13))
def test_ballot_vs_path_enumeration(n):
    assert ballot_count(n) == oracles.nonneg_walks(n)


def test_ballot_closed_form_agreement_to_120():
    for n in range(121):
        assert ballot_count(n) == math.comb(n, n // 2)
    with pytest.raises(TooLarge):
        ballot_count(121)


# ---------------------------------------------------------------------------
# half-space profile


def test_rplus_profile_n2():
    counts = rplus_rank_profile(2).counts
    assert counts == (0, 0, 1, 1)


def test_rplus_profile_total_and_min_rank_n5():
    profile = rplus_rank_profile(5)
    assert profile.total == 10 == math.comb(5, 2)
    populated = [i for i, v in enumerate(profile.counts) if v]
    assert populated[0] == 9


@pytest.mark.parametrize("n", range(1, 15))
def test_rplus_profile_matches_enumeration(n):
    hist = [0] * (n * (n + 1) // 2 + 1)
    for v in iter_poset(n, PosetKind.R_PLUS):
        hist[rank(v)] += 1
    assert list(rplus_rank_profile(n).counts) == hist


def test_rminus_is_reflection():
    for n in (3, 6, 9):
        assert rminus_rank_profile(n).counts == rplus_rank_profile(n).counts[::-1]


# ---------------------------------------------------------------------------
# middle poset profile


def test_q_profile_n3_single_level():
    assert q_rank_profile(3).counts == (2,)


def test_q_profile_n5():
    profile = q_rank_profile(5)
    assert profile.total == 12
    checks = profile_checks(profile)
    assert checks.symmetric


@pytest.mark.parametrize("n", range(3, 13))
def test_q_profile_matches_enumeration(n):
    profile = q_rank_profile(n)
    hist = [0] * len(profile.counts)
    for v in iter_poset(n, PosetKind.Q):
        hist[rank(v, PosetKind.Q)] += 1
    assert list(profile.counts) == hist


def test_q_profile_unimodal_to_21():
    for n in range(3, 22):
        assert profile_checks(q_rank_profile(n)).unimodal, n


def test_conservation_spot_checks():
    for n in (7, 23, 60):
        p = p_rank_profile(n).counts
        rp = rplus_rank_profile(n).counts
        rm = rminus_rank_profile(n).counts
        q = q_rank_profile(n).counts
        r = n * (n + 1) // 2
        for rho in range(r + 1):
            q_at = q[rho - n] if 0 <= rho - n < len(q) else 0
            assert p[rho] == q_at + rp[rho] + rm[rho]


def test_profile_guards():
    with pytest.raises(TooLarge):
        p_rank_profile(121)
    with pytest.raises(TooLarge):
        q_rank_profile(121)
    with pytest.raises(TooSmall):
        p_rank_profile(0)
    # the cap itself stays exact and in range
    assert p_rank_profile(120).total == 1 << 120


# ---------------------------------------------------------------------------
# the packed DP against the list-based reference


@functools.cache
def _reference_rows():
    return oracles.rank_profiles_by_lists(counting.MAX_COUNT_N)


def _reference(n):
    p_rows, rplus_rows = _reference_rows()
    p, rplus = p_rows[n], rplus_rows[n]
    r = n * (n + 1) // 2
    q = tuple(p[t] - rplus[t] - rplus[r - t] for t in range(n, r - n + 1))
    return tuple(p), tuple(rplus), q


def _profiles(n):
    return p_rank_profile(n), rplus_rank_profile(n), q_rank_profile(n)


def _clear_caches():
    for cached in (p_rank_profile, rplus_rank_profile, counting._ballot):
        cached.cache_clear()


@pytest.mark.parametrize("sizes", [range(1, 121), range(120, 0, -1)],
                         ids=["ascending", "120-first"])
def test_packed_profiles_match_list_dp(sizes):
    _clear_caches()
    for n in sizes:
        assert tuple(prof.counts for prof in _profiles(n)) == _reference(n), n


def test_profile_cache_is_thread_safe():
    sizes = (120, 90, 60, 30)
    _clear_caches()
    serial = {n: _profiles(n) for n in sizes}
    _clear_caches()
    barrier = threading.Barrier(len(sizes))
    results = {}

    def ask(n):
        barrier.wait(timeout=60)
        results[n] = _profiles(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ask, args=(n,)) for n in sizes]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def test_p_profile_walks_no_ballot_and_ascent_walks_each_step_once():
    _clear_caches()
    p_rank_profile(120)
    width_value(120)
    assert counting._ballot.cache_info().misses == 0
    for n in range(1, 121):
        rplus_rank_profile(n)
    assert counting._ballot.cache_info().misses == 121  # steps 0..120


def test_profiles_check_at_the_counting_cap():
    # above n = 14 the check compares the DPs with each other, not enumeration
    assert verify_structure(counting.MAX_COUNT_N, "profiles") == [CheckResult("profiles", True)]


# ---------------------------------------------------------------------------
# height formulas


def test_height_formula_examples():
    assert height_formula(5, PosetKind.Q) == 5
    assert height_formula(8, PosetKind.Q) == 16
    assert height_formula(6, PosetKind.P) == 22
    assert height_formula(3, PosetKind.Q) == 1


def test_height_formula_guards():
    with pytest.raises(TooSmall):
        height_formula(2, PosetKind.Q)
    with pytest.raises(ValueError):
        height_formula(5, PosetKind.R_PLUS)


# ---------------------------------------------------------------------------
# profile checks


def test_profile_checks_p6():
    checks = profile_checks(p_rank_profile(6))
    assert checks.symmetric and checks.unimodal
    assert checks.max_level == 5


def test_profile_checks_counterexample():
    from partition_posets import RankProfile

    bumpy = RankProfile(kind=PosetKind.P, n=4, counts=(1, 2, 1, 2, 1))
    assert not profile_checks(bumpy).unimodal


def test_profile_checks_trims_zeros():
    from partition_posets import RankProfile

    padded = RankProfile(kind=PosetKind.R_PLUS, n=2, counts=(0, 0, 1, 1))
    checks = profile_checks(padded)
    assert checks.symmetric and checks.unimodal and checks.max_level == 1
