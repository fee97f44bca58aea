import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_posets import (
    EmptyInput,
    Instance,
    LengthMismatch,
    NegativeValue,
    Overflow,
    SignVector,
    TooLarge,
    TooSmall,
    SubsetRef,
    delta,
    diff_vector,
    from_subset,
    iso_f,
    leq,
    negate,
    normalize_instance,
    prefix_sums,
    q_size,
    to_subset,
)

from partition_posets import core
from partition_posets.core import PosetKind, cover_moves, membership, membership_table

import oracles


def sv(*entries):
    return SignVector.from_entries(entries)


# ---------------------------------------------------------------------------
# normalize_instance


def test_normalize_sorts_and_records_permutation():
    inst = normalize_instance([3, 10, 2, 1])
    assert inst.c == (10, 3, 2, 1)
    assert inst.perm == (2, 1, 3, 4)
    assert inst.total == 16


def test_normalize_stable_on_ties():
    inst = normalize_instance([5, 5, 5])
    assert inst.c == (5, 5, 5)
    assert inst.perm == (1, 2, 3)
    inst = normalize_instance([2, 5, 0, 2, 5, 0])
    assert inst.c == (5, 5, 2, 2, 0, 0)
    assert inst.perm == (2, 5, 1, 4, 3, 6)


def test_normalize_allows_zero():
    inst = normalize_instance([0, 7])
    assert inst.c == (7, 0)
    assert inst.total == 7


def test_normalize_errors():
    with pytest.raises(EmptyInput):
        normalize_instance([])
    with pytest.raises(NegativeValue):
        normalize_instance([3, -1])
    with pytest.raises(NegativeValue):
        normalize_instance([1.5, 2])
    with pytest.raises(Overflow):
        normalize_instance([1 << 63])
    with pytest.raises(Overflow):
        normalize_instance([(1 << 62), (1 << 62)])


def test_normalize_reports_the_first_offending_weight():
    # with a negative weight and one of 2**63 or more, the first in input
    # order decides the error
    with pytest.raises(Overflow) as excinfo:
        normalize_instance([2**63, -1])
    assert str(excinfo.value) == f"weight {2**63} does not fit in 63 bits"
    with pytest.raises(NegativeValue) as excinfo:
        normalize_instance([-1, 2**63])
    assert str(excinfo.value) == "weights must be nonnegative, got -1"
    # a bad weight outranks an overflowing total
    with pytest.raises(NegativeValue) as excinfo:
        normalize_instance([2**62, 2**62, -1])
    assert str(excinfo.value) == "weights must be nonnegative, got -1"


def test_normalize_reports_weights_too_long_to_print():
    # past 4,300 digits int-to-str conversion raises; the message gives a bound
    with pytest.raises(Overflow) as excinfo:
        normalize_instance([10**5000])
    assert str(excinfo.value) == "weight 2**16609 or more does not fit in 63 bits"
    with pytest.raises(NegativeValue) as excinfo:
        normalize_instance([-10**5000])
    assert str(excinfo.value) == "weights must be nonnegative, got -2**16609 or less"


def test_normalize_rejects_more_weights_than_a_bitmask_holds():
    assert normalize_instance(list(range(1, 65))).n == 64
    with pytest.raises(TooLarge):
        normalize_instance(list(range(1, 66)))
    with pytest.raises(TooLarge):
        normalize_instance(list(range(1, 71)))


# ---------------------------------------------------------------------------
# subset <-> vector


def test_from_subset():
    assert from_subset(SubsetRef((1,), 3)) == sv(1, -1, -1)
    assert from_subset(SubsetRef((2, 3), 3)) == sv(-1, 1, 1)
    assert from_subset(SubsetRef((), 4)) == sv(-1, -1, -1, -1)


def test_to_subset_inverts_from_subset():
    for n in range(1, 7):
        for mask in range(1 << n):
            v = SignVector(n, mask)
            assert from_subset(to_subset(v)) == v


def test_subset_ref_validation():
    with pytest.raises(ValueError):
        SubsetRef((2, 2), 4)
    with pytest.raises(ValueError):
        SubsetRef((0,), 4)
    with pytest.raises(ValueError):
        SubsetRef((5,), 4)


def test_negate():
    assert negate(sv(1, -1, -1)) == sv(-1, 1, 1)
    v = sv(1, 1, -1, 1)
    assert negate(negate(v)) == v
    comp = to_subset(negate(from_subset(SubsetRef((1, 3), 4))))
    assert comp.indices == (2, 4)


# ---------------------------------------------------------------------------
# prefix sums and the order


def test_prefix_sums():
    assert prefix_sums(sv(1, -1, 1, -1, -1)) == (1, 0, 1, 0, -1)
    assert prefix_sums(sv(1, 1, 1)) == (1, 2, 3)
    assert prefix_sums(sv(-1, 1, 1)) == (-1, 0, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_cover_moves_give_each_masks_covers_in_ascending_order(n):
    masks = list(range(1 << n))
    covers = oracles.transitive_reduction(
        masks,
        lambda a, b: oracles.leq_entries(oracles.entries_of(a, n), oracles.entries_of(b, n)),
    )
    for u in masks:
        got = [u ^ flip for flip, low in cover_moves(n) if u & flip == low]
        assert got == sorted(j for i, j in covers if i == u)


_TABLE_KINDS = (PosetKind.Q, PosetKind.R_PLUS, PosetKind.R_MINUS)


def test_membership_table_matches_membership():
    for n in range(1, 13):
        for kind in _TABLE_KINDS:
            table = membership_table(n, kind)
            assert isinstance(table, bytes) and len(table) == 1 << n
            assert list(table) == [membership(SignVector(n, m)) is kind for m in range(1 << n)]
    for n in range(1, 21):
        half = math.comb(n, n // 2)
        sizes = {kind: membership_table(n, kind).count(1) for kind in _TABLE_KINDS}
        assert sizes == {PosetKind.Q: q_size(n), PosetKind.R_PLUS: half, PosetKind.R_MINUS: half}


def _doubled_table(n, kind):
    # the builder that composing the top entries replaced: every entry
    # doubled as states, the kind picked in the last doubling
    states = bytes([32])
    for _ in range(n - 1):
        states = states.translate(core._DOWN) + states.translate(core._UP)
    pick = core._PICK[kind]
    return states.translate(core._DOWN.translate(pick)) + states.translate(core._UP.translate(pick))


def test_membership_table_matches_the_full_doubling():
    # uncached, so that the test run keeps no 2**24-byte tables
    for n in range(1, core.TABLE_MAX_N + 1):
        for kind in _TABLE_KINDS:
            assert membership_table.__wrapped__(n, kind) == _doubled_table(n, kind), (n, kind)


def test_membership_table_guards_and_cache():
    assert membership_table(16, PosetKind.Q) is membership_table(16, PosetKind.Q)
    with pytest.raises(TooLarge):
        membership_table(core.TABLE_MAX_N + 1, PosetKind.Q)
    with pytest.raises(ValueError):
        membership_table(4, PosetKind.P)
    with pytest.raises(TooSmall):
        membership_table(0, PosetKind.Q)


def test_q_membership_table_is_a_read_only_view_of_the_core_table():
    from partition_posets.poset import q_membership_table

    for n in (3, 16):
        view = q_membership_table(n)
        assert view.dtype == np.bool_ and not view.flags.writeable
        assert view.base is membership_table(n, PosetKind.Q)
        with pytest.raises(ValueError):
            view[0] = True


def test_leq_incomparable_pair():
    a, b = sv(1, -1, -1), sv(-1, 1, 1)
    assert not leq(a, b) and not leq(b, a)


def test_leq_reflexive_and_least_element():
    bottom = sv(-1, -1, -1, -1)
    for mask in range(16):
        v = SignVector(4, mask)
        assert leq(v, v)
        assert leq(bottom, v)


def test_leq_length_mismatch():
    with pytest.raises(LengthMismatch):
        leq(sv(1, -1), sv(1, -1, -1))


def _leq_matrix(n):
    size = 1 << n
    mat = np.zeros((size, size), dtype=bool)
    for i in range(size):
        for j in range(size):
            mat[i, j] = leq(SignVector(n, i), SignVector(n, j))
    return mat


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_order_axioms_exhaustive(n):
    mat = _leq_matrix(n)
    assert mat.diagonal().all()  # reflexive
    both = mat & mat.T
    assert not (both & ~np.eye(1 << n, dtype=bool)).any()  # antisymmetric
    closure = (mat.astype(np.float32) @ mat.astype(np.float32)) > 0.5
    assert not (closure & ~mat).any()  # transitive


def test_symmetry_all_pairs_p5():
    n = 5
    full = (1 << n) - 1
    for i in range(1 << n):
        for j in range(1 << n):
            v, w = SignVector(n, i), SignVector(n, j)
            assert leq(v, w) == leq(SignVector(n, full ^ j), SignVector(n, full ^ i))


def test_translation_property_p5():
    # v <= w exactly when every prefix sum of w - v is nonnegative
    for i in range(32):
        for j in range(32):
            v, w = SignVector(5, i), SignVector(5, j)
            diffs = [we - ve for ve, we in zip(v.entries, w.entries)]
            s, ok = 0, True
            for d in diffs:
                s += d
                if s < 0:
                    ok = False
                    break
            assert leq(v, w) == ok


# ---------------------------------------------------------------------------
# delta and the rewritten difference


def test_delta_examples():
    assert delta(sv(1, -1, -1, -1), normalize_instance([10, 3, 2, 1])) == 4
    inst = normalize_instance([5, 5, 5])
    assert delta(sv(1, 1, 1), inst) == inst.total == 15


def test_delta_prefix_identity_example():
    inst = normalize_instance([4, 3, 2, 1])
    v = sv(1, -1, 1, -1)
    assert delta(v, inst) == 2
    assert prefix_sums(v) == (1, 0, 1, 0)
    assert diff_vector(inst) == (1, 1, 1, 1)
    assert sum(r * d for r, d in zip(prefix_sums(v), diff_vector(inst))) == 2


def test_delta_length_mismatch():
    with pytest.raises(LengthMismatch):
        delta(sv(1, -1), normalize_instance([1, 2, 3]))


def test_diff_vector_examples():
    assert diff_vector(normalize_instance([4, 3, 2, 1])) == (1, 1, 1, 1)
    assert diff_vector(normalize_instance([5, 5, 5])) == (0, 0, 5)
    assert diff_vector(normalize_instance([7, 0])) == (7, 0)


def test_delta_identity_random():
    rng = random.Random(0xC0DE)
    for _ in range(1000):
        n = rng.randint(1, 20)
        inst = normalize_instance([rng.randint(0, 10**6) for _ in range(n)])
        v = SignVector(n, rng.randrange(1 << n))
        dot = sum(r * d for r, d in zip(prefix_sums(v), diff_vector(inst)))
        assert delta(v, inst) == dot


def test_monotonicity_p5_random_instances():
    rng = random.Random(7)
    pairs = [
        (SignVector(5, i), SignVector(5, j))
        for i in range(32)
        for j in range(32)
        if leq(SignVector(5, i), SignVector(5, j))
    ]
    for _ in range(100):
        inst = normalize_instance([rng.randint(0, 1000) for _ in range(5)])
        for v, w in pairs:
            assert delta(v, inst) <= delta(w, inst)


def test_delta_complement_p6():
    rng = random.Random(99)
    inst = normalize_instance([rng.randint(0, 1000) for _ in range(6)])
    for mask in range(64):
        v = SignVector(6, mask)
        assert delta(negate(v), inst) == -delta(v, inst)


# ---------------------------------------------------------------------------
# the order isomorphism image


def test_iso_f_examples():
    assert iso_f(sv(1, -1, 1, -1, -1)).indices == (3, 5)
    assert iso_f(sv(-1, -1, -1, -1)).indices == ()
    assert iso_f(sv(1, 1, 1)).indices == (1, 2, 3)


# ---------------------------------------------------------------------------
# property tests


masks_and_n = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
)


@given(masks_and_n)
def test_negate_involution(nm):
    n, mask = nm
    v = SignVector(n, mask)
    assert negate(negate(v)) == v


@given(masks_and_n)
def test_roundtrip_subset(nm):
    n, mask = nm
    v = SignVector(n, mask)
    assert from_subset(to_subset(v)) == v
    assert prefix_sums(v)[-1] == 2 * len(to_subset(v)) - n


@given(
    st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(min_value=0, max_value=(1 << n) - 1),
            st.integers(min_value=0, max_value=(1 << n) - 1),
            st.integers(min_value=0, max_value=(1 << n) - 1),
        )
    )
)
@settings(max_examples=300)
def test_order_axioms_sampled(quad):
    n, a, b, c = quad
    u, v, w = SignVector(n, a), SignVector(n, b), SignVector(n, c)
    if leq(u, v) and leq(v, u):
        assert u == v
    if leq(u, v) and leq(v, w):
        assert leq(u, w)
    assert leq(u, v) == oracles.leq_entries(u.entries, v.entries)
