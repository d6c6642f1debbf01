"""Partition lattice: enumeration, crossing predicate, Mobius values."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifree.errors import OrderError, SizeLimitError
from bifree.partitions import (ChiMap, Partition, apply_permutation, catalan,
                               enumerate_bnc, enumerate_nc, is_noncrossing,
                               mobius_nc, mobius_top, one_partition, refines,
                               restrict, sigma_chi, zero_partition)


def all_set_partitions(n):
    """Oracle: every set partition of [n], built element by element."""
    parts = [[]]
    for k in range(1, n + 1):
        grown = []
        for blocks in parts:
            for i in range(len(blocks)):
                grown.append([b + [k] if j == i else list(b)
                              for j, b in enumerate(blocks)])
            grown.append([list(b) for b in blocks] + [[k]])
        parts = grown
    return [Partition.from_blocks(n, blocks) for blocks in parts]


def has_crossing_bruteforce(p):
    """Oracle: literal four-index scan for a < b < c < d crossing pattern."""
    label = {}
    for i, block in enumerate(p.blocks):
        for k in block:
            label[k] = i
    for a, b, c, d in itertools.combinations(range(1, p.n + 1), 4):
        if label[a] == label[c] and label[b] == label[d] and label[a] != label[b]:
            return True
    return False


@functools.lru_cache(maxsize=None)
def mobius_top_recursion(pi):
    """Oracle: mu(pi, 1_n) from the defining recursion over coarsenings of pi.

    The values over [pi, 1_n] sum to zero, and along a non-crossing
    coarsening tau with several blocks the value factors over the
    restrictions of pi to tau's blocks.
    """
    if len(pi.blocks) == 1:
        return 1
    total = 0
    for grouping in all_set_partitions(len(pi.blocks)):
        if len(grouping.blocks) == 1:
            continue  # tau = 1_n is the value being solved for
        unions = [[x for i in group for x in pi.blocks[i - 1]] for group in grouping.blocks]
        if not is_noncrossing(Partition.from_blocks(pi.n, unions)):
            continue
        prod = 1
        for union in unions:
            prod *= mobius_top_recursion(restrict(pi, union))
        total += prod
    return -total


def test_singleton_ground_set():
    assert enumerate_nc(1) == (Partition(1, ((1,),)),)


@pytest.mark.parametrize("n,count", [(n, catalan(n)) for n in range(1, 9)])
def test_small_counts_match_bruteforce(n, count):
    # the same partitions in the same order: RGS-lexicographic
    brute = sorted((p for p in all_set_partitions(n) if not has_crossing_bruteforce(p)),
                   key=Partition.rgs)
    assert enumerate_nc(n) == tuple(brute)
    assert len(brute) == count


def test_catalan_counts_up_to_nine():
    for n in range(1, 10):
        assert len(enumerate_nc(n)) == catalan(n)


def test_enumeration_order_is_rgs_lexicographic():
    for n in (3, 4, 5):
        strings = [p.rgs() for p in enumerate_nc(n)]
        assert strings == sorted(strings)


def test_only_crossing_partition_of_four():
    crossing = [p for p in all_set_partitions(4) if has_crossing_bruteforce(p)]
    assert [p.blocks for p in crossing] == [((1, 3), (2, 4))]


def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition.from_blocks(4, [[1, 3], [2, 4]]))
    assert is_noncrossing(Partition.from_blocks(4, [[1, 4], [2, 3]]))
    for n in (1, 3, 6):
        assert is_noncrossing(one_partition(n))
    # blocks out of canonical order: the verdict reads only which block holds k
    assert is_noncrossing(Partition(4, ((2, 3), (1, 4))))
    assert not is_noncrossing(Partition(4, ((2, 4), (1, 3))))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_is_noncrossing_agrees_with_bruteforce(n):
    for p in all_set_partitions(n):
        assert is_noncrossing(p) == (not has_crossing_bruteforce(p))


def test_sigma_chi_examples():
    assert sigma_chi(ChiMap.from_string("LR")) == (1, 2)
    assert sigma_chi(ChiMap.from_string("RL")) == (2, 1)
    assert sigma_chi(ChiMap.from_string("LLLL")) == (1, 2, 3, 4)
    # right positions are read downward
    assert sigma_chi(ChiMap.from_string("RLL")) == (2, 3, 1)
    assert sigma_chi(ChiMap.from_string("LRLR")) == (1, 3, 4, 2)


def test_enumerate_bnc_all_left_is_identity():
    pairs = enumerate_bnc(ChiMap.from_string("LLL"))
    assert all(img == src for img, src in pairs)
    assert [src for _, src in pairs] == list(enumerate_nc(3))


def test_enumerate_bnc_two_points():
    pairs = enumerate_bnc(ChiMap.from_string("LR"))
    images = {img.blocks for img, _ in pairs}
    assert images == {((1, 2),), ((1,), (2,))}


def test_enumerate_bnc_rll_contains_relabelled_pair():
    chi = ChiMap.from_string("RLL")
    perm = sigma_chi(chi)
    source = Partition.from_blocks(3, [[1, 2], [3]])
    expected = apply_permutation(source, perm)
    pairs = enumerate_bnc(chi)
    assert (expected, source) in pairs
    assert expected.blocks == ((1,), (2, 3))


def test_enumerate_bnc_is_bijection():
    for text in ("LRRL", "RRLL", "LRLRL"):
        pairs = enumerate_bnc(ChiMap.from_string(text))
        assert len(pairs) == catalan(len(text))
        assert len({img.blocks for img, _ in pairs}) == len(pairs)


def test_mobius_small_values():
    assert mobius_nc(zero_partition(2), one_partition(2)) == -1
    assert mobius_nc(zero_partition(3), one_partition(3)) == 2
    for p in enumerate_nc(4):
        assert mobius_nc(p, p) == 1


def test_mobius_closed_form_at_bottom():
    for n in range(2, 8):
        assert mobius_nc(zero_partition(n), one_partition(n)) \
            == (-1) ** (n - 1) * catalan(n - 1)


def test_mobius_closed_form_matches_recursion():
    for n in range(1, 8):
        for pi in enumerate_nc(n):
            assert mobius_top(pi) == mobius_top_recursion(pi), pi.blocks


def test_mobius_axiom_at_top():
    for n in range(2, 8):
        assert sum(mobius_top(p) for p in enumerate_nc(n)) == 0


@pytest.mark.parametrize("n", [3, 4])
def test_mobius_defining_recursion_on_all_intervals(n):
    # independent oracle: the values must satisfy the summation axiom on
    # every interval of the lattice, which determines them uniquely
    parts = enumerate_nc(n)
    for pi in parts:
        for sigma in parts:
            if not refines(pi, sigma):
                continue
            total = sum(mobius_nc(pi, tau) for tau in parts
                        if refines(pi, tau) and refines(tau, sigma))
            assert total == (1 if pi == sigma else 0)


def test_mobius_incomparable_raises():
    a = Partition.from_blocks(4, [[1, 2], [3, 4]])
    b = Partition.from_blocks(4, [[1, 4], [2, 3]])
    with pytest.raises(OrderError):
        mobius_nc(a, b)
    with pytest.raises(OrderError):
        mobius_nc(one_partition(4), zero_partition(4))


def test_size_cap():
    with pytest.raises(SizeLimitError):
        enumerate_nc(15)
    with pytest.raises(SizeLimitError):
        enumerate_nc(0)


def test_canonical_form_and_json_roundtrip():
    p = Partition.from_blocks(5, [[4, 2], [5, 1, 3]])
    assert p.blocks == ((1, 3, 5), (2, 4))
    assert Partition.from_jsonable(p.to_jsonable()) == p


def test_malformed_blocks_rejected():
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[1, 2]])
    with pytest.raises(ValueError):
        Partition.from_blocks(3, [[1, 2], [2, 3]])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_relabelling_preserves_noncrossing_counts(n, rnd):
    perm = list(range(1, n + 1))
    rnd.shuffle(perm)
    images = {apply_permutation(p, tuple(perm)).blocks for p in enumerate_nc(n)}
    assert len(images) == catalan(n)
