"""The downset walker against the 2^n scan it replaced.

scan_downsets is the enumeration the library used to run: every mask over
the n points, kept when each of its points has its whole ↓ inside it.
posets.downsets walks a linear extension instead and must return the same
ascending list, and refuse more than MAX_TABLE_ELEMENTS downsets.
"""

import math
import random

import pytest

from roughkleene.generators import _grow_posets_bounded, random_two_level_structure
from roughkleene.posets import MAX_TABLE_ELEMENTS, TableCapExceeded, downsets


def scan_downsets(below):
    n = len(below)
    out = []
    for s in range(1 << n):
        m = s
        ok = True
        while m:
            low = m & -m
            if below[low.bit_length() - 1] & ~s:
                ok = False
                break
            m ^= low
        if ok:
            out.append(s)
    return out


def disjoint_chains(lengths):
    """below masks of disjoint chains, each numbered bottom to top."""
    below, start = [], 0
    for length in lengths:
        for k in range(length):
            below.append(((1 << (k + 1)) - 1) << start)
        start += length
    return below


def test_every_poset_on_up_to_six_points():
    posets = list(_grow_posets_bounded(6, math.inf))
    assert len(posets) == 1 + 1 + 2 + 5 + 16 + 63 + 318
    for below in posets:
        assert downsets(below) == scan_downsets(below)


def test_seeded_two_level_jposets():
    rng = random.Random(7)
    for _ in range(300):
        jposet, _ = random_two_level_structure(rng)
        assert jposet.downsets() == scan_downsets(jposet.below)


def test_ids_against_a_linear_extension():
    # the element ids run against the order: n-1 is the bottom of the chain
    n = 8
    below = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
    assert downsets(below) == scan_downsets(below)


def test_cap_boundary():
    seven_pairs = disjoint_chains([2] * 7)
    assert downsets(seven_pairs) == scan_downsets(seven_pairs)
    assert len(downsets(seven_pairs)) == 3**7 == MAX_TABLE_ELEMENTS
    with pytest.raises(TableCapExceeded, match="^more than 2187 elements exceed the table cap 2187$"):
        downsets(disjoint_chains([2] * 7 + [1]))


def test_long_chain_has_no_recursion_limit():
    below = disjoint_chains([MAX_TABLE_ELEMENTS - 1])
    assert downsets(below) == [(1 << k) - 1 for k in range(MAX_TABLE_ELEMENTS)]

