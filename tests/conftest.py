"""Shared builders for the test suite."""

from __future__ import annotations

import os

from roughkleene.demorgan import DeMorgan, build_kleene_from_jposet, validate_demorgan
from roughkleene.isomorph import _neighbours, _refine
from roughkleene.posets import Lattice, Poset, mask_of
from roughkleene.rough import Covering, Tolerance, tolerance_from_covering

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def rows(lat: Lattice):
    """(meet, join): both tables of a lattice as tuples of rows, read pair
    by pair through Lattice.meet and Lattice.join, for the comparisons
    with references that index rows."""
    ids = range(lat.n)
    return (tuple(tuple(lat.meet(i, j) for j in ids) for i in ids),
            tuple(tuple(lat.join(i, j) for j in ids) for i in ids))


def isomorphisms(n_a, rows_a, n_b, rows_b, respecting=()):
    """Yield all bijections f with a R b iff f(a) R' f(b).

    respecting: pairs of unary tables (op_a, op_b) that f must intertwine,
    f(op_a[x]) == op_b[f(x)].
    """
    if n_a != n_b:
        return
    n = n_a
    col_a = _refine(n, *_neighbours(n, rows_a), (0,) * n)
    col_b = _refine(n, *_neighbours(n, rows_b), (0,) * n)
    if sorted(col_a) != sorted(col_b):
        return
    order = sorted(range(n), key=lambda v: (col_a[v], v))
    f = [-1] * n
    used = 0

    def ok(a, b):
        if col_a[a] != col_b[b]:
            return False
        for a2 in order:
            b2 = f[a2]
            if b2 < 0:
                continue
            if (rows_a[a] >> a2 & 1) != (rows_b[b] >> b2 & 1):
                return False
            if (rows_a[a2] >> a & 1) != (rows_b[b2] >> b & 1):
                return False
        for op_a, op_b in respecting:
            if f[op_a[a]] >= 0 and f[op_a[a]] != op_b[b]:
                return False
        return True

    def place(k):
        nonlocal used
        if k == n:
            for op_a, op_b in respecting:
                if any(f[op_a[x]] != op_b[f[x]] for x in range(n)):
                    return
            yield tuple(f)
            return
        a = order[k]
        for b in range(n):
            if used >> b & 1 or not ok(a, b):
                continue
            f[a] = b
            used |= 1 << b
            yield from place(k + 1)
            f[a] = -1
            used ^= 1 << b

    yield from place(0)


def find_isomorphism(n_a, rows_a, n_b, rows_b):
    """The first isomorphism of the two orders, or None."""
    return next(isomorphisms(n_a, rows_a, n_b, rows_b), None)


def reversed_ids(lat):
    """The same lattice with element i renamed n-1-i, so that the ids run
    against the order instead of along a linear extension."""
    n = lat.n
    flip = [n - 1 - i for i in range(n)]
    below = [mask_of(flip[j] for j in range(n) if lat.poset.below[flip[i]] >> j & 1) for i in range(n)]
    return Lattice.from_poset(Poset([lat.labels[flip[i]] for i in range(n)], below))


def chain(n: int) -> Lattice:
    labels = [str(i) for i in range(n)]
    below = [(1 << (i + 1)) - 1 for i in range(n)]
    return Lattice.from_poset(Poset(labels, below))


def boolean_lattice(n: int) -> Lattice:
    """The powerset lattice of n atoms; element i is the subset with mask i."""
    labels = [f"s{i}" for i in range(1 << n)]
    below = [mask_of(j for j in range(1 << n) if j & ~i == 0) for i in range(1 << n)]
    return Lattice.from_poset(Poset(labels, below))


def boolean_complement(n: int):
    full = (1 << n) - 1
    return tuple(full ^ i for i in range(1 << n))


def diamond_m3() -> Lattice:
    # bottom 0; atoms 1,2,3; top 4
    below = [1, 0b00011, 0b00101, 0b01001, 0b11111]
    return Lattice.from_poset(Poset(["0", "a", "b", "c", "1"], below))


def pentagon_n5() -> Lattice:
    # 0 < a < c < 1 and 0 < b < 1
    below = [1, 0b00011, 0b00101, 0b01011, 0b11111]
    return Lattice.from_poset(Poset(["0", "a", "b", "c", "1"], below))


def kleene_three() -> DeMorgan:
    return validate_demorgan(chain(3), (2, 1, 0))


def four_chain_kleene() -> DeMorgan:
    return validate_demorgan(chain(4), (3, 2, 1, 0))


def square_demorgan(swap: bool) -> DeMorgan:
    """Boolean 2x2 with either the atom-swapping or the atom-fixing involution."""
    lat = boolean_lattice(2)
    neg = (3, 2, 1, 0) if swap else (3, 1, 2, 0)
    return validate_demorgan(lat, neg)


def two_level_jposet():
    """(jposet, g): atoms a,b,c with partners j,k,l: a,b < j; a,b,c < k;
    b,c < l; g swaps each atom with its partner."""
    jposet = Poset.from_covers(
        ["a", "b", "c", "j", "k", "l"],
        [(0, 3), (1, 3), (0, 4), (1, 4), (2, 4), (1, 5), (2, 5)],
    )
    return jposet, {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2}


def two_level_fixture() -> DeMorgan:
    """The Kleene algebra of two_level_jposet."""
    return build_kleene_from_jposet(*two_level_jposet())


def two_level_covering() -> Covering:
    """The covering the fixture's spans form, written down by hand."""
    labels = ["a", "b", "c", "x", "y", "j", "k", "l"]
    pos = {lab: i for i, lab in enumerate(labels)}
    blocks = [
        mask_of(pos[e] for e in ("a", "j", "x")),
        mask_of(pos[e] for e in ("b", "k", "x", "y")),
        mask_of(pos[e] for e in ("c", "l", "y")),
    ]
    return Covering(labels, blocks)


def two_level_tolerance() -> Tolerance:
    return tolerance_from_covering(two_level_covering())


def identity_tolerance(n: int) -> Tolerance:
    return Tolerance([str(i) for i in range(n)], [1 << i for i in range(n)])


def full_tolerance(n: int) -> Tolerance:
    full = (1 << n) - 1
    return Tolerance([str(i) for i in range(n)], [full] * n)
