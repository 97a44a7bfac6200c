"""Exhaustive and random instance generators for the sweep harnesses.

Exhaustive families are produced in a fixed deterministic order so failures
are reproducible: tolerances by edge-mask encoding, coverings as antichain
families in lexicographic order, lattices by a canonical growth procedure.
"""

from __future__ import annotations

from itertools import combinations

from .isomorph import canonical_key
from .posets import Lattice, Poset, downset_lattice, downsets, mask_of
from .rough import Covering, Tolerance, is_irredundant


def edge_list(n):
    return list(combinations(range(n), 2))


def tolerance_from_encoding(n, enc) -> Tolerance:
    """Decode an edge-mask integer into a tolerance on n points."""
    nbr = [1 << x for x in range(n)]
    for b, (i, j) in enumerate(edge_list(n)):
        if enc >> b & 1:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    return Tolerance([str(i) for i in range(n)], nbr)


def all_tolerances(n):
    """Every tolerance on n labeled points, by ascending edge-mask encoding."""
    m = len(edge_list(n))
    for enc in range(1 << m):
        yield enc, tolerance_from_encoding(n, enc)


def all_partitions(n):
    """Every partition of n labeled points (restricted-growth strings)."""
    labels = [str(i) for i in range(n)]

    def grow(prefix, used):
        if len(prefix) == n:
            blocks = [0] * used
            for i, c in enumerate(prefix):
                blocks[c] |= 1 << i
            yield Covering(labels, blocks)
            return
        for c in range(used + 1):
            yield from grow(prefix + [c], max(used, c + 1))

    if n:
        yield from grow([], 0)


def antichain_coverings(n):
    """Every covering of n labeled points that is an antichain of subsets.

    Families with one member inside another are redundant by inspection, so
    this is the natural search space for irredundance: it contains every
    irredundant covering together with redundant antichains that exercise
    the negative path.
    """
    full = (1 << n) - 1
    subsets = list(range(1, 1 << n))

    def grow(start, family, union):
        if union == full and family:
            yield Covering([str(i) for i in range(n)], family)
        for idx in range(start, len(subsets)):
            s = subsets[idx]
            if any(s & ~t == 0 or t & ~s == 0 for t in family):
                continue
            yield from grow(idx + 1, family + [s], union | s)

    if n:
        yield from grow(0, [], 0)


def irredundant_coverings(n):
    for cov in antichain_coverings(n):
        if is_irredundant(cov).irredundant:
            yield cov


def _is_semilattice_with_bottom(below):
    """Whether element 0 lies below the last element of the order below,
    and every two elements have a meet in it: grown one maximal element at
    a time from the one-point order, below is then a meet-semilattice with
    bottom 0."""
    if not below[-1] & 1:
        return False
    index = set(below)
    n = len(below)
    for i in range(n):
        for j in range(i + 1, n):
            if below[i] & below[j] not in index:
                return False
    return True


def _grow(seed, max_size, accept):
    """Every order up to iso with at most max_size elements that grows from
    the order seed (below masks) by adjoining a maximal element at a time,
    whose strict lower set is a downset, through orders that all pass
    accept.  Level by level, each keeps the first order of each canonical
    key; accept runs first, since it is cheaper than the key."""
    if len(seed) > max_size or not accept(seed):
        return
    level = [seed]
    yield seed
    for k in range(len(seed), max_size):
        nxt = {}
        for below in level:
            for d in downsets(below):
                cand = below + (d | 1 << k,)
                if accept(cand):
                    nxt.setdefault(canonical_key(k + 1, cand), cand)
        level = list(nxt.values())
        yield from level


def all_lattices(max_size):
    """Every lattice with at most max_size elements, up to isomorphism.

    A lattice minus its top is a meet-semilattice with bottom, and adjoining
    a fresh top to any such semilattice gives a lattice, so the two families
    biject and no dedup across the adjunction is needed.  The semilattices
    grow from the one-point one, each new element above the bottom.
    """
    if max_size >= 1:
        yield Lattice.from_poset(Poset(["0"], (1,)))
    for below in _grow((1,), max_size - 1, _is_semilattice_with_bottom):
        k = len(below)
        labels = [f"e{i}" for i in range(k)] + ["top"]
        ext = tuple(below) + ((1 << (k + 1)) - 1,)
        yield Lattice.from_poset(Poset(labels, ext))


def _grow_posets_bounded(max_points, max_downsets):
    """All posets, up to iso, whose downset count stays within max_downsets."""
    return _grow((), max_points, lambda below: len(downsets(below)) <= max_downsets)


def all_distributive_lattices(max_size):
    """Every distributive lattice with at most max_size elements, up to iso,
    realized as the downset lattice of a small poset."""
    for below in _grow_posets_bounded(max_size - 1, max_size):
        ds = downsets(below)
        ds.sort(key=lambda d: (d.bit_count(), d))
        lab = [f"d{i}" for i in range(len(ds))]
        yield downset_lattice(lab, ds, below)


def product_of_chains(sizes):
    """The product lattice of chains with the given lengths."""
    points = [()]
    for s in sizes:
        points = [p + (v,) for p in points for v in range(s)]
    points.sort()
    index = {p: i for i, p in enumerate(points)}
    below = [
        mask_of(index[q] for q in points if all(a <= b for a, b in zip(q, p)))
        for p in points
    ]
    labels = ["".join(map(str, p)) if p else "()" for p in points]
    return Lattice.from_poset(Poset(labels, below))


def random_two_level_structure(rng, max_atoms=5, max_ji=10):
    """A random two-level join-irreducible poset with an antitone involution.

    Atoms split into fixed points and paired atoms; each paired atom a gets
    an upper partner above it, and a random symmetric similarity among the
    paired atoms decides which other atoms sit below which partners.
    Returns (poset, involution) ready for the downset construction.
    """
    m = rng.randint(1, max_atoms)
    max_paired = min(m, max_ji - m)
    s = rng.randint(0, max_paired)
    paired = sorted(rng.sample(range(m), s))
    simeq = {(a, a) for a in paired}
    for i, a in enumerate(paired):
        for b in paired[i + 1 :]:
            if rng.random() < 0.5:
                simeq.add((a, b))
                simeq.add((b, a))
    labels = [f"a{i}" for i in range(m)] + [f"u{a}" for a in paired]
    upper_of = {a: m + i for i, a in enumerate(paired)}
    covers = [(b, upper_of[a]) for (a, b) in simeq]
    jposet = Poset.from_covers(labels, sorted(set(covers)))
    g = {i: i for i in range(m + s)}
    for a in paired:
        g[a], g[upper_of[a]] = upper_of[a], a
    return jposet, g
