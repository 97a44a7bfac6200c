"""Finite posets and lattices over dense integer element ids.

Every set of element ids is a bitmask (an int): bit i set means element i is
in the set.  All structures are immutable after construction and every
operation is deterministic, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, compress, count, starmap
from operator import and_, itemgetter, or_
from typing import Iterable, Iterator, Sequence


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of a mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class PosetError(Exception):
    pass


class NotALattice(PosetError):
    """A pair of elements has no unique glb or lub."""

    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind  # "meet" or "join"
        super().__init__(f"no unique {kind} for elements {pair}")


# The most elements an order, a P×P meet/join table or a downset list is
# built for: 3^7, the rough-set algebra of seven 2-point blocks.  On a
# 2-vCPU VM, `verify` on that partition takes about 7 s and 100 MB;
# `represent` on a 12-point antichain (4096 elements) took 51 s and 550 MB,
# and the cost grows as P².
MAX_TABLE_ELEMENTS = 2187


class TableCapExceeded(PosetError):
    """Too many elements for the order, the P×P tables or the downset list:
    a bound, not a defect.  n is the element count, or "more than N" when
    the downset walk stops as soon as it passes the cap."""

    def __init__(self, n):
        super().__init__(f"{n} elements exceed the table cap {MAX_TABLE_ELEMENTS}")


def check_table_size(n: int):
    """Raise TableCapExceeded before an order or table on n elements is built."""
    if n > MAX_TABLE_ELEMENTS:
        raise TableCapExceeded(n)


class _Inclusion:
    """The inclusion order of distinct sets of points, read bit-sliced.

    holders[u] is the mask of the k whose set holds point u.  within(s) is
    the mask of the k with sets[k] ⊆ s: sets[k] ⊆ s fails exactly when
    sets[k] holds a point outside s, so it costs one OR per point outside s.
    containing(t) is the mask of the k with t ⊆ sets[k], one AND per point
    of t.  Both loops are inline, with no bits() generator, since they run
    once per element and once per distinct meet/join key.
    """

    __slots__ = ("holders", "full", "points")

    def __init__(self, sets: Sequence[int], width: int):
        check_table_size(len(sets))
        holders = [0] * width
        for k, m in enumerate(sets):
            for u in bits(m):
                holders[u] |= 1 << k
        self.holders = holders
        self.full, self.points = (1 << len(sets)) - 1, (1 << width) - 1

    def within(self, s: int) -> int:
        holders, outside, rest = self.holders, 0, self.points & ~s
        while rest:
            low = rest & -rest
            outside |= holders[low.bit_length() - 1]
            rest ^= low
        return self.full & ~outside

    def containing(self, t: int) -> int:
        holders, inside = self.holders, self.full
        while t:
            low = t & -t
            inside &= holders[low.bit_length() - 1]
            t ^= low
        return inside


def inclusion_below(masks: Sequence[int], width: int) -> list:
    """below[i] = the mask of the k with masks[k] ⊆ masks[i], over width points.

    Bit-sliced (_Inclusion): each element costs one OR per point it lacks,
    O(n·width) big-int operations in all instead of n² subset tests.
    """
    return list(map(_Inclusion(masks, width).within, masks))


class Memo(dict):
    """A dict that fills itself: a missing key is stored as fn(key)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def inclusion_lattice(labels: Sequence[str], sets: Sequence[int], width: int):
    """The inclusion order of distinct sets over width points, with its
    meet/join tables: (Lattice, meet_of, join_of), or NotALattice at the
    first bad pair.

    In an inclusion order the common lower bounds of i and j are the k with
    sets[k] ⊆ sets[i] & sets[j], and the common upper bounds the k with
    sets[k] ⊇ sets[i] | sets[j].  So the glb of i and j depends only on the
    key sets[i] & sets[j] and the lub only on sets[i] | sets[j].  meet_of
    maps each meet key to the glb's id, or None when the glb does not
    exist; join_of does the same for join keys.  Each distinct key is
    looked up once (within, containing), and each cell of the tables is a
    dict lookup of its key.  Both memos are seeded with the sets themselves
    (the key of a diagonal cell), whose glb and lub are the set's own id.
    The key streams are never built as lists, so memory stays that of the
    tables.  The cells, the first bad pair and its kind are those of
    Lattice.from_poset on the same order, and every key in meet_of and
    join_of is the key of some cell.
    """
    n = len(sets)
    if n == 0:
        raise NotALattice((None, None), "meet")
    order = _Inclusion(sets, width)
    below = list(map(order.within, sets))
    above = list(map(order.containing, sets))
    poset = _poset_with_above(labels, below, above)
    meet_ids = {m: i for i, m in enumerate(below)}
    join_ids = {m: i for i, m in enumerate(above)}
    meet_of = Memo(lambda s: meet_ids.get(order.within(s)))
    join_of = Memo(lambda t: join_ids.get(order.containing(t)))
    meet_of.update(zip(sets, count()))
    join_of.update(zip(sets, count()))
    if len(meet_of) != n:
        raise ValueError("the sets of an inclusion order must be pairwise distinct")
    pairs = combinations_with_replacement(sets, 2)
    meet_cells = list(map(meet_of.__getitem__, starmap(and_, pairs)))
    pairs = combinations_with_replacement(sets, 2)
    join_cells = list(map(join_of.__getitem__, starmap(or_, pairs)))
    return Lattice(poset, *_tables(n, meet_cells, join_cells, below, above)), meet_of, join_of


def downsets(below: Sequence[int]) -> list:
    """All down-closed subsets of the order below[i] = ↓i, as bitmasks, ascending.

    The elements are added in a linear extension (a strictly smaller
    element has a smaller ↓), so each new element is maximal among those
    added so far.  A downset of the larger set either omits it, or holds it
    and everything strictly below it; so each step keeps the list and adds
    i to every downset that already holds ↓i∖{i}.  Each step is one pass
    over the list, with no recursion, and the walk raises TableCapExceeded
    as soon as the list passes MAX_TABLE_ELEMENTS, so it never does 2^n
    work.
    """
    out = [0]
    for i in sorted(range(len(below)), key=lambda i: below[i].bit_count()):
        bit = 1 << i
        strict = below[i] & ~bit
        out += [d | bit for d in out if strict & ~d == 0]
        if len(out) > MAX_TABLE_ELEMENTS:
            raise TableCapExceeded(f"more than {MAX_TABLE_ELEMENTS}")
    out.sort()
    return out


class SpatialityFailure(PosetError):
    """Some element is not the join of the join-irreducibles below it.

    Impossible for a finite lattice; raised only to flag corrupted input.
    """

    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} is not a join of join-irreducibles")


@dataclass(frozen=True)
class OrderReport:
    """Validation report for a would-be order relation.

    Each field holds the lexicographically first witness of a violation,
    or None when the axiom holds.
    """

    reflexivity: tuple | None
    antisymmetry: tuple | None
    transitivity: tuple | None

    @property
    def valid(self) -> bool:
        return (
            self.reflexivity is None
            and self.antisymmetry is None
            and self.transitivity is None
        )

    def violations(self) -> dict:
        out = {}
        if self.reflexivity is not None:
            out["reflexivity"] = self.reflexivity
        if self.antisymmetry is not None:
            out["antisymmetry"] = self.antisymmetry
        if self.transitivity is not None:
            out["transitivity"] = self.transitivity
        return out


def validate_order(rows: Sequence[Sequence[int]]) -> OrderReport:
    """Check that a 0/1 matrix (rows[i][j] == 1 iff i <= j) is a partial order.

    Each row and each column is read once into a mask (up[i] = ↑i, down[i]
    = ↓i), so each axiom costs O(n) mask tests per element instead of a
    scan of all pairs or triples.  The witnesses are those of a row-major
    scan: transitivity fails at i exactly when some j in ↑i has ↑j ⊄ ↑i,
    and j and then k are the lowest such.
    """
    up = [mask_of(compress(count(), row)) for row in rows]
    down = [mask_of(compress(count(), column)) for column in zip(*rows)]
    refl = next(((i,) for i, m in enumerate(up) if not m >> i & 1), None)
    anti = next(
        (
            (i, i + 1 + next(bits(m >> i + 1)))
            for i, m in enumerate(map(and_, up, down))
            if m >> i + 1
        ),
        None,
    )
    trans = next(
        (
            (i, j, next(bits(up[j] & ~m)))
            for i, m in enumerate(up)
            for j in bits(m)
            if up[j] & ~m
        ),
        None,
    )
    return OrderReport(refl, anti, trans)


class Poset:
    """A finite poset: n elements 0..n-1, labels, and the full order relation.

    below[i] is the bitmask of {j | j <= i}; above[i] the bitmask of {j | i <= j}.
    above is built from below one set bit at a time.
    """

    __slots__ = ("n", "labels", "below", "above")

    def __init__(self, labels: Sequence[str], below: Sequence[int]):
        self._set_order(labels, below)
        above = [0] * self.n
        for j in range(self.n):
            for i in bits(self.below[j]):
                above[i] |= 1 << j
        self.above = tuple(above)

    def _set_order(self, labels: Sequence[str], below: Sequence[int]):
        n = len(below)
        labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} elements")
        if len(set(labels)) != n:
            raise ValueError("labels must be pairwise distinct")
        self.n = n
        self.labels = labels
        self.below = tuple(below)

    @classmethod
    def from_leq(cls, labels: Sequence[str], rows: Sequence[Sequence[int]]) -> "Poset":
        report = validate_order(rows)
        if not report.valid:
            raise PosetError(f"not a partial order: {report.violations()}")
        return _poset_with_above(
            labels,
            [mask_of(compress(count(), column)) for column in zip(*rows)],
            [mask_of(compress(count(), row)) for row in rows],
        )

    @classmethod
    def from_covers(cls, labels: Sequence[str], covers: Iterable[tuple]) -> "Poset":
        """Build from Hasse edges (i, j) meaning i is covered by j.

        The edge list is closed reflexively and transitively on load.
        """
        n = len(labels)
        below = [1 << i for i in range(n)]
        edges = [tuple(e) for e in covers]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"cover edge ({i},{j}) out of range")
        changed = True
        while changed:
            changed = False
            for i, j in edges:
                merged = below[j] | below[i]
                if merged != below[j]:
                    below[j] = merged
                    changed = True
        for i in range(n):
            for j in range(n):
                if i != j and below[j] >> i & 1 and below[i] >> j & 1:
                    raise PosetError(f"cover edges create a cycle through ({i},{j})")
        return cls(labels, below)

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)

    def covers(self) -> list:
        """All covering pairs (i, j) with i covered by j, in lex order."""
        out = []
        for j in range(self.n):
            strict = self.below[j] ^ (1 << j)
            for i in bits(strict):
                if self.above[i] & strict == 1 << i:
                    out.append((i, j))
        out.sort()
        return out

    def dual(self) -> "Poset":
        return Poset(self.labels, self.above)

    def downsets(self) -> list:
        """All down-closed subsets as bitmasks, ascending (posets.downsets)."""
        return downsets(self.below)

    def label_set(self, mask: int) -> list:
        return [self.labels[i] for i in bits(mask)]


def _poset_with_above(labels: Sequence[str], below: Sequence[int], above: Sequence[int]) -> Poset:
    """A Poset that takes above as given instead of transposing below.

    Only for builders that read both from one relation, so that above is
    the transpose of below: inclusion_lattice (within and containing of the
    same sets) and Poset.from_leq (the columns and rows of one matrix).
    """
    p = Poset.__new__(Poset)
    p._set_order(labels, below)
    p.above = tuple(above)
    return p


def _tables(n: int, meet_cells: list, join_cells: list, below, above):
    """(meet, join, bottom, top) from the cells (i, j), i <= j, of both
    tables in row-major order, or NotALattice at the first cell that is
    None (meet before join).

    Row i copies its cells j < i from column i of the rows above it.  A bad
    pair is bad in both orders and never on the diagonal, so the first bad
    cell of a row-major scan of the full tables has i < j and is also the
    first bad cell here.
    """
    if None in meet_cells or None in join_cells:
        c = next(c for c, cell in enumerate(zip(meet_cells, join_cells)) if None in cell)
        kind = "meet" if meet_cells[c] is None else "join"
        i = 0
        while c >= n - i:
            c -= n - i
            i += 1
        raise NotALattice((i, i + c), kind)
    meet, join = [], []
    start = 0
    for i in range(n):
        end = start + n - i
        column = itemgetter(i)
        meet.append((*map(column, meet), *meet_cells[start:end]))
        join.append((*map(column, join), *join_cells[start:end]))
        start = end
    full = (1 << n) - 1
    bottom = next(i for i in range(n) if below[i] == 1 << i and above[i] == full)
    top = next(i for i in range(n) if above[i] == 1 << i and below[i] == full)
    return tuple(meet), tuple(join), bottom, top


class Lattice:
    """A finite lattice: poset plus exhaustively verified meet/join tables.

    meet and join are tuples of rows.  Both tables are symmetric (meet[i][j]
    == meet[j][i]), since x∧y and x∨y do not depend on the order of x and y,
    and each unordered pair is computed once.  There are two builders with
    the same cells and the same first bad pair: from_poset for any poset,
    and inclusion_lattice for an order given as inclusion of sets, which
    looks up each distinct intersection and union once.
    """

    __slots__ = ("poset", "meet", "join", "bottom", "top")

    def __init__(self, poset: Poset, meet, join, bottom: int, top: int):
        self.poset = poset
        self.meet = meet
        self.join = join
        self.bottom = bottom
        self.top = top

    @classmethod
    def from_poset(cls, p: Poset) -> "Lattice":
        """Compute meet/join tables, or raise NotALattice at the first bad pair.

        The glb of i,j exists iff the common lower bounds ↓i ∩ ↓j form a
        principal downset; likewise for lub with upsets.  Each unordered
        pair i <= j is looked up once, in one C-level pass per table.
        """
        n = p.n
        if n == 0:
            raise NotALattice((None, None), "meet")
        check_table_size(n)
        below, above = p.below, p.above
        # the cells (i, j), i <= j, in row-major order
        cells = []
        for masks in (below, above):
            ids = {m: i for i, m in enumerate(masks)}
            pairs = combinations_with_replacement(masks, 2)
            cells.append(list(map(ids.get, starmap(and_, pairs))))
        return cls(p, *_tables(n, *cells, below, above))

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self):
        return self.poset.labels

    def leq(self, i: int, j: int) -> bool:
        return self.poset.leq(i, j)

    def meet_all(self, ids: Iterable[int]) -> int:
        out = self.top
        for i in ids:
            out = self.meet[out][i]
        return out

    def join_all(self, ids: Iterable[int]) -> int:
        out = self.bottom
        for i in ids:
            out = self.join[out][i]
        return out

    def meet_of(self, mask: int) -> int:
        """The meet of the elements in a mask; the dual of join_of."""
        above, meet = self.poset.above, self.meet
        out = self.top
        while mask:
            out = meet[out][(mask & -mask).bit_length() - 1]
            mask &= ~above[out]
        return out

    def join_of(self, mask: int) -> int:
        """The join of the elements in a mask.

        Elements below the running join are dropped unvisited, so the join
        grows strictly at each step and the fold takes at most as many
        steps as the longest chain of the lattice.
        """
        below, join = self.poset.below, self.join
        out = self.bottom
        while mask:
            out = join[out][(mask & -mask).bit_length() - 1]
            mask &= ~below[out]
        return out


@dataclass(frozen=True)
class JoinIrreducibles:
    """Join-irreducible elements of a lattice: each covers exactly one element."""

    members: tuple          # ids, ascending
    lower_cover: dict       # j -> its unique lower cover
    atoms: tuple            # ids j with lower_cover[j] == bottom
    member_mask: int

    def __contains__(self, j: int) -> bool:
        return bool(self.member_mask >> j & 1)


def join_irreducibles(lat: Lattice) -> JoinIrreducibles:
    """Elements != bottom with exactly one lower cover; also checks spatiality.

    j has one lower cover c iff c = ⋁(↓j∖{j}) is not j: if j covers c alone,
    all of ↓j∖{j} lies below c; if j covers c and d, c < c v d <= j forces
    c v d = j.  The bottom's join is the empty one, itself.  So each element
    costs one fold over the join table (Lattice.join_of), and so does its
    spatiality test, x = ⋁(↓x ∩ J).
    """
    below = lat.poset.below
    members, lower, atoms = [], {}, []
    for j in range(lat.n):
        c = lat.join_of(below[j] ^ (1 << j))
        if c != j:
            members.append(j)
            lower[j] = c
            if c == lat.bottom:
                atoms.append(j)
    jmask = mask_of(members)
    for x in range(lat.n):
        if lat.join_of(below[x] & jmask) != x:
            raise SpatialityFailure(x)
    return JoinIrreducibles(tuple(members), lower, tuple(atoms), jmask)


def is_distributive(lat: Lattice):
    """Whether x∧(y∨z) == (x∧y)∨(x∧z) for all triples.

    Fast path: a finite lattice is distributive iff every join-irreducible j
    is join-prime (j <= x∨y implies j <= x or j <= y), that is, iff the
    downset L∖↑j is closed under ∨.  A finite downset D is closed under ∨
    exactly when ⋁D ∈ D (Davey & Priestley, ch. 2), so each test is one
    fold over the join table (Lattice.join_of), not a scan of all pairs
    outside ↑j.  On failure the lexicographically first violating triple
    of the defining law is returned.
    """
    below = lat.poset.below
    for j in range(lat.n):
        # j has one lower cover iff the elements strictly below j join to
        # less than j; that is never so for the bottom
        if lat.join_of(below[j] ^ (1 << j)) == j:
            continue
        if not is_join_prime(lat, j):
            return False, _first_bad_triple(lat)
    return True, None


def is_join_prime(lat: Lattice, x: int) -> bool:
    """Whether ↑x is a prime filter (x <= a∨b implies x <= a or x <= b),
    decided as ⋁(L∖↑x) ∉ ↑x.

    L∖↑x is a downset, and a downset of a finite lattice is closed under ∨
    iff it contains its own join, so one fold over the join table replaces
    the test of every pair outside ↑x.  No distributivity is assumed.  The
    bottom is never join-prime (↑bottom is all of L).
    """
    up = lat.poset.above[x]
    return not up >> lat.join_of(((1 << lat.n) - 1) & ~up) & 1


def first_not_below(lat: Lattice, los: Sequence[int], his: Sequence[int]):
    """The lexicographically first (x, y) with los[x] not<= his[y], or None.

    The his values are gathered into one mask, so each x costs one mask
    test against ↑los[x]; only the first failing x is scanned for its y.
    """
    above = lat.poset.above
    hmask = mask_of(his)
    for x, lo in enumerate(los):
        up = above[lo]
        if hmask & ~up:
            return x, next(y for y, hi in enumerate(his) if not up >> hi & 1)
    return None


def _first_bad_triple(lat: Lattice):
    n = lat.n
    meet, join = lat.meet, lat.join
    for x in range(n):
        mx = meet[x]
        for y in range(n):
            for z in range(n):
                if mx[join[y][z]] != join[mx[y]][mx[z]]:
                    return (x, y, z)
    return None


def has_two_levels(ji: JoinIrreducibles, lat: Lattice):
    """Whether j < k among join-irreducibles forces j to be an atom.

    For finite (hence spatial) lattices this is the same as the
    join-irreducibles containing no 3-element chain.  Witness is the
    lexicographically first violating pair (j, k).
    """
    amask = mask_of(ji.atoms)
    p = lat.poset
    for j in ji.members:
        if amask >> j & 1:
            continue
        higher = p.above[j] & ji.member_mask & ~(1 << j)
        if higher:
            return False, (j, next(bits(higher)))
    return True, None
