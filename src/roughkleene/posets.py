"""Finite posets and lattices over dense integer element ids.

Every set of element ids is a bitmask (an int): bit i set means element i is
in the set.  All structures are immutable after construction and every
operation is deterministic, so values can be shared freely across threads.

A Lattice is an order given twice as inclusion of sets, its meet codes and
its join codes: meet is looked up by the intersection of two meet codes and
join by the union of two join codes, and i <= j is one subset test of two
meet codes (Lattice.leq).  No P×P table is stored.  Every Lattice carries
its covering pairs (lat.covers), which generate its order, so each monotone
or antitone fact is one pass over them (codes_within).  Two builders make
every Lattice, and a distributive lattice has one form, D(J), unless
inclusion_lattice built it:

- downset_lattice, for the lattice D(J) of all downsets of a poset J
  (Birkhoff), which Lattice.from_poset also returns for every
  distributive lattice it builds: each element's code is its downset, a
  |J|-bit mask, so one index map answers both meet and join, and the
  builder proves in O(P·|J|) that its family is all of D(J) instead of
  looking up any pair.
  It keeps the covering pairs d ⋖ d ∪ {j} that proof walks as lat.covers
  and the point masks ↓p of J (lat.points), reads the join-irreducibles
  from J, the principal downsets, and knows it distributive.  Its poset
  holds the codes and builds the P-bit rows below and above only on first
  read, for the witness scans, check and the fold oracles; the hot readers
  decide order facts on the codes and the covers instead;
- _keyed_lattice, for orders not known to be lattices (inclusion_lattice,
  Lattice.from_poset): it streams the meet and join keys of the P²/2 pairs
  into its key maps while it proves the order a lattice, then reads the
  join-irreducibles from the covers of its poset's rows (Poset.covers,
  join_irreducibles) and decides distributivity by join folds
  (is_distributive).  A keyed lattice is kept only when it is not
  distributive, or built by inclusion_lattice; lat.points is None exactly
  on a keyed lattice.

Either way each is found once per lattice: every reader takes lat.ji and
lat.distributive.  rough.rs_join_irreducibles runs join_irreducibles only
after its decision on the pairs has failed, to name the mismatch.
"""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations_with_replacement, compress, count, islice, repeat, starmap
from operator import and_, invert, or_
from typing import Iterable, Iterator, NamedTuple, Sequence


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


def point_unions(masks: Iterable[int], images: Sequence[int]) -> list:
    """out[k] = the union of images[p] over the points p of the k-th mask.

    A map of the subsets of J that keeps unions is fixed by its values on
    the points, so every per-element map of a D(J) lattice is one call:
    the maxima that label a downset, the negation, star, plus and the
    isomorphism extension.  One OR per point, in an inline loop with no
    bits() generator, since it runs once per element.
    """
    out = []
    for mask in masks:
        union = 0
        while mask:
            top = mask.bit_length() - 1
            union |= images[top]
            mask ^= 1 << top
        out.append(union)
    return out


class PosetError(Exception):
    pass


class NotALattice(PosetError):
    """A pair of elements has no unique glb or lub."""

    def __init__(self, pair, kind):
        self.pair = pair
        self.kind = kind  # "meet" or "join"
        super().__init__(f"no unique {kind} for elements {pair}")


class LabelsNotDistinct(ValueError):
    """Two elements share a label; label is the first one that repeats."""

    def __init__(self, labels):
        seen = set()
        self.label = next(x for x in labels if x in seen or seen.add(x))
        super().__init__("labels must be pairwise distinct")


# The most elements an order, a lattice or a downset list is built for: 3^7,
# the rough-set algebra of seven 2-point blocks.  On the downset route
# (downset_lattice) it bounds the downset list and the O(P·width) bit-sliced
# order; on the keyed route it bounds the P²/2 pairs whose meet and join
# keys _keyed_lattice streams, whose time grows as P².  On a lattice each
# key map holds at most P keys.
MAX_TABLE_ELEMENTS = 2187


class TableCapExceeded(PosetError):
    """Too many elements for the order, the key streams of its pairs or the
    downset list: a bound, not a defect.  n is the element count, or "more
    than N" when the downset walk stops as soon as it passes the cap."""

    def __init__(self, n):
        super().__init__(f"{n} elements exceed the table cap {MAX_TABLE_ELEMENTS}")


def check_table_size(n: int):
    """Raise TableCapExceeded before an order or lattice on n elements is built."""
    if n > MAX_TABLE_ELEMENTS:
        raise TableCapExceeded(n)


def transpose(sets: Sequence[int], width: int) -> list:
    """out[u] = the mask of the k whose set sets[k] holds point u, for the
    width points.

    The sets are packed into one int, row k in the byte-aligned bits from
    k·stride, and written out once as a binary string, most significant
    bit first.  Column u is then every stride-th character of that string,
    from the last row's bit u down to the first's, which is out[u] read
    as a binary number: one slice and one parse per point, with no step
    per bit of any set.
    """
    if not sets or not width:
        return [0] * width
    nbytes = (width + 7) // 8
    stride = 8 * nbytes
    packed = int.from_bytes(b"".join(m.to_bytes(nbytes, "little") for m in sets), "little")
    text = format(packed, f"0{len(sets) * stride}b")
    return [int(text[stride - 1 - u::stride], 2) for u in range(width)]


class _Inclusion:
    """The inclusion order of sets of points, read bit-sliced; the sets are
    distinct when they are the elements of an order.

    holders[u] is the mask of the k whose set holds point u.  within(s) is
    the mask of the k with sets[k] ⊆ s: sets[k] ⊆ s fails exactly when
    sets[k] holds a point outside s, so it costs one OR per point that some
    set holds and s does not.
    containing(t) is the mask of the k with t ⊆ sets[k], one AND per point
    of t.  Both loops are inline, with no bits() generator, since they run
    once per element.
    """

    __slots__ = ("holders", "full", "points")

    def __init__(self, sets: Sequence[int], width: int):
        check_table_size(len(sets))
        self.holders = transpose(sets, width)
        self.full, self.points = (1 << len(sets)) - 1, reduce(or_, sets, 0)

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


def inclusion_lattice(labels: Sequence[str], sets: Sequence[int], width: int) -> "Lattice":
    """The inclusion order of distinct sets over width points as a Lattice
    whose meet codes and join codes are both the sets, or NotALattice at
    the first bad pair (_keyed_lattice)."""
    if len(set(sets)) != len(sets):
        raise ValueError("the sets of an inclusion order must be pairwise distinct")
    sets = tuple(sets)
    return _keyed_lattice(_CodedPoset(labels, sets, width), sets, sets)


def _keyed_lattice(poset: "Poset", meet_codes: tuple, join_codes: tuple) -> "Lattice":
    """The Lattice of a poset whose order is inclusion of meet_codes and
    also inclusion of join_codes, or NotALattice at the first bad pair.
    It sets no points (lat.points stays None); every other Lattice is a
    D(J) lattice and has them.

    The common lower bounds of i and j are the k with meet_codes[k] ⊆
    meet_codes[i] & meet_codes[j], and the common upper bounds the k with
    join_codes[k] ⊇ join_codes[i] | join_codes[j].  So the glb of i and j
    depends only on the meet key meet_codes[i] & meet_codes[j] and the lub
    only on the join key join_codes[i] | join_codes[j].

    The pairs are streamed row-major in chunks, sixteen rows' worth first
    and each next chunk twice the last, into dicts that keep the first pair
    of each key in the chunk.  Each key goes to the k with ↓k = ↓i ∩ ↓j, or
    ↑k = ↑i ∩ ↑j, for that pair, or to None; no cell is stored.  The first
    chunk with a None ends the stream.  Every pair before it has a glb and
    a lub, so the first bad pair of a row-major scan of every pair, meet
    before join, is the least first pair of a bad key in that chunk (a bad
    pair is bad both ways and never diagonal).  So an order that is no
    lattice stops within one chunk of its first bad pair, and never fills
    the maps with the keys of every pair.
    """
    n = poset.n
    if n == 0:
        raise NotALattice((None, None), "meet")
    check_table_size(n)
    below, above = poset.below, poset.above
    pairs = combinations_with_replacement
    streams = [
        (starmap(op, pairs(codes, 2)), pairs(range(n), 2), bounds,
         {m: k for k, m in enumerate(bounds)}, {})
        for codes, op, bounds in ((meet_codes, and_, below), (join_codes, or_, above))
    ]
    chunk, left = 16 * n, n * (n + 1) // 2
    while left > 0:
        bad = []
        for kind, (keys, at, bounds, ids, keyed) in enumerate(streams):
            first = {}
            deque(map(first.setdefault, islice(keys, chunk), islice(at, chunk)), 0)
            found = {key: ids.get(bounds[i] & bounds[j]) for key, (i, j) in first.items()}
            keyed.update(found)
            if None in found.values():
                bad += [(first[key], kind) for key, k in found.items() if k is None]
        if bad:
            pair, kind = min(bad)
            raise NotALattice(pair, ("meet", "join")[kind])
        left -= chunk
        chunk *= 2
    full = (1 << n) - 1
    lat = Lattice(poset, meet_codes, join_codes, streams[0][4], streams[1][4],
                  above.index(full), below.index(full))
    lat.ji = join_irreducibles(lat)
    lat.distributive = is_distributive(lat)
    return lat


def downset_lattice(labels: Sequence[str], downsets: Sequence[int], below: Sequence[int]) -> "Lattice":
    """The lattice D(J) of all downsets of the poset J with below[j] = ↓j,
    element i being downsets[i], a mask over the points of J; the downsets
    come in any order.  PosetError when they are not all of D(J).

    The meet and join of two downsets are their intersection and union, so
    each element's code, for meet and join alike, is its downset, and
    meets and joins are the one index map {d: id}: it holds the key of
    every pair and no other.  The order is inclusion of codes (_CodedPoset),
    whose P-bit rows are built only on first read.  No pair is looked up.
    Instead the family is proved to be all of D(J): every member is
    down-closed, the empty downset is a member, and so is d ∪ {j} for each
    member d and each j minimal outside it, since every downset is reached
    from ∅ by adding minimal elements one at a time.  That is one within()
    per member over the strict downsets ↓j∖{j}, O(P·|J|) in all.  The pairs
    d ⋖ d ∪ {j} it walks are every covering pair of D(J), kept as two id
    lists, lat.covers = (lower ids, upper ids), for codes_within.

    below is then proved an order: each ↓j holds j, and ↓j and ↓j∖{j} are
    members, so down-closed (transitivity and antisymmetry); PosetError
    otherwise.  So J is known and nothing is folded: lat.points is below,
    lat.ji is the ↓j, its atoms the ↓j of the minimal j, and
    lat.distributive is True.
    """
    check_table_size(len(downsets))
    index = {d: i for i, d in enumerate(downsets)}
    if len(index) != len(downsets):
        raise PosetError("the downsets of a downset lattice must be pairwise distinct")
    if 0 not in index:
        raise PosetError("the empty downset is missing")
    width = len(below)
    # fits(d): the j whose strict downset lies in d, so d is down-closed when
    # it lies in fits(d), and the j of fits(d) outside d are its minimal ones
    fits = _Inclusion([b & ~(1 << j) for j, b in enumerate(below)], width).within
    lows, highs, get = [], [], index.get
    for i, d in enumerate(downsets):
        can_add = fits(d)
        if d & ~can_add:
            raise PosetError(f"member {d:#x} is not a downset")
        free = can_add & ~d
        while free:
            low = free & -free
            k = get(d | low)
            if k is None:
                raise PosetError(f"the downset {d | low:#x} is missing")
            lows.append(i)
            highs.append(k)
            free ^= low
    for j, b in enumerate(below):
        if not b >> j & 1 or b not in index or b ^ 1 << j not in index:
            raise PosetError(f"below is not an order at point {j}")
    codes = tuple(downsets)
    lat = Lattice(_CodedPoset(labels, codes, width), codes, codes, index, index,
                  index[0], index[(1 << width) - 1])
    lat._covers, lat.points = (lows, highs), tuple(below)
    members = tuple(sorted(index[b] for b in below))
    atoms = tuple(i for i in members if codes[i].bit_count() == 1)
    lat.ji = JoinIrreducibles(members, atoms, mask_of(members))
    lat.distributive = True
    return lat


def pulled_back(lat: "Lattice", perm: Sequence[int]) -> _Inclusion:
    """The order of lat pulled back along perm, a sequence of its ids, read
    bit-sliced: an _Inclusion over lat.meet_codes[perm[y]], whose
    within(lat.meet_codes[perm[x]]) is the mask of the y with perm[y] <=
    perm[x] and whose containing(lat.meet_codes[perm[x]]) is the mask of
    the y with perm[y] >= perm[x].  Building it costs one step per bit of
    each code and each query O(code width), with no walk over any ↓x.
    """
    codes = lat.meet_codes
    return _Inclusion([codes[v] for v in perm], codes[lat.top].bit_length())


def codes_within(lows: Iterable[int], highs: Iterable[int], codes: Sequence[int]) -> bool:
    """Whether codes[lo] ⊆ codes[hi] for every pair (lo, hi) of lows and
    highs taken in step, in one C-level pass.

    With lat.covers as (lows, highs), this says that x -> codes[x] is
    monotone into inclusion, since the order of a finite lattice is the
    reflexive transitive closure of its covering pairs; with (highs, lows)
    it says the map is antitone.  Each is one subset test per covering
    pair, on the codes, with no P-bit row: every order check of the
    package decides this way.
    """
    get = codes.__getitem__
    return not any(map(and_, map(get, lows), map(invert, map(get, highs))))


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


class OrderReport(NamedTuple):
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
    above is the transpose of below.
    """

    __slots__ = ("n", "labels", "below", "above")

    def __init__(self, labels: Sequence[str], below: Sequence[int]):
        self._set_labels(labels, len(below))
        self.below = tuple(below)
        self.above = tuple(transpose(self.below, self.n))

    def _set_labels(self, labels: Sequence[str], n: int):
        """Keep the labels as a tuple, or as they are when the sequence
        carries a distinct attribute (rough.RoughLabels, which formats each
        label on read): a true one is trusted, so no label is formatted
        here, and a false one leaves the check below to run."""
        distinct = getattr(labels, "distinct", None)
        if distinct is None:
            labels = tuple(labels)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} elements")
        if not distinct and len(set(labels)) != n:
            raise LabelsNotDistinct(labels)
        self.n = n
        self.labels = labels

    @classmethod
    def from_leq(cls, labels: Sequence[str], rows: Sequence[Sequence[int]]) -> "Poset":
        report = validate_order(rows)
        if not report.valid:
            raise PosetError(f"not a partial order: {report.violations()}")
        return cls(labels, [mask_of(compress(count(), column)) for column in zip(*rows)])

    @classmethod
    def from_covers(cls, labels: Sequence[str], covers: Iterable[tuple]) -> "Poset":
        """Build from Hasse edges (i, j) meaning i is covered by j.

        The edge list is closed reflexively and transitively on load, in
        one topological pass (Kahn): an element is taken once every edge
        into it has been, and ORs its ↓ into the ↓ of each element above
        it, one OR per edge.  Self-loop edges say nothing and are skipped.
        Elements never taken lie on or above a cycle; only then is the
        closure taken by whole passes, to name the first pair of a cycle.
        """
        n = len(labels)
        edges = [tuple(e) for e in covers]
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"cover edge ({i},{j}) out of range")
        below = [1 << i for i in range(n)]
        ups, waiting = [[] for _ in range(n)], [0] * n
        for i, j in edges:
            if i != j:
                ups[i].append(j)
                waiting[j] += 1
        taken = [i for i in range(n) if not waiting[i]]
        for i in taken:
            for j in ups[i]:
                below[j] |= below[i]
                waiting[j] -= 1
                if not waiting[j]:
                    taken.append(j)
        if len(taken) < n:
            cls._name_cycle(n, edges)
        return cls(labels, below)

    @staticmethod
    def _name_cycle(n: int, edges: list):
        """Raise PosetError at the first pair (i, j), row-major, that lies
        on a cycle of the edges, closed by whole passes."""
        below = [1 << i for i in range(n)]
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

    def leq(self, i: int, j: int) -> bool:
        return bool(self.below[j] >> i & 1)

    def covers(self) -> list:
        """All covering pairs (i, j) with i covered by j, in lex order.

        The lower covers of j are the maximal elements of ↓j∖{j}.  With the
        ids ranked in a linear extension, the highest-ranked element of a
        set is maximal in it, so each lower cover is found by taking the
        highest rank left and clearing its whole ↓: one step per covering
        pair and one per element, on the rows ↓x written over ranks (the
        transpose of above in rank order).
        """
        order = sorted(range(self.n), key=lambda i: self.below[i].bit_count())
        ranked = transpose([self.above[i] for i in order], self.n)
        out = []
        for j, down in enumerate(ranked):
            # j has the highest rank in ↓j: all else in it is strictly below
            strict = down ^ 1 << down.bit_length() - 1
            while strict:
                i = order[strict.bit_length() - 1]
                out.append((i, j))
                strict &= ~ranked[i]
        out.sort()
        return out

    def downsets(self) -> list:
        """All down-closed subsets as bitmasks, ascending (posets.downsets)."""
        return downsets(self.below)


class _CodedPoset(Poset):
    """An order given by codes: inclusion of distinct masks over width
    points, as in a downset lattice and in inclusion_lattice.

    leq is one subset test of two codes.  below and above, P masks of P
    bits each, are built together on first read (_build_rows, bit-sliced)
    and kept: _keyed_lattice reads them at once, and on a downset lattice
    the witness scans, check and the fold oracles read them; represent,
    a passing verify and the Hasse diagrams (lat.covers) read none.
    """

    __slots__ = ("codes", "width", "_rows")

    def __init__(self, labels: Sequence[str], codes: tuple, width: int):
        self._set_labels(labels, len(codes))
        self.codes, self.width, self._rows = codes, width, None

    def _build_rows(self) -> tuple:
        order = _Inclusion(self.codes, self.width)
        return tuple(map(order.within, self.codes)), tuple(map(order.containing, self.codes))

    @property
    def below(self):
        if self._rows is None:
            self._rows = self._build_rows()
        return self._rows[0]

    @property
    def above(self):
        if self._rows is None:
            self._rows = self._build_rows()
        return self._rows[1]

    def leq(self, i: int, j: int) -> bool:
        return not self.codes[i] & ~self.codes[j]

    def __reduce__(self):
        # below and above are read-only properties, so the default slot
        # state cannot be restored; the codes rebuild them on first read
        return _CodedPoset, (self.labels, self.codes, self.width)


class Lattice:
    """A finite lattice: poset, two lists of element codes and two key maps.

    i <= j exactly when meet_codes[i] ⊆ meet_codes[j], and exactly when
    join_codes[i] ⊆ join_codes[j].  meets maps the intersection of two meet
    codes (the pair's meet key) to the id of their glb, and joins maps the
    union of two join codes (the join key) to the id of their lub; each
    holds the keys of every pair and no other, so meet(i, j) and join(i, j)
    are one lookup each and no P×P table is stored.  Two builders make
    every Lattice: downset_lattice, with each downset as both codes and one
    index map for both, and _keyed_lattice, which proves an order a
    lattice by looking up every pair's keys (inclusion_lattice with the
    sets as both codes, from_poset with ↓x and L∖↑x).  Each then sets ji,
    the JoinIrreducibles of the lattice, and distributive, once per
    lattice: downset_lattice reads both from J, and _keyed_lattice reads ji
    from the covers (join_irreducibles) and folds (is_distributive).
    from_poset hands every distributive lattice on to downset_lattice, so
    it is D(J).

    covers holds the covering pairs as (lower ids, upper ids):
    downset_lattice sets them from its family proof, and any other lattice
    reads them from its poset (Poset.covers) and keeps them.
    points, the masks ↓p of J over which the codes of a D(J) lattice run,
    is None exactly on a keyed lattice.
    """

    __slots__ = ("poset", "meet_codes", "join_codes", "meets", "joins", "bottom", "top",
                 "ji", "distributive", "_covers", "points")

    def __init__(self, poset: Poset, meet_codes, join_codes, meets: dict, joins: dict,
                 bottom: int, top: int):
        self.poset = poset
        self.meet_codes = meet_codes
        self.join_codes = join_codes
        self.meets = meets
        self.joins = joins
        self.bottom = bottom
        self.top = top
        self._covers = self.points = None

    @property
    def covers(self) -> tuple:
        if self._covers is None:
            pairs = self.poset.covers()
            self._covers = [i for i, _ in pairs], [j for _, j in pairs]
        return self._covers

    @classmethod
    def from_poset(cls, p: Poset) -> "Lattice":
        """The lattice of a poset, or NotALattice at the first bad pair:
        _keyed_lattice with the meet codes ↓x and the join codes L∖↑x,
        returned as it is when it is not distributive.

        ↓i ∩ ↓j is the downset of the common lower bounds, and L∖↑i ∪ L∖↑j
        is the complement of the upset of the common upper bounds, so on a
        lattice these are ↓(i∧j) and L∖↑(i∨j): each map holds at most one
        key per element, however wide the lattice.

        A distributive lattice is D(J) by x -> ↓x ∩ J (Birkhoff), so it is
        returned as downset_lattice of those sets, written over the
        positions of J, with the same ids and labels: every reader then
        takes the one D(J) route.  downset_lattice proves the sets all of
        D(J) again, so a PosetError there is a defect.  Its poset takes the
        parsed rows below and above, so none is rebuilt.
        """
        full = (1 << p.n) - 1
        lat = _keyed_lattice(p, p.below, tuple(full ^ up for up in p.above))
        if not lat.distributive:
            return lat
        members = lat.ji.members
        codes = transpose([p.above[j] for j in members], p.n)
        dj = downset_lattice(p.labels, codes, [codes[j] for j in members])
        dj.poset._rows = p.below, p.above
        return dj

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self):
        return self.poset.labels

    def leq(self, i: int, j: int) -> bool:
        return not self.meet_codes[i] & ~self.meet_codes[j]

    def meet(self, i: int, j: int) -> int:
        return self.meets[self.meet_codes[i] & self.meet_codes[j]]

    def join(self, i: int, j: int) -> int:
        return self.joins[self.join_codes[i] | self.join_codes[j]]

    def meet_all(self, ids: Iterable[int]) -> int:
        codes, meets = self.meet_codes, self.meets
        out = self.top
        for i in ids:
            out = meets[codes[out] & codes[i]]
        return out

    def join_all(self, ids: Iterable[int]) -> int:
        codes, joins = self.join_codes, self.joins
        out = self.bottom
        for i in ids:
            out = joins[codes[out] | codes[i]]
        return out

    def meet_of(self, mask: int) -> int:
        """The meet of the elements in a mask; the dual of join_of."""
        above, codes, meets = self.poset.above, self.meet_codes, self.meets
        out = self.top
        while mask:
            i = (mask & -mask).bit_length() - 1
            out = meets[codes[out] & codes[i]]
            if not above[out] >> i & 1:
                raise PosetError(f"meet table step is not below element {self.labels[i]}")
            mask &= ~above[out]
        return out

    def join_of(self, mask: int) -> int:
        """The join of the elements in a mask.

        Elements below the running join are dropped unvisited, so the join
        grows strictly at each step and the fold takes at most as many
        steps as the longest chain of the lattice.  A step that does not
        land above the element it folds in would never drop it, so it
        raises PosetError instead.
        """
        below, codes, joins = self.poset.below, self.join_codes, self.joins
        out = self.bottom
        while mask:
            i = (mask & -mask).bit_length() - 1
            out = joins[codes[out] | codes[i]]
            if not below[out] >> i & 1:
                raise PosetError(f"join table step is not above element {self.labels[i]}")
            mask &= ~below[out]
        return out


class JoinIrreducibles(NamedTuple):
    """Join-irreducible elements of a lattice: each covers exactly one element."""

    members: tuple          # ids, ascending
    atoms: tuple            # the members that cover the bottom
    member_mask: int

    def __contains__(self, j: int) -> bool:
        return bool(self.member_mask >> j & 1)


def join_irreducibles(lat: Lattice) -> JoinIrreducibles:
    """The elements with exactly one lower cover (Davey & Priestley, ch. 2),
    in one pass over lat.covers; the atoms are those whose cover is the
    bottom, which has none."""
    lower = {}
    for lo, hi in zip(*lat.covers):
        lower[hi] = None if hi in lower else lo
    members = tuple(sorted(j for j, lo in lower.items() if lo is not None))
    atoms = tuple(j for j in members if lower[j] == lat.bottom)
    return JoinIrreducibles(members, atoms, mask_of(members))


def is_distributive(lat: Lattice) -> bool:
    """Whether x∧(y∨z) == (x∧y)∨(x∧z) for all triples.

    A finite lattice is distributive iff every join-irreducible j of lat.ji
    is join-prime (j <= x∨y implies j <= x or j <= y), that is, iff the
    downset L∖↑j is closed under ∨.  A finite downset D is closed under ∨
    exactly when ⋁D ∈ D (Davey & Priestley, ch. 2), so each test is one
    fold (Lattice.join_of), not a scan of all pairs outside ↑j.  The first
    violating triple is first_bad_triple's to find, for the callers that
    report it.
    """
    return all(is_join_prime(lat, j) for j in lat.ji.members)


def is_join_prime(lat: Lattice, x: int) -> bool:
    """Whether ↑x is a prime filter (x <= a∨b implies x <= a or x <= b),
    decided as ⋁(L∖↑x) ∉ ↑x.

    L∖↑x is a downset, and a downset of a finite lattice is closed under ∨
    iff it contains its own join, so one join fold replaces the test of
    every pair outside ↑x.  No distributivity is assumed.  The bottom is
    never join-prime (↑bottom is all of L).
    """
    up = lat.poset.above[x]
    return not up >> lat.join_of(((1 << lat.n) - 1) & ~up) & 1


def first_not_below(lat: Lattice, los: Sequence[int], his: Sequence[int]):
    """The lexicographically first (x, y) with los[x] not<= his[y], or None.

    lo <= hi for every hi exactly when the code of lo lies in the
    intersection of the codes of the his, so that intersection is taken
    once and each x costs one subset test, in one C-level pass; only the
    first failing x is scanned for its y.
    """
    codes = lat.meet_codes
    get = codes.__getitem__
    common = reduce(and_, map(get, his), codes[lat.top])
    x = next(compress(count(), map(and_, map(get, los), repeat(~common))), None)
    if x is None:
        return None
    code = codes[los[x]]
    return x, next(y for y, hi in enumerate(his) if code & ~codes[hi])


def first_bad_triple(lat: Lattice):
    """The lexicographically first (x, y, z) with x∧(y∨z) != (x∧y)∨(x∧z),
    or None: a scan of up to n³ triples, for a lattice that is_distributive
    has rejected.  Row x of the meet is built for the scan of x alone."""
    codes, meets, joins = lat.join_codes, lat.meets, lat.joins
    for x, cx in enumerate(lat.meet_codes):
        mx = [meets[cx & c] for c in lat.meet_codes]
        for y, cy in enumerate(codes):
            cmy = codes[mx[y]]
            for z, cz in enumerate(codes):
                if mx[joins[cy | cz]] != joins[cmy | codes[mx[z]]]:
                    return (x, y, z)
    return None


def has_two_levels(lat: Lattice):
    """Whether j < k among the join-irreducibles of lat forces j to be an atom.

    For finite (hence spatial) lattices this is the same as the
    join-irreducibles containing no 3-element chain.  Witness is the
    lexicographically first violating pair (j, k).  j <= k is a subset
    test of two codes (Lattice.leq), with no P-bit row: each j costs one
    C-level pass over the complements of the codes of J, which holds one
    zero for j itself and one more for each k above it.
    """
    ji, codes = lat.ji, lat.meet_codes
    amask = mask_of(ji.atoms)
    outside = [~codes[k] for k in ji.members]
    for j in ji.members:
        code = codes[j]
        if not amask >> j & 1 and list(map(and_, repeat(code), outside)).count(0) > 1:
            return False, (j, next(k for k in ji.members if k != j and not code & ~codes[k]))
    return True, None
