"""Tolerances, blocks, coverings and the rough-set algebra they induce.

A tolerance is a reflexive symmetric relation on U, stored as neighborhood
bitmasks.  For a subset X the pair (lower(X), upper(X)) collects the points
whose whole neighborhood sits inside X and the points whose neighborhood
meets X.  The set of all such pairs, ordered coordinatewise, is assembled
into a lattice-with-operations when the order admits one.

build_rs is the one builder, and the tolerance picks its route.  When an
irredundant covering induces it, the rough pairs form a distributive
lattice, and the downset route joins each downset of the block-derived
join-irreducibles J (Birkhoff).  Its downsets come from posets.downsets, so
it costs time linear in the number of pairs and stops once they pass the
table cap.  Any other tolerance takes the powerset sweep, the defining
construction: 2^|U| subsets, capped at POWERSET_CAP points.  The sweep
(_approximation_table) works in columns, one big int per point with a
byte per subset, so it costs O(U) big-int operations on 2^U bytes and no
Python step per subset; its two arrays hold 4 bytes per subset, written
at stride 4.  On every covering-induced algebra that verify and the
sweeps check, the powerset sweep is the independent oracle
(dualRouteEqual); the tolerance sweeps it once for both checks, and
finds its distinct pairs once, over one 4-byte code per subset
(Tolerance.powerset, _powerset_table).

A pair (lo, up) is coded as the one set lo ∪ (up shifted past the points),
so the coordinatewise order is inclusion of codes.  _assemble decides once,
per route, whether every meet and join of the lattice is its closed form.
On the downset route the lattice is posets.downset_lattice of the pairs'
downsets, with no pair looked up, and the closed forms are decided per
point (_closed_forms_hold), in O(P·U); when they hold, the downset order is
the coordinatewise order, so no second order is built.  On the powerset
route the lattice is posets.inclusion_lattice of the codes: in an inclusion
order the meet of two elements depends only on the intersection of their
codes, and the join only on the union, and the closed forms read the same
keys, so the decision costs one test per distinct key (_keys_hold).  Either
way the lattice answers meet and join from what was decided, so the
decision covers every pair the algebra is ever asked about.  A failed
decision has one path, _name_failure, which names the first element whose
order differs and else the first failing (pair, formula).

The checks of a built covering algebra (RS_CHECKS) decide the same way, on
the pairs and per point, with no join fold and no P-bit row: the block
formulas are J exactly when no formula is the join of the pairs below it
and every pair is the join of the formulas below it
(_join_irreducible_atoms); only a failed decision reads J from the
lattice's covers, to name the mismatch.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Sequence
from functools import reduce
from operator import and_, invert, or_
from typing import NamedTuple

from .demorgan import compute_g, is_kleene, validate_demorgan
from .posets import (
    Memo,
    NotALattice,
    _Inclusion,
    bits,
    downset_lattice,
    downsets,
    has_two_levels,
    inclusion_below,
    inclusion_lattice,
    join_irreducibles,
    pulled_back,
    transpose,
)
from .pseudo import compute_pseudocomplements


class ToleranceError(Exception):
    pass


# The most points the 2^U powerset sweep (_approximation_table) accepts.
POWERSET_CAP = 16
# The array typecode of 4-byte entries, which hold a set of the sweep and
# the code of a pair (_powerset_table).
_U32 = next(code for code in "IL" if array(code).itemsize == 4)


class BoundsExceeded(ToleranceError):
    """The universe is too large for the 2^U powerset sweep (POWERSET_CAP).

    The cap is fixed.  build_rs meets it only on a tolerance that no
    irredundant covering induces, since the others take the downset route;
    verify_report refuses past it up front, as its battery sweeps the
    powerset as an oracle.
    """

    def __init__(self, n, cap):
        super().__init__(f"universe of {n} exceeds the enumeration cap {cap}")


class FormulaMismatch(ToleranceError):
    """A closed-form construction disagreed with the direct one: a bug."""

    def __init__(self, what, details):
        self.details = details
        super().__init__(f"{what}: {details}")


def _fmt_set(mask, labels):
    return "{" + ",".join(labels[i] for i in bits(mask)) + "}"


class RoughLabels(Sequence):
    """The labels "(lower,upper)" of rough pairs, each set formatted by
    _fmt_set over the point labels, formatted only when read.

    distinct says the labels are pairwise distinct without formatting one:
    distinct pairs give distinct labels when the point labels are nonempty,
    pairwise distinct and free of ",{}()", as then each label parses back
    to its pair.  Poset._set_labels trusts it, and formats every label for
    its own check only when the O(U) scan of the point labels finds one
    that breaks the rule.  Each set is formatted once, on its first read;
    a slice is the tuple of its labels, as a tuple's slice is.
    """

    __slots__ = ("pairs", "points", "distinct", "_sets")

    def __init__(self, pairs, points):
        self.pairs, self.points, self._sets = pairs, points, None
        self.distinct = len(set(points)) == len(points) and all(
            label and not any(c in label for c in ",{}()") for label in points)

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self.pairs))[i]))
        if self._sets is None:
            self._sets = Memo(lambda mask: _fmt_set(mask, self.points))
        lo, up = self.pairs[i]
        return f"({self._sets[lo]},{self._sets[up]})"

    def __reduce__(self):
        return RoughLabels, (self.pairs, self.points)


class Tolerance:
    """Reflexive symmetric relation; nbr[x] is the bitmask of R(x).

    blocks is blocks_of(self), built on first read and kept, so each
    tolerance finds its blocks once.  So are powerset, the 2^U table
    _powerset_table(self), and the lane tables of _union, one per eight
    points: lower, upper, closure and interior then cost a few lookups
    each, for any number of points."""

    __slots__ = ("n", "labels", "nbr", "_blocks", "_lanes", "_powerset")

    def __init__(self, labels, nbr):
        n = len(nbr)
        self.n = n
        self.labels = tuple(labels)
        if len(self.labels) != n:
            raise ToleranceError(f"{len(self.labels)} labels for {n} points")
        nbr = tuple(nbr)
        for x in range(n):
            if not nbr[x] >> x & 1:
                raise ToleranceError(f"relation not reflexive at {x}")
            for y in bits(nbr[x]):
                if not nbr[y] >> x & 1:
                    raise ToleranceError(f"relation not symmetric at ({x},{y})")
        self.nbr = nbr
        self._blocks = self._lanes = self._powerset = None

    @property
    def blocks(self) -> tuple:
        if self._blocks is None:
            self._blocks = tuple(blocks_of(self))
        return self._blocks

    @property
    def powerset(self) -> tuple:
        if self._powerset is None:
            self._powerset = _powerset_table(self)
        return self._powerset

    @classmethod
    def from_pairs(cls, labels, pairs):
        """Symmetric closure of the given pairs; reflexive pairs are implied."""
        n = len(labels)
        nbr = [1 << x for x in range(n)]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ToleranceError(f"pair ({i},{j}) out of range")
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
        return cls(labels, nbr)

    def related(self, x, y):
        return bool(self.nbr[x] >> y & 1)

    def _union(self, mask: int) -> int:
        """The union of R(u) over the points u of mask, a subset of U: one
        lookup per lane of eight points, of the entry that byte of mask
        selects (_lane_tables)."""
        if self._lanes is None:
            self._lanes = self._lane_tables()
        first, rest = self._lanes
        out = first[mask & 255]
        for table in rest:
            mask >>= 8
            out |= table[mask & 255]
        return out

    def _lane_tables(self) -> tuple:
        """(first, rest): for each run of eight points from 8k (fewer in
        the last), the table whose entry t is the union of R(8k + i) over
        the bits i of t.  Each point doubles its table, each new entry one
        OR over an earlier one, so a lane of m points costs 2^m ORs."""
        lanes = []
        for k in range(0, max(self.n, 1), 8):
            table = [0]
            for r in self.nbr[k:k + 8]:
                table += [t | r for t in table]
            lanes.append(table)
        return lanes[0], tuple(lanes[1:])

    def lower(self, X: int) -> int:
        """The x with R(x) ⊆ X: since R is symmetric, U minus the union of
        R(u) over the u outside X."""
        full = (1 << self.n) - 1
        return full & ~self._union(full & ~X)

    def upper(self, X: int) -> int:
        """The x with R(x) ∩ X ≠ ∅: since R is symmetric, the union of R(u)
        over the u in X."""
        return self._union(X & (1 << self.n) - 1)

    def interior(self, X: int) -> int:
        """upper(lower(X)): the upper half of the rough pair of lower(X)."""
        return self.upper(self.lower(X))

    def closure(self, X: int) -> int:
        """lower(upper(X)): the lower half of the rough pair of upper(X)."""
        return self.lower(self.upper(X))

    def pairs(self):
        """Non-reflexive related pairs (i, j) with i < j, sorted."""
        return [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.related(i, j)
        ]


def approximations(tol: Tolerance, X: int):
    """The rough pair (lower(X), upper(X)) of X.  Their duality and the
    sandwich lower(X) ⊆ X ⊆ upper(X) are checked for every X by the
    powerset sweep, _approximation_table."""
    return tol.lower(X), tol.upper(X)


def galois_holds(tol: Tolerance, X: int, Y: int) -> bool:
    """upper(X) inside Y exactly when X inside lower(Y)."""
    return (tol.upper(X) & ~Y == 0) == (X & ~tol.lower(Y) == 0)


def blocks_of(tol: Tolerance):
    """All blocks (maximal cliques) of the tolerance graph, ascending by mask.

    Pivoted Bron-Kerbosch; afterwards the relation is rebuilt from the
    blocks and compared, since the blocks determine the tolerance.
    """
    n = tol.n
    adj = tuple(tol.nbr[x] ^ (1 << x) for x in range(n))
    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pux = p | x
        pivot, best = -1, -1
        for u in bits(pux):
            c = (p & adj[u]).bit_count()
            if c > best:
                best, pivot = c, u
        for v in bits(p & ~adj[pivot]):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p ^= bit
            x |= bit

    if n:
        expand(0, (1 << n) - 1, 0)
    out.sort()
    rebuilt = [1 << x for x in range(n)]
    for b in out:
        for x in bits(b):
            rebuilt[x] |= b
    if tuple(rebuilt) != tol.nbr:
        raise FormulaMismatch("blocks do not determine the relation", {"blocks": out})
    return out


class Covering:
    """Family of distinct nonempty subsets whose union is the universe.

    tolerance is the tolerance it induces, built by tolerance_from_covering
    on first read and kept, so each covering builds it once."""

    __slots__ = ("n", "labels", "blocks", "_tolerance")

    def __init__(self, labels, blocks):
        self.n = len(labels)
        self.labels = tuple(labels)
        blocks = tuple(sorted(set(blocks)))
        union = 0
        for b in blocks:
            if b == 0:
                raise ToleranceError("coverings may not contain the empty set")
            union |= b
        if union != (1 << self.n) - 1:
            raise ToleranceError("blocks do not cover the universe")
        self.blocks = blocks
        self._tolerance = None

    @property
    def tolerance(self) -> Tolerance:
        if self._tolerance is None:
            self._tolerance = tolerance_from_covering(self)
        return self._tolerance


def tolerance_from_covering(cov: Covering) -> Tolerance:
    """The tolerance whose related pairs are those sharing a covering block."""
    nbr = [1 << x for x in range(cov.n)]
    for b in cov.blocks:
        for x in bits(b):
            nbr[x] |= b
    return Tolerance(cov.labels, nbr)


class IrredundanceReport(NamedTuple):
    irredundant: bool
    removable: int | None        # a block whose removal keeps the family covering
    not_a_neighborhood: int | None   # a block that is nobody's neighborhood


def is_irredundant(cov: Covering) -> IrredundanceReport:
    """Evaluate both characterizations of irredundance and insist they agree.

    Removal: no member may be dropped without losing the covering property.
    Neighborhoods: every member is R(x) for some point x of the induced
    tolerance.  For irredundant families the member set must coincide with
    the block-valued neighborhoods, each with a nonempty private core.
    """
    full = (1 << cov.n) - 1
    removable = None
    for i, b in enumerate(cov.blocks):
        rest = 0
        for j, c in enumerate(cov.blocks):
            if i != j:
                rest |= c
        if rest == full:
            removable = b
            break
    tol = cov.tolerance
    nbrs = set(tol.nbr)
    missing = next((b for b in cov.blocks if b not in nbrs), None)
    if (removable is None) != (missing is None):
        raise FormulaMismatch(
            "irredundance criteria disagree", {"removable": removable, "missing": missing}
        )
    if removable is None:
        blocks = set(tol.blocks)
        block_nbrs = {tol.nbr[x] for x in range(cov.n) if tol.nbr[x] in blocks}
        if block_nbrs != set(cov.blocks):
            raise FormulaMismatch(
                "irredundant covering differs from its block neighborhoods",
                {"blocks": sorted(block_nbrs)},
            )
        for b in cov.blocks:
            if tol.lower(b) == 0:
                raise FormulaMismatch("irredundant block with empty core", {"block": b})
    return IrredundanceReport(removable is None, removable, missing)


def induced_irredundant_covering(tol: Tolerance):
    """The unique irredundant covering inducing tol, or None.

    Candidate: the neighborhoods that are blocks.  The tolerance is induced
    by an irredundant covering exactly when that family F covers U, induces
    tol, and is irredundant.  The last follows from the first two, so it is
    not tested: take B = R(x) in F, and any C in F that holds x.  As F
    induces tol, R(x) is the union of the members of F that hold x, so C
    is a block inside the block B, and C = B since blocks are maximal.  So
    x lies in B alone, and F without B does not cover U.  is_irredundant
    still runs on a given covering (verify_report), on the spans
    (build_tolerance_universe) and on every antichain covering of the
    sweep (irredundanceCriteriaAgree).
    """
    blocks = set(tol.blocks)
    family = sorted({nb for nb in tol.nbr if nb in blocks})
    union = 0
    for b in family:
        union |= b
    if union != (1 << tol.n) - 1:
        return None
    cov = Covering(tol.labels, family)
    return cov if cov.tolerance.nbr == tol.nbr else None


class RoughSetAlgebra:
    """The ordered set of rough pairs with its lattice and unary operations.

    pairs are sorted (lower, upper) bitmask tuples; element i of the lattice
    is pairs[i].  neg swaps-and-complements coordinates; star and plus are
    the complement-approximation maps.  For tolerances induced by an
    irredundant covering the full Kleene/regularity battery has been run
    and demorgan/doublep are populated, and ji is lattice.ji.  The
    label of element i, lattice.labels[i], is "(lower,upper)" of pairs[i],
    each set formatted by _fmt_set when it is read (RoughLabels): a bundle,
    a render or an error message formats the labels it reads, and verify
    and the sweeps format none.  The 2^U table its powerset checks read is
    the tolerance's (Tolerance.powerset).
    """

    __slots__ = ("tolerance", "pairs", "index", "lattice",
                 "neg", "star", "plus", "covering", "demorgan", "doublep")

    def __init__(self, tolerance, pairs, index, lattice, neg, star, plus,
                 covering, demorgan, doublep):
        self.tolerance = tolerance
        self.pairs = pairs
        self.index = index
        self.lattice = lattice
        self.neg = neg
        self.star = star
        self.plus = plus
        self.covering = covering
        self.demorgan = demorgan
        self.doublep = doublep

    @property
    def n(self):
        return len(self.pairs)

    @property
    def ji(self):
        """lattice.ji when an irredundant covering induces the tolerance,
        else None."""
        return None if self.covering is None else self.lattice.ji


def _approximation_table(tol: Tolerance):
    """lower(X) and upper(X) for every subset X of U, as two arrays indexed
    by the mask X, with the checks of approximations run for every X.

    The sweep works in columns, one big int per point, never one Python
    step per subset.  A column gives each of the 2^U subsets one byte, at
    byte X, holding 0 or 1.  The column of point i holds the X that contain
    i; it is a repeated byte pattern.  The lower column of x is the AND of
    the columns of R(x), by definition; the upper column of x is the OR of
    the columns of the u whose R(u) holds x (transpose), which is upper's
    definition only when R is symmetric, so the duality check below can
    fail.  The columns of the points 8k..8k+7, each shifted by its offset
    in the group, OR into one lane whose byte X is byte k of the row.  Each
    array entry is 4 bytes (_U32), since a set of at most POWERSET_CAP
    points fits in two, so a lane's bytes go in at stride 4.  Per lane,
    three big-int tests decide the checks for every X at once:
      duality, full ^ lower(X) = upper(full ^ X): the complement of the
        lower lane, in bytes, is the upper lane's bytes reversed;
      sandwich, lower(X) ⊆ X ⊆ upper(X): against the lane of X itself.
    Only when a test fails does a scan over the rows name the first X that
    fails either check.  Raises BoundsExceeded past POWERSET_CAP points.
    """
    n = tol.n
    if n > POWERSET_CAP:
        raise BoundsExceeded(n, POWERSET_CAP)
    size = 1 << n
    ones = int.from_bytes(b"\x01" * size, "little")
    points = [int.from_bytes((bytes(1 << i) + b"\x01" * (1 << i)) * (size >> i + 1), "little")
              for i in range(n)]
    lanes = (n + 7) >> 3
    lo_lanes, up_lanes, x_lanes = [0] * lanes, [0] * lanes, [0] * lanes
    for x, (r, holders) in enumerate(zip(tol.nbr, transpose(tol.nbr, n))):
        k, shift = x >> 3, x & 7
        lo_lanes[k] |= reduce(and_, map(points.__getitem__, bits(r)), ones) << shift
        up_lanes[k] |= reduce(or_, map(points.__getitem__, bits(holders)), 0) << shift
        x_lanes[k] |= points[x] << shift
    los, ups = array(_U32, [0]) * size, array(_U32, [0]) * size
    holds = True
    with memoryview(los).cast("B") as lo_rows, memoryview(ups).cast("B") as up_rows:
        for k, (lo, up, xs) in enumerate(zip(lo_lanes, up_lanes, x_lanes)):
            up_bytes = up.to_bytes(size, "little")
            lane_full = ones * ((1 << min(8, n - 8 * k)) - 1)
            holds = (holds and (lo ^ lane_full).to_bytes(size, "little") == up_bytes[::-1]
                     and lo & xs == lo and xs & up == xs)
            lo_rows[k::4], up_rows[k::4] = lo.to_bytes(size, "little"), up_bytes
    if sys.byteorder == "big":
        los.byteswap()
        ups.byteswap()
    if not holds:
        full = size - 1
        for X in range(size):
            if los[X] ^ full != ups[X ^ full]:
                raise FormulaMismatch("approximation duality", {"X": X})
            if los[X] & ~X or X & ~ups[X]:
                raise FormulaMismatch("reflexive sandwich", {"X": X})
    return los, ups


def _powerset_table(tol: Tolerance):
    """(los, ups, pairs): _approximation_table of tol and its distinct rough
    pairs, sorted.

    The pairs are found over one int code per subset, ups[X] | los[X] <<
    16, with no tuple per subset: each array entry is 32 bits and each set
    at most POWERSET_CAP = 16 bits, so the codes are one OR and one shift
    of the two arrays read as big ints, 4 bytes each, and sorting them
    sorts the pairs."""
    los, ups = _approximation_table(tol)
    byteorder, size = sys.byteorder, 4 * len(los)
    codes = array(_U32)
    codes.frombytes((int.from_bytes(ups, byteorder) | int.from_bytes(los, byteorder) << 16)
                    .to_bytes(size, byteorder))
    return los, ups, [(code >> 16, code & 0xFFFF) for code in sorted(set(codes))]


def _powerset_pairs(tol: Tolerance):
    """The sorted rough pairs of every subset (tol.powerset)."""
    return tol.powerset[2]


def formula_join_irreducibles(tol: Tolerance, cov: Covering):
    """Join-irreducible pairs read off the irredundant covering: the rough
    pair of each block, plus (empty, block) for blocks of two or more points."""
    out = set()
    for b in cov.blocks:
        out.add(approximations(tol, b))
        if b.bit_count() >= 2:
            out.add((0, b))
    return sorted(out)


def join_closure_pairs(tol: Tolerance, cov: Covering | None):
    """All joins of the block-derived join-irreducibles, one per downset,
    as (pairs, downsets, below): the sorted rough pairs, the downset of J
    whose join each pair is, and the order of J as down-masks, where J is
    formula_join_irreducibles' sorted list.  That is what downset_lattice
    needs to build the algebra with no pair lookups.

    For a tolerance induced by an irredundant covering the rough pairs form
    a finite distributive lattice, so each pair is the join of exactly one
    downset of its join-irreducibles J (Birkhoff).  The downsets of J under
    the rough order come from posets.downsets, which refuses more than
    MAX_TABLE_ELEMENTS of them; each one's join is
    (lower(upper(union of lowers)), union of uppers).  Two downsets with the
    same join would contradict the theorem and raise FormulaMismatch.  cov
    is induced_irredundant_covering(tol); None raises ToleranceError.
    """
    if cov is None:
        raise ToleranceError("join closure needs a tolerance induced by an irredundant covering")
    ji = formula_join_irreducibles(tol, cov)
    below = rough_order(ji, tol.n)
    closure = Memo(tol.closure)
    joined = {}
    # ji is sorted, and a coordinatewise smaller pair sorts first, so the
    # highest element of a downset d is maximal in it: d without it is a
    # smaller downset, listed earlier, whose unions are already known
    unions = {0: (0, 0)}
    for d in downsets(below):
        if d:
            top = d.bit_length() - 1
            lo, up = unions[d ^ 1 << top]
            a, b = ji[top]
            unions[d] = (lo | a, up | b)
        lo, up = unions[d]
        pair = (closure[lo], up)
        if pair in joined:
            raise FormulaMismatch("two downsets share a join", {"pair": pair})
        joined[pair] = d
    pairs = sorted(joined)
    return pairs, [joined[pair] for pair in pairs], below


def _codes(pairs, n_points: int) -> list:
    """Each rough pair (lo, up) as the one set lo ∪ (up shifted past the
    points), so that the coordinatewise order is inclusion of codes."""
    return [lo | up << n_points for lo, up in pairs]


def rough_order(pairs, n_points: int) -> list:
    """The coordinatewise order of rough pairs on n_points points, as down-masks
    (inclusion_below of their codes)."""
    return inclusion_below(_codes(pairs, n_points), 2 * n_points)


def rough_lattice(labels, pairs, n_points: int):
    """inclusion_lattice of the codes of the rough pairs, keyed by the
    intersection and the union of two codes.  A NotALattice names the rough
    pairs of its first bad pair."""
    try:
        return inclusion_lattice(labels, _codes(pairs, n_points), 2 * n_points)
    except NotALattice as exc:
        i, j = exc.pair
        raise NotALattice((pairs[i], pairs[j]), exc.kind) from None


def _closed_forms(tol: Tolerance):
    """The closed forms (a, b) ∧ (c, d) = (a ∩ c, interior(b ∩ d)) and
    (a, b) ∨ (c, d) = (closure(a ∪ c), b ∪ d) as functions of the key of
    the pair: the intersection s of the two codes gives a ∩ c = s & low and
    b ∩ d = s >> U, and the union t gives a ∪ c and b ∪ d the same way."""
    U, low = tol.n, (1 << tol.n) - 1
    interior, closure = Memo(tol.interior), Memo(tol.closure)
    return (lambda s: (s & low, interior[s >> U])), (lambda t: (closure[t & low], t >> U))


def _keys_hold(tol: Tolerance, pairs, lattice) -> bool:
    """Whether every entry of lattice's key maps, meets and joins, is its
    closed form.  In an inclusion order the glb and lub depend on the keys
    alone, and Lattice.meet and Lattice.join answer each pair from these
    entries, so one test per key covers every pair."""
    meet_form, join_form = _closed_forms(tol)
    return (all(pairs[m] == meet_form(s) for s, m in lattice.meets.items())
            and all(pairs[m] == join_form(t) for t, m in lattice.joins.items()))


def _name_failure(tol: Tolerance, pairs, lattice):
    """Raise FormulaMismatch for a lattice whose closed forms failed their
    decision: at the first element whose ↓ in the coordinatewise order
    (rough_order) differs from its ↓ in lattice, and else at the first
    (pair, formula) of a row-major scan of every pair, meet before join."""
    for pair, by_codes, by_lattice in zip(pairs, rough_order(pairs, tol.n), lattice.poset.below):
        if by_codes != by_lattice:
            raise FormulaMismatch("rough order is not the downset order", {"pair": pair})
    meet_form, join_form = _closed_forms(tol)
    codes = _codes(pairs, tol.n)
    for i, ci in enumerate(codes):
        for j, cj in enumerate(codes):
            for kind, got, formula in (("meet", lattice.meet(i, j), meet_form(ci & cj)),
                                       ("join", lattice.join(i, j), join_form(ci | cj))):
                if pairs[got] != formula:
                    raise FormulaMismatch(kind, {"pair": (pairs[i], pairs[j]), "formula": formula})


def _closed_forms_hold(tol: Tolerance, pairs, lattice) -> bool:
    """Whether every meet and join of lattice is its closed form, decided
    per point of U.  A True is exact whatever the ids.  A False is exact
    when the ids run along a linear extension of the order, as sorted pairs
    do in the coordinatewise order; _name_failure checks that order first.

    By the Galois connection of upper and lower (lower∘upper∘lower = lower,
    upper∘lower∘upper = upper, lower keeps ∩ and upper keeps ∪), the meet
    is (a∩c, interior(b∩d)) on every pair exactly when lo and lower∘up keep
    ∧ and each up is open (the diagonal pairs), and the join is
    (closure(a∪c), b∪d) on every pair exactly when up and upper∘lo keep ∨
    and each lo is closed.  A map f into sets keeps ∧ exactly when, for
    each point u, the ids whose f-value holds u are none or a principal
    filter ↑k, and k is then the lowest of them; dually f keeps ∨ exactly
    when the ids whose f-value lacks u are none or ↓k of the highest of
    them.  So each map costs one transpose and one mask test per point,
    O(P·U) in all.  Only the rows ↑k and ↓k of those k are read, each one
    containing() or within() of the lattice's order on its codes
    (posets.pulled_back along the ids), so no P-bit row of any other
    element is built.
    """
    order, codes = pulled_back(lattice, range(len(pairs))), lattice.meet_codes
    above = Memo(lambda k: order.containing(codes[k]))
    below = Memo(lambda k: order.within(codes[k]))
    full, U = (1 << len(pairs)) - 1, tol.n
    lows, ups = [lo for lo, _ in pairs], [up for _, up in pairs]
    lower, upper = Memo(tol.lower), Memo(tol.upper)

    def keeps_meets(values):
        return all(h == 0 or h == above[(h & -h).bit_length() - 1] for h in transpose(values, U))

    def keeps_joins(values):
        return all(c == 0 or c == below[c.bit_length() - 1]
                   for c in (full ^ h for h in transpose(values, U)))

    return (all(upper[lower[up]] == up for up in set(ups))
            and all(lower[upper[lo]] == lo for lo in set(lows))
            and keeps_meets(lows) and keeps_meets([lower[up] for up in ups])
            and keeps_joins(ups) and keeps_joins([upper[lo] for lo in lows]))


def _assemble(tol: Tolerance, pairs, covering: Covering | None, downsets=None, below=None):
    """The rough-set algebra on the sorted pair set, with every check run.

    With downsets and below from join_closure_pairs (the downset route) the
    lattice is downset_lattice of the pairs' downsets of J, whose order
    below is, and the closed forms of meet and join are decided per point
    (_closed_forms_hold).  Otherwise the lattice comes from rough_lattice,
    which raises NotALattice when the order has no meet or join for some
    pair, and they are decided per key (_keys_hold).  Either decision that
    fails goes to _name_failure.  A passing one needs no order check: the
    lattice meet is then (a∩c, interior(b∩d)) on every pair, so i <= j
    exactly when lo_i ⊆ lo_j and up_i = interior(up_i ∩ up_j), which is
    up_i ⊆ up_j as each up is open; the lattice order is the coordinatewise
    order.  Then neg, star and plus are checked against the pair set.  For
    a tolerance induced by an irredundant covering the algebra must then be
    Kleene (demorgan.is_kleene), star and plus must be the lattice's own,
    which compute_pseudocomplements reads from J, and it must be regular,
    read as the two levels of J (posets.has_two_levels), in that order.
    The three-way regularity comparison and the interplay laws of
    pseudo.demorgan_pseudo_report do not run here; check, the lattice
    sweep and the tests run them.  covering is
    induced_irredundant_covering(tol), found once by the caller; the
    algebra carries it as rs.covering.
    """
    pairs = tuple(pairs)
    labels = RoughLabels(pairs, tol.labels)
    if downsets is None:
        lattice = rough_lattice(labels, pairs, tol.n)
        holds = _keys_hold(tol, pairs, lattice)
    else:
        lattice = downset_lattice(labels, downsets, below)
        holds = _closed_forms_hold(tol, pairs, lattice)
    if not holds:
        _name_failure(tol, pairs, lattice)
    index = {pr: i for i, pr in enumerate(pairs)}
    full = (1 << tol.n) - 1
    # star reads only the upper set of a pair and plus only the lower one
    star_of = Memo(lambda up: approximations(tol, full & ~up))
    plus_of = Memo(lambda lo: approximations(tol, full & ~lo))
    # each map is one C-level pass of lookups over a column of halves
    lows, ups = zip(*pairs)
    get, complement = index.get, (lambda halves: map(full.__and__, map(invert, halves)))
    neg = tuple(map(get, zip(complement(ups), complement(lows))))
    star = tuple(map(get, map(star_of.__getitem__, ups)))
    plus = tuple(map(get, map(plus_of.__getitem__, lows)))
    if None in neg or None in star or None in plus:
        # name the first value outside the pair set, pair by pair
        for lo, up in pairs:
            for source in ((full & ~up, full & ~lo), star_of[up], plus_of[lo]):
                if source not in index:
                    raise FormulaMismatch("unary operation leaves the pair set", {"value": source})
    demorgan = doublep = None
    if covering is not None:
        demorgan = validate_demorgan(lattice, neg)
        doublep = compute_pseudocomplements(lattice)
        kleene, k_witness = is_kleene(demorgan)
        if not kleene:
            raise FormulaMismatch("irredundant rough algebra is not Kleene", {"witness": k_witness})
        if doublep.star != star or doublep.plus != plus:
            raise FormulaMismatch(
                "pseudocomplement formulas",
                {"star": doublep.star == star, "plus": doublep.plus == plus},
            )
        if not has_two_levels(lattice)[0]:
            raise FormulaMismatch("irredundant rough algebra is not regular", {})
    return RoughSetAlgebra(
        tol, pairs, index, lattice, neg, star, plus, covering, demorgan, doublep
    )


def build_rs(tol: Tolerance) -> RoughSetAlgebra:
    """Assemble the rough-set algebra of tol.

    A tolerance induced by an irredundant covering takes the downset route
    (join_closure_pairs), bounded only by the table cap; any other takes
    the powerset sweep, which raises BoundsExceeded past POWERSET_CAP
    points.  NotALattice (with a witness pair) is raised when the
    coordinatewise order has no meet or join for some pair, which genuinely
    happens for some tolerances, all of them on the powerset route.
    """
    cov = induced_irredundant_covering(tol)
    if cov is None:
        return _assemble(tol, _powerset_pairs(tol), None)
    pairs, downsets, below = join_closure_pairs(tol, cov)
    return _assemble(tol, pairs, cov, downsets, below)


def build_rs_spatial(tol: Tolerance) -> RoughSetAlgebra:
    """The downset route of build_rs alone: any tolerance that no
    irredundant covering induces raises ToleranceError before a 2^U sweep.
    represent.roundtrip_check builds its algebra this way."""
    cov = induced_irredundant_covering(tol)
    pairs, downsets, below = join_closure_pairs(tol, cov)
    return _assemble(tol, pairs, cov, downsets, below)


class RSJoinIrreducibles(NamedTuple):
    members: tuple       # pair values, sorted
    atoms: tuple         # pair values, sorted


def _join_irreducible_atoms(rs: RoughSetAlgebra, candidates):
    """The atoms among candidates, sorted pair values, when candidates are
    exactly the join-irreducibles of rs.lattice, else None.

    Decided on the pairs, with no join fold and no P-bit row: the join of
    a set S of pairs is (closure(∪lo), ∪up), the closed form that _assemble
    certified for every two pairs and that extends to any S, as closure is
    a closure operator.  With ids read bit-sliced over the codes (_codes,
    _Inclusion), candidates = J exactly when
      (a) no candidate f is the join of the pairs strictly below it, one
          within() per f and one column test per point of the codes;
      (b) every pair x is the join of the candidates below it: for each
          point of the codes, the OR of containing() of the candidates
          that hold it is the mask of the x whose candidate union holds
          it.  Its up columns must be the pairs' own.  Its lo columns
          pass when they are the pairs' own too, and else, turned back to
          one union per pair (transpose), each union must close to that
          pair's lo, with one closure per distinct union that is not
          already the lo (each lo is closed, as _assemble certified).
    (a) makes each candidate join-irreducible and not the bottom, and (b)
    makes the candidates join-dense, so each join-irreducible is the join
    of some of them and is one of them.  A candidate's lower cover is the
    join of the pairs strictly below it, so it is an atom when those are
    the bottom alone.
    """
    pairs, tol = rs.pairs, rs.tolerance
    ids = [rs.index.get(f) for f in candidates]
    if None in ids:
        return None
    U = tol.n
    codes = _codes(pairs, U)
    order, closure, low = _Inclusion(codes, 2 * U), Memo(tol.closure), (1 << U) - 1
    holders, bottom, atoms = order.holders, 1 << rs.lattice.bottom, []
    for f, i in zip(candidates, ids):
        strict = order.within(codes[i]) ^ 1 << i
        union = sum(1 << v for v, column in enumerate(holders) if column & strict)
        if union >> U == f[1] and closure[union & low] == f[0]:
            return None
        if strict == bottom:
            atoms.append(f)
    reached = [0] * (2 * U)
    for i in ids:
        above = order.containing(codes[i])
        for v in bits(codes[i]):
            reached[v] |= above
    if reached[U:] != holders[U:]:
        return None
    if reached[:U] != holders[:U]:
        unions = transpose(reached[:U], len(pairs))
        if any(union != lo and closure[union] != lo for (lo, _), union in zip(pairs, unions)):
            return None
    return atoms


def rs_join_irreducibles(rs: RoughSetAlgebra) -> RSJoinIrreducibles:
    """Join-irreducibles of the rough lattice from the block formulas,
    checked against the order.

    The check is _join_irreducible_atoms, an exact decision on the pairs:
    downset_lattice reads lattice.ji from the formula J itself, so
    comparing with lattice.ji would prove nothing.  Only a failed decision
    runs the order's route, posets.join_irreducibles on the covers of the
    built lattice, to name the mismatch of the members or the atoms; a
    route that finds none is a defect and raises too.
    """
    if rs.covering is None:
        raise ToleranceError("join-irreducible formulas need an irredundant covering")
    tol, cov = rs.tolerance, rs.covering
    formula = formula_join_irreducibles(tol, cov)
    atom_formula = sorted(
        {(b, b) for b in cov.blocks if b.bit_count() == 1}
        | {(0, b) for b in cov.blocks if b.bit_count() >= 2}
    )
    if _join_irreducible_atoms(rs, formula) == atom_formula:
        return RSJoinIrreducibles(tuple(formula), tuple(atom_formula))
    ji = join_irreducibles(rs.lattice)
    from_lattice = sorted(rs.pairs[j] for j in ji.members)
    if formula != from_lattice:
        raise FormulaMismatch(
            "join-irreducibles", {"formula": formula, "lattice": from_lattice}
        )
    lattice_atoms = sorted(rs.pairs[a] for a in ji.atoms)
    if atom_formula != lattice_atoms:
        raise FormulaMismatch("atoms", {"formula": atom_formula, "lattice": lattice_atoms})
    raise FormulaMismatch("the pair decision disagrees with the lattice's covers", {"formula": formula})


def rs_g_map(rs: RoughSetAlgebra) -> dict:
    """The self-dual map on the rough join-irreducibles, checked against its
    closed form: (empty,B) and the rough pair of B swap; singleton blocks
    give fixed points."""
    if rs.covering is None:
        raise ToleranceError("gmap formulas need an irredundant covering")
    g = compute_g(rs.demorgan)
    tol = rs.tolerance
    for b in rs.covering.blocks:
        pb = rs.index[approximations(tol, b)]
        if b.bit_count() >= 2:
            ab = rs.index[(0, b)]
            if g[ab] != pb or g[pb] != ab:
                raise FormulaMismatch("gmap on a block", {"block": b})
        else:
            if g[pb] != pb:
                raise FormulaMismatch("gmap on a singleton block", {"block": b})
    return g


class IsolatedBlockReport(NamedTuple):
    block: int
    isolated: bool       # the three readings of isolated_blocks agree on it


def isolated_blocks(rs: RoughSetAlgebra):
    """Per block, three equivalent readings of "behaves like a partition class"."""
    if rs.covering is None:
        raise ToleranceError("isolated-block analysis needs an irredundant covering")
    tol = rs.tolerance
    out = []
    for b in rs.covering.blocks:
        uniform = all(tol.nbr[y] == b for y in bits(b))
        pb = approximations(tol, b)
        exact = pb == (b, b)
        pid = rs.index[pb]
        atoms_below = [a for a in rs.ji.atoms if rs.lattice.leq(a, pid)]
        if b.bit_count() == 1:
            single = True
        else:
            single = atoms_below == [rs.index[(0, b)]]
        if not (uniform == exact == single):
            raise FormulaMismatch(
                "isolated-block conditions disagree",
                {"block": b, "uniform": uniform, "exact": exact, "single": single},
            )
        out.append(IsolatedBlockReport(b, uniform))
    return out


def powerset_images(tol: Tolerance):
    """The sorted images of lower and upper over the whole powerset: the two
    projections of the distinct pairs of tol.powerset."""
    pairs = tol.powerset[2]
    return sorted({lo for lo, _ in pairs}), sorted({up for _, up in pairs})


def powerset_image_report(tol: Tolerance, cov: Covering | None):
    """For irredundant-covering tolerances: both images are atomistic Boolean
    lattices with the block cores / blocks as atoms and the stated
    double-approximation complements.  cov is
    induced_irredundant_covering(tol); None raises ToleranceError.  The
    images are powerset_images, and every lower, upper, closure and
    interior of a subset X is read from the arrays of tol.powerset, as
    lower[X], upper[X], lower[upper[X]] and upper[lower[X]], with no
    Tolerance method called."""
    if cov is None:
        raise ToleranceError("image analysis needs an irredundant covering")
    lower, upper, _ = tol.powerset
    los, ups = powerset_images(tol)
    full = (1 << tol.n) - 1
    lo_atoms = sorted({lower[b] for b in cov.blocks})
    up_atoms = sorted(cov.blocks)
    lo_members, up_members = set(los), set(ups)
    for image, members, atoms, inner, outer in (
        (los, lo_members, lo_atoms, upper, lower),
        (ups, up_members, up_atoms, lower, upper),
    ):
        for a in atoms:
            if a not in members:
                raise FormulaMismatch("atom missing from image", {"atom": a})
        for s in image:
            span = [a for a in atoms if a & ~s == 0]
            joined = 0
            for a in span:
                joined |= a
            if outer[inner[joined]] != s:
                raise FormulaMismatch("image not atomistic", {"element": s})
    for s in los:
        comp = lower[full & ~s]
        if comp not in lo_members or s & comp or lower[upper[s | comp]] != lower[full]:
            raise FormulaMismatch("lower-image complement", {"element": s})
    for s in ups:
        comp = upper[full & ~s]
        if comp not in up_members or s | comp != upper[full] or upper[lower[s & comp]] != 0:
            raise FormulaMismatch("upper-image complement", {"element": s})
    return los, ups


def _reversal_witness(image, mapped, lattice, width: int):
    """The first (b, c) of a row-major scan of the sorted sets image, over
    width points, where c ⊆ b and mapped[b] <= mapped[c] in lattice
    disagree, or None; mapped lists lattice ids in the order of image.

    Bit-sliced: for each b, within(b) of an _Inclusion over image is the
    mask of the c ⊆ b, and containing(its code) of the order pulled back
    along mapped (pulled_back) the mask of the c with mapped[b] <=
    mapped[c], so the lowest bit of their XOR is the first bad c.
    """
    within = _Inclusion(image, width).within
    containing, codes = pulled_back(lattice, mapped).containing, lattice.meet_codes
    for b, m in zip(image, mapped):
        diff = within(b) ^ containing(codes[m])
        if diff:
            return b, image[(diff & -diff).bit_length() - 1]
    return None


def skeleton_isomorphism_report(rs: RoughSetAlgebra):
    """The star skeleton mirrors the upper image under reversed inclusion via
    B -> rough pair of B-complement; dually for the plus skeleton and the
    lower image.

    The images are the projections of the rough pairs, which are the
    (lower X, upper X) of every X; powerset_image_report sweeps the powerset
    for them independently.  The map's values are the algebra's own star
    and plus: _assemble read the star of a pair from its upper set and the
    plus from its lower one, as the rough pair of the complement, and
    checked both against J.  A map that reflects the order is one-to-one,
    so the image test only names that failure first."""
    if rs.covering is None:
        raise ToleranceError("skeleton analysis needs an irredundant covering")
    star_of = dict(zip((up for _, up in rs.pairs), rs.star))
    plus_of = dict(zip((lo for lo, _ in rs.pairs), rs.plus))
    for image_of, name in ((star_of, "star"), (plus_of, "plus")):
        image = sorted(image_of)
        mapped = [image_of[b] for b in image]
        if len(set(mapped)) != len(image):
            raise FormulaMismatch(f"{name} skeleton image", {})
        witness = _reversal_witness(image, mapped, rs.lattice, rs.tolerance.n)
        if witness is not None:
            raise FormulaMismatch(f"{name} skeleton order", {"pair": witness})
    return {"star": len(star_of), "plus": len(plus_of)}


# The checks that verify and the covering sweep both run on a built algebra
# whose tolerance an irredundant covering induces, by output name.  Each
# looks its function up in this module when it runs, so a wrapper or a
# patch installed here is what both outputs run.  joinIrreducibleFormulas
# decides on the pairs and reads the lattice's covers only after a failure.
# The two powerset checks share the tolerance's one sweep and its one list
# of distinct pairs, rs.tolerance.powerset.
RS_CHECKS = (
    ("joinIrreducibleFormulas", lambda rs: rs_join_irreducibles(rs) is not None),
    ("gmapClosedForm", lambda rs: rs_g_map(rs) is not None),
    ("skeletonIsomorphisms", lambda rs: skeleton_isomorphism_report(rs) is not None),
    ("imageLatticesAtomisticBoolean",
     lambda rs: powerset_image_report(rs.tolerance, rs.covering) is not None),
    ("dualRouteEqual", lambda rs: list(rs.pairs) == _powerset_pairs(rs.tolerance)),
)


def run_check(check, *args):
    """Run one check as (value, error): its value and None when it returns,
    whose truth is the verdict, and (None, "Type: message") when it raises,
    so that one failing check never stops the others."""
    try:
        return check(*args), None
    except Exception as exc:  # noqa: BLE001 - a failing check is reported, not raised
        return None, f"{type(exc).__name__}: {exc}"
