"""De Morgan and Kleene structure on finite distributive lattices.

The negation is an order-reversing involution.  On the join-irreducibles it
induces the self-dual map  gmap(j) = meet of {x | x not<= neg(j)},  an
antitone involution of the join-irreducible poset from which the negation
can be rebuilt:  neg(x) = join of {j | gmap(j) not<= x}.

A jposet's algebra is the downset lattice of its join-irreducibles
(posets.downset_lattice), built with no pair lookups, and its negation is
read from g on J with no fold: neg(D) = J ∖ g(D), g(D) a union over the
points of D (posets.point_unions).  On every lattice
antitonicity of neg is one subset test per covering pair
(posets.codes_within); only when that fails is the order pulled back along
neg (posets.pulled_back), bit-sliced, to name the first witness.  On D(J)
g(j) is the intersection of the ↓p of J outside neg(j).
"""

from __future__ import annotations

from functools import reduce
from operator import and_

from .posets import (
    Lattice,
    Poset,
    bits,
    codes_within,
    downset_lattice,
    first_bad_triple,
    first_not_below,
    point_unions,
    pulled_back,
)


class DeMorganError(Exception):
    pass


class NotDistributive(DeMorganError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"lattice is not distributive, witness triple {witness}")


class NotInvolution(DeMorganError):
    def __init__(self, x):
        self.witness = x
        super().__init__(f"neg(neg({x})) != {x}")


class NotAntitone(DeMorganError):
    def __init__(self, x, y):
        self.witness = (x, y)
        super().__init__(f"{x} <= {y} but neg({y}) <= neg({x}) fails")


class GNotJoinIrreducible(DeMorganError):
    """The induced self-dual map left the join-irreducibles: broken input."""

    def __init__(self, j, value):
        self.witness = (j, value)
        super().__init__(f"gmap({j}) = {value} is not join-irreducible")


class GViolatesJ1J2J3(DeMorganError):
    def __init__(self, law, witness):
        self.law = law
        self.witness = witness
        super().__init__(f"gmap violates ({law}) at {witness}")


class DeMorgan:
    """A validated De Morgan structure: distributive lattice + involution."""

    __slots__ = ("lattice", "neg")

    def __init__(self, lattice: Lattice, neg):
        self.lattice = lattice
        self.neg = tuple(neg)

    @property
    def n(self):
        return self.lattice.n


def validate_demorgan(lat: Lattice, neg) -> DeMorgan:
    """Check distributivity, involution and antitonicity; raise at the first failure.

    An antitone involution is a dual order automorphism, which maps joins to
    meets and meets to joins, so the De Morgan laws need no pair scan.

    Antitonicity, x <= y exactly when neg(y) <= neg(x), needs only its
    forward half once neg is an involution (apply it to neg(y) <= neg(x)).
    That half is decided on the covering pairs (codes_within); only a
    failure there runs the row scan of the pulled-back order, which names
    the first witness.
    """
    if not lat.distributive:
        raise NotDistributive(first_bad_triple(lat))
    n = lat.n
    neg = tuple(neg)
    if len(neg) != n or any(not 0 <= v < n for v in neg):
        raise DeMorganError("neg must map element ids to element ids")
    for x in range(n):
        if neg[neg[x]] != x:
            raise NotInvolution(x)
    codes = lat.meet_codes
    lows, highs = lat.covers
    if codes_within(highs, lows, [codes[v] for v in neg]):
        return DeMorgan(lat, neg)
    # antitonicity at x says {y | neg(y) <= neg(x)} is exactly ↑x; the order
    # pulled back along neg gives that set in one within(), and the lowest
    # bit of the difference is the first failing y
    order = pulled_back(lat, neg)
    for x, up in enumerate(lat.poset.above):
        diff = up ^ order.within(codes[neg[x]])
        if diff:
            raise NotAntitone(x, (diff & -diff).bit_length() - 1)
    return DeMorgan(lat, neg)


def is_kleene(dm: DeMorgan):
    """Whether x ∧ neg(x) <= y ∨ neg(y) for all pairs; first witness otherwise.

    The law holds at x iff every y ∨ neg(y) lies in ↑(x ∧ neg(x)), so the
    y ∨ neg(y) values are gathered once into a mask and each x is one mask
    test (first_not_below): O(n) instead of n² order tests.
    """
    lat, neg = dm.lattice, dm.neg
    witness = first_not_below(
        lat, [lat.meet(x, neg[x]) for x in range(lat.n)],
        [lat.join(y, neg[y]) for y in range(lat.n)],
    )
    return witness is None, witness


def compute_g(dm: DeMorgan) -> dict:
    """gmap(j) = the least element not below neg(j), for each j of lattice.ji,
    checked for J1 and J2.  Each caller enforces J3 (j comparable with
    gmap(j)) its own way: build_similarity's split into atoms and upper
    join-irreducibles, rs_g_map's block closed form, and the sweep that J3
    holds exactly when is_kleene does.

    The lattice must be D(J) (lat.points), as every distributive lattice
    of Lattice.from_poset and downset_lattice is: a downset lies outside ↓D
    exactly when it holds some p ∉ D, and then holds ↓p, so the least one
    is ∩{↓p : p ∉ D}: one AND per point outside the code of neg(j), then
    one index lookup.
    """
    lat, neg = dm.lattice, dm.neg
    ji, points, codes = lat.ji, lat.points, lat.meet_codes
    full = (1 << len(points)) - 1
    least = [lat.meets[reduce(and_, (points[p] for p in bits(full & ~codes[neg[j]])), full)]
             for j in ji.members]
    g = {}
    for j, val in zip(ji.members, least):
        if val not in ji:
            raise GNotJoinIrreducible(j, val)
        g[j] = val
    _check_j1_j2(codes, ji.members, g)
    return g


def neg_from_g(lat: Lattice, g: dict):
    """Rebuild the negation: neg(x) = join of {j join-irreducible | gmap(j) not<= x}.

    The result is not validated: callers compare it with a negation that
    validate_demorgan has already accepted.
    """
    return tuple(lat.join_all(j for j in lat.ji.members if not lat.leq(g[j], x))
                 for x in range(lat.n))


def _check_j1_j2(codes, members, g: dict):
    """Raise at the first x of members, in order, where g(g(x)) != x (J2)
    or some y of members with x <= y has g(y) not <= g(x) (J1), in the
    order where x <= y exactly when codes[x] ⊆ codes[y]."""
    for x in members:
        if g.get(g.get(x, -1), -1) != x:
            raise GViolatesJ1J2J3("J2", x)
        up, image = codes[x], codes[g[x]]
        for y in members:
            if not up & ~codes[y] and codes[g[y]] & ~image:
                raise GViolatesJ1J2J3("J1", (x, y))


def build_kleene_from_jposet(jposet: Poset, g: dict) -> DeMorgan:
    """Materialize the distributive lattice of downsets of a poset of
    join-irreducibles, carrying an antitone involution g of that poset, and
    install the negation it determines.  g must also satisfy J3: each x is
    comparable with g(x), which makes the result a Kleene algebra.

    Element labels: "0" for the empty downset alone, else the labels of
    its maxima, d minus the union of ↓p ∖ {p} over its points p, joined by
    "|" (a point label may be "").  The downset walk raises
    TableCapExceeded past the table cap, before any order is built.
    downset_lattice proves the downsets all of D(J) with no pair lookups
    and reads its join-irreducibles from J.

    The negation is the J formula neg(D) = {j : g(j) ∉ D} = J ∖ g(D), a
    downset because g is an antitone involution: one lookup in the index
    map per downset, no join fold.  validate_demorgan still checks it.
    """
    n, below = jposet.n, jposet.below
    _check_j1_j2(below, range(n), g)
    for x in range(n):
        if not (jposet.leq(x, g[x]) or jposet.leq(g[x], x)):
            raise GViolatesJ1J2J3("J3", x)
    downsets = jposet.downsets()
    downsets.sort(key=lambda d: (d.bit_count(), d))
    strict = point_unions(downsets, [b ^ 1 << p for p, b in enumerate(below)])
    labels = ["|".join(map(jposet.labels.__getitem__, bits(d & ~s))) if d else "0"
              for d, s in zip(downsets, strict)]
    lat = downset_lattice(labels, downsets, below)
    full = (1 << n) - 1
    images = point_unions(downsets, [1 << g[j] for j in range(n)])
    return validate_demorgan(lat, [lat.meets[full ^ image] for image in images])


def antitone_involutions(lat: Lattice):
    """All order-reversing involutions of a lattice, by backtracking.

    Enumeration order is deterministic (ascending element ids).  Used by the
    sweep harnesses to list every De Morgan structure a small lattice admits.
    """
    n = lat.n
    p = lat.poset
    neg = [-1] * n

    def consistent(x, y):
        for u in range(n):
            v = neg[u]
            if v < 0:
                continue
            if p.leq(x, u) != p.leq(v, y):
                return False
            if p.leq(u, x) != p.leq(y, v):
                return False
        return True

    def place(x):
        while x < n and neg[x] >= 0:
            x += 1
        if x == n:
            yield tuple(neg)
            return
        for y in range(n):
            if (neg[y] >= 0 and y != x) or not consistent(x, y):
                continue
            neg[x], neg[y] = y, x
            yield from place(x + 1)
            neg[x] = -1
            if y != x:
                neg[y] = -1

    yield from place(0)
