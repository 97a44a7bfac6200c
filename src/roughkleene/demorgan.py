"""De Morgan and Kleene structure on finite distributive lattices.

The negation is an order-reversing involution.  On the join-irreducibles it
induces the self-dual map  gmap(j) = meet of {x | x not<= neg(j)},  an
antitone involution of the join-irreducible poset from which the negation
can be rebuilt:  neg(x) = join of {j | gmap(j) not<= x}.
"""

from __future__ import annotations

from .posets import (
    JoinIrreducibles,
    Lattice,
    Poset,
    bits,
    first_not_below,
    inclusion_lattice,
    is_distributive,
    join_irreducibles,
    mask_of,
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
    """
    dist, witness = is_distributive(lat)
    if not dist:
        raise NotDistributive(witness)
    n = lat.n
    neg = tuple(neg)
    if len(neg) != n or any(not 0 <= v < n for v in neg):
        raise DeMorganError("neg must map element ids to element ids")
    for x in range(n):
        if neg[neg[x]] != x:
            raise NotInvolution(x)
    # an involution is a bijection, so {y | neg(y) <= neg(x)} is the
    # neg-image of ↓neg(x); antitonicity at x says that image is exactly ↑x,
    # and the lowest bit of the difference is the first failing y
    below, above = lat.poset.below, lat.poset.above
    for x in range(n):
        diff = above[x] ^ mask_of(neg[z] for z in bits(below[neg[x]]))
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
        lat, [lat.meet[x][neg[x]] for x in range(lat.n)],
        [lat.join[y][neg[y]] for y in range(lat.n)],
    )
    return witness is None, witness


def compute_g(dm: DeMorgan, ji: JoinIrreducibles) -> dict:
    """gmap(j) = the least element not below neg(j), for each join-irreducible j:
    the meet (Lattice.meet_of) of the mask outside ↓neg(j)."""
    lat, neg = dm.lattice, dm.neg
    p = lat.poset
    full = (1 << lat.n) - 1
    g = {}
    for j in ji.members:
        val = lat.meet_of(full & ~p.below[neg[j]])
        if val not in ji:
            raise GNotJoinIrreducible(j, val)
        g[j] = val
    for j in ji.members:
        if g[g[j]] != j:
            raise GViolatesJ1J2J3("J2", j)
        for k in ji.members:
            if p.leq(j, k) and not p.leq(g[k], g[j]):
                raise GViolatesJ1J2J3("J1", (j, k))
    if is_kleene(dm)[0]:
        for j in ji.members:
            if not (p.leq(g[j], j) or p.leq(j, g[j])):
                raise GViolatesJ1J2J3("J3", j)
    return g


def neg_from_g(lat: Lattice, ji: JoinIrreducibles, g: dict):
    """Rebuild the negation: neg(x) = join of {j join-irreducible | gmap(j) not<= x}."""
    p = lat.poset
    neg = []
    for x in range(lat.n):
        neg.append(lat.join_all(j for j in ji.members if not p.leq(g[j], x)))
    neg = tuple(neg)
    for x in range(lat.n):
        if neg[neg[x]] != x:
            raise NotInvolution(x)
    return neg


def _check_g_on_poset(jposet: Poset, g: dict, require_comparable: bool):
    for x in range(jposet.n):
        if g.get(g.get(x, -1), -1) != x:
            raise GViolatesJ1J2J3("J2", x)
        for y in range(jposet.n):
            if jposet.leq(x, y) and not jposet.leq(g[y], g[x]):
                raise GViolatesJ1J2J3("J1", (x, y))
    if require_comparable:
        for x in range(jposet.n):
            if not (jposet.leq(x, g[x]) or jposet.leq(g[x], x)):
                raise GViolatesJ1J2J3("J3", x)


def _downset_label(jposet: Poset, d: int) -> str:
    if d == 0:
        return "0"
    maxima = [i for i in bits(d) if jposet.above[i] & d == 1 << i]
    return "|".join(jposet.labels[i] for i in maxima)


def build_kleene_from_jposet(jposet: Poset, g: dict, require_kleene: bool = True) -> DeMorgan:
    """Materialize the distributive lattice of downsets of a poset of
    join-irreducibles, carrying an antitone involution g of that poset, and
    install the negation it determines.

    Element labels: "0" for the empty downset, the generator's label for a
    principal downset, otherwise the labels of the downset's maximal
    elements joined by "|".  The downset walk raises TableCapExceeded once
    there are more downsets than the table cap, before any order or table
    is built.  Downsets are ordered by inclusion, so the order and the
    tables come from inclusion_lattice.
    """
    _check_g_on_poset(jposet, g, require_kleene)
    downsets = jposet.downsets()
    downsets.sort(key=lambda d: (d.bit_count(), d))
    index = {d: i for i, d in enumerate(downsets)}
    labels = [_downset_label(jposet, d) for d in downsets]
    lat = inclusion_lattice(labels, downsets, jposet.n)[0]
    ji = join_irreducibles(lat)
    principal = {index[jposet.below[x]]: x for x in range(jposet.n)}
    if sorted(principal) != list(ji.members):
        raise DeMorganError("downset lattice does not reproduce the input poset")
    g_l = {jid: index[jposet.below[g[principal[jid]]]] for jid in ji.members}
    neg = neg_from_g(lat, ji, g_l)
    return validate_demorgan(lat, neg)


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
