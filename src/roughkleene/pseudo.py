"""Pseudocomplements, dual pseudocomplements, and the regularity criteria.

star(x) is the greatest z with x ∧ z = 0; plus(x) the least z with x ∨ z = 1.
A D(J) lattice, as every distributive lattice the package builds outside
inclusion_lattice is, reads both from its join-irreducibles, and any other
lattice folds them (compute_pseudocomplements).  Regularity of a
distributive double p-structure is decided three independent ways
(determination by star/plus pairs, prime-filter chains, two-level
join-irreducibles) and the verdicts are required to agree (is_regular).
That comparison, and demorgan_pseudo_report's interplay laws, run on check
input, in the lattice sweep and in the tests; represent and verify read
regularity from the two levels of J alone (posets.has_two_levels) and the
Kleene law from demorgan.is_kleene.
"""

from __future__ import annotations

from typing import NamedTuple

from .demorgan import DeMorgan, is_kleene
from .posets import (
    Lattice,
    bits,
    first_not_below,
    codes_within,
    has_two_levels,
    is_join_prime,
    mask_of,
    point_unions,
    transpose,
)


class PseudoError(Exception):
    pass


class NoPseudocomplement(PseudoError):
    def __init__(self, x, dual=False):
        self.witness = x
        kind = "dual pseudocomplement" if dual else "pseudocomplement"
        super().__init__(f"element {x} has no {kind}")


class CriteriaDisagree(PseudoError):
    """The independent regularity criteria returned different verdicts: a bug."""

    def __init__(self, details):
        self.details = details
        super().__init__(f"regularity criteria disagree: {details}")


class DoubleP:
    """A lattice with star/plus maps.  Whether the deeper theory applies is
    the lattice's own verdict, lattice.distributive."""

    __slots__ = ("lattice", "star", "plus")

    def __init__(self, lattice: Lattice, star, plus):
        self.lattice = lattice
        self.star = tuple(star)
        self.plus = tuple(plus)


def compute_pseudocomplements(lat: Lattice) -> DoubleP:
    """Star and plus for every element, then check laws (i)-(v).

    A lattice built as D(J) (lat.points), which every distributive
    lattice of Lattice.from_poset and downset_lattice is, reads both maps
    from J (_j_pseudocomplements); any other lattice folds them
    (_fold_pseudocomplements), which raises NoPseudocomplement when a map
    does not exist.  Non-distributive lattices are accepted when both maps
    exist; the regularity machinery refuses them by lat.distributive.
    """
    route = _fold_pseudocomplements if lat.points is None else _j_pseudocomplements
    dp = DoubleP(lat, *route(lat))
    _check_p_laws(dp)
    return dp


def _j_pseudocomplements(lat: Lattice):
    """Star and plus of a lattice built as D(J) (lat.points), read from J.

    In D(J) the pseudocomplement of a downset D is J ∖ ↑D, its dual
    ↓(J ∖ D) (Davey & Priestley, ch. 5).  ↑D is the union of the ↑a over
    the minimal members a of D, which are minimal in J, and ↓(J ∖ D) the
    union of the ↓m over the maximal members m of J outside D.  The code
    of x is its downset S_x, ↓p is the point mask of p and {S_x: x} is
    the index map, so each map is one posets.point_unions over the codes
    cut to the minimal, or to the maximal, points of J: one OR per minimal
    point in S_x, or per maximal point outside it, and one lookup per
    element, with no fold and no P-bit row.
    """
    down, codes, element = lat.points, lat.meet_codes, lat.meets
    jmask = (1 << len(down)) - 1
    up = transpose(down, len(down))
    minimal = mask_of(p for p, d in enumerate(down) if d == 1 << p)
    maximal = mask_of(p for p, u in enumerate(up) if u == 1 << p)
    meets = point_unions([s & minimal for s in codes], up)
    joins = point_unions([maximal & ~s for s in codes], down)
    return [element[jmask & ~m] for m in meets], [element[j] for j in joins]


def _fold_pseudocomplements(lat: Lattice):
    """Star and plus by folds, for any lattice; NoPseudocomplement at the
    first x whose star or plus does not exist.

    star(x) is the join of {z : x ∧ z = 0}, when that join is itself in the
    set.  Each z != 0 lies above an atom, and x ∧ z != 0 iff some atom lies
    below both, so the set is L minus the upsets of the atoms below x: a
    mask, folded with Lattice.join_of, with no scan of the pairs.
    Dually, {z : x ∨ z = 1} is L minus the downsets of the coatoms above x,
    folded with Lattice.meet_of.
    """
    bottom, top = lat.bottom, lat.top
    below, above, atoms = lat.poset.below, lat.poset.above, lat.ji.atoms
    full = (1 << lat.n) - 1
    coatoms = [c for c in range(lat.n) if above[c] == 1 << c | 1 << top and c != top]
    star, plus = [], []
    for x in range(lat.n):
        meets = 0
        for a in atoms:
            if below[x] >> a & 1:
                meets |= above[a]
        cand = lat.join_of(full & ~meets)
        if lat.meet(x, cand) != bottom:
            raise NoPseudocomplement(x)
        star.append(cand)
        joins = 0
        for c in coatoms:
            if above[x] >> c & 1:
                joins |= below[c]
        cand = lat.meet_of(full & ~joins)
        if lat.join(x, cand) != top:
            raise NoPseudocomplement(x, dual=True)
        plus.append(cand)
    return star, plus


def _check_p_laws(dp: DoubleP):
    """Raise PseudoError at the first failing law, in the order of a scan of
    a, then b, over all pairs.

    Both pair laws follow, with no distributivity, from two premises tested
    per element: star is antitone and a <= a**.  For z = a* ^ b*, a <= a** <=
    z* and b <= z*, so a v b <= z* and z <= z** <= (a v b)*; antitonicity
    gives (a v b)* <= z and a* v b* <= (a ^ b)*.  So the pairs are scanned
    only when a premise fails somewhere, and then row by row, as the full
    scan runs, until the first failure: at the latest the first row where a
    premise fails.  When every law holds, that is decided in C-level
    passes with no scan: a <= a** and a++ <= a are subset tests of codes
    (posets.codes_within), and antitonicity is one subset test per covering
    pair (_star_antitone).
    """
    lat, star, plus = dp.lattice, dp.star, dp.plus
    n, codes, leq = lat.n, lat.meet_codes, lat.leq
    star2, plus2 = [star[s] for s in star], [plus[p] for p in plus]
    premises = codes_within(range(n), star2, codes) and _star_antitone(lat, star)
    if (premises and tuple(map(star.__getitem__, star2)) == star
            and tuple(map(plus.__getitem__, plus2)) == plus and codes_within(plus2, range(n), codes)):
        return
    for a in range(n):
        sa = star[a]
        if star[star[sa]] != sa:
            raise PseudoError(f"a* != a*** at {a}")
        if not leq(a, star[sa]):
            raise PseudoError(f"a <= a** fails at {a}")
        if plus[plus[plus[a]]] != plus[a]:
            raise PseudoError(f"a+ != a+++ at {a}")
        if not leq(plus[plus[a]], a):
            raise PseudoError(f"a++ <= a fails at {a}")
        if premises:
            continue
        below = lat.poset.below
        for b in range(lat.n):
            sb = star[b]
            if below[b] >> a & 1 and not below[sa] >> sb & 1:
                raise PseudoError(f"star not antitone at ({a},{b})")
            if star[lat.join(a, b)] != lat.meet(sa, sb):
                raise PseudoError(f"(a v b)* != a* ^ b* at ({a},{b})")
            if not below[star[lat.meet(a, b)]] >> lat.join(sa, sb) & 1:
                raise PseudoError(f"(a ^ b)* >= a* v b* fails at ({a},{b})")


def _star_antitone(lat: Lattice, star) -> bool:
    """Whether a <= b implies star[b] <= star[a], on the covering pairs."""
    lows, highs = lat.covers
    codes = lat.meet_codes
    return codes_within(highs, lows, [codes[s] for s in star])


class MDNReport(NamedTuple):
    m: bool
    m_witness: tuple | None
    d: bool
    d_witness: tuple | None
    n: bool | None
    n_witness: tuple | None


def check_M_D_N(dp: DoubleP, neg=None) -> MDNReport:
    """Determination (M), the x ∧ x+ <= y ∨ y* law (D), and normality (N).

    On distributive input (M) and (D) must agree; when (N) holds the sandwich
    x* <= neg(x) <= x+ is also enforced.
    """
    lat, star, plus = dp.lattice, dp.star, dp.plus
    below = lat.poset.below
    # (M): the lexicographically first x < y sharing (x*, x+) is the repeated
    # key with the smallest first index x, paired with its second index
    first = {}
    m_witness = None
    for y, key in enumerate(zip(star, plus)):
        x = first.setdefault(key, y)
        if x != y and (m_witness is None or x < m_witness[0]):
            m_witness = (x, y)
    d_witness = first_not_below(
        lat, [lat.meet(x, plus[x]) for x in range(lat.n)],
        [lat.join(y, star[y]) for y in range(lat.n)],
    )
    if lat.distributive and (m_witness is None) != (d_witness is None):
        raise CriteriaDisagree({"M": m_witness is None, "D": d_witness is None})
    n_ok, n_witness = None, None
    if neg is not None:
        n_ok = True
        for x in range(lat.n):
            if not below[neg[x]] >> star[x] & 1:
                n_ok, n_witness = False, (x,)
                break
        if n_ok:
            for x in range(lat.n):
                if not below[plus[x]] >> neg[x] & 1:
                    raise PseudoError(f"normal but neg({x}) <= {x}+ fails")
    return MDNReport(m_witness is None, m_witness, d_witness is None, d_witness, n_ok, n_witness)


def heyting_implications(dp: DoubleP):
    """Relative pseudocomplement tables: imp[a][b] the greatest x with
    a ∧ x <= b, and dimp[a][b] the least x with a ∨ x >= b.

    When (M) holds both are cross-checked against the closed forms that
    regular double p-structures satisfy.
    """
    lat = dp.lattice
    if not lat.distributive:
        raise PseudoError("implications need a distributive lattice")
    n = lat.n
    imp = [[0] * n for _ in range(n)]
    dimp = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            x = lat.join_all(z for z in range(n) if lat.leq(lat.meet(a, z), b))
            if not lat.leq(lat.meet(a, x), b):
                raise PseudoError(f"no relative pseudocomplement at ({a},{b})")
            imp[a][b] = x
            y = lat.meet_all(z for z in range(n) if lat.leq(b, lat.join(a, z)))
            if not lat.leq(b, lat.join(a, y)):
                raise PseudoError(f"no dual relative pseudocomplement at ({a},{b})")
            dimp[a][b] = y
    if check_M_D_N(dp).m:
        star, plus = dp.star, dp.plus
        meet, join = lat.meet, lat.join
        for a in range(n):
            for b in range(n):
                # (a* v b**)** ^ [(a v a*)+ v a* v b v b*]
                core = join(star[a], star[star[b]])
                closed = meet(star[star[core]],
                              join(join(join(plus[join(a, star[a])], star[a]), b), star[b]))
                if closed != imp[a][b]:
                    raise PseudoError(f"closed form for imp disagrees at ({a},{b})")
                # (a+ ^ b++)++ v [(a ^ a+)* ^ a+ ^ b ^ b+]
                dcore = meet(plus[a], plus[plus[b]])
                dclosed = join(plus[plus[dcore]],
                               meet(meet(meet(star[meet(a, plus[a])], plus[a]), b), plus[b]))
                if dclosed != dimp[a][b]:
                    raise PseudoError(f"closed form for dimp disagrees at ({a},{b})")
    return tuple(tuple(r) for r in imp), tuple(tuple(r) for r in dimp)


class Skeleton(NamedTuple):
    """Image of star (or plus): a Boolean algebra inside the lattice."""

    members: tuple          # ascending element ids
    is_dual: bool           # False for star image, True for plus image


def skeletons(dp: DoubleP):
    """Extract both skeletons and verify they are Boolean.

    In the star skeleton the join is (a* ∧ b*)*; meet is inherited.  Dually
    for the plus skeleton.
    """
    lat, star, plus = dp.lattice, dp.star, dp.plus
    if not lat.distributive:
        raise PseudoError("skeletons need a distributive lattice")
    s_members = tuple(sorted(set(star)))
    p_members = tuple(sorted(set(plus)))
    for a in s_members:
        if star[star[a]] != a:
            raise PseudoError(f"star image not closed at {a}")
        if lat.meet(a, star[a]) != lat.bottom:
            raise PseudoError(f"skeleton complement fails meet at {a}")
        if star[lat.meet(star[a], star[star[a]])] != lat.top:
            raise PseudoError(f"skeleton complement fails join at {a}")
        for b in s_members:
            if lat.meet(a, b) not in s_members:
                raise PseudoError(f"star skeleton not meet-closed at ({a},{b})")
            if star[lat.meet(star[a], star[b])] not in s_members:
                raise PseudoError(f"star skeleton join leaves skeleton at ({a},{b})")
    for a in p_members:
        if plus[plus[a]] != a:
            raise PseudoError(f"plus image not closed at {a}")
        if lat.join(a, plus[a]) != lat.top:
            raise PseudoError(f"dual skeleton complement fails join at {a}")
        if plus[lat.join(plus[a], plus[plus[a]])] != lat.bottom:
            raise PseudoError(f"dual skeleton complement fails meet at {a}")
        for b in p_members:
            if lat.join(a, b) not in p_members:
                raise PseudoError(f"plus skeleton not join-closed at ({a},{b})")
            if plus[lat.join(plus[a], plus[b])] not in p_members:
                raise PseudoError(f"plus skeleton meet leaves skeleton at ({a},{b})")
    return Skeleton(s_members, False), Skeleton(p_members, True)


class PrimeFilterFamily(NamedTuple):
    """All prime filters of a finite lattice, as up-set masks.

    Every filter of a finite lattice is principal, so the scan runs over
    the principal filters [x), x != bottom.  [x) is prime iff its
    complement L∖[x), a downset, is closed under ∨, and a downset of a
    finite lattice is closed under ∨ iff it contains its own join.  So each
    test is ⋁(L∖[x)) ∉ [x): one join fold per x, not a scan
    of every pair outside [x).  The lemma needs no distributivity, so this
    stays a criterion independent of the join-irreducibles.
    """

    generators: tuple       # x with [x) prime, ascending
    filters: tuple          # up-set masks, aligned with generators
    maximal: tuple          # flags: the filter is a maximal proper filter
    chain_max: int          # length of the longest chain under inclusion


def prime_filters(lat: Lattice) -> PrimeFilterFamily:
    """The prime filters of lat; see PrimeFilterFamily for the test.  [x) is
    a maximal proper filter iff x is an atom, that is ↓x = {x, bottom}."""
    p = lat.poset
    # [bottom) is all of L, not proper; is_join_prime rejects it, which also
    # leaves the one-element lattice without proper filters
    gens = [x for x in range(lat.n) if is_join_prime(lat, x)]
    filters = tuple(p.above[x] for x in gens)
    maximal = tuple(p.below[x] == 1 << x | 1 << lat.bottom for x in gens)
    # longest chain: filters ordered by inclusion mirror generators ordered
    # by >=; each generator strictly above x comes first in the sort
    gmask = mask_of(gens)
    depth = {}
    chain = 0
    for x in sorted(gens, key=lambda v: p.above[v].bit_count()):
        depth[x] = 1 + max(map(depth.__getitem__, bits(p.above[x] & gmask & ~(1 << x))), default=0)
        chain = max(chain, depth[x])
    return PrimeFilterFamily(tuple(gens), filters, maximal, chain)


class RegularityReport(NamedTuple):
    m: bool
    d: bool
    m_witness: tuple | None
    d_witness: tuple | None
    prime_chain_max: int
    two_levels: bool
    two_levels_witness: tuple | None
    regular: bool
    n: bool | None = None
    n_witness: tuple | None = None
    k: bool | None = None
    k_witness: tuple | None = None


def is_regular(dp: DoubleP, neg=None) -> RegularityReport:
    """Decide regularity three ways and insist the verdicts agree.

    Criteria: (M); no prime-filter chain of three; the join-irreducibles
    have at most two levels.  neg, when given, adds the (N) verdict.
    """
    if not dp.lattice.distributive:
        raise PseudoError("regularity is only defined for distributive input")
    mdn = check_M_D_N(dp, neg)
    family = prime_filters(dp.lattice)
    two, witness = has_two_levels(dp.lattice)
    verdicts = {
        "M": mdn.m,
        "D": mdn.d,
        "primeChain": family.chain_max <= 2,
        "twoLevels": two,
    }
    if len(set(verdicts.values())) != 1:
        raise CriteriaDisagree(verdicts)
    # chains P < Q of prime filters must end in a maximal filter exactly
    # when no chain of three exists: [x) ⊂ [y) for generators x != y is x
    # in [y), so a filter that is not maximal may hold no other generator
    gmask = mask_of(family.generators)
    fact_b = not any(
        up & gmask & ~(1 << y)
        for y, up, maximal in zip(family.generators, family.filters, family.maximal) if not maximal
    )
    if fact_b != (family.chain_max <= 2):
        raise CriteriaDisagree({"chainMax": family.chain_max, "properContainmentMaximal": fact_b})
    return RegularityReport(
        m=mdn.m,
        d=mdn.d,
        m_witness=mdn.m_witness,
        d_witness=mdn.d_witness,
        prime_chain_max=family.chain_max,
        two_levels=two,
        two_levels_witness=witness,
        regular=mdn.m,
        n=mdn.n,
        n_witness=mdn.n_witness,
    )


def demorgan_pseudo_report(dm: DeMorgan, dp: DoubleP):
    """Full diagnostic for a pseudocomplemented De Morgan structure.

    Also enforces the interplay laws: neg swaps star and plus, and for
    regular structures (K) holds exactly when (N) does.  The (K) verdict
    and its first witness are returned in k and k_witness.
    """
    lat, neg = dm.lattice, dm.neg
    for x in range(lat.n):
        if neg[dp.star[x]] != dp.plus[neg[x]]:
            raise PseudoError(f"neg(x*) != (neg x)+ at {x}")
        if neg[dp.plus[x]] != dp.star[neg[x]]:
            raise PseudoError(f"neg(x+) != (neg x)* at {x}")
    report = is_regular(dp, neg)
    kleene, k_witness = is_kleene(dm)
    if report.regular and kleene != report.n:
        raise CriteriaDisagree({"K": kleene, "N": report.n, "regular": True})
    return report._replace(k=kleene, k_witness=k_witness)
