"""Pseudocomplements, dual pseudocomplements, and the regularity criteria.

star(x) is the greatest z with x ∧ z = 0; plus(x) the least z with x ∨ z = 1.
Regularity of a distributive double p-structure is decided three independent
ways (determination by star/plus pairs, prime-filter chains, two-level
join-irreducibles) and the verdicts are required to agree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .demorgan import DeMorgan
from .posets import (
    JoinIrreducibles,
    Lattice,
    bits,
    first_not_below,
    has_two_levels,
    is_distributive,
    is_join_prime,
    mask_of,
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
    """A lattice with star/plus maps; distributive flag gates the deeper theory."""

    __slots__ = ("lattice", "star", "plus", "distributive")

    def __init__(self, lattice: Lattice, star, plus, distributive: bool):
        self.lattice = lattice
        self.star = tuple(star)
        self.plus = tuple(plus)
        self.distributive = distributive


def compute_pseudocomplements(lat: Lattice) -> DoubleP:
    """Star and plus for every element, then check laws (i)-(v).

    star(x) is the join of {z : x ∧ z = 0}, when that join is itself in the
    set.  Each z != 0 lies above an atom, and x ∧ z != 0 iff some atom lies
    below both, so the set is L minus the upsets of the atoms below x: a
    mask, folded with Lattice.join_of, with no scan of the meet table.
    Dually, {z : x ∨ z = 1} is L minus the downsets of the coatoms above x,
    folded with Lattice.meet_of.

    Non-distributive lattices are accepted when both maps exist, but the
    result is flagged and the regularity machinery refuses it.
    """
    bottom, top = lat.bottom, lat.top
    below, above = lat.poset.below, lat.poset.above
    full = (1 << lat.n) - 1
    atoms = [a for a in range(lat.n) if below[a] == 1 << a | 1 << bottom and a != bottom]
    coatoms = [c for c in range(lat.n) if above[c] == 1 << c | 1 << top and c != top]
    star, plus = [], []
    for x in range(lat.n):
        meets = 0
        for a in atoms:
            if below[x] >> a & 1:
                meets |= above[a]
        cand = lat.join_of(full & ~meets)
        if lat.meet[x][cand] != bottom:
            raise NoPseudocomplement(x)
        star.append(cand)
        joins = 0
        for c in coatoms:
            if above[x] >> c & 1:
                joins |= below[c]
        cand = lat.meet_of(full & ~joins)
        if lat.join[x][cand] != top:
            raise NoPseudocomplement(x, dual=True)
        plus.append(cand)
    dp = DoubleP(lat, star, plus, is_distributive(lat)[0])
    _check_p_laws(dp)
    return dp


def _check_p_laws(dp: DoubleP):
    """Raise PseudoError at the first failing law, in the order of a scan of
    a, then b, over all pairs.

    Both pair laws follow, with no distributivity, from two premises tested
    per element: star is antitone and a <= a**.  For z = a* ^ b*, a <= a** <=
    z* and b <= z*, so a v b <= z* and z <= z** <= (a v b)*; antitonicity
    gives (a v b)* <= z and a* v b* <= (a ^ b)*.  So the pairs are scanned
    only when a premise fails, and then on the pairs b >= a only, as both
    laws are symmetric.  Antitonicity at a is one mask test: ↑a must lie
    inside the b with star[b] <= star[a].  The first failure of the full
    scan lies in the first row that fails these tests, and only that row is
    scanned for it.
    """
    lat, star, plus = dp.lattice, dp.star, dp.plus
    below, above, meet, join = lat.poset.below, lat.poset.above, lat.meet, lat.join
    # star_le[s] is the mask of the b with star[b] <= s, for each value s of
    # star, gathered from the preimages of the values below s
    preimage = [0] * lat.n
    for b, sb in enumerate(star):
        preimage[sb] |= 1 << b
    image = mask_of(star)
    star_le = dict.fromkeys(star, 0)
    for s in star_le:
        for e in bits(below[s] & image):
            star_le[s] |= preimage[e]
    antitone = [above[a] & ~star_le[sa] == 0 for a, sa in enumerate(star)]
    if all(antitone) and all(below[star[sa]] >> a & 1 for a, sa in enumerate(star)):
        failing = set()
    else:
        # the rows a with a pair b >= a that fails (a v b)* = a* ^ b* or
        # (a ^ b)* >= a* v b*, in one pass over the pairs
        failing = {
            a
            for a, sa in enumerate(star)
            for meet_sa, join_sa in [(meet[sa], join[sa])]
            for v, w, sb in zip(join[a][a:], meet[a][a:], star[a:])
            if star[v] != meet_sa[sb] or not below[star[w]] >> join_sa[sb] & 1
        }
    for a in range(lat.n):
        sa = star[a]
        if star[star[sa]] != sa:
            raise PseudoError(f"a* != a*** at {a}")
        if not below[star[sa]] >> a & 1:
            raise PseudoError(f"a <= a** fails at {a}")
        if plus[plus[plus[a]]] != plus[a]:
            raise PseudoError(f"a+ != a+++ at {a}")
        if not below[a] >> plus[plus[a]] & 1:
            raise PseudoError(f"a++ <= a fails at {a}")
        if antitone[a] and a not in failing:
            continue
        below_sa, meet_sa, join_sa = below[sa], meet[sa], join[sa]
        meet_a, join_a = meet[a], join[a]
        for b in range(lat.n):
            sb = star[b]
            if below[b] >> a & 1 and not below_sa >> sb & 1:
                raise PseudoError(f"star not antitone at ({a},{b})")
            if star[join_a[b]] != meet_sa[sb]:
                raise PseudoError(f"(a v b)* != a* ^ b* at ({a},{b})")
            if not below[star[meet_a[b]]] >> join_sa[sb] & 1:
                raise PseudoError(f"(a ^ b)* >= a* v b* fails at ({a},{b})")


@dataclass(frozen=True)
class MDNReport:
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
        lat, [lat.meet[x][plus[x]] for x in range(lat.n)],
        [lat.join[y][star[y]] for y in range(lat.n)],
    )
    if dp.distributive and (m_witness is None) != (d_witness is None):
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
    if not dp.distributive:
        raise PseudoError("implications need a distributive lattice")
    n = lat.n
    imp = [[0] * n for _ in range(n)]
    dimp = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            x = lat.join_all(z for z in range(n) if lat.leq(lat.meet[a][z], b))
            if not lat.leq(lat.meet[a][x], b):
                raise PseudoError(f"no relative pseudocomplement at ({a},{b})")
            imp[a][b] = x
            y = lat.meet_all(z for z in range(n) if lat.leq(b, lat.join[a][z]))
            if not lat.leq(b, lat.join[a][y]):
                raise PseudoError(f"no dual relative pseudocomplement at ({a},{b})")
            dimp[a][b] = y
    if check_M_D_N(dp).m:
        star, plus = dp.star, dp.plus
        meet, join = lat.meet, lat.join
        for a in range(n):
            for b in range(n):
                # (a* v b**)** ^ [(a v a*)+ v a* v b v b*]
                core = join[star[a]][star[star[b]]]
                closed = meet[star[star[core]]][
                    join[join[join[plus[join[a][star[a]]]][star[a]]][b]][star[b]]
                ]
                if closed != imp[a][b]:
                    raise PseudoError(f"closed form for imp disagrees at ({a},{b})")
                # (a+ ^ b++)++ v [(a ^ a+)* ^ a+ ^ b ^ b+]
                dcore = meet[plus[a]][plus[plus[b]]]
                dclosed = join[plus[plus[dcore]]][
                    meet[meet[meet[star[meet[a][plus[a]]]][plus[a]]][b]][plus[b]]
                ]
                if dclosed != dimp[a][b]:
                    raise PseudoError(f"closed form for dimp disagrees at ({a},{b})")
    return tuple(tuple(r) for r in imp), tuple(tuple(r) for r in dimp)


@dataclass(frozen=True)
class Skeleton:
    """Image of star (or plus): a Boolean algebra inside the lattice."""

    members: tuple          # ascending element ids
    is_dual: bool           # False for star image, True for plus image


def skeletons(dp: DoubleP):
    """Extract both skeletons and verify they are Boolean.

    In the star skeleton the join is (a* ∧ b*)*; meet is inherited.  Dually
    for the plus skeleton.
    """
    lat, star, plus = dp.lattice, dp.star, dp.plus
    if not dp.distributive:
        raise PseudoError("skeletons need a distributive lattice")
    s_members = tuple(sorted(set(star)))
    p_members = tuple(sorted(set(plus)))
    for a in s_members:
        if star[star[a]] != a:
            raise PseudoError(f"star image not closed at {a}")
        if lat.meet[a][star[a]] != lat.bottom:
            raise PseudoError(f"skeleton complement fails meet at {a}")
        if star[lat.meet[star[a]][star[star[a]]]] != lat.top:
            raise PseudoError(f"skeleton complement fails join at {a}")
        for b in s_members:
            if lat.meet[a][b] not in s_members:
                raise PseudoError(f"star skeleton not meet-closed at ({a},{b})")
            if star[lat.meet[star[a]][star[b]]] not in s_members:
                raise PseudoError(f"star skeleton join leaves skeleton at ({a},{b})")
    for a in p_members:
        if plus[plus[a]] != a:
            raise PseudoError(f"plus image not closed at {a}")
        if lat.join[a][plus[a]] != lat.top:
            raise PseudoError(f"dual skeleton complement fails join at {a}")
        if plus[lat.join[plus[a]][plus[plus[a]]]] != lat.bottom:
            raise PseudoError(f"dual skeleton complement fails meet at {a}")
        for b in p_members:
            if lat.join[a][b] not in p_members:
                raise PseudoError(f"plus skeleton not join-closed at ({a},{b})")
            if plus[lat.join[plus[a]][plus[b]]] not in p_members:
                raise PseudoError(f"plus skeleton meet leaves skeleton at ({a},{b})")
    return Skeleton(s_members, False), Skeleton(p_members, True)


@dataclass(frozen=True)
class PrimeFilterFamily:
    """All prime filters of a finite lattice, as up-set masks.

    Every filter of a finite lattice is principal, so the scan runs over
    the principal filters [x), x != bottom.  [x) is prime iff its
    complement L∖[x), a downset, is closed under ∨, and a downset of a
    finite lattice is closed under ∨ iff it contains its own join.  So each
    test is ⋁(L∖[x)) ∉ [x): one fold over the join table per x, not a scan
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
    # longest chain: filters ordered by inclusion mirror generators ordered by >=
    depth = {}
    chain = 0
    for x in sorted(gens, key=lambda v: p.above[v].bit_count()):
        depth[x] = 1 + max((depth[y] for y in gens if y != x and p.leq(x, y)), default=0)
        chain = max(chain, depth[x])
    return PrimeFilterFamily(tuple(gens), filters, maximal, chain)


@dataclass(frozen=True)
class RegularityReport:
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


def is_regular(dp: DoubleP, ji: JoinIrreducibles, neg=None) -> RegularityReport:
    """Decide regularity three ways and insist the verdicts agree.

    Criteria: (M); no prime-filter chain of three; the join-irreducibles
    have at most two levels.  neg, when given, adds the (N) verdict.
    """
    if not dp.distributive:
        raise PseudoError("regularity is only defined for distributive input")
    mdn = check_M_D_N(dp, neg)
    family = prime_filters(dp.lattice)
    two, witness = has_two_levels(ji, dp.lattice)
    verdicts = {
        "M": mdn.m,
        "D": mdn.d,
        "primeChain": family.chain_max <= 2,
        "twoLevels": two,
    }
    if len(set(verdicts.values())) != 1:
        raise CriteriaDisagree(verdicts)
    # chains P < Q of prime filters must end in a maximal filter exactly
    # when no chain of three exists
    fact_b = True
    for i, x in enumerate(family.generators):
        for j, y in enumerate(family.generators):
            if x != y and family.filters[i] & ~family.filters[j] == 0 and not family.maximal[j]:
                fact_b = False
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


def demorgan_pseudo_report(dm: DeMorgan, dp: DoubleP, ji: JoinIrreducibles):
    """Full diagnostic for a pseudocomplemented De Morgan structure.

    Also enforces the interplay laws: neg swaps star and plus, and for
    regular structures (K) holds exactly when (N) does.  The (K) verdict
    and its first witness are returned in k and k_witness.
    """
    from .demorgan import is_kleene

    lat, neg = dm.lattice, dm.neg
    for x in range(lat.n):
        if neg[dp.star[x]] != dp.plus[neg[x]]:
            raise PseudoError(f"neg(x*) != (neg x)+ at {x}")
        if neg[dp.plus[x]] != dp.star[neg[x]]:
            raise PseudoError(f"neg(x+) != (neg x)* at {x}")
    report = is_regular(dp, ji, neg)
    kleene, k_witness = is_kleene(dm)
    if report.regular and kleene != report.n:
        raise CriteriaDisagree({"K": kleene, "N": report.n, "regular": True})
    return replace(report, k=kleene, k_witness=k_witness)
