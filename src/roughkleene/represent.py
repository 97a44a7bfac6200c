"""Representing a finite regular pseudocomplemented Kleene algebra as a
rough-set algebra.

From the atoms and the self-dual map gmap the construction reads off a
similarity relation (x ~ y iff x <= gmap(y)), spans
span(x) = {x v y | y ~ x} + {gmap(x)}, a universe carried by the lattice
elements occurring in spans, and the irredundant covering the spans form.
The induced tolerance's rough-set algebra is then isomorphic to the input,
and the isomorphism is verified exhaustively, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .demorgan import DeMorgan, compute_g
from .posets import JoinIrreducibles, bits, join_irreducibles, mask_of
from .pseudo import DoubleP, compute_pseudocomplements, demorgan_pseudo_report
from .rough import (
    Covering,
    RoughSetAlgebra,
    Tolerance,
    approximations,
    build_rs,
    is_irredundant,
    rs_g_map,
    tolerance_from_covering,
)


class RepresentError(Exception):
    pass


class NotKleene(RepresentError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"input is not a Kleene structure, witness {witness}")


class NotRegular(RepresentError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"input is not regular, two-level witness {witness}")


class PhiNotIso(RepresentError):
    """The join-irreducible correspondence failed a check: a bug."""

    def __init__(self, what, witness):
        self.witness = witness
        super().__init__(f"phi is not an isomorphism ({what}): {witness}")


class IsoCheckFailed(RepresentError):
    def __init__(self, operation, witness):
        self.operation = operation
        self.witness = witness
        super().__init__(f"isomorphism fails to preserve {operation} at {witness}")


@dataclass(frozen=True)
class SimilaritySpace:
    atoms: tuple             # atom ids of the source lattice
    gmap: dict               # self-dual involution on the join-irreducibles
    simeq: frozenset         # ordered atom pairs (x, y) with x <= gmap(y)
    spans: dict              # atom -> frozenset of lattice element ids


def build_similarity(dm: DeMorgan, dp: DoubleP, ji: JoinIrreducibles) -> SimilaritySpace:
    """Similarity and spans for a regular Kleene structure, with the span
    laws checked: spans meet iff their atoms are similar, a span is a
    singleton iff its atom is fixed, and distinct atoms never share spans."""
    report = demorgan_pseudo_report(dm, dp, ji)
    if not report.k:
        raise NotKleene(report.k_witness)
    if not report.regular:
        raise NotRegular(report.two_levels_witness)
    lat = dm.lattice
    g = compute_g(dm, ji)
    atoms = ji.atoms
    low = tuple(x for x in ji.members if lat.leq(x, g[x]))
    high = tuple(x for x in ji.members if lat.poset.leq(g[x], x) and g[x] != x)
    if low != atoms or set(high) != set(ji.members) - set(atoms):
        raise RepresentError("gmap does not separate atoms from upper join-irreducibles")
    for x in ji.members:
        if g[x] == x:
            others = (lat.poset.above[x] | lat.poset.below[x]) & ji.member_mask & ~(1 << x)
            if others:
                raise RepresentError(f"fixed atom {x} is comparable with {next(bits(others))}")
    for group in (atoms, high):
        for x in group:
            for y in group:
                if x != y and lat.leq(x, y):
                    raise RepresentError(f"level is not an antichain at ({x},{y})")
    simeq = frozenset(
        (x, y) for x in atoms for y in atoms if lat.leq(x, g[y])
    )
    for x, y in simeq:
        if (y, x) not in simeq:
            raise RepresentError(f"similarity is not symmetric at ({x},{y})")
    for x in atoms:
        if (x, x) not in simeq:
            raise RepresentError(f"similarity is not reflexive at {x}")
    spans = {}
    for x in atoms:
        members = {lat.join[x][y] for y in atoms if (x, y) in simeq}
        members.add(g[x])
        spans[x] = frozenset(members)
    for x in atoms:
        for y in atoms:
            if ((y in spans[x]) != (x == y)) or ((g[y] in spans[x]) != (x == y)):
                raise RepresentError(f"span membership law fails at ({x},{y})")
            if (bool(spans[x] & spans[y])) != ((x, y) in simeq):
                raise RepresentError(f"span intersection law fails at ({x},{y})")
        if (spans[x] == {x}) != (g[x] == x):
            raise RepresentError(f"singleton span law fails at {x}")
    return SimilaritySpace(atoms, g, simeq, spans)


def build_tolerance_universe(dm: DeMorgan, ji: JoinIrreducibles, sim: SimilaritySpace):
    """The universe (span elements, as source-lattice ids), the covering the
    spans form, and its induced tolerance.

    Checks: the covering is irredundant; every universe point is exactly one
    of atom / upper join-irreducible / proper join of two similar atoms, with
    the stated neighborhoods; for join-irreducibles x the neighborhood core
    is {x, gmap(x)} and its outer closure is the union of the similar spans.
    """
    lat = dm.lattice
    universe = sorted(set().union(*sim.spans.values())) if sim.spans else []
    pos = {lid: k for k, lid in enumerate(universe)}
    labels = [lat.labels[lid] for lid in universe]
    cov = Covering(labels, [mask_of(pos[e] for e in sim.spans[x]) for x in sim.atoms])
    if not is_irredundant(cov).irredundant:
        raise RepresentError("spans do not form an irredundant covering")
    tol = tolerance_from_covering(cov)
    span_mask = {x: mask_of(pos[e] for e in sim.spans[x]) for x in sim.atoms}
    amask = mask_of(sim.atoms)
    for z in universe:
        holders = [x for x in sim.atoms if z in sim.spans[x]]
        expect = 0
        for x in holders:
            expect |= span_mask[x]
        if tol.nbr[pos[z]] != expect:
            raise RepresentError(f"neighborhood of {z} is not the union of its spans")
        if amask >> z & 1:
            if holders != [z]:
                raise RepresentError(f"atom {z} lies in a foreign span")
        elif z in ji:
            if holders != [sim.gmap[z]]:
                raise RepresentError(f"upper join-irreducible {z} lies outside its own span")
        else:
            if len(holders) != 2:
                raise RepresentError(f"join point {z} lies in {len(holders)} spans")
            a, b = holders
            if lat.join[a][b] != z or (a, b) not in sim.simeq:
                raise RepresentError(f"join point {z} is not the join of its two atoms")
    for x in ji.members:
        a = x if amask >> x & 1 else sim.gmap[x]
        r = tol.nbr[pos[x]]
        lo, up = approximations(tol, r)
        if lo != mask_of({pos[x], pos[sim.gmap[x]]}):
            raise RepresentError(f"neighborhood core of {x} is not itself and its partner")
        outer = 0
        for y in sim.atoms:
            if (a, y) in sim.simeq:
                outer |= span_mask[y]
        if up != outer:
            raise RepresentError(f"neighborhood closure of {x} misses a similar span")
    return tuple(universe), cov, tol


def build_phi(dm: DeMorgan, ji: JoinIrreducibles, sim: SimilaritySpace,
              universe, tol: Tolerance, rs: RoughSetAlgebra) -> dict:
    """The join-irreducible correspondence: an atom strictly below its
    partner goes to (empty, R(x)); anything else to the rough pair of R(x).
    Verified to be a gmap-equivariant order-isomorphism."""
    lat = dm.lattice
    pos = {lid: k for k, lid in enumerate(universe)}
    phi = {}
    for x in ji.members:
        r = tol.nbr[pos[x]]
        g = sim.gmap[x]
        if lat.leq(x, g) and x != g:
            pair = (0, r)
        else:
            pair = approximations(tol, r)
        target = rs.index.get(pair)
        if target is None:
            raise PhiNotIso("membership", {"x": x, "pair": pair})
        phi[x] = target
    targets = sorted(phi.values())
    if targets != sorted(rs.ji.members):
        raise PhiNotIso("bijection", {"targets": targets, "expected": list(rs.ji.members)})
    for x in ji.members:
        for y in ji.members:
            if lat.leq(x, y) != rs.lattice.leq(phi[x], phi[y]):
                raise PhiNotIso("order", {"pair": (x, y)})
    g_rs = rs_g_map(rs)
    for x in ji.members:
        if phi[sim.gmap[x]] != g_rs[phi[x]]:
            raise PhiNotIso("gmap equivariance", {"x": x})
    return phi


def extend_iso(dm: DeMorgan, dp: DoubleP, ji: JoinIrreducibles,
               phi: dict, rs: RoughSetAlgebra):
    """Extend phi to the whole lattice by joins and verify, pair by pair,
    that every operation is preserved.

    The order test of row x is one mask test: the image of ↑x must be
    ↑iso(x), as iso is a bijection.  If every row passes, iso is an order
    isomorphism of lattices, which preserves meet and join (Davey &
    Priestley, Introduction to Lattices and Order, 2.19), so the pairs are
    scanned only when a row fails, and then on the pairs y >= x, as both
    lattices' tables are symmetric.  Every ordered pair is still verified,
    and the checks count each one.  The first failure of a scan of x, then
    y, lies in the first row to fail these tests, and only that row is
    scanned for it.
    """
    lat, target = dm.lattice, rs.lattice
    n = lat.n
    below, rs_below = lat.poset.below, target.poset.below
    above, rs_above = lat.poset.above, target.poset.above
    iso = tuple(
        target.join_all(phi[j] for j in bits(below[x] & ji.member_mask))
        for x in range(n)
    )
    if sorted(iso) != list(range(rs.n)):
        raise IsoCheckFailed("bijectivity", {"image_size": len(set(iso)), "target": rs.n})
    if iso[lat.bottom] != rs.lattice.bottom or iso[lat.top] != rs.lattice.top:
        raise IsoCheckFailed("bounds", {})
    checks = {"meet": 0, "join": 0, "neg": 0, "star": 0, "plus": 0, "order": 0}
    ordered = [
        mask_of(iso[y] for y in bits(above[x])) == rs_above[ix] for x, ix in enumerate(iso)
    ]
    if all(ordered):
        failing = set()
    else:
        # the rows x with a pair y >= x whose meet or join is not preserved
        failing = {
            x
            for x, ix in enumerate(iso)
            for meet_ix, join_ix in [(target.meet[ix], target.join[ix])]
            for v, w, iy in zip(lat.meet[x][x:], lat.join[x][x:], iso[x:])
            if iso[v] != meet_ix[iy] or iso[w] != join_ix[iy]
        }
    for x in range(n):
        if rs.neg[iso[x]] != iso[dm.neg[x]]:
            raise IsoCheckFailed("neg", {"x": x})
        if rs.star[iso[x]] != iso[dp.star[x]]:
            raise IsoCheckFailed("star", {"x": x})
        if rs.plus[iso[x]] != iso[dp.plus[x]]:
            raise IsoCheckFailed("plus", {"x": x})
        checks["neg"] += 1
        checks["star"] += 1
        checks["plus"] += 1
        ix = iso[x]
        if x in failing or not ordered[x]:
            meet_x, join_x = lat.meet[x], lat.join[x]
            meet_ix, join_ix = target.meet[ix], target.join[ix]
            for y in range(n):
                iy = iso[y]
                if iso[meet_x[y]] != meet_ix[iy]:
                    raise IsoCheckFailed("meet", {"pair": (x, y)})
                if iso[join_x[y]] != join_ix[iy]:
                    raise IsoCheckFailed("join", {"pair": (x, y)})
                if (below[y] >> x & 1) != (rs_below[iy] >> ix & 1):
                    raise IsoCheckFailed("order", {"pair": (x, y)})
        checks["meet"] += n
        checks["join"] += n
        checks["order"] += n
    return iso, checks


@dataclass(frozen=True)
class RepresentationResult:
    source: DeMorgan
    similarity: SimilaritySpace
    universe: tuple          # source-lattice element ids carrying the points
    covering: Covering
    tolerance: Tolerance
    rs: RoughSetAlgebra
    phi: dict
    iso: tuple
    report: dict


def represent(dm: DeMorgan) -> RepresentationResult:
    """Full pipeline: similarity, universe, tolerance, rough algebra, verified
    isomorphism.  The tolerance is induced by the irredundant covering of
    the spans, so build_rs takes the downset route, whatever the size of
    the universe, and only the table cap bounds it."""
    dp = compute_pseudocomplements(dm.lattice)
    ji = join_irreducibles(dm.lattice)
    sim = build_similarity(dm, dp, ji)
    universe, cov, tol = build_tolerance_universe(dm, ji, sim)
    rs = build_rs(tol)
    phi = build_phi(dm, ji, sim, universe, tol, rs)
    iso, checks = extend_iso(dm, dp, ji, phi, rs)
    report = {
        "sourceSize": dm.lattice.n,
        "universeSize": tol.n,
        "blockCount": len(cov.blocks),
        "rsSize": rs.n,
        "checks": checks,
        "verified": True,
    }
    return RepresentationResult(dm, sim, universe, cov, tol, rs, phi, iso, report)


def roundtrip_check(tol: Tolerance) -> dict:
    """Build the rough algebra of an irredundant-covering tolerance, run the
    pipeline on it, and confirm the result is again that algebra up to the
    verified isomorphism."""
    rs = build_rs(tol)
    if rs.covering is None:
        raise RepresentError("round trip needs an irredundant covering")
    result = represent(rs.demorgan)
    return {
        "rsSize": rs.n,
        "again": result.rs.n,
        "sizesAgree": rs.n == result.rs.n,
        "verified": result.report["verified"],
    }
