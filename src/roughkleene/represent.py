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

from typing import NamedTuple

from .demorgan import DeMorgan, compute_g, is_kleene
from .posets import Lattice, codes_within, has_two_levels, mask_of, point_unions
from .pseudo import DoubleP, compute_pseudocomplements
from .rough import (
    Covering,
    RoughSetAlgebra,
    Tolerance,
    ToleranceError,
    approximations,
    build_rs,
    build_rs_spatial,
    is_irredundant,
    rs_g_map,
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


class SimilaritySpace(NamedTuple):
    atoms: tuple             # atom ids of the source lattice
    gmap: dict               # self-dual involution on the join-irreducibles
    simeq: frozenset         # ordered atom pairs (x, y) with x <= gmap(y)
    spans: dict              # atom -> frozenset of lattice element ids


def build_similarity(dm: DeMorgan) -> SimilaritySpace:
    """Similarity and spans for a regular Kleene structure, with the span
    laws checked: spans meet iff their atoms are similar, a span is a
    singleton iff its atom is fixed, and distinct atoms never share spans.

    Kleene is decided by demorgan.is_kleene and regularity by the two
    levels of J (posets.has_two_levels), whose witnesses NotKleene and
    NotRegular report.  Then gmap must split J into the atoms, each below
    its partner, and the rest, each above it.  What that split and
    compute_g's J1 and J2 already prove is not checked again:
    - a fixed x has x <= g(x), so it is an atom, and y > x in J would give
      g(y) <= g(x) = x by J1, so g(y) = x, and y = g(g(y)) = x by J2: no
      other member of J is comparable with a fixed atom;
    - the atoms are pairwise incomparable, and the rest are J minus the
      atoms, an antichain since J has two levels;
    - the similarity x <= g(y) is reflexive, as each atom x has x <= g(x),
      and symmetric, as x <= g(y) gives y = g(g(y)) <= g(x) by J1 and J2.
    """
    kleene, witness = is_kleene(dm)
    if not kleene:
        raise NotKleene(witness)
    lat = dm.lattice
    regular, witness = has_two_levels(lat)
    if not regular:
        raise NotRegular(witness)
    ji = lat.ji
    g = compute_g(dm)
    atoms = ji.atoms
    low = tuple(x for x in ji.members if lat.leq(x, g[x]))
    high = tuple(x for x in ji.members if lat.leq(g[x], x) and g[x] != x)
    if low != atoms or set(high) != set(ji.members) - set(atoms):
        raise RepresentError("gmap does not separate atoms from upper join-irreducibles")
    simeq = frozenset((x, y) for x in atoms for y in atoms if lat.leq(x, g[y]))
    spans = {}
    for x in atoms:
        members = {lat.join(x, y) for y in atoms if (x, y) in simeq}
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


def build_tolerance_universe(dm: DeMorgan, sim: SimilaritySpace):
    """The universe (span elements, as source-lattice ids), the covering the
    spans form, and its induced tolerance.

    Checks: the covering is irredundant; every universe point is exactly one
    of atom / upper join-irreducible / proper join of two similar atoms, with
    the stated neighborhoods; for join-irreducibles x the neighborhood core
    is {x, gmap(x)} and its outer closure is the union of the similar spans.
    """
    lat = dm.lattice
    ji = lat.ji
    universe = sorted(set().union(*sim.spans.values())) if sim.spans else []
    pos = {lid: k for k, lid in enumerate(universe)}
    labels = [lat.labels[lid] for lid in universe]
    cov = Covering(labels, [mask_of(pos[e] for e in sim.spans[x]) for x in sim.atoms])
    if not is_irredundant(cov).irredundant:
        raise RepresentError("spans do not form an irredundant covering")
    tol = cov.tolerance
    span_mask = {x: mask_of(pos[e] for e in sim.spans[x]) for x in sim.atoms}
    amask = mask_of(sim.atoms)
    for z in universe:
        holders = [x for x in sim.atoms if z in sim.spans[x]]
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
            if lat.join(a, b) != z or (a, b) not in sim.simeq:
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


def build_phi(dm: DeMorgan, sim: SimilaritySpace, universe, tol: Tolerance,
              rs: RoughSetAlgebra) -> dict:
    """The join-irreducible correspondence: an atom strictly below its
    partner goes to (empty, R(x)); anything else to the rough pair of R(x).
    Verified to be a gmap-equivariant order-isomorphism."""
    lat = dm.lattice
    ji = lat.ji
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


def join_extension(lat: Lattice, target: Lattice, phi: dict) -> tuple:
    """iso(x) = the join in target of phi(j) over the join-irreducibles j
    <= x of lat, for every x.

    Both lattices must be D(J) (they have points), as represent's source
    and rough-set algebra are, and the join of downsets is their union:
    iso(x) is the target element whose code is the union of the target
    codes of phi(↓p) over the points p of x's code, one posets.point_unions
    over the source codes and one index lookup per element.
    """
    tcodes, ids = target.join_codes, lat.meets
    point_codes = [tcodes[phi[ids[down]]] for down in lat.points]
    return tuple(map(target.joins.__getitem__, point_unions(lat.meet_codes, point_codes)))


def _order_isomorphism(lat: Lattice, target: Lattice, iso: tuple) -> bool:
    """Whether the bijection iso is an order isomorphism of lat onto target:
    iso and its inverse are each monotone on the covering pairs of their
    source (posets.codes_within), which generate the whole order."""
    inverse = sorted(range(len(iso)), key=iso.__getitem__)
    tcodes, codes = target.meet_codes, lat.meet_codes
    return (codes_within(*lat.covers, [tcodes[ix] for ix in iso])
            and codes_within(*target.covers, [codes[x] for x in inverse]))


def extend_iso(dm: DeMorgan, dp: DoubleP, phi: dict, rs: RoughSetAlgebra):
    """Extend phi to the whole lattice by joins (join_extension) and verify,
    pair by pair, that every operation is preserved.

    The order test (_order_isomorphism) reads the covering pairs of both
    lattices.  If it passes, iso is an order isomorphism of lattices, which
    preserves meet and join (Davey & Priestley, Introduction to Lattices
    and Order, 2.19), so the pairs are scanned only when it fails, and then
    row by row, as the full scan of x, then y, runs, until the first
    failure: at the latest the first row where the image of ↑x is not
    ↑iso(x).  Every ordered pair is still verified, and the checks count
    each one.
    """
    lat, target = dm.lattice, rs.lattice
    n = lat.n
    iso = join_extension(lat, target, phi)
    if sorted(iso) != list(range(rs.n)):
        raise IsoCheckFailed("bijectivity", {"image_size": len(set(iso)), "target": rs.n})
    if iso[lat.bottom] != rs.lattice.bottom or iso[lat.top] != rs.lattice.top:
        raise IsoCheckFailed("bounds", {})
    ordered = _order_isomorphism(lat, target, iso)
    for x in range(n):
        if rs.neg[iso[x]] != iso[dm.neg[x]]:
            raise IsoCheckFailed("neg", {"x": x})
        if rs.star[iso[x]] != iso[dp.star[x]]:
            raise IsoCheckFailed("star", {"x": x})
        if rs.plus[iso[x]] != iso[dp.plus[x]]:
            raise IsoCheckFailed("plus", {"x": x})
        ix = iso[x]
        if not ordered:
            below, rs_below = lat.poset.below, target.poset.below
            for y in range(n):
                iy = iso[y]
                if iso[lat.meet(x, y)] != target.meet(ix, iy):
                    raise IsoCheckFailed("meet", {"pair": (x, y)})
                if iso[lat.join(x, y)] != target.join(ix, iy):
                    raise IsoCheckFailed("join", {"pair": (x, y)})
                if (below[y] >> x & 1) != (rs_below[iy] >> ix & 1):
                    raise IsoCheckFailed("order", {"pair": (x, y)})
    return iso, {"meet": n * n, "join": n * n, "neg": n, "star": n, "plus": n, "order": n * n}


class RepresentationResult(NamedTuple):
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
    sim = build_similarity(dm)
    universe, cov, tol = build_tolerance_universe(dm, sim)
    rs = build_rs(tol)
    phi = build_phi(dm, sim, universe, tol, rs)
    iso, checks = extend_iso(dm, dp, phi, rs)
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
    verified isomorphism.  The algebra takes the downset route alone
    (build_rs_spatial), so any other tolerance is refused before its 2^U
    sweep, and the inducing covering is searched for once."""
    try:
        rs = build_rs_spatial(tol)
    except ToleranceError as exc:
        if type(exc) is not ToleranceError:  # FormulaMismatch is a defect, not a refusal
            raise
        raise RepresentError("round trip needs an irredundant covering") from None
    result = represent(rs.demorgan)
    return {
        "rsSize": rs.n,
        "again": result.rs.n,
        "sizesAgree": rs.n == result.rs.n,
        "verified": result.report["verified"],
    }
