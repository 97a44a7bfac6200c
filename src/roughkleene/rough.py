"""Tolerances, blocks, coverings and the rough-set algebra they induce.

A tolerance is a reflexive symmetric relation on U, stored as neighborhood
bitmasks.  For a subset X the pair (lower(X), upper(X)) collects the points
whose whole neighborhood sits inside X and the points whose neighborhood
meets X.  The set of all such pairs, ordered coordinatewise, is assembled
into a lattice-with-operations when the order admits one.

build_rs is the one builder, and the tolerance picks its route.  When an
irredundant covering induces it, the rough pairs form a distributive
lattice, and the downset route joins each downset of the block-derived
join-irreducibles (Birkhoff).  Its downsets come from posets.downsets, so
it costs time linear in the number of pairs and stops once they pass the
table cap.  Any other tolerance takes the powerset sweep, the defining
construction: 2^|U| subsets, capped at POWERSET_CAP points.  On every
covering-induced algebra that verify and the sweeps check, the powerset
sweep is the independent oracle (dualRouteEqual).

A pair (lo, up) is coded as the one set lo ∪ (up shifted past the points),
so the coordinatewise order is inclusion of codes.  In an inclusion order
the meet of two elements depends only on the intersection of their codes,
and the join only on the union; the closed forms of meet and join read the
same keys.  So the tables (posets.inclusion_lattice) and the check of both
closed forms (_check_formulas) cost one lookup and one test per distinct
key, which are far fewer than the P² pairs.  The check covers every cell
through its key; that the table rows hold the keyed glb and lub of each
pair rests on the row assembly posets._tables, which Lattice.from_poset
shares and which the reference tests check against a per-pair scan.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import count, repeat
from operator import and_, eq, invert, or_, xor

from .demorgan import validate_demorgan, compute_g
from .posets import Memo, NotALattice, bits, downsets, inclusion_below, inclusion_lattice
from .pseudo import compute_pseudocomplements, demorgan_pseudo_report


class ToleranceError(Exception):
    pass


# The most points the 2^U powerset sweep (_approximation_table) accepts.
POWERSET_CAP = 16


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


def fmt_pair(pair, labels):
    return f"({_fmt_set(pair[0], labels)},{_fmt_set(pair[1], labels)})"


class Tolerance:
    """Reflexive symmetric relation; nbr[x] is the bitmask of R(x)."""

    __slots__ = ("n", "labels", "nbr")

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

    def lower(self, X: int) -> int:
        out = 0
        for x in range(self.n):
            if self.nbr[x] & ~X == 0:
                out |= 1 << x
        return out

    def upper(self, X: int) -> int:
        out = 0
        for x in range(self.n):
            if self.nbr[x] & X:
                out |= 1 << x
        return out

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
    """The rough pair of X, with the lower/upper duality checked on the fly."""
    full = (1 << tol.n) - 1
    lo, up = tol.lower(X), tol.upper(X)
    if lo ^ full != tol.upper(X ^ full):
        raise FormulaMismatch("approximation duality", {"X": X})
    if lo & ~X or X & ~up:
        raise FormulaMismatch("reflexive sandwich", {"X": X})
    return lo, up


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
    """Family of distinct nonempty subsets whose union is the universe."""

    __slots__ = ("n", "labels", "blocks")

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


def tolerance_from_covering(cov: Covering) -> Tolerance:
    """The tolerance whose related pairs are those sharing a covering block."""
    nbr = [1 << x for x in range(cov.n)]
    for b in cov.blocks:
        for x in bits(b):
            nbr[x] |= b
    tol = Tolerance(cov.labels, nbr)
    for x in range(cov.n):
        joined = 0
        for b in cov.blocks:
            if b >> x & 1:
                joined |= b
        if joined != tol.nbr[x]:
            raise FormulaMismatch("neighborhood is not the union of its blocks", {"x": x})
    return tol


@dataclass(frozen=True)
class IrredundanceReport:
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
    tol = tolerance_from_covering(cov)
    nbrs = set(tol.nbr)
    missing = next((b for b in cov.blocks if b not in nbrs), None)
    if (removable is None) != (missing is None):
        raise FormulaMismatch(
            "irredundance criteria disagree", {"removable": removable, "missing": missing}
        )
    if removable is None:
        blocks = set(blocks_of(tol))
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
    by an irredundant covering exactly when that family covers U, induces
    tol, and is irredundant.
    """
    blocks = set(blocks_of(tol))
    family = sorted({nb for nb in tol.nbr if nb in blocks})
    union = 0
    for b in family:
        union |= b
    if union != (1 << tol.n) - 1:
        return None
    cov = Covering(tol.labels, family)
    if tolerance_from_covering(cov).nbr != tol.nbr:
        return None
    if not is_irredundant(cov).irredundant:
        return None
    return cov


class RoughSetAlgebra:
    """The ordered set of rough pairs with its lattice and unary operations.

    pairs are sorted (lower, upper) bitmask tuples; element i of the lattice
    is pairs[i].  neg swaps-and-complements coordinates; star and plus are
    the complement-approximation maps.  For tolerances induced by an
    irredundant covering the full Kleene/regularity battery has been run
    and demorgan/doublep/ji are populated.
    """

    __slots__ = (
        "tolerance", "pairs", "index", "lattice",
        "neg", "star", "plus", "covering", "demorgan", "doublep", "ji",
    )

    def __init__(self, tolerance, pairs, index, lattice, neg, star, plus,
                 covering, demorgan, doublep, ji):
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
        self.ji = ji

    @property
    def n(self):
        return len(self.pairs)

    def fmt(self, i):
        return fmt_pair(self.pairs[i], self.tolerance.labels)


def _approximation_table(tol: Tolerance):
    """lower(X) and upper(X) for every subset X of U, as two arrays indexed
    by the mask X, with the checks of approximations run for every X.

    The table grows point by point: the X whose highest point is y extend
    X' = X∖{y}, which come before them.  upper(X) is upper(X') ∪ R(y), since
    R is symmetric.  lower(X) follows its definition: it is lower(X') plus
    the x ∈ R(y) with R(x) ⊆ X, because an x outside R(y) has y ∉ R(x), and
    then R(x) ⊆ X iff R(x) ⊆ X'.  So each new half of the table is one pass
    over the half before it, with no loop over U per subset.  Raises
    BoundsExceeded past POWERSET_CAP points.
    """
    if tol.n > POWERSET_CAP:
        raise BoundsExceeded(tol.n, POWERSET_CAP)
    nbr = tol.nbr
    los, ups = array("Q", [0]), array("Q", [0])
    for y in range(tol.n):
        ups.extend(array("Q", map(or_, ups, repeat(nbr[y]))))
        # only an x whose R(x) lies within the points 0..y can have R(x) ⊆ X
        ext = array("Q", los)
        for x in bits(nbr[y]):
            need = nbr[x] & ~(1 << y)
            if need >> y == 0:
                ext = array("Q", [lo | 1 << x if X & need == need else lo for X, lo in enumerate(ext)])
        los.extend(ext)
    full = (1 << tol.n) - 1
    # duality: full ^ lower(X) = upper(full ^ X), where full ^ X runs through
    # the masks backwards as X runs forwards; sandwich: lower(X) ⊆ X ⊆ upper(X)
    if (not all(map(eq, map(xor, los, repeat(full)), reversed(ups)))
            or any(map(and_, los, map(invert, count())))
            or any(map(and_, count(), map(invert, ups)))):
        for X in range(full + 1):
            if los[X] ^ full != ups[X ^ full]:
                raise FormulaMismatch("approximation duality", {"X": X})
            if los[X] & ~X or X & ~ups[X]:
                raise FormulaMismatch("reflexive sandwich", {"X": X})
    return los, ups


def _powerset_pairs(tol: Tolerance):
    los, ups = _approximation_table(tol)
    return sorted(set(zip(los, ups)))


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
    """All joins of the block-derived join-irreducibles, one per downset.

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
    closure = Memo(tol.closure)
    seen = set()
    # ji is sorted, and a coordinatewise smaller pair sorts first, so the
    # highest element of a downset d is maximal in it: d without it is a
    # smaller downset, listed earlier, whose unions are already known
    unions = {0: (0, 0)}
    for d in downsets(rough_order(ji, tol.n)):
        if d:
            top = d.bit_length() - 1
            lo, up = unions[d ^ 1 << top]
            a, b = ji[top]
            unions[d] = (lo | a, up | b)
        lo, up = unions[d]
        pair = (closure[lo], up)
        if pair in seen:
            raise FormulaMismatch("two downsets share a join", {"pair": pair})
        seen.add(pair)
    return sorted(seen)


def _codes(pairs, n_points: int) -> list:
    """Each rough pair (lo, up) as the one set lo ∪ (up shifted past the
    points), so that the coordinatewise order is inclusion of codes."""
    return [lo | up << n_points for lo, up in pairs]


def rough_order(pairs, n_points: int) -> list:
    """The coordinatewise order of rough pairs on n_points points, as down-masks
    (inclusion_below of their codes)."""
    return inclusion_below(_codes(pairs, n_points), 2 * n_points)


def rough_lattice(labels, pairs, n_points: int):
    """inclusion_lattice of the codes of the rough pairs: (Lattice, meet_of,
    join_of), keyed by the intersection and the union of two codes.  A
    NotALattice names the rough pairs of its first bad pair."""
    try:
        return inclusion_lattice(labels, _codes(pairs, n_points), 2 * n_points)
    except NotALattice as exc:
        i, j = exc.pair
        raise NotALattice((pairs[i], pairs[j]), exc.kind) from None


def _check_formulas(tol: Tolerance, pairs, meet_of, join_of):
    """Raise FormulaMismatch unless every keyed meet and join is its closed
    form: (a, b) ∧ (c, d) = (a ∩ c, upper(lower(b ∩ d))) and
    (a, b) ∨ (c, d) = (lower(upper(a ∪ c)), b ∪ d).

    Both forms read only the key of the pair: the intersection s of the two
    codes gives a ∩ c = s & low and b ∩ d = s >> U, and the union t gives
    a ∪ c and b ∪ d the same way.  The glb and lub depend on those keys
    alone too, so one test per entry of meet_of and join_of covers every
    pair through its key.  The emitted lattice.meet and lattice.join rows
    are not read here: they are assembled from the same keyed cells by
    posets._tables, the row assembly Lattice.from_poset shares, which the
    reference tests check against a per-pair scan.  Only when some key
    fails are the pairs scanned, row by row and each row in full, for the
    first pair whose key failed, meet before join: the pair and formula of
    a row-major scan of the full tables.
    """
    U, low = tol.n, (1 << tol.n) - 1
    interior, closure = Memo(tol.interior), Memo(tol.closure)

    def meet_formula(s):
        return (s & low, interior[s >> U])

    def join_formula(t):
        return (closure[t & low], t >> U)

    bad_meets = {s for s, m in meet_of.items() if pairs[m] != meet_formula(s)}
    bad_joins = {t for t, m in join_of.items() if pairs[m] != join_formula(t)}
    if bad_meets or bad_joins:
        codes = _codes(pairs, U)
        for i, ci in enumerate(codes):
            for j, cj in enumerate(codes):
                if ci & cj in bad_meets:
                    raise FormulaMismatch(
                        "meet", {"pair": (pairs[i], pairs[j]), "formula": meet_formula(ci & cj)}
                    )
                if ci | cj in bad_joins:
                    raise FormulaMismatch(
                        "join", {"pair": (pairs[i], pairs[j]), "formula": join_formula(ci | cj)}
                    )


def _assemble(tol: Tolerance, pairs, covering: Covering | None):
    """The rough-set algebra on the sorted pair set, with every check run.

    The order and both tables come from rough_lattice, which raises
    NotALattice when the order has no meet or join for some pair.  The
    keyed meet and join of every pair are checked against their closed
    forms (_check_formulas), neg, star and plus against the pair set, and, for a tolerance induced
    by an irredundant covering, the Kleene and regularity battery.
    covering is induced_irredundant_covering(tol), found once by the
    caller; the algebra carries it as rs.covering.
    """
    labels = [fmt_pair(pr, tol.labels) for pr in pairs]
    lattice, meet_of, join_of = rough_lattice(labels, pairs, tol.n)
    _check_formulas(tol, pairs, meet_of, join_of)
    index = {pr: i for i, pr in enumerate(pairs)}
    full = (1 << tol.n) - 1
    neg, star, plus = [], [], []
    for lo, up in pairs:
        for target, source in ((neg, (full & ~up, full & ~lo)),
                               (star, approximations(tol, full & ~up)),
                               (plus, approximations(tol, full & ~lo))):
            i = index.get(source)
            if i is None:
                raise FormulaMismatch("unary operation leaves the pair set", {"value": source})
            target.append(i)
    neg, star, plus = tuple(neg), tuple(star), tuple(plus)
    demorgan = doublep = ji = None
    if covering is not None:
        from .posets import join_irreducibles

        demorgan = validate_demorgan(lattice, neg)
        doublep = compute_pseudocomplements(lattice)
        ji = join_irreducibles(lattice)
        report = demorgan_pseudo_report(demorgan, doublep, ji)
        if not report.k:
            raise FormulaMismatch(
                "irredundant rough algebra is not Kleene", {"witness": report.k_witness}
            )
        if doublep.star != star or doublep.plus != plus:
            raise FormulaMismatch(
                "pseudocomplement formulas",
                {"star": doublep.star == star, "plus": doublep.plus == plus},
            )
        if not report.regular:
            raise FormulaMismatch("irredundant rough algebra is not regular", {})
    return RoughSetAlgebra(
        tol, tuple(pairs), index, lattice, neg, star, plus, covering, demorgan, doublep, ji
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
    pairs = _powerset_pairs(tol) if cov is None else join_closure_pairs(tol, cov)
    return _assemble(tol, pairs, cov)


def build_rs_spatial(tol: Tolerance) -> RoughSetAlgebra:
    """The downset route of build_rs alone: any tolerance that no
    irredundant covering induces raises ToleranceError.  No builder of the
    package calls it; it stays as the name the benchmark's tracer wraps.
    """
    cov = induced_irredundant_covering(tol)
    return _assemble(tol, join_closure_pairs(tol, cov), cov)


@dataclass(frozen=True)
class RSJoinIrreducibles:
    members: tuple       # pair values, sorted
    atoms: tuple         # pair values, sorted
    lattice_members: tuple
    lattice_atoms: tuple


def rs_join_irreducibles(rs: RoughSetAlgebra) -> RSJoinIrreducibles:
    """Join-irreducibles of the rough lattice, computed from the order and
    from the block formulas, with both routes required to agree."""
    if rs.covering is None:
        raise ToleranceError("join-irreducible formulas need an irredundant covering")
    tol, cov = rs.tolerance, rs.covering
    formula = formula_join_irreducibles(tol, cov)
    from_lattice = sorted(rs.pairs[j] for j in rs.ji.members)
    if formula != from_lattice:
        raise FormulaMismatch(
            "join-irreducibles", {"formula": formula, "lattice": from_lattice}
        )
    atom_formula = sorted(
        {(b, b) for b in cov.blocks if b.bit_count() == 1}
        | {(0, b) for b in cov.blocks if b.bit_count() >= 2}
    )
    lattice_atoms = sorted(rs.pairs[a] for a in rs.ji.atoms)
    if atom_formula != lattice_atoms:
        raise FormulaMismatch("atoms", {"formula": atom_formula, "lattice": lattice_atoms})
    return RSJoinIrreducibles(tuple(formula), tuple(atom_formula),
                              tuple(from_lattice), tuple(lattice_atoms))


def rs_g_map(rs: RoughSetAlgebra) -> dict:
    """The self-dual map on the rough join-irreducibles, checked against its
    closed form: (empty,B) and the rough pair of B swap; singleton blocks
    give fixed points."""
    if rs.covering is None:
        raise ToleranceError("gmap formulas need an irredundant covering")
    g = compute_g(rs.demorgan, rs.ji)
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


@dataclass(frozen=True)
class IsolatedBlockReport:
    block: int
    uniform_neighborhoods: bool
    exact_pair: bool
    single_atom_below: bool

    @property
    def isolated(self):
        return self.uniform_neighborhoods


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
        out.append(IsolatedBlockReport(b, uniform, exact, single))
    return out


def powerset_images(tol: Tolerance):
    """The sorted images of lower and upper over the whole powerset."""
    los, ups = _approximation_table(tol)
    return sorted(set(los)), sorted(set(ups))


def powerset_image_report(tol: Tolerance, cov: Covering | None):
    """For irredundant-covering tolerances: both images are atomistic Boolean
    lattices with the block cores / blocks as atoms and the stated
    double-approximation complements.  cov is
    induced_irredundant_covering(tol); None raises ToleranceError."""
    if cov is None:
        raise ToleranceError("image analysis needs an irredundant covering")
    los, ups = powerset_images(tol)
    full = (1 << tol.n) - 1
    lo_atoms = sorted({tol.lower(b) for b in cov.blocks})
    up_atoms = sorted(cov.blocks)
    for image, atoms, closure in (
        (los, lo_atoms, tol.closure),
        (ups, up_atoms, tol.interior),
    ):
        members = set(image)
        for a in atoms:
            if a not in members:
                raise FormulaMismatch("atom missing from image", {"atom": a})
        for s in image:
            span = [a for a in atoms if a & ~s == 0]
            joined = 0
            for a in span:
                joined |= a
            if closure(joined) != s:
                raise FormulaMismatch("image not atomistic", {"element": s})
    for s in los:
        comp = tol.lower(full & ~s)
        if comp not in set(los) or s & comp or tol.lower(tol.upper(s | comp)) != tol.lower(full):
            raise FormulaMismatch("lower-image complement", {"element": s})
    for s in ups:
        comp = tol.upper(full & ~s)
        if comp not in set(ups) or s | comp != tol.upper(full) or tol.upper(tol.lower(s & comp)) != 0:
            raise FormulaMismatch("upper-image complement", {"element": s})
    return los, ups


def skeleton_isomorphism_report(rs: RoughSetAlgebra):
    """The star skeleton mirrors the upper image under reversed inclusion via
    B -> rough pair of B-complement; dually for the plus skeleton and the
    lower image.

    The images are the projections of the rough pairs, which are the
    (lower X, upper X) of every X; powerset_image_report sweeps the powerset
    for them independently."""
    if rs.covering is None:
        raise ToleranceError("skeleton analysis needs an irredundant covering")
    tol = rs.tolerance
    full = (1 << tol.n) - 1
    los = sorted({lo for lo, _ in rs.pairs})
    ups = sorted({up for _, up in rs.pairs})
    star_image = sorted({rs.star[i] for i in range(rs.n)})
    plus_image = sorted({rs.plus[i] for i in range(rs.n)})
    for image, target, name in ((ups, star_image, "star"), (los, plus_image, "plus")):
        mapped = {}
        for b in image:
            mapped[b] = rs.index[approximations(tol, full & ~b)]
        if sorted(set(mapped.values())) != target:
            raise FormulaMismatch(f"{name} skeleton image", {})
        for b in image:
            for c in image:
                if (b | c == b) != rs.lattice.leq(mapped[b], mapped[c]):
                    raise FormulaMismatch(
                        f"{name} skeleton order", {"pair": (b, c)}
                    )
    return {"star": len(star_image), "plus": len(plus_image)}


# The checks that verify and the covering sweep both run on a built algebra
# whose tolerance an irredundant covering induces, by output name.  Each
# looks its function up in this module when it runs, so a wrapper or a
# patch installed here is what both outputs run.
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
