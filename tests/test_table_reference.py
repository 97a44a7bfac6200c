"""The lattice layer against its pairwise definitions.

Each reference function below is the plain loop the library used to run:
every ordered pair in ascending order, stopping at the first failure.  The
library now answers meet and join by the keys of each pair, builds the
coordinatewise order bit-sliced and the 2^U sweep in columns, and must
return the same cells, verdicts and first witnesses.  Every lattice is
built from the keys of its pairs, one lookup per distinct intersection or
union of codes, by inclusion_lattice or Lattice.from_poset, and is
compared with inclusion_below, Poset and the per-pair scan ref_tables; the
rough formula check runs once per such key and is compared with the
per-pair scan it replaced.  The rows the references index
are read pair by pair (conftest.rows).
"""

import importlib
import random
import tracemalloc
from array import array
from functools import reduce
from operator import or_

import pytest
from conftest import isomorphisms, reversed_ids, rows, two_level_fixture, two_level_jposet

from roughkleene import posets
from roughkleene.demorgan import (
    DeMorgan,
    DeMorganError,
    GNotJoinIrreducible,
    _check_j1_j2,
    antitone_involutions,
    build_kleene_from_jposet,
    compute_g,
    is_kleene,
    neg_from_g,
    validate_demorgan,
)
from roughkleene.generators import (
    all_distributive_lattices,
    all_lattices,
    all_tolerances,
    irredundant_coverings,
    product_of_chains,
    random_two_level_structure,
)
from roughkleene.generators import _grow_posets_bounded
from roughkleene.posets import (
    Lattice,
    NotALattice,
    Poset,
    PosetError,
    bits,
    codes_within,
    downset_lattice,
    downsets,
    first_not_below,
    has_two_levels,
    inclusion_below,
    inclusion_lattice,
    is_distributive,
    join_irreducibles,
    mask_of,
    point_unions,
    pulled_back,
    transpose,
)
from roughkleene.pseudo import (
    DoubleP,
    NoPseudocomplement,
    PseudoError,
    _check_p_laws,
    _fold_pseudocomplements,
    _j_pseudocomplements,
    _star_antitone,
    compute_pseudocomplements,
    demorgan_pseudo_report,
    is_regular,
)
from roughkleene.represent import (
    IsoCheckFailed,
    NotKleene,
    NotRegular,
    _order_isomorphism,
    extend_iso,
    join_extension,
    represent,
)
from roughkleene import rough
from roughkleene.reports import verify_report
from roughkleene.rough import (
    Covering,
    FormulaMismatch,
    Tolerance,
    _approximation_table,
    _assemble,
    _closed_forms_hold,
    _codes,
    _powerset_pairs,
    _powerset_table,
    _reversal_witness,
    approximations,
    build_rs,
    join_closure_pairs,
    powerset_images,
    rough_lattice,
    rough_order,
    tolerance_from_covering,
)


def ref_rough_order(pairs):
    return [
        mask_of(k for k, (lo2, up2) in enumerate(pairs) if lo2 & ~lo == 0 and up2 & ~up == 0)
        for lo, up in pairs
    ]


def ref_tables(p):
    """("ok", meet, join, bottom, top), or (kind, pair) of the first bad
    ordered pair."""
    n = p.n
    below_id = {p.below[i]: i for i in range(n)}
    above_id = {p.above[i]: i for i in range(n)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            m = below_id.get(p.below[i] & p.below[j])
            if m is None:
                return "meet", (min(i, j), max(i, j))
            meet[i][j] = m
            jn = above_id.get(p.above[i] & p.above[j])
            if jn is None:
                return "join", (min(i, j), max(i, j))
            join[i][j] = jn
    bottom = next(i for i in range(n) if all(p.leq(i, k) for k in range(n)))
    top = next(i for i in range(n) if all(p.leq(k, i) for k in range(n)))
    return "ok", tuple(map(tuple, meet)), tuple(map(tuple, join)), bottom, top


def tables(p):
    try:
        lat = Lattice.from_poset(p)
    except NotALattice as exc:
        return exc.kind, exc.pair
    return "ok", *rows(lat), lat.bottom, lat.top


def ref_p_laws(dp):
    """The message of the first failing law, or None."""
    lat, star, plus = dp.lattice, dp.star, dp.plus
    meet, join = rows(lat)
    for a in range(lat.n):
        sa = star[a]
        if star[star[sa]] != sa:
            return f"a* != a*** at {a}"
        if not lat.leq(a, star[sa]):
            return f"a <= a** fails at {a}"
        if plus[plus[plus[a]]] != plus[a]:
            return f"a+ != a+++ at {a}"
        if not lat.leq(plus[plus[a]], a):
            return f"a++ <= a fails at {a}"
        for b in range(lat.n):
            if lat.leq(a, b) and not lat.leq(star[b], sa):
                return f"star not antitone at ({a},{b})"
            if star[join[a][b]] != meet[sa][star[b]]:
                return f"(a v b)* != a* ^ b* at ({a},{b})"
            if not lat.leq(join[sa][star[b]], star[meet[a][b]]):
                return f"(a ^ b)* >= a* v b* fails at ({a},{b})"
    return None


def p_laws(dp):
    try:
        _check_p_laws(dp)
    except PseudoError as exc:
        return str(exc)
    return None


def ref_extend_iso(dm, dp, phi, rs, swap=None):
    """(iso, checks), or (operation, witness) of the first failing check.
    swap, a dict of target ids, is applied to every value of the join
    extension, to model a wrong one."""
    lat, target = dm.lattice, rs.lattice
    ji = lat.ji
    n = lat.n
    swap = swap or {}
    (meet, join), (target_meet, target_join) = rows(lat), rows(target)
    joins = (target.join_all(phi[j] for j in range(n) if j in ji and lat.leq(j, x))
             for x in range(n))
    iso = tuple(swap.get(v, v) for v in joins)
    if sorted(iso) != list(range(rs.n)):
        return "bijectivity", {"image_size": len(set(iso)), "target": rs.n}
    if iso[lat.bottom] != target.bottom or iso[lat.top] != target.top:
        return "bounds", {}
    checks = dict.fromkeys(("meet", "join", "neg", "star", "plus", "order"), 0)
    for x in range(n):
        for op, src, dst in (("neg", dm.neg, rs.neg), ("star", dp.star, rs.star),
                             ("plus", dp.plus, rs.plus)):
            if dst[iso[x]] != iso[src[x]]:
                return op, {"x": x}
            checks[op] += 1
        for y in range(n):
            if iso[meet[x][y]] != target_meet[iso[x]][iso[y]]:
                return "meet", {"pair": (x, y)}
            if iso[join[x][y]] != target_join[iso[x]][iso[y]]:
                return "join", {"pair": (x, y)}
            if lat.leq(x, y) != target.leq(iso[x], iso[y]):
                return "order", {"pair": (x, y)}
            checks["meet"] += 1
            checks["join"] += 1
            checks["order"] += 1
    return iso, checks


def iso_outcome(dm, dp, phi, rs):
    try:
        return extend_iso(dm, dp, phi, rs)
    except IsoCheckFailed as exc:
        return exc.operation, exc.witness


def small_tolerances(max_points=5):
    for n in range(1, max_points + 1):
        for _, tol in all_tolerances(n):
            yield tol


def seeded_tolerances(count=40):
    rng = random.Random(6)
    for _ in range(count):
        n = rng.randint(6, 9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        yield Tolerance.from_pairs([str(i) for i in range(n)], edges)


def partition(k):
    return tolerance_from_covering(
        Covering([str(i) for i in range(2 * k)], [3 << 2 * i for i in range(k)])
    )


def path(b):
    """Blocks {0,1,2}, {2,3,4}, ...: b blocks on 2b+1 points."""
    return tolerance_from_covering(
        Covering([str(i) for i in range(2 * b + 1)], [7 << 2 * i for i in range(b)])
    )


def via_poset(labels, sets, width):
    """The reference route: the order, its transpose in Poset, then the
    per-pair scan ref_tables."""
    p = Poset(labels, inclusion_below(sets, width))
    outcome = ref_tables(p)
    if outcome[0] != "ok":
        return outcome
    return "ok", p.below, p.above, *outcome[1:]


def keyed(labels, sets, width):
    """inclusion_lattice's outcome in via_poset's shape, after checking that
    its codes are the sets and that its key maps hold the keys of the pairs
    and no other."""
    try:
        lat = inclusion_lattice(labels, sets, width)
    except NotALattice as exc:
        return exc.kind, exc.pair
    assert lat.meet_codes == lat.join_codes == tuple(sets)
    meet, join = rows(lat)
    meet_keys, join_keys = {}, {}
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert meet_keys.setdefault(a & b, meet[i][j]) == meet[i][j]
            assert join_keys.setdefault(a | b, join[i][j]) == join[i][j]
    assert (lat.meets, lat.joins) == (meet_keys, join_keys)
    p = lat.poset
    return "ok", p.below, p.above, meet, join, lat.bottom, lat.top


def rough_outcomes(tol, pairs=None):
    """(keyed, via_poset) on the codes of a tolerance's rough pairs."""
    if pairs is None:
        pairs = _powerset_pairs(tol)
    labels = [str(k) for k in range(len(pairs))]
    codes = _codes(pairs, tol.n)
    return keyed(labels, codes, 2 * tol.n), via_poset(labels, codes, 2 * tol.n)


def ref_formula_scan(tol, pairs, lattice):
    """The per-pair check _assemble ran before it was keyed: every pair
    j >= i of each row, then the first failing row in full, meet before
    join."""
    interior, closure = tol.interior, tol.closure
    meet, join = rows(lattice)
    failing = {
        i
        for i, (a, b) in enumerate(pairs)
        for m, jn, (c, d) in zip(meet[i][i:], join[i][i:], pairs[i:])
        if pairs[m] != (a & c, interior(b & d)) or pairs[jn] != (closure(a | c), b | d)
    }
    if failing:
        i = min(failing)
        (a, b), meet_i, join_i = pairs[i], meet[i], join[i]
        for j, (c, d) in enumerate(pairs):
            want = (a & c, interior(b & d))
            if pairs[meet_i[j]] != want:
                raise FormulaMismatch("meet", {"pair": (pairs[i], pairs[j]), "formula": want})
            want = (closure(a | c), b | d)
            if pairs[join_i[j]] != want:
                raise FormulaMismatch("join", {"pair": (pairs[i], pairs[j]), "formula": want})


class OneKeyBent(Tolerance):
    """A tolerance whose interior, closure or both are wrong at one key."""

    __slots__ = ("which", "key")

    def interior(self, X):
        value = super().interior(X)
        return value ^ 1 if self.which != "closure" and X == self.key else value

    def closure(self, X):
        value = super().closure(X)
        return value ^ 1 if self.which != "interior" and X == self.key else value


def mismatch(fn, *args):
    with pytest.raises(FormulaMismatch) as info:
        fn(*args)
    return str(info.value), info.value.details


class TestTables:
    def test_rough_orders_up_to_five_points(self):
        """Every tolerance order on up to 5 points, 60 of them no lattice."""
        kinds = {"ok": 0, "meet": 0, "join": 0}
        for tol in small_tolerances():
            pairs = sorted({approximations(tol, X) for X in range(1 << tol.n)})
            below = rough_order(pairs, tol.n)
            assert below == ref_rough_order(pairs)
            p = Poset([str(k) for k in range(len(pairs))], below)
            outcome = tables(p)
            assert outcome == ref_tables(p)
            kinds[outcome[0]] += 1
        assert kinds["meet"] + kinds["join"] == 60

    def test_sub_orders_of_a_boolean_lattice(self):
        """Seeded induced sub-orders of 2^4: most are no lattice, of either kind."""
        rng = random.Random(4)
        kinds = set()
        for _ in range(300):
            members = sorted(rng.sample(range(16), rng.randint(1, 12)))
            below = [mask_of(k for k, s in enumerate(members) if s & ~t == 0) for t in members]
            p = Poset([str(s) for s in members], below)
            outcome = tables(p)
            assert outcome == ref_tables(p)
            kinds.add(outcome[0])
        assert kinds == {"ok", "meet", "join"}

    @pytest.mark.parametrize("lattice", [
        pytest.param(lambda: list(all_lattices(8)), id="all-lattices-8"),
        pytest.param(lambda: [build_rs(partition(5)).lattice], id="partition-5"),
    ])
    def test_tables_are_symmetric(self, lattice):
        for lat in lattice():
            meet, join = rows(lat)
            assert meet == tuple(zip(*meet))
            assert join == tuple(zip(*join))


class TestInclusionLattice:
    def test_rough_orders_up_to_five_points(self):
        """Every tolerance order on up to 5 points, 60 of them no lattice:
        the same NotALattice pair and kind."""
        kinds = {"ok": 0, "meet": 0, "join": 0}
        for tol in small_tolerances():
            got, want = rough_outcomes(tol)
            assert got == want
            kinds[got[0]] += 1
        assert kinds["meet"] + kinds["join"] == 60

    def test_seeded_tolerances(self):
        for tol in seeded_tolerances():
            got, want = rough_outcomes(tol)
            assert got == want

    @pytest.mark.parametrize("tol", [
        *(pytest.param(partition(k), id=f"partition-{k}") for k in range(1, 7)),
        *(pytest.param(path(b), id=f"path-{b}") for b in range(1, 8)),
    ])
    def test_partitions_and_paths(self, tol):
        got, want = rough_outcomes(tol)
        assert got[0] == "ok"
        assert got == want

    def test_distributive_lattices_up_to_ten(self):
        """Every lattice of all_distributive_lattices(10), whose order is
        inclusion of downsets, against the per-pair scan on the same
        downsets."""
        count = 0
        for below, lat in zip(_grow_posets_bounded(9, 10), all_distributive_lattices(10)):
            ds = downsets(below)
            ds.sort(key=lambda d: (d.bit_count(), d))
            labels = [f"d{i}" for i in range(len(ds))]
            got, want = keyed(labels, ds, len(below)), via_poset(labels, ds, len(below))
            assert got == want
            p = lat.poset
            assert (p.labels, p.below, p.above, *rows(lat), lat.bottom, lat.top) == (
                tuple(labels), *want[1:]
            )
            count += 1
        assert count == sum(1 for _ in all_distributive_lattices(10))

    def test_build_rs_stores_no_rows(self):
        """The lattice keeps its key maps and no P×P rows: build_rs on the
        k=6 partition (P=729) peaks at most at a fifth of the 13.2 MB that
        tracemalloc saw when its lattice stored both tables as rows."""
        tol = partition(6)
        tracemalloc.start()
        try:
            build_rs(tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 13.2e6 / 5


class TestFromPoset:
    def test_every_poset_up_to_six_points(self):
        """Lattice.from_poset on every poset with 1 to 6 points, up to
        isomorphism: the cells, bottom and top of the per-pair scan, or its
        first bad pair and kind.  25 of them are lattices."""
        kinds = {"ok": 0, "meet": 0, "join": 0}
        for below in _grow_posets_bounded(6, 1 << 6):
            if not below:
                continue
            p = Poset([str(k) for k in range(len(below))], below)
            outcome = tables(p)
            assert outcome == ref_tables(p)
            kinds[outcome[0]] += 1
        assert kinds["ok"] == 25 and kinds["meet"] and kinds["join"]

    def test_small_poset_on_a_long_chain(self):
        """A 48-element chain with 3 more elements above its top and 3
        below its bottom, in 40 seeded orders: the outcome of the per-pair
        scan.  Only the 6 can form a bad pair, so each first bad pair lies
        in row 48 or later, past the first chunk (16 rows) of the key
        streams."""
        rng = random.Random(13)
        kinds = set()
        for _ in range(40):
            covers = [(i, i + 1) for i in range(47)]
            for e in range(48, 51):
                covers += [(d, e) for d in range(47, e) if rng.random() < 0.4] or [(47, e)]
            for e in range(51, 54):
                covers += [(e, d) for d in (0, *range(51, e)) if rng.random() < 0.4] or [(e, 0)]
            p = Poset.from_covers([str(k) for k in range(54)], covers)
            outcome = tables(p)
            assert outcome == ref_tables(p)
            kinds.add(outcome[0])
        assert {"meet", "join"} <= kinds

    def test_no_lattice_stops_near_its_first_bad_pair(self):
        """300 seeded tops over 300 atoms, no two with one glb: NotALattice
        at (0, 1), and a tracemalloc peak under 2.5 MB.  Streaming the keys
        of every pair before looking any up peaked at 25 MB."""
        rng = random.Random(5)
        below = [1 << i for i in range(300)]
        below += [rng.getrandbits(300) | 1 << 300 + t for t in range(300)]
        p = Poset([str(k) for k in range(600)], below)
        tracemalloc.start()
        try:
            with pytest.raises(NotALattice) as err:
                Lattice.from_poset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (err.value.pair, err.value.kind) == ((0, 1), "meet")
        assert peak <= 2.5e6

    @pytest.mark.parametrize("atoms", [2, 30, 400])
    def test_wide_lattice_keeps_one_key_per_element(self, atoms):
        """M_n, n atoms between a bottom and a top: each key map holds at
        most one key per element, and at 400 atoms the build peaks under
        1 MB of tracemalloc.  Keying the joins by unions of downsets would
        hold the n²/2 unions of two atoms, and the per-pair cells of both
        tables took 4.1 MB."""
        below = [1, *(1 | 1 << i for i in range(1, atoms + 1)), (1 << atoms + 2) - 1]
        p = Poset([str(k) for k in range(atoms + 2)], below)
        tracemalloc.start()
        try:
            lat = Lattice.from_poset(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(lat.meets) <= lat.n and len(lat.joins) <= lat.n
        assert peak <= 1e6
        if atoms <= 30:
            assert tables(p) == ref_tables(p)

    def test_empty_poset(self):
        with pytest.raises(NotALattice) as err:
            Lattice.from_poset(Poset([], []))
        assert (err.value.pair, err.value.kind) == ((None, None), "meet")


class TestFormulaKeys:
    def test_one_bent_key(self):
        """interior, closure or both wrong at one key, for every key of
        every tolerance order on up to 4 points that is a lattice: the same
        FormulaMismatch text and details as the per-pair scan.  Bending
        both at once makes some cell fail both forms, where meet comes
        first."""
        kinds = set()
        for tol in [*small_tolerances(4), partition(3), path(2)]:
            pairs = _powerset_pairs(tol)
            try:
                lattice = rough_lattice([str(k) for k in range(len(pairs))], pairs, tol.n)
            except NotALattice:
                continue
            ref_formula_scan(tol, pairs, lattice)
            keys = {
                "interior": {b & d for _, b in pairs for _, d in pairs},
                "closure": {a | c for a, _ in pairs for c, _ in pairs},
            }
            keys["both"] = keys["interior"] | keys["closure"]
            for which, values in keys.items():
                for key in sorted(values):
                    bent = OneKeyBent(tol.labels, tol.nbr)
                    bent.which, bent.key = which, key
                    got = mismatch(_assemble, bent, pairs, None)
                    assert got == mismatch(ref_formula_scan, bent, pairs, lattice)
                    kinds.add(got[0].split(":")[0])
        assert kinds == {"meet", "join"}


class TestPLaws:
    @pytest.mark.parametrize("field", ["star", "plus"])
    def test_two_values_swapped(self, field):
        failed = 0
        for lat in [*all_distributive_lattices(8), *map(reversed_ids, all_distributive_lattices(8))]:
            dp = compute_pseudocomplements(lat)
            for u in range(lat.n):
                for v in range(u + 1, lat.n):
                    maps = {"star": list(dp.star), "plus": list(dp.plus)}
                    values = maps[field]
                    values[u], values[v] = values[v], values[u]
                    bent = DoubleP(lat, maps["star"], maps["plus"])
                    message = p_laws(bent)
                    assert message == ref_p_laws(bent)
                    failed += message is not None
        assert failed > 100


    @pytest.mark.parametrize("lattices", [
        pytest.param(lambda: all_lattices(8), id="all-lattices-8"),
        pytest.param(lambda: [build_rs(partition(4)).lattice], id="partition-4"),
    ])
    def test_pair_scan_is_skipped_when_the_premises_hold(self, lattices):
        """With star antitone and a <= a** on every element the pair laws
        follow, so a valid DoubleP passes even when neither key map of its
        lattice can be read.  The lattices without pseudocomplements are
        skipped; the non-distributive ones with both maps are kept."""
        checked = 0
        for lat in lattices():
            try:
                dp = compute_pseudocomplements(lat)
            except PseudoError:
                continue
            assert ref_p_laws(dp) is None
            guarded = Lattice(lat.poset, lat.meet_codes, lat.join_codes, Unreadable(), Unreadable(),
                              lat.bottom, lat.top)
            _check_p_laws(DoubleP(guarded, dp.star, dp.plus))
            checked += 1
        assert checked > 0

    def test_one_star_value_bent(self):
        """star[u] set to every other value v, on every distributive lattice
        up to 8 elements in both id orders: the message of the full scan."""
        messages = set()
        for lat in [*all_distributive_lattices(8), *map(reversed_ids, all_distributive_lattices(8))]:
            dp = compute_pseudocomplements(lat)
            for u in range(lat.n):
                for v in range(lat.n):
                    if v == dp.star[u]:
                        continue
                    star = list(dp.star)
                    star[u] = v
                    bent = DoubleP(lat, star, dp.plus)
                    message = p_laws(bent)
                    assert message == ref_p_laws(bent)
                    messages.add(message and message.split(" at ")[0])
        assert messages == {
            None, "a* != a***", "a <= a** fails", "star not antitone",
            "(a v b)* != a* ^ b*", "(a ^ b)* >= a* v b* fails",
        }


class Unreadable:
    """A key map whose entries raise when read."""

    def __getitem__(self, key):
        raise AssertionError(f"key {key} was read")


def ref_approximations(tol, X):
    """(lower(X), upper(X)) by their definitions, one step per point: the x
    with R(x) ⊆ X, and the x with R(x) ∩ X ≠ ∅."""
    lo = up = 0
    for x, r in enumerate(tol.nbr):
        if r & ~X == 0:
            lo |= 1 << x
        if r & X:
            up |= 1 << x
    return lo, up


def path_and_singleton():
    """The 7-block path plus the singleton block {15}: 16 points, at
    POWERSET_CAP."""
    return tolerance_from_covering(
        Covering([str(i) for i in range(16)], [7 << 2 * i for i in range(7)] + [1 << 15])
    )


def mutated(tol, x, y):
    """tol with y toggled in R(x), past the checks of the constructor."""
    nbr = list(tol.nbr)
    nbr[x] ^= 1 << y
    tol.nbr = tuple(nbr)
    return tol


def relabelled(tol, rng):
    """tol with its points in a seeded order."""
    perm = rng.sample(range(tol.n), tol.n)
    nbr = [0] * tol.n
    for x, r in enumerate(tol.nbr):
        nbr[perm[x]] = mask_of(perm[y] for y in bits(r))
    return Tolerance(tol.labels, nbr)


class TestPowerset:
    def test_against_per_subset_approximations(self):
        """The table, its pairs and its images against the definitions,
        from U = 0 to the verify-large ladder, in two seeded relabellings,
        and one covering at the cap.  The distinct pairs are found over one
        int code per subset (_powerset_table), the images are their
        projections, and they equal the sets of the subsets' tuples."""
        rng = random.Random(25)
        ladder = [*map(partition, (4, 5, 6)), *map(path, (4, 5, 6, 7)), path_and_singleton()]
        relabellings = [relabelled(tol, rng) for tol in ladder[:-1] for _ in range(2)]
        counts = []
        for tol in [Tolerance([], []), *small_tolerances(), *seeded_tolerances(), *relabellings,
                    *ladder]:
            subsets = [ref_approximations(tol, X) for X in range(1 << tol.n)]
            assert list(zip(*_approximation_table(tol))) == subsets
            pairs = _powerset_pairs(tol)
            assert pairs == sorted(set(subsets))
            assert powerset_images(tol) == (
                sorted({lo for lo, _ in subsets}), sorted({up for _, up in subsets})
            )
            counts.append(len(pairs))
        empty = _approximation_table(Tolerance([], []))
        assert empty == (array("I", [0]), array("I", [0]))
        assert [table.itemsize for table in empty] == [4, 4]
        assert counts[-len(ladder):] == [81, 243, 729, 41, 99, 239, 577, 1154]

    def test_image_report_calls_no_tolerance_method(self, monkeypatch):
        """powerset_image_report reads every lower, upper, closure and
        interior from the table: on the 522 coverings, with the Tolerance
        methods refused, it returns the projections of the pairs."""
        def refuse(self, X):
            raise AssertionError("a Tolerance method ran")

        count = 0
        for n in range(1, 6):
            for cov in irredundant_coverings(n):
                pairs = build_rs(cov.tolerance).pairs
                with monkeypatch.context() as patch:
                    for name in ("lower", "upper", "closure", "interior"):
                        patch.setattr(Tolerance, name, refuse)
                    images = rough.powerset_image_report(cov.tolerance, cov)
                assert images == (sorted({lo for lo, _ in pairs}), sorted({up for _, up in pairs}))
                count += 1
        assert count == 522

    def test_lower_and_upper_against_definitions(self):
        for tol in [*small_tolerances(), *seeded_tolerances()]:
            for X in range(1 << tol.n):
                assert (tol.lower(X), tol.upper(X)) == ref_approximations(tol, X)

    @pytest.mark.parametrize("tol", [partition(8), path_and_singleton()], ids=["partition", "path"])
    def test_four_byte_codes_at_the_cap(self, tol):
        """At U = 16 each lower set shifted by 16 reaches bit 31 of its
        4-byte code, and the codes still give the distinct pairs."""
        los, ups, pairs = _powerset_table(tol)
        assert tol.n == 16 and los.itemsize == ups.itemsize == 4
        assert max(los) >> 15 == 1
        assert pairs == sorted(set(zip(los, ups)))

    @pytest.mark.parametrize("blocks, x, y, what, X", [
        (2, 0, 1, "approximation duality", 5),
        (7, 12, 13, "approximation duality", 23552),
        (2, 2, 2, "reflexive sandwich", 4),
        (7, 12, 12, "reflexive sandwich", 4096),
    ])
    def test_a_broken_relation_fails_its_check(self, blocks, x, y, what, X):
        """Dropping y from R(x) makes the relation asymmetric (x != y) or
        not reflexive (x == y); the sweep names the first bad subset."""
        with pytest.raises(FormulaMismatch) as info:
            _approximation_table(mutated(path(blocks), x, y))
        assert str(info.value) == f"{what}: {{'X': {X}}}"
        assert info.value.details == {"X": X}


def ref_union(tol, X):
    """The union of R(u) over the points u of X, one OR per point."""
    out = 0
    for u in bits(X):
        out |= tol.nbr[u]
    return out


def ref_four(tol, X):
    """lower, upper, closure and interior of X by their definitions."""
    lower = lambda Y: ref_approximations(tol, Y)[0]
    upper = lambda Y: ref_approximations(tol, Y)[1]
    return lower(X), upper(X), lower(upper(X)), upper(lower(X))


def four(tol, X):
    return tol.lower(X), tol.upper(X), tol.closure(X), tol.interior(X)


class TestLaneTables:
    """Tolerance._union reads one table per lane of eight points."""

    def test_every_tolerance_up_to_five_points(self):
        for tol in [Tolerance([], []), *small_tolerances()]:
            for X in range(1 << tol.n):
                assert tol._union(X) == ref_union(tol, X)
                assert four(tol, X) == ref_four(tol, X)

    @pytest.mark.parametrize("U", [8, 9, 16, 17, 41])
    def test_coverings_across_the_lane_boundaries(self, U):
        """Path coverings on odd U, partitions into pairs on even U (with
        a singleton block past them on odd U), each also relabelled: every
        subset up to 9 points, and past that the points, each lane's byte
        full, the runs that straddle a boundary and seeded subsets."""
        rng = random.Random(U)
        labels = [str(i) for i in range(U)]
        coverings = [Covering(labels, [3 << 2 * i for i in range(U // 2)] + [1 << U - 1] * (U % 2))]
        if U % 2:
            coverings.append(Covering(labels, [7 << 2 * i for i in range(U // 2)]))
        tols = [cov.tolerance for cov in coverings]
        tols += [relabelled(tol, rng) for tol in tols]
        full = (1 << U) - 1
        if U <= 9:
            masks = range(1 << U)
        else:
            masks = [0, full, *(1 << x for x in range(U)), *(255 << k & full for k in range(0, U, 8)),
                     *(0xFF0 << k & full for k in range(0, U, 8)),
                     *(rng.getrandbits(U) for _ in range(400))]
        for tol in tols:
            assert len(tol.blocks) >= U // 2
            for X in masks:
                assert four(tol, X) == ref_four(tol, X)
            assert (len(tol._lanes[0]), [len(t) for t in tol._lanes[1]]) == \
                (1 << min(U, 8), [1 << min(8, U - k) for k in range(8, U, 8)])


def regular_kleene_algebras():
    yield two_level_fixture()
    for lat in all_distributive_lattices(8):
        for neg in antitone_involutions(lat):
            yield validate_demorgan(lat, neg)
    rng = random.Random(9)
    for _ in range(4):
        yield build_kleene_from_jposet(*random_two_level_structure(rng, max_atoms=4, max_ji=8))


class TestExtendIso:
    def test_wrong_iso(self, monkeypatch):
        """Compose the join extension with a swap of two inner target
        elements (all swaps, or 150 seeded ones on larger algebras); the
        first failing check must be the reference's."""
        # the package exports the function represent under the module's name
        represent_module = importlib.import_module("roughkleene.represent")
        real_extension = represent_module.join_extension
        rng = random.Random(2)
        outcomes = set()
        for dm in regular_kleene_algebras():
            try:
                result = represent(dm)
            except (NotKleene, NotRegular):
                continue
            lat = dm.lattice
            dp = compute_pseudocomplements(lat)
            rs = result.rs
            target = rs.lattice
            assert iso_outcome(dm, dp, result.phi, rs) == ref_extend_iso(dm, dp, result.phi, rs)
            inner = [t for t in range(rs.n) if t not in (target.bottom, target.top)]
            swaps = [(u, v) for u in inner for v in inner if u < v]
            if len(swaps) > 150:
                swaps = rng.sample(swaps, 150)
            for u, v in swaps:
                swap = {u: v, v: u}

                def wrong(*args, swap=swap):
                    return tuple(swap.get(value, value) for value in real_extension(*args))

                monkeypatch.setattr(represent_module, "join_extension", wrong)
                got = iso_outcome(dm, dp, result.phi, rs)
                monkeypatch.setattr(represent_module, "join_extension", real_extension)
                assert got == ref_extend_iso(dm, dp, result.phi, rs, swap)
                outcomes.add(got[0] if isinstance(got[0], str) else "ok")
        assert {"neg", "star", "meet", "join", "ok"} <= outcomes

    def test_round_trip_of_the_irredundant_coverings(self):
        """The 522 irredundant coverings on up to 5 points: represent each
        rough algebra again; the extension agrees with the reference."""
        count = 0
        for n in range(1, 6):
            for cov in irredundant_coverings(n):
                dm = build_rs(tolerance_from_covering(cov)).demorgan
                result = represent(dm)
                dp = compute_pseudocomplements(dm.lattice)
                got = iso_outcome(dm, dp, result.phi, result.rs)
                assert got == ref_extend_iso(dm, dp, result.phi, result.rs)
                assert got[1] == result.report["checks"]
                count += 1
        assert count == 522


def same_lattice(got, want):
    """Whether two lattices on the same ids have the same order, bounds,
    join-irreducibles and every meet and join."""
    def seen(lat):
        return lat.poset.below, lat.poset.above, lat.bottom, lat.top, lat.ji, *rows(lat)

    return seen(got) == seen(want)


class TestDownsetLattice:
    def test_distributive_lattices_up_to_ten(self):
        """Every lattice of all_distributive_lattices(10), which
        downset_lattice builds, against inclusion_lattice, the keyed
        route, on the same downsets; one index map serves meet and join."""
        count = 0
        for below, lat in zip(_grow_posets_bounded(9, 10), all_distributive_lattices(10)):
            ds = downsets(below)
            ds.sort(key=lambda d: (d.bit_count(), d))
            assert lat.meet_codes == lat.join_codes == tuple(ds)
            assert lat.meets is lat.joins and lat.meets == {d: i for i, d in enumerate(ds)}
            assert same_lattice(lat, inclusion_lattice(lat.labels, ds, len(below)))
            count += 1
        assert count == 109  # 1 + 1 + 1 + 2 + 3 + 5 + 8 + 15 + 26 + 47

    def test_rough_algebras_of_the_irredundant_coverings(self):
        """The 522 irredundant coverings on up to 5 points: each rough
        algebra, whose lattice downset_lattice builds, against rough_lattice
        (inclusion_lattice of the codes of its pairs)."""
        count = 0
        for n in range(1, 6):
            for cov in irredundant_coverings(n):
                tol = tolerance_from_covering(cov)
                rs = build_rs(tol)
                assert same_lattice(rs.lattice, rough_lattice(rs.lattice.labels, rs.pairs, tol.n))
                count += 1
        assert count == 522

    def test_the_j_route_of_g_documents(self):
        """The 202 g documents: the join-irreducibles that downset_lattice
        reads from J are the fold route's, the lattice is distributive by
        is_distributive, and the negation J ∖ g(D) is neg_from_g of g on
        the principal downsets."""
        for jposet, g in g_documents():
            dm = build_kleene_from_jposet(jposet, g)
            lat, principal = dm.lattice, dm.lattice.meets
            g_l = {principal[jposet.below[j]]: principal[jposet.below[g[j]]] for j in range(jposet.n)}
            assert lat.ji == join_irreducibles(lat)
            assert is_distributive(lat)
            assert dm.neg == neg_from_g(lat, g_l)
        assert lat.n == 2187

    @pytest.mark.parametrize("family, below, message", [
        ([1, 3], [0b01, 0b11], "the empty downset is missing"),
        ([0, 3], [0b01, 0b11], "the downset 0x1 is missing"),
        ([0, 1, 2, 3], [0b01, 0b11], "member 0x2 is not a downset"),
        ([0, 1, 3, 4], [0b01, 0b11], "member 0x4 is not a downset"),
        ([0, 1, 1, 3], [0b01, 0b11], "the downsets of a downset lattice must be pairwise distinct"),
        ([0, 1, 3, 7], [0b001, 0b011, 0b110], "below is not an order at point 2"),
        ([0, 1, 2, 3], [0b00, 0b10], "below is not an order at point 0"),
        ([0, 3], [0b11, 0b11], "below is not an order at point 0"),
    ])
    def test_a_family_that_is_not_every_downset_is_refused(self, family, below, message):
        """J is the chain 0 < 1, whose downsets are 0, 0x1 and 0x3, or
        below is no order: 0 < 1 < 2 without 0 < 2, whose ↓2 is missing
        from a family that passes the downset proof; ↓0 without 0; or the
        cycle 0 <= 1 <= 0, whose ↓0∖{0} is no downset."""
        with pytest.raises(PosetError, match=f"^{message}$"):
            downset_lattice([str(d) for d in range(len(family))], family, below)


def g_documents():
    """The two-level fixture, 200 seeded random two-level structures and the
    jposet of seven pairs a_i < b_i with g swapping each pair (P = 3^7), as
    (jposet, g)."""
    rng = random.Random(17)
    labels = [f"a{i}" for i in range(7)] + [f"b{i}" for i in range(7)]
    yield two_level_jposet()
    for _ in range(200):
        yield random_two_level_structure(rng, max_atoms=7, max_ji=14)
    yield (Poset.from_covers(labels, [(i, 7 + i) for i in range(7)]),
           {i: (i + 7) % 14 for i in range(14)})


def formulas_hold(tol, pairs, lattice):
    try:
        ref_formula_scan(tol, pairs, lattice)
    except FormulaMismatch:
        return False
    return True


class TestClosedFormCertificate:
    def test_every_lattice_order_up_to_five_points(self):
        """The per-point certificate against the per-pair scan on every
        tolerance on up to 5 points whose rough order is a lattice."""
        verdicts = {True: 0, False: 0}
        for tol in small_tolerances():
            pairs = _powerset_pairs(tol)
            try:
                lattice = rough_lattice([str(k) for k in range(len(pairs))], pairs, tol.n)
            except NotALattice:
                continue
            holds = _closed_forms_hold(tol, pairs, lattice)
            assert holds == formulas_hold(tol, pairs, lattice)
            verdicts[holds] += 1
        assert verdicts == {True: 1039, False: 0}

    def test_mutated_pair_sets(self):
        """Pair sets that stay lattices with one pair dropped (up to 4
        points) or one point of one pair flipped (up to 3 points): the
        certificate's verdict is the per-pair scan's on each."""
        verdicts = {True: 0, False: 0}
        for tol in small_tolerances(4):
            pairs = _powerset_pairs(tol)
            mutants = [pairs[:i] + pairs[i + 1:] for i in range(len(pairs))]
            if tol.n <= 3:
                for i, (lo, up) in enumerate(pairs):
                    for u in range(tol.n):
                        for bent in ((lo ^ 1 << u, up), (lo, up ^ 1 << u)):
                            mutants.append(sorted({*pairs[:i], bent, *pairs[i + 1:]}))
            for mutant in mutants:
                try:
                    lattice = rough_lattice([str(k) for k in range(len(mutant))], mutant, tol.n)
                except NotALattice:
                    continue
                holds = _closed_forms_hold(tol, mutant, lattice)
                assert holds == formulas_hold(tol, mutant, lattice)
                verdicts[holds] += 1
        assert verdicts == {True: 229, False: 506}


def covering_algebras():
    """(tol, pairs, downsets, below) of the downset route on each of the 522
    irredundant coverings on up to 5 points."""
    for n in range(1, 6):
        for cov in irredundant_coverings(n):
            tol = tolerance_from_covering(cov)
            yield tol, *join_closure_pairs(tol, cov)


class TestCertificateImpliesOrder:
    def test_swapped_downsets(self, monkeypatch):
        """On each downset-route algebra, and on 1,566 mutants that swap the
        downsets of two seeded pairs (the family stays all of D(J)), a True
        from the certificate implies that the coordinatewise order is the
        downset order, which _assemble no longer compares when it holds;
        build_rs raises on every mutant whose order differs.  The 34 mutants
        that hold keep the order."""
        rng = random.Random(16)
        seen = {"holds": 0, "fails": 0, "order differs": 0}
        for tol, pairs, ds, below in covering_algebras():
            labels = [str(k) for k in range(len(pairs))]
            mutants = [list(ds)]
            for _ in range(3 if len(pairs) > 1 else 0):
                i, j = rng.sample(range(len(pairs)), 2)
                mutant = list(ds)
                mutant[i], mutant[j] = mutant[j], mutant[i]
                mutants.append(mutant)
            for mutant in mutants:
                lattice = downset_lattice(labels, mutant, below)
                agree = rough_order(pairs, tol.n) == list(lattice.poset.below)
                holds = _closed_forms_hold(tol, pairs, lattice)
                assert agree or not holds
                seen["holds" if holds else "fails"] += 1
                if not agree:
                    seen["order differs"] += 1
                    monkeypatch.setattr(rough, "join_closure_pairs", lambda t, c: (pairs, mutant, below))
                    with pytest.raises(FormulaMismatch, match="^rough order is not the downset order"):
                        build_rs(tol)
        assert seen == {"holds": 556, "fails": 1532, "order differs": 1532}


def ref_reversal_witness(image, mapped, lattice):
    """skeleton_isomorphism_report's order test before the masks: every
    (b, c) of image, row-major, through Lattice.leq."""
    for b, mb in zip(image, mapped):
        for c, mc in zip(image, mapped):
            if (b | c == b) != lattice.leq(mb, mc):
                return b, c
    return None


class TestReversalWitness:
    def test_skeletons_of_the_irredundant_coverings(self):
        """Both skeleton maps of the 522 covering algebras, and each with
        two of its values swapped (three seeded swaps per map): the masks
        name the nested scan's first (b, c), or None with it.  The maps
        that skeleton_isomorphism_report reads off the algebra's star and
        plus are the approximations of the complements."""
        rng = random.Random(1604)
        verdicts = {True: 0, False: 0}
        for n in range(1, 6):
            for cov in irredundant_coverings(n):
                tol = tolerance_from_covering(cov)
                rs, full = build_rs(tol), (1 << tol.n) - 1
                star_of = dict(zip((up for _, up in rs.pairs), rs.star))
                plus_of = dict(zip((lo for lo, _ in rs.pairs), rs.plus))
                for image, image_of in ((sorted({up for _, up in rs.pairs}), star_of),
                                        (sorted({lo for lo, _ in rs.pairs}), plus_of)):
                    mapped = [rs.index[approximations(tol, full & ~b)] for b in image]
                    assert sorted(image_of) == image
                    assert [image_of[b] for b in image] == mapped
                    cases = [mapped]
                    for _ in range(3 if len(image) > 1 else 0):
                        i, j = rng.sample(range(len(image)), 2)
                        bent = list(mapped)
                        bent[i], bent[j] = bent[j], bent[i]
                        cases.append(bent)
                    for case in cases:
                        witness = _reversal_witness(image, case, rs.lattice, tol.n)
                        assert witness == ref_reversal_witness(image, case, rs.lattice)
                        verdicts[witness is None] += 1
        assert verdicts == {True: 1158, False: 3018}


def preserves_order(source, target, iso):
    """extend_iso's order test before the covers: ↑iso(x) pulls back
    (pulled_back) to ↑x for every x, one containing() each."""
    order, codes = pulled_back(target, iso), target.meet_codes
    return all(order.containing(codes[ix]) == up for ix, up in zip(iso, source.poset.above))


def ref_ordered(lat, target, iso):
    """extend_iso's order test before the pull-back: the image of each ↑x,
    walked bit by bit, is ↑iso(x)."""
    above, target_above = lat.poset.above, target.poset.above
    return all(mask_of(iso[y] for y in bits(above[x])) == target_above[ix] for x, ix in enumerate(iso))


class TestPreservesOrder:
    def test_represented_algebras(self):
        """The acceptance suite's represented algebras, the two-level
        fixture and 50 seeded two-level structures: represent's iso passes
        every order test, and with two of its values swapped (20 seeded
        swaps each) the pull-back and the covering pairs of both lattices
        (_order_isomorphism) give the walk's verdict."""
        rng, swap_rng = random.Random(5309), random.Random(3)
        algebras = [two_level_fixture()]
        while len(algebras) < 51:
            algebras.append(build_kleene_from_jposet(*random_two_level_structure(rng, max_atoms=5, max_ji=10)))
        verdicts = {True: 0, False: 0}
        for dm in algebras:
            result = represent(dm)
            lat, target, iso = dm.lattice, result.rs.lattice, result.iso
            assert preserves_order(lat, target, iso) and ref_ordered(lat, target, iso)
            assert _order_isomorphism(lat, target, iso)
            for _ in range(20):
                x, y = swap_rng.sample(range(lat.n), 2)
                bent = list(iso)
                bent[x], bent[y] = bent[y], bent[x]
                ordered = preserves_order(lat, target, bent)
                assert ordered == ref_ordered(lat, target, bent)
                assert _order_isomorphism(lat, target, bent) == ordered
                verdicts[ordered] += 1
        assert verdicts[False] > 500


def seven_pairs():
    """The Kleene algebra of the jposet of seven pairs a_i < b_i, with g
    swapping each pair: P = 3^7."""
    labels = [f"a{i}" for i in range(7)] + [f"b{i}" for i in range(7)]
    jposet = Poset.from_covers(labels, [(i, 7 + i) for i in range(7)])
    return build_kleene_from_jposet(jposet, {i: (i + 7) % 14 for i in range(14)})


def two_level_sources(count=200):
    rng = random.Random(19)
    for _ in range(count):
        yield build_kleene_from_jposet(*random_two_level_structure(rng, max_atoms=7, max_ji=14))


# (lattice, its De Morgan structure or None), by corpus
J_ROUTE_CORPUS = {
    "distributive-10": lambda: [
        (lat, None) for d in all_distributive_lattices(10) for lat in (d, reversed_ids(d))
    ],
    "all-lattices-8": lambda: [(lat, None) for lat in all_lattices(8) if lat.distributive],
    "coverings": lambda: [
        (rs.lattice, rs.demorgan) for rs in (build_rs(tol) for tol, *_ in covering_algebras())
    ],
    "sources": lambda: [(dm.lattice, dm) for dm in two_level_sources()],
    "seven-pairs": lambda: [
        (dm.lattice, dm) for dm in (seven_pairs(), build_rs(partition(7)).demorgan)
    ],
}


class TestJRoute:
    """represent and verify read star and plus of a distributive lattice
    from J, regularity from the two levels of J and Kleene from is_kleene
    alone.  The star/plus folds, is_regular's three-way comparison and
    demorgan_pseudo_report's interplay laws, which they no longer run, are
    the oracle here."""

    @pytest.mark.parametrize("corpus, size, verdicts", [
        ("distributive-10", 218, {True, False}),
        ("all-lattices-8", 36, {True, False}),
        ("coverings", 522, {True}),
        ("sources", 200, {True}),
        ("seven-pairs", 2, {True}),
    ])
    def test_against_the_folds_and_the_battery(self, corpus, size, verdicts):
        """The J route gives the folds' star and plus, has_two_levels
        is_regular's verdict, and every covering algebra and two-level
        source passes demorgan_pseudo_report as regular and Kleene."""
        count, seen = 0, set()
        for lat, dm in J_ROUTE_CORPUS[corpus]():
            assert lat.distributive
            assert _j_pseudocomplements(lat) == _fold_pseudocomplements(lat)
            dp = compute_pseudocomplements(lat)
            two = has_two_levels(lat)[0]
            assert two == is_regular(dp).regular
            if dm is not None:
                report = demorgan_pseudo_report(dm, dp)
                assert report.k and report.regular
            seen.add(two)
            count += 1
        assert (count, seen) == (size, verdicts)


def masked(lat):
    """lat without the point masks of its J, and with covers it reads from
    its P-bit rows (Poset.covers) instead of those its builder walked: on
    it every reader takes its mask route, and on D(J) its covers are a
    second route to the builder's."""
    twin = Lattice(lat.poset, lat.meet_codes, lat.join_codes, lat.meets, lat.joins,
                   lat.bottom, lat.top)
    twin.ji, twin.distributive = lat.ji, lat.distributive
    return twin


def ref_covers(poset):
    """Poset.covers before the ranked walk: i ⋖ j when i is the only
    element of ↓j∖{j} below i, for every pair of the relation."""
    out = []
    for j in range(poset.n):
        strict = poset.below[j] ^ (1 << j)
        for i in bits(strict):
            if poset.above[i] & strict == 1 << i:
                out.append((i, j))
    out.sort()
    return out


def ref_star_antitone(lat, star):
    """_star_antitone before the covers: ↑a must lie inside the b with
    star[b] <= star[a], one mask test per a."""
    below, above = lat.poset.below, lat.poset.above
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
    return all(above[a] & ~star_le[sa] == 0 for a, sa in enumerate(star))


def ref_antitone(lat, neg):
    """The first (x, y) of a row-major scan with x <= y differing from
    neg(y) <= neg(x), or None: validate_demorgan's pulled-back witness."""
    return next(((x, y) for x in range(lat.n) for y in range(lat.n)
                 if lat.leq(x, y) != lat.leq(neg[y], neg[x])), None)


def ref_two_levels(lat):
    """has_two_levels before the codes: ↑j among J, read off the rows."""
    ji, above = lat.ji, lat.poset.above
    for j in ji.members:
        if j not in ji.atoms:
            higher = above[j] & ji.member_mask & ~(1 << j)
            if higher:
                return False, (j, next(bits(higher)))
    return True, None


def ref_first_not_below(lat, los, his):
    """first_not_below before the codes: a scan of every pair on the rows."""
    above = lat.poset.above
    return next(((x, y) for x, lo in enumerate(los) for y, hi in enumerate(his)
                 if not above[lo] >> hi & 1), None)


def outcome(fn, *args):
    """("ok", the value fn returned), or the type and witness of the
    De Morgan or pseudocomplement error it raised."""
    try:
        return "ok", fn(*args)
    except (DeMorganError, PseudoError) as exc:
        return type(exc).__name__, getattr(exc, "witness", str(exc))


def negation(lat, neg):
    return validate_demorgan(lat, neg).neg


def ref_compute_g_by_folds(dm):
    """compute_g by the fold it had for lattices without points: g(j) the
    meet of the mask outside ↓neg(j) (Lattice.meet_of), then J1 and J2."""
    lat, neg = dm.lattice, dm.neg
    ji, full, below = lat.ji, (1 << lat.n) - 1, lat.poset.below
    g = {}
    for j in ji.members:
        val = lat.meet_of(full & ~below[neg[j]])
        if val not in ji:
            raise GNotJoinIrreducible(j, val)
        g[j] = val
    _check_j1_j2(lat.meet_codes, ji.members, g)
    return g


# (D(J) lattice, its De Morgan structure or None), by corpus
CODE_ROUTE_CORPUS = {
    "distributive-10": lambda: [(lat, None) for lat in all_distributive_lattices(10)],
    "coverings": lambda: [
        (rs.lattice, rs.demorgan) for rs in (build_rs(tol) for tol, *_ in covering_algebras())
    ],
    "g-documents": lambda: [
        (dm.lattice, dm) for dm in (build_kleene_from_jposet(*doc) for doc in g_documents())
    ],
}


class TestCodeRoutes:
    """A D(J) lattice decides its order facts on its |J|-bit codes and its
    covering pairs, and builds no P-bit row.  Its masked twin, with the
    same rows, no points and covers read from the rows, takes the mask
    routes for covers and antitonicity, which stay as the oracle with the
    moved mask route of star antitonicity (ref_star_antitone) and the pair
    scan of antitonicity (ref_antitone); star and plus are compared with
    the folds (_fold_pseudocomplements) and g with the deleted meet fold
    (ref_compute_g_by_folds): every decision and every first witness must
    agree.  Lattice.from_poset returns every distributive lattice as D(J)
    and every other one keyed (every lattice up to 8 elements, in both id
    orders); a keyed lattice reads its covers from its rows, and its cover
    decisions must agree with the same oracles."""

    @pytest.mark.parametrize("corpus, size", [
        ("distributive-10", 109), ("coverings", 522), ("g-documents", 202),
    ])
    def test_decisions_equal_the_mask_routes(self, corpus, size):
        rng = random.Random(20)
        count = 0
        for lat, dm in CODE_ROUTE_CORPUS[corpus]():
            assert lat.covers is not None and lat.points is not None
            twin = masked(lat)
            assert sorted(zip(*lat.covers)) == sorted(zip(*twin.covers)) == ref_covers(lat.poset)
            below = lat.poset.below
            pairs = ([(i, j) for i in range(lat.n) for j in range(lat.n)] if lat.n <= 100
                     else [(rng.randrange(lat.n), rng.randrange(lat.n)) for _ in range(5000)])
            assert all(lat.leq(i, j) == bool(below[j] >> i & 1) for i, j in pairs)
            star, plus = _j_pseudocomplements(lat)
            assert (star, plus) == _fold_pseudocomplements(lat)
            assert _star_antitone(lat, star) and ref_star_antitone(lat, star)
            assert has_two_levels(lat) == ref_two_levels(lat)
            los = [lat.meet(x, plus[x]) for x in range(lat.n)]
            his = [lat.join(y, star[y]) for y in range(lat.n)]
            assert first_not_below(lat, los, his) == ref_first_not_below(lat, los, his)
            if dm is not None:
                assert negation(lat, dm.neg) == negation(twin, dm.neg) == dm.neg
                assert compute_g(dm) == ref_compute_g_by_folds(DeMorgan(twin, dm.neg))
                assert is_kleene(dm)[0]
            count += 1
        assert count == size

    def test_swapped_neg_values(self):
        """Each negation conjugated by seeded transpositions of two elements,
        which keeps it an involution: validate_demorgan gives the mask
        route's verdict and first witness, and compute_g the deleted meet
        fold's."""
        rng = random.Random(2020)
        seen = {}
        for corpus in ("coverings", "g-documents"):
            for lat, dm in CODE_ROUTE_CORPUS[corpus]():
                if lat.n < 3 or lat.n > 500:
                    continue
                twin = masked(lat)
                for _ in range(3):
                    u, v = rng.sample(range(lat.n), 2)
                    swap = {u: v, v: u}
                    neg = [swap.get(dm.neg[swap.get(x, x)], dm.neg[swap.get(x, x)])
                           for x in range(lat.n)]
                    got = outcome(negation, lat, neg)
                    assert got == outcome(negation, twin, neg)
                    witness = ref_antitone(lat, neg)
                    assert got == (("ok", tuple(neg)) if witness is None else ("NotAntitone", witness))
                    lows, highs = lat.covers
                    antitone = codes_within(highs, lows, [lat.meet_codes[v] for v in neg])
                    assert antitone == (got[0] == "ok")
                    assert (outcome(compute_g, DeMorgan(lat, neg))
                            == outcome(ref_compute_g_by_folds, DeMorgan(twin, neg)))
                    seen[got[0]] = seen.get(got[0], 0) + 1
        assert seen["NotAntitone"] > 500 and seen["ok"] > 50

    def test_bent_star(self):
        """star[u] set to a seeded other value: antitonicity on the covers is
        the rows' verdict, and _check_p_laws names the reference scan's first
        failing law on the lattice and on its twin."""
        rng = random.Random(2021)
        messages = set()
        for corpus in ("coverings", "g-documents"):
            for lat, _ in CODE_ROUTE_CORPUS[corpus]():
                if lat.n < 2 or lat.n > 200:
                    continue
                dp = compute_pseudocomplements(lat)
                for _ in range(3):
                    u = rng.randrange(lat.n)
                    star = list(dp.star)
                    star[u] = rng.choice([v for v in range(lat.n) if v != star[u]])
                    assert _star_antitone(lat, star) == ref_star_antitone(lat, star)
                    message = p_laws(DoubleP(lat, star, dp.plus))
                    assert message == p_laws(DoubleP(masked(lat), star, dp.plus))
                    assert message == ref_p_laws(DoubleP(lat, star, dp.plus))
                    messages.add(message and message.split(" at ")[0])
        assert {None, "star not antitone", "a <= a** fails"} <= messages

    def test_keyed_covers(self):
        """Lattice.from_poset keys exactly the lattices that are not
        distributive: those have no points and hold the covering pairs
        their join-irreducibles were read from, as the old pair loop finds
        them; a D(J) lattice has the covers its family proof walked."""
        count, distributive = 0, 0
        for lat in keyed_lattices():
            assert (lat.points is None) == (not lat.distributive)
            assert lat._covers is not None
            assert sorted(zip(*lat.covers)) == ref_covers(lat.poset)
            count += 1
            distributive += lat.distributive
        assert (count, distributive) == (600, 72)

    def test_from_poset_returns_D_of_J(self, monkeypatch):
        """Every distributive lattice of keyed_lattices, the product of six
        3-chains and the 2000-chain come out of Lattice.from_poset as D(J):
        the input poset's labels and rows, the join-irreducibles its keyed
        build found, and no P-bit row rebuilt."""
        keyed, built = [], []
        real_keyed, real_rows = posets._keyed_lattice, posets._CodedPoset._build_rows

        def recorded(*args):
            keyed.append(real_keyed(*args))
            return keyed[-1]

        def counted(self):
            built.append(self.n)
            return real_rows(self)

        monkeypatch.setattr(posets, "_keyed_lattice", recorded)
        monkeypatch.setattr(posets._CodedPoset, "_build_rows", counted)
        inputs = [lat.poset for lat in keyed_lattices() if lat.distributive]
        inputs.append(product_of_chains([3] * 6).poset)
        inputs.append(Poset([f"c{i}" for i in range(2000)], [(2 << i) - 1 for i in range(2000)]))
        for p in inputs:
            keyed.clear()
            lat = Lattice.from_poset(p)
            assert lat.points is not None and lat.distributive
            assert lat.labels == p.labels
            assert (lat.poset.below, lat.poset.above) == (p.below, p.above)
            assert len(keyed) == 1 and lat.ji == keyed[0].ji
        assert [p.n for p in inputs[-2:]] == [729, 2000]
        assert built == []

    def test_keyed_star_antitone(self):
        """Star antitonicity on the covers of every lattice of
        keyed_lattices is the mask route's verdict: on the folded star, where the lattice has one, and
        on three seeded bent stars per lattice."""
        rng = random.Random(2122)
        verdicts = {True: 0, False: 0}
        for lat in keyed_lattices():
            try:
                star = list(_fold_pseudocomplements(lat)[0])
            except NoPseudocomplement:
                star = [rng.randrange(lat.n) for _ in range(lat.n)]
            stars = [star]
            for _ in range(3):
                bent = list(star)
                bent[rng.randrange(lat.n)] = rng.randrange(lat.n)
                stars.append(bent)
            for star in stars:
                antitone = _star_antitone(lat, star)
                assert antitone == ref_star_antitone(lat, star)
                verdicts[antitone] += 1
        assert verdicts == {True: 462, False: 1938}

    def test_keyed_negations(self):
        """validate_demorgan on every distributive lattice of
        keyed_lattices, each one D(J), gives the pair scan's verdict and
        first witness on every antitone involution and on each conjugated
        by three seeded transpositions of two elements, which keeps it an
        involution."""
        rng = random.Random(2123)
        seen = {}
        for lat in keyed_lattices():
            if not lat.distributive or lat.n < 2:
                continue
            for neg in antitone_involutions(lat):
                negs = [neg]
                for _ in range(3):
                    u, v = rng.sample(range(lat.n), 2)
                    swap = {u: v, v: u}
                    negs.append([swap.get(neg[swap.get(x, x)], neg[swap.get(x, x)])
                                 for x in range(lat.n)])
                for neg in negs:
                    got = outcome(negation, lat, neg)
                    witness = ref_antitone(lat, neg)
                    assert got == (("ok", tuple(neg)) if witness is None else ("NotAntitone", witness))
                    seen[got[0]] = seen.get(got[0], 0) + 1
        assert seen == {"ok": 87, "NotAntitone": 113}

    def test_keyed_order_isomorphisms(self):
        """_order_isomorphism is the pull-back's verdict (preserves_order)
        on every automorphism of a lattice up to 8 elements, on the id
        reversal onto its reversed twin, and on each with two seeded values
        swapped."""
        rng = random.Random(2124)
        verdicts = {True: 0, False: 0}
        for lat in all_lattices(8):
            flipped = reversed_ids(lat)
            for source, target in ((lat, lat), (flipped, flipped), (lat, flipped)):
                n, above = lat.n, target.poset.above
                isos = list(isomorphisms(n, source.poset.above, n, above))
                assert isos
                for iso in isos:
                    maps = [iso]
                    if n >= 2:
                        x, y = rng.sample(range(n), 2)
                        bent = list(iso)
                        bent[x], bent[y] = bent[y], bent[x]
                        maps.append(bent)
                    for f in maps:
                        ordered = _order_isomorphism(source, target, f)
                        assert ordered == preserves_order(source, target, f)
                        verdicts[ordered] += 1
        assert verdicts == {True: 7812, False: 4077}


def keyed_lattices():
    """Every lattice up to 8 elements, built by Lattice.from_poset, and the
    same lattice with its ids reversed: keyed when it is not distributive,
    D(J) when it is."""
    for lat in all_lattices(8):
        yield lat
        yield reversed_ids(lat)


def random_poset(rng, n):
    """The order closed from seeded edges that run up a random linear order
    of n ids, so that the ids follow no linear extension."""
    ranks = rng.sample(range(n), n)
    edges = [(ranks[a], ranks[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.15]
    return Poset.from_covers([str(i) for i in range(n)], edges)


class TestPosetCovers:
    """Poset.covers, one step per covering pair and per element, against
    the pair loop it replaced (ref_covers); keyed_lattices covers every
    lattice up to 8 elements."""

    def test_long_chain(self):
        n = 2000
        chain_poset = Poset([str(i) for i in range(n)], [(1 << i + 1) - 1 for i in range(n)])
        assert chain_poset.covers() == ref_covers(chain_poset) == [(i, i + 1) for i in range(n - 1)]

    def test_seven_pairs(self):
        poset = build_rs(partition(7)).lattice.poset
        assert poset.n == 2187
        assert poset.covers() == ref_covers(poset)

    def test_seeded_posets(self):
        rng = random.Random(2125)
        for n in [0, 1, 2, *(rng.randrange(3, 40) for _ in range(200))]:
            poset = random_poset(rng, n)
            assert poset.covers() == ref_covers(poset)


def decision_corpus():
    """The algebra of each of the 522 irredundant coverings on up to 5
    points, then of the partition into seven pairs (P = 2187) and of the
    7-block path (P = 577)."""
    for n in range(1, 6):
        for cov in irredundant_coverings(n):
            yield build_rs(cov.tolerance)
    yield build_rs(partition(7))
    yield build_rs(path(7))


class TestPairDecision:
    """rough._join_irreducible_atoms, the decision rs_join_irreducibles
    makes on the pairs, against the order's route it replaced on the
    passing path, posets.join_irreducibles on the lattice's covers."""

    def test_equals_the_folds(self):
        """On the block formulas F, and on the folds' own members, the
        decision gives the folds' atoms, and F is the folds' members."""
        sizes = []
        for rs in decision_corpus():
            ji = join_irreducibles(rs.lattice)
            members = sorted(rs.pairs[j] for j in ji.members)
            atoms = sorted(rs.pairs[a] for a in ji.atoms)
            formula = rough.formula_join_irreducibles(rs.tolerance, rs.covering)
            assert formula == members
            assert rough._join_irreducible_atoms(rs, formula) == atoms
            assert rough._join_irreducible_atoms(rs, members) == atoms
            sizes.append(rs.n)
        assert len(sizes) == 524 and sizes[-2:] == [2187, 577]

    def test_every_mutant_fails(self):
        """On every covering, F without any one member, and F with one
        seeded pair outside J, fail the decision: 3,240 mutants."""
        rng = random.Random(25)
        mutants = 0
        for n in range(1, 6):
            for cov in irredundant_coverings(n):
                rs = build_rs(cov.tolerance)
                formula = rough.formula_join_irreducibles(rs.tolerance, cov)
                outside = [pair for pair in rs.pairs if pair not in formula]
                for k in range(len(formula)):
                    assert rough._join_irreducible_atoms(rs, formula[:k] + formula[k + 1:]) is None
                    mutants += 1
                added = sorted(formula + [rng.choice(outside)])
                assert rough._join_irreducible_atoms(rs, added) is None
                mutants += 1
        assert mutants == 3240

    def test_a_pair_outside_the_algebra_fails(self):
        rs = build_rs(partition(2))
        formula = rough.formula_join_irreducibles(rs.tolerance, rs.covering)
        assert rough._join_irreducible_atoms(rs, formula) is not None
        assert rough._join_irreducible_atoms(rs, sorted(formula + [(1, 3)])) is None

    @pytest.mark.parametrize("blocks, mutate, error", [
        ([3, 12, 48], lambda f: f[1:],
         "join-irreducibles: {'formula': [(0, 12), (0, 48), (3, 3), (12, 12), (48, 48)], "
         "'lattice': [(0, 3), (0, 12), (0, 48), (3, 3), (12, 12), (48, 48)]}"),
        ([7, 28, 112], lambda f: f[:3] + f[4:],
         "join-irreducibles: {'formula': [(0, 7), (0, 28), (0, 112), (8, 127), (96, 124)], "
         "'lattice': [(0, 7), (0, 28), (0, 112), (3, 31), (8, 127), (96, 124)]}"),
        ([7, 28, 112], lambda f: sorted(f + [(0, 31)]),
         "join-irreducibles: {'formula': [(0, 7), (0, 28), (0, 31), (0, 112), (3, 31), (8, 127), "
         "(96, 124)], 'lattice': [(0, 7), (0, 28), (0, 112), (3, 31), (8, 127), (96, 124)]}"),
        ([7, 28, 112], lambda f: sorted(f + [(0, 0)]),
         "join-irreducibles: {'formula': [(0, 0), (0, 7), (0, 28), (0, 112), (3, 31), (8, 127), "
         "(96, 124)], 'lattice': [(0, 7), (0, 28), (0, 112), (3, 31), (8, 127), (96, 124)]}"),
    ])
    def test_a_failed_decision_keeps_the_fold_payload(self, monkeypatch, blocks, mutate, error):
        """formula_join_irreducibles patched, after the call that builds
        the algebra, to drop a member or to add a pair: verify reports the
        folds' FormulaMismatch, with the bytes of the fold-only check."""
        real = rough.formula_join_irreducibles
        calls = []

        def patched(tol, cov):
            calls.append(cov)
            return real(tol, cov) if len(calls) == 1 else mutate(real(tol, cov))

        monkeypatch.setattr(rough, "formula_join_irreducibles", patched)
        n = max(blocks).bit_length()
        report = verify_report(Covering([str(i) for i in range(n)], blocks))
        assert report["failures"] == [
            {"check": "joinIrreducibleFormulas", "error": f"FormulaMismatch: {error}"}
        ]
        assert len(calls) == 2

    def test_a_fold_that_finds_nothing_raises(self, monkeypatch):
        """A failed decision whose cover pass agrees with the formulas is
        a defect: it raises, never passes."""
        monkeypatch.setattr(rough, "_join_irreducible_atoms", lambda rs, candidates: None)
        with pytest.raises(FormulaMismatch, match="^the pair decision disagrees with the lattice's covers"):
            rough.rs_join_irreducibles(build_rs(partition(2)))



def ref_downset_label(jposet, d):
    """The label build_kleene_from_jposet gave the downset d before
    posets.point_unions: one scan of d's points against ↑p."""
    if d == 0:
        return "0"
    maxima = [i for i in bits(d) if jposet.above[i] & d == 1 << i]
    return "|".join(jposet.labels[i] for i in maxima)


def ref_jposet_neg(lat, g):
    """neg(D) = J ∖ g(D), one mask_of of g over the points of each D."""
    full = (1 << len(lat.points)) - 1
    return tuple(lat.meets[full ^ mask_of(g[j] for j in bits(d))] for d in lat.meet_codes)


def ref_j_pseudocomplements(lat):
    """_j_pseudocomplements as its per-point loops over the minimal and the
    maximal points of J."""
    down, jsets, element = lat.points, lat.meet_codes, lat.meets
    jmask = (1 << len(down)) - 1
    up = transpose(down, len(down))
    minimal = [p for p in bits(jmask) if down[p] & jmask == 1 << p]
    maximal = [p for p in bits(jmask) if up[p] & jmask == 1 << p]
    star, plus = [], []
    for s in jsets:
        meets = 0
        for a in minimal:
            if s >> a & 1:
                meets |= up[a]
        star.append(element[jmask & ~meets])
        joins = 0
        for m in maximal:
            if not s >> m & 1:
                joins |= down[m]
        plus.append(element[jmask & joins])
    return star, plus


def ref_join_extension(lat, target, phi):
    """join_extension as its loop: the OR of phi's target codes over the
    points of each source code, then one lookup."""
    tcodes, ids = target.join_codes, lat.meets
    point_codes = [tcodes[phi[ids[down]]] for down in lat.points]
    out = []
    for code in lat.meet_codes:
        union = 0
        for p in bits(code):
            union |= point_codes[p]
        out.append(target.joins[union])
    return tuple(out)


# labels that only a nonempty downset's maxima may carry: "" and the
# characters that rough-pair labels use
ODD_NAMES = ["", "a,b", "(c)", "{d}"] + [f"p{i}" for i in range(4, 20)]


def jposet_of(dm):
    """The points of dm's D(J) lattice as a jposet labelled by ODD_NAMES,
    with the g of dm's negation on them."""
    lat = dm.lattice
    point = {lat.meets[down]: p for p, down in enumerate(lat.points)}
    g = {point[j]: point[v] for j, v in compute_g(dm).items()}
    return Poset(ODD_NAMES[:len(lat.points)], lat.points), g


def kleene_algebras_of(lattices):
    for lat in lattices:
        for neg in antitone_involutions(lat):
            dm = validate_demorgan(lat, neg)
            if is_kleene(dm)[0]:
                yield dm


def seeded_jposets(count=60):
    rng = random.Random(29)
    for _ in range(count):
        yield random_two_level_structure(rng, max_atoms=6, max_ji=12)


# (jposet, g) documents, by corpus
JPOSET_CORPUS = {
    "g-documents": g_documents,
    "seeded": seeded_jposets,
    "coverings": lambda: (jposet_of(build_rs(tol).demorgan) for tol, *_ in covering_algebras()),
    "distributive-10": lambda: map(jposet_of, kleene_algebras_of(all_distributive_lattices(10))),
}


class TestPointUnions:
    """The five per-element maps of D(J) that posets.point_unions serves
    (the labels, the negation of a jposet, star, plus and the isomorphism
    extension) against the per-point loops they replaced."""

    def test_unions_over_the_points(self):
        """Empty masks and empty images, points past bit 64, and masks
        from an iterator."""
        assert point_unions([], [1, 2]) == []
        assert point_unions([0, 0], []) == [0, 0]
        rng = random.Random(3)
        images = [rng.getrandbits(100) for _ in range(130)]
        masks = [0, 1 << 129, 1 << 64, (1 << 130) - 1, *(rng.getrandbits(130) for _ in range(50))]
        want = [reduce(or_, (images[p] for p in bits(m)), 0) for m in masks]
        assert point_unions(masks, images) == want
        assert point_unions(iter(masks), tuple(images)) == want
        assert point_unions([1 << 70 | 1 << 3], [0] * 3 + [5] + [0] * 66 + [1 << 90]) == [1 << 90 | 5]

    @pytest.mark.parametrize("corpus, size", [
        ("g-documents", 202), ("seeded", 60), ("coverings", 522), ("distributive-10", 38),
    ])
    def test_jposet_algebras(self, corpus, size):
        """build_kleene_from_jposet's labels and negation, and star and
        plus of its lattice, equal the loops, with "" among the point
        labels of the coverings and distributive-10 corpora."""
        count = 0
        for jposet, g in JPOSET_CORPUS[corpus]():
            dm = build_kleene_from_jposet(jposet, g)
            lat = dm.lattice
            assert list(lat.labels) == [ref_downset_label(jposet, d) for d in lat.meet_codes]
            assert dm.neg == ref_jposet_neg(lat, g)
            assert _j_pseudocomplements(lat) == ref_j_pseudocomplements(lat)
            count += 1
        assert count == size

    @pytest.mark.parametrize("corpus, size", [("distributive-10", 109), ("coverings", 522)])
    def test_star_and_plus_of_other_lattices(self, corpus, size):
        """The D(J) lattices of CODE_ROUTE_CORPUS that no jposet built."""
        lattices = [lat for lat, _ in CODE_ROUTE_CORPUS[corpus]()]
        assert all(_j_pseudocomplements(lat) == ref_j_pseudocomplements(lat) for lat in lattices)
        assert len(lattices) == size

    def test_join_extension(self):
        """iso of represent on the rough algebras of the 522 irredundant
        coverings and on seeded two-level jposets, and the identity phi on
        all_distributive_lattices(10), equal the loop."""
        rng = random.Random(30)
        sources = [build_rs(tol).demorgan for tol, *_ in covering_algebras()]
        sources += [build_kleene_from_jposet(*random_two_level_structure(rng)) for _ in range(40)]
        for dm in sources:
            result = represent(dm)
            target = result.rs.lattice
            assert (join_extension(dm.lattice, target, result.phi) == result.iso
                    == ref_join_extension(dm.lattice, target, result.phi))
        for lat in all_distributive_lattices(10):
            identity = {j: j for j in lat.ji.members}
            assert join_extension(lat, lat, identity) == ref_join_extension(lat, lat, identity)
            assert join_extension(lat, lat, identity) == tuple(range(lat.n))
        assert len(sources) == 562
