"""The table layer against its pairwise definitions.

Each reference function below is the plain loop the library used to run:
every ordered pair in ascending order, stopping at the first failure.  The
library now computes each unordered pair once, builds the coordinatewise
order bit-sliced and the 2^U sweep by recurrence, and must return the same
tables, verdicts and first witnesses.  Orders given as inclusion of sets
have their tables built by inclusion_lattice, one lookup per distinct
intersection or union, and are compared with inclusion_below, Poset and
Lattice.from_poset; the rough formula check runs once per such key and is
compared with the per-pair scan it replaced.
"""

import random
import tracemalloc

import pytest
from conftest import two_level_fixture

from roughkleene.demorgan import antitone_involutions, build_kleene_from_jposet, validate_demorgan
from roughkleene.generators import (
    all_distributive_lattices,
    all_lattices,
    all_tolerances,
    irredundant_coverings,
    random_two_level_structure,
)
from roughkleene.generators import _grow_posets_bounded
from roughkleene.posets import (
    Lattice,
    NotALattice,
    Poset,
    downsets,
    inclusion_below,
    inclusion_lattice,
    join_irreducibles,
    mask_of,
)
from roughkleene.pseudo import DoubleP, PseudoError, _check_p_laws, compute_pseudocomplements
from roughkleene.represent import (
    IsoCheckFailed,
    NotKleene,
    NotRegular,
    extend_iso,
    represent,
)
from roughkleene.rough import (
    Covering,
    FormulaMismatch,
    Tolerance,
    _assemble,
    _codes,
    _powerset_pairs,
    approximations,
    build_rs,
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
    """("ok", meet, join), or (kind, pair) of the first bad ordered pair."""
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
    return "ok", tuple(map(tuple, meet)), tuple(map(tuple, join))


def tables(p):
    try:
        lat = Lattice.from_poset(p)
    except NotALattice as exc:
        return exc.kind, exc.pair
    return "ok", lat.meet, lat.join


def ref_p_laws(dp):
    """The message of the first failing law, or None."""
    lat, star, plus = dp.lattice, dp.star, dp.plus
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
            if star[lat.join[a][b]] != lat.meet[sa][star[b]]:
                return f"(a v b)* != a* ^ b* at ({a},{b})"
            if not lat.leq(lat.join[sa][star[b]], star[lat.meet[a][b]]):
                return f"(a ^ b)* >= a* v b* fails at ({a},{b})"
    return None


def p_laws(dp):
    try:
        _check_p_laws(dp)
    except PseudoError as exc:
        return str(exc)
    return None


def ref_extend_iso(dm, dp, ji, phi, rs):
    """(iso, checks), or (operation, witness) of the first failing check."""
    lat, target = dm.lattice, rs.lattice
    n = lat.n
    iso = tuple(
        target.join_all(phi[j] for j in range(n) if j in ji and lat.leq(j, x))
        for x in range(n)
    )
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
            if iso[lat.meet[x][y]] != target.meet[iso[x]][iso[y]]:
                return "meet", {"pair": (x, y)}
            if iso[lat.join[x][y]] != target.join[iso[x]][iso[y]]:
                return "join", {"pair": (x, y)}
            if lat.leq(x, y) != target.leq(iso[x], iso[y]):
                return "order", {"pair": (x, y)}
            checks["meet"] += 1
            checks["join"] += 1
            checks["order"] += 1
    return iso, checks


def iso_outcome(dm, dp, ji, phi, rs):
    try:
        return extend_iso(dm, dp, ji, phi, rs)
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
    """The route inclusion_lattice replaced: the order, its transpose in
    Poset, then Lattice.from_poset."""
    p = Poset(labels, inclusion_below(sets, width))
    try:
        lat = Lattice.from_poset(p)
    except NotALattice as exc:
        return exc.kind, exc.pair
    return "ok", p.below, p.above, lat.meet, lat.join, lat.bottom, lat.top


def keyed(labels, sets, width):
    """inclusion_lattice's outcome in via_poset's shape, after checking that
    its keyed glb and lub are the cells of exactly the pairs with that key."""
    try:
        lat, meet_of, join_of = inclusion_lattice(labels, sets, width)
    except NotALattice as exc:
        return exc.kind, exc.pair
    meet_keys, join_keys = {}, {}
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert meet_keys.setdefault(a & b, lat.meet[i][j]) == lat.meet[i][j]
            assert join_keys.setdefault(a | b, lat.join[i][j]) == lat.join[i][j]
    assert (meet_of, join_of) == (meet_keys, join_keys)
    p = lat.poset
    return "ok", p.below, p.above, lat.meet, lat.join, lat.bottom, lat.top


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
    failing = {
        i
        for i, (a, b) in enumerate(pairs)
        for m, jn, (c, d) in zip(lattice.meet[i][i:], lattice.join[i][i:], pairs[i:])
        if pairs[m] != (a & c, interior(b & d)) or pairs[jn] != (closure(a | c), b | d)
    }
    if failing:
        i = min(failing)
        (a, b), meet_i, join_i = pairs[i], lattice.meet[i], lattice.join[i]
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
            assert lat.meet == tuple(zip(*lat.meet))
            assert lat.join == tuple(zip(*lat.join))


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
        inclusion of downsets, against from_poset on the same downsets."""
        count = 0
        for below, lat in zip(_grow_posets_bounded(9, 10), all_distributive_lattices(10)):
            ds = downsets(below)
            ds.sort(key=lambda d: (d.bit_count(), d))
            labels = [f"d{i}" for i in range(len(ds))]
            got, want = keyed(labels, ds, len(below)), via_poset(labels, ds, len(below))
            assert got == want
            p = lat.poset
            assert (p.labels, p.below, p.above, lat.meet, lat.join, lat.bottom, lat.top) == (
                tuple(labels), *want[1:]
            )
            count += 1
        assert count == sum(1 for _ in all_distributive_lattices(10))

    def test_memory_stays_that_of_the_tables(self):
        """The key streams are never lists: on the k=6 partition (P=729) the
        traced peak is at most 1.25 times that of Poset + from_poset."""
        tol = partition(6)
        pairs = _powerset_pairs(tol)
        labels = [str(k) for k in range(len(pairs))]
        codes = _codes(pairs, tol.n)
        below = inclusion_below(codes, 2 * tol.n)

        def peak(build):
            tracemalloc.start()
            try:
                built = build()
                return tracemalloc.get_traced_memory()[1], built
            finally:
                tracemalloc.stop()

        keyed_peak, _ = peak(lambda: inclusion_lattice(labels, codes, 2 * tol.n))
        table_peak, _ = peak(lambda: Lattice.from_poset(Poset(labels, below)))
        assert keyed_peak <= 1.25 * table_peak


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
                lattice = rough_lattice([str(k) for k in range(len(pairs))], pairs, tol.n)[0]
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
                    got = mismatch(_assemble, bent, pairs)
                    assert got == mismatch(ref_formula_scan, bent, pairs, lattice)
                    kinds.add(got[0].split(":")[0])
        assert kinds == {"meet", "join"}


def reversed_ids(lat):
    """The same lattice with element i renamed n-1-i, so that the ids run
    against the order instead of along a linear extension."""
    n = lat.n
    flip = [n - 1 - i for i in range(n)]
    below = [mask_of(flip[j] for j in range(n) if lat.poset.below[flip[i]] >> j & 1) for i in range(n)]
    return Lattice.from_poset(Poset([lat.labels[flip[i]] for i in range(n)], below))


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
                    bent = DoubleP(lat, maps["star"], maps["plus"], dp.distributive)
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
        follow, so a valid DoubleP passes even when no row of the meet or
        join table can be read.  The lattices without pseudocomplements are
        skipped; the non-distributive ones with both maps are kept."""
        checked = 0
        for lat in lattices():
            try:
                dp = compute_pseudocomplements(lat)
            except PseudoError:
                continue
            assert ref_p_laws(dp) is None
            guarded = Lattice(lat.poset, Unreadable(), Unreadable(), lat.bottom, lat.top)
            _check_p_laws(DoubleP(guarded, dp.star, dp.plus, dp.distributive))
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
                    bent = DoubleP(lat, star, dp.plus, dp.distributive)
                    message = p_laws(bent)
                    assert message == ref_p_laws(bent)
                    messages.add(message and message.split(" at ")[0])
        assert messages == {
            None, "a* != a***", "a <= a** fails", "star not antitone",
            "(a v b)* != a* ^ b*", "(a ^ b)* >= a* v b* fails",
        }


class Unreadable:
    """A table whose rows raise when read."""

    def __getitem__(self, row):
        raise AssertionError(f"table row {row} was read")


class TestPowerset:
    def test_against_per_subset_approximations(self):
        for tol in [*small_tolerances(), *seeded_tolerances()]:
            subsets = [approximations(tol, X) for X in range(1 << tol.n)]
            assert _powerset_pairs(tol) == sorted(set(subsets))
            assert powerset_images(tol) == (
                sorted({lo for lo, _ in subsets}), sorted({up for _, up in subsets})
            )


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
        real_join_all = Lattice.join_all
        rng = random.Random(2)
        outcomes = set()
        for dm in regular_kleene_algebras():
            try:
                result = represent(dm)
            except (NotKleene, NotRegular):
                continue
            lat = dm.lattice
            dp, ji = compute_pseudocomplements(lat), join_irreducibles(lat)
            rs = result.rs
            target = rs.lattice
            assert iso_outcome(dm, dp, ji, result.phi, rs) == ref_extend_iso(dm, dp, ji, result.phi, rs)
            inner = [t for t in range(rs.n) if t not in (target.bottom, target.top)]
            swaps = [(u, v) for u in inner for v in inner if u < v]
            if len(swaps) > 150:
                swaps = rng.sample(swaps, 150)
            for u, v in swaps:
                swap = {u: v, v: u}

                def wrong(self, ids, swap=swap):
                    value = real_join_all(self, ids)
                    return swap.get(value, value) if self is target else value

                monkeypatch.setattr(Lattice, "join_all", wrong)
                got = iso_outcome(dm, dp, ji, result.phi, rs)
                want = ref_extend_iso(dm, dp, ji, result.phi, rs)
                monkeypatch.setattr(Lattice, "join_all", real_join_all)
                assert got == want
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
                dp, ji = compute_pseudocomplements(dm.lattice), join_irreducibles(dm.lattice)
                got = iso_outcome(dm, dp, ji, result.phi, result.rs)
                assert got == ref_extend_iso(dm, dp, ji, result.phi, result.rs)
                assert got[1] == result.report["checks"]
                count += 1
        assert count == 522
