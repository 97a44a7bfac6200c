"""The table layer against its pairwise definitions.

Each reference function below is the plain loop the library used to run:
every ordered pair in ascending order, stopping at the first failure.  The
library now computes each unordered pair once, builds the coordinatewise
order bit-sliced and the 2^U sweep by recurrence, and must return the same
tables, verdicts and first witnesses.
"""

import random

import pytest
from conftest import two_level_fixture

from roughkleene.demorgan import antitone_involutions, build_kleene_from_jposet, validate_demorgan
from roughkleene.generators import (
    all_distributive_lattices,
    all_lattices,
    all_tolerances,
    random_two_level_structure,
)
from roughkleene.posets import Lattice, NotALattice, Poset, join_irreducibles, mask_of
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
    Tolerance,
    _powerset_pairs,
    approximations,
    build_rs,
    powerset_images,
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


def small_tolerances():
    for n in range(1, 6):
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
