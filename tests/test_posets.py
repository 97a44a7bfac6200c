import json
import os
import random
import subprocess
import sys
import textwrap

import pytest
from conftest import (
    boolean_lattice,
    chain,
    diamond_m3,
    find_isomorphism,
    fixture_path,
    pentagon_n5,
    rows,
    two_level_fixture,
)

import roughkleene
from roughkleene.generators import all_lattices
from roughkleene.posets import (
    Lattice,
    NotALattice,
    OrderReport,
    Poset,
    PosetError,
    bits,
    first_bad_triple,
    has_two_levels,
    is_distributive,
    join_irreducibles,
    mask_of,
    transpose,
    validate_order,
)


def reference_validate_order(rows):
    """The O(n^3) scan validate_order replaced: row-major, first witness."""
    n = len(rows)
    refl = next(((i,) for i in range(n) if not rows[i][i]), None)
    anti = next(
        ((i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j] and rows[j][i]),
        None,
    )
    trans = next(
        (
            (i, j, k)
            for i in range(n)
            for j in range(n)
            if rows[i][j]
            for k in range(n)
            if rows[j][k] and not rows[i][k]
        ),
        None,
    )
    return OrderReport(refl, anti, trans)


def _near_order(rng):
    """A 0/1 matrix on 0-6 points: a random order with a few cells flipped,
    or noise, so that every axiom both holds and fails often."""
    n = rng.randint(0, 6)
    if rng.random() < 0.3:
        p = rng.random()
        return [[int(rng.random() < p) for _ in range(n)] for _ in range(n)]
    perm = rng.sample(range(n), n)
    rows = [[int(i == j or (perm[i] < perm[j] and rng.random() < 0.4)) for j in range(n)]
            for i in range(n)]
    for _ in range(n):  # transitive closure
        rows = [[int(any(rows[i][k] and rows[k][j] for k in range(n))) for j in range(n)]
                for i in range(n)]
    for _ in range(rng.randint(0, 2) if n else 0):
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] ^= 1
    return rows


def reference_transpose(sets, width):
    """The bit loop transpose replaced: one step per bit of each set."""
    out = [0] * width
    for k, m in enumerate(sets):
        while m:
            low = m & -m
            out[low.bit_length() - 1] |= 1 << k
            m ^= low
    return out


def seeded_sets(rng, count, width):
    """count sets of width points at a seeded density, the first third of
    them empty."""
    density = rng.random()
    sets = [sum(1 << u for u in range(width) if rng.random() < density) for _ in range(count)]
    sets[:count // 3] = [0] * (count // 3)
    return sets


class TestTranspose:
    @pytest.mark.parametrize("count, width", [(0, 0), (3, 0), (0, 5), (16, 5), (2187, 14)])
    def test_against_the_bit_loop(self, count, width):
        """Width 0, no sets, the smallest shape and the 2187 × 14 shape of
        the largest downset codes."""
        sets = seeded_sets(random.Random(count + width), count, width)
        assert transpose(sets, width) == reference_transpose(sets, width)

    def test_every_width_up_to_seventy(self):
        """Widths 1..70, most of them no multiple of 8, with 1, 9 and 40
        seeded sets each."""
        rng = random.Random(70)
        for width in range(1, 71):
            for count in (1, 9, 40):
                sets = seeded_sets(rng, count, width)
                assert transpose(sets, width) == reference_transpose(sets, width)

    def test_zero_masks_and_full_masks(self):
        for width in (1, 7, 8, 9, 64, 65):
            full = (1 << width) - 1
            assert transpose([0] * 5, width) == [0] * width
            assert transpose([full] * 5, width) == [0b11111] * width


def test_a_downset_lattice_pickles_without_its_rows():
    """A D(J) lattice crosses a process boundary with its codes, and its
    order rows are rebuilt on first read."""
    import pickle

    from roughkleene.generators import all_distributive_lattices

    for lat in all_distributive_lattices(6):
        copy = pickle.loads(pickle.dumps(lat))
        assert copy.poset._rows is None
        assert (copy.poset.below, copy.poset.above) == (lat.poset.below, lat.poset.above)
        assert (copy.covers, copy.points, copy.ji) == (lat.covers, lat.points, lat.ji)


class TestValidateOrder:
    def test_singleton_valid(self):
        assert validate_order([[1]]).valid

    def test_missing_reflexivity(self):
        report = validate_order([[0, 1], [0, 1]])
        assert report.reflexivity == (0,)
        assert not report.valid

    def test_missing_transitivity(self):
        rows = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        report = validate_order(rows)
        assert report.transitivity == (0, 1, 2)

    def test_antisymmetry(self):
        rows = [[1, 1], [1, 1]]
        assert validate_order(rows).antisymmetry == (0, 1)

    def test_matches_the_triple_loop(self):
        rng = random.Random(3)
        reports = [(validate_order(rows), reference_validate_order(rows))
                   for rows in (_near_order(rng) for _ in range(3000))]
        assert all(a == b for a, b in reports)
        # every axiom is seen both holding and failing
        for field in ("reflexivity", "antisymmetry", "transitivity"):
            assert {getattr(a, field) is None for a, _ in reports} == {True, False}


class TestPoset:
    def test_from_leq_takes_its_rows_as_above(self):
        for lat in all_lattices(6):
            p = lat.poset
            rows = [[int(p.leq(i, j)) for j in range(p.n)] for i in range(p.n)]
            q = Poset.from_leq(p.labels, rows)
            assert (q.below, q.above) == (p.below, Poset(p.labels, p.below).above)

    def test_from_covers_closure(self):
        p = Poset.from_covers(["0", "a", "1"], [(0, 1), (1, 2)])
        assert p.leq(0, 2)
        assert p.covers() == [(0, 1), (1, 2)]

    def test_cycle_rejected(self):
        with pytest.raises(PosetError):
            Poset.from_covers(["a", "b"], [(0, 1), (1, 0)])


def ref_closure(n, edges):
    """The reflexive transitive closure of cover edges by whole passes over
    the edge list until nothing changes, as down-masks."""
    below = [1 << i for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i, j in edges:
            if below[j] | below[i] != below[j]:
                below[j] |= below[i]
                changed = True
    return below


def seeded_dag(rng, n):
    """Edges up a random linear order of n ids, with a self-loop and a
    repeated edge when there is room."""
    ranks = rng.sample(range(n), n)
    edges = [(ranks[a], ranks[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.2]
    if edges:
        edges += [edges[0], (edges[0][0], edges[0][0])]
    return edges


class TestFromCovers:
    """from_covers closes the edges in one topological pass."""

    def test_fixtures(self):
        for name in ("four_chain", "jposet_two_level"):
            with open(fixture_path(name + ".json"), encoding="utf-8") as fh:
                doc = json.load(fh)
            edges = [tuple(e) for e in doc["covers"]]
            p = Poset.from_covers(doc["labels"], edges)
            assert list(p.below) == ref_closure(len(doc["labels"]), edges)

    def test_covers_of_every_lattice_up_to_eight(self):
        count = 0
        for lat in all_lattices(8):
            edges = list(zip(*lat.covers))
            for order in (edges, edges[::-1]):
                p = Poset.from_covers(lat.labels, order)
                assert list(p.below) == ref_closure(lat.n, order) == list(lat.poset.below)
            count += 1
        assert count == 300

    def test_seeded_dags_in_both_edge_orders(self):
        rng = random.Random(28)
        for _ in range(60):
            n = rng.randint(1, 40)
            edges = seeded_dag(rng, n)
            for order in (edges, edges[::-1]):
                p = Poset.from_covers([str(i) for i in range(n)], order)
                assert list(p.below) == ref_closure(n, order)

    def test_long_chain_with_top_down_edges(self):
        n = 2000
        edges = [(i, i + 1) for i in range(n - 1)][::-1]
        p = Poset.from_covers([str(i) for i in range(n)], edges)
        assert p.below == tuple((2 << i) - 1 for i in range(n))

    @pytest.mark.parametrize("edges, pair", [
        ([(0, 1), (1, 0)], (0, 1)),
        ([(0, 1), (1, 2), (2, 3), (3, 1)], (1, 2)),
        ([(2, 3), (3, 2), (0, 1), (1, 0)], (0, 1)),
    ])
    def test_cycle_message(self, edges, pair):
        with pytest.raises(PosetError, match=rf"^cover edges create a cycle through \({pair[0]},{pair[1]}\)$"):
            Poset.from_covers(["a", "b", "c", "d"], edges)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            Poset(["a", "a"], [1, 2])

    def test_downsets_of_two_chain(self):
        p = Poset.from_covers(["a", "j"], [(0, 1)])
        assert p.downsets() == [0, 1, 3]


class TestLattice:
    def test_three_chain_tables(self):
        lat = chain(3)
        assert lat.meet(0, 2) == 0
        assert lat.join(0, 2) == 2
        assert (lat.bottom, lat.top) == (0, 2)

    def test_square_from_incomparable_pair(self):
        # 0 < a,b < 1 is the four-element Boolean lattice
        p = Poset.from_covers(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
        lat = Lattice.from_poset(p)
        assert lat.meet(1, 2) == 0
        assert lat.join(1, 2) == 3

    def test_two_maximal_elements_fail(self):
        # 0 < {a,b} < c,d with no top: c,d have no join
        p = Poset.from_covers(
            ["0", "a", "b", "c", "d"],
            [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)],
        )
        with pytest.raises(NotALattice) as err:
            Lattice.from_poset(p)
        assert err.value.pair == (1, 2)
        assert err.value.kind == "join"

    def test_bent_fold_step_raises_instead_of_looping(self):
        # on the square, a v b and a ^ b both bent to a: the fold step that
        # takes in b misses it, and a fold that did not check would keep b
        # in its mask forever, so the run is bounded by a timeout
        script = textwrap.dedent("""
            from roughkleene.posets import Lattice, Poset, PosetError
            lat = Lattice.from_poset(Poset(["0", "a", "b", "1"], [1, 0b11, 0b101, 0b1111]))
            meets, joins = dict(lat.meets), dict(lat.joins)
            meets[lat.meet_codes[1] & lat.meet_codes[2]] = 1
            joins[lat.join_codes[1] | lat.join_codes[2]] = 1
            bent = Lattice(lat.poset, lat.meet_codes, lat.join_codes, meets, joins,
                           lat.bottom, lat.top)
            for fold in (bent.join_of, bent.meet_of):
                try:
                    fold(0b110)
                except PosetError as exc:
                    print(exc)
        """)
        src = os.path.dirname(os.path.dirname(roughkleene.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == [
            "join table step is not above element b",
            "meet table step is not below element b",
        ]


class TestDistributivity:
    def test_boolean_cube(self):
        assert is_distributive(boolean_lattice(3))
        assert first_bad_triple(boolean_lattice(3)) is None

    def test_diamond_witness_is_the_atom_triple(self):
        assert not is_distributive(diamond_m3())
        assert first_bad_triple(diamond_m3()) == (1, 2, 3)

    def test_pentagon(self):
        assert not is_distributive(pentagon_n5())

    def test_agrees_with_triple_scan_and_sublattice_oracle(self):
        # oracle 1: the defining law over all triples
        # oracle 2: no five-element sublattice isomorphic to M3 or N5
        m3, n5 = diamond_m3(), pentagon_n5()
        for lat in all_lattices(8):
            got = is_distributive(lat)
            law = _triple_scan(lat)
            assert got == law, f"triple scan disagrees on {lat.labels}"
            assert lat.distributive == law
            assert (first_bad_triple(lat) is None) == law
            assert got == (not _has_bad_sublattice(lat, m3, n5))


def _triple_scan(lat):
    n = lat.n
    meet, join = rows(lat)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if meet[x][join[y][z]] != join[meet[x][y]][meet[x][z]]:
                    return False
    return True


def _has_bad_sublattice(lat, m3, n5):
    from itertools import combinations

    meet, join = rows(lat)
    for sub in combinations(range(lat.n), 5):
        subset = set(sub)
        if any(
            meet[a][b] not in subset or join[a][b] not in subset
            for a in sub
            for b in sub
        ):
            continue
        smask = mask_of(sub)
        order = {v: i for i, v in enumerate(sub)}
        below = [
            mask_of(order[u] for u in bits(lat.poset.below[v] & smask)) for v in sub
        ]
        cand = Lattice.from_poset(Poset([str(v) for v in sub], below))
        for bad in (m3, n5):
            if find_isomorphism(5, cand.poset.above, 5, bad.poset.above):
                return True
    return False


class TestJoinIrreducibles:
    def test_boolean_cube_atoms(self):
        lat = boolean_lattice(3)
        ji = join_irreducibles(lat)
        assert ji.members == ji.atoms == (1, 2, 4)

    def test_three_chain(self):
        lat = chain(3)
        ji = join_irreducibles(lat)
        assert ji.members == (1, 2)
        assert ji.atoms == (1,)
        assert [lo for lo, hi in zip(*lat.covers) if hi == 2] == [1]

    def test_two_level_fixture_counts(self):
        dm = two_level_fixture()
        ji = join_irreducibles(dm.lattice)
        assert len(ji.members) == 6
        assert [dm.lattice.labels[a] for a in ji.atoms] == ["a", "b", "c"]

    def test_matches_definition_by_brute_force(self):
        # j is join-irreducible iff j = join(S) forces j in S, over all subsets
        for lat in all_lattices(6):
            ji = join_irreducibles(lat)
            elems = list(range(lat.n))
            for j in elems:
                irr = True
                if j == lat.bottom:
                    irr = False
                else:
                    for s in range(1 << lat.n):
                        if s >> j & 1:
                            continue
                        if lat.join_all(bits(s)) == j:
                            irr = False
                            break
                assert irr == (j in ji), f"element {j} of {lat.labels}"

    def test_definition_on_a_twelve_element_lattice(self):
        from roughkleene.generators import product_of_chains

        lat = product_of_chains([2, 6])
        ji = join_irreducibles(lat)
        for j in range(lat.n):
            irr = j != lat.bottom and not any(
                lat.join_all(bits(s)) == j
                for s in range(1 << lat.n)
                if not s >> j & 1
            )
            assert irr == (j in ji)


class TestTwoLevels:
    def test_boolean(self):
        lat = boolean_lattice(3)
        assert has_two_levels(lat) == (True, None)

    def test_four_chain_witness(self):
        lat = chain(4)
        ok, witness = has_two_levels(lat)
        assert not ok
        assert witness == (2, 3)  # b < 1 with b not an atom

    def test_two_level_fixture(self):
        dm = two_level_fixture()
        assert has_two_levels(dm.lattice)[0]

    def test_no_three_chain_equivalence(self):
        # for (spatial) finite lattices: two levels iff no 3-chain among
        # the join-irreducibles
        for lat in all_lattices(7):
            ji = lat.ji
            two = has_two_levels(lat)[0]
            p = lat.poset
            three_chain = any(
                p.leq(a, b) and p.leq(b, c) and a != b and b != c
                for a in ji.members
                for b in ji.members
                for c in ji.members
            )
            assert two == (not three_chain)
