import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import (
    full_tolerance,
    identity_tolerance,
    two_level_covering,
    two_level_fixture,
    two_level_tolerance,
)

from roughkleene.generators import (
    all_partitions,
    irredundant_coverings,
    product_of_chains,
    tolerance_from_encoding,
)
from roughkleene.isomorph import isomorphisms, lattice_key
from roughkleene import rough
from roughkleene.posets import NotALattice, TableCapExceeded, bits, mask_of
from roughkleene.rough import (
    BoundsExceeded,
    Covering,
    FormulaMismatch,
    Tolerance,
    approximations,
    _assemble,
    _powerset_pairs,
    blocks_of,
    build_rs,
    build_rs_spatial,
    galois_holds,
    induced_irredundant_covering,
    is_irredundant,
    isolated_blocks,
    join_closure_pairs,
    powerset_image_report,
    powerset_images,
    rs_g_map,
    rs_join_irreducibles,
    skeleton_isomorphism_report,
    tolerance_from_covering,
)

TOL = two_level_tolerance()


def msk(*names):
    return mask_of(TOL.labels.index(x) for x in names)


SPAN_A = msk("a", "j", "x")
SPAN_B = msk("b", "k", "x", "y")
SPAN_C = msk("c", "l", "y")


class TestApproximations:
    def test_empty_and_full(self):
        full = (1 << TOL.n) - 1
        assert approximations(TOL, 0) == (0, 0)
        assert approximations(TOL, full) == (full, full)

    def test_core_of_middle_block(self):
        lo, up = approximations(TOL, SPAN_B)
        assert lo == msk("b", "k")

    def test_singleton_overlap_point(self):
        lo, up = approximations(TOL, msk("x"))
        assert lo == 0
        assert up == SPAN_A | SPAN_B


class TestBlocks:
    def test_identity_singletons(self):
        assert blocks_of(identity_tolerance(4)) == [1, 2, 4, 8]

    def test_full_single_block(self):
        assert blocks_of(full_tolerance(3)) == [7]

    def test_fixture_blocks_are_the_spans(self):
        assert sorted(blocks_of(TOL)) == sorted([SPAN_A, SPAN_B, SPAN_C])

    def test_extra_block_beyond_covering(self):
        # three blocks arranged in a triangle create a fourth maximal clique
        labels = ["1", "2", "3", "4", "5", "6"]
        cov = Covering(
            labels,
            [mask_of([0, 1, 2]), mask_of([2, 3, 4]), mask_of([4, 5, 0])],
        )
        tol = tolerance_from_covering(cov)
        assert is_irredundant(cov).irredundant
        blocks = blocks_of(tol)
        assert mask_of([0, 2, 4]) in blocks
        assert len(blocks) == 4


class TestCoverings:
    def test_partition_gives_equivalence(self):
        cov = Covering(["1", "2", "3"], [1, 6])
        tol = tolerance_from_covering(cov)
        for x in range(3):
            for y in bits(tol.nbr[x]):
                assert tol.nbr[y] == tol.nbr[x]  # transitive

    def test_fixture_neighborhoods(self):
        assert TOL.nbr[TOL.labels.index("a")] == SPAN_A
        assert TOL.nbr[TOL.labels.index("j")] == SPAN_A
        assert TOL.nbr[TOL.labels.index("b")] == SPAN_B
        assert TOL.nbr[TOL.labels.index("k")] == SPAN_B
        assert TOL.nbr[TOL.labels.index("c")] == SPAN_C
        assert TOL.nbr[TOL.labels.index("l")] == SPAN_C
        assert TOL.nbr[TOL.labels.index("x")] == SPAN_A | SPAN_B
        assert TOL.nbr[TOL.labels.index("y")] == SPAN_B | SPAN_C

    def test_single_block_full(self):
        cov = Covering(["1", "2"], [3])
        assert tolerance_from_covering(cov).nbr == (3, 3)


class TestIrredundance:
    def test_partition_irredundant(self):
        assert is_irredundant(Covering(["1", "2", "3"], [1, 6])).irredundant

    def test_triangle_of_pairs_redundant(self):
        cov = Covering(["1", "2", "3"], [3, 6, 5])
        rep = is_irredundant(cov)
        assert not rep.irredundant
        assert rep.removable is not None

    def test_fixture_irredundant(self):
        assert is_irredundant(two_level_covering()).irredundant

    def test_induced_irredundant_covering_roundtrip(self):
        cov = induced_irredundant_covering(TOL)
        assert cov is not None
        assert sorted(cov.blocks) == sorted([SPAN_A, SPAN_B, SPAN_C])

    def test_not_induced_by_any_irredundant(self):
        tol = tolerance_from_encoding(5, 58)
        assert induced_irredundant_covering(tol) is None


class TestBuildRS:
    def test_identity_is_powerset(self):
        rs = build_rs(identity_tolerance(3))
        assert rs.n == 8
        assert all(lo == up for lo, up in rs.pairs)

    def test_small_equivalence_is_two_by_three(self):
        rs = build_rs(tolerance_from_covering(Covering(["1", "2", "3"], [1, 6])))
        assert rs.n == 6
        assert lattice_key(rs.lattice) == lattice_key(product_of_chains([2, 3]))

    def test_fixture_rs_isomorphic_to_source_algebra(self):
        # independent oracle for the representation: an isomorphism search
        # that must also respect the negation and the pseudocomplement
        from roughkleene.pseudo import compute_pseudocomplements

        dm = two_level_fixture()
        rs = build_rs(TOL)
        assert rs.n == dm.lattice.n == 17
        dp = compute_pseudocomplements(dm.lattice)
        found = next(
            isomorphisms(
                dm.lattice.n,
                dm.lattice.poset.above,
                rs.n,
                rs.lattice.poset.above,
                respecting=[(dm.neg, rs.neg), (dp.star, rs.star), (dp.plus, rs.plus)],
            ),
            None,
        )
        assert found is not None

    def test_non_lattice_witness(self):
        tol = tolerance_from_encoding(5, 58)
        with pytest.raises(NotALattice):
            build_rs(tol)

    def test_bounds(self):
        # the identity is a partition: the downset route stops at the table
        # cap, as it has 2^17 rough pairs
        with pytest.raises(TableCapExceeded):
            build_rs(identity_tolerance(17))
        # no irredundant covering induces a path: the powerset sweep refuses
        path = Tolerance.from_pairs([str(i) for i in range(17)], [(i, i + 1) for i in range(16)])
        assert induced_irredundant_covering(path) is None
        with pytest.raises(BoundsExceeded):
            build_rs(path)
        # the cap guards every 2^U sweep, the images too
        with pytest.raises(BoundsExceeded, match="universe of 17 exceeds the enumeration cap 16"):
            powerset_images(identity_tolerance(17))

    def test_spatial_route_matches_powerset(self):
        for cov in (two_level_covering(), Covering(["1", "2", "3"], [1, 6])):
            tol = tolerance_from_covering(cov)
            assert build_rs_spatial(tol).pairs == tuple(_powerset_pairs(tol))


class TestJoinIrreducibleFormulas:
    def test_identity(self):
        rs = build_rs(identity_tolerance(2))
        rji = rs_join_irreducibles(rs)
        assert rji.members == ((1, 1), (2, 2))
        assert rji.atoms == rji.members

    def test_fixture_has_six(self):
        rs = build_rs(TOL)
        rji = rs_join_irreducibles(rs)
        assert len(rji.members) == 6
        assert (0, SPAN_A) in rji.members
        assert approximations(TOL, SPAN_A) in rji.members
        assert rji.atoms == tuple(sorted([(0, SPAN_A), (0, SPAN_B), (0, SPAN_C)]))

    def test_one_block_two_points(self):
        rs = build_rs(full_tolerance(2))
        rji = rs_join_irreducibles(rs)
        assert rji.members == ((0, 3), (3, 3))


class TestGMapFormula:
    def test_fixture_block_swap(self):
        rs = build_rs(TOL)
        g = rs_g_map(rs)
        empty_a = rs.index[(0, SPAN_A)]
        pair_a = rs.index[approximations(TOL, SPAN_A)]
        assert g[empty_a] == pair_a
        assert g[pair_a] == empty_a
        assert rs.pairs[pair_a] == (msk("a", "j"), SPAN_A | SPAN_B)

    def test_singleton_fixed_point(self):
        rs = build_rs(identity_tolerance(2))
        g = rs_g_map(rs)
        for jid in rs.ji.members:
            assert g[jid] == jid

    def test_involution(self):
        for tol in (TOL, identity_tolerance(3), full_tolerance(3)):
            rs = build_rs(tol)
            g = rs_g_map(rs)
            assert all(g[g[j]] == j for j in rs.ji.members)


class TestIsolatedBlocks:
    def test_partition_blocks_isolated(self):
        rs = build_rs(tolerance_from_covering(Covering(["1", "2", "3"], [1, 6])))
        assert all(item.isolated for item in isolated_blocks(rs))

    def test_fixture_blocks_not_isolated(self):
        rs = build_rs(TOL)
        assert not any(item.isolated for item in isolated_blocks(rs))

    def test_singleton_isolated(self):
        rs = build_rs(identity_tolerance(2))
        assert all(item.isolated for item in isolated_blocks(rs))


class TestGaloisAndImages:
    def test_galois_exhaustive_small(self):
        for n in range(1, 5):
            for _, tol in _all_tolerances(n):
                size = 1 << n
                for x in range(size):
                    lo, up = approximations(tol, x)
                    assert tol.lower(tol.upper(lo)) == lo
                    assert tol.upper(tol.lower(up)) == up
                    for y in range(size):
                        assert galois_holds(tol, x, y)

    def test_galois_sampled_ten_points(self):
        rng = random.Random(11)
        pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)]
        chosen = [p for p in pairs if rng.random() < 0.3]
        tol = Tolerance.from_pairs([str(i) for i in range(10)], chosen)
        for _ in range(2000):
            x = rng.randrange(1 << 10)
            y = rng.randrange(1 << 10)
            assert galois_holds(tol, x, y)
            lo, up = approximations(tol, x)
            assert tol.lower(tol.upper(lo)) == lo
            assert tol.upper(tol.lower(up)) == up

    def test_image_report_fixture(self):
        los, ups = powerset_image_report(TOL, two_level_covering())
        assert len(los) == len(ups) == 8  # Boolean on three block atoms

    def test_skeleton_isomorphisms_fixture(self):
        rs = build_rs(TOL)
        sizes = skeleton_isomorphism_report(rs)
        assert sizes == {"star": 8, "plus": 8}

    def test_pair_projections_are_the_images(self):
        # skeleton_isomorphism_report reads the images off the rough pairs.
        count = 0
        for n in range(1, 6):
            for cov in irredundant_coverings(n):
                tol = tolerance_from_covering(cov)
                pairs = join_closure_pairs(tol, cov)
                assert powerset_images(tol) == (
                    sorted({lo for lo, _ in pairs}),
                    sorted({up for _, up in pairs}),
                )
                count += 1
        assert count == 522


def _all_tolerances(n):
    from roughkleene.generators import all_tolerances

    return all_tolerances(n)


@st.composite
def irredundant_covering_6_to_9(draw):
    """Random blocks of 1-3 points on 6-9 points, the uncovered points as
    singleton blocks, then every block the others already cover dropped in
    turn: no block left can go, so the covering is irredundant."""
    n = draw(st.integers(6, 9))
    full = (1 << n) - 1
    block = st.sets(st.integers(0, n - 1), min_size=1, max_size=3).map(mask_of)
    blocks = draw(st.lists(block, min_size=1, max_size=9))
    covered = 0
    for b in blocks:
        covered |= b
    kept = sorted({*blocks, *(1 << x for x in bits(full & ~covered))})
    for b in list(kept):
        rest = 0
        for c in kept:
            if c != b:
                rest |= c
        if rest == full:
            kept.remove(b)
    return Covering([str(i) for i in range(n)], kept)


class TestDualRoute:
    @settings(derandomize=True, deadline=None, max_examples=150,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cov=irredundant_covering_6_to_9())
    def test_routes_build_the_same_algebra(self, cov):
        assert is_irredundant(cov).irredundant
        tol = tolerance_from_covering(cov)
        by_sweep, by_downsets = _assemble(tol, _powerset_pairs(tol), cov), build_rs(tol)
        for rs in (by_sweep, by_downsets):
            assert rs.covering is not None
        assert by_sweep.pairs == by_downsets.pairs
        assert by_sweep.lattice.meet == by_downsets.lattice.meet
        assert by_sweep.lattice.join == by_downsets.lattice.join
        for op in ("neg", "star", "plus"):
            assert getattr(by_sweep, op) == getattr(by_downsets, op)

    def test_join_closure_equals_powerset_on_small_irredundant(self):
        count = 0
        for n in range(1, 5):
            for cov in irredundant_coverings(n):
                tol = tolerance_from_covering(cov)
                assert join_closure_pairs(tol, cov) == _powerset_pairs(tol)
                count += 1
        assert count == 60  # 1 + 2 + 8 + 49

    def test_downset_route_equals_powerset_on_random_irredundant(self):
        rng = random.Random(7)
        count = 0
        while count < 40:
            n = rng.randint(6, 9)
            blocks = [rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 5))]
            covered = 0
            for b in blocks:
                covered |= b
            blocks.append(((1 << n) - 1) & ~covered or blocks[0])
            cov = Covering([str(i) for i in range(n)], blocks)
            if not is_irredundant(cov).irredundant:
                continue
            tol = tolerance_from_covering(cov)
            assert join_closure_pairs(tol, cov) == _powerset_pairs(tol)
            count += 1

    def test_partition_seven_pairs(self):
        cov = Covering([str(i) for i in range(14)], [3 << (2 * i) for i in range(7)])
        tol = tolerance_from_covering(cov)
        start = time.perf_counter()
        pairs = join_closure_pairs(tol, cov)
        elapsed = time.perf_counter() - start
        assert len(pairs) == 3**7
        assert pairs == _powerset_pairs(tol)
        assert elapsed < 1.0

    def test_repeated_join_is_caught(self, monkeypatch):
        # a join of two join-irreducibles passed off as a third: the downsets
        # with and without it share a join, which the Birkhoff check refuses
        cov = Covering(["1", "2", "3", "4"], [3, 12])
        tol = tolerance_from_covering(cov)
        real = rough.formula_join_irreducibles
        monkeypatch.setattr(rough, "formula_join_irreducibles",
                            lambda t, c: real(t, c) + [(0, 15)])
        with pytest.raises(FormulaMismatch, match="two downsets share a join"):
            join_closure_pairs(tol, cov)


class TestFormulaCheck:
    @pytest.mark.parametrize("kind", ["meet", "join"])
    def test_corrupted_table_is_caught(self, monkeypatch, kind):
        real = rough.inclusion_lattice

        def corrupted(labels, sets, width):
            lat, meet_of, join_of = real(labels, sets, width)
            # bottom v bottom and top ^ top both land on the wrong end: the
            # key of a diagonal cell is the element's own code
            corner = lat.bottom if kind == "join" else lat.top
            keyed = join_of if kind == "join" else meet_of
            keyed[sets[corner]] = lat.top if kind == "join" else lat.bottom
            return lat, meet_of, join_of

        monkeypatch.setattr(rough, "inclusion_lattice", corrupted)
        with pytest.raises(FormulaMismatch, match=f"^{kind}:") as info:
            build_rs(TOL)
        full = (1 << TOL.n) - 1
        corner = (0, 0) if kind == "join" else (full, full)
        assert info.value.details == {"pair": (corner, corner), "formula": corner}


class TestPartitions:
    def test_gehrke_walker_on_partitions(self):
        for cov in all_partitions(4):
            tol = tolerance_from_covering(cov)
            rs = build_rs(tol)
            singles = sum(1 for b in cov.blocks if b.bit_count() == 1)
            multis = len(cov.blocks) - singles
            assert rs.n == 2**singles * 3**multis
