import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from conftest import (
    full_tolerance,
    identity_tolerance,
    isomorphisms,
    rows,
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
from roughkleene.isomorph import lattice_key
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
                pairs = join_closure_pairs(tol, cov)[0]
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
        assert rows(by_sweep.lattice) == rows(by_downsets.lattice)
        for op in ("neg", "star", "plus"):
            assert getattr(by_sweep, op) == getattr(by_downsets, op)

    def test_join_closure_equals_powerset_on_small_irredundant(self):
        count = 0
        for n in range(1, 5):
            for cov in irredundant_coverings(n):
                tol = tolerance_from_covering(cov)
                assert join_closure_pairs(tol, cov)[0] == _powerset_pairs(tol)
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
            assert join_closure_pairs(tol, cov)[0] == _powerset_pairs(tol)
            count += 1

    def test_partition_seven_pairs(self):
        cov = Covering([str(i) for i in range(14)], [3 << (2 * i) for i in range(7)])
        tol = tolerance_from_covering(cov)
        start = time.perf_counter()
        pairs = join_closure_pairs(tol, cov)[0]
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
        # a tolerance that no irredundant covering induces, whose rough order
        # is a lattice: the powerset route, with its keyed maps
        tol = tolerance_from_encoding(4, 13)
        assert induced_irredundant_covering(tol) is None
        real = rough.inclusion_lattice

        def corrupted(labels, sets, width):
            lat = real(labels, sets, width)
            # bottom v bottom and top ^ top both land on the wrong end: the
            # key of a diagonal pair is the element's own code
            corner = lat.bottom if kind == "join" else lat.top
            keyed = lat.joins if kind == "join" else lat.meets
            keyed[sets[corner]] = lat.top if kind == "join" else lat.bottom
            return lat

        monkeypatch.setattr(rough, "inclusion_lattice", corrupted)
        with pytest.raises(FormulaMismatch, match=f"^{kind}:") as info:
            build_rs(tol)
        full = (1 << tol.n) - 1
        corner = (0, 0) if kind == "join" else (full, full)
        assert info.value.details == {"pair": (corner, corner), "formula": corner}

    @pytest.mark.parametrize("bent, kind, witness", [
        # (1,1) -> (1,0) keeps both orders; the first failing pair of the
        # row-major scan is in row 1, not on the bent element's diagonal
        ((1, 0), "join", (((0, 6), (1, 0)), (1, 6))),
        ((1, 3), "meet", (((1, 3), (1, 3)), (1, 1))),
    ])
    def test_corrupted_pair_set_on_the_downset_route(self, monkeypatch, bent, kind, witness):
        """The partition {1},{2,3}: one pair of join_closure_pairs bent so
        that the rough order is still the downset order; the per-point
        certificate fails, and the first (pair, formula) of a row-major scan
        of every pair, meet before join, is named."""
        tol = tolerance_from_covering(Covering(["1", "2", "3"], [1, 6]))
        real = rough.join_closure_pairs

        def bent_pairs(t, c):
            pairs, downsets, below = real(t, c)
            assert pairs == [(0, 0), (0, 6), (1, 1), (1, 7), (6, 6), (7, 7)]
            return [bent if pr == (1, 1) else pr for pr in pairs], downsets, below

        monkeypatch.setattr(rough, "join_closure_pairs", bent_pairs)
        with pytest.raises(FormulaMismatch, match=f"^{kind}:") as info:
            build_rs(tol)
        pair, formula = witness
        assert info.value.details == {"pair": pair, "formula": formula}

    def test_order_differing_from_the_downsets_is_caught(self, monkeypatch):
        # the downsets of the two atoms (0,6) and (1,1) swapped: the family
        # is still all of D(J) and each atom's own ↓ still agrees, so the
        # first element whose ↓ differs is (6,6), above (0,6) alone
        tol = tolerance_from_covering(Covering(["1", "2", "3"], [1, 6]))
        real = rough.join_closure_pairs

        def swapped(t, c):
            pairs, downsets, below = real(t, c)
            downsets[1], downsets[2] = downsets[2], downsets[1]
            return pairs, downsets, below

        monkeypatch.setattr(rough, "join_closure_pairs", swapped)
        with pytest.raises(FormulaMismatch, match="^rough order is not the downset order") as info:
            build_rs(tol)
        assert info.value.details == {"pair": (6, 6)}


    def test_the_downset_route_orders_only_j(self, monkeypatch):
        """build_rs of the partition into seven 2-point blocks (P=2187)
        orders the 14 join-irreducibles once, in join_closure_pairs; the
        certificate that holds there makes a second, P-element rough order
        needless."""
        real, calls = rough.rough_order, []

        def counted(pairs, n_points):
            calls.append(len(pairs))
            return real(pairs, n_points)

        monkeypatch.setattr(rough, "rough_order", counted)
        cov = Covering([f"p{i}" for i in range(14)], [3 << 2 * i for i in range(7)])
        assert build_rs(tolerance_from_covering(cov)).n == 2187
        assert calls == [14]


class TestPartitions:
    def test_gehrke_walker_on_partitions(self):
        for cov in all_partitions(4):
            tol = tolerance_from_covering(cov)
            rs = build_rs(tol)
            singles = sum(1 for b in cov.blocks if b.bit_count() == 1)
            multis = len(cov.blocks) - singles
            assert rs.n == 2**singles * 3**multis


def eager_labels(pairs, names):
    """Every rough label formatted up front, "(lower,upper)" of each pair."""
    def fmt(mask):
        return "{" + ",".join(names[i] for i in bits(mask)) + "}"

    return [f"({fmt(lo)},{fmt(up)})" for lo, up in pairs]


def verify_ladder():
    """The partitions into 4..6 pairs and the paths of 4..7 blocks, with
    point labels p0, p1, ... and q0, q1, ..., each also in a seeded order."""
    rng = random.Random(28)
    out = []
    for prefix, blocks in [("p", [3 << 2 * i for i in range(k)]) for k in (4, 5, 6)] + \
                          [("q", [7 << 2 * i for i in range(b)]) for b in (4, 5, 6, 7)]:
        n = max(blocks).bit_length()
        perm = rng.sample(range(n), n)
        for order in (range(n), perm):
            moved = [mask_of(order[x] for x in bits(b)) for b in blocks]
            out.append(Covering([f"{prefix}{i}" for i in range(n)], moved).tolerance)
    return out


class TestLabelsOnRead:
    """The rough labels are formatted when read, and equal the eager ones."""

    def test_equal_the_eager_labels_and_pickle(self):
        import pickle

        count = 0
        tolerances = [cov.tolerance for n in range(1, 6) for cov in irredundant_coverings(n)]
        for tol in tolerances + verify_ladder():
            rs = build_rs(tol)
            labels, want = rs.lattice.labels, eager_labels(rs.pairs, tol.labels)
            assert isinstance(labels, rough.RoughLabels) and labels.distinct
            assert len(labels) == len(want) and list(labels) == want
            assert [labels[i] for i in range(-len(want), len(want))] == want + want
            back = pickle.loads(pickle.dumps(rs.lattice))
            assert type(back.labels) is rough.RoughLabels and list(back.labels) == want
            count += 1
        assert count == 522 + 14

    def test_slices_are_tuples_of_labels(self):
        """A slice of the labels is the tuple of those labels, as a slice of
        the eager tuple is, over a grid of starts, stops and steps, negative
        ones too, on the covering {ab, bc} and on the seven-block path."""
        for cov in (Covering(["a", "b", "c"], [0b011, 0b110]),
                    Covering([f"q{i}" for i in range(15)], [7 << 2 * i for i in range(7)])):
            labels = build_rs(cov.tolerance).lattice.labels
            want = tuple(list(labels))
            n = len(want)
            ends = [None, 0, 1, 2, n // 2, n - 1, n, n + 3, -1, -2, -n, -n - 3]
            for start in ends:
                for stop in ends:
                    for step in (None, 1, 2, 3, n, -1, -2, -3, -n):
                        s = slice(start, stop, step)
                        assert labels[s] == want[s], s
                        assert type(labels[s]) is tuple
            assert labels[:] == want and labels[::-1] == want[::-1]
            with pytest.raises(ValueError):
                labels[::0]

    def test_a_passing_verify_formats_no_label(self, monkeypatch):
        """verify of the 7-block path reads no rough label; a render or a
        bundle formats only the labels it reads."""
        from roughkleene.reports import verify_report

        real, calls = rough._fmt_set, []

        def counted(mask, labels):
            calls.append(mask)
            return real(mask, labels)

        monkeypatch.setattr(rough, "_fmt_set", counted)
        cov = Covering([f"q{i}" for i in range(15)], [7 << 2 * i for i in range(7)])
        report = verify_report(cov)
        assert report["failures"] == [] and report["rsSize"] == 577
        assert calls == []
        lattice = build_rs(cov.tolerance).lattice
        assert calls == []
        assert lattice.labels[lattice.top] == "({" + ",".join(cov.labels) + "},{" + ",".join(cov.labels) + "})"
        assert len(calls) == 1

    @pytest.mark.parametrize("names, nbr, raises", [
        (["x", "y", "x,y"], [1, 2, 4], True),
        (["a", "a"], [1, 2], True),
        (["", "a"], [1, 2], True),
        (["a", "b,c"], [1, 2], False),
        (["(a)", "{b}", "c"], [3, 3, 4], False),
        (["x", "y", "x,y", "z"], [0b1011, 0b0111, 0b1110, 0b1101], False),
        (["x", "x", "y", "z"], [0b1011, 0b0111, 0b1110, 0b1101], True),
        (["a", "b", "c", ""], [0b1011, 0b0111, 0b1110, 0b1101], True),
        (["a", "b", "c", "d,e"], [0b1011, 0b0111, 0b1110, 0b1101], False),
    ])
    def test_point_labels_that_break_the_rule(self, names, nbr, raises):
        """With a point label that is empty, repeated or holds one of
        ",{}()", the labels are checked as formatted; they raise exactly
        when two rough pairs format alike.  The 4-cycle takes the powerset
        route, the others the downset route."""
        tol = Tolerance(names, nbr)
        assert (len(set(eager_labels(_powerset_pairs(tol), names)))
                != len(_powerset_pairs(tol))) == raises
        if raises:
            with pytest.raises(ValueError, match=r"^labels must be pairwise distinct$"):
                build_rs(tol)
            return
        try:
            rs = build_rs(tol)
        except NotALattice:
            return
        assert not rs.lattice.labels.distinct
        assert list(rs.lattice.labels) == eager_labels(rs.pairs, names)


def assemble_bent(monkeypatch, tol, value_of):
    """_assemble of tol's covering algebra with approximations returning
    (full, 0), a pair of no algebra, wherever value_of(X) holds; the pair
    set and its downsets are found before the patch."""
    cov = induced_irredundant_covering(tol)
    pairs, downsets, below = join_closure_pairs(tol, cov)
    real, full = rough.approximations, (1 << tol.n) - 1
    monkeypatch.setattr(rough, "approximations",
                        lambda t, X: (full, 0) if value_of(X) else real(t, X))
    return _assemble(tol, pairs, cov, downsets, below)


class TestUnaryMaps:
    """neg, star and plus are looked up in one pass each; a value outside
    the pair set is named by the pair-by-pair scan, as before."""

    def test_maps_equal_the_pair_lookups(self):
        for tol in verify_ladder()[::3]:
            rs, full = build_rs(tol), (1 << tol.n) - 1
            for (lo, up), n, s, p in zip(rs.pairs, rs.neg, rs.star, rs.plus):
                assert rs.pairs[n] == (full & ~up, full & ~lo)
                assert rs.pairs[s] == approximations(tol, full & ~up)
                assert rs.pairs[p] == approximations(tol, full & ~lo)

    def test_a_lost_neg_target(self):
        """The pairs of the 3-block path over a universe with one more,
        isolated point: the order and closed forms hold, and the neg of the
        bottom is the new top, outside the pair set."""
        tol = path_tolerance(3)
        wider = Tolerance(tol.labels + ("z",), tol.nbr + (1 << tol.n,))
        with pytest.raises(FormulaMismatch) as info:
            _assemble(wider, build_rs(tol).pairs, None)
        assert str(info.value) == "unary operation leaves the pair set: {'value': (255, 255)}"

    @pytest.mark.parametrize("half, message", [
        ("star", "unary operation leaves the pair set: {'value': (127, 0)}"),
        ("plus", "unary operation leaves the pair set: {'value': (127, 0)}"),
    ])
    def test_a_lost_star_or_plus_target(self, monkeypatch, half, message):
        """The complement approximation of one half, an upper set that is
        no pair's lower set (star) or a lower set that is no pair's upper
        set (plus), bent out of the pair set."""
        tol = path_tolerance(3)
        pairs, full = build_rs(tol).pairs, (1 << tol.n) - 1
        los, ups = {lo for lo, _ in pairs}, {up for _, up in pairs}
        bent = min(ups - los) if half == "star" else min(los - ups)
        with pytest.raises(FormulaMismatch) as info:
            assemble_bent(monkeypatch, tol, lambda X: X == full & ~bent)
        assert str(info.value) == message


def path_tolerance(b):
    """The tolerance of the path covering {0,1,2}, {2,3,4}, ... of b blocks."""
    return Covering([str(i) for i in range(2 * b + 1)], [7 << 2 * i for i in range(b)]).tolerance
