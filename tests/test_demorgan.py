import pytest
from conftest import (
    boolean_complement,
    boolean_lattice,
    chain,
    kleene_three,
    square_demorgan,
    two_level_fixture,
)

from roughkleene.demorgan import (
    DeMorganError,
    GViolatesJ1J2J3,
    antitone_involutions,
    build_kleene_from_jposet,
    compute_g,
    is_kleene,
    neg_from_g,
    validate_demorgan,
)
from roughkleene.generators import all_distributive_lattices
from roughkleene.posets import Poset


class TestValidate:
    def test_two_chain_swap(self):
        dm = validate_demorgan(chain(2), (1, 0))
        assert dm.neg == (1, 0)

    def test_square_identity_on_atoms(self):
        assert square_demorgan(swap=False).neg == (3, 1, 2, 0)

    def test_non_bijection_rejected(self):
        with pytest.raises(DeMorganError):
            validate_demorgan(boolean_lattice(2), (3, 1, 1, 0))

    def test_not_antitone_rejected(self):
        with pytest.raises(DeMorganError):
            validate_demorgan(chain(3), (0, 1, 2))

    def test_non_distributive_rejected(self):
        from conftest import diamond_m3

        lat = diamond_m3()
        with pytest.raises(DeMorganError):
            validate_demorgan(lat, (4, 1, 2, 3, 0))


class TestKleene:
    def test_three_chain_is_kleene(self):
        assert is_kleene(kleene_three()) == (True, None)

    def test_square_swap_is_kleene(self):
        # the swap is the Boolean complement: x ^ ~x = 0 everywhere
        assert is_kleene(square_demorgan(swap=True)) == (True, None)

    def test_square_fixing_atoms_is_not(self):
        ok, witness = is_kleene(square_demorgan(swap=False))
        assert not ok
        assert witness == (1, 2)  # a ^ ~a = a is not below b v ~b = b

    def test_boolean_complement_is_kleene(self):
        for n in (1, 2, 3):
            dm = validate_demorgan(boolean_lattice(n), boolean_complement(n))
            assert is_kleene(dm)[0]


class TestGMap:
    def test_three_chain_swaps_levels(self):
        dm = kleene_three()
        g = compute_g(dm)
        assert g == {1: 2, 2: 1}

    def test_boolean_identity_on_atoms(self):
        dm = validate_demorgan(boolean_lattice(3), boolean_complement(3))
        g = compute_g(dm)
        assert g == {1: 1, 2: 2, 4: 4}

    def test_two_level_fixture_pairs_atoms_with_uppers(self):
        dm = two_level_fixture()
        lab = dm.lattice.labels
        g = compute_g(dm)
        named = {lab[k]: lab[v] for k, v in g.items()}
        assert named == {"a": "j", "j": "a", "b": "k", "k": "b", "c": "l", "l": "c"}

    def test_neg_rebuilt_from_g(self):
        dm = kleene_three()
        g = compute_g(dm)
        assert neg_from_g(dm.lattice, g) == (2, 1, 0)

    def test_fixture_negation_of_an_atom(self):
        # ~a is the join of every join-irreducible except g(a) = j, which
        # works out to the element below exactly {a,b,c,k,l}: label "k|l"
        dm = two_level_fixture()
        lab = dm.lattice.labels
        a = lab.index("a")
        assert lab[dm.neg[a]] == "k|l"

    def test_round_trip_everywhere_small(self):
        for lat in all_distributive_lattices(8):
            for neg in antitone_involutions(lat):
                dm = validate_demorgan(lat, neg)
                g = compute_g(dm)
                assert neg_from_g(lat, g) == dm.neg

    def test_comparability_iff_kleene_small(self):
        for lat in all_distributive_lattices(8):
            p = lat.poset
            for neg in antitone_involutions(lat):
                dm = validate_demorgan(lat, neg)
                g = compute_g(dm)
                j3 = all(p.leq(j, g[j]) or p.leq(g[j], j) for j in lat.ji.members)
                assert j3 == is_kleene(dm)[0]


class TestBuildFromJPoset:
    def test_antichain_gives_boolean_with_complement(self):
        jposet = Poset(["a", "b", "c"], (1, 2, 4))
        dm = build_kleene_from_jposet(jposet, {0: 0, 1: 1, 2: 2})
        assert dm.lattice.n == 8
        # the negation complements: meet with it is bottom, join is top
        lat = dm.lattice
        for x in range(8):
            assert lat.meet(x, dm.neg[x]) == lat.bottom
            assert lat.join(x, dm.neg[x]) == lat.top

    def test_two_chain_jposet_gives_kleene_three(self):
        jposet = Poset.from_covers(["a", "j"], [(0, 1)])
        dm = build_kleene_from_jposet(jposet, {0: 1, 1: 0})
        assert dm.lattice.n == 3
        assert is_kleene(dm)[0]
        assert dm.neg == (2, 1, 0)

    def test_fixture_shape(self):
        dm = two_level_fixture()
        assert dm.lattice.n == 17
        assert is_kleene(dm)[0]

    def test_g_must_be_involution(self):
        jposet = Poset(["a", "b"], (1, 2))
        with pytest.raises(GViolatesJ1J2J3):
            build_kleene_from_jposet(jposet, {0: 1, 1: 1})

    def test_g_must_be_antitone(self):
        # a < j but g = identity is not antitone on a 2-chain
        jposet = Poset.from_covers(["a", "j"], [(0, 1)])
        with pytest.raises(GViolatesJ1J2J3):
            build_kleene_from_jposet(jposet, {0: 0, 1: 1})


class TestInvolutionEnumeration:
    def test_square_has_two(self):
        assert len(list(antitone_involutions(boolean_lattice(2)))) == 2

    def test_chain_has_one(self):
        for n in (2, 3, 4, 5):
            assert list(antitone_involutions(chain(n))) == [
                tuple(range(n - 1, -1, -1))
            ]

    def test_non_self_dual_has_none(self):
        # downsets of the "V" poset (one atom under two tops): one atom but
        # two coatoms, so no order-reversing bijection can exist
        from roughkleene.posets import Lattice

        below = (1, 0b00011, 0b00111, 0b01011, 0b11111)
        lat = Lattice.from_poset(Poset(["0", "x", "y", "z", "1"], below))
        assert list(antitone_involutions(lat)) == []

    def test_counts_are_involution_counts(self):
        # every yielded map is an antitone involution and none is repeated
        for lat in all_distributive_lattices(6):
            seen = set()
            for neg in antitone_involutions(lat):
                assert neg not in seen
                seen.add(neg)
                validate_demorgan(lat, neg)
