import pytest
from conftest import (
    boolean_complement,
    boolean_lattice,
    chain,
    diamond_m3,
    four_chain_kleene,
    kleene_three,
    two_level_fixture,
)

from roughkleene.demorgan import antitone_involutions, validate_demorgan
from roughkleene.generators import all_distributive_lattices
from roughkleene.posets import join_irreducibles
from roughkleene.pseudo import (
    NoPseudocomplement,
    check_M_D_N,
    compute_pseudocomplements,
    demorgan_pseudo_report,
    heyting_implications,
    is_regular,
    prime_filters,
    skeletons,
)


class TestPseudocomplements:
    def test_boolean_star_is_complement(self):
        for n in (1, 2, 3):
            lat = boolean_lattice(n)
            dp = compute_pseudocomplements(lat)
            comp = boolean_complement(n)
            assert dp.star == comp
            assert dp.plus == comp

    def test_three_chain_values(self):
        dp = compute_pseudocomplements(chain(3))
        assert dp.star == (2, 0, 0)   # 0* = 1, a* = 0, 1* = 0
        assert dp.plus == (2, 2, 0)   # 0+ = 1, a+ = 1, 1+ = 0

    def test_diamond_has_no_pseudocomplement(self):
        with pytest.raises(NoPseudocomplement):
            compute_pseudocomplements(diamond_m3())

    def test_two_level_fixture_satisfies_m(self):
        dm = two_level_fixture()
        dp = compute_pseudocomplements(dm.lattice)
        assert check_M_D_N(dp).m


class TestMDN:
    def test_boolean_all_hold(self):
        lat = boolean_lattice(2)
        dp = compute_pseudocomplements(lat)
        rep = check_M_D_N(dp, boolean_complement(2))
        assert (rep.m, rep.d, rep.n) == (True, True, True)

    def test_three_chain(self):
        dm = kleene_three()
        dp = compute_pseudocomplements(dm.lattice)
        rep = check_M_D_N(dp, dm.neg)
        assert rep.m and rep.d and rep.n

    def test_four_chain_m_fails_at_middle_pair(self):
        dp = compute_pseudocomplements(chain(4))
        rep = check_M_D_N(dp)
        assert not rep.m
        assert rep.m_witness == (1, 2)


class TestHeyting:
    def test_identities(self):
        for lat in (chain(4), boolean_lattice(2), two_level_fixture().lattice):
            imp, dimp = heyting_implications(compute_pseudocomplements(lat))
            for a in range(lat.n):
                assert imp[a][a] == lat.top
                assert imp[lat.top][a] == a
                assert dimp[a][a] == lat.bottom
                assert dimp[lat.bottom][a] == a

    def test_boolean_material_implication(self):
        lat = boolean_lattice(2)
        comp = boolean_complement(2)
        imp, _ = heyting_implications(compute_pseudocomplements(lat))
        for a in range(4):
            for b in range(4):
                assert imp[a][b] == lat.join(comp[a], b)

    def test_closed_forms_cross_checked_on_corpus(self):
        # heyting_implications raises internally if the closed forms for
        # regular structures disagree with the max-z definition
        for lat in all_distributive_lattices(8):
            heyting_implications(compute_pseudocomplements(lat))

    def test_implications_on_a_rough_lattice(self):
        # the same machinery serves rough-set algebras directly
        from conftest import two_level_tolerance
        from roughkleene.rough import build_rs

        rs = build_rs(two_level_tolerance())
        imp, dimp = heyting_implications(rs.doublep)
        assert imp[rs.lattice.top][5] == 5
        assert dimp[rs.lattice.bottom][5] == 5


class TestSkeletons:
    def test_boolean_skeleton_is_everything(self):
        lat = boolean_lattice(2)
        s, p = skeletons(compute_pseudocomplements(lat))
        assert s.members == p.members == (0, 1, 2, 3)

    def test_three_chain_skeleton_is_bounds(self):
        s, p = skeletons(compute_pseudocomplements(chain(3)))
        assert s.members == (0, 2)
        assert p.members == (0, 2)


class TestPrimeFilters:
    def test_boolean_atoms_give_incomparable_filters(self):
        lat = boolean_lattice(3)
        fam = prime_filters(lat)
        assert fam.generators == (1, 2, 4)
        assert fam.chain_max == 1
        assert all(fam.maximal)

    def test_three_chain(self):
        fam = prime_filters(chain(3))
        assert fam.generators == (1, 2)
        assert fam.chain_max == 2

    def test_four_chain(self):
        assert prime_filters(chain(4)).chain_max == 3

    def test_exactly_the_principal_filters_of_join_irreducibles(self):
        for lat in all_distributive_lattices(8):
            fam = prime_filters(lat)
            assert fam.generators == join_irreducibles(lat).members


class TestRegularity:
    def test_two_level_fixture_regular(self):
        dm = two_level_fixture()
        dp = compute_pseudocomplements(dm.lattice)
        rep = is_regular(dp, dm.neg)
        assert rep.regular
        assert rep.prime_chain_max == 2

    def test_four_chain_not_regular(self):
        dm = four_chain_kleene()
        dp = compute_pseudocomplements(dm.lattice)
        rep = is_regular(dp, dm.neg)
        assert not rep.regular
        assert rep.prime_chain_max == 3
        assert not rep.two_levels

    def test_boolean_regular(self):
        lat = boolean_lattice(3)
        rep = is_regular(compute_pseudocomplements(lat))
        assert rep.regular


class TestInterplay:
    def test_neg_swaps_star_and_plus(self):
        for dm in (kleene_three(), four_chain_kleene(), two_level_fixture()):
            dp = compute_pseudocomplements(dm.lattice)
            for x in range(dm.lattice.n):
                assert dm.neg[dp.star[x]] == dp.plus[dm.neg[x]]
                assert dm.neg[dp.plus[x]] == dp.star[dm.neg[x]]

    def test_kleene_iff_normal_when_regular(self):
        # demorgan_pseudo_report raises if (K) and (N) disagree on a regular
        # structure; sweep every small De Morgan p-structure through it
        for lat in all_distributive_lattices(8):
            dp = compute_pseudocomplements(lat)
            for neg in antitone_involutions(lat):
                dm = validate_demorgan(lat, neg)
                rep = demorgan_pseudo_report(dm, dp)
                if rep.regular:
                    assert rep.k == rep.n
