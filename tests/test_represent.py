import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    boolean_complement,
    boolean_lattice,
    four_chain_kleene,
    identity_tolerance,
    kleene_three,
    rows,
    square_demorgan,
    two_level_fixture,
    two_level_tolerance,
)

from roughkleene.demorgan import build_kleene_from_jposet, validate_demorgan
from roughkleene.generators import random_two_level_structure
from roughkleene.isomorph import lattice_key
from roughkleene.posets import Poset, bits, join_irreducibles, mask_of
from roughkleene.represent import (
    NotKleene,
    NotRegular,
    RepresentError,
    build_similarity,
    represent,
    roundtrip_check,
)
from roughkleene.rough import (
    Covering,
    Tolerance,
    _assemble,
    _powerset_pairs,
    rs_g_map,
    tolerance_from_covering,
)


def _similarity(dm):
    return build_similarity(dm), dm.lattice.ji


class TestSimilarity:
    def test_boolean_identity(self):
        dm = validate_demorgan(boolean_lattice(3), boolean_complement(3))
        sim, ji = _similarity(dm)
        assert sim.simeq == frozenset((a, a) for a in ji.atoms)
        assert all(sim.spans[a] == {a} for a in ji.atoms)

    def test_kleene_three_span(self):
        dm = kleene_three()
        sim, _ = _similarity(dm)
        assert sim.spans[1] == {1, 2}  # the atom together with its partner, the top

    def test_fixture_spans(self):
        dm = two_level_fixture()
        lab = dm.lattice.labels
        sim, _ = _similarity(dm)
        by_name = {lab[a]: {lab[e] for e in sim.spans[a]} for a in sim.atoms}
        assert by_name == {
            "a": {"a", "j", "a|b"},
            "b": {"b", "k", "a|b", "b|c"},
            "c": {"c", "l", "b|c"},
        }
        named = {(lab[x], lab[y]) for x, y in sim.simeq}
        assert named == {
            ("a", "a"), ("b", "b"), ("c", "c"),
            ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"),
        }

    def test_not_regular_rejected(self):
        dm = four_chain_kleene()
        with pytest.raises(NotRegular):
            _similarity(dm)

    def test_not_kleene_rejected(self):
        dm = square_demorgan(swap=False)  # regular but not Kleene
        with pytest.raises(NotKleene):
            _similarity(dm)


class TestPipeline:
    def test_boolean_gives_identity_tolerance(self):
        dm = validate_demorgan(boolean_lattice(3), boolean_complement(3))
        res = represent(dm)
        assert res.tolerance.n == 3
        assert res.tolerance.nbr == (1, 2, 4)
        assert all(lo == up for lo, up in res.rs.pairs)
        # iso sends each element to the pair of its atom set, twice over
        for x in range(dm.lattice.n):
            lo, up = res.rs.pairs[res.iso[x]]
            assert lo == up

    def test_kleene_three_single_block(self):
        res = represent(kleene_three())
        assert res.tolerance.n == 2
        assert len(res.covering.blocks) == 1
        assert res.tolerance.nbr == (3, 3)
        assert res.rs.n == 3

    def test_fixture_full_pins(self):
        dm = two_level_fixture()
        res = represent(dm)
        lab = dm.lattice.labels
        assert len(res.universe) == 8
        assert res.report["blockCount"] == 3
        assert res.report["verified"] is True
        # bounds map to bounds
        assert res.rs.pairs[res.iso[dm.lattice.bottom]] == (0, 0)
        full = (1 << res.tolerance.n) - 1
        assert res.rs.pairs[res.iso[dm.lattice.top]] == (full, full)
        # phi on an atom gives an empty-core pair, on its partner the block pair
        a = lab.index("a")
        j = lab.index("j")
        assert res.rs.pairs[res.phi[a]][0] == 0
        assert res.rs.pairs[res.phi[j]][0] == mask_of(
            [res.universe.index(a), res.universe.index(j)]
        )

    def test_fixture_phi_values(self):
        dm = two_level_fixture()
        res = represent(dm)
        lab = dm.lattice.labels
        upos = {lid: k for k, lid in enumerate(res.universe)}
        span_a = res.tolerance.nbr[upos[lab.index("a")]]
        span_b = res.tolerance.nbr[upos[lab.index("b")]]
        assert res.rs.pairs[res.phi[lab.index("a")]] == (0, span_a)
        assert res.rs.pairs[res.phi[lab.index("j")]] == (
            mask_of([upos[lab.index("a")], upos[lab.index("j")]]),
            span_a | span_b,
        )

    def test_fixed_point_atom_maps_to_doubleton(self):
        # a single isolated atom: the two-element Boolean algebra
        from roughkleene.posets import Poset

        dm = build_kleene_from_jposet(Poset(["a"], (1,)), {0: 0})
        res = represent(dm)
        assert res.rs.pairs[res.phi[join_irreducibles(dm.lattice).members[0]]] == (1, 1)

    def test_spatial_and_powerset_methods_agree(self):
        res = represent(two_level_fixture())
        tol = res.tolerance
        a, b = _assemble(tol, _powerset_pairs(tol), res.covering), res.rs
        assert a.pairs == b.pairs
        assert rows(a.lattice) == rows(b.lattice)


class TestRandomFixtures:
    def test_seeded_sample_verifies(self):
        rng = random.Random(20240809)
        for _ in range(10):
            jposet, g = random_two_level_structure(rng)
            dm = build_kleene_from_jposet(jposet, g)
            res = represent(dm)
            assert res.report["verified"]
            assert res.rs.n == dm.lattice.n


class TestRoundTrip:
    def test_identity_tolerance(self):
        rep = roundtrip_check(identity_tolerance(3))
        assert rep["sizesAgree"] and rep["verified"]

    def test_fixture_tolerance(self):
        rep = roundtrip_check(two_level_tolerance())
        assert rep["sizesAgree"] and rep["verified"]

    def test_small_equivalence(self):
        tol = tolerance_from_covering(Covering(["1", "2", "3"], [1, 6]))
        rep = roundtrip_check(tol)
        assert rep["sizesAgree"] and rep["verified"]
        assert rep["rsSize"] == 6

    def test_the_inducing_covering_is_searched_for_once(self, monkeypatch):
        """The round trip of the covering {1,2},{2,3} searches for an
        inducing irredundant covering once for the algebra it builds and
        once for the algebra represent builds back, wherever a module of
        the package holds the search."""
        import sys

        from roughkleene import rough

        real, calls = rough.induced_irredundant_covering, []

        def counted(tol):
            calls.append(tol.n)
            return real(tol)

        for key, module in list(sys.modules.items()):
            if key.startswith("roughkleene.") and getattr(module, "induced_irredundant_covering", None) is real:
                monkeypatch.setattr(module, "induced_irredundant_covering", counted)
        rep = roundtrip_check(tolerance_from_covering(Covering(["1", "2", "3"], [3, 6])))
        assert rep["sizesAgree"] and rep["verified"]
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [5, 16, 17])
    def test_path_tolerance_is_refused_before_its_algebra_is_built(self, n):
        """No irredundant covering induces a path tolerance, whose rough
        order has no lattice at 5 points, passes the table cap at 16 and
        the powerset cap at 17: each is refused up front."""
        tol = Tolerance.from_pairs([str(i) for i in range(n)], [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(RepresentError, match="round trip needs an irredundant covering"):
            roundtrip_check(tol)


def _jposet_of(rs):
    """The join-irreducible poset of a rough algebra with its gmap, numbered
    in ascending lattice id."""
    members = rs.ji.members
    pos = {j: k for k, j in enumerate(members)}
    below = rs.lattice.poset.below
    jbelow = [mask_of(pos[i] for i in bits(below[j] & rs.ji.member_mask)) for j in members]
    g = rs_g_map(rs)
    return Poset([f"j{k}" for k in range(len(members))], jbelow), {pos[j]: pos[g[j]] for j in members}


class TestJposetRoundTrip:
    """jposet -> algebra -> rough algebra -> its jposet -> algebra again."""

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(st.integers(0, 10**6))
    def test_rebuilt_jposet_gives_the_same_lattice(self, seed):
        jposet, g = random_two_level_structure(random.Random(seed))
        dm = build_kleene_from_jposet(jposet, g)
        rs = represent(dm).rs
        again = build_kleene_from_jposet(*_jposet_of(rs))
        assert again.lattice.n == dm.lattice.n
        assert lattice_key(again.lattice) == lattice_key(dm.lattice)
