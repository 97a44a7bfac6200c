import random

from conftest import (
    boolean_lattice,
    chain,
    diamond_m3,
    find_isomorphism,
    isomorphisms,
    pentagon_n5,
)

from roughkleene.generators import all_lattices, product_of_chains
from roughkleene.isomorph import lattice_key
from roughkleene.posets import Lattice, Poset


def _relabel(lat, perm):
    n = lat.n
    below = [0] * n
    for j in range(n):
        m = 0
        for i in range(n):
            if lat.poset.leq(i, j):
                m |= 1 << perm[i]
        below[perm[j]] = m
    return Lattice.from_poset(Poset([f"r{i}" for i in range(n)], below))


class TestCanonicalKey:
    def test_invariant_under_relabeling(self):
        rng = random.Random(3)
        for lat in (chain(5), boolean_lattice(3), diamond_m3(), pentagon_n5()):
            key = lattice_key(lat)
            for _ in range(5):
                perm = list(range(lat.n))
                rng.shuffle(perm)
                assert lattice_key(_relabel(lat, perm)) == key

    def test_separates_m3_from_n5(self):
        assert lattice_key(diamond_m3()) != lattice_key(pentagon_n5())

    def test_separates_all_small_lattices(self):
        keys = [lattice_key(lat) for lat in all_lattices(6)]
        assert len(keys) == len(set(keys))

    def test_chain_products_commute(self):
        assert lattice_key(product_of_chains([2, 3])) == lattice_key(
            product_of_chains([3, 2])
        )


class TestIsomorphisms:
    def test_finds_square_symmetries(self):
        lat = boolean_lattice(2)
        found = list(isomorphisms(lat.n, lat.poset.above, lat.n, lat.poset.above))
        assert len(found) == 2  # identity and the atom swap

    def test_respecting_filters(self):
        lat = boolean_lattice(2)
        ident = (0, 1, 2, 3)
        swap = (0, 2, 1, 3)
        found = list(
            isomorphisms(
                lat.n, lat.poset.above, lat.n, lat.poset.above, respecting=[(swap, swap)]
            )
        )
        assert len(found) == 2
        found = list(
            isomorphisms(
                lat.n, lat.poset.above, lat.n, lat.poset.above, respecting=[(ident, swap)]
            )
        )
        assert found == []

    def test_none_between_different_shapes(self):
        a, b = diamond_m3(), pentagon_n5()
        assert find_isomorphism(a.n, a.poset.above, b.n, b.poset.above) is None
