"""The battery's fast checks against their pairwise definitions.

Each reference function below is the plain definition the library used to
evaluate directly: every pair (or triple) in ascending order, stopping at
the first failure.  The library now decides the same questions with folds
and masks, and must return the same verdicts and the same first witnesses.
"""

import pytest
from conftest import chain

from roughkleene.demorgan import (
    DeMorgan,
    NotAntitone,
    NotDistributive,
    antitone_involutions,
    is_kleene,
    validate_demorgan,
)
from roughkleene.generators import all_distributive_lattices, all_lattices
from roughkleene.posets import is_distributive
from roughkleene.pseudo import (
    DoubleP,
    PseudoError,
    check_M_D_N,
    compute_pseudocomplements,
    prime_filters,
)
from roughkleene.rough import Covering, build_rs, tolerance_from_covering


def ref_prime_generators(lat):
    """x != bottom with [x) prime: no a, b outside [x) join into it."""
    if lat.n == 1:
        return []
    gens = []
    for x in range(lat.n):
        if x == lat.bottom:
            continue
        outside = [a for a in range(lat.n) if not lat.leq(x, a)]
        if not any(lat.leq(x, lat.join[a][b]) for a in outside for b in outside):
            gens.append(x)
    return gens


def ref_first_bad_triple(lat):
    for x in range(lat.n):
        for y in range(lat.n):
            for z in range(lat.n):
                if lat.meet[x][lat.join[y][z]] != lat.join[lat.meet[x][y]][lat.meet[x][z]]:
                    return (x, y, z)
    return None


def ref_first_not_below(lat, lo, hi):
    """First (x, y) with lo(x) not<= hi(y)."""
    for x in range(lat.n):
        for y in range(lat.n):
            if not lat.leq(lo(x), hi(y)):
                return (x, y)
    return None


def ref_kleene_witness(lat, neg):
    return ref_first_not_below(
        lat, lambda x: lat.meet[x][neg[x]], lambda y: lat.join[y][neg[y]]
    )


def ref_mdn(dp, neg):
    """(m_witness, d_witness, n_witness, n raises) of check_M_D_N."""
    lat, star, plus = dp.lattice, dp.star, dp.plus
    m = next(
        ((x, y) for x in range(lat.n) for y in range(x + 1, lat.n)
         if star[x] == star[y] and plus[x] == plus[y]),
        None,
    )
    d = ref_first_not_below(
        lat, lambda x: lat.meet[x][plus[x]], lambda y: lat.join[y][star[y]]
    )
    n = next(((x,) for x in range(lat.n) if not lat.leq(star[x], neg[x])), None)
    sandwich_fails = n is None and any(not lat.leq(neg[x], plus[x]) for x in range(lat.n))
    return m, d, n, sandwich_fails


def ref_antitone_witness(lat, neg):
    for x in range(lat.n):
        for y in range(lat.n):
            if lat.leq(x, y) != lat.leq(neg[y], neg[x]):
                return (x, y)
    return None


def involutions(n):
    """Every involution of range(n), antitone or not."""
    perm = [-1] * n

    def place(i):
        while i < n and perm[i] >= 0:
            i += 1
        if i == n:
            yield tuple(perm)
            return
        for j in range(i, n):
            if perm[j] < 0:
                perm[i], perm[j] = j, i
                yield from place(i + 1)
                perm[i] = perm[j] = -1

    yield from place(0)


def partition_lattice(k):
    cov = Covering([f"p{i}" for i in range(2 * k)], [0b11 << 2 * i for i in range(k)])
    return build_rs(tolerance_from_covering(cov)).lattice


@pytest.fixture(scope="module")
def cases():
    """(lattice, neg) pairs: every involution on the lattices up to 7
    elements, and every antitone involution on the distributive lattices up
    to 8 elements."""
    out = [(lat, neg) for lat in all_lattices(7) for neg in involutions(lat.n)]
    out += [(lat, neg) for lat in all_distributive_lattices(8)
            for neg in antitone_involutions(lat)]
    return out


def test_prime_filters_all_lattices_up_to_eight():
    lattices = list(all_lattices(8))
    assert any(not is_distributive(lat)[0] for lat in lattices)
    for lat in lattices:
        assert list(prime_filters(lat).generators) == ref_prime_generators(lat)


def test_prime_filters_partition_five_pairs():
    lat = partition_lattice(5)
    assert lat.n == 243
    family = prime_filters(lat)
    assert list(family.generators) == ref_prime_generators(lat)
    assert family.chain_max == 2


def test_is_kleene(cases):
    for lat, neg in cases:
        witness = ref_kleene_witness(lat, neg)
        assert is_kleene(DeMorgan(lat, neg)) == (witness is None, witness)


def test_check_M_D_N(cases):
    dps = {}
    checked = 0
    for lat, neg in cases:
        if id(lat) not in dps:
            try:
                dps[id(lat)] = compute_pseudocomplements(lat)
            except PseudoError:
                dps[id(lat)] = None
        dp = dps[id(lat)]
        if dp is None:
            continue
        m, d, n, sandwich_fails = ref_mdn(dp, neg)
        if sandwich_fails:
            with pytest.raises(PseudoError, match="normal but"):
                check_M_D_N(dp, neg)
            continue
        report = check_M_D_N(dp, neg)
        assert (report.m_witness, report.d_witness, report.n_witness) == (m, d, n)
        assert (report.m, report.d, report.n) == (m is None, d is None, n is None)
        checked += 1
    assert checked > 5000


def test_check_M_D_N_picks_the_smallest_first_index():
    # keys (0,0) (1,0) (1,0) (0,0): the pair (1, 2) repeats first, but the
    # lexicographically first pair is (0, 3)
    dp = DoubleP(chain(4), (0, 1, 1, 0), (0, 0, 0, 0), False)
    assert check_M_D_N(dp).m_witness == ref_mdn(dp, (3, 2, 1, 0))[0] == (0, 3)


def test_validate_demorgan_antitone_witness(cases):
    antitone_failures = 0
    for lat, neg in cases:
        triple = ref_first_bad_triple(lat)
        if triple is not None:
            with pytest.raises(NotDistributive) as err:
                validate_demorgan(lat, neg)
            assert err.value.witness == triple
            continue
        witness = ref_antitone_witness(lat, neg)
        if witness is None:
            assert validate_demorgan(lat, neg).neg == neg
        else:
            antitone_failures += 1
            with pytest.raises(NotAntitone) as err:
                validate_demorgan(lat, neg)
            assert err.value.witness == witness
    assert antitone_failures > 100
