"""The battery's fast checks against their pairwise definitions.

Each reference function below is the plain definition the library used to
evaluate directly: every pair (or triple) in ascending order, stopping at
the first failure.  The library now decides the same questions with folds
and masks, and must return the same verdicts and the same first witnesses.
A law the library no longer scans, because the checks it does run imply it,
is kept here as an oracle over the exhaustive corpus.
"""

import pytest
from conftest import chain, fixture_path

from roughkleene import jsonio
from roughkleene.demorgan import (
    DeMorgan,
    DeMorganError,
    GNotJoinIrreducible,
    NotAntitone,
    NotDistributive,
    antitone_involutions,
    compute_g,
    is_kleene,
    validate_demorgan,
)
from roughkleene.generators import all_distributive_lattices, all_lattices, irredundant_coverings
from roughkleene.posets import (
    JoinIrreducibles,
    Lattice,
    Poset,
    SpatialityFailure,
    bits,
    has_two_levels,
    is_distributive,
    join_irreducibles,
    mask_of,
)
from roughkleene.pseudo import (
    DoubleP,
    NoPseudocomplement,
    PseudoError,
    check_M_D_N,
    compute_pseudocomplements,
    prime_filters,
)
from roughkleene.reports import check_report
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


@pytest.mark.parametrize("lattices", [
    pytest.param(lambda: all_lattices(8), id="all-lattices-8"),
    pytest.param(lambda: [partition_lattice(5)], id="partition-5"),
])
def test_maximal_prime_filters_are_those_of_atoms(lattices):
    """[x) is maximal iff x covers the bottom and nothing else."""
    for lat in lattices():
        family = prime_filters(lat)
        p = lat.poset
        assert family.maximal == tuple(
            [i for i in bits(p.below[x] ^ 1 << x) if p.above[i] & p.below[x] ^ 1 << x == 1 << i]
            == [lat.bottom]
            for x in family.generators
        )


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


def ref_demorgan_laws(lat, neg):
    """The message of the first pair failing a De Morgan law, or None: the
    scan validate_demorgan ran after its involution and antitone checks."""
    for x in range(lat.n):
        for y in range(lat.n):
            if neg[lat.join[x][y]] != lat.meet[neg[x]][neg[y]]:
                return f"neg(x v y) != neg(x) ^ neg(y) at ({x},{y})"
            if neg[lat.meet[x][y]] != lat.join[neg[x]][neg[y]]:
                return f"neg(x ^ y) != neg(x) v neg(y) at ({x},{y})"
    return None


def irredundant_rough_algebras():
    """The rough algebras of the 522 irredundant coverings on up to 5 points."""
    for n in range(1, 6):
        for cov in irredundant_coverings(n):
            yield build_rs(tolerance_from_covering(cov))


def test_demorgan_laws_hold_wherever_validate_demorgan_passes(cases):
    """Every involution of all_lattices(7) (14 are De Morgan structures) and
    every antitone involution of all_distributive_lattices(8) (26)."""
    valid = 0
    for lat, neg in cases:
        try:
            validate_demorgan(lat, neg)
        except DeMorganError:
            continue
        assert ref_demorgan_laws(lat, neg) is None
        valid += 1
    assert valid == 40


def test_demorgan_laws_hold_on_the_irredundant_corpus():
    count = 0
    for rs in irredundant_rough_algebras():
        dm = validate_demorgan(rs.lattice, rs.neg)
        assert ref_demorgan_laws(dm.lattice, dm.neg) is None
        count += 1
    assert count == 522


def ref_compute_g(dm, ji):
    """gmap(j) as the meet of the list of elements not below neg(j), or the
    first GNotJoinIrreducible witness."""
    lat, neg = dm.lattice, dm.neg
    g = {}
    for j in ji.members:
        val = lat.meet_all(x for x in range(lat.n) if not lat.leq(x, neg[j]))
        if val not in ji:
            return "GNotJoinIrreducible", (j, val)
        g[j] = val
    return g


def test_compute_g_against_the_meet_of_the_list():
    """Every involution of the distributive lattices of all_lattices(7),
    antitone or not: the same gmap up to its first value, and the same
    GNotJoinIrreducible witness."""
    outcomes = set()
    for lat in all_lattices(7):
        if not is_distributive(lat)[0]:
            continue
        ji = join_irreducibles(lat)
        for neg in involutions(lat.n):
            dm = DeMorgan(lat, neg)
            want = ref_compute_g(dm, ji)
            try:
                got = compute_g(dm, ji)
            except GNotJoinIrreducible as exc:
                assert want == ("GNotJoinIrreducible", exc.witness)
                outcomes.add("GNotJoinIrreducible")
            except DeMorganError:
                assert isinstance(want, dict)
                outcomes.add("J-law")
            else:
                assert got == want
                outcomes.add("ok")
    assert outcomes == {"GNotJoinIrreducible", "J-law", "ok"}


def ref_join_irreducibles(lat):
    """The lower-covers walk: j != bottom with exactly one lower cover, and
    each element the join_all of the join-irreducibles below it."""
    p = lat.poset
    members, lower, atoms = [], {}, []
    for j in range(p.n):
        if j == lat.bottom:
            continue
        strict = p.below[j] ^ (1 << j)
        covers = [i for i in bits(strict) if p.above[i] & strict == 1 << i]
        if len(covers) == 1:
            members.append(j)
            lower[j] = covers[0]
            if covers[0] == lat.bottom:
                atoms.append(j)
    jmask = mask_of(members)
    for x in range(p.n):
        if lat.join_all(bits(p.below[x] & jmask)) != x:
            raise SpatialityFailure(x)
    return JoinIrreducibles(tuple(members), lower, tuple(atoms), jmask)


@pytest.mark.parametrize("lattices", [
    pytest.param(lambda: all_lattices(8), id="all-lattices-8"),
    pytest.param(lambda: all_distributive_lattices(10), id="distributive-10"),
    pytest.param(lambda: [partition_lattice(5)], id="partition-5"),
])
def test_join_irreducibles_against_the_lower_covers(lattices):
    for lat in lattices():
        assert join_irreducibles(lat) == ref_join_irreducibles(lat)


def test_spatiality_failure_on_a_bent_join_table(monkeypatch):
    """0 < a, b < x < t with a v b bent from x to t: x is then no join of
    join-irreducibles, on both routes."""
    lat = Lattice.from_poset(Poset(["0", "a", "b", "x", "t"], [1, 0b11, 0b101, 0b1111, 0b11111]))
    join = [list(row) for row in lat.join]
    join[1][2] = join[2][1] = 4
    monkeypatch.setattr(lat, "join", tuple(map(tuple, join)))
    for route in (join_irreducibles, ref_join_irreducibles):
        with pytest.raises(SpatialityFailure) as err:
            route(lat)
        assert err.value.element == 3


def _names(lat, ids):
    return [lat.labels[i] for i in ids]


def ref_check_report(lat, dm):
    """check_report as it read (M), the prime-filter chain and the two-level
    test by hand, without is_regular."""
    dist, triple = is_distributive(lat)
    report = {
        "size": lat.n, "distributive": dist, "deMorgan": dm is not None,
        "M": None, "D": None, "N": None, "K": None,
        "primeChainMax": None, "twoLevels": None, "regular": None, "witnesses": {},
    }
    if triple is not None:
        report["witnesses"]["distributive"] = _names(lat, triple)
    if not dist:
        return report
    try:
        dp = compute_pseudocomplements(lat)
    except NoPseudocomplement as exc:
        report["witnesses"]["pseudocomplement"] = str(exc)
        return report
    mdn = check_M_D_N(dp, dm.neg if dm is not None else None)
    two, two_witness = has_two_levels(join_irreducibles(lat), lat)
    family = prime_filters(lat)
    report.update(M=mdn.m, D=mdn.d, N=mdn.n, primeChainMax=family.chain_max,
                  twoLevels=two, regular=mdn.m)
    for key, witness in (("M", mdn.m_witness), ("D", mdn.d_witness),
                         ("N", mdn.n_witness), ("twoLevels", two_witness)):
        if witness:
            report["witnesses"][key] = _names(lat, witness)
    if dm is not None:
        kleene, k_witness = is_kleene(dm)
        report["K"] = kleene
        if k_witness:
            report["witnesses"]["K"] = _names(lat, k_witness)
    return report


def check_bytes(build, lat, dm):
    try:
        return jsonio.dumps(build(lat, dm))
    except PseudoError as exc:
        return type(exc).__name__, str(exc)


def test_check_report_against_the_hand_built_report():
    """The same bytes on every lattice of all_lattices(7), bare and with
    each involution (antitone or not), and on the algebra fixtures."""
    algebras = [(lat, None) for lat in all_lattices(7)]
    algebras += [(lat, DeMorgan(lat, neg)) for lat, _ in algebras for neg in involutions(lat.n)]
    for name in ("four_chain.json", "jposet_two_level.json"):
        algebras.append(jsonio.parse_algebra(jsonio.load_document(fixture_path(name))))
    raised = 0
    for lat, dm in algebras:
        got = check_bytes(check_report, lat, dm)
        assert got == check_bytes(ref_check_report, lat, dm)
        raised += isinstance(got, tuple)
    assert len(algebras) > 5000 and raised > 0
