"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  All comparisons are exact (finite
algebra); nothing is spot-checked where an exhaustive sweep is stated."""

import json
import random
import time
from contextlib import contextmanager

import pytest
from conftest import fixture_path

from roughkleene.cli import main as cli_main
from roughkleene.demorgan import antitone_involutions, build_kleene_from_jposet, is_kleene
from roughkleene.generators import (
    all_distributive_lattices,
    all_partitions,
    irredundant_coverings,
    product_of_chains,
    random_two_level_structure,
)
from roughkleene.isomorph import lattice_key
from roughkleene.posets import has_two_levels, join_irreducibles
from roughkleene.pseudo import check_M_D_N, compute_pseudocomplements, prime_filters
from roughkleene.represent import represent
from roughkleene.rough import (
    POWERSET_CAP,
    _powerset_pairs,
    build_rs,
    rs_g_map,
    rs_join_irreducibles,
    skeleton_isomorphism_report,
    tolerance_from_covering,
)


@contextmanager
def criterion(num, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num} {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed < budget_seconds
    verdict = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {verdict} ({elapsed:.2f}s, budget {budget_seconds:g}s)")
    assert ok, f"runtime {elapsed:.2f}s exceeds the {budget_seconds}s budget"


@pytest.fixture(scope="module")
def irredundant_corpus():
    """Every irredundant covering on up to five labeled points, with its
    tolerance and fully assembled rough algebra."""
    corpus = []
    for n in range(1, 6):
        for cov in irredundant_coverings(n):
            tol = tolerance_from_covering(cov)
            corpus.append((cov, tol, build_rs(tol)))
    assert len(corpus) == 522
    return corpus


def test_criterion_1_worked_example_reproduction(tmp_path, capsys):
    with criterion(1, "worked-example reproduction", 1.0):
        out = tmp_path / "bundle.json"
        code = cli_main(
            ["represent", fixture_path("jposet_two_level.json"), "--out", str(out)]
        )
        assert code == 0
        produced = out.read_bytes()
        expected = open(fixture_path("jposet_two_level_bundle.json"), "rb").read()
        assert produced == expected, "bundle differs from the frozen fixture"
        bundle = json.loads(produced)
        rep = bundle["report"]
        assert rep["universeSize"] == 8
        assert sorted(map(tuple, rep["similarity"])) == sorted(
            [
                ("a", "a"), ("b", "b"), ("c", "c"),
                ("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"),
            ]
        )
        spans = {k: set(v) for k, v in rep["spans"].items()}
        assert spans == {
            "a": {"a", "j", "a|b"},
            "b": {"b", "k", "a|b", "b|c"},
            "c": {"c", "l", "b|c"},
        }
        nb = {k: set(v) for k, v in rep["neighborhoods"].items()}
        assert nb["a"] == nb["j"] == spans["a"]
        assert nb["b"] == nb["k"] == spans["b"]
        assert nb["c"] == nb["l"] == spans["c"]
        assert nb["a|b"] == spans["a"] | spans["b"]
        assert nb["b|c"] == spans["b"] | spans["c"]


def test_criterion_2_representation_end_to_end():
    with criterion(2, "verified isomorphism end to end", 30.0):
        from conftest import two_level_fixture

        res = represent(two_level_fixture())
        assert res.report["verified"]
        rng = random.Random(5309)
        built = 0
        while built < 50:
            jposet, g = random_two_level_structure(rng, max_atoms=5, max_ji=10)
            dm = build_kleene_from_jposet(jposet, g)
            res = represent(dm)
            assert res.report["verified"], "operation preservation failed"
            assert res.rs.n == dm.lattice.n
            if res.tolerance.n <= POWERSET_CAP:
                # represent takes the downset route; the sweep is its oracle
                assert res.rs.pairs == tuple(_powerset_pairs(res.tolerance))
            built += 1


def test_criterion_3_regularity_criteria_equivalence():
    with criterion(3, "regularity criteria equivalence", 60.0):
        structures = 0
        for lat in all_distributive_lattices(8):
            dp = compute_pseudocomplements(lat)
            ji = join_irreducibles(lat)
            negs = list(antitone_involutions(lat)) or [None]
            for neg in negs:
                mdn = check_M_D_N(dp, neg)
                chain_ok = prime_filters(lat).chain_max <= 2
                two = has_two_levels(ji, lat)[0]
                assert mdn.m == mdn.d == chain_ok == two, (
                    f"criteria disagree on {lat.labels} with neg={neg}"
                )
                structures += 1
        assert structures >= 36


def test_criterion_4_join_irreducible_formulas(irredundant_corpus):
    with criterion(4, "join-irreducible, atom and gmap formulas", 60.0):
        for cov, tol, rs in irredundant_corpus:
            rji = rs_join_irreducibles(rs)   # raises on any formula mismatch
            assert rji.members == rji.lattice_members
            assert rji.atoms == rji.lattice_atoms
            rs_g_map(rs)                     # raises on closed-form mismatch


def test_criterion_5_rough_algebras_regular(irredundant_corpus):
    with criterion(5, "irredundant rough algebras are regular Kleene", 60.0):
        for cov, tol, rs in irredundant_corpus:
            kleene, _ = is_kleene(rs.demorgan)
            assert kleene
            mdn = check_M_D_N(rs.doublep, rs.neg)
            assert mdn.m and mdn.n
            skeleton_isomorphism_report(rs)  # raises if an isomorphism fails


def test_criterion_6_equivalences_products_of_chains():
    with criterion(6, "equivalences give double Stone products of chains", 60.0):
        count = 0
        for n in range(1, 6):
            for cov in all_partitions(n):
                tol = tolerance_from_covering(cov)
                rs = build_rs(tol)
                singles = sum(1 for b in cov.blocks if b.bit_count() == 1)
                multis = len(cov.blocks) - singles
                assert rs.n == 2**singles * 3**multis
                assert lattice_key(rs.lattice) == lattice_key(
                    product_of_chains([2] * singles + [3] * multis)
                )
                lat, star, plus = rs.lattice, rs.star, rs.plus
                for x in range(rs.n):
                    assert lat.join[star[x]][star[star[x]]] == lat.top
                    assert lat.meet[plus[x]][plus[plus[x]]] == lat.bottom
                count += 1
        assert count == 75  # Bell numbers 1+2+5+15+52


def test_criterion_7_non_lattice_witness_replays(tmp_path, capsys):
    with criterion(7, "non-lattice witness found and replayed", 120.0):
        wdir = tmp_path / "witness"
        code = cli_main(
            [
                "enumerate",
                "--universe-max", "6",
                "--lattice-max", "1",
                "--witness-dir", str(wdir),
                "--out", str(tmp_path / "report.json"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["findings"]["nonLatticeTolerance"] is not None
        witness_file = wdir / "finding-non-lattice.json"
        assert witness_file.exists()
        code = cli_main(["verify", str(witness_file), "--out", str(tmp_path / "v.json")])
        assert code == 0
        verify = json.loads((tmp_path / "v.json").read_text())
        assert verify["rsIsLattice"] is False
        assert verify["nonLatticeWitness"] is not None


def test_criterion_8_dual_route_oracle(irredundant_corpus):
    with criterion(8, "powerset and join-closure constructions agree", 60.0):
        for cov, tol, rs in irredundant_corpus:
            # build_rs took the downset route on every covering here
            assert list(rs.pairs) == _powerset_pairs(tol)
