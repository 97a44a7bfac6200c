import concurrent.futures
import json
import os

import pytest
from conftest import fixture_path

from roughkleene import jsonio, rough, sweeps
from roughkleene.generators import all_lattices, antichain_coverings
from roughkleene.reports import verify_report
from roughkleene.sweeps import (
    EnumerationReport,
    run_enumeration,
    sweep_coverings,
    sweep_demorgan,
    sweep_tolerances,
    worker_count,
)


@pytest.fixture(autouse=True)
def two_cpus_at_least(monkeypatch):
    """The pool takes at most one process per CPU, so on a one-CPU host
    the pooled tests would run serially; they keep a real 2-process pool."""
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(cpus, 2))


class TestWorkerEnv:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("ROUGHKLEENE_WORKERS", raising=False)
        assert worker_count() == 1

    def test_env_sets_pool_size(self, monkeypatch):
        monkeypatch.setenv("ROUGHKLEENE_WORKERS", "4")
        assert worker_count() == 4
        monkeypatch.setenv("ROUGHKLEENE_WORKERS", "junk")
        assert worker_count() == 1


class TestSweeps:
    def test_covering_sweep_counts(self):
        report = sweep_coverings(3)
        agree = report.properties["irredundanceCriteriaAgree"]
        assert agree.checked == 12  # antichain coverings on up to 3 points
        assert agree.failures == 0
        battery = report.properties["rsKleeneRegularBattery"]
        assert battery.checked == 11  # 1 + 2 + 8 irredundant ones
        assert not report.failed

    def test_tolerance_sweep_finds_non_lattice_at_five(self):
        report = sweep_tolerances(5)
        finding = report.findings.get("nonLatticeTolerance")
        assert finding is not None
        doc = finding[1]["tolerance"]
        assert len(doc["labels"]) == 5

    def test_demorgan_sweep(self):
        report = sweep_demorgan(6)
        assert report.properties["pseudocomplementLaws"].checked == 25
        assert not report.failed

    def test_worker_pool_matches_serial(self):
        serial = sweep_coverings(4, workers=1)
        pooled = sweep_coverings(4, workers=2)
        assert serial.instances_tested == pooled.instances_tested
        a = serial.to_dict(include_runtime=False)
        b = pooled.to_dict(include_runtime=False)
        assert a == b

    def test_pooled_enumeration_matches_serial(self):
        serial = run_enumeration(4, 6, workers=1)
        pooled = run_enumeration(4, 6, workers=2)
        assert pooled.to_dict(include_runtime=False) == serial.to_dict(include_runtime=False)

    def test_report_merge_keeps_earliest_witness(self):
        a, b = EnumerationReport(), EnumerationReport()
        a.outcome("p").record(5, False, {"w": "later"})
        b.outcome("p").record(2, False, {"w": "earlier"})
        a.merge(b)
        assert a.outcome("p").first_witness[1] == {"w": "earlier"}
        assert a.outcome("p").failures == 2

    def test_run_enumeration_serializes(self):
        report = run_enumeration(universe_max=2, lattice_max=3)
        doc = report.to_dict()
        assert json.dumps(doc)  # JSON-able
        assert "nonLatticeTolerance" in doc["findings"]


def test_verify_and_the_covering_sweep_run_one_check_registry(monkeypatch):
    """A check broken where the registry looks it up fails in both outputs."""
    def broken(rs):
        raise rough.FormulaMismatch("gmap on a block", {"block": 6})

    monkeypatch.setattr(rough, "rs_g_map", broken)
    error = "FormulaMismatch: gmap on a block: {'block': 6}"
    cov = jsonio.parse_covering(jsonio.load_document(fixture_path("partition_2_3.json")))
    report = verify_report(cov)
    assert report["checks"]["gmapClosedForm"] is False
    assert report["failures"] == [{"check": "gmapClosedForm", "error": error}]
    outcome = sweep_coverings(2, workers=1).properties["gmapClosedForm"]
    assert outcome.checked == outcome.failures == 3  # the irredundant coverings on up to 2 points
    assert outcome.first_witness[1]["error"] == error
    first = next(c for n in (1, 2) for c in antichain_coverings(n) if rough.is_irredundant(c).irredundant)
    assert outcome.first_witness[1]["instance"] == jsonio.covering_doc(first)


@pytest.mark.parametrize("universe_max", [6, 7])
@pytest.mark.parametrize("workers", [1, 2])
def test_point_sweeps_stop_at_five_points(universe_max, workers):
    """Five points always give the non-lattice tolerance, so a larger
    universe bound gives the five-point report, serially and under a pool."""
    five = run_enumeration(5, 3, workers=1).to_dict(include_runtime=False)
    assert run_enumeration(universe_max, 3, workers=workers).to_dict(include_runtime=False) == five


def test_witness_documents_are_built_for_failures_only(monkeypatch):
    """A default run with every check passing builds no covering or lattice
    document, and one tolerance document: the non-lattice finding's."""
    from roughkleene import sweeps

    built = {"covering_doc": 0, "tolerance_doc": 0, "lattice_doc": 0}
    for name in built:
        def counted(*args, _name=name, _real=getattr(sweeps, name)):
            built[_name] += 1
            return _real(*args)

        monkeypatch.setattr(sweeps, name, counted)
    report = run_enumeration(workers=1)
    assert not report.failed and report.findings["nonLatticeTolerance"] is not None
    assert built == {"covering_doc": 0, "tolerance_doc": 1, "lattice_doc": 0}


@pytest.mark.parametrize("max_size, count", [(-1, 0), (0, 0), (1, 1), (2, 2), (3, 3), (8, 300)])
def test_all_lattices_stays_within_its_bound(max_size, count):
    sizes = [lat.n for lat in all_lattices(max_size)]
    assert len(sizes) == count
    assert all(n <= max_size for n in sizes)


@pytest.mark.parametrize("lattice_max, instances", [(0, 2), (1, 3), (2, 4)])
def test_enumerate_tests_no_lattice_past_its_bound(lattice_max, instances):
    """One covering and one tolerance on one point, then every lattice with
    at most lattice_max elements."""
    report = run_enumeration(universe_max=1, lattice_max=lattice_max, workers=1)
    assert report.instances_tested == instances


def test_demorgan_sweep_builds_each_lattice_once(monkeypatch):
    """sweep_demorgan hands its runner the lattices all_lattices built, so
    the 300 lattices up to 8 elements are built 300 times, serially and
    under a pool alike."""
    from roughkleene.posets import Lattice

    built = []
    real = Lattice.from_poset.__func__

    def counted(cls, p):
        built.append(p.n)
        return real(cls, p)

    monkeypatch.setattr(Lattice, "from_poset", classmethod(counted))
    serial = sweep_demorgan(8, workers=1)
    assert len(built) == serial.instances_tested == 300
    pooled = sweep_demorgan(8, workers=2)
    assert len(built) == 600
    assert pooled.to_dict(include_runtime=False) == serial.to_dict(include_runtime=False)


def test_covering_battery_sweeps_the_powerset_once_per_algebra(monkeypatch):
    """imageLatticesAtomisticBoolean and dualRouteEqual share one sweep of
    each covering algebra's powerset, kept by its tolerance: verify sweeps
    it once for a fresh covering and not again for the same covering."""
    swept = []
    real = rough._approximation_table

    def counted(tol):
        swept.append(tol.n)
        return real(tol)

    monkeypatch.setattr(rough, "_approximation_table", counted)
    doc = jsonio.load_document(fixture_path("partition_2_3.json"))
    cov = jsonio.parse_covering(doc)
    for _ in range(2):
        assert verify_report(cov)["failures"] == []
    assert swept == [cov.n]
    assert verify_report(jsonio.parse_covering(doc))["failures"] == []
    assert swept == [cov.n, cov.n]
    swept.clear()
    report = sweep_coverings(3, workers=1)
    assert len(swept) == report.properties["dualRouteEqual"].checked == 11


def test_the_lattice_sweep_computes_g_once_per_structure(monkeypatch):
    """gmapRoundTrip and comparabilityIffKleene share one compute_g per De
    Morgan structure.  When it raises, both still record the structure as
    checked and failed, with the same error as their first witness."""
    from roughkleene import demorgan, sweeps

    calls = []
    real = demorgan.compute_g

    def counted(dm):
        calls.append(dm.n)
        return real(dm)

    monkeypatch.setattr(sweeps, "compute_g", counted)
    passing = sweep_demorgan(4, workers=1).properties
    structures = passing["deMorganValidates"].checked
    assert len(calls) == structures > 0
    for name in ("gmapRoundTrip", "comparabilityIffKleene"):
        assert (passing[name].checked, passing[name].failures) == (structures, 0)

    def broken(dm):
        calls.append(dm.n)
        raise demorgan.GNotJoinIrreducible(0, 1)

    calls.clear()
    monkeypatch.setattr(sweeps, "compute_g", broken)
    failing = sweep_demorgan(4, workers=1).properties
    assert len(calls) == structures
    error = "GNotJoinIrreducible: gmap(0) = 1 is not join-irreducible"
    for name in ("gmapRoundTrip", "comparabilityIffKleene"):
        outcome = failing[name]
        assert (outcome.checked, outcome.failures) == (structures, structures)
        assert outcome.first_witness[1]["error"] == error


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (3, [3]), (None, [])])
def test_the_pool_takes_at_most_one_process_per_cpu(monkeypatch, cpus, pools):
    """A worker count past the CPU count, from --workers or the environment,
    makes a pool of one process per CPU, and none when the count is
    unknown.  The pool is a stand-in that records its size and runs the
    chunks in-process, so no process starts; the report is the serial one."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    serial = sweep_coverings(3, workers=1).to_dict(include_runtime=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert sweep_coverings(3, workers=100_000).to_dict(include_runtime=False) == serial
    monkeypatch.setenv("ROUGHKLEENE_WORKERS", "100000")
    assert sweep_coverings(3).to_dict(include_runtime=False) == serial
    assert sizes == pools * 2


def test_a_serial_sweep_draws_each_item_as_it_evaluates_it():
    """The serial runner holds one item at a time: each evaluation sees
    exactly the items drawn up to its own, and runtime_seconds counts the
    drawing too."""
    drawn, seen = [], []

    def items():
        for seq in range(5):
            drawn.append(seq)
            yield seq, seq * seq

    def evaluate(report, seq, square):
        seen.append((seq, len(drawn)))

    report = sweeps._sweep(evaluate, items(), 1)
    assert seen == [(seq, seq + 1) for seq in range(5)]
    assert report.instances_tested == 5 and report.runtime_seconds > 0


def test_the_lattice_sweep_streams_and_matches_the_pool():
    serial, pooled = sweep_demorgan(7, workers=1), sweep_demorgan(7, workers=2)
    assert serial.instances_tested == pooled.instances_tested == 78
    assert serial.to_dict(include_runtime=False) == pooled.to_dict(include_runtime=False)
