"""Start-up pays only for what runs: a fresh `import roughkleene.cli`
(tools/startup.py) loads neither the sweep pool nor dataclasses, the first
pooled sweep loads the pool, and the result records are named tuples."""

import importlib.util
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import two_level_covering, two_level_fixture

from roughkleene.posets import validate_order
from roughkleene.pseudo import (
    check_M_D_N,
    compute_pseudocomplements,
    demorgan_pseudo_report,
    is_regular,
    prime_filters,
    skeletons,
)
from roughkleene.represent import represent
from roughkleene.rough import build_rs, is_irredundant, isolated_blocks, rs_join_irreducibles

ROOT = Path(__file__).resolve().parent.parent
UNUSED = ("dataclasses", "inspect", "concurrent.futures", "multiprocessing")

# the pool takes at most one process per CPU; as in test_sweeps, the CPU
# count reads at least 2, so a one-CPU host still starts a 2-process pool
POOLED = f"""
import json, os, sys
from roughkleene.sweeps import run_enumeration
cpus = os.cpu_count() or 1
os.cpu_count = lambda: max(cpus, 2)
serial = run_enumeration(3, 5, workers=1).to_dict(include_runtime=False)
serial_loads = [m for m in {UNUSED!r} if m in sys.modules]
pooled = run_enumeration(3, 5, workers=2).to_dict(include_runtime=False)
pooled_loads = [m for m in {UNUSED!r} if m in sys.modules]
print(json.dumps({{"serial": serial_loads, "pooled": pooled_loads, "same": pooled == serial}}))
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("startup", ROOT / "tools" / "startup.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_import_loads_no_pool_and_no_dataclasses():
    """tools/startup.py's fresh import of the CLI loads the package and none
    of UNUSED; in a fresh process a serial enumeration loads none of them
    either, and a pooled one loads the pool and gives the serial report."""
    startup = load_tool().measure()
    assert startup["seconds"] > 0 and startup["max_rss_mb"] > 0
    assert "roughkleene.sweeps" in startup["modules"]
    assert [m for m in UNUSED if m in startup["modules"]] == []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", POOLED], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    loads = json.loads(out.stdout)
    assert loads["serial"] == []
    assert {"concurrent.futures", "multiprocessing"} <= set(loads["pooled"])
    assert loads["same"]


def records():
    """One of each result record, from the two-level fixture."""
    dm = two_level_fixture()
    dp = compute_pseudocomplements(dm.lattice)
    result = represent(dm)
    cov = two_level_covering()
    rs = build_rs(cov.tolerance)
    return [
        validate_order([[1, 1], [0, 1]]),
        dm.lattice.ji,
        check_M_D_N(dp),
        skeletons(dp)[0],
        prime_filters(dm.lattice),
        demorgan_pseudo_report(dm, dp),
        result.similarity,
        result,
        is_irredundant(cov),
        rs_join_irreducibles(rs),
        isolated_blocks(rs)[0],
    ]


class TestRecords:
    def test_each_record_is_immutable_and_pickles(self):
        seen = set()
        for record in records():
            name = type(record).__name__
            seen.add(name)
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)
            back = pickle.loads(pickle.dumps(record))
            assert type(back) is type(record)
            if name == "RepresentationResult":
                # its algebras compare by identity; their tables survive
                assert back.rs.pairs == record.rs.pairs and back.source.neg == record.source.neg
                assert back._replace(source=None, covering=None, tolerance=None, rs=None) == \
                    record._replace(source=None, covering=None, tolerance=None, rs=None)
            else:
                assert back == record and repr(back) == repr(record)
        assert len(seen) == 11

    def test_reprs_keep_their_form(self):
        order, ji = records()[:2]
        assert repr(order) == "OrderReport(reflexivity=None, antisymmetry=None, transitivity=None)"
        assert repr(ji) == "JoinIrreducibles(members=(1, 2, 3, 8, 9, 11), atoms=(1, 2, 3), member_mask=2830)"

    def test_replace_keeps_the_other_fields(self):
        """demorgan_pseudo_report is is_regular's report with the Kleene
        verdict set by _replace, every other field kept."""
        dm = two_level_fixture()
        dp = compute_pseudocomplements(dm.lattice)
        regular, report = is_regular(dp, dm.neg), demorgan_pseudo_report(dm, dp)
        assert (regular.k, report.k) == (None, True)
        assert report == regular._replace(k=True, k_witness=report.k_witness)
        bent = report._replace(k=False, k_witness=(1, 2))
        assert bent[:-2] == report[:-2] and bent[-2:] == (False, (1, 2))

    def test_membership_reads_the_mask(self):
        """x in lat.ji tests the bit of member_mask, not the tuple's fields:
        the mask itself, a field's value, is no member."""
        lat = two_level_fixture().lattice
        assert [x for x in range(lat.n) if x in lat.ji] == list(lat.ji.members) == [1, 2, 3, 8, 9, 11]
        assert lat.ji.member_mask == 2830 and 2830 not in lat.ji
