"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at tiny scale, traced and untraced, and checks the
result schema, the metric names and units against BENCHMARK.json, that the
tracer rebinds every copy of a wrapped function, and that the command
refuses to run where the program is missing.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_spec_shape():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][0] == "python3" and spec["command"][1] == "perfbench/run.py"
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and m["better"] in ("higher", "lower")
        names.append(m["name"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("higher", "lower")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_names()
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = _spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    census = json.loads(lines[-3])["census"]
    assert census and all(row["ok"] for row in census)
    if workload != "enumerate-exhaustive":
        assert all({"P", "J", "U", "blocks", "route"} <= set(row) for row in census)
    if trace:
        reached = {k for k, v in result["metrics"].items() if k.endswith(".calls") and v["value"]}
        entry = {"represent-ladder": "represent.represent",
                 "verify-large": "reports.verify_report",
                 "enumerate-exhaustive": "sweeps.run_enumeration"}[workload]
        assert entry + ".calls" in reached


def test_same_seed_same_inputs():
    expected = workloads.load_expected()
    import roughkleene.cli  # noqa: F401 - make_inputs reads the loaded modules

    recorded = [tuple(r["signature"]) for r in expected["represent"]["rungs"]]
    assert recorded == list(workloads.LADDER_RUNGS)
    for scale in workloads.SCALES:
        assert all(name in expected["verify"] for name, _, _ in workloads.verify_coverings(scale))

    for workload in workloads.WORKLOADS:
        a = workloads.make_inputs(workload, 5, "tiny", expected)
        b = workloads.make_inputs(workload, 5, "tiny", expected)
        assert [(i.name, i.doc) for i in a] == [(i.name, i.doc) for i in b]
    names = {tuple(i.name for i in workloads.make_inputs("represent-ladder", s, "full",
                                                          expected)) for s in range(4)}
    assert len(names) > 1


def test_tracer_rebinds_every_copy():
    code = (
        "import sys, tracing, roughkleene.cli\n"
        "from roughkleene.posets import Lattice, Poset\n"
        "originals = [getattr(sys.modules['roughkleene.' + m], q)\n"
        "             for m, q in tracing.TARGETS if '.' not in q]\n"
        "t = tracing.Tracer()\n"
        "t.install()\n"
        "print([f'{name}.{k}' for name, mod in list(sys.modules.items())\n"
        "       if name.split('.')[0] == 'roughkleene'\n"
        "       for k, v in vars(mod).items() if any(v is o for o in originals)])\n"
        "Lattice.from_poset(Poset(['0'], (1,)))\n"
        "assert t.calls['posets.Lattice.from_poset'] == 1, t.calls\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH_DIR, os.path.join(ROOT, "src")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("represent-ladder", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
