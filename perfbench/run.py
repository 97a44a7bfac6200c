"""Benchmark command: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload represent-ladder --seed 1 --seconds 44 --trace 0

Runs rounds of the workload, each in a fresh worker process (worker.py)
with ROUGHKLEENE_WORKERS=1, until the next round would end after --seconds
(at least one round).  Every output is checked against its recorded digest
and gate.  Prints a census line, a summary line and, as the last line, the
result object; with --trace 0 its metrics are the end-to-end ones, with
--trace 1 the per-layer ones from rounds run under the outside-in tracer,
alternating with untraced rounds that give the tracing overhead.  See
README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("instances_per_s", "1/s"),
    ("instance_p50_ms", "ms"),
    ("instance_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
HARD_LIMIT_S = 170.0    # the command must end within 180 s
TAIL_BEYOND = 10        # samples the tail percentile must have beyond it
SETUP_SAMPLES = 9       # set-up-only worker processes per run, besides the rounds
REQUIRED = (
    os.path.join("src", "roughkleene", "__init__.py"),
    os.path.join("tests", "fixtures", "jposet_two_level.json"),
    os.path.join("tests", "fixtures", "jposet_two_level_bundle.json"),
    os.path.join("tests", "fixtures", "non_lattice_tolerance.json"),
    os.path.join("tests", "fixtures", "redundant_covering.json"),
)


def _worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["ROUGHKLEENE_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, flags, env, started):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
           *flags]
    budget = max(5.0, HARD_LIMIT_S - (time.perf_counter() - started))
    begin = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"round did not finish within {budget:.0f} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["round_wall_s"] = time.perf_counter() - begin
    return out


def run_rounds(args):
    """Set-up samples, then full rounds (alternating untraced and traced
    ones under --trace 1) until the next is predicted to end after
    --seconds.  An untraced run then fills what time is left with
    light-only rounds, which sample the short calls around the median
    further.  Returns (set-up seconds samples, rounds)."""
    env = _worker_env()
    started = time.perf_counter()
    deadline = started + args.seconds

    def fits(kind):
        walls = [r["round_wall_s"] for r in rounds if r["kind"] == kind]
        return time.perf_counter() + statistics.mean(walls) <= deadline

    setups = [run_worker(args, ["--setup-only"], env, started)["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    rounds = []
    kind = "full"
    while True:
        out = run_worker(args, ["--trace"] if kind == "traced" else [], env, started)
        out["kind"] = kind
        rounds.append(out)
        if args.trace:
            kind = "traced" if kind == "full" else "full"
            if len(rounds) < 2:
                continue
        if not fits(kind):
            break
    if args.trace or not any(row["light"] for row in rounds[0]["instances"]):
        return setups, rounds
    while True:
        out = run_worker(args, ["--light-only"], env, started)
        out["kind"] = "light"
        rounds.append(out)
        if not fits("light"):
            return setups, rounds


def _call_seconds(rounds):
    """Instance name -> seconds of its successful calls in every round."""
    out = {}
    for r in rounds:
        for row in r["instances"]:
            out.setdefault(row["name"], []).extend(row["seconds"])
    return out


def _round_busy_s(r):
    return sum(sum(row["seconds"]) for row in r["instances"])


def end_to_end(rounds, setups):
    """Each instance's latency is the median of its calls over the run.
    instances_per_s is the instances those latencies complete per second
    (an enumerate call completes every enumerated instance); p50 and the
    tail are taken over the instance latencies.  The tail is the highest
    percentile with at least TAIL_BEYOND instances beyond it; with
    2 * TAIL_BEYOND instances or fewer that percentile would not lie above
    the median, so the tail is then the slowest instance's latency.  Peak
    RSS comes from the full rounds only."""
    per_call = _call_seconds(rounds)
    units = {row["name"]: row["units"] for r in rounds for row in r["instances"]}
    latency = {name: statistics.median(v) for name, v in per_call.items() if v}
    if not latency:
        raise SystemExit("every call failed; no latency to report")
    ms = sorted(1000.0 * v for v in latency.values())
    n = len(ms)
    if n > 2 * TAIL_BEYOND:
        tail, pct = ms[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n
    else:
        tail, pct = ms[-1], 100.0
    full = [r for r in rounds if r["kind"] == "full"]
    metrics = {
        "instances_per_s": sum(units[name] for name in latency) / sum(latency.values()),
        "instance_p50_ms": statistics.median(ms),
        "instance_tail_ms": tail,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in full),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
    }
    notes = {"tail_percentile": pct, "latency_instances": n,
             "calls": sum(len(v) for v in per_call.values()),
             "light_rounds": len(rounds) - len(full),
             "setup_samples": len(setups) + len(rounds)}
    return metrics, notes


def per_layer(traced, untraced):
    med = statistics.median
    snaps = [r["trace"] for r in traced]
    metrics = {}
    for module, qual in tracing.TARGETS:
        name = f"{module}.{qual}"
        metrics[name + ".self_s"] = med(s["self_s"][name] for s in snaps)
        metrics[name + ".calls"] = med(s["calls"][name] for s in snaps)
    for name in tracing.COUNTS:
        metrics[name] = med(s["counts"].get(name, 0) for s in snaps)
    metrics["rough.powerset_yield"] = med(
        s["counts"].get("rough.powerset_pairs", 0) / s["counts"]["rough.powerset_subsets"]
        if s["counts"].get("rough.powerset_subsets") else 0.0
        for s in snaps
    )
    traced_busy = med(_round_busy_s(r) for r in traced)
    untraced_busy = med(_round_busy_s(r) for r in untraced)
    metrics["trace.overhead_s"] = traced_busy - untraced_busy
    metrics["trace.overhead_share"] = (traced_busy - untraced_busy) / untraced_busy
    return metrics


def census(rounds):
    """One row per instance: its census values, median call ms and gate."""
    per_call = _call_seconds(rounds)
    rows = {}
    for r in rounds:
        for row in r["instances"]:
            entry = rows.setdefault(row["name"], {"name": row["name"], **row["census"],
                                                   "errors": []})
            entry["errors"].extend(row["errors"])
    for name, entry in rows.items():
        calls = per_call[name]
        entry["ms"] = 1000.0 * statistics.median(calls) if calls else None
        entry["ok"] = not entry["errors"]
    return list(rows.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full",
                        help="tiny: small inputs, for the smoke test")
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"not a roughkleene checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    setups, rounds = run_rounds(args)
    untraced = [r for r in rounds if r["kind"] != "traced"]
    traced = [r for r in rounds if r["kind"] == "traced"]
    attempted = sum(row["attempted"] for r in rounds for row in r["instances"])
    failed = sum(row["failed"] for r in rounds for row in r["instances"])
    for r in rounds:
        for row in r["instances"]:
            for err in row["errors"]:
                print(f"{row['name']}: {err}", file=sys.stderr)

    if args.trace:
        metrics, units = per_layer(traced, untraced), dict(tracing.metric_names())
        last = traced[-1]["trace"]
        print(json.dumps({"trace": {"parents": last["parents"], "algebras": last["algebras"],
                                    "counts": last["counts"]}}))
        notes = {}
    else:
        (metrics, notes), units = end_to_end(untraced, setups), dict(END_TO_END)
    print(json.dumps({"census": census(untraced)}))
    print(json.dumps({"summary": {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "rounds": len(untraced), "traced_rounds": len(traced),
        "round_kinds": [r["kind"] for r in rounds],
        "round_wall_s": [r["round_wall_s"] for r in rounds],
        "failure_ratio": failed / attempted if attempted else 1.0, **notes,
    }}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
