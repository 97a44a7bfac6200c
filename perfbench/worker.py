"""One round of a workload, in its own process.

run.py starts a fresh interpreter for every round, so each round pays the
program's per-process set-up (imports, and memos such as the enumerate
sweep's chain-product keys) exactly as a CLI call does.  Prints one JSON
object: set-up seconds, peak RSS, and per instance the seconds of each of
its calls, its census row and gate result; with --trace, also the tracer's
totals.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402 - imports count as set-up, after START
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; print only its seconds")
    parser.add_argument("--light-only", action="store_true",
                        help="call only the light instances (see workloads.call_order)")
    args = parser.parse_args(argv)

    import roughkleene.cli  # noqa: F401 - loads every module the CLI loads

    instances = workloads.make_inputs(
        args.workload, args.seed, args.scale, workloads.load_expected()
    )
    setup_s = time.perf_counter() - START
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_s": setup_s}) + "\n")
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    rows = {}
    for inst in workloads.call_order(instances, args.light_only):
        row = rows.setdefault(inst.name, {
            "name": inst.name, "light": inst.light, "seconds": [], "units": 1,
            "attempted": 0, "failed": 0, "errors": [], "census": {},
        })
        try:
            seconds, output, text = workloads.timed_call(args.workload, inst)
        except Exception as exc:  # noqa: BLE001 - a failed call is a counted failure
            row["attempted"] += 1
            row["failed"] += 1
            row["errors"].append(f"{type(exc).__name__}: {exc}")
            continue
        errors, census, attempted, failed = workloads.check(args.workload, inst, output, text)
        row["seconds"].append(seconds)
        row["attempted"] += attempted
        row["failed"] += failed
        row["errors"].extend(errors)
        row["census"] = census
        # an enumerate call completes every instance it enumerates
        row["units"] = census.get("instancesTested", 1)

    result = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances": list(rows.values()),
    }
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
