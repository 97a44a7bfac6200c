"""Record the input pools and output digests the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record.py

Run from the repository root, on the commit whose outputs are the
reference.  Rewrites perfbench/expected.json:

* represent: for every ladder rung, the first POOL_MEMBERS generator seeds
  whose jposet has the rung's signature, each with its bundle digest;
* verify: for every generated covering, its rough-algebra size and the
  report digest of each of its VERIFY_VARIANTS relabelings; the same for
  the two fixtures, which are not relabeled;
* enumerate: the report digest (runtime excluded) at full and tiny scale.

A digest is the first 16 hex digits of the sha256 of the output's bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import roughkleene.cli  # noqa: E402,F401 - loads every module
import workloads as w  # noqa: E402


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=w.ROOT, capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def record_represent():
    wanted = {sig: [] for sig in w.LADDER_RUNGS}
    missing = w.POOL_MEMBERS * len(wanted)
    for gen_seed in range(w.POOL_SEEDS):
        members = wanted.get(w.jposet_signature(gen_seed))
        if members is not None and len(members) < w.POOL_MEMBERS:
            members.append(gen_seed)
            missing -= 1
            if not missing:
                break
    rungs = []
    for sig, seeds in wanted.items():
        if len(seeds) < w.POOL_MEMBERS:
            raise SystemExit(f"rung {sig} has only {len(seeds)} members below seed {w.POOL_SEEDS}")
        members = []
        start = time.perf_counter()
        for gen_seed in seeds:
            bundle, text = w.call_represent(w.jposet_doc(gen_seed))
            rep = bundle["report"]
            got = (rep["rsSize"], len(bundle["phi"]), rep["universeSize"], rep["blockCount"])
            if got != sig or not rep["verified"] or rep["sourceSize"] != rep["rsSize"]:
                raise SystemExit(f"generator seed {gen_seed}: {got} is not a verified {sig}")
            members.append([gen_seed, w.digest(text)])
        print(f"rung {sig}: {(time.perf_counter() - start) / len(seeds):.3f} s per instance",
              file=sys.stderr)
        rungs.append({"signature": list(sig), "members": members})
    return {"rungs": rungs}


def record_verify():
    out = {}
    for name, doc, salt in [c for scale in w.SCALES for c in w.verify_coverings(scale)]:
        start = time.perf_counter()
        digests = []
        for variant in range(w.VERIFY_VARIANTS):
            report, text = w.call_verify(w.relabel(doc, variant, salt))
            if report["failures"]:
                raise SystemExit(f"{name}/v{variant}: failures {report['failures']}")
            digests.append(w.digest(text))
        out[name] = {"rsSize": report["rsSize"], "digests": digests}
        print(f"{name}: {(time.perf_counter() - start) / w.VERIFY_VARIANTS:.3f} s per call",
              file=sys.stderr)
    for name, verdicts in w.FIXTURE_VERDICTS.items():
        report, text = w.call_verify(w._fixture(name))
        for key, want in verdicts.items():
            if report[key] != want:
                raise SystemExit(f"fixture {name}: {key} is {report[key]!r}, not {want!r}")
        out[name] = {"rsSize": report["rsSize"], "digests": [w.digest(text)]}
    return out


def record_enumerate():
    out = {}
    for scale, (universe_max, lattice_max) in w.ENUMERATE_ARGS.items():
        report, _ = w.call_enumerate({"universe_max": universe_max, "lattice_max": lattice_max})
        if report.failed:
            raise SystemExit(f"enumerate at {scale} scale has failing properties")
        out[scale] = w.digest(roughkleene.jsonio.dumps(report.to_dict(include_runtime=False)))
    return out


def main() -> int:
    expected = {
        "recorded_at_commit": _commit(),
        "represent": record_represent(),
        "verify": record_verify(),
        "enumerate": record_enumerate(),
    }
    with open(w.EXPECTED_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
