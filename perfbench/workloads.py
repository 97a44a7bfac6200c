"""Seeded inputs, entry-point calls and correctness gates of the workloads.

Every workload drives the public entry points the CLI commands call:

* represent-ladder: jsonio.parse_algebra -> represent.represent ->
  reports.represent_bundle -> jsonio.dumps, per jposet document;
* verify-large: jsonio.parse_covering / parse_tolerance ->
  reports.verify_report -> jsonio.dumps, per document;
* enumerate-exhaustive: sweeps.run_enumeration -> jsonio.dumps of the report.

Entry points are looked up on their modules at call time, so wrappers the
tracer installs are the ones called.  The seed picks the inputs from pools
recorded in expected.json (see record.py), together with the digest each
output had on the commit the pool was recorded on; every output is compared
with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected.json")

WORKLOADS = ("represent-ladder", "verify-large", "enumerate-exhaustive")
SCALES = ("full", "tiny")

# Generator settings of the represent ladder's pool.
LADDER_MAX_ATOMS = 7
LADDER_MAX_JI = 14
POOL_SEEDS = 20000      # generator seeds searched for rung members
POOL_MEMBERS = 6        # recorded members per rung

# Rungs of the represent ladder, as instance signatures
# (P = rough-algebra size, |J|, U = universe size, block count).  A run
# takes one recorded member of every rung, so seeds change the instances but
# not the size profile.  U <= 12 goes to the powerset sweep, U > 12 to the
# join closure.
LADDER_RUNGS = (
    (2, 1, 1, 1), (3, 2, 2, 1), (4, 2, 2, 2), (6, 3, 3, 2), (7, 4, 5, 2),
    (8, 3, 3, 3), (9, 4, 4, 2), (12, 4, 4, 3), (14, 5, 6, 3), (16, 4, 4, 4),
    (17, 6, 8, 3), (24, 5, 5, 4), (33, 8, 13, 4), (37, 8, 12, 4), (48, 6, 6, 5),
    (56, 7, 8, 5), (64, 6, 6, 6), (66, 9, 14, 5), (73, 10, 17, 5), (84, 8, 9, 5),
    (96, 7, 7, 6), (112, 8, 9, 6), (128, 7, 7, 7), (136, 9, 11, 6),
    (148, 10, 14, 6), (154, 11, 17, 6), (168, 9, 10, 6), (192, 8, 8, 7),
    (224, 9, 10, 7), (288, 9, 9, 7), (408, 11, 13, 7),
)
TINY_MAX_P = 16

# Instances with P up to LIGHT_MAX_P are light: a round calls each of them
# LIGHT_PASSES times, one pass over the light instances before each of
# LIGHT_PASSES even shares of the heavy ones, so the short calls around the
# median get samples spread over the whole round rather than bunched where
# host speed drifts alike.  The program keeps no state between calls on
# these paths.
LIGHT_MAX_P = 100
LIGHT_PASSES = 5

# verify-large: partitions of 2k points into pairs (P = 3^k, U = 2k) and the
# overlapping path coverings {0,1,2},{2,3,4},... (P = 577 at 7 blocks, U = 15).
VERIFY_LADDERS = {  # scale -> (pair counts, block counts)
    "full": ((4, 5, 6), (4, 5, 6, 7)),
    "tiny": ((1, 2), (2,)),
}
VERIFY_VARIANTS = 4     # recorded point relabelings per covering

# Verdicts the negative-path fixtures must keep.
FIXTURE_VERDICTS = {
    "non_lattice_tolerance": {"rsIsLattice": False, "inducedByIrredundantCovering": False},
    "redundant_covering": {
        "irredundant": False, "rsIsLattice": True, "inducedByIrredundantCovering": True,
    },
}

ENUMERATE_ARGS = {"full": (5, 8), "tiny": (3, 5)}   # (universe_max, lattice_max)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _fixture(name) -> dict:
    with open(os.path.join(FIXTURES, name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


def _module(name):
    return sys.modules["roughkleene." + name]


# ---------------------------------------------------------------- inputs


def jposet_doc(gen_seed: int) -> dict:
    """The jposet document of one generator seed."""
    from roughkleene.generators import random_two_level_structure

    jposet, g = random_two_level_structure(
        random.Random(gen_seed), max_atoms=LADDER_MAX_ATOMS, max_ji=LADDER_MAX_JI
    )
    return {
        "labels": list(jposet.labels),
        "covers": [list(c) for c in jposet.covers()],
        "g": {jposet.labels[a]: jposet.labels[b] for a, b in sorted(g.items())},
    }


def jposet_signature(gen_seed: int):
    """(P, |J|, U, blocks) of a generator seed, read off the jposet alone:
    P counts its downsets, U adds one point per similar pair of atoms."""
    from roughkleene.generators import random_two_level_structure

    jposet, g = random_two_level_structure(
        random.Random(gen_seed), max_atoms=LADDER_MAX_ATOMS, max_ji=LADDER_MAX_JI
    )
    atoms = sum(1 for x in range(jposet.n) if g[x] == x or jposet.leq(x, g[x]))
    uppers = jposet.n - atoms
    similar_pairs = (len(jposet.covers()) - uppers) // 2
    return (len(jposet.downsets()), jposet.n, jposet.n + similar_pairs, atoms)


def partition_doc(k: int) -> dict:
    return {"labels": [f"p{i}" for i in range(2 * k)],
            "blocks": [[2 * i, 2 * i + 1] for i in range(k)]}


def path_doc(b: int) -> dict:
    return {"labels": [f"q{i}" for i in range(2 * b + 1)],
            "blocks": [[2 * i, 2 * i + 1, 2 * i + 2] for i in range(b)]}


def relabel(doc: dict, variant: int, salt: int) -> dict:
    """Variant 0 is the document itself; others permute its point ids."""
    if variant == 0:
        return doc
    perm = list(range(len(doc["labels"])))
    random.Random(1000 * variant + salt).shuffle(perm)
    return {"labels": doc["labels"],
            "blocks": [sorted(perm[i] for i in block) for block in doc["blocks"]]}


def verify_coverings(scale: str):
    """(name, base document, salt) of the generated verify-large coverings."""
    pairs, blocks = VERIFY_LADDERS[scale]
    return ([(f"partition-{k}", partition_doc(k), k) for k in pairs]
            + [(f"path-{b}", path_doc(b), 100 + b) for b in blocks])


class Instance:
    """One input of a workload and what its output must satisfy."""

    __slots__ = ("name", "doc", "expect", "facts", "light")

    def __init__(self, name, doc, expect, size, facts=None):
        self.name = name
        self.doc = doc
        self.expect = expect          # recorded digest, or exact text
        self.facts = facts or {}      # values the output must carry
        self.light = size is not None and size <= LIGHT_MAX_P


def call_order(instances, light_only=False):
    """The calls of one round, in order.  A full round is LIGHT_PASSES
    times a pass over the light instances followed by the next even share
    of the heavy ones; a light-only round is the light passes alone."""
    light = [i for i in instances if i.light]
    heavy = [] if light_only else [i for i in instances if not i.light]
    if not light:
        return heavy
    order = []
    for k in range(LIGHT_PASSES):
        order += light
        order += heavy[k * len(heavy) // LIGHT_PASSES:(k + 1) * len(heavy) // LIGHT_PASSES]
    return order


def make_inputs(workload: str, seed: int, scale: str, expected: dict):
    """The seeded instance list of one run; the same seed gives the same list."""
    rng = random.Random(seed)
    if workload == "represent-ladder":
        out = []
        for rung in expected["represent"]["rungs"]:
            if scale == "tiny" and rung["signature"][0] > TINY_MAX_P:
                continue
            gen_seed, want = rng.choice(rung["members"])
            name = "rung-{}-{}-{}-{}/gen{}".format(*rung["signature"], gen_seed)
            out.append(Instance(name, jposet_doc(gen_seed), want, rung["signature"][0]))
        with open(os.path.join(FIXTURES, "jposet_two_level_bundle.json"), encoding="utf-8") as fh:
            bundle_text = fh.read()
        out.append(Instance("fixture/jposet_two_level", _fixture("jposet_two_level"),
                            {"text": bundle_text}, 0))
        rng.shuffle(out)
        return out
    if workload == "verify-large":
        recorded = expected["verify"]
        out = []
        for name, doc, salt in verify_coverings(scale):
            variant = rng.randrange(VERIFY_VARIANTS)
            size = recorded[name]["rsSize"]
            facts = {}
            if name.startswith("partition-"):
                facts["rsSize"] = 3 ** int(name.split("-")[1])
            out.append(Instance(f"{name}/v{variant}", relabel(doc, variant, salt),
                                recorded[name]["digests"][variant], size, facts))
        for name, verdicts in FIXTURE_VERDICTS.items():
            out.append(Instance(f"fixture/{name}", _fixture(name),
                                recorded[name]["digests"][0], recorded[name]["rsSize"], verdicts))
        rng.shuffle(out)
        return out
    if workload == "enumerate-exhaustive":
        universe_max, lattice_max = ENUMERATE_ARGS[scale]
        doc = {"universe_max": universe_max, "lattice_max": lattice_max}
        return [Instance(f"enumerate-u{universe_max}-l{lattice_max}", doc,
                         expected["enumerate"][scale], None)]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------ entry-point calls


def call_represent(doc):
    jsonio = _module("jsonio")
    _, dm = jsonio.parse_algebra(doc)
    result = _module("represent").represent(dm)
    bundle = _module("reports").represent_bundle(result)
    return bundle, jsonio.dumps(bundle)


def call_verify(doc):
    jsonio = _module("jsonio")
    obj = jsonio.parse_tolerance(doc) if "pairs" in doc else jsonio.parse_covering(doc)
    report = _module("reports").verify_report(obj)
    return report, jsonio.dumps(report)


def call_enumerate(doc):
    report = _module("sweeps").run_enumeration(
        universe_max=doc["universe_max"], lattice_max=doc["lattice_max"], workers=1
    )
    return report, _module("jsonio").dumps(report.to_dict())


CALLS = {
    "represent-ladder": call_represent,
    "verify-large": call_verify,
    "enumerate-exhaustive": call_enumerate,
}


# -------------------------------------------------------- gates and census


def _verify_ji_count(report):
    """|J| of the rough algebra from its block formulas: one join-irreducible
    per singleton block, two per larger block."""
    blocks = report.get("irredundantCovering")
    if blocks is None:
        return None
    return sum(2 if len(b) >= 2 else 1 for b in blocks)


def check(workload: str, inst: Instance, output, text: str):
    """(errors, census row, attempted, failed) for one finished call."""
    errors = []
    if workload == "represent-ladder":
        rep = output["report"]
        if rep["verified"] is not True:
            errors.append("bundle not verified")
        if rep["rsSize"] != rep["sourceSize"]:
            errors.append(f"rsSize {rep['rsSize']} != sourceSize {rep['sourceSize']}")
        if isinstance(inst.expect, dict):
            if text != inst.expect["text"]:
                errors.append("bundle differs from the frozen fixture bundle")
        elif digest(text) != inst.expect:
            errors.append(f"bundle digest {digest(text)} != recorded {inst.expect}")
        u = rep["universeSize"]
        census = {"P": rep["rsSize"], "J": len(output["phi"]), "U": u,
                  "blocks": rep["blockCount"], "route": "powerset" if u <= 12 else "spatial"}
        return errors, census, 1, int(bool(errors))
    if workload == "verify-large":
        if output["failures"]:
            errors.append(f"failures {output['failures']}")
        for key, want in inst.facts.items():
            if output.get(key) != want:
                errors.append(f"{key} {output.get(key)!r} != {want!r}")
        if digest(text) != inst.expect:
            errors.append(f"report digest {digest(text)} != recorded {inst.expect}")
        induced = output["inducedByIrredundantCovering"] and output["rsIsLattice"]
        census = {"P": output["rsSize"], "J": _verify_ji_count(output),
                  "U": output["universeSize"], "blocks": len(output["blocks"]),
                  "route": "powerset+spatial-oracle" if induced else "powerset"}
        return errors, census, 1, int(bool(errors))
    # enumerate-exhaustive: attempts and failures are property checks
    props = output.properties.values()
    attempted = sum(o.checked for o in props)
    failed = sum(o.failures for o in props)
    if failed:
        errors.append(f"{failed} property checks failed")
    got = digest(_module("jsonio").dumps(output.to_dict(include_runtime=False)))
    if got != inst.expect:
        errors.append(f"report digest {got} != recorded {inst.expect}")
        failed = max(failed, 1)
    census = {"instancesTested": output.instances_tested, "propertiesChecked": attempted,
              "checksByProperty": {o.name: o.checked for o in props}}
    return errors, census, attempted, failed


def timed_call(workload: str, inst: Instance):
    start = time.perf_counter()
    output, text = CALLS[workload](inst.doc)
    return time.perf_counter() - start, output, text
