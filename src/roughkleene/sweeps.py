"""Enumeration sweeps: run the property suites over exhaustive families.

Three sweeps: coverings (antichain families, irredundant ones get the full
rough-algebra battery), tolerances (lattice census plus the promised
non-lattice witness), and De Morgan structures on small lattices (the
regularity-criteria equivalences).  Instances carry sequence numbers so the
first witness of any failure is deterministic, also under a worker pool.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .demorgan import antitone_involutions, compute_g, is_kleene, neg_from_g, validate_demorgan
from .generators import (
    all_lattices,
    antichain_coverings,
    edge_list,
    product_of_chains,
    tolerance_from_encoding,
)
from .isomorph import lattice_key
from .jsonio import covering_doc, lattice_doc, tolerance_doc
from .posets import Lattice, NotALattice, Poset, is_distributive, join_irreducibles
from .pseudo import compute_pseudocomplements, demorgan_pseudo_report, heyting_implications, is_regular, skeletons
from .rough import (
    RS_CHECKS,
    Covering,
    _powerset_pairs,
    build_rs,
    galois_holds,
    induced_irredundant_covering,
    is_irredundant,
    isolated_blocks,
    rough_lattice,
    run_check,
    tolerance_from_covering,
)

WORKERS_ENV = "ROUGHKLEENE_WORKERS"


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


@dataclass
class PropertyOutcome:
    name: str
    checked: int = 0
    failures: int = 0
    first_witness: tuple | None = None  # (seq, witness dict)

    def record(self, seq, ok, witness):
        self.checked += 1
        if not ok:
            self.failures += 1
            if self.first_witness is None or seq < self.first_witness[0]:
                self.first_witness = (seq, witness)

    def merge(self, other):
        self.checked += other.checked
        self.failures += other.failures
        if other.first_witness is not None:
            if self.first_witness is None or other.first_witness[0] < self.first_witness[0]:
                self.first_witness = other.first_witness


@dataclass
class EnumerationReport:
    instances_tested: int = 0
    runtime_seconds: float = 0.0
    properties: dict = field(default_factory=dict)
    findings: dict = field(default_factory=dict)

    def outcome(self, name) -> PropertyOutcome:
        if name not in self.properties:
            self.properties[name] = PropertyOutcome(name)
        return self.properties[name]

    def merge(self, other):
        self.instances_tested += other.instances_tested
        for name, out in other.properties.items():
            self.outcome(name).merge(out)
        for key, val in other.findings.items():
            if val is None:
                continue
            cur = self.findings.get(key)
            if cur is None or val[0] < cur[0]:
                self.findings[key] = val

    @property
    def failed(self) -> bool:
        return any(o.failures for o in self.properties.values())

    def to_dict(self, include_runtime=True):
        doc = {"instancesTested": self.instances_tested}
        if include_runtime:
            doc["runtimeSeconds"] = round(self.runtime_seconds, 3)
        doc["properties"] = [
            {
                "name": o.name,
                "checked": o.checked,
                "failures": o.failures,
                "firstWitness": None if o.first_witness is None else o.first_witness[1],
            }
            for _, o in sorted(self.properties.items())
        ]
        doc["findings"] = {
            key: (None if val is None else val[1])
            for key, val in sorted(self.findings.items())
        }
        return doc


def _step(report, seq, name, witness_doc, fn, *args):
    """Run one property check (rough.run_check) and record its outcome;
    return the check's value when it passed and None otherwise."""
    value, err = run_check(fn, *args)
    ok = bool(value)
    report.outcome(name).record(
        seq, ok, None if ok else {"instance": witness_doc, "error": err}
    )
    return value if ok else None


_CHAIN_KEYS = {}


def _chain_product_key(singles, multis):
    if (singles, multis) not in _CHAIN_KEYS:
        _CHAIN_KEYS[(singles, multis)] = lattice_key(
            product_of_chains([2] * singles + [3] * multis)
        )
    return _CHAIN_KEYS[(singles, multis)]


def _eval_covering(seq, cov: Covering, report: EnumerationReport):
    doc = covering_doc(cov)
    rep = _step(report, seq, "irredundanceCriteriaAgree", doc, is_irredundant, cov)
    if rep is None or not rep.irredundant:
        return
    rs = _step(report, seq, "rsKleeneRegularBattery", doc, build_rs, tolerance_from_covering(cov))
    if rs is None:
        return
    for name, check in RS_CHECKS:
        _step(report, seq, name, doc, check, rs)
    _step(report, seq, "isolatedBlockConditions", doc, lambda: isolated_blocks(rs) is not None)
    union_count = sum(b.bit_count() for b in cov.blocks)
    if union_count == cov.n:  # pairwise disjoint: a partition
        singles = sum(1 for b in cov.blocks if b.bit_count() == 1)
        multis = len(cov.blocks) - singles

        def gehrke_walker():
            if rs.n != 2**singles * 3**multis:
                return False
            return lattice_key(rs.lattice) == _chain_product_key(singles, multis)

        _step(report, seq, "gehrkeWalkerProductOfChains", doc, gehrke_walker)

        def comer():
            star, plus, lat = rs.star, rs.plus, rs.lattice
            return all(
                lat.join[star[x]][star[star[x]]] == lat.top
                and lat.meet[plus[x]][plus[plus[x]]] == lat.bottom
                for x in range(rs.n)
            )

        _step(report, seq, "comerDoubleStone", doc, comer)


def _rs_order_lattice_witness(tol):
    """Pairs of the rough order by the powerset sweep, plus a non-lattice
    witness, if any: the first bad pair rough_lattice finds, as rough pairs.

    build_rs takes the same sweep, order and tables on every tolerance that
    no irredundant covering induces, and only those can give a witness.
    """
    pairs = _powerset_pairs(tol)
    lab = [str(k) for k in range(len(pairs))]
    try:
        lat = rough_lattice(lab, pairs, tol.n)[0]
    except NotALattice as exc:
        return pairs, None, exc.pair
    return pairs, lat, None


def _eval_tolerance(seq, n, enc, deep, want_witness, report: EnumerationReport):
    tol = tolerance_from_encoding(n, enc)
    doc = tolerance_doc(tol)
    pairs, lat, witness = _rs_order_lattice_witness(tol)
    if witness is not None and want_witness and "nonLatticeTolerance" not in report.findings:
        report.findings["nonLatticeTolerance"] = (
            seq,
            {"tolerance": doc, "witnessPair": [list(witness[0]), list(witness[1])]},
        )
    if not deep:
        return
    if n <= 4:

        def galois():
            full = (1 << n) - 1
            for x in range(full + 1):
                lo, up = tol.lower(x), tol.upper(x)
                if tol.lower(tol.upper(lo)) != lo or tol.upper(tol.lower(up)) != up:
                    return False
                for y in range(full + 1):
                    if not galois_holds(tol, x, y):
                        return False
            return True

        _step(report, seq, "galoisConnection", doc, galois)

    def irr_iff_dist():
        irred = induced_irredundant_covering(tol) is not None
        nice = lat is not None and is_distributive(lat)[0]
        return irred == nice

    _step(report, seq, "irredundantIffDistributiveRsLattice", doc, irr_iff_dist)


def _eval_lattice(seq, lat: Lattice, report: EnumerationReport):
    from .pseudo import NoPseudocomplement

    doc = lattice_doc(lat)
    holder = {}

    def pseudo():
        try:
            holder["dp"] = compute_pseudocomplements(lat)
        except NoPseudocomplement:
            holder["dp"] = None  # legitimate for non-distributive lattices
        return True

    if not _step(report, seq, "pseudocomplementLaws", doc, pseudo):
        return
    dp = holder["dp"]
    if dp is None or not dp.distributive:
        return
    ji = join_irreducibles(lat)
    _step(report, seq, "regularityCriteriaEquivalence", doc, lambda: is_regular(dp, ji) is not None)
    _step(report, seq, "heytingClosedForms", doc, lambda: heyting_implications(dp) is not None)
    _step(report, seq, "skeletonsBoolean", doc, lambda: skeletons(dp) is not None)
    for neg in antitone_involutions(lat):
        ndoc = lattice_doc(lat, neg)
        dm = _step(report, seq, "deMorganValidates", ndoc, validate_demorgan, lat, neg)
        if dm is None:
            continue

        def g_round_trip():
            g = compute_g(dm, ji)
            return neg_from_g(lat, ji, g) == dm.neg

        _step(report, seq, "gmapRoundTrip", ndoc, g_round_trip)

        def j3_iff_kleene():
            g = compute_g(dm, ji)
            p = lat.poset
            j3 = all(p.leq(j, g[j]) or p.leq(g[j], j) for j in ji.members)
            return j3 == is_kleene(dm)[0]

        _step(report, seq, "comparabilityIffKleene", ndoc, j3_iff_kleene)
        _step(
            report, seq, "negationPseudoInterplay", ndoc,
            lambda: demorgan_pseudo_report(dm, dp, ji) is not None,
        )


def _run_covering_chunk(args):
    items = args
    report = EnumerationReport()
    for seq, blocks, n in items:
        cov = Covering([str(i) for i in range(n)], blocks)
        _eval_covering(seq, cov, report)
        report.instances_tested += 1
    return report


def _run_tolerance_chunk(args):
    report = EnumerationReport()
    for seq, n, enc, deep, want_witness in args:
        _eval_tolerance(seq, n, enc, deep, want_witness, report)
        report.instances_tested += 1
    return report


def _run_lattice_chunk(args):
    report = EnumerationReport()
    for seq, below, labels in args:
        lat = Lattice.from_poset(Poset(labels, below))
        _eval_lattice(seq, lat, report)
        report.instances_tested += 1
    return report


def _pooled(runner, items, workers):
    merged = EnumerationReport()
    if not items:
        return merged
    if workers <= 1:
        return runner(items)
    size = (len(items) + workers - 1) // workers
    chunks = [items[i : i + size] for i in range(0, len(items), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(runner, chunks):
            merged.merge(part)
    return merged


def sweep_coverings(max_universe=5, workers=None) -> EnumerationReport:
    """All antichain coverings up to the bound (every irredundant covering is
    one); irredundant ones get the full rough-algebra battery."""
    workers = worker_count() if workers is None else workers
    start = time.perf_counter()
    items = []
    seq = 0
    for n in range(1, max_universe + 1):
        for cov in antichain_coverings(n):
            items.append((seq, cov.blocks, n))
            seq += 1
    report = _pooled(_run_covering_chunk, items, workers)
    report.runtime_seconds = time.perf_counter() - start
    return report


def sweep_tolerances(max_universe=5, workers=None, canonical=False) -> EnumerationReport:
    """All tolerances up to the bound.  Deep checks run for universes of at
    most five points; beyond that the sweep only hunts the promised
    tolerance whose rough order is not a lattice, stopping when found.
    canonical=True dedups tolerances by graph isomorphism first."""
    from .isomorph import canonical_key

    workers = worker_count() if workers is None else workers
    start = time.perf_counter()
    report = EnumerationReport()
    report.findings.setdefault("nonLatticeTolerance", None)
    seq = 0
    for n in range(1, max_universe + 1):
        deep = n <= 5
        if not deep and report.findings.get("nonLatticeTolerance"):
            break
        items = []
        seen = set()
        for enc in range(1 << len(edge_list(n))):
            if canonical:
                key = canonical_key(n, tolerance_from_encoding(n, enc).nbr)
                if key in seen:
                    seq += 1
                    continue
                seen.add(key)
            items.append((seq, n, enc, deep, True))
            seq += 1
        part = _pooled(_run_tolerance_chunk, items, workers)
        report.merge(part)
        report.runtime_seconds = time.perf_counter() - start
    return report


def sweep_demorgan(max_lattice=8, workers=None) -> EnumerationReport:
    """All lattices up to the size bound; each distributive one is checked
    with every order-reversing involution it admits."""
    workers = worker_count() if workers is None else workers
    start = time.perf_counter()
    items = []
    for seq, lat in enumerate(all_lattices(max_lattice)):
        items.append((seq, lat.poset.below, lat.labels))
    report = _pooled(_run_lattice_chunk, items, workers)
    report.runtime_seconds = time.perf_counter() - start
    return report


def run_enumeration(universe_max=5, lattice_max=8, workers=None, canonical=False) -> EnumerationReport:
    report = EnumerationReport()
    for part in (
        sweep_coverings(min(universe_max, 5), workers),
        sweep_tolerances(universe_max, workers, canonical),
        sweep_demorgan(lattice_max, workers),
    ):
        report.merge(part)
        report.runtime_seconds += part.runtime_seconds
    report.findings.setdefault("nonLatticeTolerance", None)
    return report
