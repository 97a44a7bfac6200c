"""Enumeration sweeps: run the property suites over exhaustive families.

Three sweeps: coverings (antichain families, irredundant ones get the full
rough-algebra battery), tolerances (lattice census plus the promised
non-lattice witness), and De Morgan structures on small lattices (the
regularity-criteria equivalences).  Both point sweeps stop at five points,
where the non-lattice witness is always found.  All three share one runner
(_sweep), serial or over a worker pool, which imports concurrent.futures
and with it multiprocessing on its first pooled sweep, so a serial run never
loads them.  Instances carry sequence numbers so the first witness of any
failure is deterministic, also under a worker pool, and an instance's
witness document is built only when a check on it fails.
"""

from __future__ import annotations

import os
import time

from .demorgan import antitone_involutions, compute_g, is_kleene, neg_from_g, validate_demorgan
from .generators import (
    all_lattices,
    antichain_coverings,
    edge_list,
    product_of_chains,
    tolerance_from_encoding,
)
from .isomorph import canonical_key, lattice_key
from .jsonio import covering_doc, lattice_doc, tolerance_doc
from .posets import Lattice, NotALattice
from .pseudo import (
    NoPseudocomplement,
    compute_pseudocomplements,
    demorgan_pseudo_report,
    heyting_implications,
    is_regular,
    skeletons,
)
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
)

WORKERS_ENV = "ROUGHKLEENE_WORKERS"
MAX_POINTS = 5  # the point sweeps' bound: the non-lattice witness lies on five points


def worker_count() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


class PropertyOutcome:
    def __init__(self, name):
        self.name = name
        self.checked = 0
        self.failures = 0
        self.first_witness = None  # (seq, witness dict)

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


class EnumerationReport:
    def __init__(self):
        self.instances_tested = 0
        self.runtime_seconds = 0.0
        self.properties = {}
        self.findings = {}

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
    return the check's value when it passed and None otherwise.
    witness_doc, a function of no arguments, is called for the failure's
    witness only."""
    value, err = run_check(fn, *args)
    ok = bool(value)
    report.outcome(name).record(
        seq, ok, None if ok else {"instance": witness_doc(), "error": err}
    )
    return value if ok else None


def _once(fn, *args):
    """A function of no arguments that returns fn(*args), run on its first
    call alone.  An exception it raised is raised again on every call, so
    each check that shares the value records the same failure."""
    outcome = []

    def value():
        if not outcome:
            try:
                outcome.append((fn(*args), None))
            except Exception as exc:  # noqa: BLE001 - raised again to each caller
                outcome.append((None, exc))
        result, exc = outcome[0]
        if exc is not None:
            raise exc
        return result

    return value


_CHAIN_KEYS = {}


def _chain_product_key(singles, multis):
    if (singles, multis) not in _CHAIN_KEYS:
        _CHAIN_KEYS[(singles, multis)] = lattice_key(
            product_of_chains([2] * singles + [3] * multis)
        )
    return _CHAIN_KEYS[(singles, multis)]


def _eval_covering(report: EnumerationReport, seq, blocks, n):
    cov = Covering([str(i) for i in range(n)], blocks)
    doc = _once(covering_doc, cov)
    rep = _step(report, seq, "irredundanceCriteriaAgree", doc, is_irredundant, cov)
    if rep is None or not rep.irredundant:
        return
    rs = _step(report, seq, "rsKleeneRegularBattery", doc, build_rs, cov.tolerance)
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
                lat.join(star[x], star[star[x]]) == lat.top
                and lat.meet(plus[x], plus[plus[x]]) == lat.bottom
                for x in range(rs.n)
            )

        _step(report, seq, "comerDoubleStone", doc, comer)


def _rs_order_lattice_witness(tol):
    """The rough order by the powerset sweep as a lattice, or a non-lattice
    witness: the first bad pair rough_lattice finds, as rough pairs.

    build_rs takes the same sweep and lattice on every tolerance that
    no irredundant covering induces, and only those can give a witness.
    """
    pairs = _powerset_pairs(tol)
    lab = [str(k) for k in range(len(pairs))]
    try:
        lat = rough_lattice(lab, pairs, tol.n)
    except NotALattice as exc:
        return None, exc.pair
    return lat, None


def _eval_tolerance(report: EnumerationReport, seq, n, enc):
    tol = tolerance_from_encoding(n, enc)
    doc = _once(tolerance_doc, tol)
    lat, witness = _rs_order_lattice_witness(tol)
    if witness is not None and "nonLatticeTolerance" not in report.findings:
        report.findings["nonLatticeTolerance"] = (
            seq,
            {"tolerance": doc(), "witnessPair": [list(witness[0]), list(witness[1])]},
        )
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
        nice = lat is not None and lat.distributive
        return irred == nice

    _step(report, seq, "irredundantIffDistributiveRsLattice", doc, irr_iff_dist)


def _eval_lattice(report: EnumerationReport, seq, lat: Lattice):
    doc = _once(lattice_doc, lat)
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
    if dp is None or not lat.distributive:
        return
    _step(report, seq, "regularityCriteriaEquivalence", doc, lambda: is_regular(dp) is not None)
    _step(report, seq, "heytingClosedForms", doc, lambda: heyting_implications(dp) is not None)
    _step(report, seq, "skeletonsBoolean", doc, lambda: skeletons(dp) is not None)
    for neg in antitone_involutions(lat):
        ndoc = _once(lattice_doc, lat, neg)
        dm = _step(report, seq, "deMorganValidates", ndoc, validate_demorgan, lat, neg)
        if dm is None:
            continue

        g = _once(compute_g, dm)

        def g_round_trip():
            return neg_from_g(lat, g()) == dm.neg

        _step(report, seq, "gmapRoundTrip", ndoc, g_round_trip)

        def j3_iff_kleene():
            gmap = g()
            j3 = all(lat.leq(j, gmap[j]) or lat.leq(gmap[j], j) for j in lat.ji.members)
            return j3 == is_kleene(dm)[0]

        _step(report, seq, "comparabilityIffKleene", ndoc, j3_iff_kleene)
        _step(
            report, seq, "negationPseudoInterplay", ndoc,
            lambda: demorgan_pseudo_report(dm, dp) is not None,
        )


def _run_chunk(task):
    """Evaluate a chunk of (seq, *args) items into a new report, each as
    evaluate(report, seq, *args): the unit of work of _sweep, in its own
    process or in this one."""
    evaluate, items = task
    report = EnumerationReport()
    for seq, *args in items:
        evaluate(report, seq, *args)
        report.instances_tested += 1
    return report


def _sweep(evaluate, items, workers) -> EnumerationReport:
    """Evaluate the (seq, *args) items (_run_chunk), serially, or in one
    chunk per worker over a process pool of at most one process per CPU,
    the parts merged; the pool is imported here, on its first use.  A
    serial sweep draws each item as it evaluates it, so it holds one at a
    time; only the pool lists them, to cut its chunks.  The items are
    plain tuples, so the pool pickles them.  runtime_seconds is the wall
    time of the whole sweep, building the items included."""
    workers = min(worker_count() if workers is None else workers, os.cpu_count() or 1)
    start = time.perf_counter()
    if workers > 1:
        items = list(items)
    if workers <= 1 or not items:
        report = _run_chunk((evaluate, items))
    else:
        size = (len(items) + workers - 1) // workers
        chunks = [(evaluate, items[i : i + size]) for i in range(0, len(items), size)]
        from concurrent.futures import ProcessPoolExecutor

        report = EnumerationReport()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_run_chunk, chunks):
                report.merge(part)
    report.runtime_seconds = time.perf_counter() - start
    return report


def sweep_coverings(max_universe=MAX_POINTS, workers=None) -> EnumerationReport:
    """All antichain coverings up to the bound (every irredundant covering is
    one); irredundant ones get the full rough-algebra battery."""
    coverings = (cov for n in range(1, max_universe + 1) for cov in antichain_coverings(n))
    items = ((seq, cov.blocks, cov.n) for seq, cov in enumerate(coverings))
    return _sweep(_eval_covering, items, workers)


def _tolerance_items(max_points, canonical):
    """(seq, n, enc) for every tolerance on 1..max_points points, by edge
    encoding; canonical=True keeps the first of each isomorphism class, and
    the skipped ones still take their sequence numbers."""
    encodings = ((n, enc) for n in range(1, max_points + 1) for enc in range(1 << len(edge_list(n))))
    seen = set()
    for seq, (n, enc) in enumerate(encodings):
        if canonical:
            key = n, canonical_key(n, tolerance_from_encoding(n, enc).nbr)
            if key in seen:
                continue
            seen.add(key)
        yield seq, n, enc


def sweep_tolerances(max_universe=MAX_POINTS, workers=None, canonical=False) -> EnumerationReport:
    """All tolerances on at most min(max_universe, 5) points: the galois
    checks up to four points, the irredundance/distributivity equivalence
    on all, and the promised tolerance whose rough order is not a lattice,
    which five points always give.  canonical=True dedups tolerances by
    graph isomorphism first."""
    items = _tolerance_items(min(max_universe, MAX_POINTS), canonical)
    report = _sweep(_eval_tolerance, items, workers)
    report.findings.setdefault("nonLatticeTolerance", None)
    return report


def sweep_demorgan(max_lattice=8, workers=None) -> EnumerationReport:
    """All lattices up to the size bound; each distributive one is checked
    with every order-reversing involution it admits.  The runner takes the
    lattices all_lattices built, so each is built once."""
    return _sweep(_eval_lattice, enumerate(all_lattices(max_lattice)), workers)


def run_enumeration(universe_max=MAX_POINTS, lattice_max=8, workers=None, canonical=False) -> EnumerationReport:
    """The three sweeps, merged; both point sweeps stop at five points, so
    a larger universe_max gives the five-point report."""
    report = EnumerationReport()
    for part in (
        sweep_coverings(min(universe_max, MAX_POINTS), workers),
        sweep_tolerances(universe_max, workers, canonical),
        sweep_demorgan(lattice_max, workers),
    ):
        report.merge(part)
        report.runtime_seconds += part.runtime_seconds
    report.findings.setdefault("nonLatticeTolerance", None)
    return report
