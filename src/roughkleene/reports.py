"""Structured JSON reports behind the CLI commands.

Builders never raise for an honest negative verdict (a non-regular algebra,
a redundant covering, a rough order that is no lattice); they raise only on
unparseable or structurally invalid input, which the CLI maps to its own
exit codes.  Key order is fixed so identical inputs give identical bytes.
"""

from __future__ import annotations

from .demorgan import DeMorgan, is_kleene
from .posets import (
    Lattice,
    NotALattice,
    bits,
    is_distributive,
    join_irreducibles,
)
from .pseudo import NoPseudocomplement, compute_pseudocomplements, is_regular
from .represent import RepresentationResult
from .rough import (
    POWERSET_CAP,
    RS_CHECKS,
    BoundsExceeded,
    Covering,
    blocks_of,
    build_rs,
    is_irredundant,
    isolated_blocks,
    run_check,
    tolerance_from_covering,
)


def _names(lat, ids):
    return [lat.labels[i] for i in ids]


def check_report(lat: Lattice, dm: DeMorgan | None) -> dict:
    """Diagnostics for a lattice, optionally carrying a negation.

    The regularity verdicts come from pseudo.is_regular, so check also
    enforces that its criteria agree.
    """
    dist, triple = is_distributive(lat)
    report = {
        "size": lat.n,
        "distributive": dist,
        "deMorgan": dm is not None,
        "M": None,
        "D": None,
        "N": None,
        "K": None,
        "primeChainMax": None,
        "twoLevels": None,
        "regular": None,
        "witnesses": {},
    }
    if triple is not None:
        report["witnesses"]["distributive"] = _names(lat, triple)
    if not dist:
        return report
    try:
        dp = compute_pseudocomplements(lat)
    except NoPseudocomplement as exc:  # unreachable for distributive input
        report["witnesses"]["pseudocomplement"] = str(exc)
        return report
    reg = is_regular(dp, join_irreducibles(lat), dm.neg if dm is not None else None)
    report.update(M=reg.m, D=reg.d, N=reg.n, primeChainMax=reg.prime_chain_max,
                  twoLevels=reg.two_levels, regular=reg.regular)
    for key, witness in (("M", reg.m_witness), ("D", reg.d_witness), ("N", reg.n_witness),
                         ("twoLevels", reg.two_levels_witness)):
        if witness:
            report["witnesses"][key] = _names(lat, witness)
    if dm is not None:
        kleene, k_witness = is_kleene(dm)
        report["K"] = kleene
        if k_witness:
            report["witnesses"]["K"] = _names(lat, k_witness)
    return report


def _set_names(labels, mask):
    return [labels[i] for i in bits(mask)]


def verify_report(obj) -> dict:
    """Tolerance/covering diagnostics: blocks, irredundance, and the full
    rough-algebra battery when it applies.

    Universes past POWERSET_CAP raise BoundsExceeded up front, whatever the
    route of build_rs, because the battery sweeps the powerset as its
    oracle (imageLatticesAtomisticBoolean, dualRouteEqual)."""
    if isinstance(obj, Covering):
        cov = obj
        tol = tolerance_from_covering(cov)
        given = is_irredundant(cov)
        report = {
            "input": "covering",
            "universeSize": cov.n,
            "givenBlocks": [_set_names(cov.labels, b) for b in cov.blocks],
            "irredundant": given.irredundant,
            "removableBlock": None
            if given.removable is None
            else _set_names(cov.labels, given.removable),
        }
    else:
        tol = obj
        report = {"input": "tolerance", "universeSize": tol.n}
    if tol.n > POWERSET_CAP:
        raise BoundsExceeded(tol.n, POWERSET_CAP)
    labels = tol.labels
    report["blocks"] = [_set_names(labels, b) for b in blocks_of(tol)]
    try:
        rs, bad = build_rs(tol), None
    except NotALattice as exc:
        rs, bad = None, exc
    # only the powerset route, taken when no irredundant covering induces
    # tol, raises NotALattice
    induced = None if rs is None else rs.covering
    report["inducedByIrredundantCovering"] = induced is not None
    if induced is not None:
        report["irredundantCovering"] = [_set_names(labels, b) for b in induced.blocks]
    report["rsIsLattice"] = rs is not None
    report["rsSize"] = None if rs is None else rs.n
    report["nonLatticeWitness"] = None if bad is None else {
        "kind": bad.kind,
        "pair": [[_set_names(labels, half) for half in pair] for pair in bad.pair],
    }
    checks, failures = {}, []

    def run(name, check, *args):
        value, error = run_check(check, *args)
        checks[name] = bool(value)
        if not value:
            failures.append({"check": name, "error": error or "check returned false"})

    if rs is not None and induced is not None:
        checks["kleeneRegularBattery"] = True  # build_rs already enforced it
        for name, check in RS_CHECKS:
            run(name, check, rs)

        def isolated():
            report["isolatedBlocks"] = [
                {"block": _set_names(labels, item.block), "isolated": item.isolated}
                for item in isolated_blocks(rs)
            ]
            return True

        run("isolatedBlocks", isolated)
    report["checks"] = checks
    report["failures"] = failures
    return report


def represent_bundle(result: RepresentationResult) -> dict:
    """The exchange bundle for a verified representation."""
    src = result.source.lattice
    tol = result.tolerance
    labels = tol.labels
    sim = result.similarity
    atoms = [src.labels[a] for a in sim.atoms]
    simeq = sorted(
        [src.labels[x], src.labels[y]] for x, y in sim.simeq
    )
    spans = {
        src.labels[a]: sorted(_names(src, sorted(sim.spans[a])))
        for a in sim.atoms
    }
    neighborhoods = {
        labels[k]: _set_names(labels, tol.nbr[k]) for k in range(tol.n)
    }
    return {
        "universe": list(labels),
        "covering": [_set_names(labels, b) for b in result.covering.blocks],
        "tolerancePairs": [[labels[i], labels[j]] for i, j in tol.pairs()],
        "phi": {
            src.labels[x]: result.rs.fmt(t) for x, t in sorted(result.phi.items())
        },
        "isoTable": {
            src.labels[x]: result.rs.fmt(result.iso[x]) for x in range(src.n)
        },
        "report": {
            "atoms": atoms,
            "similarity": simeq,
            "spans": spans,
            "neighborhoods": neighborhoods,
            "universeSize": result.report["universeSize"],
            "blockCount": result.report["blockCount"],
            "sourceSize": result.report["sourceSize"],
            "rsSize": result.report["rsSize"],
            "checks": result.report["checks"],
            "verified": result.report["verified"],
        },
    }
