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
    Covering,
    blocks_of,
    build_rs,
    induced_irredundant_covering,
    is_irredundant,
    isolated_blocks,
    join_closure_pairs,
    powerset_image_report,
    rs_g_map,
    rs_join_irreducibles,
    skeleton_isomorphism_report,
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
    rough-algebra battery when it applies."""
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
    labels = tol.labels
    report["blocks"] = [_set_names(labels, b) for b in blocks_of(tol)]
    induced = induced_irredundant_covering(tol)
    report["inducedByIrredundantCovering"] = induced is not None
    if induced is not None:
        report["irredundantCovering"] = [_set_names(labels, b) for b in induced.blocks]
    failures = []
    try:
        rs = build_rs(tol)
        report["rsIsLattice"] = True
        report["rsSize"] = rs.n
        report["nonLatticeWitness"] = None
    except NotALattice as exc:
        a, b = exc.pair
        report["rsIsLattice"] = False
        report["rsSize"] = None
        report["nonLatticeWitness"] = {
            "kind": exc.kind,
            "pair": [
                [_set_names(labels, a[0]), _set_names(labels, a[1])],
                [_set_names(labels, b[0]), _set_names(labels, b[1])],
            ],
        }
        rs = None
    checks = {}
    if rs is not None and induced is not None:
        for name, fn in (
            ("kleeneRegularBattery", lambda: True),  # build_rs already enforced it
            ("joinIrreducibleFormulas", lambda: rs_join_irreducibles(rs) is not None),
            ("gmapClosedForm", lambda: rs_g_map(rs) is not None),
            ("skeletonIsomorphisms", lambda: skeleton_isomorphism_report(rs) is not None),
            ("imageLatticesAtomisticBoolean", lambda: powerset_image_report(tol) is not None),
            ("dualRouteEqual", lambda: join_closure_pairs(tol) == list(rs.pairs)),
        ):
            try:
                ok = bool(fn())
            except Exception as exc:  # noqa: BLE001 - diagnostics must not abort
                ok = False
                failures.append({"check": name, "error": f"{type(exc).__name__}: {exc}"})
            else:
                if not ok:
                    failures.append({"check": name, "error": "check returned false"})
            checks[name] = ok
        try:
            checks["isolatedBlocks"] = True
            report["isolatedBlocks"] = [
                {"block": _set_names(labels, item.block), "isolated": item.isolated}
                for item in isolated_blocks(rs)
            ]
        except Exception as exc:  # noqa: BLE001
            checks["isolatedBlocks"] = False
            failures.append({"check": "isolatedBlocks", "error": str(exc)})
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
