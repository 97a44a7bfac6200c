"""Command-line front end.

Subcommands: check, represent, verify, enumerate, render.  Exit codes:
0 the command completed and every verification it ran passed; 1 a property
or verification failed (a witness is reported); 2 the input could not be
parsed or violated a bound.  ROUGHKLEENE_WORKERS sets the sweep pool size.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import jsonio
from .demorgan import DeMorganError
from .dot import hasse_dot, rs_dot
from .posets import LabelsNotDistinct, PosetError, TableCapExceeded
from .represent import NotKleene, NotRegular, RepresentError, represent
from .reports import check_report, represent_bundle, verify_report
from .rough import BoundsExceeded, ToleranceError, build_rs
from .sweeps import run_enumeration

HARD_LATTICE_CAP = 8


def _fail(message, code):
    print(message, file=sys.stderr)
    return code


class StructureInvalid(Exception):
    """An algebra document that parsed but whose order is no lattice, or
    whose negation fails its checks, distributivity among them: exit 1."""


def _parse_algebra(doc):
    """jsonio.parse_algebra, with a DeMorganError or PosetError raised as
    StructureInvalid; ParseError and TableCapExceeded pass through."""
    try:
        return jsonio.parse_algebra(doc)
    except TableCapExceeded:
        raise
    except (DeMorganError, PosetError) as exc:
        raise StructureInvalid(exc) from None


def _emit(text, out_path=None):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_check(args) -> int:
    lat, dm = _parse_algebra(jsonio.load_document(args.input))
    _emit(jsonio.dumps(check_report(lat, dm)), args.out)
    return 0


def cmd_represent(args) -> int:
    _, dm = _parse_algebra(jsonio.load_document(args.input))
    if dm is None:
        raise jsonio.ParseError("representation needs a negation: provide 'neg' or 'g'")
    try:
        result = represent(dm)
    except (NotRegular, NotKleene) as exc:
        return _fail(str(exc), 1)
    except RepresentError as exc:
        return _fail(f"verification failed: {exc}", 1)
    except LabelsNotDistinct as exc:
        return _fail(f"input error: the point labels of the universe give two rough pairs "
                     f"the label {exc.label!r}", 2)
    _emit(jsonio.dumps(represent_bundle(result)), args.out)
    if args.dot:
        os.makedirs(args.dot, exist_ok=True)
        with open(os.path.join(args.dot, "source.dot"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(hasse_dot(dm.lattice, name="source", neg=dm.neg))
        with open(os.path.join(args.dot, "roughsets.dot"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(rs_dot(result.rs))
    return 0


def cmd_verify(args) -> int:
    doc = jsonio.load_document(args.input)
    if "pairs" in doc:
        obj = jsonio.parse_tolerance(doc)
    elif "blocks" in doc:
        obj = jsonio.parse_covering(doc)
    else:
        raise jsonio.ParseError("need a tolerance ('pairs') or covering ('blocks') document")
    report = verify_report(obj)
    _emit(jsonio.dumps(report), args.out)
    return 1 if report["failures"] else 0


def cmd_enumerate(args) -> int:
    if args.lattice_max > HARD_LATTICE_CAP and not args.force:
        return _fail(
            f"--lattice-max {args.lattice_max} exceeds the cap {HARD_LATTICE_CAP}; pass --force",
            2,
        )
    report = run_enumeration(
        universe_max=args.universe_max,
        lattice_max=args.lattice_max,
        workers=args.workers,
        canonical=args.canonical,
    )
    _emit(jsonio.dumps(report.to_dict()), args.out)
    if args.witness_dir:
        write_witness_files(report, args.witness_dir)
    return 1 if report.failed else 0


def write_witness_files(report, directory):
    """One reproducible file per failing property plus the non-lattice
    finding.  Each file is the instance document itself (annotated with the
    property name and error), so it replays through verify/check as is."""
    os.makedirs(directory, exist_ok=True)
    for name, outcome in sorted(report.properties.items()):
        if outcome.first_witness is None:
            continue
        witness = outcome.first_witness[1]
        doc = dict(witness.get("instance", {}))
        doc["failedProperty"] = name
        doc["error"] = witness.get("error")
        path = os.path.join(directory, f"property-{name}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(jsonio.dumps(doc))
    finding = report.findings.get("nonLatticeTolerance")
    if finding is not None:
        path = os.path.join(directory, "finding-non-lattice.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(jsonio.dumps(finding[1]["tolerance"]))


def cmd_render(args) -> int:
    doc = jsonio.load_document(args.input)
    if "pairs" in doc:
        text = rs_dot(build_rs(jsonio.parse_tolerance(doc)))
    elif "blocks" in doc:
        text = rs_dot(build_rs(jsonio.parse_covering(doc).tolerance))
    else:
        lat, dm = _parse_algebra(doc)
        text = hasse_dot(lat, neg=dm.neg if dm is not None and args.neg_labels else None)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughkleene",
        description="Rough-set Kleene algebras from tolerances: check, represent, verify, enumerate, render.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="diagnose a lattice/algebra document")
    p.add_argument("input")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("represent", help="build and verify the rough-set representation")
    p.add_argument("input")
    p.add_argument("--out", help="write the JSON bundle here instead of stdout")
    p.add_argument("--dot", metavar="DIR", help="also write source.dot and roughsets.dot")
    p.set_defaults(fn=cmd_represent)

    p = sub.add_parser("verify", help="run the rough-set battery on a tolerance or covering")
    p.add_argument("input")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("enumerate", help="sweep small instances and test the property suites")
    p.add_argument("--universe-max", type=int, default=5,
                   help="point bound of the covering and tolerance sweeps; any "
                        "bound above 5 gives the five-point report")
    p.add_argument("--lattice-max", type=int, default=8)
    p.add_argument("--canonical", action="store_true", help="dedup tolerances by isomorphism")
    p.add_argument("--force", action="store_true", help="lift the --lattice-max bound")
    p.add_argument("--workers", type=int, default=None,
                   help=f"worker pool size, at most one per CPU (default: ${'{'}ROUGHKLEENE_WORKERS{'}'} or 1)")
    p.add_argument("--witness-dir", help="write failing-property and finding witness files here")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("render", help="emit a Graphviz Hasse diagram")
    p.add_argument("input")
    p.add_argument("--neg-labels", action="store_true", help="annotate nodes with their negation")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except jsonio.ParseError as exc:
        return _fail(f"input error: {exc}", 2)
    except (BoundsExceeded, TableCapExceeded) as exc:
        return _fail(str(exc), 2)
    except StructureInvalid as exc:
        return _fail(f"structure invalid: {exc}", 1)
    except (ToleranceError, PosetError, DeMorganError) as exc:
        return _fail(f"verification failed: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
