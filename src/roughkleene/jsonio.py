"""JSON document formats and their parsers.

Documents are plain objects:
  lattice   {"labels": [...], "covers": [[i,j],...]} or {"labels": [...], "leq": [[0/1,...],...]}
            optionally with "neg": [permutation] installing a negation
  jposet    a lattice document plus "g": {"<label>": "<label>"} naming an
            antitone involution of a join-irreducible poset; the algebra is
            materialized as its downset lattice
  tolerance {"labels": [...], "pairs": [[i,j],...]}   (symmetric closure applied)
  covering  {"labels": [...], "blocks": [[...],...]}

Serialization is deterministic: fixed key order, two-space indent, LF.
"""

from __future__ import annotations

import json

from .demorgan import build_kleene_from_jposet, validate_demorgan
from .posets import Lattice, Poset, check_table_size, mask_of
from .rough import Covering, Tolerance


class ParseError(Exception):
    def __init__(self, message, field=None, line=None):
        self.field = field
        self.line = line
        where = []
        if field is not None:
            where.append(f"field {field!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")


def load_document(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must hold a JSON object")
    return doc


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _labels(doc):
    labels = doc.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError("must be a list of strings", field="labels")
    if len(set(labels)) != len(labels):
        raise ParseError("labels must be pairwise distinct", field="labels")
    return labels


def _point_labels(doc):
    """Labels of universe points.  Rough pairs are labelled ({a,b},{...}),
    so a point label must be nonempty and free of , { } ( ) for those
    labels to stay distinct."""
    labels = _labels(doc)
    for x in labels:
        if not x or any(c in x for c in ",{}()"):
            raise ParseError(f"point label {x!r} is empty or contains one of ,{{}}()", field="labels")
    return labels


def _int_pairs(doc, field):
    value = doc.get(field)
    if not isinstance(value, list):
        raise ParseError("must be a list of [i, j] pairs", field=field)
    out = []
    for item in value:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(v, int) for v in item)
        ):
            raise ParseError(f"bad entry {item!r}", field=field)
        out.append((item[0], item[1]))
    return out


def parse_poset(doc) -> Poset:
    labels = _labels(doc)
    # refuse an oversized order before its covers or its matrix are read
    check_table_size(len(labels))
    if "covers" in doc:
        try:
            return Poset.from_covers(labels, _int_pairs(doc, "covers"))
        except Exception as exc:
            raise ParseError(str(exc), field="covers") from None
    if "leq" in doc:
        rows = doc["leq"]
        n = len(labels)
        if (
            not isinstance(rows, list)
            or len(rows) != n
            or not all(
                isinstance(row, list)
                and len(row) == n
                and all(isinstance(v, int) and v in (0, 1) for v in row)
                for row in rows
            )
        ):
            raise ParseError("must be an n x n 0/1 matrix", field="leq")
        try:
            return Poset.from_leq(labels, rows)
        except Exception as exc:
            raise ParseError(str(exc), field="leq") from None
    raise ParseError("need either 'covers' or 'leq'")


def parse_algebra(doc):
    """Returns (lattice, demorgan-or-None).

    A document with "g" describes a join-irreducible poset with its antitone
    involution; otherwise the document is the lattice itself, with "neg"
    installing the negation when present.
    """
    if "g" in doc:
        jposet = parse_poset(doc)
        # downsets are labelled "0" or by their maxima joined with "|"
        for x in jposet.labels:
            if x == "0" or "|" in x:
                raise ParseError(f"join-irreducible label {x!r} is '0' or contains '|'", field="labels")
        gdoc = doc["g"]
        if not isinstance(gdoc, dict) or not all(isinstance(v, str) for v in gdoc.values()):
            raise ParseError("must map labels to labels", field="g")
        pos = {lab: i for i, lab in enumerate(jposet.labels)}
        try:
            g = {pos[a]: pos[b] for a, b in gdoc.items()}
        except KeyError as exc:
            raise ParseError(f"unknown label {exc}", field="g") from None
        if sorted(g) != list(range(jposet.n)):
            raise ParseError("must cover every element exactly once", field="g")
        dm = build_kleene_from_jposet(jposet, g)
        return dm.lattice, dm
    poset = parse_poset(doc)
    lat = Lattice.from_poset(poset)
    if "neg" in doc:
        neg = doc["neg"]
        if (
            not isinstance(neg, list)
            or len(neg) != lat.n
            or not all(isinstance(v, int) and 0 <= v < lat.n for v in neg)
        ):
            raise ParseError("must be a permutation array", field="neg")
        return lat, validate_demorgan(lat, neg)
    return lat, None


def parse_tolerance(doc) -> Tolerance:
    labels = _point_labels(doc)
    pairs = _int_pairs(doc, "pairs")
    n = len(labels)
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"pair [{i},{j}] out of range", field="pairs")
    return Tolerance.from_pairs(labels, pairs)


def parse_covering(doc) -> Covering:
    labels = _point_labels(doc)
    value = doc.get("blocks")
    if not isinstance(value, list):
        raise ParseError("must be a list of lists of point ids", field="blocks")
    n = len(labels)
    blocks = []
    for block in value:
        if not isinstance(block, list) or not all(
            isinstance(v, int) and 0 <= v < n for v in block
        ):
            raise ParseError(f"bad block {block!r}", field="blocks")
        blocks.append(mask_of(block))
    try:
        return Covering(labels, blocks)
    except Exception as exc:
        raise ParseError(str(exc), field="blocks") from None


def tolerance_doc(tol: Tolerance) -> dict:
    return {"labels": list(tol.labels), "pairs": [list(p) for p in tol.pairs()]}


def covering_doc(cov: Covering) -> dict:
    from .posets import bits

    return {
        "labels": list(cov.labels),
        "blocks": [[i for i in bits(b)] for b in cov.blocks],
    }


def lattice_doc(lat: Lattice, neg=None) -> dict:
    doc = {
        "labels": list(lat.labels),
        "covers": [list(c) for c in sorted(zip(*lat.covers))],
    }
    if neg is not None:
        doc["neg"] = list(neg)
    return doc
