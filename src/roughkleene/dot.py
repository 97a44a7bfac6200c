"""Graphviz DOT rendering of Hasse diagrams.

Deterministic: nodes in element-id order, covering edges in lex order, LF
line endings.  Join-irreducible elements are drawn filled.
"""

from __future__ import annotations

from .posets import Lattice
from .rough import RoughSetAlgebra


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def hasse_dot(lat: Lattice, name="lattice", neg=None) -> str:
    """Bottom-up Hasse diagram; pass neg to annotate each node with its image."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=circle];']
    for i in range(lat.n):
        label = lat.labels[i]
        if neg is not None:
            label = f"{label} | ~{lat.labels[neg[i]]}"
        style = ' style=filled fillcolor=black fontcolor=white' if i in lat.ji else ""
        lines.append(f"  n{i} [label={_quote(label)}{style}];")
    for i, j in sorted(zip(*lat.covers)):
        lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def rs_dot(rs: RoughSetAlgebra) -> str:
    """Hasse diagram of a rough-set algebra, nodes labeled with their pairs."""
    return hasse_dot(rs.lattice, name="roughsets")
