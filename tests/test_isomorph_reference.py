"""canonical_key against the plain search it replaced.

The reference below walks every vertex of the target cell at every depth and
prunes only by the prefix bound.  The library also skips candidates that a
discovered automorphism maps onto an earlier sibling, and must return the
same key, byte for byte, with far less work.
"""

import random

import pytest

from roughkleene import isomorph
from roughkleene.generators import (
    all_distributive_lattices,
    all_lattices,
    all_tolerances,
    product_of_chains,
)
from roughkleene.isomorph import canonical_key, lattice_key
from roughkleene.posets import bits
from roughkleene.sweeps import sweep_tolerances


def ref_transpose(n, rows):
    cols = [0] * n
    for i in range(n):
        for j in bits(rows[i]):
            cols[j] |= 1 << i
    return tuple(cols)


def ref_refine(n, rows, cols, colors):
    while True:
        keys = []
        for i in range(n):
            outs = sorted(colors[j] for j in bits(rows[i]))
            ins = sorted(colors[j] for j in bits(cols[i]))
            keys.append((colors[i], tuple(outs), tuple(ins)))
        ranks = {k: c for c, k in enumerate(sorted(set(keys)))}
        new = tuple(ranks[k] for k in keys)
        if new == colors:
            return new
        colors = new


def ref_canonical_key(n, rows):
    """Least leaf encoding over every vertex of the least color class."""
    if n == 0:
        return (0,)
    rows = tuple(rows)
    cols = ref_transpose(n, rows)
    base = ref_refine(n, rows, cols, (0,) * n)
    best = None

    def encode_step(v, order):
        word = [rows[v] >> v & 1]
        for u in order:
            word.append(rows[u] >> v & 1)
            word.append(rows[v] >> u & 1)
        return tuple(word)

    def walk(order, placed, colors, prefix):
        nonlocal best
        d = len(order)
        if d == n:
            key = tuple(prefix)
            if best is None or key < best:
                best = key
            return
        avail = [v for v in range(n) if not placed >> v & 1]
        low = min(colors[v] for v in avail)
        for v in avail:
            if colors[v] != low:
                continue
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
                ref_refine(n, rows, cols, tuple(forced)),
                prefix + [step],
            )

    walk([], 0, base, [])
    return (n,) + best


# Products of 2- and 3-element chains with fewer than 32 elements; 2^5 is
# in the relabeling test, where its slow reference key is computed once.
CHAIN_PRODUCTS = [
    [2], [3], [2, 2], [2, 3], [3, 3], [2, 2, 2], [2, 2, 3], [2, 3, 3],
    [3, 3, 3], [2, 2, 2, 2], [2, 2, 2, 3],
]


def _random_relations(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 9)
        p = rng.choice((0.2, 0.5, 0.8))
        rows = [
            sum(1 << j for j in range(n) if rng.random() < p) for _ in range(n)
        ]
        out.append((n, rows))
    return out


def _relabel(n, rows, perm):
    """The relation with point i renamed perm[i]."""
    out = [0] * n
    for i in range(n):
        for j in bits(rows[i]):
            out[perm[i]] |= 1 << perm[j]
    return out


def _corpus():
    for lat in all_lattices(8):
        yield lat.n, lat.poset.above
        yield lat.n, lat.poset.below
    for lat in all_distributive_lattices(10):
        yield lat.n, lat.poset.above
    for n in range(1, 6):
        for _, tol in all_tolerances(n):
            yield n, tol.nbr
    for sizes in CHAIN_PRODUCTS:
        lat = product_of_chains(sizes)
        yield lat.n, lat.poset.above
    yield from _random_relations(300, seed=5)


class TestAgainstReference:
    def test_same_keys_on_corpus(self):
        cases = 0
        for n, rows in _corpus():
            assert canonical_key(n, rows) == ref_canonical_key(n, rows), (n, rows)
            cases += 1
        assert cases == 2119

    def test_empty_relation(self):
        assert canonical_key(0, ()) == ref_canonical_key(0, ()) == (0,)

    @pytest.mark.parametrize("sizes", [[2] * 5, [3] * 3, [2, 2, 3, 3]])
    def test_same_keys_on_relabelings(self, sizes):
        lat = product_of_chains(sizes)
        n, rows = lat.n, lat.poset.above
        want = ref_canonical_key(n, rows)
        assert canonical_key(n, rows) == want
        rng = random.Random(len(sizes))
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_key(n, _relabel(n, rows, perm)) == want


class TestWork:
    def test_boolean_lattice_refinement_passes(self, monkeypatch):
        calls = 0
        refine = isomorph._refine

        def counting(*args):
            nonlocal calls
            calls += 1
            return refine(*args)

        monkeypatch.setattr(isomorph, "_refine", counting)
        lattice_key(product_of_chains([2] * 5))
        # 26 passes.  The old search makes 3,447, and this one makes 207
        # without its orbit pruning.
        assert 0 < calls <= 50

    def test_canonical_sweep_keeps_one_tolerance_per_graph(self):
        # Graphs on 1..5 unlabeled vertices: 1 + 2 + 4 + 11 + 34.
        report = sweep_tolerances(5, workers=1, canonical=True)
        assert report.instances_tested == 52
