"""Property tests for the CLI contract: on any document, well-formed or not,
check, represent and verify exit with 0, 1 or 2 and never raise."""

import json
import os
import random
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roughkleene.cli import main
from roughkleene.generators import random_two_level_structure

SETTINGS = settings(
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)

# a value of the wrong shape for any field
junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


def rarely(draw):
    """True one time in eight; False is the simplest example."""
    return draw(st.sampled_from([False] * 7 + [True]))


@st.composite
def maybe(draw, strategy):
    """The well-formed value most of the time, junk otherwise."""
    return draw(junk) if rarely(draw) else draw(strategy)


@st.composite
def labels(draw, min_size=1, max_size=6):
    n = draw(st.integers(min_size, max_size))
    names = [f"p{i}" for i in range(n)]
    if rarely(draw) and n > 1:
        names[-1] = names[0]  # duplicate labels
    if rarely(draw):
        # labels that would print like derived rough-pair or downset labels
        names[0] = draw(st.sampled_from(["", "0", "a|b", "x,y", "{", ")"]))
    return names


@st.composite
def index_pairs(draw, n):
    idx = st.integers(-1, n) if rarely(draw) else st.integers(0, n - 1)
    return draw(st.lists(st.lists(idx, min_size=2, max_size=2), max_size=3 * n))


@st.composite
def leq_matrix(draw, n):
    """A 0/1 matrix: a random order extending ascending ids, often bounded
    by 0 and n-1, or noise."""
    if rarely(draw):
        return draw(st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
        ))
    bounded = draw(st.booleans())
    below = [1 << j for j in range(n)]
    for j in range(n):
        for i in range(j):
            if (bounded and (i == 0 or j == n - 1)) or draw(st.booleans()):
                below[j] |= below[i]
    return [[below[j] >> i & 1 for j in range(n)] for i in range(n)]


@st.composite
def ragged_matrix(draw, n):
    """An n-row matrix with rows of the wrong length or type."""
    rows = draw(leq_matrix(n))
    i = draw(st.integers(0, n - 1))
    rows[i] = draw(st.one_of(st.lists(st.integers(0, 1), max_size=n + 1), junk))
    return rows


@st.composite
def lattice_docs(draw):
    names = draw(labels())
    n = len(names)
    doc = {"labels": draw(maybe(st.just(names)))}
    if draw(st.booleans()):
        doc["covers"] = draw(maybe(index_pairs(n)))
    else:
        doc["leq"] = draw(maybe(ragged_matrix(n) if rarely(draw) else leq_matrix(n)))
    if draw(st.booleans()):
        doc["neg"] = draw(maybe(st.permutations(range(n)).map(list)))
    return doc


@st.composite
def jposet_docs(draw):
    """Half the time a seeded random_two_level_structure, a representable
    input; otherwise random covers with a random pairing."""
    if draw(st.booleans()):
        jposet, gmap = random_two_level_structure(random.Random(draw(st.integers(0, 10**6))))
        names = list(jposet.labels)
        covers = [list(c) for c in jposet.covers()]
        g = {names[a]: names[b] for a, b in gmap.items()}
    else:
        names = draw(labels())
        covers = draw(index_pairs(len(names)))
        g = dict(zip(names, draw(st.permutations(names))))
    if rarely(draw):
        g[draw(st.sampled_from(names))] = draw(junk)
    return {"labels": names, "covers": draw(maybe(st.just(covers))), "g": draw(maybe(st.just(g)))}


@st.composite
def tolerance_docs(draw):
    names = draw(labels(max_size=7))
    return {"labels": draw(maybe(st.just(names))), "pairs": draw(maybe(index_pairs(len(names))))}


@st.composite
def covering_docs(draw):
    names = draw(labels(max_size=7))
    n = len(names)
    point = st.integers(-1, n) if rarely(draw) else st.integers(0, n - 1)
    blocks = draw(st.lists(st.lists(point, min_size=1, max_size=n), max_size=n))
    if not rarely(draw):
        # cover the points the blocks missed, each by a one-point block
        covered = {p for block in blocks for p in block}
        blocks += [[p] for p in range(n) if p not in covered]
    return {"labels": draw(maybe(st.just(names))), "blocks": draw(maybe(st.just(blocks)))}


junk_docs = st.one_of(
    st.dictionaries(st.sampled_from(["labels", "covers", "leq", "neg", "g", "pairs", "blocks"]),
                    junk, max_size=4),
    junk,
)


def documents(*families):
    """Mostly the command's own document kinds, sometimes junk."""
    own = st.one_of(*families)
    return st.one_of(own, own, own, own, junk_docs)


def run_on(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return main([command, path, "--out", os.path.join(tmp, "out")])


@SETTINGS
@given(doc=documents(lattice_docs(), jposet_docs()))
def test_check_exit_code(doc):
    assert run_on("check", json.dumps(doc)) in (0, 1, 2)


@SETTINGS
@given(doc=documents(lattice_docs(), jposet_docs()))
def test_represent_exit_code(doc):
    assert run_on("represent", json.dumps(doc)) in (0, 1, 2)


@SETTINGS
@given(doc=documents(tolerance_docs(), covering_docs()))
def test_verify_exit_code(doc):
    assert run_on("verify", json.dumps(doc)) in (0, 1, 2)


@SETTINGS
@given(text=st.text(max_size=40))
def test_arbitrary_text_is_an_input_error(text):
    try:
        json.loads(text)
    except ValueError:
        for command in ("check", "represent", "verify"):
            assert run_on(command, text) == 2
