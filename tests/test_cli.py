import json
import re
import sys
import time

import pytest
from conftest import fixture_path

from roughkleene import posets
from roughkleene.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


EMPTY_LABEL_DOT = """digraph lattice {
  rankdir=BT;
  node [shape=circle];
  n0 [label="0"];
  n1 [label="" style=filled fillcolor=black fontcolor=white];
  n2 [label="a" style=filled fillcolor=black fontcolor=white];
  n3 [label="|a"];
  n0 -> n1;
  n0 -> n2;
  n1 -> n3;
  n2 -> n3;
}
"""


class TestCheck:
    def test_an_empty_point_label(self, capsys, tmp_path):
        """Only the empty downset is labelled "0": the principal downset of
        the point labelled "" is labelled "", and its join with a is "|a"."""
        path = tmp_path / "empty_label.json"
        path.write_text(json.dumps({"labels": ["", "a"], "covers": [], "g": {"": "", "a": "a"}}))
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "size": 4, "distributive": True, "deMorgan": True, "M": True, "D": True, "N": True,
            "K": True, "primeChainMax": 1, "twoLevels": True, "regular": True, "witnesses": {},
        }
        assert run_cli(capsys, "render", str(path)) == (0, EMPTY_LABEL_DOT, "")

    def test_fixture_is_regular(self, capsys):
        code, out, _ = run_cli(capsys, "check", fixture_path("jposet_two_level.json"))
        assert code == 0
        report = json.loads(out)
        assert report["regular"] is True
        assert report["K"] is True
        assert report["twoLevels"] is True

    def test_four_chain_not_regular(self, capsys):
        code, out, _ = run_cli(capsys, "check", fixture_path("four_chain.json"))
        assert code == 0
        report = json.loads(out)
        assert report["regular"] is False
        assert report["witnesses"]["M"] == ["a", "b"]
        assert report["primeChainMax"] == 3

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        code, _, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "input error" in err

    def test_invalid_neg_is_a_failure(self, capsys, tmp_path):
        doc = {"labels": ["0", "1"], "covers": [[0, 1]], "neg": [0, 1]}
        path = tmp_path / "notinv.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 1

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "check", fixture_path("jposet_two_level.json"))
        _, out2, _ = run_cli(capsys, "check", fixture_path("jposet_two_level.json"))
        assert out1 == out2

    def test_oversized_jposet_is_a_bound_violation(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", _antichain_jposet(tmp_path, 21))
        assert code == 2
        assert "more than 2187 elements exceed the table cap 2187" in err

    def test_long_chain_jposet_is_admitted(self, capsys, tmp_path):
        # 101 downsets: the cap counts downsets, not points
        code, out, _ = run_cli(capsys, "check", _chain_jposet(tmp_path, 100))
        assert code == 0
        assert json.loads(out)["regular"] is False

    @pytest.mark.parametrize("form", ["leq", "covers"])
    def test_oversized_order_document_is_refused_before_it_is_read(self, capsys, tmp_path,
                                                                   monkeypatch, form):
        def never(*args):
            raise AssertionError("an oversized order was read")

        monkeypatch.setattr("roughkleene.posets.validate_order", never)
        monkeypatch.setattr("roughkleene.posets.Poset.from_covers", never)
        n = 2188
        labels = [f"p{i}" for i in range(n)]
        if form == "leq":
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = 1
            doc = {"labels": labels, "leq": rows}
        else:
            doc = {"labels": labels, "covers": []}
        path = tmp_path / f"{form}{n}.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "check", str(path))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert err == "2188 elements exceed the table cap 2187\n"


def _antichain_jposet(tmp_path, n):
    labels = [f"p{i}" for i in range(n)]
    path = tmp_path / f"antichain{n}.json"
    path.write_text(json.dumps({"labels": labels, "covers": [], "g": {x: x for x in labels}}))
    return str(path)


def _chain_jposet(tmp_path, n):
    """An n-point chain with the order-reversing involution i <-> n-1-i."""
    labels = [f"p{i}" for i in range(n)]
    covers = [[i, i + 1] for i in range(n - 1)]
    path = tmp_path / f"chain{n}.json"
    path.write_text(json.dumps({
        "labels": labels, "covers": covers,
        "g": {labels[i]: labels[n - 1 - i] for i in range(n)},
    }))
    return str(path)


def _complete_two_level_jposet(tmp_path, n):
    """n atoms below all of n upper points, gmap pairing them: every pair of
    atoms is similar, so the universe has n + n + n(n-1)/2 points."""
    labels = [f"a{i}" for i in range(n)] + [f"b{i}" for i in range(n)]
    covers = [[i, n + j] for i in range(n) for j in range(n)]
    g = {f"a{i}": f"b{i}" for i in range(n)}
    g.update({b: a for a, b in g.items()})
    path = tmp_path / f"complete{n}.json"
    path.write_text(json.dumps({"labels": labels, "covers": covers, "g": g}))
    return str(path)


class TestRepresent:
    def test_fixture_bundle(self, capsys, tmp_path):
        dot_dir = tmp_path / "dots"
        code, out, _ = run_cli(
            capsys,
            "represent",
            fixture_path("jposet_two_level.json"),
            "--dot",
            str(dot_dir),
        )
        assert code == 0
        bundle = json.loads(out)
        assert bundle["report"]["universeSize"] == 8
        assert bundle["report"]["blockCount"] == 3
        assert bundle["report"]["verified"] is True
        assert (dot_dir / "source.dot").exists()
        assert (dot_dir / "roughsets.dot").exists()

    def test_four_chain_rejected(self, capsys):
        code, _, err = run_cli(capsys, "represent", fixture_path("four_chain.json"))
        assert code == 1
        assert err == "input is not regular, two-level witness (2, 3)\n"

    def test_atom_fixing_involution_is_not_kleene(self, capsys, tmp_path):
        """The involution of the 2x2 Boolean lattice that fixes both atoms:
        a ^ neg(a) = a is not below b v neg(b) = b."""
        doc = {"labels": ["0", "a", "b", "1"], "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
               "neg": [3, 1, 2, 0]}
        path = tmp_path / "fixed_atoms.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "represent", str(path))
        assert (code, out) == (1, "")
        assert err == "input is not a Kleene structure, witness (1, 2)\n"

    @pytest.mark.parametrize("labels, clash", [
        (["x", "y", "x,y"], "({x,y},{x,y})"),
        (["", "a"], "({},{})"),
        (["a,b"], None),
    ])
    def test_point_labels_that_clash_in_the_universe(self, capsys, tmp_path, labels, clash):
        """The universe reuses the source labels, so two rough pairs can
        format alike: represent refuses that with exit 2 and one input
        error line naming the label, while check and render accept the
        document.  A label that clashes with nothing still represents."""
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({"labels": labels, "covers": [], "g": {x: x for x in labels}}))
        code, out, err = run_cli(capsys, "represent", str(path))
        if clash is None:
            assert (code, err) == (0, "") and json.loads(out)["report"]["verified"]
        else:
            assert (code, out) == (2, "")
            assert err == ("input error: the point labels of the universe give two rough "
                           f"pairs the label {clash!r}\n")
        for command in ("check", "render"):
            assert run_cli(capsys, command, str(path))[0] == 0

    def test_lattice_without_negation_is_input_error(self, capsys, tmp_path):
        doc = {"labels": ["0", "1"], "covers": [[0, 1]]}
        path = tmp_path / "noneg.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "represent", str(path))
        assert code == 2

    def test_oversized_jposet_is_a_bound_violation(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "represent", _antichain_jposet(tmp_path, 21))
        assert code == 2
        assert "more than 2187 elements exceed the table cap 2187" in err

    def test_twenty_point_antichain_hits_the_table_cap(self, capsys, tmp_path):
        # 2^20 downsets: the walk stops as soon as it passes the cap
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "represent", _antichain_jposet(tmp_path, 20))
        assert time.perf_counter() - start < 1
        assert code == 2
        assert "more than 2187 elements exceed the table cap 2187" in err

    def test_long_chain_jposet_is_not_regular(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "represent", _chain_jposet(tmp_path, 100))
        assert code == 1
        assert err == "input is not regular, two-level witness (2, 3)\n"

    def test_twenty_point_universe_takes_the_downset_route(self, capsys, tmp_path):
        path = _complete_two_level_jposet(tmp_path, 5)
        code, out, _ = run_cli(capsys, "represent", path)
        assert code == 0
        assert json.loads(out)["report"]["universeSize"] == 20


MALFORMED_DOCUMENTS = {
    "ragged-leq": json.dumps({"labels": ["a", "b"], "leq": [[1], [0, 1]]}).encode(),
    "non-list-leq-row": json.dumps({"labels": ["a", "b"], "leq": [1, [0, 1]]}).encode(),
    "non-string-g-value": json.dumps({"labels": ["a"], "covers": [], "g": {"a": ["b"]}}).encode(),
    "not-utf8": b'\xff\xfe{"labels": []}',
}


class TestMalformedDocuments:
    """Malformed documents are input errors (exit 2), never a traceback."""

    @pytest.mark.parametrize("command", ["check", "represent"])
    @pytest.mark.parametrize("name", sorted(MALFORMED_DOCUMENTS))
    def test_algebra_commands(self, capsys, tmp_path, command, name):
        path = tmp_path / f"{name}.json"
        path.write_bytes(MALFORMED_DOCUMENTS[name])
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_non_utf8_file(self, capsys, tmp_path, command):
        path = tmp_path / "not-utf8.json"
        path.write_bytes(MALFORMED_DOCUMENTS["not-utf8"])
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert "input error" in err


class TestStructureInvalid:
    """An algebra document that parses but is no lattice, or whose neg is
    no antitone involution, exits 1 with the structure's own error on
    every algebra command."""

    @pytest.mark.parametrize("command", ["check", "represent", "render"])
    @pytest.mark.parametrize("doc, message", [
        ({"labels": ["a", "b"], "covers": []}, "no unique meet for elements (0, 1)"),
        ({"labels": ["0", "m", "1"], "covers": [[0, 1], [1, 2]], "neg": [0, 1, 2]},
         "0 <= 1 but neg(1) <= neg(0) fails"),
    ])
    def test_exit_one_with_the_witness(self, capsys, tmp_path, command, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert run_cli(capsys, command, str(path)) == (1, "", f"structure invalid: {message}\n")


class TestVerify:
    def test_redundant_covering_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture_path("redundant_covering.json"))
        assert code == 0
        report = json.loads(out)
        assert report["irredundant"] is False
        assert report["removableBlock"] is not None
        # the induced tolerance's own block covering still gets checked
        assert report["inducedByIrredundantCovering"] is True
        assert report["checks"]["kleeneRegularBattery"] is True

    def test_partition_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", fixture_path("partition_2_3.json"))
        assert code == 0
        report = json.loads(out)
        assert report["irredundant"] is True
        assert report["failures"] == []

    def test_non_lattice_tolerance_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", fixture_path("non_lattice_tolerance.json")
        )
        assert code == 0
        report = json.loads(out)
        assert report["rsIsLattice"] is False
        assert report["nonLatticeWitness"] is not None

    def test_isolated_blocks_failure_names_its_type(self, capsys, monkeypatch):
        from roughkleene import reports
        from roughkleene.rough import FormulaMismatch

        def disagree(rs):
            raise FormulaMismatch("isolated-block conditions disagree", {"block": 1})

        monkeypatch.setattr(reports, "isolated_blocks", disagree)
        code, out, _ = run_cli(capsys, "verify", fixture_path("partition_2_3.json"))
        assert code == 1
        report = json.loads(out)
        assert report["checks"]["isolatedBlocks"] is False
        assert "isolatedBlocks" not in report
        assert report["failures"] == [{
            "check": "isolatedBlocks",
            "error": "FormulaMismatch: isolated-block conditions disagree: {'block': 1}",
        }]

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_oversized_universe_names_no_option(self, capsys, tmp_path, command):
        doc = {"labels": [str(i) for i in range(40)], "blocks": [[i, i + 1] for i in range(39)]}
        path = tmp_path / "path40.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, command, str(path))
        assert code == 2
        assert "universe of 40 exceeds the enumeration cap 16" in err
        assert "force=True" not in err

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_table_cap_names_no_option(self, capsys, tmp_path, command):
        # eight pairs on 16 points: within the universe cap, but 3^8 rough
        # pairs, and the downset walk stops as soon as it passes the cap
        doc = {"labels": [str(i) for i in range(16)], "blocks": [[i, i + 1] for i in range(0, 16, 2)]}
        path = tmp_path / "partition8.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err.strip() == "more than 2187 elements exceed the table cap 2187"

    def test_covering_past_the_universe_cap(self, capsys, tmp_path):
        # the 8-block path covering {0,1,2},{2,3,4},...,{14,15,16}: render
        # takes the downset route, verify still sweeps the powerset
        doc = {"labels": [str(i) for i in range(17)], "blocks": [[i, i + 1, i + 2] for i in range(0, 15, 2)]}
        path = tmp_path / "path8.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "render", str(path))
        assert code == 0 and out.startswith("digraph")
        code, out, err = run_cli(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err.strip() == "universe of 17 exceeds the enumeration cap 16"


TOP_RUNGS = [
    ("verify-partition-7", "5dd5a2eaa0bbf1ea"),
    ("represent-jposet-7", "a192c82103010b3a"),
]


def top_rung_digest(rung):
    """The digest of the report of the covering by seven 2-point blocks, or
    of the bundle of the jposet of seven pairs a_i < b_i with g swapping
    each pair: both algebras have P = 2187 = 3^7, the table cap."""
    import hashlib

    from roughkleene import jsonio
    from roughkleene.demorgan import build_kleene_from_jposet
    from roughkleene.reports import represent_bundle, verify_report
    from roughkleene.represent import represent
    from roughkleene.rough import Covering

    if rung == "verify-partition-7":
        doc = verify_report(Covering([f"p{i}" for i in range(14)], [3 << 2 * i for i in range(7)]))
        assert doc["rsSize"] == 2187 and doc["failures"] == []
    else:
        labels = [f"a{i}" for i in range(7)] + [f"b{i}" for i in range(7)]
        jposet = posets.Poset.from_covers(labels, [(i, 7 + i) for i in range(7)])
        dm = build_kleene_from_jposet(jposet, {i: (i + 7) % 14 for i in range(14)})
        doc = represent_bundle(represent(dm))
        assert doc["report"]["rsSize"] == 2187 and doc["report"]["verified"]
    return hashlib.sha256(jsonio.dumps(doc).encode()).hexdigest()[:16]


def wrap_everywhere(monkeypatch, original, wrap):
    """Replace original by wrap(original) in every module of the package
    that holds it, since modules copy names at import."""
    wrapped = wrap(original)
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "roughkleene":
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, wrapped)


def counting(calls):
    """A wrap for wrap_everywhere that counts the calls in calls, by name."""
    def wrap(original):
        def counted(*args):
            calls[original.__name__] += 1
            return original(*args)
        return counted
    return wrap


class TestRoutes:
    def test_covering_routes_never_sweep_the_powerset(self, capsys, tmp_path, monkeypatch):
        from roughkleene import jsonio, rough

        def refuse(tol):
            raise AssertionError("the powerset sweep ran")

        monkeypatch.setattr(rough, "_approximation_table", refuse)
        out = tmp_path / "bundle.json"
        code, _, _ = run_cli(capsys, "represent", fixture_path("jposet_two_level.json"), "--out", str(out))
        assert code == 0
        assert out.read_bytes() == open(fixture_path("jposet_two_level_bundle.json"), "rb").read()
        cov = jsonio.parse_covering(jsonio.load_document(fixture_path("partition_2_3.json")))
        rs = rough.build_rs(rough.tolerance_from_covering(cov))
        assert rs.n == 6 and rs.covering is not None

    @pytest.mark.parametrize("rung, digest", TOP_RUNGS)
    def test_top_rung_takes_no_pair_stream(self, monkeypatch, rung, digest):
        """P = 2187 = 3^7, the table cap: the report of the covering by seven
        2-point blocks and the bundle of the jposet of seven pairs a_i < b_i
        with g swapping each pair keep their bytes, and neither reaches the
        keyed builder, whose P²/2 key streams the downset route replaces."""
        def refuse(*args):
            raise AssertionError("the keyed builder ran")

        monkeypatch.setattr(posets, "_keyed_lattice", refuse)
        assert top_rung_digest(rung) == digest

    @pytest.mark.parametrize("rung, digest, builds", [
        (*TOP_RUNGS[0], 0), (*TOP_RUNGS[1], 0),
    ])
    def test_top_rung_builds_no_order_rows(self, monkeypatch, rung, digest, builds):
        """Both top rungs keep their bytes while their D(J) lattices decide
        every order fact on codes and covers: neither represent nor verify
        builds the P-bit rows below and above of any lattice, since
        rs_join_irreducibles decides on the pairs and folds only after a
        failed decision."""
        real = posets._CodedPoset._build_rows
        built = []

        def counted(self):
            built.append(self.n)
            return real(self)

        monkeypatch.setattr(posets._CodedPoset, "_build_rows", counted)
        assert top_rung_digest(rung) == digest
        assert built == [2187] * builds

    def test_top_rung_diagrams_build_no_order_rows(self, capsys, tmp_path, monkeypatch):
        """render of the covering by seven 2-point blocks, and represent
        --dot of the jposet of seven pairs a_i < b_i with g swapping each
        pair, keep their bytes while every Hasse diagram reads the covering
        pairs of its D(J) lattice: no P-bit row of any lattice is built."""
        import hashlib

        built = []
        real = posets._CodedPoset._build_rows

        def counted(self):
            built.append(self.n)
            return real(self)

        def digest(data):
            return hashlib.sha256(data).hexdigest()[:16]

        monkeypatch.setattr(posets._CodedPoset, "_build_rows", counted)
        labels = [f"a{i}" for i in range(7)] + [f"b{i}" for i in range(7)]
        partition = tmp_path / "partition.json"
        partition.write_text(json.dumps({"labels": [f"p{i}" for i in range(14)],
                                         "blocks": [[2 * i, 2 * i + 1] for i in range(7)]}))
        jposet = tmp_path / "jposet.json"
        jposet.write_text(json.dumps({"labels": labels, "covers": [[i, 7 + i] for i in range(7)],
                                      "g": {labels[i]: labels[(i + 7) % 14] for i in range(14)}}))
        code, out, _ = run_cli(capsys, "render", str(partition))
        assert (code, digest(out.encode())) == (0, "83cff16789f31e86")
        dots = tmp_path / "dot"
        code, out, _ = run_cli(capsys, "represent", str(jposet), "--dot", str(dots))
        assert (code, digest(out.encode())) == (0, TOP_RUNGS[1][1])
        assert digest((dots / "source.dot").read_bytes()) == "245a084b0af6cef0"
        assert digest((dots / "roughsets.dot").read_bytes()) == "a95b401329eaf763"
        assert built == []

    @pytest.mark.parametrize("rung, digest", TOP_RUNGS)
    def test_top_rung_runs_no_element_battery(self, monkeypatch, rung, digest):
        """Both top rungs keep their bytes with the element battery and the
        star/plus folds refused wherever a module of the package holds
        them: Kleene is is_kleene, regularity the two levels of J, and star
        and plus of a distributive lattice are read from J."""
        from roughkleene import pseudo

        def refuse(original):
            def refused(*args):
                raise AssertionError(f"{original.__name__} ran")
            return refused

        for name in ("prime_filters", "check_M_D_N", "is_regular", "demorgan_pseudo_report",
                     "_fold_pseudocomplements"):
            wrap_everywhere(monkeypatch, getattr(pseudo, name), refuse)
        assert top_rung_digest(rung) == digest

    def test_powerset_sweep_is_the_dual_route_oracle(self, capsys, monkeypatch):
        from roughkleene import rough

        real = rough._powerset_pairs
        monkeypatch.setattr(rough, "_powerset_pairs", lambda tol: real(tol)[1:])
        code, out, _ = run_cli(capsys, "verify", fixture_path("partition_2_3.json"))
        assert code == 1
        report = json.loads(out)
        assert [f["check"] for f in report["failures"]] == ["dualRouteEqual"]
        assert report["checks"]["dualRouteEqual"] is False


class TestEnumerate:
    def test_small_sweep_passes(self, capsys, tmp_path):
        wdir = tmp_path / "witness"
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--universe-max", "3",
            "--lattice-max", "5",
            "--witness-dir", str(wdir),
        )
        assert code == 0
        report = json.loads(out)
        assert report["instancesTested"] > 0
        assert all(p["failures"] == 0 for p in report["properties"])

    def test_bounds_need_force(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--lattice-max", "9")
        assert code == 2
        assert "--force" in err

    def test_any_universe_bound_gives_the_five_point_report(self, capsys):
        """Both point sweeps stop at five points, so --universe-max needs no
        --force: 9 gives the bytes of 5, but for the measured runtime."""
        def report(bound):
            code, out, err = run_cli(capsys, "enumerate", "--universe-max", bound, "--lattice-max", "1")
            return code, re.sub(r'"runtimeSeconds": [0-9.]+', "", out), err

        five, nine = report("5"), report("9")
        assert five[0] == 0
        assert nine == five

    def test_canonical_dedup_shrinks_instance_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--universe-max", "3", "--lattice-max", "1")
        full = json.loads(out)["instancesTested"]
        code, out, _ = run_cli(
            capsys, "enumerate", "--universe-max", "3", "--lattice-max", "1", "--canonical"
        )
        deduped = json.loads(out)["instancesTested"]
        assert code == 0
        assert deduped < full


class TestWitnessFiles:
    def test_failing_property_witness_replays(self, capsys, tmp_path):
        # synthesize a failing property around a real tolerance instance and
        # confirm the emitted file is directly consumable by verify
        from roughkleene.cli import write_witness_files
        from roughkleene.sweeps import EnumerationReport

        report = EnumerationReport()
        doc = {"labels": ["1", "2", "3"], "pairs": [[0, 1]]}
        report.outcome("someProperty").record(
            0, False, {"instance": doc, "error": "synthetic"}
        )
        write_witness_files(report, str(tmp_path))
        wfile = tmp_path / "property-someProperty.json"
        assert wfile.exists()
        code, out, _ = run_cli(capsys, "verify", str(wfile))
        assert code == 0
        assert json.loads(out)["universeSize"] == 3


class TestRender:
    def test_two_chain(self, capsys, tmp_path):
        doc = {"labels": ["0", "1"], "covers": [[0, 1]]}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "render", str(path))
        assert code == 0
        assert out.count("[label=") == 2
        assert out.count("->") == 1
        assert "\r" not in out

    def test_fixture_has_six_filled_nodes(self, capsys):
        code, out, _ = run_cli(capsys, "render", fixture_path("jposet_two_level.json"))
        assert code == 0
        assert out.count("style=filled") == 6

    def test_tolerance_renders_rough_order(self, capsys):
        code, out, _ = run_cli(capsys, "render", fixture_path("partition_2_3.json"))
        assert code == 0
        assert out.count("[label=") == 6  # the 2x3 rough lattice

    def test_render_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "render", fixture_path("jposet_two_level.json"))
        _, out2, _ = run_cli(capsys, "render", fixture_path("jposet_two_level.json"))
        assert out1 == out2


@pytest.mark.parametrize("command, fixture, ji_folds, distributive_folds", [
    ("represent", "jposet_two_level.json", 0, 0),
    ("verify", "partition_2_3.json", 0, 0),
    ("check", "four_chain.json", 1, 1),
])
def test_join_irreducibles_and_distributivity_fold_at_most_once_never_on_D_of_J(
        capsys, monkeypatch, command, fixture, ji_folds, distributive_folds):
    """join_irreducibles and is_distributive run at most once per lattice,
    counted wherever a module of the package holds them, and never while a
    downset lattice D(J) is built: it reads both from J.  represent builds
    two D(J) lattices and folds neither; verify folds neither, since its
    joinIrreducibleFormulas check decides on the pairs; check builds one
    keyed lattice."""
    calls = dict.fromkeys(("join_irreducibles", "is_distributive"), 0)
    for name in calls:
        wrap_everywhere(monkeypatch, getattr(posets, name), counting(calls))
    code, _, _ = run_cli(capsys, command, fixture_path(fixture))
    assert code == 0
    assert calls == {"join_irreducibles": ji_folds, "is_distributive": distributive_folds}


def test_check_runs_the_element_battery_once(capsys, monkeypatch):
    """check keeps the three-way regularity comparison: is_regular and
    is_kleene run once each on four_chain, and the verdicts stand."""
    from roughkleene import demorgan, pseudo

    calls = {"is_regular": 0, "is_kleene": 0}
    wrap_everywhere(monkeypatch, pseudo.is_regular, counting(calls))
    wrap_everywhere(monkeypatch, demorgan.is_kleene, counting(calls))
    code, out, _ = run_cli(capsys, "check", fixture_path("four_chain.json"))
    assert code == 0
    assert calls == {"is_regular": 1, "is_kleene": 1}
    report = json.loads(out)
    assert (report["regular"], report["primeChainMax"]) == (False, 3)


@pytest.mark.parametrize("command, fixture, blocks", [
    ("represent", "jposet_two_level.json", 1),
    ("verify", "partition_2_3.json", 1),
])
def test_induced_covering_is_not_rechecked_for_irredundance(
        capsys, monkeypatch, command, fixture, blocks):
    """induced_irredundant_covering proves its family irredundant from
    covering and inducing, so it runs is_irredundant never.  Each
    tolerance finds its blocks once (Tolerance.blocks): represent's are
    read by is_irredundant on the spans and by induced_irredundant_covering
    on their tolerance; verify's by is_irredundant on the given covering,
    the report's block list and induced_irredundant_covering.  Each
    covering builds its tolerance once (Covering.tolerance): the spans or
    the given covering, and the induced covering."""
    from roughkleene import rough

    calls = {"blocks_of": 0, "is_irredundant": 0, "tolerance_from_covering": 0}
    for name in calls:
        wrap_everywhere(monkeypatch, getattr(rough, name), counting(calls))
    code, _, _ = run_cli(capsys, command, fixture_path(fixture))
    assert code == 0
    assert calls == {"blocks_of": blocks, "is_irredundant": 1, "tolerance_from_covering": 2}


def test_small_lattice_corpus_keeps_its_bytes(capsys, tmp_path):
    """check, represent, render and render --neg-labels on every lattice of
    all_lattices(7) as a covers document, and on that document with "neg"
    for each antitone involution of its distributive ones: 368 calls whose
    exit codes, stdout and stderr keep one digest while from_poset returns
    each distributive lattice as D(J)."""
    import hashlib

    from roughkleene.demorgan import antitone_involutions
    from roughkleene.generators import all_lattices

    docs = []
    for lat in all_lattices(7):
        doc = {"labels": list(lat.labels), "covers": sorted(zip(*lat.covers))}
        docs.append(doc)
        if lat.distributive:
            docs += [dict(doc, neg=list(neg)) for neg in antitone_involutions(lat)]
    digest, codes = hashlib.sha256(), {}
    for k, doc in enumerate(docs):
        path = tmp_path / f"doc{k}.json"
        path.write_text(json.dumps(doc))
        for args in (["check"], ["represent"], ["render"], ["render", "--neg-labels"]):
            code, out, err = run_cli(capsys, *args, str(path))
            codes[code] = codes.get(code, 0) + 1
            digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert codes == {0: 283, 1: 7, 2: 78}
    assert digest.hexdigest()[:16] == "392c893eabb85220"
