import json
import time

import pytest
from conftest import fixture_path

from roughkleene.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
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
        assert "not regular" in err

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
        assert "not regular" in err

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
        code, _, err = run_cli(capsys, "enumerate", "--universe-max", "9")
        assert code == 2
        assert "--force" in err

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
