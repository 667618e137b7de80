from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stdout
from io import StringIO
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbei
from gbei.cli import main
from gbei.report import (
    classify_report,
    corpus_report,
    has_failure,
    has_skip,
    invariants_report,
    render_text,
    to_json,
    verdict_of,
    verify_report,
)
from gbei.graphs import Graph, SizeCap, cut_set_census, enumerate_connected_graphs
from gbei.homology import hochster_betti
from gbei.ideals import Analysis, admissible_paths, minor
from gbei.poly import VarGrid

from conftest import C4, FAN, P3, P5

P5_TEXT = "5\n1 2\n2 3\n3 4\n4 5\n"
FAN_TEXT = "5\n1 2\n1 3\n2 3\n1 4\n2 4\n1 5\n2 5\n"
C4_TEXT = "4\n1 2\n2 3\n3 4\n1 4\n"
P11_TEXT = "11\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 11))
P21_TEXT = "21\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 21))
CENSUS_CAP = "census is exhaustive over subsets; n=21 is past the intended scale"


@pytest.fixture
def graph_file(tmp_path):
    def write(name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return write


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = Path(__file__).resolve().parent.parent / "README.md"


def drop_timings(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("timings:")
    ) + "\n"


class TestClassify:
    def test_path_text_output(self, capsys, graph_file):
        code, out, err = run(capsys, "classify", "--graph", graph_file("p5.txt", P5_TEXT))
        assert code == 0 and err == ""
        assert drop_timings(out) == (
            "graph: 5 vertices; edges: 1-2 2-3 3-4 4-5\n"
            "classification: chordal=true blockGraph=true generalizedBlockGraph=true cliqueNumber=2\n"
            "census: cliqueNumber=2; minimal cut set counts: a_1=3\n"
            "  minimal cut sets of size 1: {2} {3} {4}\n"
            "  cut-point sets: {}(c=1) {2}(c=2) {3}(c=2) {4}(c=2) {2,4}(c=3)\n"
        )

    def test_json_round_trips_byte_identically(self, capsys, graph_file):
        code, out, _ = run(capsys, "classify", "--graph", graph_file("p5.txt", P5_TEXT), "--json")
        assert code == 0
        assert to_json(json.loads(out)) == out

    def test_missing_file_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "classify", "--graph", "/nonexistent/g.txt")
        assert code == 2 and out == ""
        assert err.startswith("gbei: error:")

    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"2\n1 2 # caf\xe9\n")
        code, out, err = run(capsys, "classify", "--graph", str(path))
        assert code == 2 and out == "" and "codec can't decode" in err

    @pytest.mark.parametrize(
        "text",
        ["\ufeff" + P5_TEXT, P5_TEXT.replace("5\n", "5  # vertices\n", 1).replace("2 3\n", "2 3 # middle\n")],
        ids=["byte-order-mark", "trailing-comments"],
    )
    def test_a_marked_file_reads_as_the_plain_file(self, capsys, graph_file, text):
        for command in (["classify"], ["invariants", "--rows", "2"]):
            _, plain, _ = run(capsys, *command, "--graph", graph_file("plain.txt", P5_TEXT))
            code, out, err = run(capsys, *command, "--graph", graph_file("marked.txt", text))
            assert code == 0 and err == ""
            assert drop_timings(out) == drop_timings(plain)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3\n1 9\n", "line 2: edge (1,9) outside 1..3"),
            ("100000000000000000000\n", "line 1: vertex count 100000000000000000000 exceeds the maximum of 10000"),
        ],
        ids=["edge-outside-the-count", "count-past-the-maximum"],
    )
    def test_parse_error_is_an_input_error(self, capsys, graph_file, text, message):
        code, out, err = run(capsys, "classify", "--graph", graph_file("bad.txt", text))
        assert code == 2 and out == ""
        assert err == f"gbei: error: {message}\n"

    def test_path_past_the_census_cap_skips_the_census(self, capsys, graph_file):
        path = graph_file("p21.txt", P21_TEXT)
        code, out, err = run(capsys, "classify", "--graph", path)
        assert code == 0 and err == ""
        assert "classification: chordal=true blockGraph=true generalizedBlockGraph=true" in out
        assert f"census: skipped ({CENSUS_CAP})\n" in out
        code, _, _ = run(capsys, "classify", "--graph", path, "--strict")
        assert code == 3


class TestInvariants:
    def test_path_three_rows(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "invariants", "--graph", graph_file("p5.txt", P5_TEXT), "--rows", "3"
        )
        assert code == 0
        assert "dimension: 9; unmixed: false" in out
        assert "depth: 7 (exact; block-graph depth formula: vertices + rows - 1)" in out
        assert "regularity: 4 (exact; exact: every component is a path)" in out

    def test_rows_guard(self, capsys, graph_file):
        code, _, err = run(
            capsys, "invariants", "--graph", graph_file("p5.txt", P5_TEXT), "--rows", "1"
        )
        assert code == 2 and "at least 2 rows" in err

    def test_rows_are_checked_before_the_graph_is_read(self, capsys):
        code, _, err = run(capsys, "verify", "--graph", "/nonexistent/g.txt", "--rows", "0")
        assert code == 2 and err == "gbei: error: need at least 2 rows, got 0\n"

    @pytest.mark.parametrize(
        "command", [["verify", "--graph", "/nonexistent/g.txt"], ["corpus", "--enumerate", "3"]], ids=["verify", "corpus"]
    )
    def test_a_negative_max_vars_is_checked_before_any_work(self, capsys, command):
        code, out, err = run(capsys, *command, "--rows", "2", "--max-vars", "-5", "--strict")
        assert (code, out, err) == (2, "", "gbei: error: need --max-vars >= 0, got -5\n")

    def test_non_gblock_skips_formulas(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "invariants", "--graph", graph_file("c4.txt", C4_TEXT), "--rows", "2"
        )
        assert code == 0
        assert "formulas: skipped (not a generalized block graph: closed forms do not apply)" in out

    def test_strict_trips_on_skipped_formulas(self, capsys, graph_file):
        code, _, _ = run(
            capsys,
            "invariants", "--graph", graph_file("c4.txt", C4_TEXT), "--rows", "2", "--strict",
        )
        assert code == 3

    def test_path_past_the_census_cap_skips_census_and_formulas(self, capsys, graph_file):
        path = graph_file("p21.txt", P21_TEXT)
        code, out, err = run(capsys, "invariants", "--graph", path, "--rows", "2", "--json")
        assert code == 0 and err == ""
        report = json.loads(out)
        skipped = {"status": "skipped", "reason": CENSUS_CAP}
        assert report["census"] == report["formulas"] == skipped
        assert report["classification"]["generalizedBlockGraph"] is True
        code, out, _ = run(capsys, "invariants", "--graph", path, "--rows", "2")
        assert code == 0
        assert f"census: skipped ({CENSUS_CAP})\nformulas: skipped ({CENSUS_CAP})\n" in out
        assert "dimension:" not in out
        code, _, _ = run(capsys, "invariants", "--graph", path, "--rows", "2", "--strict")
        assert code == 3

    def test_a_census_error_that_is_no_size_cap_is_not_a_skip(self, capsys, graph_file, monkeypatch):
        def broken(adj, core, facets):
            raise ValueError("internal: bad mask")

        monkeypatch.setattr("gbei.graphs._census_masks", broken)
        path = graph_file("p5.txt", P5_TEXT)
        with pytest.raises(ValueError, match="internal: bad mask"):
            main(["invariants", "--graph", path, "--rows", "2"])
        assert capsys.readouterr() == ("", "")


class TestVerify:
    def test_glued_triangles(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "verify", "--graph", graph_file("fan.txt", FAN_TEXT), "--rows", "2"
        )
        assert code == 0
        assert "depth-vs-oracle: pass (oracle 5, formula 5)" in out
        assert "regularity-vs-oracle: pass (oracle 2 <= bound 4)" in out
        assert "groebner-cross-check: pass (closed form equals the engine's reduced basis: 13 vs 13 elements)" in out
        assert "squarefree-initial: pass (all engine lead monomials squarefree)" in out
        assert (
            "prime-intersection: skipped (skipped: 10 variables > 8 "
            "(pass --with-primes to force))" in out
        )
        assert "oracle: depth=5 projdim=5 regularity=2" in out

    def test_with_primes_forces_the_check(self, capsys, graph_file):
        code, out, _ = run(
            capsys,
            "verify", "--graph", graph_file("fan.txt", FAN_TEXT), "--rows", "2", "--with-primes",
        )
        assert code == 0
        assert "prime-intersection: pass (intersection of 2 primes)" in out

    def test_a_forced_prime_check_warns_nothing(self, capsys, graph_file):
        # the report's gate is the one limit on the check: past it, a forced
        # run reports without a warning on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(
                capsys,
                "verify", "--graph", graph_file("fan.txt", FAN_TEXT), "--rows", "2", "--with-primes",
            )
        assert code == 0 and "prime-intersection: pass" in out
        assert caught == [] and err == ""

    def test_max_vars_skips_the_oracle(self, capsys, graph_file):
        code, out, _ = run(
            capsys,
            "verify", "--graph", graph_file("p5.txt", P5_TEXT), "--rows", "2", "--max-vars", "4",
        )
        assert code == 0
        assert "depth-vs-oracle: skipped (skipped: 10 variables exceeds --max-vars 4)" in out
        assert "\noracle:" not in out

    def test_strict_exit_on_skip(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "verify", "--graph", graph_file("c4.txt", C4_TEXT), "--rows", "2", "--strict"
        )
        assert code == 3
        assert "depth-vs-oracle: skipped (skipped: formulas undefined off generalized block graphs)" in out
        assert "prime-intersection: pass (intersection of 3 primes)" in out

    def test_path_past_the_admissible_path_cap_skips_the_basis_checks(self, capsys, graph_file):
        path = graph_file("p11.txt", "11\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 11)))
        code, out, err = run(capsys, "verify", "--graph", path, "--rows", "2")
        assert code == 0 and err == ""
        cap = "skipped: path enumeration is exponential; n=11 > 10"
        assert f"groebner-cross-check: skipped ({cap})" in out
        assert f"squarefree-initial: skipped ({cap})" in out
        assert "depth: 12 (exact;" in out
        code, _, _ = run(capsys, "verify", "--graph", path, "--rows", "2", "--strict")
        assert code == 3

    def test_path_past_both_path_and_oracle_caps_names_the_missing_basis(self, capsys, graph_file):
        path = graph_file("p11.txt", P11_TEXT)
        argv = ("verify", "--graph", path, "--rows", "2", "--max-vars", "30")
        code, out, err = run(capsys, *argv, "--json")
        assert code == 0 and err == ""
        checks = {c["name"]: (c["status"], c["detail"]) for c in json.loads(out)["verification"]["checks"]}
        cap = ("skipped", "skipped: path enumeration is exponential; n=11 > 10")
        for name in ("depth-vs-oracle", "regularity-vs-oracle", "groebner-cross-check", "squarefree-initial"):
            assert checks[name] == cap
        code, _, _ = run(capsys, *argv, "--strict")
        assert code == 3

    def test_a_basis_error_that_is_no_size_cap_is_not_a_skip(self, capsys, graph_file, monkeypatch):
        def equal_rows(vertices, values, shifts):
            v0 = values[0]
            return minor((v0, v0), (vertices[0], vertices[-1]))

        monkeypatch.setattr("gbei.ideals._basis_element", equal_rows)
        path = graph_file("p3.txt", "3\n1 2\n2 3\n")
        with pytest.raises(ValueError, match="rows must be increasing"):
            main(["verify", "--graph", path, "--rows", "2"])
        assert capsys.readouterr() == ("", "")

    def test_path_past_the_prime_cap_skips_the_prime_check(self, capsys, graph_file):
        path = graph_file("p13.txt", "13\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 13)))
        code, out, err = run(capsys, "verify", "--graph", path, "--rows", "2", "--with-primes")
        assert code == 0 and err == ""
        cap = "skipped: prime enumeration is exhaustive over subsets; n=13 > 12"
        assert f"prime-intersection: skipped ({cap})" in out
        code, _, _ = run(capsys, "verify", "--graph", path, "--rows", "2", "--with-primes", "--strict")
        assert code == 3

    def test_max_vars_past_the_oracle_cap_skips_the_oracle(self, capsys, graph_file):
        path = graph_file("p9.txt", "9\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 9)))
        code, out, err = run(capsys, "verify", "--graph", path, "--rows", "2", "--max-vars", "20")
        assert code == 0 and err == ""
        cap = "skipped: 18 variables exceeds the oracle cap of 16"
        assert f"depth-vs-oracle: skipped ({cap})" in out
        assert f"regularity-vs-oracle: skipped ({cap})" in out
        assert "groebner-cross-check: pass" in out
        assert "\noracle:" not in out
        code, _, _ = run(capsys, "verify", "--graph", path, "--rows", "2", "--max-vars", "20", "--strict")
        assert code == 3

    def test_failed_basis_self_check_is_a_failure_not_a_crash(self, capsys, graph_file, monkeypatch):
        # an empty closed form cannot equal the engine's reduced basis
        monkeypatch.setattr("gbei.ideals._closed_form_basis", lambda paths, rows, packing: [])
        path = graph_file("p3.txt", "3\n1 2\n2 3\n")
        code, out, err = run(capsys, "verify", "--graph", path, "--rows", "2", "--json")
        assert code == 1 and err == ""
        ver = json.loads(out)["verification"]
        checks = {c["name"]: (c["status"], c["detail"]) for c in ver["checks"]}
        assert checks["groebner-cross-check"][0] == "fail"
        assert "basis (0 elements) is not the engine's (2 elements)" in checks["groebner-cross-check"][1]
        assert checks["squarefree-initial"] == ("fail", "basis construction failed")
        skipped = ("skipped", "skipped: basis construction failed")
        assert checks["depth-vs-oracle"] == checks["regularity-vs-oracle"] == skipped
        assert checks["prime-intersection"][0] == "pass"
        assert "oracle" not in ver

    def test_closed_form_outside_the_ideal_fails_the_cross_check(self, monkeypatch):
        """Flipping every tail sign keeps the closed form reduced, Groebner
        and with the engine's leads, but moves it out of the ideal: only a
        comparison with the engine's reduced basis sees it."""
        real = gbei.ideals._basis_element

        def flipped(vertices, values, shifts):
            lead, tail = real(vertices, values, shifts)
            return lead, tuple((m, -c) for m, c in tail)

        monkeypatch.setattr(gbei.ideals, "_basis_element", flipped)
        checks = {c["name"]: c["status"] for c in verify_report(P3, 2)["verification"]["checks"]}
        assert checks == {
            "depth-vs-oracle": "skipped",
            "regularity-vs-oracle": "skipped",
            "groebner-cross-check": "fail",
            "squarefree-initial": "fail",
            "prime-intersection": "pass",
        }

    def test_a_closed_form_variable_outside_the_generators_fails_the_cross_check(
        self, capsys, graph_file, monkeypatch
    ):
        """Rows shifted up by one reach a row no defining minor uses, so the
        variable has no field in the engine's packing: a failed check, not
        a KeyError."""
        real = gbei.ideals._basis_element

        def shifted(vertices, values, shifts):
            return real(vertices, tuple(v + 1 for v in values), shifts)

        monkeypatch.setattr(gbei.ideals, "_basis_element", shifted)
        path = graph_file("p3.txt", "3\n1 2\n2 3\n")
        code, out, err = run(capsys, "verify", "--graph", path, "--rows", "2", "--json")
        assert code == 1 and err == ""
        checks = {c["name"]: (c["status"], c["detail"]) for c in json.loads(out)["verification"]["checks"]}
        assert checks["groebner-cross-check"] == ("fail", "closed-form variable (3, 2) is in no defining generator")
        assert checks["squarefree-initial"] == ("fail", "basis construction failed")

    @pytest.mark.parametrize(
        "text, size",
        [("3\n", 0), ("1\n", 0), ("4\n1 2\n2 3\n", 2)],
        ids=["edgeless", "K1", "P3+K1"],
    )
    def test_graphs_with_isolated_vertices_pass_the_cross_check(self, capsys, graph_file, text, size):
        """An isolated vertex has no variable in any generator, and no
        closed-form element uses it."""
        code, out, err = run(capsys, "verify", "--graph", graph_file("g.txt", text), "--rows", "2")
        assert code == 0 and err == ""
        assert f"groebner-cross-check: pass (closed form equals the engine's reduced basis: {size} vs {size} elements)" in out
        assert "squarefree-initial: pass (all engine lead monomials squarefree)" in out

    def test_a_non_squarefree_initial_ideal_fails_only_its_own_check(self, monkeypatch):
        monkeypatch.setattr(Analysis, "_squarefree", staticmethod(lambda packing, lead: False))
        ver = verify_report(P3, 2)["verification"]
        checks = {c["name"]: (c["status"], c["detail"]) for c in ver["checks"]}
        assert checks["groebner-cross-check"] == ("pass", "closed form equals the engine's reduced basis: 2 vs 2 elements")
        assert checks["squarefree-initial"][0] == "fail"
        assert "is not squarefree" in checks["squarefree-initial"][1]
        skipped = ("skipped", "skipped: initial ideal not squarefree")
        assert checks["depth-vs-oracle"] == checks["regularity-vs-oracle"] == skipped

    def test_a_report_past_max_vars_decodes_no_monomial(self, capsys, graph_file, monkeypatch):
        """P5 x 3 has 15 variables, past --max-vars and the prime check's
        limit, so neither the oracle nor the prime check runs, and the
        basis checks read the packed basis: no monomial is decoded."""
        decoded = []
        real = gbei.poly._Packing.monomial
        monkeypatch.setattr(gbei.poly._Packing, "monomial", lambda self, key: decoded.append(key) or real(self, key))
        code, out, err = run(capsys, "verify", "--graph", graph_file("p5.txt", P5_TEXT), "--rows", "3", "--json")
        assert code == 0 and err == ""
        checks = {c["name"]: c["status"] for c in json.loads(out)["verification"]["checks"]}
        assert checks["groebner-cross-check"] == checks["squarefree-initial"] == "pass"
        assert checks["depth-vs-oracle"] == checks["prime-intersection"] == "skipped"
        assert decoded == []

    @pytest.mark.parametrize(
        "branch, statuses",
        [
            ("every-check-passes", ["pass", "pass", "pass", "pass", "pass"]),
            ("oracle-skipped", ["skipped", "skipped", "pass", "pass", "skipped"]),
            ("admissible-path-cap", ["skipped", "skipped", "skipped", "skipped", "skipped"]),
            ("failed-cross-check", ["skipped", "skipped", "fail", "fail", "pass"]),
            ("non-squarefree-initial", ["skipped", "skipped", "pass", "fail", "pass"]),
        ],
    )
    def test_the_checks_keep_their_order_in_every_branch(self, monkeypatch, branch, statuses):
        g, kwargs = P3, {}
        if branch == "oracle-skipped":
            g, kwargs = P5, {"max_vars": 4}
        elif branch == "admissible-path-cap":
            g = Graph.from_edges(11, [(v, v + 1) for v in range(1, 11)])
        elif branch == "failed-cross-check":
            monkeypatch.setattr("gbei.ideals._closed_form_basis", lambda paths, rows, packing: [])
        elif branch == "non-squarefree-initial":
            monkeypatch.setattr(Analysis, "_squarefree", staticmethod(lambda packing, lead: False))
        checks = verify_report(g, 2, **kwargs)["verification"]["checks"]
        assert [c["name"] for c in checks] == [
            "depth-vs-oracle",
            "regularity-vs-oracle",
            "groebner-cross-check",
            "squarefree-initial",
            "prime-intersection",
        ]
        assert [c["status"] for c in checks] == statuses

    def test_json_matches_text_numbers(self, capsys, graph_file):
        path = graph_file("fan.txt", FAN_TEXT)
        code, text_out, _ = run(capsys, "verify", "--graph", path, "--rows", "2")
        assert code == 0
        code, json_out, _ = run(capsys, "verify", "--graph", path, "--rows", "2", "--json")
        assert code == 0
        report = json.loads(json_out)
        form = report["formulas"]
        assert f"depth: {form['depth']['value']}" in text_out
        assert f"dimension: {form['dimension']}" in text_out
        oracle = report["verification"]["oracle"]
        assert f"oracle: depth={oracle['depth']}" in text_out
        betti_txt = " ".join(f"b[{k}]={v}" for k, v in oracle["betti"].items())
        assert betti_txt in text_out
        assert to_json(report) == json_out


class TestCorpus:
    def test_three_vertices_verified(self, capsys):
        code, out, _ = run(capsys, "corpus", "--enumerate", "3", "--rows", "2", "--verify")
        assert code == 0
        assert out == (
            "corpus: connected graphs on 3 vertices, rows=2, filter=gblock\n"
            "  #1 [pass] 1-2 1-3 gblock depth=4 reg=2\n"
            "  #2 [pass] 1-2 2-3 gblock depth=4 reg=2\n"
            "  #3 [pass] 1-3 2-3 gblock depth=4 reg=2\n"
            "  #4 [pass] 1-2 1-3 2-3 gblock depth=4 reg<=2\n"
            "summary: 4 graphs, 4 pass, 0 fail, 0 skipped\n"
        )

    def test_filter_all_includes_non_gblock(self, capsys):
        code, out, _ = run(capsys, "corpus", "--enumerate", "4", "--rows", "2", "--filter", "all")
        assert code == 0
        assert "summary: 38 graphs" in out

    def test_enumeration_guard(self, capsys):
        for mode in ([], ["--json"]):
            code, out, err = run(capsys, "corpus", "--enumerate", "8", "--rows", "2", *mode)
            assert code == 2 and out == "" and "n=8 > 7" in err

    @pytest.mark.parametrize("n, rows, message", [(0, 2, "need n >= 1"), (3, 1, "need at least 2 rows, got 1")])
    def test_counts_are_checked_before_any_work(self, capsys, monkeypatch, n, rows, message):
        monkeypatch.setattr("gbei.report.enumerate_connected_graphs", None)  # never reached
        code, out, err = run(capsys, "corpus", "--enumerate", str(n), "--rows", str(rows))
        assert (code, out, err) == (2, "", f"gbei: error: {message}\n")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "corpus", "--enumerate", "3", "--rows", "2", "--json")
        assert code == 0
        assert to_json(json.loads(out)) == out


@pytest.fixture(scope="module")
def built_rows() -> dict:
    return {}


@pytest.fixture
def shared_rows(monkeypatch, built_rows):
    """Each corpus entry is built once in this module however many calls
    read it, so streamed runs and `corpus_report` compare the same entries,
    and a filtered corpus reuses the entries of `--filter all`."""
    build = gbei.report._corpus_row

    def row(g, *args):
        key = (tuple(g.sorted_edges()), *args)
        if key not in built_rows:
            built_rows[key] = build(g, *args)
        return built_rows[key]

    monkeypatch.setattr("gbei.report._corpus_row", row)


def expected_exit(rep: dict, strict: bool) -> int:
    return 1 if has_failure(rep) else 3 if strict and has_skip(rep) else 0


def assert_streams_the_report(capsys, n: int, rows: int, filt: str, flags: list[str]):
    """`corpus` writes `to_json` and `render_text` of `corpus_report`, byte
    for byte, and exits as `has_failure` and `has_skip` on it say."""
    rep = corpus_report(n, rows, filt, "--verify" in flags)
    argv = ["corpus", "--enumerate", str(n), "--rows", str(rows), "--filter", filt, *flags]
    assert run(capsys, *argv, "--json", "--strict") == (expected_exit(rep, True), to_json(rep), "")
    assert run(capsys, *argv) == (expected_exit(rep, False), render_text(rep), "")


class TestCorpusStream:
    @pytest.mark.parametrize("verify", [[], ["--verify"]], ids=["plain", "verify"])
    @pytest.mark.parametrize("filt", ["gblock", "block", "all"])
    @pytest.mark.parametrize("n", range(1, 6))
    def test_output_and_exit_match_the_report(self, capsys, shared_rows, n, filt, verify):
        for rows in (2, 3, 4):
            assert_streams_the_report(capsys, n, rows, filt, verify)

    @pytest.mark.parametrize(
        "field, value",
        [("verdict", "fail"), ("verdict", "skipped"), ("formulas", {"status": "skipped", "reason": "r"})],
        ids=["failed-row", "skipped-verdict", "skipped-formulas"],
    )
    def test_one_changed_row_sets_the_exit_code(self, capsys, shared_rows, monkeypatch, field, value):
        build = gbei.report._corpus_row

        def row(g, *args):
            entry = build(g, *args)
            return {**entry, field: value} if g.sorted_edges() == [(1, 2), (2, 3), (3, 4)] else entry

        monkeypatch.setattr("gbei.report._corpus_row", row)
        rep = corpus_report(4, 2, "gblock", False)
        assert (has_failure(rep), has_skip(rep)) == (value == "fail", value != "fail")
        assert_streams_the_report(capsys, 4, 2, "gblock", [])

    def test_memory_does_not_grow_with_the_row_count(self):
        """The 6,582 rows of the 6-vertex corpus pass through a discarding
        writer with a traced peak under 1 MiB: no row list and no whole
        output string is held."""

        class Discard:
            def write(self, text: str) -> int:
                return len(text)

        with redirect_stdout(Discard()):
            main(["corpus", "--enumerate", "3", "--rows", "2", "--json"])  # warm-up: lazy imports and caches
            tracemalloc.start()
            try:
                code = main(["corpus", "--enumerate", "6", "--rows", "2", "--json"])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0 and peak < 1024 * 1024


class TestConsecutiveCalls:
    """In-process callers (the tests, a benchmark worker) call main many
    times; no call may see another's flags."""

    def test_flags_do_not_leak_into_the_next_call(self, capsys, graph_file):
        fan = graph_file("fan.txt", FAN_TEXT)
        code, out, _ = run(
            capsys, "verify", "--graph", fan, "--rows", "2", "--max-vars", "4", "--with-primes", "--strict"
        )
        assert code == 3
        assert "depth-vs-oracle: skipped (skipped: 10 variables exceeds --max-vars 4)" in out
        assert "prime-intersection: pass (intersection of 2 primes)" in out
        code, out, _ = run(capsys, "verify", "--graph", fan, "--rows", "2")
        assert code == 0
        assert "depth-vs-oracle: pass (oracle 5, formula 5)" in out
        assert "prime-intersection: skipped (skipped: 10 variables > 8 (pass --with-primes to force))" in out
        # flags of one subcommand stay out of another's call
        assert run(capsys, "invariants", "--graph", fan, "--rows", "1")[0] == 2
        assert run(capsys, "classify", "--graph", fan)[0] == 0
        assert run(capsys, "corpus", "--enumerate", "0", "--rows", "2")[0] == 2
        code, out, _ = run(capsys, "classify", "--graph", fan, "--strict")
        assert code == 0 and out.startswith("graph: 5 vertices")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["verify", "--max-vars", "4", "--strict"], "the following arguments are required: --rows"),
            # the subcommand's own flags parse before the unknown one is refused
            (["invariants", "--rows", "1", "--max-vars", "4"], "unrecognized arguments: --max-vars 4"),
        ],
        ids=["missing", "unrecognized"],
    )
    def test_a_call_rejected_by_argparse_leaves_the_next_working(self, capsys, graph_file, argv, message):
        fan = graph_file("fan.txt", FAN_TEXT)
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--graph", fan])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert run(capsys, "classify", "--graph", fan)[0] == 0
        code, out, err = run(capsys, "verify", "--graph", fan, "--rows", "2")
        assert code == 0 and err == ""
        assert "depth-vs-oracle: pass (oracle 5, formula 5)" in out


@st.composite
def any_graphs(draw) -> Graph:
    """A graph on 1..7 vertices with any edge set: any class, possibly
    disconnected."""
    n = draw(st.integers(1, 7))
    pairs = list(combinations(range(1, n + 1), 2))
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


class TestJsonContract:
    """Every well-formed graph file gets a report: exit 0, canonical JSON
    that re-renders byte-identically, and exit 3 under --strict exactly
    when a stage was skipped."""

    @settings(max_examples=200, deadline=None)
    @given(any_graphs(), st.integers(2, 4), st.booleans())
    def test_every_graph_gets_a_canonical_report(self, g, rows, strict):
        text = f"{g.n}\n" + "".join(f"{u} {v}\n" for u, v in g.sorted_edges())
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for command in (["classify"], ["invariants", "--rows", str(rows)], ["verify", "--rows", str(rows)]):
                out = StringIO()
                with redirect_stdout(out):
                    code = main([*command, "--graph", path, "--json", *(["--strict"] if strict else [])])
                report = json.loads(out.getvalue())
                assert to_json(report) == out.getvalue()
                assert code == (3 if strict and has_skip(report) else 0), (g, command)


class TestVerdicts:
    def test_verdict_of(self):
        assert verdict_of([{"status": "pass"}, {"status": "skipped"}]) == "pass"
        assert verdict_of([{"status": "pass"}, {"status": "fail"}]) == "fail"
        assert verdict_of([{"status": "skipped"}]) == "skipped"

    def test_has_failure_drives_exit_one(self):
        report = verify_report(FAN, 2)
        assert not has_failure(report)
        report["verification"]["checks"][0]["status"] = "fail"
        assert has_failure(report)

    def test_corpus_failure_counting(self):
        report = corpus_report(3, 2, "gblock", False)
        assert not has_failure(report)
        report["summary"]["fail"] = 1
        assert has_failure(report)

    def test_has_skip(self):
        assert not has_skip(classify_report(P5))
        assert has_skip(invariants_report(C4, 2))
        assert has_skip(verify_report(FAN, 2))  # prime check skipped at 10 vars
        assert not has_skip(verify_report(FAN, 2, with_primes=True))


class TestRenderParity:
    def test_every_census_number_appears_in_text(self):
        report = classify_report(FAN)
        text = render_text(report)
        for i, count in report["census"]["a"].items():
            assert f"a_{i}={count}" in text

    def test_timings_are_milliseconds_to_the_microsecond(self):
        report = verify_report(Graph.from_edges(2, [(1, 2)]), 2)
        timings = report["timings"]
        assert set(timings) == {"classify", "census", "formulas", "basis", "oracle", "primes"}
        assert all(isinstance(v, float) and v >= 0 and round(v, 3) == v for v in timings.values())
        # each lap here takes well under a millisecond, which whole milliseconds read as 0
        assert all(v > 0 for v in timings.values())
        assert re.search(r"^timings: basis=\d+\.\d{3}ms census=\d+\.\d{3}ms ", render_text(report), re.M)


class TestReadmeExamples:
    """Each `$ gbei ...` example of the README prints every output line it
    shows, other than `...` and `timings:` lines, on the graph files its
    `$ cat` examples show."""

    @pytest.mark.parametrize("command", ["classify", "invariants", "verify", "corpus"])
    def test_shown_lines_are_printed(self, capsys, tmp_path, monkeypatch, command):
        blocks = re.findall(r"^```\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
        shell = {lines[0][2:]: lines[1:] for lines in map(str.splitlines, blocks) if lines[0].startswith("$ ")}
        for line, shown in shell.items():
            if line.startswith("cat "):
                (tmp_path / line[4:]).write_text("\n".join(shown) + "\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        [(line, shown)] = [(line, shown) for line, shown in shell.items() if line.startswith(f"gbei {command} ")]
        code, out, _ = run(capsys, *line.split()[1:])
        printed = out.splitlines()
        missing = [s for s in shown if s != "..." and not s.startswith("timings:") and s not in printed]
        assert code == 0 and missing == []


def test_console_script_smoke(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text(P5_TEXT, encoding="utf-8")
    src = str(Path(gbei.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "gbei.cli", "classify", "--graph", str(p)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("graph: 5 vertices")


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(1, n)])


# each size cap, reached just past it, with the reason a report prints
SIZE_CAPS = {
    "census": (
        lambda: cut_set_census(_path(21)),
        "census is exhaustive over subsets; n=21 is past the intended scale",
    ),
    "admissible-paths": (
        lambda: admissible_paths(_path(11)),
        "path enumeration is exponential; n=11 > 10",
    ),
    "minimal-primes": (
        lambda: Analysis(_path(13), 2).minimal_primes,
        "prime enumeration is exhaustive over subsets; n=13 > 12",
    ),
    "oracle": (
        lambda: hochster_betti([], VarGrid(2, 9)),
        "18 variables exceeds the oracle cap of 16",
    ),
    "enumeration": (
        lambda: next(enumerate_connected_graphs(8)),
        "enumeration is exponential in C(n,2); n=8 > 7",
    ),
}


@pytest.mark.parametrize("reach, reason", SIZE_CAPS.values(), ids=SIZE_CAPS)
def test_every_size_cap_raises_size_cap(reach, reason):
    assert issubclass(SizeCap, ValueError)
    with pytest.raises(SizeCap, match=f"^{re.escape(reason)}$"):
        reach()
