"""One analysis per (graph, rows): every report computes the cut-set census,
the closed-form basis and the engine basis once and shares them among its
consumers.  The closed form is validated against that same engine basis."""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property

import pytest

import gbei.graphs
import gbei.ideals
import gbei.poly
import gbei.report
from gbei.report import corpus_report, invariants_report, verify_report

from conftest import C4, FAN, P3, graph_of

# a path on three vertices next to an edge: two components
P3_PLUS_K2 = graph_of(5, (1, 2), (2, 3), (4, 5))


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Counts of the exhaustive census kernel, of the closed-form basis and
    of the Buchberger runs.  Besides the engine basis of the ideal, the
    prime check runs Buchberger inside each `intersect` only: the one prime
    of a complete graph has the ideal's own generators."""
    tally: Counter = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            tally[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(gbei.graphs, "_census_masks")
    count(gbei.ideals, "_closed_form_basis")
    count(gbei.poly, "buchberger")
    count(gbei.report, "intersect")
    return tally


@pytest.mark.parametrize("g", [P3, FAN], ids=["P3", "FAN"])
def test_one_census_per_invariants_report(calls, g):
    invariants_report(g, 3)
    assert calls == Counter({"_census_masks": 1})


# P3 x 2 has 6 variables, so its two primes are intersected; FAN x 2 has
# 10, past the default prime-check limit of 8
@pytest.mark.parametrize("g, intersections", [(P3, 1), (FAN, 0)], ids=["P3", "FAN"])
def test_one_census_and_one_basis_per_verify_report(calls, g, intersections):
    """The closed form and its validation share one engine run with the
    Groebner cross-check."""
    report = verify_report(g, 2)
    assert "oracle" in report["verification"]
    assert calls == Counter({
        "_census_masks": 1,
        "_closed_form_basis": 1,
        "buchberger": 1 + intersections,
        "intersect": intersections,
    })


def test_disconnected_graph_adds_one_census_per_component(calls):
    invariants_report(P3_PLUS_K2, 2)
    assert calls == Counter({"_census_masks": 1 + 2})
    calls.clear()
    verify_report(P3_PLUS_K2, 2)
    assert calls == Counter({"_census_masks": 1 + 2, "_closed_form_basis": 1, "buchberger": 1})


@pytest.mark.parametrize("verify", [False, True])
def test_one_census_per_corpus_row(calls, verify):
    report = corpus_report(4, 2, "gblock", verify)
    graphs = report["summary"]["graphs"]
    assert calls["_census_masks"] == graphs
    assert calls["_closed_form_basis"] == (graphs if verify else 0)
    if verify:
        lone_primes = sum(
            check["detail"] == "intersection of 1 primes"
            for row in report["rows"]
            for check in row["verification"]["checks"]
        )
        assert lone_primes == 1  # K4
        assert calls["buchberger"] == graphs + calls["intersect"] == 81
    else:
        assert calls["buchberger"] == 0


@pytest.fixture
def facet_runs(monkeypatch) -> list[int]:
    """The vertex count of each graph whose maximal cliques are computed."""
    runs = []
    real = gbei.graphs._facet_masks
    monkeypatch.setattr(gbei.graphs, "_facet_masks", lambda adj: runs.append(len(adj)) or real(adj))
    return runs


VIEWS = ("minimal_cut_sets", "cut_point_sets", "component_counts")


@pytest.fixture
def censuses(monkeypatch) -> tuple[list, Counter]:
    """Every census an analysis builds, and how often each of the census's
    set views is decoded."""
    built: list = []
    decodes: Counter = Counter()
    real = gbei.ideals.cut_set_census
    monkeypatch.setattr(gbei.ideals, "cut_set_census", lambda g: built.append(real(g)) or built[-1])
    census_type = gbei.graphs.CutSetCensus
    for name in VIEWS:
        decode = vars(census_type)[name].func
        counted = cached_property(lambda self, decode=decode, name=name: decodes.update([name]) or decode(self))
        counted.__set_name__(census_type, name)
        monkeypatch.setattr(census_type, name, counted)
    return built, decodes


def test_corpus_rows_decode_no_census_view(censuses):
    """A corpus row prints dimension, unmixedness, depth and regularity,
    which read the census masks alone."""
    built, decodes = censuses
    report = corpus_report(5, 2, "gblock", False)
    assert len(built) == report["summary"]["graphs"] == 421
    assert decodes == Counter()
    assert not any(name in vars(census) for census in built for name in VIEWS)


@pytest.mark.parametrize("g", [P3, FAN, C4], ids=["P3", "FAN", "C4"])
def test_invariants_report_decodes_each_census_view_once(censuses, g):
    built, decodes = censuses
    invariants_report(g, 2)
    assert len(built) == 1
    assert decodes == Counter(dict.fromkeys(VIEWS, 1))


@pytest.mark.parametrize("g", [P3, FAN, C4], ids=["P3", "FAN", "C4"])
def test_one_facet_computation_per_invariants_report(facet_runs, g):
    """classify and the census share the maximal cliques of one graph."""
    invariants_report(gbei.graphs.Graph(g.n, g.edges), 2)  # a fresh copy: nothing cached yet
    assert facet_runs == [g.n]


def test_one_facet_computation_per_enumerated_graph(facet_runs):
    """The corpus rows reuse the maximal cliques the gblock enumeration
    built vertex by vertex, so no graph's cliques are computed again."""
    report = corpus_report(4, 2, "gblock", False)
    assert report["summary"]["graphs"] == 35
    assert facet_runs == []


@pytest.mark.parametrize("g", [P3, C4], ids=["P3", "C4"])
def test_one_engine_basis_per_verify_report(g):
    """The Groebner cross-check and the prime check share one Buchberger
    run on the defining generators, however `buchberger` is imported."""
    defining = gbei.ideals.gbei_generators(g, 2).generators
    code = gbei.poly.buchberger.__code__
    runs = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            runs.append(tuple(frame.f_locals["gens"]) == defining)

    sys.setprofile(profile)
    try:
        report = verify_report(g, 2)
    finally:
        sys.setprofile(None)
    checks = {c["name"]: c["status"] for c in report["verification"]["checks"]}
    assert checks["groebner-cross-check"] == checks["prime-intersection"] == "pass"
    assert runs.count(True) == 1


def test_connected_graph_is_its_own_only_part():
    analysis = gbei.ideals.Analysis(FAN, 2)
    assert analysis.parts == (analysis,) and analysis.parts[0] is analysis
    split = gbei.ideals.Analysis(P3_PLUS_K2, 2)
    assert [part.graph for part in split.parts] == [P3, graph_of(2, (1, 2))]
