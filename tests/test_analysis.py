"""One analysis per (graph, rows): every report computes the cut-set census,
the closed-form basis and the engine basis once and shares them among its
consumers.  The closed form is validated against that same engine basis.
A disconnected graph is analysed as one graph, and its formulas are checked
against the per-component route they replaced and against the oracle."""

from __future__ import annotations

import sys
from collections import Counter
from functools import cached_property
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gbei.graphs
import gbei.ideals
import gbei.poly
import gbei.report
from gbei.graphs import (
    CutSetCensus,
    Graph,
    classify,
    cut_set_census,
    is_connected,
)
from gbei.homology import hochster_betti
from gbei.ideals import Analysis, FormulaResult
from gbei.poly import VarGrid
from gbei.report import corpus_report, invariants_report, render_text, verify_report

from conftest import C4, FAN, P3, clique_complex, connected_components, graph_of, induced_subgraph

# a path on three vertices next to an edge: two components
P3_PLUS_K2 = graph_of(5, (1, 2), (2, 3), (4, 5))
# a triangle next to an isolated vertex
K3_PLUS_K1 = graph_of(4, (1, 2), (1, 3), (2, 3))


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


def test_disconnected_graph_shares_one_census(calls):
    """The components' cut sets are read from the whole graph's census."""
    invariants_report(P3_PLUS_K2, 2)
    assert calls == Counter({"_census_masks": 1})
    calls.clear()
    verify_report(P3_PLUS_K2, 2)
    assert calls == Counter({"_census_masks": 1, "_closed_form_basis": 1, "buchberger": 1})


@pytest.mark.parametrize("g", [FAN, P3_PLUS_K2, K3_PLUS_K1], ids=["FAN", "P3+K2", "K3+K1"])
def test_one_component_pass_per_depth_and_regularity(g):
    """Once the census is built, the depth reads its component count and
    the regularity walks the components once, however the kernels are
    imported.  The graph is a fresh copy, since a graph keeps its
    components once they are found."""
    analysis = Analysis(Graph(g.n, g.edges), 2)
    analysis.census
    names = {getattr(gbei.graphs, name).__code__: name for name in ("_component_masks", "_census_masks")}
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            seen[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        analysis.depth, analysis.regularity
    finally:
        sys.setprofile(None)
    assert seen == Counter({"_component_masks": 1})


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


FRESH = {
    Graph: lambda: graph_of(3, (1, 2), (2, 3)),
    CutSetCensus: lambda: cut_set_census(graph_of(3, (1, 2), (2, 3))),
    Analysis: lambda: Analysis(graph_of(3, (1, 2), (2, 3)), 2),
}


@pytest.mark.parametrize("cls", list(FRESH), ids=lambda cls: cls.__name__)
def test_each_cached_field_runs_once_per_instance(monkeypatch, cls):
    """The frozen dataclasses keep their derived fields in the instance's
    __dict__, computed on first read; the class holds the descriptor, whose
    .func is the function it caches."""
    assert cls.__dataclass_params__.frozen
    assert not any(isinstance(attr, cached_property) for attr in vars(cls).values())
    fields = {name: attr for name, attr in vars(cls).items() if isinstance(attr, gbei.graphs._cached_field)}
    assert len(fields) >= 2
    runs: Counter = Counter()
    for name, field in fields.items():
        assert getattr(cls, name) is field and field.func.__name__ == name
        monkeypatch.setattr(field, "func", lambda self, real=field.func, name=name: runs.update([name]) or real(self))
    for obj in (FRESH[cls](), FRESH[cls]()):
        first = {name: getattr(obj, name) for name in fields}
        assert all(getattr(obj, name) is value for name, value in first.items())
        assert all(vars(obj)[name] is value for name, value in first.items())
    assert runs == Counter(dict.fromkeys(fields, 2))


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


# ---------------------------------------------------------------------------
# the per-component route the whole-graph analysis replaced

def reference_is_path(g: Graph) -> bool:
    """A connected graph with maximum degree 2 and exactly two leaves, or
    one vertex."""
    if not is_connected(g):
        return False
    degs = [sum(v in e for e in g.edges) for v in range(1, g.n + 1)]
    return g.n == 1 or (max(degs) <= 2 and degs.count(1) == 2)


def reference_formulas(g: Graph, rows: int) -> tuple[bool, FormulaResult | None, FormulaResult | None]:
    """(generalized block, depth, regularity) from one analysis per
    connected component, relabeled 1..k: each part's census gives its depth
    over the cut-set cardinalities 2 <= i < its clique number, the parts'
    values add, and the provenance is worded as the per-part route worded
    it.  Depth and regularity are None off generalized block graphs."""
    parts = [Analysis(induced_subgraph(g, comp)[0], rows) for comp in connected_components(g)]
    if not all(part.classification.generalized_block_graph for part in parts):
        return False, None, None
    total = 0
    corrected = False
    for part in parts:
        census = part.census
        corr = sum((i - 1) * census.a(i) for i in range(2, census.clique_number))
        corrected = corrected or corr > 0
        total += part.graph.n + (rows - 1) - corr
    if corrected:
        origin = "generalized-block depth formula with cut-set correction"
    else:
        origin = "block-graph depth formula: vertices + rows - 1"
    if len(parts) > 1:
        origin += f", added over {len(parts)} components"
    depth = FormulaResult("exact", total, origin)

    value = sum(part.graph.n - 1 for part in parts)
    paths = [reference_is_path(part.graph) for part in parts]
    if rows >= g.n:
        regularity = FormulaResult("exact", value, "exact: row count at least vertex count")
    elif all(paths):
        regularity = FormulaResult("exact", value, "exact: every component is a path")
    elif all(path or rows >= part.graph.n for path, part in zip(paths, parts)):
        origin = "exact: every component is a path or has at most as many vertices as rows"
        regularity = FormulaResult("exact", value, origin)
    else:
        origin = "upper bound: fewer rows than vertices and a non-path component"
        regularity = FormulaResult("upper-bound", value, origin)
    return True, depth, regularity


def assert_matches_reference(g: Graph, rows: int):
    analysis = Analysis(g, rows)
    gblock, depth, regularity = reference_formulas(g, rows)
    assert analysis.classification.generalized_block_graph == gblock, g
    if gblock:
        assert (analysis.depth, analysis.regularity) == (depth, regularity), (g, rows)
    else:
        for name in ("depth", "regularity"):
            with pytest.raises(ValueError):
                getattr(analysis, name)


def test_formulas_match_the_per_component_route_on_every_small_graph():
    """Every labeled graph on at most 5 vertices, connected or not, at rows
    2 to n + 1."""
    cases = 0
    for n in range(1, 6):
        pairs = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            for rows in range(2, n + 2):
                assert_matches_reference(g, rows)
                cases += 1
    assert cases == 1 * 1 + 2 * 2 + 8 * 3 + 64 * 4 + 1024 * 5


@st.composite
def connected_gblock_graphs(draw, max_n: int) -> Graph:
    """A connected generalized block graph on 1..max_n vertices, randomly
    labeled.  Each new vertex joins part of one facet, or the whole facet
    when the part would leave the class; joining a whole facet F only
    grows F, so no facet intersection changes."""
    n = draw(st.integers(1, max_n))
    edges: list[tuple[int, int]] = []
    for k in range(2, n + 1):
        facets = sorted(sorted(f) for f in clique_complex(Graph.from_edges(k - 1, edges)).facets)
        facet = draw(st.sampled_from(facets))
        nbrs = draw(st.sets(st.sampled_from(facet), min_size=1, max_size=len(facet)))
        if not classify(Graph.from_edges(k, edges + [(v, k) for v in nbrs])).generalized_block_graph:
            nbrs = facet
        edges += [(v, k) for v in nbrs]
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


@st.composite
def gblock_unions(draw, max_n: int, max_parts: int = 4) -> Graph:
    """A randomly labeled disjoint union of 2 to max_parts connected
    generalized block graphs, isolated vertices among them, on at most
    max_n vertices."""
    parts = draw(st.integers(2, max_parts))
    n = 0
    edges: list[tuple[int, int]] = []
    for left in range(parts - 1, -1, -1):
        part = draw(connected_gblock_graphs(max_n - n - left))
        edges += [(u + n, v + n) for u, v in part.edges]
        n += part.n
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


@settings(max_examples=100, deadline=None)
@given(gblock_unions(16), st.integers(2, 6))
def test_formulas_match_the_per_component_route_on_random_unions(g, rows):
    assert not is_connected(g)
    assert_matches_reference(g, rows)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda rows: st.tuples(gblock_unions(12 // rows), st.just(rows))))
def test_formulas_agree_with_the_oracle_on_random_unions(case):
    """Within the oracle's default 12 variables, the depth and regularity
    of a disconnected generalized block graph pass against the oracle."""
    g, rows = case
    checks = {c["name"]: c["status"] for c in verify_report(g, rows)["verification"]["checks"]}
    assert checks["depth-vs-oracle"] == checks["regularity-vs-oracle"] == "pass", (g, rows)


@pytest.mark.parametrize(
    "g",
    [graph_of(3, (1, 2)), graph_of(4, (1, 2), (3, 4)), K3_PLUS_K1, P3_PLUS_K2],
    ids=["K2+K1", "K2+K2", "K3+K1", "P3+K2"],
)
def test_unions_of_unmixed_parts_read_unmixed(g):
    """Every minimal prime of these has the dimension of the empty set's,
    n + c * (rows - 1) for c components; K2 + K1 is even prime, depth 5 =
    dimension 5 by the oracle."""
    analysis = Analysis(g, 2)
    assert set(analysis.prime_dimensions.values()) == {g.n + len(connected_components(g))}
    assert invariants_report(g, 2)["formulas"]["unmixed"] is True
    assert "unmixed: true" in render_text(verify_report(g, 2))
    assert hochster_betti(analysis.initial_ideal, VarGrid(2, g.n)).depth() == analysis.dimension


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(lambda rows: st.tuples(gblock_unions(12 // rows), st.just(rows))))
def test_unmixed_is_one_prime_dimension_on_random_unions(case):
    """`unmixed` holds exactly when the minimal primes, each the sum over the
    components C of G - T of rows + |C| - 1, share one dimension; and a
    Cohen-Macaulay quotient (oracle depth = dimension) is unmixed."""
    g, rows = case
    analysis = Analysis(g, rows)
    dims = [sum(rows + len(c) - 1 for c in p.components) for p in analysis.minimal_primes]
    assert dims == [analysis.prime_dimensions[p.cut_set] for p in analysis.minimal_primes], (g, rows)
    assert analysis.dimension == max(dims)
    assert analysis.unmixed == (len(set(dims)) == 1), (g, rows)
    if hochster_betti(analysis.initial_ideal, VarGrid(rows, g.n)).depth() == analysis.dimension:
        assert analysis.unmixed, (g, rows)
