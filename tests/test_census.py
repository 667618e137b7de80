"""The cut-set census visits only the removed sets inside the core (the
vertices in two or more maximal cliques).  It is checked here against the
exhaustive census over all 2^n removed sets, kept as the reference.  On a
chordal graph the census counts components from a clique forest; that count
is checked against a search for every removed set.  The census keeps masks
and decodes its set views on first read; those views are checked against
the frozensets the census used to build eagerly."""

from __future__ import annotations

import random
import sys
import tracemalloc
from itertools import combinations, permutations

import pytest

import gbei.graphs
from gbei.graphs import Graph, classify, cut_set_census, enumerate_connected_graphs, is_connected
from gbei.ideals import Analysis
from gbei.report import invariants_report

from conftest import C4, graph_of

C5 = graph_of(5, (1, 2), (2, 3), (3, 4), (4, 5), (1, 5))


def exhaustive_census_masks(adj: list[int], core: int) -> tuple[list[int], dict[int, int]]:
    """Reference: the census over every removed mask, ignoring `core`.
    (minimal cut masks, {cut point mask: component count})."""
    n = len(adj)
    full = (1 << n) - 1
    comp = [0] * (1 << n)
    for removed in range(1 << n):
        comp[removed] = len(gbei.graphs._component_masks(adj, full & ~removed))
    base = comp[0]
    contains_cut = bytearray(1 << n)
    minimal = []
    cut_points = [0]
    for t in range(1, 1 << n):
        is_cut = comp[t] > base
        proper = False
        point = True
        tt = t
        while tt:
            b = tt & -tt
            tt ^= b
            if contains_cut[t ^ b]:
                proper = True
            if comp[t ^ b] >= comp[t]:
                point = False
        if is_cut and not proper:
            minimal.append(t)
        contains_cut[t] = 1 if (is_cut or proper) else 0
        if point:
            cut_points.append(t)
    return minimal, {t: comp[t] for t in cut_points}


@pytest.fixture
def both_censuses(monkeypatch):
    """g -> (core census, exhaustive census), both through cut_set_census."""
    kernels = {
        "core": gbei.graphs._census_masks,
        "exhaustive": lambda adj, core, facets: exhaustive_census_masks(adj, core),
    }
    use = ["core"]
    monkeypatch.setattr(gbei.graphs, "_census_masks", lambda adj, core, facets: kernels[use[0]](adj, core, facets))

    def censuses(g: Graph):
        use[0] = "core"
        core = cut_set_census(g)
        use[0] = "exhaustive"
        return core, cut_set_census(g)

    return censuses


def assert_same(core, exhaustive, g):
    assert core == exhaustive, g
    # the cut point sets also come out in the same order
    assert list(core.component_counts) == list(exhaustive.component_counts), g


def random_graphs(rng: random.Random, count: int):
    """Half G(n, p), often disconnected or not chordal; half cliques glued
    along subsets of earlier ones, chordal with large cores."""
    for i in range(count):
        n = rng.randint(1, 11)
        if i % 2:
            p = rng.random()
            yield Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])
            continue
        edges, placed = [], [1]
        while len(placed) < n:
            glue = rng.sample(placed, rng.randint(0, min(3, len(placed))))
            new = list(range(len(placed) + 1, min(n, len(placed) + rng.randint(1, 3)) + 1))
            edges += combinations(glue + new, 2)
            placed += new
        yield Graph.from_edges(n, edges)


def test_core_census_equals_exhaustive_on_every_connected_graph_up_to_six(both_censuses):
    seen = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert_same(*both_censuses(g), g)
            seen += 1
    assert seen == 1 + 1 + 4 + 38 + 728 + 26704


def test_core_census_equals_exhaustive_on_random_graphs(both_censuses):
    kinds = set()
    for g in random_graphs(random.Random(7), 300):
        core, exhaustive = both_censuses(g)
        assert_same(core, exhaustive, g)
        kinds.add((is_connected(g), classify(g).chordal, g.n >= 9 and len(core.cut_point_sets) > 8))
    # disconnected, non-chordal, and large graphs with many cut point sets all drawn
    connected, chordal, large = zip(*kinds)
    assert set(connected) == set(chordal) == set(large) == {False, True}


def assert_forest_counts_every_removed_set(g: Graph):
    """c(G - T) of a chordal graph, for every T, from its facets F and the
    separators S of a clique forest: c(G) + #{S inside T} - #{F inside T},
    where c(G) = |F| - |S|."""
    adj, full = g._adj, (1 << g.n) - 1
    facets, chordal = g._facets
    assert chordal, g
    seps = gbei.graphs._separators(facets)
    for removed in range(1 << g.n):
        inside = sum(s & removed == s for s in seps) - sum(f & removed == f for f in facets)
        expected = len(gbei.graphs._component_masks(adj, full & ~removed))
        assert len(facets) - len(seps) + inside == expected, (g, removed)


def test_forest_counts_components_on_every_connected_chordal_graph_up_to_six():
    """Every removed set, not only those inside the core; the facets come in
    the filtered enumeration's own order."""
    seen = 0
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n, "chordal"):
            assert_forest_counts_every_removed_set(g)
            seen += 1
    assert seen == 1 + 1 + 4 + 35 + 541 + 13302


def test_forest_counts_components_on_random_disjoint_unions():
    """Unions of two or three chordal graphs under a random labeling, so
    the facets of one component are interleaved with the others'."""
    rng = random.Random(11)
    chordal = [g for g in random_graphs(rng, 400) if classify(g).chordal and g.n <= 5]
    for _ in range(150):
        parts = rng.sample(chordal, rng.randint(2, 3))
        n = sum(part.n for part in parts)
        labels = rng.sample(range(1, n + 1), n)
        edges, offset = [], 0
        for part in parts:
            edges += [(labels[offset + u - 1], labels[offset + v - 1]) for u, v in part.edges]
            offset += part.n
        g = Graph.from_edges(n, edges)
        assert not is_connected(g), g
        assert_forest_counts_every_removed_set(g)


def test_separators_do_not_depend_on_the_facet_order():
    # triangle 1-2-3 with pendant edges 1-5 and 2-4: separators {1} and {2}
    facets = [0b00111, 0b10001, 0b01010]
    for order in permutations(facets):
        assert sorted(gbei.graphs._separators(list(order))) == [0b01, 0b10], order
    # the meets of consecutive facets in the order _facet_masks lists them
    # are {2} and nothing: they miss {1}
    g = graph_of(5, (1, 2), (1, 3), (1, 5), (2, 3), (2, 4))
    listed = gbei.graphs._facet_masks(g._adj)[0]
    assert sorted(listed) == sorted(facets)
    assert [a & b for a, b in zip(listed, listed[1:])] == [0b10, 0]


@pytest.mark.parametrize(
    "g, searches",
    [(graph_of(12, *((v, v + 1) for v in range(1, 12))), False), (C5, True)],
    ids=["P12", "C5"],
)
def test_only_a_non_chordal_census_searches_for_components(g, searches):
    """A chordal census counts components from its clique forest; only a
    non-chordal one runs the search."""
    code = gbei.graphs._component_masks.__code__
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(frame.f_code)

    sys.setprofile(profile)
    try:
        cut_set_census(g)
    finally:
        sys.setprofile(None)
    assert bool(seen) == searches
    assert classify(g).chordal != searches


def reference_census_views(minimal: list[int], cut_points: dict[int, int]):
    """Reference: the set views as the census built them eagerly from its
    masks, (minimal_cut_sets, cut_point_sets, component_counts)."""

    def vertices(mask: int) -> frozenset[int]:
        return frozenset(v + 1 for v in range(mask.bit_length()) if mask >> v & 1)

    groups: dict[int, list[frozenset[int]]] = {}
    for m in minimal:
        groups.setdefault(m.bit_count(), []).append(vertices(m))
    minimal_sets = {k: tuple(sorted(v, key=sorted)) for k, v in sorted(groups.items())}
    cps = sorted((vertices(t) for t in cut_points), key=lambda s: (len(s), sorted(s)))
    return minimal_sets, tuple(cps), {vertices(t): c for t, c in cut_points.items()}


def assert_views_match_reference(g: Graph):
    census = cut_set_census(g)
    minimal_sets, cps, comps = reference_census_views(census._minimal_masks, census._cut_point_masks)
    assert census.minimal_cut_sets == minimal_sets, g
    assert census.cut_point_sets == cps, g
    assert census.component_counts == comps, g
    assert list(census.component_counts) == list(comps), g
    assert census.counts == {i: len(minimal_sets.get(i, ())) for i in range(1, census.clique_number)}, g
    # every size, past the clique number too: a non-chordal cut set can be that large
    assert [census.a(i) for i in range(1, g.n + 1)] == [len(minimal_sets.get(i, ())) for i in range(1, g.n + 1)], g
    for rows in (2, 3):
        analysis = Analysis(g, rows)
        assert analysis.dimension == max(analysis.prime_dimensions.values()), (g, rows)
        # unmixed: every minimal prime P_T has dimension n - |T| + c(T) * (rows - 1)
        unmixed = len({g.n - len(t) + comps[t] * (rows - 1) for t in cps}) == 1
        assert analysis.unmixed == unmixed, (g, rows)


def test_census_views_match_the_eager_sets_on_every_connected_graph_up_to_six():
    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert_views_match_reference(g)


def test_census_views_match_the_eager_sets_on_random_graphs():
    for g in random_graphs(random.Random(7), 300):
        assert_views_match_reference(g)


def test_cycles_have_cut_sets_as_large_as_their_clique_number():
    c4, c5 = cut_set_census(C4), cut_set_census(C5)
    assert c4.clique_number == c5.clique_number == 2
    assert c4.counts == c5.counts == {1: 0}
    assert (c4.a(2), c5.a(2)) == (2, 5)
    assert c4.minimal_cut_sets == {2: (frozenset({1, 3}), frozenset({2, 4}))}
    assert c4.component_counts == {frozenset(): 1, frozenset({1, 3}): 2, frozenset({2, 4}): 2}
    assert c5.cut_point_sets == (frozenset(), *c5.minimal_cut_sets[2])
    assert [Analysis(C5, 2).dimension, Analysis(C5, 2).unmixed] == [6, False]
    for g in (C4, C5):
        assert_views_match_reference(g)


def test_census_visits_only_subsets_of_the_core(monkeypatch):
    cores = []
    real = gbei.graphs._census_masks
    monkeypatch.setattr(
        gbei.graphs, "_census_masks", lambda adj, core, facets: cores.append(core) or real(adj, core, facets)
    )
    # a triangle 1-2-3 with pendant edges 3-4 and 4-5, and isolated 6
    census = cut_set_census(graph_of(6, (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
    assert cores == [0b01100]
    assert census.minimal_cut_sets == {1: (frozenset({3}), frozenset({4}))}
    # {3, 4} leaves three components, no more than {3} alone: no cut point set
    assert census.component_counts == {frozenset(): 2, frozenset({3}): 3, frozenset({4}): 3}


def test_repeated_reports_hold_memory_flat():
    """A report leaves nothing behind: after a warm-up, hundreds more of them
    grow the traced heap by less than 16 KiB."""
    # six triangles in a chain, 13 vertices: a core of 5
    g = graph_of(13, *(e for i in range(1, 13, 2) for e in combinations((i, i + 1, i + 2), 2)))
    for _ in range(5):
        invariants_report(g, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            invariants_report(g, 2)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 16 * 1024
