from __future__ import annotations

import random
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_

import pytest

import gbei.graphs
from gbei.graphs import (
    Graph,
    GraphParseError,
    MAX_VERTICES,
    classify,
    cut_set_census,
    enumerate_connected_graphs,
    is_connected,
    parse_graph,
)

from conftest import (
    C4,
    FAN,
    K2,
    K3,
    K4,
    P3,
    P5,
    STAR,
    clique_complex,
    connected_components,
    graph_of,
    induced_subgraph,
    is_path,
    leaf_decomposition,
)


# ---------------------------------------------------------------------------
# independent reference implementations used only for cross-checking

def brute_chordal(g: Graph) -> bool:
    """No induced cycle of length >= 4, checked subset by subset."""
    for size in range(4, g.n + 1):
        for vs in combinations(range(1, g.n + 1), size):
            inside = set(vs)
            deg = {v: sum(1 for u in inside if u != v and tuple(sorted((u, v))) in g.edges) for v in vs}
            if any(d != 2 for d in deg.values()):
                continue
            # all degrees 2: a disjoint union of cycles; connected means one cycle
            sub, _ = induced_subgraph(g, vs)
            if is_connected(sub):
                return False
    return True


def brute_facets(g: Graph) -> set[frozenset[int]]:
    cliques = []
    for size in range(1, g.n + 1):
        for vs in combinations(range(1, g.n + 1), size):
            if all(tuple(sorted((u, v))) in g.edges for u, v in combinations(vs, 2)):
                cliques.append(frozenset(vs))
    return {c for c in cliques if not any(c < d for d in cliques)}


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def reference_prune(masks: list[int]) -> list[int]:
    """Keep each mask that no larger kept mask contains, largest first:
    quadratic in the number of candidates."""
    uniq = sorted(set(masks), key=lambda m: -m.bit_count())
    kept: list[int] = []
    for m in uniq:
        if not any(m & k == m for k in kept):
            kept.append(m)
    return kept


def reference_facet_masks(adj: list[int]) -> tuple[list[int], bool]:
    """Every candidate of the elimination and the kernel's cliques, pruned
    by reference_prune."""
    _, closed, kernel = gbei.graphs._simplicial_elimination(adj)
    if kernel:
        closed += gbei.graphs._bron_kerbosch(adj, kernel)
    return reference_prune(closed), not kernel


def reference_classify_masks(facets: list[int], chordal: bool) -> tuple[bool, bool, bool, int]:
    """The pair and triple scan over the facets through each vertex: a block
    graph when any two meet in at most one vertex, a generalized block graph
    when any three meet pairwise in equal sets."""
    omega = max(m.bit_count() for m in facets)
    if not chordal:
        return False, False, False, omega
    through: dict[int, list[int]] = {}
    for f in facets:
        for v in range(f.bit_length()):
            if f >> v & 1:
                through.setdefault(v, []).append(f)
    block = all((a & b).bit_count() <= 1 for fs in through.values() for a, b in combinations(fs, 2))
    gblock = all(a & b == b & c == a & c for fs in through.values() for a, b, c in combinations(fs, 3))
    return True, block, gblock, omega


def random_chordal_graph(rng: random.Random, n: int) -> Graph:
    """Each new vertex joins nothing, or a random nonempty part of one facet
    of the graph so far, so the graph stays chordal; disconnected at times."""
    adj = [0] * n
    for k in range(1, n):
        if rng.random() < 0.1:
            continue
        mask = rng.choice(gbei.graphs._facet_masks(adj[:k])[0])
        facet = [v for v in range(k) if mask >> v & 1]
        part = [v for v in facet if rng.random() < 0.6] or facet
        for v in part:
            adj[v] |= 1 << k
            adj[k] |= 1 << v
    return Graph.from_edges(n, [(u + 1, v + 1) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])


def reference_enumeration(n: int, classification: str | None = None):
    """Every edge mask in increasing order, kept when connected and in the
    class, with the facets the filter computed cached on the graph."""
    pairs = list(combinations(range(n), 2))
    full = (1 << n) - 1
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        adj = adjacency(n, edges)
        if len(gbei.graphs._component_masks(adj, full)) != 1:
            continue
        if classification:
            facets = reference_facet_masks(adj)
            chordal, block, gblock, _ = reference_classify_masks(*facets)
            if not {"chordal": chordal, "block": block, "gblock": gblock}[classification]:
                continue
        g = Graph.from_edges(n, [(u + 1, v + 1) for u, v in edges])
        vars(g)["_adj"] = adj
        if classification:
            vars(g)["_facets"] = facets
        yield g


def tailed_sun(k: int) -> Graph:
    """The 3-sun, a triangle t, t+1, t+2 with an ear on each edge (tips 1, 2
    and 3), joined by one edge at t to the k-edge path 4 - ... - 4+k:
    k + 7 vertices and k + 5 facets, the triangle last in lexicographic
    order."""
    t = k + 5
    ears = [(1, t), (1, t + 1), (2, t + 1), (2, t + 2), (3, t), (3, t + 2)]
    tail = [(v, v + 1) for v in range(4, 4 + k)]
    return graph_of(t + 2, (t, t + 1), (t + 1, t + 2), (t, t + 2), *ears, *tail, (4, t))


def edge_mask(g: Graph) -> int:
    """Bit i is set when the i-th pair of combinations(1..n, 2) is an edge."""
    return sum(1 << i for i, e in enumerate(combinations(range(1, g.n + 1), 2)) if e in g.edges)


def all_graphs(n: int):
    slots = list(combinations(range(1, n + 1), 2))
    for bits in range(1 << len(slots)):
        yield Graph.from_edges(n, [slots[i] for i in range(len(slots)) if bits >> i & 1])


def cycle_or_wheel_with_simplicial_parts(rng: random.Random) -> Graph:
    """A chordless 4- to 6-cycle, or a wheel on a 4- or 5-cycle, neither of
    which has a simplicial vertex, grown to at most 9 vertices by new
    vertices each joined to a clique of the graph so far."""
    k = rng.randint(4, 6)
    edges = {(i, i + 1) for i in range(1, k)} | {(1, k)}
    n = k
    if k < 6 and rng.random() < 0.5:
        n += 1
        edges |= {(i, n) for i in range(1, k + 1)}
    for _ in range(rng.randint(1, 9 - n)):
        facet = sorted(rng.choice(sorted(brute_facets(Graph.from_edges(n, edges)), key=sorted)))
        n += 1
        edges |= {(v, n) for v in rng.sample(facet, rng.randint(1, len(facet)))}
    return Graph.from_edges(n, edges)


class TestParsing:
    def test_roundtrip_with_comments_and_blanks(self):
        g = parse_graph("# a path\n\n3\n1 2\n\n2 3\n")
        assert g == P3

    def test_vertex_count_errors(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("zero\n")
        assert err.value.line == 1
        with pytest.raises(GraphParseError):
            parse_graph("0\n")
        with pytest.raises(GraphParseError):
            parse_graph("# only a comment\n")
        with pytest.raises(GraphParseError, match=f"exceeds the maximum of {MAX_VERTICES}") as err:
            parse_graph("100000000000000000000\n1 2\n")
        assert err.value.line == 1
        with pytest.raises(GraphParseError, match=f"vertex count {MAX_VERTICES + 1} exceeds"):
            parse_graph(f"{MAX_VERTICES + 1}\n")
        assert parse_graph(f"{MAX_VERTICES}\n").n == MAX_VERTICES

    def test_edge_errors_carry_line_numbers(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph("3\n1 2\n1 2 3\n")
        assert err.value.line == 3
        with pytest.raises(GraphParseError):
            parse_graph("3\n1 4\n")
        with pytest.raises(GraphParseError):
            parse_graph("3\n2 2\n")
        with pytest.raises(GraphParseError):
            parse_graph("3\n1 x\n")

    def test_duplicate_edges_collapse(self):
        assert parse_graph("3\n1 2\n2 1\n2 3\n") == P3

    def test_a_comment_may_end_a_data_line(self):
        assert parse_graph("3  # vertices\n1 2 # first edge\n2 3#\n") == parse_graph("3\n1 2\n2 3\n") == P3
        with pytest.raises(GraphParseError) as err:
            parse_graph("3\n1 2\n2 # 3\n")
        assert err.value.line == 3


class TestChordality:
    def test_agrees_with_brute_force_up_to_six_vertices(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                assert classify(g).chordal == brute_chordal(g), g

    def test_perfect_elimination_order_witness(self):
        # the smallest vertex with a clique of remaining neighbors goes
        # first; the order is 0-based, and only a chordal graph leaves no
        # kernel of vertices never removed
        def witness(g):
            order, _, kernel = gbei.graphs._simplicial_elimination(g._adj)
            return not kernel, [v + 1 for v in order]

        assert witness(P5) == (True, [1, 2, 3, 4, 5])
        assert witness(STAR) == (True, [2, 3, 1, 4])
        assert witness(C4) == (False, [])
        for n in range(1, 7):
            for g in all_graphs(n):
                ok, order = witness(g)
                if not ok:
                    continue
                assert sorted(order) == list(range(1, n + 1)), g
                # each vertex's neighbors later in the order are pairwise adjacent
                for i, v in enumerate(order):
                    later = sorted(w for w in order[i + 1:] if (min(v, w), max(v, w)) in g.edges)
                    assert all(e in g.edges for e in combinations(later, 2)), g


class TestCliqueComplex:
    def test_facets_match_exhaustive_search_small(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert set(clique_complex(g).facets) == brute_facets(g), g
        # simplicial parts around a kernel that the elimination cannot remove
        rng = random.Random(11)
        for _ in range(200):
            g = cycle_or_wheel_with_simplicial_parts(rng)
            assert not classify(g).chordal, g
            assert set(clique_complex(g).facets) == brute_facets(g), g

    def test_facets_match_the_quadratic_prune(self):
        # every labeled graph on up to 6 vertices, disconnected ones included
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                adj = adjacency(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
                facets, chordal = gbei.graphs._facet_masks(adj)
                want, want_chordal = reference_facet_masks(adj)
                assert len(facets) == len(set(facets)) and set(facets) == set(want), (n, mask)
                assert chordal == want_chordal, (n, mask)
        rng = random.Random(13)
        for _ in range(300):
            n, p = rng.randint(7, 12), rng.random()
            adj = adjacency(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            facets, chordal = gbei.graphs._facet_masks(adj)
            want, want_chordal = reference_facet_masks(adj)
            assert len(facets) == len(set(facets)) and set(facets) == set(want), adj
            assert chordal == want_chordal, adj

    def test_facets_match_exhaustive_search_chordal_n6(self):
        for g in enumerate_connected_graphs(6, "chordal"):
            assert set(clique_complex(g).facets) == brute_facets(g), g

    def test_leaf_order_examples(self):
        def last_leaf(g):
            cc = clique_complex(g)
            return cc.facets[cc.leaf_order[-1]]

        # K_3 is a single facet
        assert clique_complex(K3).facets == (frozenset({1, 2, 3}),)
        assert last_leaf(P3) == frozenset({2, 3})
        # glued triangles: pairwise facet intersections all equal {1,2}
        cc = clique_complex(FAN)
        assert set(cc.facets) == {frozenset(s) for s in ({1, 2, 3}, {1, 2, 4}, {1, 2, 5})}
        assert last_leaf(FAN) == frozenset({1, 2, 5})
        assert last_leaf(STAR) == frozenset({1, 4})
        # the last facet that is a leaf, not the end of the lexicographically
        # least order, which ends in {2,5}
        assert last_leaf(graph_of(5, (1, 3), (2, 5), (3, 4), (3, 5))) == frozenset({3, 4})

    def test_leaf_order_is_valid_peeling(self):
        # every prefix of the order ends in a facet meeting the earlier ones
        # inside a single earlier facet.  The star's 1,200 facets are past
        # the recursion limit, and on the tailed sun a search for the least
        # order is exponential in the tail: every order of the tail's facets
        # after the three ears is a dead end at the triangle
        star = graph_of(1201, *((1, v) for v in range(2, 1202)))
        for g in [*enumerate_connected_graphs(5, "chordal"), star, tailed_sun(40)]:
            cc = clique_complex(g)
            assert sorted(cc.leaf_order) == list(range(len(cc.facets))), g
            order = [cc.facets[i] for i in cc.leaf_order]
            for k in range(1, len(order)):
                meet = frozenset().union(
                    *(order[k] & prev for prev in order[:k])
                )
                assert any(meet <= prev for prev in order[:k]), g
        assert clique_complex(C4).leaf_order is None


class TestClassification:
    def test_trees_are_block_graphs(self):
        for g in (K2, P3, STAR, P5):
            c = classify(g)
            assert c.chordal and c.block_graph and c.generalized_block_graph
            assert c.clique_number == 2

    def test_glued_triangles_are_generalized_but_not_block(self):
        c = classify(FAN)
        assert c.chordal and not c.block_graph and c.generalized_block_graph
        assert c.clique_number == 3

    def test_generalized_block_test_compares_only_facets_through_one_vertex(self, monkeypatch):
        # each call of the shared test gets two or more facets with a common
        # vertex; a path's facets meet at most two to a vertex
        handed = []
        real = gbei.graphs._common_meet

        def recorded(through):
            handed.append(list(through))
            return real(through)

        monkeypatch.setattr(gbei.graphs, "_common_meet", recorded)
        c = classify(Graph.from_edges(300, [(v, v + 1) for v in range(1, 300)]))
        assert c.generalized_block_graph and c.block_graph
        assert len(handed) == 298 and all(len(fs) == 2 and fs[0] & fs[1] for fs in handed)
        handed.clear()
        assert not classify(graph_of(5, (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (3, 5))).generalized_block_graph
        assert handed and all(len(fs) > 1 and reduce(and_, fs) for fs in handed)
        assert real(handed[-1]) is None

    def test_the_shared_test_matches_the_pair_and_triple_scan(self):
        """Every labeled graph on at most 6 vertices, random chordal graphs
        on at most 12 (some disconnected), and random graphs on at most 12."""
        rng = random.Random(19)
        graphs = [g for n in range(1, 7) for g in all_graphs(n)]
        graphs += [random_chordal_graph(rng, rng.randint(1, 12)) for _ in range(1500)]
        for _ in range(500):
            n, p = rng.randint(1, 12), rng.random()
            graphs.append(Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p]))
        seen = set()
        for g in graphs:
            c = classify(g)
            want = reference_classify_masks(*gbei.graphs._facet_masks(g._adj))
            assert (c.chordal, c.block_graph, c.generalized_block_graph, c.clique_number) == want, g
            seen.add(want[:3])
        assert seen == {(True, True, True), (True, False, True), (True, False, False), (False, False, False)}

    def test_the_shared_test_reads_each_facet_through_a_vertex_once(self, monkeypatch):
        # a star's leaves and a fan's apexes lie in one facet: only the
        # center, or the spine's two ends, hand facets to the test, so the
        # work is linear in the facet-vertex incidences, not cubic
        handed = [0]
        real = gbei.graphs._common_meet

        def counted(through):
            handed[0] += len(through)
            return real(through)

        monkeypatch.setattr(gbei.graphs, "_common_meet", counted)
        star = Graph.from_edges(2001, [(1, v) for v in range(2, 2002)])
        fan = Graph.from_edges(502, [(1, 2)] + [(u, v) for v in range(3, 503) for u in (1, 2)])
        for g, want, calls in ((star, (True, True, True), 2000), (fan, (True, False, True), 1000)):
            handed[0] = 0
            c = classify(g)
            assert (c.chordal, c.block_graph, c.generalized_block_graph) == want
            assert handed[0] == calls <= sum(f.bit_count() for f in g._facets[0])

    def test_four_cycle_is_nothing(self):
        c = classify(C4)
        assert not c.chordal and not c.block_graph and not c.generalized_block_graph
        assert c.clique_number == 2

    def test_implication_chain(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                c = classify(g)
                if c.block_graph:
                    assert c.generalized_block_graph
                if c.generalized_block_graph:
                    assert c.chordal

    def test_block_iff_generalized_with_no_large_cut_sets(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                c = classify(g)
                census = cut_set_census(g)
                rhs = c.generalized_block_graph and all(census.a(i) == 0 for i in range(2, n + 1))
                assert c.block_graph == rhs, g


class TestCutSetCensus:
    def test_path_on_five(self):
        census = cut_set_census(P5)
        assert census.a(1) == 3
        assert set(census.minimal_cut_sets[1]) == {frozenset({2}), frozenset({3}), frozenset({4})}
        assert all(census.a(i) == 0 for i in range(2, 5))
        sets = set(census.cut_point_sets)
        assert {frozenset(), frozenset({2}), frozenset({3}), frozenset({4}), frozenset({2, 4})} <= sets
        assert census.component_counts[frozenset({2, 4})] == 3
        assert frozenset({2, 3}) not in sets

    def test_complete_graphs_have_no_cut_sets(self):
        for g in (K3, K4):
            census = cut_set_census(g)
            assert not census.minimal_cut_sets
            assert census.cut_point_sets == (frozenset(),)

    def test_glued_triangles_census(self):
        census = cut_set_census(FAN)
        assert census.a(1) == 0 and census.a(2) == 1
        assert census.minimal_cut_sets[2] == (frozenset({1, 2}),)
        assert census.clique_number == 3

    def test_minimal_cut_sets_are_facet_intersections_on_gblocks(self):
        # nonempty pairwise intersections of distinct maximal cliques
        for n in range(2, 7):
            for g in enumerate_connected_graphs(n, "gblock"):
                census = cut_set_census(g)
                got = {s for sets in census.minimal_cut_sets.values() for s in sets}
                facets = clique_complex(g).facets
                want = set()
                for a, b in combinations(facets, 2):
                    inter = a & b
                    if inter:
                        want.add(inter)
                assert got == want, g

    def test_size_guard(self):
        with pytest.raises(ValueError):
            cut_set_census(Graph.from_edges(21, [(1, 2)]))


class TestComponents:
    def test_connected_components_sorted(self):
        g = graph_of(5, (2, 4), (3, 5))
        assert connected_components(g) == ((1,), (2, 4), (3, 5))
        assert not is_connected(g)
        assert is_connected(P5)

    def test_induced_subgraph_relabels_in_order(self):
        sub, relabel = induced_subgraph(P5, [2, 3, 5])
        assert relabel == {2: 1, 3: 2, 5: 3}
        assert sub == graph_of(3, (1, 2))

    def test_path_recognition(self):
        assert is_path(P5) and is_path(K2) and is_path(graph_of(1))
        assert not is_path(K3)
        assert not is_path(STAR)
        assert not is_path(graph_of(4, (1, 2), (3, 4)))  # disconnected
        assert not is_path(C4)  # connected, every degree at most 2

    def test_degree(self):
        assert [STAR.degree(v) for v in range(1, 5)] == [3, 1, 1, 1]
        assert graph_of(1).degree(1) == 0
        for v in (0, 5):
            with pytest.raises(ValueError):
                STAR.degree(v)


class TestLeafDecomposition:
    def test_path_example(self):
        sp = leaf_decomposition(P3)
        assert sp.leaf == frozenset({2, 3})
        assert sp.cut == frozenset({2}) and sp.alpha == 1 and sp.q == 1
        assert sp.merged == K3
        assert connected_components(sp.minus_cut) == ((1,), (2,))

    def test_glued_triangles_example(self):
        sp = leaf_decomposition(FAN)
        assert sp.leaf == frozenset({1, 2, 5})
        assert sp.cut == frozenset({1, 2}) and sp.alpha == 2 and sp.q == 2
        assert sp.merged.edges == frozenset(
            (u, v) for u, v in combinations(range(1, 6), 2)
        )
        assert connected_components(sp.minus_cut) == ((1,), (2,), (3,))

    def test_star_example(self):
        sp = leaf_decomposition(STAR)
        assert sp.leaf == frozenset({1, 4})
        assert sp.cut == frozenset({1}) and sp.q == 2
        assert set(sp.branches) == {frozenset({1, 2}), frozenset({1, 3})}
        assert connected_components(sp.minus_cut) == ((1,), (2,), (3,))

    def test_rejects_simplices_and_non_gblock(self):
        with pytest.raises(ValueError):
            leaf_decomposition(K3)
        with pytest.raises(ValueError):
            leaf_decomposition(C4)
        with pytest.raises(ValueError):
            leaf_decomposition(graph_of(4, (1, 2), (3, 4)))

    def test_derived_graphs_stay_generalized_block(self):
        for n in range(3, 6):
            for g in enumerate_connected_graphs(n, "gblock"):
                if len(clique_complex(g).facets) < 2:
                    continue
                sp = leaf_decomposition(g)
                for h in (sp.merged, sp.minus_cut, sp.merged_minus_cut):
                    parts = [induced_subgraph(h, comp)[0] for comp in connected_components(h)]
                    assert all(classify(p).generalized_block_graph for p in parts), g

    def test_removed_cut_leaves_q_plus_one_components(self):
        for n in range(3, 6):
            for g in enumerate_connected_graphs(n, "gblock"):
                cc = clique_complex(g)
                if len(cc.facets) < 2:
                    continue
                sp = leaf_decomposition(g)
                assert sp.leaf == cc.facets[cc.leaf_order[-1]], g
                assert len(connected_components(sp.minus_cut)) == sp.q + 1, g

    def test_census_transfer_as_set_collections(self):
        # the three derived graphs shift the minimal-cut-set collections in
        # lockstep: merged graphs drop exactly the splitting cut, the
        # restriction keeps everything away from it
        for n in range(3, 6):
            for g in enumerate_connected_graphs(n, "gblock"):
                if len(clique_complex(g).facets) < 2:
                    continue
                sp = leaf_decomposition(g)
                back = {new: old for old, new in sp.relabel.items()}
                census = cut_set_census(g)
                full = {s for ss in census.minimal_cut_sets.values() for s in ss}
                merged = {
                    s
                    for ss in cut_set_census(sp.merged).minimal_cut_sets.values()
                    for s in ss
                }
                assert merged == full - {sp.cut}, g
                restricted = {
                    frozenset(back[v] for v in s)
                    for ss in cut_set_census(sp.merged_minus_cut).minimal_cut_sets.values()
                    for s in ss
                }
                assert restricted == full - {sp.cut}, g
                remainder = {
                    frozenset(back[v] for v in s)
                    for ss in cut_set_census(sp.minus_cut).minimal_cut_sets.values()
                    for s in ss
                }
                assert remainder <= full - {sp.cut}, g


class TestEnumeration:
    def test_counts(self):
        # connected labeled graphs (OEIS A001187)
        assert [sum(1 for _ in enumerate_connected_graphs(n)) for n in range(1, 7)] == [1, 1, 4, 38, 728, 26704]
        assert sum(1 for _ in enumerate_connected_graphs(4, "chordal")) == 35
        assert sum(1 for _ in enumerate_connected_graphs(4, "gblock")) == 35
        assert sum(1 for _ in enumerate_connected_graphs(4, "block")) == 29
        assert sum(1 for _ in enumerate_connected_graphs(5, "gblock")) == 421
        assert sum(1 for _ in enumerate_connected_graphs(6, "gblock")) == 6582

    @pytest.mark.parametrize("classification", [None, "chordal", "block", "gblock"])
    def test_matches_the_mask_loop(self, classification):
        for n in range(1, 7):
            got = list(enumerate_connected_graphs(n, classification))
            want = list(reference_enumeration(n, classification))
            assert [g.sorted_edges() for g in got] == [g.sorted_edges() for g in want], n
            for g, w in zip(got, want):
                assert vars(g)["_adj"] == vars(w)["_adj"], g
                assert ("_facets" in vars(g)) == bool(classification), g
                if classification:
                    facets, chordal = vars(g)["_facets"]
                    assert (sorted(facets), chordal) == (sorted(vars(w)["_facets"][0]), vars(w)["_facets"][1]), g

    @pytest.mark.parametrize("classification", [None, "chordal", "block", "gblock"])
    def test_stored_facts_are_what_a_fresh_graph_computes(self, classification):
        """Every field the search stores on a yielded graph equals the one a
        fresh copy computes; only 'block' and 'gblock' store a
        classification."""
        stored = {"n", "edges", "_adj", "_edge_list", "_components"}
        if classification:
            stored.add("_facets")
        if classification in ("block", "gblock"):
            stored |= {"_classification", "_clique_number"}
        for n in range(1, 7):
            for g in enumerate_connected_graphs(n, classification):
                assert set(vars(g)) == stored, g
                fresh = Graph(g.n, g.edges)
                assert g._adj == fresh._adj, g
                assert g._edge_list == fresh._edge_list, g
                assert g._components == fresh._components, g
                facets, chordal = g._facets
                assert (sorted(facets), chordal) == (sorted(fresh._facets[0]), fresh._facets[1]), g
                assert g._clique_number == fresh._clique_number, g
                assert g._classification == fresh._classification, g

    def test_sorted_edges_is_a_copy_of_the_cached_list(self):
        g = next(enumerate_connected_graphs(3, "gblock"))
        edges = g.sorted_edges()
        edges.append((1, 2))
        assert g.sorted_edges() == sorted(g.edges) != edges

    @pytest.mark.parametrize("classification", [None, "chordal", "block", "gblock"])
    def test_edge_masks_increase_and_cached_facets_are_the_facets(self, classification):
        for n in range(1, 7):
            masks = []
            for g in enumerate_connected_graphs(n, classification):
                masks.append(edge_mask(g))
                if classification:
                    facets, chordal = g._facets
                    want, want_chordal = gbei.graphs._facet_masks(g._adj)
                    assert set(facets) == set(want) and len(facets) == len(want) and chordal == want_chordal, g
            assert all(a < b for a, b in zip(masks, masks[1:])), n

    @pytest.mark.parametrize("classification", [None, "chordal", "block", "gblock"])
    def test_the_last_vertex_tries_only_neighborhoods_meeting_every_component(self, monkeypatch, classification):
        """A last neighborhood that misses a component of the graph already
        placed gives a disconnected graph: the filter never sees one, and
        unfiltered, components are found once per placed graph, never per
        leaf."""
        real_add, real_components = gbei.graphs._add_vertex, gbei.graphs._component_masks
        misses = []
        tried = searches = 0

        def add_vertex(adj, facets, placed, k, nbrs, want):
            nonlocal tried
            if k == 0:
                tried += 1
                misses.extend(c for c in real_components(adj, placed) if not nbrs & c)
            return real_add(adj, facets, placed, k, nbrs, want)

        def component_masks(adj, mask):
            nonlocal searches
            searches += 1
            return real_components(adj, mask)

        monkeypatch.setattr(gbei.graphs, "_add_vertex", add_vertex)
        monkeypatch.setattr(gbei.graphs, "_component_masks", component_masks)
        for n in range(1, 7):
            searches = 0
            list(enumerate_connected_graphs(n, classification))
            assert misses == [], n
            if classification is None:  # one search per graph on vertices 2..n
                assert searches == (2 ** comb(n - 1, 2) if n > 1 else 0), n
        assert (tried > 0) == (classification is not None)

    def test_filter_semantics(self):
        for g in enumerate_connected_graphs(4, "block"):
            assert classify(g).block_graph
        for g in enumerate_connected_graphs(4):
            assert is_connected(g)

    def test_guards(self):
        with pytest.raises(ValueError):
            list(enumerate_connected_graphs(8))
        with pytest.raises(ValueError):
            list(enumerate_connected_graphs(4, "weird"))
