from __future__ import annotations

import random
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbei.graphs import Graph, enumerate_connected_graphs
from gbei.ideals import (
    AdmissiblePath,
    Analysis,
    AntitoneMap,
    _basis_element,
    _closed_form_basis,
    admissible_paths,
    antitone_maps,
    depth_formula,
    gbei_generators,
    initial_ideal,
    is_unmixed,
    krull_dimension,
    minimal_primes,
    minor,
    rauh_basis,
    regularity_formula,
)
from gbei.poly import (
    Ideal,
    Monomial,
    Polynomial,
    VarGrid,
    _Packing,
    buchberger,
    ideal_equal,
    intersect,
    is_groebner_basis,
    is_reduced_basis,
)
from gbei.report import verify_report

from conftest import (
    C4,
    CHERRY,
    FAN,
    K2,
    K3,
    P3,
    P5,
    STAR,
    graph_of,
    initial_ideal_commutes_with_columns,
    leaf_ideal_split,
    monomial_ideal_equal,
)


def mono(*vars_) -> Monomial:
    return Monomial.make({v: vars_.count(v) for v in vars_})


# ---------------------------------------------------------------------------
# the closed-form objects straight from their definitions, by generating
# candidates and filtering them: every subsequence of the interior, every
# row tuple

def reference_admissible_paths(g: Graph) -> list[tuple[int, ...]]:
    adj = {v: set() for v in range(1, g.n + 1)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)

    def is_path(seq) -> bool:
        return all(seq[t + 1] in adj[seq[t]] for t in range(len(seq) - 1))

    def no_proper_subpath(path) -> bool:
        inner = path[1:-1]
        return not any(
            is_path((path[0], *sub, path[-1]))
            for size in range(len(inner))
            for sub in combinations(inner, size)
        )

    found = []

    def walk(path, i, j):
        if j in adj[path[-1]] and no_proper_subpath((*path, j)):
            found.append((*path, j))
        for w in adj[path[-1]]:
            if (w < i or w > j) and w not in path:
                walk((*path, w), i, j)

    for i, j in combinations(range(1, g.n + 1), 2):
        walk((i,), i, j)
    return sorted(found)


def reference_antitone_maps(path: tuple[int, ...], rows: int) -> list[tuple[int, ...]]:
    r = len(path) - 1
    pairs = [(s, t) for s in range(r + 1) for t in range(r + 1) if path[s] < path[t]]
    return [
        values
        for values in product(range(1, rows + 1), repeat=r + 1)
        if values[0] > values[r] and all(values[s] >= values[t] for s, t in pairs)
    ]


def reference_minor(rows: tuple[int, int], cols: tuple[int, int]) -> Polynomial:
    (k, l), (i, j) = rows, cols
    lead = Monomial.of((k, i)) * Monomial.of((l, j))
    tail = Monomial.of((l, i)) * Monomial.of((k, j))
    return Polynomial({lead: 1, tail: -1})


def reference_basis_element(am: AntitoneMap) -> Polynomial:
    """The interior monomial times the minor, through Monomial products."""
    verts, values = am.path.vertices, am.values
    r = len(verts) - 1
    coeff = Monomial.make({(values[k], verts[k]): 1 for k in range(1, r)})
    return reference_minor((values[r], values[0]), (verts[0], verts[r])).scaled(1, coeff)


def grid_packing(n: int, rows: int):
    """The kernel's packing with a field for every variable of the
    rows x n grid."""
    return _Packing([Polynomial.variable(v) for v in VarGrid(rows, n).variables()])


def labeled_graphs(n: int):
    pairs = list(combinations(range(1, n + 1), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if mask >> k & 1])


class TestGenerators:
    def test_minor_shape(self):
        p = minor((1, 2), (1, 3))
        assert p.render() == "x[1,1]*x[2,3] - x[1,3]*x[2,1]"
        assert p.leading_monomial() == mono((1, 1), (2, 3))

    def test_minor_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            minor((2, 1), (1, 2))
        with pytest.raises(ValueError):
            minor((1, 2), (3, 3))

    def test_counts_scale_with_edges_and_row_pairs(self):
        assert len(gbei_generators(P3, 2).generators) == 2
        assert len(gbei_generators(P3, 3).generators) == 6
        assert len(gbei_generators(K3, 4).generators) == 18

    def test_order_is_edge_major(self):
        gens = gbei_generators(P3, 3).generators
        # edge (1,2) first with row pairs (1,2),(1,3),(2,3), then edge (2,3)
        assert gens[0] == minor((1, 2), (1, 2))
        assert gens[1] == minor((1, 3), (1, 2))
        assert gens[2] == minor((2, 3), (1, 2))
        assert gens[3] == minor((1, 2), (2, 3))

    def test_rows_guard(self):
        with pytest.raises(ValueError):
            gbei_generators(P3, 1)

    def test_minors_match_the_monomial_products(self):
        for rows in combinations(range(1, 5), 2):
            for cols in combinations(range(1, 6), 2):
                got, want = minor(rows, cols), reference_minor(rows, cols)
                assert got.sorted_terms() == want.sorted_terms()
                assert [type(c) for c in got.terms.values()] == [int, int]


class TestAdmissiblePaths:
    def test_path_graph(self):
        # the interior of 1-2-3 sits inside the endpoint interval, so only
        # the edges survive
        got = [p.vertices for p in admissible_paths(P3)]
        assert got == [(1, 2), (2, 3)]

    def test_cherry_long_path_runs_through_smaller_vertex(self):
        got = [p.vertices for p in admissible_paths(CHERRY)]
        assert got == [(1, 2), (1, 3), (2, 1, 3)]

    def test_four_cycle(self):
        got = [p.vertices for p in admissible_paths(C4)]
        assert got == [
            (1, 2),
            (1, 4),
            (1, 4, 3),
            (2, 1, 4),
            (2, 3),
            (3, 4),
        ]

    def test_interiors_avoid_the_endpoint_interval(self):
        for g in (P5, FAN, C4):
            for p in admissible_paths(g):
                assert p.start < p.end
                assert all(v < p.start or v > p.end for v in p.interior)

    def test_shortcut_free(self):
        # 5-2 is a chord of 1-5-4-2: it skips 4, so the proper subsequence
        # 1-5-2 is a path between the same ends, and 1-5-2 is chordless
        g = graph_of(5, (1, 5), (2, 5), (2, 4), (4, 5), (3, 4))
        verts = {p.vertices for p in admissible_paths(g)}
        assert (1, 5, 2) in verts
        assert (1, 5, 4, 2) not in verts

    def test_chordless_walk_matches_the_subsequence_test(self):
        for n in range(1, 6):
            for g in labeled_graphs(n):
                got = [p.vertices for p in admissible_paths(g)]
                assert got == reference_admissible_paths(g), g

    def test_chordless_walk_matches_the_subsequence_test_on_random_graphs(self):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(7, 10)
            density = rng.random()
            g = Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < density])
            got = [p.vertices for p in admissible_paths(g)]
            assert got == reference_admissible_paths(g), g

    def test_size_guard(self):
        with pytest.raises(ValueError):
            admissible_paths(Graph.from_edges(11, [(1, 2)]))


class TestAntitoneMaps:
    def test_edge_three_rows(self):
        edge = AdmissiblePath((1, 2))
        got = [am.values for am in antitone_maps(edge, 3)]
        assert got == [(2, 1), (3, 1), (3, 2)]

    def test_cherry_path_two_rows(self):
        path = AdmissiblePath((2, 1, 3))
        got = [am.values for am in antitone_maps(path, 2)]
        assert got == [(2, 2, 1)]

    def test_cherry_path_three_rows(self):
        path = AdmissiblePath((2, 1, 3))
        got = [am.values for am in antitone_maps(path, 3)]
        assert got == [(2, 2, 1), (2, 3, 1), (3, 3, 1), (3, 3, 2)]

    def test_two_rows_forces_one_map_per_path(self):
        # the classical case: interior vertices below the start take row 2,
        # those above the end take row 1, endpoints are fixed
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                for p in admissible_paths(g):
                    maps = antitone_maps(p, 2)
                    assert len(maps) == 1
                    values = maps[0].values
                    assert values[0] == 2 and values[-1] == 1
                    for v, row in zip(p.vertices, values):
                        if v < p.start:
                            assert row == 2
                        elif v > p.end:
                            assert row == 1

    def test_sequences_match_the_product_filter(self):
        paths = {p.vertices for n in range(2, 6) for g in enumerate_connected_graphs(n) for p in admissible_paths(g)}
        for verts in sorted(paths):
            for rows in range(2, 6):
                got = [am.values for am in antitone_maps(AdmissiblePath(verts), rows)]
                assert got == reference_antitone_maps(verts, rows), (verts, rows)

    def test_antitone_constraint_holds(self):
        path = AdmissiblePath((2, 1, 4, 3))
        for am in antitone_maps(path, 3):
            vs, rows_ = path.vertices, am.values
            for s in range(4):
                for t in range(4):
                    if vs[s] < vs[t]:
                        assert rows_[s] >= rows_[t]
            assert rows_[0] > rows_[-1]


class TestRauhBasis:
    def test_matches_engine_on_small_graphs(self):
        for g, rows in ((P3, 2), (CHERRY, 3), (C4, 2), (K3, 3), (STAR, 2)):
            closed = rauh_basis(g, rows)
            engine = buchberger(gbei_generators(g, rows).generators)
            assert tuple(closed.groebner()) == engine, (g, rows)

    def test_closed_form_passes_the_buchberger_criterion(self):
        """An independent route to the same fact: every S-polynomial of the
        closed form reduces to zero against it, and it is reduced."""
        for g, rows in ((P3, 2), (CHERRY, 3), (C4, 2), (K3, 3), (STAR, 2)):
            packing = grid_packing(g.n, rows)
            closed = [packing.element(d) for d in _closed_form_basis(admissible_paths(g), rows, packing)]
            assert is_groebner_basis(closed), (g, rows)
            assert is_reduced_basis(closed), (g, rows)

    def test_basis_elements_carry_interior_variables(self):
        basis = rauh_basis(CHERRY, 2).groebner()
        leads = {f.leading_monomial() for f in basis}
        # the path 2-1-3 contributes x[2,1] * (minor on columns 2,3)
        assert mono((2, 1), (1, 2), (2, 3)) in leads

    def test_elements_match_the_monomial_products(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n):
                for path in admissible_paths(g):
                    for rows in (2, 3, 4):
                        packing = grid_packing(n, rows)
                        for am in antitone_maps(path, rows):
                            got = packing.element(_basis_element(am, packing.shifts))
                            want = reference_basis_element(am)
                            assert got.sorted_terms() == want.sorted_terms(), am
                            assert {type(c) for c in got.terms.values()} == {int}, am

    def test_nonchordal_graph_still_validates(self):
        basis = rauh_basis(C4, 2).groebner()
        assert len(basis) == 6

    def test_generators_preserved(self):
        ideal = rauh_basis(FAN, 2)
        assert ideal.generators == gbei_generators(FAN, 2).generators


class TestInitialIdeal:
    def test_single_edge_three_rows(self):
        got = initial_ideal(K2, 3)
        assert set(got) == {
            mono((1, 1), (2, 2)),
            mono((1, 1), (3, 2)),
            mono((2, 1), (3, 2)),
        }

    def test_glued_triangles_count(self):
        assert len(initial_ideal(FAN, 2)) == 13

    def test_squarefree_everywhere_small(self):
        for n in range(2, 5):
            for g in enumerate_connected_graphs(n):
                for rows in (2, 3):
                    assert all(m.is_squarefree() for m in initial_ideal(g, rows))

    @given(st.dictionaries(st.sampled_from([(i, j) for i in (1, 2) for j in (1, 2, 3)]), st.integers(1, 4)))
    def test_the_packed_rule_reads_as_the_monomial_rule(self, exps):
        m = Monomial.make(exps)
        packing = grid_packing(3, 2)
        assert Analysis._squarefree(packing, packing.key(m)) == m.is_squarefree()


class TestMinimalPrimes:
    def test_path_two_rows(self):
        primes = minimal_primes(P3, 2)
        assert [sorted(p.cut_set) for p in primes] == [[], [2]]
        assert [p.dimension for p in primes] == [4, 4]
        assert is_unmixed(P3, 2)
        dim, per = krull_dimension(P3, 2)
        assert dim == 4 and set(per.values()) == {4}

    def test_path_three_rows_mixed(self):
        primes = minimal_primes(P3, 3)
        assert [p.dimension for p in primes] == [5, 6]
        assert not is_unmixed(P3, 3)
        assert krull_dimension(P3, 3)[0] == 6

    def test_prime_generators(self):
        primes = minimal_primes(P3, 2)
        cut = next(p for p in primes if p.cut_set == frozenset({2}))
        assert cut.components == ((1,), (3,))
        # two column variables, no minors from singleton components
        assert len(cut.ideal.generators) == 2

    def test_glued_triangles_unmixed_star_not(self):
        assert is_unmixed(FAN, 2)
        assert not is_unmixed(STAR, 2)

    def test_intersection_of_primes_recovers_the_ideal(self):
        # radicality witnessed by explicit intersection, every connected
        # graph on up to 4 vertices, classical two-row case
        for n in range(2, 5):
            for g in enumerate_connected_graphs(n):
                expected = rauh_basis(g, 2)
                acc = None
                for p in minimal_primes(g, 2):
                    acc = p.ideal if acc is None else intersect(acc, p.ideal)
                assert ideal_equal(acc, expected), g

    def test_size_guard(self):
        with pytest.raises(ValueError):
            minimal_primes(Graph.from_edges(13, [(1, 2)]), 2)


class TestClosedForms:
    def test_depth_of_paths(self):
        res = depth_formula(P5, 2)
        assert res.value == 6 and res.kind == "exact"
        assert res.provenance == "block-graph depth formula: vertices + rows - 1"

    def test_depth_of_glued_triangles(self):
        res = depth_formula(FAN, 2)
        assert res.value == 5
        assert res.provenance == "generalized-block depth formula with cut-set correction"

    def test_depth_adds_over_components(self):
        g = graph_of(5, (1, 2), (4, 5))  # edge + isolated vertex + edge
        res = depth_formula(g, 2)
        assert res.value == (2 + 1) + (1 + 1) + (2 + 1)
        assert res.provenance.endswith("added over 3 components")

    def test_depth_rejects_non_generalized_block(self):
        with pytest.raises(ValueError):
            depth_formula(C4, 2)
        with pytest.raises(ValueError):
            regularity_formula(C4, 2)

    def test_regularity_kinds(self):
        assert regularity_formula(P5, 2) == regularity_formula(P5, 2)
        res = regularity_formula(P5, 2)
        assert (res.value, res.kind) == (4, "exact")
        assert res.provenance == "exact: every component is a path"
        res = regularity_formula(K3, 3)
        assert (res.value, res.kind) == (2, "exact")
        assert res.provenance == "exact: row count at least vertex count"
        res = regularity_formula(FAN, 2)
        assert (res.value, res.kind) == (4, "upper-bound")

    def test_regularity_is_exact_when_every_component_is_small_or_a_path(self):
        # K3 plus an isolated vertex at 3 rows: 4 vertices in all, but each
        # component has at most 3, so each contributes its exact k - 1
        k3_k1 = graph_of(4, (1, 2), (1, 3), (2, 3))
        res = regularity_formula(k3_k1, 3)
        assert (res.value, res.kind) == (2, "exact")
        check = next(c for c in verify_report(k3_k1, 3)["verification"]["checks"] if c["name"] == "regularity-vs-oracle")
        assert check["status"] == "pass"
        assert check["detail"] == "oracle 2, formula 2 (exact)"
        # K3 plus P3 at 3 rows: one small component and one path
        res = regularity_formula(graph_of(6, (1, 2), (1, 3), (2, 3), (4, 5), (5, 6)), 3)
        assert (res.value, res.kind) == (4, "exact")
        # K4 plus K1 at 3 rows: K4 has more vertices than rows and is no path
        res = regularity_formula(graph_of(5, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)), 3)
        assert (res.value, res.kind) == (3, "upper-bound")

    def test_depth_never_exceeds_dimension(self):
        for n in range(2, 6):
            for g in enumerate_connected_graphs(n, "gblock"):
                for rows in (2, 3):
                    assert depth_formula(g, rows).value <= krull_dimension(g, rows)[0], (g, rows)

    def test_regularity_value_is_isomorphism_invariant_form(self):
        # n - 1 for connected graphs regardless of shape
        for g in (K2, P3, CHERRY, K3, STAR, P5, FAN):
            assert regularity_formula(g, g.n).value == g.n - 1


class TestColumnAdjunction:
    def test_commutes_on_cut_columns(self):
        assert initial_ideal_commutes_with_columns(P3, 2, [2])
        assert initial_ideal_commutes_with_columns(CHERRY, 2, [1])
        assert initial_ideal_commutes_with_columns(STAR, 3, [1])

    def test_empty_column_set(self):
        assert initial_ideal_commutes_with_columns(P3, 2, [])


class TestLeafIdealSplit:
    def test_path_pieces(self):
        split = leaf_ideal_split(P3, 2)
        assert split.split_cut == frozenset({2})
        # left: ideal of the merged triangle; right: column 2 plus nothing
        assert len(split.left.generators) == 3
        assert [p.render() for p in split.right.generators] == ["x[1,2]", "x[2,2]"]
        # total adds the surviving merged edge {1,3}
        assert len(split.total.generators) == 3

    def test_path_intersection_identity(self):
        split = leaf_ideal_split(P3, 2)
        original = rauh_basis(P3, 2)
        assert ideal_equal(intersect(split.left, split.right), original)

    def test_path_sum_identity(self):
        split = leaf_ideal_split(P3, 2)
        summed = Ideal(split.left.generators + split.right.generators)
        assert ideal_equal(summed, split.total)

    def test_glued_triangles_generator_counts(self):
        split = leaf_ideal_split(FAN, 2)
        assert split.split_cut == frozenset({1, 2})
        assert len(split.left.generators) == 10  # K5 has 10 edges
        assert len(split.right.generators) == 4  # 2 columns x 2 rows, no edges
        assert len(split.total.generators) == 4 + 3  # columns + triangle {3,4,5}

    def test_initial_ideals_add_along_the_split(self):
        for g in (P3, STAR):
            split = leaf_ideal_split(g, 2)
            summed = buchberger(split.left.generators + split.right.generators)
            lhs = [f.leading_monomial() for f in summed]
            rhs = [f.leading_monomial() for f in split.left.groebner()]
            rhs += [f.leading_monomial() for f in split.right.groebner()]
            assert monomial_ideal_equal(lhs, rhs), g

    def test_sum_identity_across_small_gblocks(self):
        for n in range(3, 5):
            for g in enumerate_connected_graphs(n, "gblock"):
                if len({f for f in gbei_generators(g, 2).generators}) == 0:
                    continue
                try:
                    split = leaf_ideal_split(g, 2)
                except ValueError:
                    continue  # single clique
                summed = Ideal(split.left.generators + split.right.generators)
                assert ideal_equal(summed, split.total), g
                assert ideal_equal(intersect(split.left, split.right), rauh_basis(g, 2)), g


@cache
def gblock_graphs(n: int) -> list[Graph]:
    return list(enumerate_connected_graphs(n, "gblock"))


def invariant_part(g: Graph, rows: int) -> dict:
    """What `verify` must print under every labeling: the check statuses,
    the formulas, and the oracle's depth, projective dimension and
    regularity.  The oracle's graded Betti numbers are those of S/in(I),
    and in(I) depends on the labels, so they are left out."""
    report = verify_report(g, rows)
    ver = report["verification"]
    oracle = ver.get("oracle", {})
    return {
        "checks": [(c["name"], c["status"]) for c in ver["checks"]],
        "formulas": {k: report["formulas"][k]["value"] for k in ("depth", "regularity")},
        "oracle": {k: oracle.get(k) for k in ("depth", "projectiveDimension", "regularity")},
    }


class TestRelabeling:
    """Relabeling changes the lex order, and with it the closed form, the
    engine's basis and its size, but nothing `verify` reports."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([(n, 2) for n in range(3, 7)] + [(n, 3) for n in range(3, 5)]), st.data())
    def test_verify_is_label_invariant_within_the_oracle_cap(self, shape, data):
        n, rows = shape
        g = data.draw(st.sampled_from(gblock_graphs(n)))
        perm = data.draw(st.permutations(range(1, n + 1)))
        h = Graph.from_edges(n, sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in g.edges))
        got = invariant_part(h, rows)
        assert got == invariant_part(g, rows), (g, h, rows)
        assert got["oracle"]["depth"] is not None
