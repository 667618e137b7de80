from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbei import homology
from gbei.graphs import enumerate_connected_graphs
from gbei.homology import BettiTable, hilbert_check, hilbert_numerator, hochster_betti
from gbei.ideals import initial_ideal
from gbei.poly import Monomial, VarGrid

from conftest import CHERRY, DEPTH_SWEEP, FAN, K2, K3, K4, P3, graph_of, grid_variables, monomial

STAR6 = graph_of(6, (1, 2), (1, 3), (1, 4), (1, 5), (1, 6))


def mono(*vars_) -> Monomial:
    return monomial({v: vars_.count(v) for v in vars_})


# Complexes are given by their minimal nonfaces as vertex bitmasks, and a
# restriction by the bitmask of its vertices.

def support_masks(gens, grid: VarGrid) -> list[int]:
    """The nonfaces of the Stanley-Reisner complex: the generator supports."""
    return [sum(1 << grid.index(v) for v in m.support) for m in gens]


def oracle_ranks(nonfaces, sigma: int) -> list[int]:
    """The oracle's reduced homology ranks of the restriction to sigma, for
    dimensions -1 .. |sigma| - 1; the restriction to no vertex is the
    complex {empty face}."""
    inside = tuple(g for g in homology._prune_masks(nonfaces) if g & sigma == g)
    vec = homology._restriction_vectors(inside).get(sigma, ()) if sigma else (1,)
    return [*vec, *[0] * (sigma.bit_count() + 1 - len(vec))]


# ---------------------------------------------------------------------------
# a dense, definition-level reference: enumerate every face, build boundary
# matrices over Q, read ranks off Gaussian elimination

def brute_reduced_homology(nonfaces, sigma: int) -> list[int]:
    def is_face(f) -> bool:
        mask = sum(1 << v for v in f)
        return not any(nf & mask == nf for nf in nonfaces)

    sigma = [v for v in range(sigma.bit_length()) if sigma >> v & 1]
    faces_by_dim: dict[int, list[tuple[int, ...]]] = {-1: [()]}
    for size in range(1, len(sigma) + 1):
        layer = [f for f in combinations(sigma, size) if is_face(f)]
        if not layer:
            break
        faces_by_dim[size - 1] = layer

    def rank_dense(rows: list[list[Fraction]]) -> int:
        rows = [r[:] for r in rows]
        rank = 0
        cols = len(rows[0]) if rows else 0
        for c in range(cols):
            piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            inv = rows[rank][c]
            for i in range(len(rows)):
                if i != rank and rows[i][c]:
                    factor = rows[i][c] / inv
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
            rank += 1
        return rank

    def boundary_rank(d: int) -> int:
        lower = faces_by_dim.get(d - 1, [])
        upper = faces_by_dim.get(d, [])
        if not lower or not upper:
            return 0
        pos = {f: i for i, f in enumerate(lower)}
        rows = []
        for f in upper:
            row = [Fraction(0)] * len(lower)
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1:]
                row[pos[sub]] = Fraction((-1) ** drop)
            rows.append(row)
        return rank_dense(rows)

    out = []
    for d in range(-1, len(sigma)):
        f_d = len(faces_by_dim.get(d, []))
        out.append(f_d - boundary_rank(d) - boundary_rank(d + 1))
    return out


def brute_betti(gens, grid: VarGrid) -> dict[tuple[int, int], int]:
    nonfaces = support_masks(gens, grid)
    entries = {(0, 0): 1}
    for sigma in range(1, 1 << grid.size):
        size = sigma.bit_count()
        h = brute_reduced_homology(nonfaces, sigma)
        for d in range(-1, size):
            r = h[d + 1]
            if r:
                key = (size - d - 1, size)
                entries[key] = entries.get(key, 0) + r
    return entries


# ---------------------------------------------------------------------------
# the oracle before the collapse rule: each union of generator supports is
# the join of its connected groups, and the faces of every group are
# enumerated and ranked, memoized per group

def reference_hochster_betti(gens, grid: VarGrid) -> dict[tuple[int, int], int]:
    masks = homology._prune_masks(homology._support_mask(m, grid) for m in gens)
    closure = set(masks)
    frontier = list(masks)
    while frontier:
        frontier = [u for u in {s | g for s in frontier for g in masks} if u not in closure]
        closure.update(frontier)
    group_vectors: dict[int, tuple[int, ...]] = {}
    entries = {(0, 0): 1}
    for sigma in sorted(closure, key=lambda s: (s.bit_count(), s)):
        size = sigma.bit_count()
        vec = (1,)
        for grp in homology._split_groups(tuple(g for g in masks if g & sigma == g)):
            if grp not in group_vectors:
                vertices = tuple(v for v in range(grp.bit_length()) if grp >> v & 1)
                inside = tuple(g for g in masks if g & grp == g)
                group_vectors[grp] = homology._homology_vector(vertices, inside)
            vec = homology._convolve(vec, group_vectors[grp])
        for k, r in enumerate(vec):
            if r:
                entries[(size - k, size)] = entries.get((size - k, size), 0) + r
    return entries


# the collapse test before its reach masks were precomputed: for each
# nonface n inside sigma, every nonface inside sigma is rescanned

def reference_dominated_vertex(sigma: int, inside: tuple[int, ...]) -> int:
    rest = sigma
    while rest:
        w = rest & -rest
        rest ^= w
        cand = sigma ^ w
        for n in inside:
            if not n & w:
                continue
            base = n ^ w
            reach = 0
            for m in inside:
                extra = m & ~base
                if not extra & (extra - 1):
                    reach |= extra
            cand &= reach & ~n
            if not cand:
                break
        if cand:
            return cand & -cand
    return 0


@st.composite
def antichains(draw) -> tuple[int, ...]:
    """Minimal nonfaces on at most 10 vertices, singletons (linear
    generators) included."""
    n = draw(st.integers(1, 10))
    supports = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(4, n))
    masks = draw(st.lists(supports.map(lambda s: sum(1 << v for v in s)), min_size=1, max_size=8))
    return homology._prune_masks(masks)


@pytest.fixture
def enumerated(monkeypatch) -> list[tuple[int, ...]]:
    """The vertex tuple of each restriction whose faces are enumerated."""
    runs = []
    real = homology._faces_by_size
    monkeypatch.setattr(homology, "_faces_by_size", lambda vertices, nonfaces: runs.append(vertices) or real(vertices, nonfaces))
    return runs


def oracle_nonfaces(gens, grid: VarGrid) -> tuple[int, ...]:
    """The minimal nonfaces hochster_betti reads off the generators."""
    return homology._prune_masks(homology._support_mask(m, grid) for m in gens)


class TestStanleyReisner:
    def test_nonfaces_are_generator_supports(self):
        grid = VarGrid(2, 2)
        gens = [mono((1, 1), (2, 2)), mono((1, 2), (2, 1))]
        # row-major indexing: (1,1)->0, (1,2)->1, (2,1)->2, (2,2)->3
        assert oracle_nonfaces(gens, grid) == (0b0110, 0b1001)

    def test_nonminimal_generators_are_pruned(self):
        grid = VarGrid(2, 2)
        gens = [mono((1, 1)), mono((1, 1), (2, 2))]
        assert oracle_nonfaces(gens, grid) == (0b0001,)

    def test_rejects_non_squarefree(self):
        grid = VarGrid(2, 2)
        with pytest.raises(ValueError):
            hochster_betti([mono((1, 1), (1, 1))], grid)

    def test_rejects_constant(self):
        grid = VarGrid(2, 2)
        with pytest.raises(ValueError):
            hochster_betti([monomial({})], grid)


class TestReducedHomology:
    def test_hollow_triangle_is_a_circle(self):
        assert oracle_ranks((0b111,), 0b111) == [0, 0, 1, 0]

    def test_full_simplex_is_acyclic(self):
        assert oracle_ranks((), 0b111) == [0, 0, 0, 0]

    def test_two_points(self):
        assert oracle_ranks((0b11,), 0b11) == [0, 1, 0]

    def test_empty_restriction(self):
        # the complex {empty face}: its Htilde_{-1} is the Betti number
        # beta_{0,0} that every table carries
        assert brute_reduced_homology((0b111,), 0) == [1]
        assert hochster_betti([mono((1, 1), (1, 2), (2, 1))], VarGrid(2, 2)).beta(0, 0) == 1

    def test_disjoint_circles_multiply_through_joins(self):
        # two hollow triangles on disjoint vertices: their join is a torus
        # shell homotopy-wise, h1 ranks convolve
        nf = (0b000111, 0b111000)
        got = oracle_ranks(nf, 0b111111)
        assert got == brute_reduced_homology(nf, 0b111111)
        assert got[4] == 1  # a single 3-sphere class

    def test_a_dominated_vertex_collapses(self, enumerated):
        # the hollow triangle 012 with the triangle 013 filled in: the link
        # of 3 is the edge 01, a cone, so the whole restriction is read off
        # the one to 012, a circle; both nonfaces are spheres, so no faces
        # are enumerated at all
        nf = (0b0111, 0b1100)
        assert homology._dominated_vertex(0b1111, homology._collapse_steps(nf)) == 0b1000
        got = oracle_ranks(nf, 0b1111)
        assert got == brute_reduced_homology(nf, 0b1111) == [0, 0, 1, 0, 0]
        assert enumerated == []

    @settings(max_examples=200, deadline=None)
    @given(antichains())
    def test_each_nonface_alone_is_a_sphere(self, gens):
        # a minimal nonface g alone restricts to the boundary of the simplex
        # on g, a (|g| - 2)-sphere, or to {empty face} when |g| = 1
        vectors = homology._restriction_vectors(gens)
        for g in gens:
            brute = brute_reduced_homology(gens, g)
            assert list(vectors[g]) == [0] * (g.bit_count() - 1) + [1] == brute[: g.bit_count()]
            assert not any(brute[g.bit_count():])

    def test_matches_brute_force_on_every_restriction(self):
        grid = VarGrid(2, 3)
        for g in (P3, CHERRY, K3):
            nf = support_masks(initial_ideal(g, 2), grid)
            for sigma in range(1 << grid.size):
                assert oracle_ranks(nf, sigma) == brute_reduced_homology(nf, sigma), (g, sigma)

    def test_torsion_falls_back_to_exact_ranks(self, monkeypatch):
        # the 6-vertex real projective plane: H1(Z) = Z/2, so over GF(2)
        # its homology sits in two degrees and the certificate must refuse
        # it; over Q it is acyclic
        facets = {frozenset(map(int, f)) for f in "012 023 034 045 051 124 235 341 452 513".split()}
        rp2 = tuple(
            sum(1 << v for v in t) for t in combinations(range(6), 3) if frozenset(t) not in facets
        )
        layers = homology._faces_by_size(tuple(range(6)), rp2)
        assert homology._vector_from_ranks(layers, homology._boundary_rank_mod2) == (0, 0, 1, 1)

        calls = []
        exact = homology._rank

        def counted(columns):
            calls.append(1)
            return exact(columns)

        monkeypatch.setattr(homology, "_rank", counted)
        assert oracle_ranks((0b111,), 0b111) == [0, 0, 1, 0]  # the hollow triangle
        assert oracle_ranks((0b000011, 0b001100, 0b110000), 0b111111) == [0, 0, 0, 1, 0, 0, 0]  # the octahedron
        assert calls == []
        got = oracle_ranks(rp2, 0b111111)
        assert got == [0] * 7 == brute_reduced_homology(rp2, 0b111111)
        assert calls

    def test_matches_brute_force_on_random_complexes(self, monkeypatch):
        # no complex drawn has 2-torsion, so every answer is certified over
        # GF(2) and the exact ranks are never needed
        monkeypatch.setattr(homology, "_rank", None)
        rng = random.Random(20171)
        for _ in range(300):
            n = rng.randint(2, 8)
            nonfaces = tuple(
                sum(1 << v for v in rng.sample(range(n), rng.randint(2, min(5, n))))
                for _ in range(rng.randint(1, 6))
            )
            sigma = sum(1 << v for v in range(n) if rng.random() < 0.8)
            assert oracle_ranks(nonfaces, sigma) == brute_reduced_homology(nonfaces, sigma), (nonfaces, sigma)


class TestUnionClosure:
    @given(st.lists(st.integers(1, (1 << 8) - 1), min_size=1, max_size=7))
    def test_fold_gives_the_union_of_every_nonempty_subset(self, masks):
        unions = {reduce(or_, sub) for size in range(1, len(masks) + 1) for sub in combinations(masks, size)}
        assert homology._union_closure(masks) == unions

    @settings(max_examples=200, deadline=None)
    @given(antichains())
    def test_ascending_int_order_visits_every_sub_union_first(self, gens):
        # the order _restriction_vectors visits the unions in: a linear
        # extension of inclusion
        unions = homology._union_closure(gens)
        earlier: set[int] = set()
        for sigma in sorted(unions):
            assert {s for s in unions if s & sigma == s} - earlier == {sigma}, (gens, sigma)
            earlier.add(sigma)


class TestCollapseSteps:
    @settings(max_examples=300, deadline=None)
    @given(antichains())
    def test_same_vertex_as_the_rescan_on_every_union(self, gens):
        steps = homology._collapse_steps(gens)
        for sigma in homology._union_closure(gens):
            inside = tuple(g for g in gens if g & sigma == g)
            assert homology._dominated_vertex(sigma, steps) == reference_dominated_vertex(sigma, inside), (gens, sigma)

    def test_steps_exclude_the_nonface_and_reach_past_sigma(self):
        # nonfaces 01 and 12: from 01 with w = 0 the vertex 2 is reachable
        # (through 12), from 12 with w = 2 the vertex 0 (through 01)
        steps = homology._collapse_steps((0b011, 0b110))
        assert steps == {
            0b001: [(0b011, 0b100)],
            0b010: [(0b011, 0), (0b110, 0)],
            0b100: [(0b110, 0b001)],
        }
        # on 012 the complex is the edge 02 and the point 1, and 2 is
        # dominated by 0; on 01 it is two points, and nothing is
        assert homology._dominated_vertex(0b111, steps) == reference_dominated_vertex(0b111, (0b011, 0b110)) == 0b100
        assert homology._dominated_vertex(0b011, steps) == reference_dominated_vertex(0b011, (0b011,)) == 0


class TestBettiTables:
    def test_zero_ideal(self):
        grid = VarGrid(5, 1)
        table = hochster_betti([], grid)
        assert table.entries == {(0, 0): 1}
        assert table.depth() == 5
        assert table.regularity() == 0

    def test_principal_ideal(self):
        grid = VarGrid(2, 1)
        table = hochster_betti([mono((1, 1), (2, 1))], grid)
        assert table.entries == {(0, 0): 1, (1, 2): 1}
        assert table.depth() == 1 and table.regularity() == 1

    def test_matches_brute_force_hochster(self):
        grid = VarGrid(2, 3)
        for g in (P3, CHERRY, K3):
            gens = list(initial_ideal(g, 2))
            assert hochster_betti(gens, grid).entries == brute_betti(gens, grid), g

    def test_matches_brute_force_hochster_on_random_ideals(self):
        rng = random.Random(20172)
        for _ in range(30):
            grid = VarGrid(2, rng.randint(1, 3))
            variables = grid_variables(grid)
            gens = [
                mono(*rng.sample(variables, rng.randint(2, min(5, grid.size))))
                for _ in range(rng.randint(1, 5))
            ]
            assert hochster_betti(gens, grid).entries == brute_betti(gens, grid), gens

    def test_matches_brute_force_hochster_with_linear_generators(self):
        # a linear generator is a nonface {v}: v is no vertex of the complex
        rng = random.Random(20173)
        for _ in range(30):
            grid = VarGrid(2, rng.randint(1, 3))
            variables = grid_variables(grid)
            gens = [mono(rng.choice(variables))] + [
                mono(*rng.sample(variables, rng.randint(1, min(4, grid.size))))
                for _ in range(rng.randint(0, 5))
            ]
            assert hochster_betti(gens, grid).entries == brute_betti(gens, grid), gens

    def test_matches_the_group_memo_oracle_on_the_depth_sweep(self):
        cases = 0
        for n, rows in DEPTH_SWEEP:
            grid = VarGrid(rows, n)
            for g in enumerate_connected_graphs(n, "gblock"):
                gens = list(initial_ideal(g, rows))
                assert hochster_betti(gens, grid).entries == reference_hochster_betti(gens, grid), (g.sorted_edges(), rows)
                cases += 1
        assert cases == 501

    # the group-memo oracle enumerates faces 453 times on the star and 626
    # times on K4; with the collapses alone it was 15 and 22, and the
    # spheres settle every nonface alone.  On K4 four 3-vertex unions of two
    # quadrics are still enumerated
    @pytest.mark.parametrize("g, rows, count", [(STAR6, 2, 0), (K4, 3, 4)], ids=["star6x2", "K4x3"])
    def test_collapses_spare_most_face_enumerations(self, enumerated, g, rows, count):
        grid = VarGrid(rows, g.n)
        gens = list(initial_ideal(g, rows))
        want = reference_hochster_betti(gens, grid)
        enumerated.clear()
        assert hochster_betti(gens, grid).entries == want
        assert len(enumerated) == count

    def test_first_column_counts_generators_by_degree(self):
        for g, rows in ((P3, 2), (FAN, 2), (K3, 3), (CHERRY, 3)):
            grid = VarGrid(rows, g.n)
            gens = list(initial_ideal(g, rows))
            table = hochster_betti(gens, grid)
            by_degree: dict[int, int] = {}
            for m in gens:
                by_degree[m.degree] = by_degree.get(m.degree, 0) + 1
            got = {j: table.beta(1, j) for (i, j) in table.entries if i == 1}
            assert got == by_degree, g

    def test_depth_and_regularity_of_small_quotients(self):
        cases = [
            (K2, 2, 3, 1),
            (P3, 2, 4, 2),
            (K3, 2, 4, 1),
            (CHERRY, 2, 4, 2),
            (FAN, 2, 5, 2),
        ]
        for g, rows, depth, reg in cases:
            grid = VarGrid(rows, g.n)
            gens = list(initial_ideal(g, rows))
            table = hochster_betti(gens, grid)
            assert (table.depth(), table.regularity()) == (depth, reg), g

    def test_glued_triangles_full_table(self):
        grid = VarGrid(2, 5)
        table = hochster_betti(list(initial_ideal(FAN, 2)), grid)
        assert table.entries == {
            (0, 0): 1,
            (1, 2): 7,
            (1, 3): 6,
            (2, 3): 12,
            (2, 4): 19,
            (3, 4): 8,
            (3, 5): 22,
            (4, 5): 2,
            (4, 6): 11,
            (5, 7): 2,
        }

    def test_depth_bounded_by_codimension_complement(self):
        # dim S/I = N - (smallest hitting set of the supports)
        for g, rows in ((P3, 2), (K3, 2), (CHERRY, 2), (K2, 3)):
            grid = VarGrid(rows, g.n)
            gens = list(initial_ideal(g, rows))
            supports = [set(m.support) for m in gens]
            vs = sorted({v for s in supports for v in s})
            codim = next(
                size
                for size in range(grid.size + 1)
                for hit in combinations(vs, size)
                if all(s & set(hit) for s in supports)
            )
            assert hochster_betti(gens, grid).depth() <= grid.size - codim, g

    def test_render_golden(self):
        grid = VarGrid(2, 3)
        table = hochster_betti(list(initial_ideal(P3, 2)), grid)
        assert table.render() == "\n".join(
            [
                "       0 1 2",
                "    0: 1 . .",
                "    1: . 2 .",
                "    2: . . 1",
            ]
        )

    def test_size_guard(self):
        with pytest.raises(ValueError):
            hochster_betti([], VarGrid(3, 6))


class TestHilbert:
    def test_zero_ideal_numerator(self):
        assert hilbert_numerator([], VarGrid(2, 2)) == {0: 1}

    def test_coprime_quadrics(self):
        grid = VarGrid(2, 2)
        gens = [mono((1, 1), (1, 2)), mono((2, 1), (2, 2))]
        # (1 - t^2)^2
        assert hilbert_numerator(gens, grid) == {0: 1, 2: -2, 4: 1}

    def test_shared_support_collapses(self):
        grid = VarGrid(2, 2)
        gens = [mono((1, 1), (1, 2)), mono((1, 1), (2, 1))]
        # 1 - 2t^2 + t^3
        assert hilbert_numerator(gens, grid) == {0: 1, 2: -2, 3: 1}

    def test_check_passes_on_real_tables(self):
        for g, rows in ((K2, 2), (P3, 2), (K3, 2), (CHERRY, 3), (FAN, 2)):
            grid = VarGrid(rows, g.n)
            gens = list(initial_ideal(g, rows))
            assert hilbert_check(gens, grid)
            assert hilbert_check(gens, grid, hochster_betti(gens, grid))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_check_passes_on_random_squarefree_ideals(self, data):
        rows = data.draw(st.integers(2, 6))
        grid = VarGrid(rows, data.draw(st.integers(1, 12 // rows)))
        supports = st.sets(st.sampled_from(grid_variables(grid)), min_size=1, max_size=min(5, grid.size))
        gens = [mono(*s) for s in data.draw(st.lists(supports, max_size=8))]
        assert hilbert_check(gens, grid, hochster_betti(gens, grid))

    def test_check_fails_on_a_corrupted_table(self):
        grid = VarGrid(2, 3)
        gens = list(initial_ideal(P3, 2))
        table = hochster_betti(gens, grid)
        bad = dict(table.entries)
        bad[(1, 2)] += 1
        assert not hilbert_check(gens, grid, BettiTable(grid.size, bad))
