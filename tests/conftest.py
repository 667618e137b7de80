from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import pytest

from gbei.graphs import Graph, _common_meet, _core, _is_path, _mask_vertices, classify, is_connected
from gbei.ideals import _minors_for_edges, gbei_generators, initial_ideal
from gbei.poly import Ideal, Monomial, Polynomial, VarGrid, buchberger


def graph_of(n: int, *edges: tuple[int, int]) -> Graph:
    return Graph.from_edges(n, list(edges))


# the named small graphs the suite keeps coming back to
K2 = graph_of(2, (1, 2))
P3 = graph_of(3, (1, 2), (2, 3))
CHERRY = graph_of(3, (1, 2), (1, 3))  # path 2-1-3: center is the smallest label
K3 = graph_of(3, (1, 2), (1, 3), (2, 3))
STAR = graph_of(4, (1, 2), (1, 3), (1, 4))
P5 = graph_of(5, (1, 2), (2, 3), (3, 4), (4, 5))
C4 = graph_of(4, (1, 2), (2, 3), (3, 4), (1, 4))
K4 = graph_of(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# three triangles glued along the common edge {1,2}
FAN = graph_of(5, (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5))


def is_path(g: Graph) -> bool:
    """True for path graphs, including the one-vertex path."""
    return is_connected(g) and _is_path(g._adj, (1 << g.n) - 1)


# ---------------------------------------------------------------------------
# monomial ideals and the structural identities the tests check

def monomial(mapping) -> Monomial:
    """The monomial with the exponents of {variable: exponent}."""
    return Monomial(tuple(sorted((v, e) for v, e in mapping.items() if e)))


def packed_divides(packing, a: int, b: int) -> bool:
    """Whether the packed monomial a divides b, by the divides row of the
    gbei.poly docstring: ((b | G) - a) & G == G, with G the guard bits."""
    g = packing.guard
    return ((b | g) - a) & g == g


def grid_variables(grid: VarGrid) -> list[tuple[int, int]]:
    """All grid variables in decreasing precedence (row-major) order."""
    return [(i, j) for i in range(1, grid.rows + 1) for j in range(1, grid.cols + 1)]


def minimal_generators(monomials) -> tuple[Monomial, ...]:
    """Minimal generating set of a monomial ideal, sorted descending."""
    uniq = sorted(set(monomials), key=lambda m: (m.degree, m))
    kept: list[Monomial] = []
    for m in uniq:
        if not any(k.divides(m) for k in kept):
            kept.append(m)
    kept.sort(reverse=True)
    return tuple(kept)


def monomial_ideal_equal(a, b) -> bool:
    """Equality of monomial ideals given by arbitrary generating sets."""
    return minimal_generators(a) == minimal_generators(b)


def initial_ideal_commutes_with_columns(g: Graph, rows: int, cols) -> bool:
    """Does adjoining whole columns of variables commute with taking the
    initial ideal?  Left side: leads of the recomputed basis of the ideal
    plus the column variables.  Right side: the closed-form initial ideal
    plus those same variables."""
    col_vars = [(i, j) for j in sorted(set(cols)) for i in range(1, rows + 1)]
    extended = list(gbei_generators(g, rows).generators)
    extended.extend(Polynomial.variable(v) for v in col_vars)
    lhs = buchberger(extended).leads()
    rhs = list(initial_ideal(g, rows))
    rhs.extend(Monomial.of(v) for v in col_vars)
    return monomial_ideal_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# the leaf split of the clique complex: the paper's induction step, a
# second route to the cut-set counts that the census is checked against, and
# the split of the ideal it induces

def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex sets of the components, each sorted, ordered by least element."""
    return tuple(sorted(_mask_vertices(m) for m in g._components))


def induced_subgraph(g: Graph, keep) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `keep`, relabeled 1..k preserving vertex order.
    Returns the graph and the old-to-new label map."""
    kept = sorted(set(keep))
    if not kept:
        raise ValueError("cannot induce on an empty vertex set")
    for v in kept:
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex {v} outside 1..{g.n}")
    relabel = {v: i + 1 for i, v in enumerate(kept)}
    edges = [
        (relabel[u], relabel[v])
        for u, v in g.edges
        if u in relabel and v in relabel
    ]
    return Graph.from_edges(len(kept), edges), relabel


def _leaf_order(facets: list[int]) -> tuple[int, ...]:
    """A leaf order of the facets of a chordal graph, as a permutation of
    indices, built from its end: each step peels the last facet in list
    order that is a leaf of those left.  A facet is a leaf when the union of
    its meets with the others (its vertices in some other) is one of them.
    The vertices of a peeled leaf off that union lie in no other facet, so
    the facets left are those of an induced subgraph, again chordal, and
    the clique complex of a chordal graph is a quasi-forest (Herzog-Hibi-
    Zheng 2004): it has a leaf, and no step stalls."""
    left = list(facets)
    peeled = []
    while len(left) > 1:
        core = _core(left)
        for pos in reversed(range(len(left))):
            f = left[pos]
            meet = f & core
            if any(h & f == meet for h in left if h != f):
                break
        else:
            raise AssertionError("no facet of a chordal graph is a leaf")
        peeled.append(left.pop(pos))
    index = {f: i for i, f in enumerate(facets)}
    return tuple(index[f] for f in left + peeled[::-1])


@dataclass(frozen=True)
class CliqueComplex:
    """Facets are the maximal cliques, listed in lexicographic vertex order.
    leaf_order, present exactly when the graph is chordal, is a permutation
    of facet indices in which each facet is a leaf of the subcomplex of it
    and its predecessors.  It is peeled from its end: the last entry is the
    last facet in list order that is a leaf of them all, the one before it
    the last leaf of the rest, and so on.  A leaf always exists, since the
    clique complex of a chordal graph is a quasi-forest (see _leaf_order)."""

    facets: tuple[frozenset[int], ...]
    leaf_order: tuple[int, ...] | None


def clique_complex(g: Graph) -> CliqueComplex:
    masks, chordal = g._facets
    masks = sorted(masks, key=_mask_vertices)
    order = _leaf_order(masks) if chordal else None
    facets = tuple(frozenset(_mask_vertices(m)) for m in masks)
    return CliqueComplex(facets=facets, leaf_order=order)


@dataclass(frozen=True)
class LeafSplit:
    """One peeling step of a connected generalized block graph.

    `leaf` is the last facet of the leaf order and `branches` are the other
    facets meeting it; all of those intersections coincide in the set `cut`
    (size `alpha`), which separates the graph into `q + 1` pieces.  Three
    derived graphs drive the induction: `merged` replaces leaf and branches
    by one clique on their union (same vertex set), while `minus_cut` and
    `merged_minus_cut` restrict the original and merged graphs to the
    complement of `cut`, relabeled via `relabel` (old label -> new label).
    """

    leaf: frozenset[int]
    branches: tuple[frozenset[int], ...]
    cut: frozenset[int]
    alpha: int
    q: int
    merged: Graph
    minus_cut: Graph
    merged_minus_cut: Graph
    relabel: dict[int, int]


def leaf_decomposition(g: Graph) -> LeafSplit:
    """Split off the last facet of clique_complex(g).leaf_order from a
    connected generalized block graph with two or more facets (ValueError
    otherwise); see LeafSplit.  The leaf F meets each other facet H inside
    one meet F & G, so a branch H shares a vertex with F and G, and in a
    generalized block graph F & H = F & G = G & H: the leaf and its
    branches meet pairwise in one cut."""
    if not is_connected(g):
        raise ValueError("leaf decomposition needs a connected graph")
    if not classify(g).generalized_block_graph:
        raise ValueError("leaf decomposition needs a generalized block graph")
    facets = sorted(g._facets[0], key=_mask_vertices)
    if len(facets) < 2:
        raise ValueError("graph is a single clique; nothing to split")
    leaf = facets[_leaf_order(facets)[-1]]
    branches = [f for f in facets if f & leaf and f != leaf]
    cut = _common_meet([leaf, *branches])
    if cut is None:
        raise AssertionError("the leaf and the facets meeting it do not meet in one cut")

    union = leaf
    for f in branches:
        union |= f
    merged = Graph(g.n, g.edges | frozenset(combinations(_mask_vertices(union), 2)))

    kept = _mask_vertices((1 << g.n) - 1 & ~cut)
    minus_cut, relabel = induced_subgraph(g, kept)
    merged_minus_cut, _ = induced_subgraph(merged, kept)

    q = len(branches)
    pieces = len(connected_components(minus_cut))
    if pieces != q + 1:
        raise AssertionError(f"removing the cut left {pieces} components, expected {q + 1}")
    return LeafSplit(
        leaf=frozenset(_mask_vertices(leaf)),
        branches=tuple(frozenset(_mask_vertices(f)) for f in branches),
        cut=frozenset(_mask_vertices(cut)),
        alpha=cut.bit_count(),
        q=q,
        merged=merged,
        minus_cut=minus_cut,
        merged_minus_cut=merged_minus_cut,
        relabel=relabel,
    )


@dataclass(frozen=True)
class IdealSplit:
    """The two-piece decomposition induced by a leaf split.

    `left` is the ideal of the clique-merged graph; `right` adjoins the cut
    columns' variables to the ideal of the graph minus the cut; `total` is
    their sum in closed form (cut columns plus the merged graph minus the
    cut).  The original ideal is the intersection of left and right.
    """

    split_cut: frozenset[int]
    left: Ideal
    right: Ideal
    total: Ideal


def leaf_ideal_split(g: Graph, rows: int) -> IdealSplit:
    split = leaf_decomposition(g)
    cut = split.cut
    col_vars = [Polynomial.variable((i, j)) for j in sorted(cut) for i in range(1, rows + 1)]
    left = gbei_generators(split.merged, rows)
    outside = [e for e in g.edges if not (set(e) & cut)]
    right = Ideal(col_vars + _minors_for_edges(outside, rows))
    merged_outside = [e for e in split.merged.edges if not (set(e) & cut)]
    total = Ideal(col_vars + _minors_for_edges(merged_outside, rows))
    return IdealSplit(split_cut=cut, left=left, right=right, total=total)


# the (vertices, rows) pairs whose full generalized-block corpus fits the
# 12-variable oracle budget
DEPTH_SWEEP = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)]


@pytest.fixture(scope="session")
def betti_cache():
    """Shared (edges, rows) -> (initial ideal generators, grid, BettiTable).

    The acceptance checks revisit the same quotients several times; the
    oracle is deterministic, so computing each table once is safe.
    """
    return {}


@pytest.fixture(scope="session")
def lead_cache():
    """Shared (edges, rows) -> engine lead monomials from buchberger."""
    return {}
