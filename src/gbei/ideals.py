"""Generalized binomial edge ideals of graphs and their invariants.

For a graph G on {1..n} and a grid of m rows, the ideal lives in
Q[x[i,j]] and is generated by the 2x2 minors

    x[k,i]*x[l,j] - x[l,i]*x[k,j]      (1 <= k < l <= m, {i,j} edge, i < j)

of the m x n variable matrix whose columns are picked at the edge's
endpoints.  With m = 2 this is the classical binomial edge ideal.

This module builds those ideals, produces their reduced Groebner basis in
closed combinatorial form (admissible paths decorated with antitone row
assignments), enumerates the minimal primes through cut-point sets, and
evaluates the closed-form depth and regularity of the quotient for
generalized block graphs.  Everything is exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from operator import itemgetter

from .graphs import (
    Classification,
    CutSetCensus,
    Graph,
    SizeCap,
    _bits,
    _cached_field,
    _component_masks,
    _is_path,
    _mask_vertices,
    classify,
    cut_set_census,
)
from .poly import Ideal, Monomial, Polynomial, Var


def _require_rows(rows: int):
    if rows < 2:
        raise ValueError(f"need at least 2 rows, got {rows}")


def minor(row_pair: tuple[int, int], col_pair: tuple[int, int]) -> Polynomial:
    """The 2x2 minor on rows k < l and columns i < j; its leading term is
    the diagonal product x[k,i]*x[l,j] with coefficient 1."""
    k, l = row_pair
    i, j = col_pair
    if not k < l:
        raise ValueError(f"rows must be increasing, got {row_pair}")
    if not i < j:
        raise ValueError(f"columns must be increasing, got {col_pair}")
    # k < l, so each monomial's exponent tuple is already in variable order
    return Polynomial({
        Monomial((((k, i), 1), ((l, j), 1))): 1,
        Monomial((((k, j), 1), ((l, i), 1))): -1,
    })


def _minors_for_edges(edges, rows: int) -> list[Polynomial]:
    """The minors of every edge on every row pair, ordered by edge then
    row pair."""
    return [
        minor((k, l), (i, j))
        for i, j in sorted(edges)
        for k, l in combinations(range(1, rows + 1), 2)
    ]


def gbei_generators(g: Graph, rows: int) -> Ideal:
    """Defining generators, ordered by edge then row pair."""
    _require_rows(rows)
    return Ideal(_minors_for_edges(g.edges, rows))


# ---------------------------------------------------------------------------
# the combinatorial Groebner basis

@dataclass(frozen=True)
class AdmissiblePath:
    """A simple path i_0, ..., i_r with i_0 < i_r whose interior vertices
    all lie outside the interval [i_0, i_r] and which admits no proper
    subsequence that is itself a path between the same endpoints."""

    vertices: tuple[int, ...]

    @property
    def start(self) -> int:
        return self.vertices[0]

    @property
    def end(self) -> int:
        return self.vertices[-1]

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]


def admissible_paths(g: Graph) -> tuple[AdmissiblePath, ...]:
    """All admissible paths, sorted by vertex sequence.

    A path admits a proper subsequence that is a path between the same
    endpoints exactly when it has a chord: a chord i_a i_b (b > a + 1)
    skips the vertices between, and a shorter path has a consecutive pair
    that was not consecutive before.  So the admissible paths are the
    chordless ones, and the walk refuses every vertex of the path and every
    neighbour of a path vertex other than the last.
    """
    if g.n > 10:
        raise SizeCap(f"path enumeration is exponential; n={g.n} > 10")
    adj, full = g._adj, (1 << g.n) - 1
    found: list[AdmissiblePath] = []

    def walk(path: tuple[int, ...], refused: int, outside: int, end: int):
        last = adj[path[-1] - 1]
        step = last & ~refused
        if step >> (end - 1) & 1:
            found.append(AdmissiblePath((*path, end)))
        for w in _bits(step & outside):
            walk((*path, w + 1), refused | last, outside, end)

    for i in range(1, g.n + 1):
        for j in range(i + 1, g.n + 1):
            outside = (1 << (i - 1)) - 1 | full >> j << j  # labels below i or above j
            walk((i,), 1 << (i - 1), outside, j)
    found.sort(key=lambda p: p.vertices)
    return tuple(found)


@dataclass(frozen=True)
class AntitoneMap:
    """A row assignment kappa for the positions of an admissible path.

    Whenever the vertex at position s is numerically smaller than the vertex
    at position t, the assigned row never increases: kappa(s) >= kappa(t).
    The endpoint rows are strictly ordered, kappa(0) > kappa(r), so the pair
    indexes a genuine minor.
    """

    path: AdmissiblePath
    values: tuple[int, ...]


def _row_sequences(vertices: tuple[int, ...], rows: int):
    """The antitone rule of a path's vertices.  Read in order of
    increasing vertex label, an antitone map is a non-increasing sequence
    of rows, one row per vertex.  The start's label is below the end's, so
    its row is at least the end's; the sequences where it is strictly
    above are yielded, each in label order."""
    labels = sorted(vertices)
    first, last = labels.index(vertices[0]), labels.index(vertices[-1])
    for seq in combinations_with_replacement(range(rows, 0, -1), len(labels)):
        if seq[first] > seq[last]:
            yield seq


def _label_ranks(vertices: tuple[int, ...]) -> list[int]:
    """The rank of each position's vertex among the path's labels."""
    rank = {v: k for k, v in enumerate(sorted(vertices))}
    return [rank[v] for v in vertices]


def antitone_maps(path: AdmissiblePath, rows: int) -> tuple[AntitoneMap, ...]:
    """All valid row assignments, in lexicographic order of value tuples:
    each row sequence of the antitone rule (see _row_sequences) laid
    along the path's positions."""
    _require_rows(rows)
    lay = itemgetter(*_label_ranks(path.vertices))
    return tuple(AntitoneMap(path, v) for v in sorted(map(lay, _row_sequences(path.vertices, rows))))


def _basis_element(
    vertices: tuple[int, ...], values: tuple[int, ...], shifts: dict[Var, int]
) -> tuple[int, tuple[tuple[int, int]]]:
    """The interior variables x[kappa(k), i_k] times the minor on rows
    kappa(r) < kappa(0) and columns i_0 < i_r, for the path `vertices`
    with the rows `values` by position, packed on a packing with the
    given field shifts as its monic (lead, ((tail, -1),)) pair.  The
    path's vertices are distinct columns, so all these variables are
    distinct and each monomial is a sum of single-exponent fields; the
    lead is the diagonal x[kappa(r), i_0] * x[kappa(0), i_r].  A variable
    with no field raises KeyError."""
    r = len(vertices) - 1
    interior = sum(1 << shifts[values[k], vertices[k]] for k in range(1, r))
    low, high = values[r], values[0]
    lead = interior + (1 << shifts[low, vertices[0]]) + (1 << shifts[high, vertices[r]])
    tail = interior + (1 << shifts[low, vertices[r]]) + (1 << shifts[high, vertices[0]])
    return lead, ((tail, -1),)


class BasisValidationError(RuntimeError):
    """The closed form is not the engine's basis or has a non-squarefree lead."""


def _closed_form_basis(paths, rows: int, packing) -> list[tuple[int, tuple[tuple[int, int]]]]:
    """The distinct closed-form elements of the admissible `paths` by
    decreasing lead (see rauh_basis), packed on the engine's `packing`.
    Each element is packed straight from a row sequence of the antitone
    rule, laid along the path's positions by the rank of their labels.  A
    variable outside the packing is in no defining generator, so no
    closed form that uses it is the engine's basis: BasisValidationError."""
    shifts = packing.shifts
    elements = set()
    try:
        for path in paths:
            verts = path.vertices
            lay = itemgetter(*_label_ranks(verts))
            for seq in _row_sequences(verts, rows):
                elements.add(_basis_element(verts, lay(seq), shifts))
    except KeyError as err:
        raise BasisValidationError(f"closed-form variable {err.args[0]} is in no defining generator") from None
    return sorted(elements, reverse=True)


def rauh_basis(g: Graph, rows: int) -> Ideal:
    """The ideal together with its reduced Groebner basis in closed form.

    Elements are u * minor(kappa(r), kappa(0); i_0, i_r) for every
    admissible path and antitone row assignment, where u multiplies the
    interior variables x[kappa(k), i_k].  The reduced Groebner basis of an
    ideal is unique, so the closed form must equal the basis `buchberger`
    computes from the defining minors, otherwise BasisValidationError is
    raised.  That one test covers reducedness, the Groebner property and
    membership in the ideal.  It is made on packed monomials: the closed
    form is built directly on the engine's packing and compared with the
    engine's packed elements, so neither side is decoded to Polynomials
    until an element of the returned ideal's basis is read.
    """
    return Analysis(g, rows).basis


def initial_ideal(g: Graph, rows: int) -> tuple[Monomial, ...]:
    """Minimal generators of the initial ideal: one squarefree monomial per
    basis element, sorted descending."""
    return Analysis(g, rows).initial_ideal


# ---------------------------------------------------------------------------
# minimal primes and dimension

@dataclass(frozen=True)
class MinimalPrime:
    """The prime attached to a cut-point set: the cut columns' variables
    plus all 2x2 minors on each remaining component's column set."""

    cut_set: frozenset[int]
    components: tuple[tuple[int, ...], ...]
    ideal: Ideal
    dimension: int


def minimal_primes(g: Graph, rows: int) -> tuple[MinimalPrime, ...]:
    return Analysis(g, rows).minimal_primes


def krull_dimension(g: Graph, rows: int) -> tuple[int, dict[frozenset[int], int]]:
    """Dimension of the quotient, the largest dimension of a minimal prime,
    and the per-prime dimensions n - |T| + c(T) * (rows - 1), keyed by
    cut-point set T (Rauh, Adv. Appl. Math. 2013)."""
    analysis = Analysis(g, rows)
    return analysis.dimension, analysis.prime_dimensions


def is_unmixed(g: Graph, rows: int) -> bool:
    """True when all minimal primes share one dimension (see krull_dimension):
    every cut-point set T has (c(T) - c) * (rows - 1) == |T|, where c =
    c(empty set) is the number of components, 1 only for a connected graph."""
    return Analysis(g, rows).unmixed


# ---------------------------------------------------------------------------
# closed-form invariants

@dataclass(frozen=True)
class FormulaResult:
    kind: str
    value: int
    provenance: str

    def __post_init__(self):
        if self.kind not in ("exact", "upper-bound"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.value < 0:
            raise ValueError("invariant values are nonnegative")


def depth_formula(g: Graph, rows: int) -> FormulaResult:
    """Exact depth of the quotient, n + k * (rows - 1) minus |S| - 1 for
    each minimal cut set S, k the number of components (the census's count
    for the empty cut-point set): each component C adds its vertices plus
    rows - 1 minus its own cut sets' correction.  Removing S splits only
    the components S meets, so a minimal cut set of G is one of a single
    component C.  Each vertex of S is adjacent to every component of C - S
    (else S less it would still cut), so S is a minimal separator of C; in
    a chordal graph that is a clique with a common neighbour in each full
    component, so |S| < omega(C) and the paper's sum over
    2 <= |S| < omega(C) leaves no cut set out."""
    return Analysis(g, rows).depth


def regularity_formula(g: Graph, rows: int) -> FormulaResult:
    """Regularity of the quotient, n - k for k connected components: each
    component of size c contributes c - 1, exactly when rows >= c or the
    component is a path (a tree of maximum degree at most 2), and as an
    upper bound otherwise; the sum is exact when every contribution is."""
    return Analysis(g, rows).regularity


# ---------------------------------------------------------------------------
# one analysis per (graph, rows)

@dataclass(frozen=True)
class Analysis:
    """Every object derived from one graph and row count, each computed at
    most once, on first use, and shared by every consumer.

    The module-level functions above (depth_formula, krull_dimension,
    initial_ideal, ...) each build a fresh Analysis and read one field;
    callers that need several of them should build one Analysis and read
    them all from it.  A disconnected graph is analysed as one graph: its
    classification and census hold every component's.
    """

    graph: Graph
    rows: int

    def __post_init__(self):
        _require_rows(self.rows)

    @_cached_field
    def classification(self) -> Classification:
        return classify(self.graph)

    @_cached_field
    def census(self) -> CutSetCensus:
        return cut_set_census(self.graph)

    def _require_generalized_block(self):
        # the whole graph's class is every component's: chordality holds per
        # component, and the clique test reads only the facets through one
        # vertex, which lie in that vertex's component
        if not self.classification.generalized_block_graph:
            raise ValueError(
                "closed-form invariants apply only when every connected "
                "component is a generalized block graph"
            )

    @_cached_field
    def depth(self) -> FormulaResult:
        """See depth_formula."""
        self._require_generalized_block()
        census = self.census
        k = census._cut_point_masks[0]
        corr = sum(m.bit_count() - 1 for m in census._minimal_masks)
        total = self.graph.n + k * (self.rows - 1) - corr
        if corr:
            origin = "generalized-block depth formula with cut-set correction"
        else:
            origin = "block-graph depth formula: vertices + rows - 1"
        if k > 1:
            origin += f", added over {k} components"
        return FormulaResult("exact", total, origin)

    @_cached_field
    def regularity(self) -> FormulaResult:
        """See regularity_formula."""
        self._require_generalized_block()
        g, rows = self.graph, self.rows
        comps = _component_masks(g._adj, (1 << g.n) - 1)
        value = g.n - len(comps)
        if rows >= g.n:
            return FormulaResult("exact", value, "exact: row count at least vertex count")
        paths = [_is_path(g._adj, c) for c in comps]
        if all(paths):
            return FormulaResult("exact", value, "exact: every component is a path")
        if all(path or rows >= c.bit_count() for path, c in zip(paths, comps)):
            origin = "exact: every component is a path or has at most as many vertices as rows"
            return FormulaResult("exact", value, origin)
        origin = "upper bound: fewer rows than vertices and a non-path component"
        return FormulaResult("upper-bound", value, origin)

    @_cached_field
    def _prime_dimension_masks(self) -> dict[int, int]:
        """n - |T| + c(T) * (rows - 1), the dimension of the prime of each
        cut-point set T by mask: each component C of G - T adds rows + |C| - 1."""
        n, r = self.graph.n, self.rows - 1
        return {t: n - t.bit_count() + c * r for t, c in self.census._cut_point_masks.items()}

    @_cached_field
    def prime_dimensions(self) -> dict[frozenset[int], int]:
        """The prime dimensions keyed by cut-point set, in census order."""
        table = self._prime_dimension_masks
        return {t: table[sum(1 << (v - 1) for v in t)] for t in self.census.cut_point_sets}

    @_cached_field
    def dimension(self) -> int:
        """See krull_dimension."""
        return max(self._prime_dimension_masks.values())

    @_cached_field
    def unmixed(self) -> bool:
        """See is_unmixed."""
        return len(set(self._prime_dimension_masks.values())) == 1

    @_cached_field
    def minimal_primes(self) -> tuple[MinimalPrime, ...]:
        """One prime per cut-point set, in census order."""
        g, rows = self.graph, self.rows
        if g.n > 12:
            raise SizeCap(f"prime enumeration is exhaustive over subsets; n={g.n} > 12")
        primes = []
        for t in self.census.cut_point_sets:
            rest = (1 << g.n) - 1 - sum(1 << (v - 1) for v in t)
            comps = tuple(sorted(_mask_vertices(m) for m in _component_masks(g._adj, rest)))
            gens: list[Polynomial] = [
                Polynomial.variable((i, j)) for j in sorted(t) for i in range(1, rows + 1)
            ]
            for comp in comps:
                gens.extend(_minors_for_edges(combinations(comp, 2), rows))
            primes.append(MinimalPrime(
                cut_set=t, components=comps, ideal=Ideal(gens), dimension=self.prime_dimensions[t],
            ))
        return tuple(primes)

    @_cached_field
    def ideal(self) -> Ideal:
        """The ideal on its defining generators; every check that compares
        against the engine's basis shares one Buchberger run."""
        return gbei_generators(self.graph, self.rows)

    @_cached_field
    def basis(self) -> Ideal:
        """See rauh_basis.  The admissible paths are enumerated first, so a
        graph past their cap never reaches the engine; the closed form is
        then packed on the engine's packing and compared element by
        element with the engine's packed basis."""
        paths = admissible_paths(self.graph)
        engine = self.ideal.groebner()
        closed = _closed_form_basis(paths, self.rows, engine.packing)
        if tuple(closed) != engine.elements:
            raise BasisValidationError(
                f"combinatorial basis ({len(closed)} elements) is not the engine's ({len(engine)} elements) "
                f"for {self.graph!r} with {self.rows} rows"
            )
        return self.ideal

    @staticmethod
    def _squarefree(packing, lead: int) -> bool:
        """The squarefree rule, on a packed lead: no exponent field holds
        more than its lowest bit."""
        return not lead & ~packing.low

    def require_squarefree_leads(self):
        """Raise BasisValidationError unless every lead of the engine's
        basis is squarefree.  The leads are tested packed; only an
        offending one is decoded, for the message."""
        gb = self.basis.groebner()
        for lead, _ in gb.elements:
            if not self._squarefree(gb.packing, lead):
                raise BasisValidationError(f"initial ideal generator {gb.packing.monomial(lead)} is not squarefree")

    @_cached_field
    def initial_ideal(self) -> tuple[Monomial, ...]:
        """See initial_ideal; raises BasisValidationError on a
        non-squarefree lead."""
        self.require_squarefree_leads()
        return self.basis.groebner().leads()
