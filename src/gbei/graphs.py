"""Finite simple graphs on vertex set {1..n}, and the combinatorics feeding
the ideal-theoretic formulas: parsing, chordality and the block
classification, the cut-set census (read from a clique forest on a chordal
graph), and the exhaustive enumeration of connected graphs.  The paper's
leaf split of the clique complex is a second route to the census counts;
it lives in the tests (tests/conftest.py) as their reference.

Vertices are 1-based in the public API.  Internally most routines work on
adjacency bitmasks (bit v-1 is vertex v), which keeps the exhaustive
enumerations over all subsets or all small graphs affordable.

Chordality, the perfect elimination order and the maximal cliques (facets)
all come from one simplicial elimination: remove the smallest vertex whose
remaining neighbors form a clique until none is left.  The graph is chordal
exactly when every vertex goes; the facets are the maximal closed
neighborhoods at removal, plus Bron-Kerbosch on whatever is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain


# the largest vertex count a graph file may declare: every facet is an n-bit
# mask, so memory grows with n squared
MAX_VERTICES = 10_000


class GraphParseError(ValueError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SizeCap(ValueError):
    """Valid input past a size cap; the message is the reason a report prints."""


class _cached_field:
    """functools.cached_property without its lock (Python 3.12 dropped it;
    3.10 and 3.11 take an RLock on every first read).  The value is stored
    in the instance's __dict__, which later reads find first, since this
    descriptor defines no __set__; it bypasses a frozen dataclass's
    __setattr__ as cached_property does.  Two threads reading one field
    first at once may both compute it, as on 3.12."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.  Edges are canonical (u, v) pairs with u < v."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u},{v}) is not canonical for n={self.n}")

    @staticmethod
    def from_edges(n: int, pairs) -> "Graph":
        canon = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) outside 1..{n}")
            canon.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(canon))

    def sorted_edges(self) -> list[tuple[int, int]]:
        return list(self._edge_list)

    @_cached_field
    def _adj(self) -> list[int]:
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return adj

    @_cached_field
    def _edge_list(self) -> list[tuple[int, int]]:
        """The edges in increasing order; sorted_edges hands out copies."""
        return sorted(self.edges)

    @_cached_field
    def _facets(self) -> tuple[list[int], bool]:
        """(maximal clique masks, chordal flag), computed once per graph and
        shared by classify and cut_set_census.  A graph yielded by a
        filtered enumerate_connected_graphs carries the facets its search
        built vertex by vertex, and under 'block' and 'gblock'
        _clique_number and _classification with them; every enumerated
        graph also carries _adj, _components and _edge_list."""
        return _facet_masks(self._adj)

    @_cached_field
    def _clique_number(self) -> int:
        """The largest facet's vertex count, which the classification and
        the census both report."""
        return max(map(int.bit_count, self._facets[0]))

    @_cached_field
    def _classification(self) -> "Classification":
        """What classify returns."""
        return Classification(*_classify_masks(*self._facets), self._clique_number)

    @_cached_field
    def _components(self) -> list[int]:
        """The vertex masks of the connected components."""
        return _component_masks(self._adj, (1 << self.n) - 1)

    def __repr__(self):
        es = " ".join(f"{u}-{v}" for u, v in self.sorted_edges())
        return f"Graph(n={self.n}, {es or 'no edges'})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: a '#' starts a comment that runs to the
    end of its line, blank lines are skipped, the first data line is the
    vertex count (1..MAX_VERTICES), and every further data line is 'u v'."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise GraphParseError("expected a single vertex count", lineno)
            try:
                n = int(tokens[0])
            except ValueError:
                raise GraphParseError(f"vertex count is not an integer: {tokens[0]!r}", lineno) from None
            if n < 1:
                raise GraphParseError(f"vertex count must be positive, got {n}", lineno)
            if n > MAX_VERTICES:
                raise GraphParseError(f"vertex count {n} exceeds the maximum of {MAX_VERTICES}", lineno)
            continue
        if len(tokens) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"edge endpoints must be integers: {line!r}", lineno) from None
        if u == v:
            raise GraphParseError(f"loop at vertex {u}", lineno)
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(f"edge ({u},{v}) outside 1..{n}", lineno)
        pairs.append((u, v))
    if n is None:
        raise GraphParseError("no vertex count found", 1)
    return Graph.from_edges(n, pairs)


# ---------------------------------------------------------------------------
# bitmask internals

def _bits(mask: int):
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def _component_masks(adj: list[int], mask: int) -> list[int]:
    comps = []
    rem = mask
    while rem:
        seen = frontier = rem & -rem
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= adj[b.bit_length() - 1]
            frontier = nxt & rem & ~seen  # rem still holds this whole component
            seen |= frontier
        comps.append(seen)
        rem ^= seen
    return comps


def _is_path(adj: list[int], comp: int) -> bool:
    """Whether the connected vertex mask `comp` induces a path: a tree (one
    edge fewer than vertices) of maximum degree at most 2."""
    total = 0
    rest = comp
    while rest:
        b = rest & -rest
        rest ^= b
        d = (adj[b.bit_length() - 1] & comp).bit_count()
        if d > 2:
            return False
        total += d
    return total == 2 * (comp.bit_count() - 1)


def _is_clique(adj: list[int], mask: int) -> bool:
    """Whether the vertices of `mask` are pairwise adjacent."""
    while mask:
        b = mask & -mask
        mask ^= b
        if mask & ~adj[b.bit_length() - 1]:
            return False
    return True


def _mask_vertices(mask: int) -> tuple[int, ...]:
    # not tuple(genexpr): its shrunk-in-place results pile up on the free lists
    return tuple([b + 1 for b in _bits(mask)])


def _simplicial_elimination(adj: list[int]) -> tuple[list[int], list[int], int]:
    """Remove the smallest remaining simplicial vertex (one whose remaining
    neighbors are pairwise adjacent) until none is left.  Returns the
    removal order (0-based), each removed vertex's closed neighborhood at
    its removal, and the kernel: the mask of vertices never removed.  The
    kernel is empty exactly when the graph is chordal (Fulkerson-Gross), and
    the order is then a perfect elimination order."""
    rem = (1 << len(adj)) - 1
    # removing a vertex keeps the others' simpliciality, and changes only
    # its neighbors' neighborhoods
    simp = sum(1 << v for v in range(len(adj)) if _is_clique(adj, adj[v]))
    order, closed = [], []
    while simp:
        b = simp & -simp
        v = b.bit_length() - 1
        nbrs = adj[v] & rem
        order.append(v)
        closed.append(nbrs | b)
        rem ^= b
        simp ^= b
        for w in _bits(nbrs & ~simp):
            if _is_clique(adj, adj[w] & rem):
                simp |= 1 << w
    return order, closed, rem


def _bron_kerbosch(adj: list[int], mask: int) -> list[int]:
    """All maximal cliques of the subgraph induced on `mask`, by branch and
    bound with pivoting."""
    out: list[int] = []

    def expand(r: int, p: int, x: int):
        if not p and not x:
            out.append(r)
            return
        pivot = max(_bits(p | x), key=lambda v: (adj[v] & p).bit_count())
        for v in list(_bits(p & ~adj[pivot])):
            bit = 1 << v
            expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    expand(0, mask, 0)
    return out


def _facet_masks(adj: list[int]) -> tuple[list[int], bool]:
    """(maximal clique masks, chordal flag).  A facet whose first removed
    vertex is v is v's closed neighborhood C(v) at its removal; a facet with
    no removed vertex is a maximal clique of the kernel, which is maximal
    unless it lies in some C(v).

    C(v) is maximal unless C(v) = C(u) - {u} for some u whose parent is v,
    the parent of u being the first removed vertex of C(u) - {u} (kernel
    vertices count as removed last).  C(u) - {u} is a clique through the
    parent p, all removed after p, so C(u) is in {u} + C(p), and C(p) is in
    C(u) exactly when |C(u)| = |C(p)| + 1.  Conversely, if C(p) lies in a
    larger clique, some w outside C(p) is adjacent to all of it; w is
    removed before p (else w would be in C(p)), so C(p) lies in C(w) - {w}.
    If p is not w's parent q, then q is removed between w and p and C(p)
    lies in C(q) - {q}; as the removal position grows this ends at a w
    whose parent is p.  So one pass over the removed vertices finds every
    candidate that is not maximal."""
    order, closed, kernel = _simplicial_elimination(adj)
    rank = [len(order)] * len(adj)
    for i, v in enumerate(order):
        rank[v] = i
    maximal = [True] * len(order)
    for i, v in enumerate(order):
        later = closed[i] ^ (1 << v)
        if later:
            p = min(rank[w] for w in _bits(later))
            if p < len(order) and closed[i].bit_count() == closed[p].bit_count() + 1:
                maximal[p] = False
    facets = [c for c, keep in zip(closed, maximal) if keep]
    if kernel:
        facets += [k for k in _bron_kerbosch(adj, kernel) if not any(k & f == k for f in facets)]
    return facets, not kernel


def _core(facets) -> int:
    """The mask of the vertices in two or more of the masks `facets`."""
    core = seen = 0
    for f in facets:
        core |= seen & f
        seen |= f
    return core


@dataclass(frozen=True)
class Classification:
    chordal: bool
    block_graph: bool
    generalized_block_graph: bool
    clique_number: int


def _common_meet(through: list[int]) -> int | None:
    """The set in which the facets `through` one vertex pairwise meet, or
    None when two pairs meet in different sets (then some triple does too).
    One set S is met exactly when S is the common part and the parts beyond
    it are disjoint: sum |F| - |union| = (k - 1) |S| for k facets."""
    common, union, total = -1, 0, 0
    for f in through:
        common &= f
        union |= f
        total += f.bit_count()
    if total - union.bit_count() != (len(through) - 1) * common.bit_count():
        return None
    return common


def _classify_masks(facets: list[int], chordal: bool) -> tuple[bool, bool, bool]:
    if not chordal:
        return False, False, False
    # facets that meet share a vertex: test them only within the facets
    # through one vertex; a block graph's facets there meet in {v} alone
    through: dict[int, list[int]] = {}
    for f in facets:
        for v in _bits(f):
            through.setdefault(v, []).append(f)
    block = True
    for v, fs in through.items():
        if len(fs) > 1:
            common = _common_meet(fs)
            if common is None:
                return True, False, False
            block = block and common == 1 << v
    return True, block, True


def classify(g: Graph) -> Classification:
    """Chordal / block / generalized block classification.

    A block graph is a chordal graph whose maximal cliques pairwise share at
    most one vertex.  A generalized block graph is a chordal graph in which
    any three maximal cliques with a common vertex have pairwise equal
    intersections.  It is computed once per graph, from the facets, and
    cached on it; a graph enumerated under 'block' or 'gblock' carries the
    one its search proved.
    """
    return g._classification


def is_connected(g: Graph) -> bool:
    return len(g._components) == 1


# ---------------------------------------------------------------------------
# cut sets

@dataclass(frozen=True)
class CutSetCensus:
    """Everything the closed-form invariants need to know about cut sets,
    kept as the vertex masks _census_masks returns: the inclusion-minimal
    cut sets, and the cut point sets T (each member's removal genuinely
    lowers the component count of the restriction to the complement; the
    empty set always qualifies) with their component counts, in increasing
    mask order.  The component counts of a chordal graph are read from a
    clique forest, c(G - T) = c(G) + #{separators inside T} - #{facets
    inside T}, and those of any other graph are found by a search (see
    _census_masks for the proof).  a(i) and counts read one tally of the
    minimal masks' bit counts; the set views are decoded on first read, so
    a consumer of the counts alone decodes nothing.

    minimal_cut_sets groups the minimal cut sets by cardinality.  counts[i]
    is a(i) for i up to the clique number minus one (the only range the
    formulas consume).
    """

    _minimal_masks: list[int]
    _cut_point_masks: dict[int, int]
    clique_number: int

    @_cached_field
    def _sizes(self) -> dict[int, int]:
        """The number of minimal cut sets of each cardinality, tallied in
        one pass over the masks."""
        sizes: dict[int, int] = {}
        for m in self._minimal_masks:
            i = m.bit_count()
            sizes[i] = sizes.get(i, 0) + 1
        return sizes

    def a(self, i: int) -> int:
        """Number of minimal cut sets of cardinality i (0 when none)."""
        return self._sizes.get(i, 0)

    @property
    def counts(self) -> dict[int, int]:
        return {i: self.a(i) for i in range(1, self.clique_number)}

    @_cached_field
    def minimal_cut_sets(self) -> dict[int, tuple[frozenset[int], ...]]:
        groups: dict[int, list[frozenset[int]]] = {}
        for m in self._minimal_masks:
            groups.setdefault(m.bit_count(), []).append(frozenset(_mask_vertices(m)))
        return {k: tuple(sorted(v, key=sorted)) for k, v in sorted(groups.items())}

    @_cached_field
    def component_counts(self) -> dict[frozenset[int], int]:
        return {frozenset(_mask_vertices(t)): c for t, c in self._cut_point_masks.items()}

    @_cached_field
    def cut_point_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self.component_counts, key=lambda s: (len(s), sorted(s))))


def _separators(facets: list[int]) -> list[int]:
    """The separators of a clique forest of the chordal graph whose maximal
    cliques are `facets`: the meets along the edges of a maximum-weight
    spanning forest of the facets, a meet weighing its vertex count.  Prim
    grows it: each step places the facet with the largest meet with a facet
    already placed, and that meet is a separator, unless it is empty and
    the facet starts the tree of the next component.  A spanning tree of the
    facets of a connected chordal graph is a clique tree (the facets through
    each vertex span a subtree) exactly when its weight is maximum (Blair-
    Peyton, An introduction to chordal graphs and clique trees, 1993).  The
    list order of `facets` only breaks ties.  The meets of consecutive
    facets in list order are no clique forest: on 1-2 1-3 1-5 2-3 2-4,
    listed by _facet_masks as 123, 24, 15, they are {2} and nothing, and
    miss the separator {1}."""
    seps = []
    left = list(facets)
    f = left.pop()
    # each facet left, with its largest meet with a placed facet
    meet = [0] * len(left)
    while left:
        most = -1
        for j, h in enumerate(left):
            m = h & f
            if m.bit_count() > meet[j].bit_count():
                meet[j] = m
            if meet[j].bit_count() > most:
                most, i = meet[j].bit_count(), j
        f = left.pop(i)
        s = meet.pop(i)
        if s:
            seps.append(s)
    return seps


def _census_masks(adj: list[int], core: int, facets: list[int] | None) -> tuple[list[int], dict[int, int]]:
    """(minimal cut masks, {cut point mask: component count}) in increasing
    mask order, visiting only the removed masks inside `core`.  A vertex off
    the core is simplicial: put back into G - T, it joins one component or
    adds one, so it lies in no cut point set and no minimal cut set.  The
    k-th submask t of core carries the bits of k on core's bits, so k ^ b
    indexes t with one vertex put back.

    `facets` are the maximal clique masks of a chordal graph, None when the
    graph is not chordal.  A non-chordal graph counts the components of each
    G - T by a search.  A chordal graph counts them from a clique forest,
    with facets F and separators S (see _separators):

        c(G - T) = c(G) + #{S inside T} - #{F inside T}.

    The facets F not inside T, joined by the forest edges whose S is not
    inside T, form a sub-forest (an edge's S lies in both of its facets);
    its trees are the components of G - T.  A vertex v off T lies in some
    facet.  The facets through v span a subtree of the forest, and they and
    the separators on its edges all hold v, so the subtree lies in one tree
    of the sub-forest.  Adjacent vertices share a facet, so a component of
    G - T lies in one tree; the separator of a tree edge has a vertex off T
    in both of its facets, so a tree lies in one component.  The sub-forest
    has |F| - #{F inside T} nodes and |S| - #{S inside T} edges, and the
    whole forest gives c(G) = |F| - |S|.  Separators lie in the core, so
    each G - T takes a few mask tests, not a search over the n vertices."""
    full = (1 << len(adj)) - 1
    comp = [0] * (1 << core.bit_count())
    steps = None
    if facets is not None:
        # c(G - T) - c(G - T + v), for v the least vertex of T, counts the
        # separators and facets inside T that hold v; each has v as its
        # least vertex, so it is filed under v.  T = {} reads c(G).
        seps = _separators(facets)
        comp[0] = len(facets) - len(seps)
        steps = {}
        for s in seps:
            steps.setdefault(s & -s, []).append((s, 1))
        for f in facets:
            if not f & ~core:
                steps.setdefault(f & -f, []).append((f, -1))
    contains_cut = bytearray(len(comp))
    minimal = []
    cut_points = {}
    t = 0
    for k in range(len(comp)):
        if steps is None:
            c = len(_component_masks(adj, full & ~t))
        else:
            c = comp[k & (k - 1)]
            for m, w in steps.get(t & -t, ()):
                if m & t == m:
                    c += w
        comp[k] = c
        is_cut = c > comp[0]
        proper = False
        point = True
        kk = k
        while kk:
            b = kk & -kk
            kk ^= b
            if contains_cut[k ^ b]:
                proper = True
            if comp[k ^ b] >= c:
                point = False
            if proper and not point:
                break  # neither flag changes back
        if is_cut and not proper:
            minimal.append(t)
        contains_cut[k] = is_cut or proper
        if point:
            cut_points[t] = c
        t = (t - core) & core
    return minimal, cut_points


def cut_set_census(g: Graph) -> CutSetCensus:
    """Exhaustive over the subsets of the core, the vertices in two or more
    facets (see _census_masks): 2^|core| component counts.  On a chordal
    graph each is read from a clique forest, c(G - T) = c(G) +
    #{separators inside T} - #{facets inside T} (proved at _census_masks);
    on any other graph it is found by a search.  The census keeps the
    masks; its set views are decoded only where they are read."""
    if g.n > 20:
        raise SizeCap(f"census is exhaustive over subsets; n={g.n} is past the intended scale")
    facets, chordal = g._facets
    minimal, cut_points = _census_masks(g._adj, _core(facets), facets if chordal else None)
    return CutSetCensus(minimal, cut_points, g._clique_number)


# ---------------------------------------------------------------------------
# exhaustive enumeration

_FILTERS = ("all", "chordal", "block", "gblock")


def _add_vertex(adj: list[int], facets: list[int], placed: int, k: int, nbrs: int, want: str) -> tuple[list[int], bool] | None:
    """(facets of H + k, block flag), where H is the graph on the mask
    `placed`, a member of class `want` with maximal cliques `facets`, and
    vertex k joins it with neighborhood `nbrs`; None when H + k leaves the
    class.

    A chordless cycle through k runs k-x-P-y-k with x, y in nbrs nonadjacent
    and P inside one component of H - nbrs, so H + k is chordal exactly when
    the vertices of nbrs next to each such component form a clique.  When
    nbrs is a clique, every such set is, and no component is searched;
    otherwise the search that grows each component collects its
    neighborhood as it goes.  The cliques through k are k plus a clique
    inside nbrs, and a maximal clique of H[nbrs] lies in a facet of H, so
    the new facets are k joined to the maximal members of {F & nbrs}; a
    facet of H stays maximal unless it lies inside nbrs.

    Only a vertex of a new facet has new facets through it, so under
    'block' and 'gblock' the facets through k and through each vertex of
    nbrs are tested.  The block flag says that each of those meets is its
    vertex alone: H + k is then a block graph exactly when H is one, since
    the facets through any other vertex are H's.  Under 'chordal' no meet
    is tested and the flag is False."""
    if not _is_clique(adj, nbrs):
        # _component_masks's search, keeping each component's neighborhood;
        # sharing one loop through a generator slows every other search
        rem = placed & ~nbrs
        while rem:
            seen = frontier = rem & -rem
            reach = 0
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    b = f & -f
                    f ^= b
                    nxt |= adj[b.bit_length() - 1]
                reach |= nxt
                frontier = nxt & rem & ~seen  # rem still holds this whole component
                seen |= frontier
            rem ^= seen
            if not _is_clique(adj, reach & nbrs):
                return None
    bit = 1 << k
    joined: list[int] = []
    for m in sorted({f & nbrs for f in facets}, key=int.bit_count, reverse=True):
        if not any(m & j == m for j in joined):
            joined.append(m)
    out = [f for f in facets if f & ~nbrs] + [m | bit for m in joined]
    if want == "chordal":
        return out, False
    block = True
    for v in _bits(nbrs | bit):
        through = [f for f in out if f >> v & 1]
        if len(through) > 1:
            common = _common_meet(through)
            if common is None:
                return None
            if common != 1 << v:
                if want == "block":
                    return None
                block = False
    return out, block


def enumerate_connected_graphs(n: int, classification: str | None = None):
    """Yield every connected labeled graph on {1..n}, optionally filtered to
    a classification ('chordal', 'block', 'gblock'), in increasing order of
    the edge mask whose bit i is the i-th pair of combinations(1..n, 2).  No
    isomorphism deduplication is performed.

    One depth-first search places the vertices from n down to 1; each picks
    its neighborhood among the vertices already placed, in increasing mask
    order.  A pair (u, v) with larger u holds a higher mask bit, so this is
    the edge-mask order, and nothing is collected or sorted.  The three
    classes are hereditary (the facets of G - v are the maximal members of
    {F - v}, and their intersections only lose v), so a prefix that leaves
    the class is dropped at once, and its facets are extended vertex by
    vertex (see _add_vertex).  The last vertex tries only the
    neighborhoods that meet every component of the graph already placed,
    so every leaf is connected and none is built to be dropped.
    Unfiltered, the search still tries all 2^C(n,2) edge sets, so n is
    capped at 7.

    Each yielded graph carries what its search built or proved, in the
    slots of its cached fields: its adjacency masks, its edges in
    increasing order and its one component; under a filter its facets; and
    under 'block' and 'gblock' its clique number, the largest facet, and
    its classification: chordal and generalized block, and a block graph
    when every meet _add_vertex tested on the way was a single vertex.
    """
    if n > 7:
        raise SizeCap(f"enumeration is exponential in C(n,2); n={n} > 7")
    if n < 1:
        raise ValueError("need n >= 1")
    want = classification or "all"
    if want not in _FILTERS:
        raise ValueError(f"unknown filter {classification!r}; options: {_FILTERS}")

    full = (1 << n) - 1
    adj = [0] * n
    own: list[list[tuple[int, int]]] = [[] for _ in range(n)]  # each vertex's edges to later ones

    def place(k: int, facets: list[int], block: bool):
        if k < 0:
            edges = list(chain.from_iterable(own))
            g = Graph(n, frozenset(edges))
            cache = vars(g)
            cache["_adj"] = list(adj)
            cache["_edge_list"] = edges
            cache["_components"] = [full]
            if want != "all":
                cache["_facets"] = (facets, True)
                if want != "chordal":
                    omega = cache["_clique_number"] = max(map(int.bit_count, facets))
                    cache["_classification"] = Classification(True, block, True, omega)
            yield g
            return
        bit = 1 << k
        placed = full & ~((bit << 1) - 1)
        # a last vertex that misses a component leaves the graph disconnected
        comps = _component_masks(adj, placed) if k == 0 else ()
        for m in range(1 << (n - 1 - k)):
            nbrs = m << (k + 1)
            if comps and not all(nbrs & c for c in comps):
                continue
            out, out_block = facets, block
            if want != "all":
                added = _add_vertex(adj, facets, placed, k, nbrs, want)
                if added is None:
                    continue
                out, new_block = added
                out_block = block and new_block
            adj[k] = nbrs
            own[k] = [(k + 1, w + 1) for w in _bits(nbrs)]
            for w in _bits(nbrs):
                adj[w] |= bit
            yield from place(k - 1, out, out_block)
            for w in _bits(nbrs):
                adj[w] ^= bit

    yield from place(n - 2, [1 << (n - 1)], True)
