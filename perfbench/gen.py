"""Seeded benchmark inputs: generalized block graphs glued from cliques,
random vertex relabelings, and the connected graphs on four vertices.

Nothing here imports gbei, so the inputs and the checks on them do not
depend on the code being measured.  Graphs are (n, edges) pairs with
vertices 1..n and edges as sorted (u, v) tuples with u < v.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations


def _adjacency(n: int, edges) -> list[set[int]]:
    adj = [set() for _ in range(n + 1)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def is_connected(n: int, edges) -> bool:
    adj = _adjacency(n, edges)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def maximal_cliques(n: int, edges) -> list[frozenset[int]] | None:
    """Maximal cliques of a chordal graph, or None when the graph is not
    chordal.  Maximum cardinality search gives the reverse of a perfect
    elimination order; the earlier-visited neighbours of each vertex must
    then form a clique."""
    adj = _adjacency(n, edges)
    weight = [0] * (n + 1)
    visited: list[int] = []
    placed = set()
    for _ in range(n):
        v = max((w for w in range(1, n + 1) if w not in placed), key=lambda w: (weight[w], -w))
        earlier = adj[v] & placed
        for a, b in combinations(earlier, 2):
            if b not in adj[a]:
                return None
        visited.append(v)
        placed.add(v)
        for w in adj[v]:
            weight[w] += 1
    candidates = []
    placed = set()
    for v in visited:
        candidates.append(frozenset({v} | (adj[v] & placed)))
        placed.add(v)
    return [c for c in set(candidates) if not any(c < d for d in candidates)]


def is_gblock(n: int, edges) -> bool:
    """Chordal, and any three maximal cliques with a common vertex have
    pairwise equal intersections."""
    cliques = maximal_cliques(n, edges)
    if cliques is None:
        return False
    for a, b, c in combinations(cliques, 3):
        if a & b & c and not (a & b == b & c == a & c):
            return False
    return True


def glue_cliques(rng: random.Random, n: int, max_clique: int) -> tuple[int, list[tuple[int, int]]]:
    """A connected generalized block graph on n vertices.

    Starts from one clique and repeatedly glues a new clique along a proper
    subset S of an existing maximal clique C.  S must either miss every
    other maximal clique or be exactly the common cut C shares with it;
    that keeps every triple of cliques through a vertex meeting pairwise in
    one set, which is the generalized-block condition.
    """
    if n < 2 or max_clique < 2:
        raise ValueError("need n >= 2 and max_clique >= 2")
    first = min(rng.randint(2, max_clique), n)
    cliques = [frozenset(range(1, first + 1))]
    used = first
    while used < n:
        size = rng.randint(2, max_clique)
        host = rng.choice(cliques)
        if len(host) < 2:
            continue
        cut = frozenset(rng.sample(sorted(host), rng.randint(1, min(len(host) - 1, size - 1))))
        if any(d is not host and d & cut and d & host != cut for d in cliques):
            continue
        fresh = min(size - len(cut), n - used)
        cliques.append(cut | frozenset(range(used + 1, used + fresh + 1)))
        used += fresh
    edges = sorted({pair for c in cliques for pair in combinations(sorted(c), 2)})
    if not (is_connected(n, edges) and is_gblock(n, edges)):
        raise AssertionError(f"clique gluing broke the generalized-block condition: {edges}")
    return n, edges


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges)


def canonical(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Lexicographically least edge list over all relabelings.  Brute force,
    so only for the small catalogues (n <= 7)."""
    if n > 7:
        raise ValueError(f"brute-force canonical form is for n <= 7, got {n}")
    best = None
    for perm in permutations(range(1, n + 1)):
        form = tuple(sorted(tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges))
        if best is None or form < best:
            best = form
    return best


def shape_key(n: int, edges) -> str:
    """Reference key of an unlabeled shape: its representative edge list."""
    return f"{n}:" + ",".join(f"{u}-{v}" for u, v in edges)


def connected_shapes(n: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in canonical form (brute force, n <= 5)."""
    if n > 5:
        raise ValueError(f"exhaustive shape list is for n <= 5, got {n}")
    pairs = list(combinations(range(1, n + 1), 2))
    forms = set()
    for mask in range(1 << len(pairs)):
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        if is_connected(n, edges):
            forms.add(canonical(n, edges))
    return [(n, list(form)) for form in sorted(forms, key=lambda f: (len(f), f))]


def gblock_shapes(n: int, count: int, max_clique: int, seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """`count` pairwise distinct glued shapes on n vertices from a fixed
    catalogue seed.  Distinct means distinct representatives; for n <= 7 it
    also means non-isomorphic."""
    rng = random.Random(f"catalogue/{n}/{max_clique}/{seed}")
    seen = set()
    out = []
    for _ in range(200 * count):
        g = glue_cliques(rng, n, max_clique)
        key = canonical(*g) if n <= 7 else tuple(g[1])
        if key in seen:
            continue
        seen.add(key)
        out.append((n, list(key)) if n <= 7 else g)
        if len(out) == count:
            return out
    raise ValueError(f"found only {len(out)} distinct shapes on {n} vertices")
