"""Simplicial homology oracle for squarefree monomial quotients.

A squarefree monomial ideal corresponds to a simplicial complex whose
minimal nonfaces are the generator supports.  Hochster's formula turns the
bigraded Betti numbers of the quotient into ranks of reduced homology of
induced subcomplexes,

    beta_{i,sigma}(S/I) = rank Htilde_{|sigma| - i - 1}(complex restricted
    to sigma),

and depth, projective dimension and regularity fall out of the table
(depth = N - projdim by Auslander-Buchsbaum, reg = max j - i).  Homology is
computed over GF(2), with boundary columns packed into integer bitsets, and
the result is accepted only when a certificate proves it equal to the
homology over the rationals (see _homology_vector); otherwise the ranks are
recomputed over the rationals by exact integer elimination.  Either way
every rank is exact: the oracle involves no floating point, no randomness
and no external algebra system.  It shares nothing with the closed-form
formulas or the Groebner engine beyond the monomial type and the SizeCap
error, which is what makes it a genuine cross-check.

A subset with a vertex lying in no generator support inside it induces a
cone, hence contributes nothing; the subsets that remain are exactly the
unions of generator supports.  These are visited in ascending int order,
where every sub-union comes first, and each restriction is settled by the
first of four exact rules, reading smaller restrictions from a memo kept
for the one call (_restriction_vectors):

- sphere: a generator alone restricts to the boundary of a simplex, whose
  vector is known;
- collapse: a vertex whose link is a cone (a dominated vertex, in the
  sense of Barmak-Minian's strong collapses) is removed without changing
  the homotopy type, so the restriction has the homology of a smaller one;
  the test reads masks computed once per call from the generators, one
  AND per nonface inside the subset (_collapse_steps);
- join: when the generators inside the subset split into vertex-disjoint
  groups the restriction is a join, and its homology is the convolution of
  the groups' (Kuenneth over a field);
- otherwise the faces are enumerated and ranked over GF(2) with the
  certificate above.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from math import comb, gcd

from .graphs import SizeCap
from .poly import Monomial, VarGrid

# the largest variable count (grid size) the oracle attempts
MAX_ORACLE_VARS = 16


def _support_mask(m: Monomial, grid: VarGrid) -> int:
    if not m.is_squarefree():
        raise ValueError(f"non-squarefree generator {m.render()}")
    mask = 0
    for v in m.support:
        mask |= 1 << grid.index(v)
    return mask


def _prune_masks(masks) -> tuple[int, ...]:
    # inclusion-minimal supports, in ascending int order, where a subset
    # comes before its supersets
    kept: list[int] = []
    for m in sorted(set(masks)):
        if m == 0:
            raise ValueError("constant generator: the ideal is the whole ring")
        if not any(k & m == k for k in kept):
            kept.append(m)
    return tuple(kept)


# ---------------------------------------------------------------------------
# exact rank of sparse integer matrices

def _rank(columns) -> int:
    """Rank over Q of a matrix given as sparse columns {row: int}."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for col in columns:
        col = dict(col)
        while col:
            r = min(col)
            p = pivots.get(r)
            if p is None:
                pivots[r] = col
                rank += 1
                break
            a, b = col[r], p[r]
            g = gcd(a, b)
            ca, cb = b // g, a // g
            nxt = {k: ca * v for k, v in col.items()}
            for k, v in p.items():
                s = nxt.get(k, 0) - cb * v
                if s:
                    nxt[k] = s
                else:
                    nxt.pop(k, None)
            col = nxt
            if col:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                if g > 1:
                    col = {k: v // g for k, v in col.items()}
    return rank


# ---------------------------------------------------------------------------
# reduced homology of a restriction, with the join shortcut

def _faces_by_size(vertices: tuple[int, ...], nonfaces: tuple[int, ...]):
    """Subsets of `vertices` (ascending) containing no nonface, grouped by
    cardinality.  Faces are bitmasks; layer k lists the faces of k vertices.

    Each face is reached once, by appending a vertex v above its current
    maximum.  The face it extends contains no nonface, so a nonface can only
    fit when v is its top vertex: only those nonfaces are tested, each by
    the rest of its vertices."""
    below_top: dict[int, list[int]] = {}
    for nf in nonfaces:
        top = 1 << (nf.bit_length() - 1)
        below_top.setdefault(top, []).append(nf ^ top)
    steps = [(1 << v, below_top.get(1 << v, ())) for v in vertices]
    # the steps that may extend a face, keyed by the face's bit_length
    after = {0: steps}
    for i, v in enumerate(vertices):
        after[v + 1] = steps[i + 1:]
    layers = [[0]]
    frontier = [0]
    while frontier:
        nxt = []
        for face in frontier:
            for bit, rests in after[face.bit_length()]:
                for rest in rests:
                    if rest & face == rest:
                        break
                else:
                    nxt.append(face | bit)
        if nxt:
            layers.append(nxt)
        frontier = nxt
    return layers


def _boundary_rank(lower: list[int], upper: list[int]) -> int:
    """Rank over Q of the simplicial boundary map from span(upper) to
    span(lower)."""
    if not lower or not upper:
        return 0
    row_of = {face: idx for idx, face in enumerate(lower)}
    cols = []
    for face in upper:
        col = {}
        sign = 1
        # walk vertices of the face from lowest bit to highest
        rest = face
        while rest:
            bit = rest & -rest
            col[row_of[face ^ bit]] = sign
            sign = -sign
            rest ^= bit
        cols.append(col)
    return _rank(cols)


def _boundary_rank_mod2(lower: list[int], upper: list[int]) -> int:
    """Rank over GF(2) of the simplicial boundary map from span(upper) to
    span(lower).  Each column is an int whose bit i stands for lower[i];
    a column is reduced by the pivot column sharing its highest set bit
    until it vanishes or brings a new pivot."""
    if not lower or not upper:
        return 0
    bit_of = {face: 1 << idx for idx, face in enumerate(lower)}
    pivots: dict[int, int] = {}
    for face in upper:
        col = 0
        rest = face
        while rest:
            bit = rest & -rest
            col |= bit_of[face ^ bit]
            rest ^= bit
        while col:
            p = pivots.get(col.bit_length())
            if p is None:
                pivots[col.bit_length()] = col
                break
            col ^= p
    return len(pivots)


def _vector_from_ranks(layers: list[list[int]], boundary_rank) -> tuple[int, ...]:
    # ranks[k] = rank of the boundary map from k-vertex faces to (k-1)-vertex
    # faces; the map from single vertices to the empty face is augmentation.
    top = len(layers) - 1
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        if k == 1:
            ranks[1] = 1 if layers[1] else 0
        else:
            ranks[k] = boundary_rank(layers[k - 1], layers[k])
    return tuple(len(layers[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1))


def _homology_vector(vertices: tuple[int, ...], nonfaces: tuple[int, ...]) -> tuple[int, ...]:
    """Ranks of reduced homology over Q of the complex on `vertices` with the
    given minimal nonfaces, as a vector indexed by dimension + 1 (entry 0 is
    Htilde_{-1}, entry k is Htilde_{k-1}).

    The vector is computed over GF(2) and kept only when it is nonzero in at
    most one degree, which certifies that it equals the vector over Q:

    - by the universal coefficient theorem, Htilde_k(F_2) is
      Htilde_k(Z) (x) F_2 plus Tor(Htilde_{k-1}(Z), F_2), so
      dim Htilde_k(Q) <= dim Htilde_k(F_2) in every degree;
    - over any field the alternating sum of the vector is the reduced Euler
      characteristic, the alternating sum of the face counts;
    - so where the GF(2) vector is zero the vector over Q is zero too, and
      in the one remaining degree the Euler characteristic makes the two
      equal.

    Otherwise (2-torsion may be present) the ranks are recomputed over Q by
    exact integer elimination on the same face layers.
    """
    layers = _faces_by_size(vertices, nonfaces)
    vec = _vector_from_ranks(layers, _boundary_rank_mod2)
    if sum(1 for h in vec if h) > 1:
        vec = _vector_from_ranks(layers, _boundary_rank)
    return vec


def _convolve(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _split_groups(inside: tuple[int, ...]) -> list[int]:
    """Vertex masks of the connected groups of the given generators."""
    groups: list[int] = []
    for g in inside:
        merged = g
        rest = []
        for grp in groups:
            if grp & merged:
                merged |= grp
            else:
                rest.append(grp)
        rest.append(merged)
        groups = rest
    return sorted(groups)


def _collapse_steps(gens: tuple[int, ...]) -> dict[int, list[tuple[int, int]]]:
    """For each vertex bit w, the pairs (N, Q) over the minimal nonfaces N
    containing w, where Q is the set of vertices x outside N for which
    (N - w) + x contains a nonface.  _dominated_vertex reads these for
    every union; see there for why they do not depend on the union.

    Such a nonface M is not inside N - w, a proper part of N, so M - N is
    exactly {x} and M misses w: Q is the OR of the single vertices M - N
    over the nonfaces M that miss w."""
    steps: dict[int, list[tuple[int, int]]] = {}
    for n in gens:
        near = [(m, x) for m in gens if (x := m & ~n) and not x & (x - 1)]
        rest = n
        while rest:
            w = rest & -rest
            rest ^= w
            reach = 0
            for m, x in near:
                if not m & w:
                    reach |= x
            steps.setdefault(w, []).append((n, reach))
    return steps


def _dominated_vertex(sigma: int, steps: dict[int, list[tuple[int, int]]]) -> int:
    """The bit of a dominated vertex v of sigma, or 0 when there is none.
    D is the restriction to sigma, and `steps` is _collapse_steps of the
    minimal nonfaces; the lowest w with a candidate picks the vertex.

    v is dominated by w != v in sigma when every nonface N containing w
    misses v and (N - w) + v contains a nonface.  If v is a vertex of D,
    this says that its link L = {F : F + v in D} is a cone with apex w:

    - if it holds, take F in L with F + w outside L.  Some N inside F + v +
      w contains w, since F + v is a face; then (N - w) + v lies inside the
      face F + v and yet contains a nonface.  So no such F exists, and with
      F empty w is a vertex of L;
    - if it fails for N, then F = N - w - v lies in L (F + v is N - w
      when v is in N, and (N - w) + v otherwise, a face either way),
      while F + w + v contains N, so F + w is not in L.

    If v is no vertex of D ({v} is a nonface, a linear generator), the
    condition holds for every w, and D is the restriction to sigma - v.

    A nonface M inside (N - w) + v is not inside N - w, a proper part of
    N, so M - (N - w) is exactly {v}.  Hence each N containing w allows
    the single bits of M - (N - w) outside N, and the candidates v for
    one w are narrowed by all such N inside sigma at once, as bitmasks.
    Such an M is a part of N - w plus one bit x, and N is inside sigma,
    so M is inside sigma iff x is in sigma.  So within sigma the bits
    allowed are those of Q, taken once over all nonfaces, and since the
    candidates lie in sigma they are narrowed by Q alone.
    """
    rest = sigma
    while rest:
        w = rest & -rest
        rest ^= w
        cand = sigma ^ w
        for n, q in steps.get(w, ()):
            if n & sigma == n:
                cand &= q
                if not cand:
                    break
        if cand:
            return cand & -cand
    return 0


def _union_closure(gens) -> set[int]:
    """Every union of a nonempty subset of gens, as a fold from the empty
    union: after g the set holds the earlier unions and each of them
    joined with g."""
    closure = {0}
    for g in gens:
        closure.update([s | g for s in closure])
    closure.discard(0)
    return closure


def _restriction_vectors(gens: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Reduced homology ranks over Q of the restriction to sigma, indexed by
    dimension + 1, for each union sigma of the given minimal nonfaces (the
    other restrictions are cones); only nonzero vectors are kept.

    The unions are built by a fold over the generators (_union_closure)
    and visited in ascending int order: a proper subset is a smaller int,
    so this order puts every sub-union first.  Each is settled by the
    first of four rules that applies, reading smaller unions from the
    dict:

    - Sphere.  A generator g alone restricts to the boundary of the
      simplex on g, a (|g| - 2)-sphere ({empty face} when |g| = 1), so
      its vector is a 1 at index |g| - 1; these seed the dict.
    - Collapse.  Some v in sigma is dominated (_dominated_vertex, reading
      the masks _collapse_steps builds once for the call): either
      v is no vertex of the restriction D, which then equals the
      restriction to sigma - v, or its link L in D is a cone.  In the
      second case D is the union of the restriction to sigma - v and the
      star v * L, glued along L; the star and L are cones, hence
      contractible, so by Mayer-Vietoris D has the reduced homology over Z,
      and so the ranks over Q, of the restriction to sigma - v.  That
      vector is read from the dict and stored for sigma as it is; if it
      is missing, either it is zero or sigma - v is not a union of
      nonfaces, so that restriction is a cone and the vector is zero
      anyway.
    - Join.  The nonfaces inside sigma, listed only for the unions no
      collapse settles, fall into more than one connected group.  D is
      the join of the restrictions to the groups, each a smaller union,
      and over a field the vector of a join is the convolution of the
      factors' vectors (Kuenneth).
    - Otherwise the faces are enumerated and ranked (_homology_vector).

    The dict is the memo of this one call.
    """
    steps = _collapse_steps(gens)
    vectors = {g: (0,) * (g.bit_count() - 1) + (1,) for g in gens}
    for sigma in sorted(_union_closure(gens).difference(gens)):
        v = _dominated_vertex(sigma, steps)
        if v:
            if vec := vectors.get(sigma ^ v):
                vectors[sigma] = vec
            continue
        inside = tuple(g for g in gens if g & sigma == g)
        groups = _split_groups(inside)
        if len(groups) > 1:
            parts = [vectors.get(grp) for grp in groups]
            vec = None if None in parts else reduce(_convolve, parts)
        else:
            vertices = tuple(u for u in range(sigma.bit_length()) if sigma >> u & 1)
            vec = _homology_vector(vertices, inside)
        if vec and any(vec):
            vectors[sigma] = vec
    return vectors


# ---------------------------------------------------------------------------
# Hochster's formula

@dataclass(frozen=True)
class BettiTable:
    """Bigraded Betti numbers of S/I, entries (i, j) -> beta_{i,j}."""

    ambient: int
    entries: dict[tuple[int, int], int]

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def depth(self) -> int:
        return self.ambient - self.projective_dimension()

    def regularity(self) -> int:
        return max(j - i for i, j in self.entries)

    def alternating_numerator(self) -> dict[int, int]:
        """Coefficients of sum (-1)^i beta_{i,j} t^j, the numerator of the
        Hilbert series of S/I over (1-t)^ambient."""
        out: dict[int, int] = {}
        for (i, j), b in self.entries.items():
            s = out.get(j, 0) + (b if i % 2 == 0 else -b)
            if s:
                out[j] = s
            else:
                out.pop(j, None)
        return out

    def render(self) -> str:
        pd = self.projective_dimension()
        reg = self.regularity()
        width = max(len(str(b)) for b in self.entries.values())
        width = max(width, len(str(pd)))
        head = ["      "] + [str(i).rjust(width) for i in range(pd + 1)]
        lines = [" ".join(head)]
        for r in range(reg + 1):
            cells = []
            for i in range(pd + 1):
                b = self.beta(i, i + r)
                cells.append((str(b) if b else ".").rjust(width))
            lines.append(f"{r}: ".rjust(7) + " ".join(cells))
        return "\n".join(lines)


def hochster_betti(gens, grid: VarGrid) -> BettiTable:
    """Full bigraded Betti table of S/I for a squarefree monomial ideal.

    Only unions of generator supports are visited, since every other
    restriction is a cone; see _restriction_vectors.
    """
    n = grid.size
    if n > MAX_ORACLE_VARS:
        raise SizeCap(f"{n} variables exceeds the oracle cap of {MAX_ORACLE_VARS}")
    masks = _prune_masks(_support_mask(m, grid) for m in gens)
    tally = Counter((sigma.bit_count(), vec) for sigma, vec in _restriction_vectors(masks).items())
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for (size, vec), times in tally.items():
        for k, r in enumerate(vec):
            if not r:
                continue
            i = size - k
            if i < 1:
                raise AssertionError("restriction with a nonface cannot be a simplex")
            entries[(i, size)] = entries.get((i, size), 0) + r * times
    return BettiTable(ambient=n, entries=entries)


# ---------------------------------------------------------------------------
# Hilbert series consistency

def hilbert_numerator(gens, grid: VarGrid) -> dict[int, int]:
    """Numerator of the Hilbert series of S/I over (1-t)^N, by
    inclusion-exclusion over joint supports of generator subsets: each
    subset A contributes (-1)^|A| t^(size of union of supports).  Computed
    as a union-mask dynamic program, so duplicate unions collapse."""
    masks = _prune_masks(_support_mask(m, grid) for m in gens)
    acc: dict[int, int] = {0: 1}
    for g in masks:
        nxt = dict(acc)
        for mask, c in acc.items():
            u = mask | g
            s = nxt.get(u, 0) - c
            if s:
                nxt[u] = s
            else:
                nxt.pop(u, None)
        acc = nxt
    out: dict[int, int] = {}
    for mask, c in acc.items():
        d = mask.bit_count()
        s = out.get(d, 0) + c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def hilbert_check(gens, grid: VarGrid, table: BettiTable | None = None) -> bool:
    """Do the Betti numbers reproduce the Hilbert function of S/I?

    Both sides are expanded to the truncated Hilbert function at degrees
    0..N, which pins the numerator polynomials down exactly: the Betti side
    through sum (-1)^i beta_{i,j} t^j / (1-t)^N, the ideal side through
    inclusion-exclusion counting of the monomials outside I.
    """
    if table is None:
        table = hochster_betti(gens, grid)
    n = grid.size
    lhs = table.alternating_numerator()
    rhs = hilbert_numerator(gens, grid)

    def value(numer: dict[int, int], k: int) -> int:
        return sum(c * comb(n - 1 + k - d, n - 1) for d, c in numer.items() if d <= k)

    return all(value(lhs, k) == value(rhs, k) for k in range(n + 1))
