"""Exact multivariate polynomial arithmetic over a grid of variables.

The ring is Q[x[i,j] : 1 <= i <= m, 1 <= j <= n] for a fixed m x n grid.
A single monomial order is used everywhere: lexicographic with row-major
variable precedence

    x[1,1] > x[1,2] > ... > x[1,n] > x[2,1] > ... > x[m,n].

A variable is identified by its (row, col) pair, and precedence is exactly
ascending tuple order on those pairs.  Ideal intersection uses one auxiliary
elimination variable ranked above the whole grid; it gets the reserved key
(0, 0) so the same comparison logic covers the extended ring.

Coefficients are fractions.Fraction throughout.  Nothing here is randomized
and every operation returns results in a deterministic order, so Groebner
bases can be compared verbatim and frozen into golden tests.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from heapq import heapify, heappop, heappush

Var = tuple[int, int]

# Auxiliary elimination variable, strictly above every grid variable.
ELIM: Var = (0, 0)


class VarGrid:
    """Shape of the variable grid: `rows` x `cols` indeterminates."""

    __slots__ = ("rows", "cols")

    def __init__(self, rows: int, cols: int):
        if rows < 2:
            raise ValueError(f"need at least 2 rows, got {rows}")
        if cols < 1:
            raise ValueError(f"need at least 1 column, got {cols}")
        self.rows = rows
        self.cols = cols

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def variables(self) -> list[Var]:
        """All grid variables in decreasing precedence (row-major) order."""
        return [(i, j) for i in range(1, self.rows + 1) for j in range(1, self.cols + 1)]

    def index(self, var: Var) -> int:
        """Row-major position of `var`, 0-based; the order-precedence rank."""
        i, j = var
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise ValueError(f"variable {var} outside {self.rows}x{self.cols} grid")
        return (i - 1) * self.cols + (j - 1)

    def __eq__(self, other):
        return isinstance(other, VarGrid) and (self.rows, self.cols) == (other.rows, other.cols)

    def __hash__(self):
        return hash((self.rows, self.cols))

    def __repr__(self):
        return f"VarGrid({self.rows}, {self.cols})"


class Monomial:
    """Immutable power product.

    Exponents are stored as a tuple of ((row, col), e) pairs with e > 0,
    sorted by variable key.  Since precedence is ascending key order, the
    stored tuple lists variables from most to least significant, which makes
    the lexicographic comparison a single merge pass.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: tuple[tuple[Var, int], ...] = ()):
        self.exps = exps

    @staticmethod
    def make(mapping: dict[Var, int]) -> "Monomial":
        items = tuple(sorted((v, e) for v, e in mapping.items() if e))
        for _, e in items:
            if e < 0:
                raise ValueError("negative exponent")
        return Monomial(items)

    @staticmethod
    def of(var: Var, power: int = 1) -> "Monomial":
        return Monomial(((var, power),)) if power else ONE

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    @property
    def support(self) -> tuple[Var, ...]:
        return tuple(v for v, _ in self.exps)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.exps)

    def __mul__(self, other: "Monomial") -> "Monomial":
        d = dict(self.exps)
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial(tuple(sorted(d.items())))

    def divides(self, other: "Monomial") -> bool:
        eb = dict(other.exps)
        for v, e in self.exps:
            if eb.get(v, 0) < e:
                return False
        return True

    def __truediv__(self, other: "Monomial") -> "Monomial":
        d = dict(self.exps)
        for v, e in other.exps:
            r = d.get(v, 0) - e
            if r < 0:
                raise ValueError(f"{other} does not divide {self}")
            if r:
                d[v] = r
            else:
                d.pop(v, None)
        return Monomial(tuple(sorted(d.items())))

    def lcm(self, other: "Monomial") -> "Monomial":
        d = dict(self.exps)
        for v, e in other.exps:
            if d.get(v, 0) < e:
                d[v] = e
        return Monomial(tuple(sorted(d.items())))

    def coprime(self, other: "Monomial") -> bool:
        vs = {v for v, _ in self.exps}
        return all(v not in vs for v, _ in other.exps)

    def _cmp(self, other: "Monomial") -> int:
        """Lexicographic comparison: 1 if self > other, -1 if <, 0 if equal."""
        a, b = self.exps, other.exps
        ia = ib = 0
        while ia < len(a) and ib < len(b):
            (va, xa), (vb, xb) = a[ia], b[ib]
            if va == vb:
                if xa != xb:
                    return 1 if xa > xb else -1
                ia += 1
                ib += 1
            elif va < vb:
                # self has positive exponent on a more significant variable
                return 1
            else:
                return -1
        if ia < len(a):
            return 1
        if ib < len(b):
            return -1
        return 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def render(self) -> str:
        if not self.exps:
            return "1"
        parts = []
        for (i, j), e in self.exps:
            name = "t" if (i, j) == ELIM else f"x[{i},{j}]"
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def __repr__(self):
        return self.render()


ONE = Monomial(())


class Polynomial:
    """Sparse polynomial: a map from Monomial to nonzero Fraction.

    `terms` is never mutated after construction; every operation returns a
    new polynomial.  The leading monomial is therefore cached on first use.
    """

    __slots__ = ("terms", "_lead")

    def __init__(self, terms: dict[Monomial, Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self._lead = None

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def variable(var: Var) -> "Polynomial":
        return Polynomial({Monomial.of(var): Fraction(1)})

    @staticmethod
    def term(mono: Monomial, coeff=1) -> "Polynomial":
        return Polynomial({mono: Fraction(coeff)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m, 0) + c
            if s:
                d[m] = s
            else:
                d.pop(m, None)
        return Polynomial(d)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m, 0) - c
            if s:
                d[m] = s
            else:
                d.pop(m, None)
        return Polynomial(d)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        d: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                s = d.get(m, 0) + c1 * c2
                if s:
                    d[m] = s
                else:
                    d.pop(m, None)
        return Polynomial(d)

    def scaled(self, coeff, mono: Monomial = ONE) -> "Polynomial":
        """coeff * mono * self, the building block of division steps."""
        c0 = Fraction(coeff)
        if not c0:
            return Polynomial()
        return Polynomial({m * mono: c * c0 for m, c in self.terms.items()})

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading (monomial, coefficient) under the fixed lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        if self._lead is None:
            self._lead = max(self.terms)
        return self._lead, self.terms[self._lead]

    def leading_monomial(self) -> Monomial:
        return self.leading()[0]

    def monic(self) -> "Polynomial":
        _, c = self.leading()
        if c == 1:
            return self
        return Polynomial({m: k / c for m, k in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def render(self) -> str:
        if not self.terms:
            return "0"
        out = []
        for idx, (m, c) in enumerate(self.sorted_terms()):
            neg = c < 0
            mag = -c if neg else c
            if m is ONE or not m.exps:
                body = str(mag)
            elif mag == 1:
                body = m.render()
            else:
                body = f"{mag}*{m.render()}"
            if idx == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(out)

    def __repr__(self):
        return self.render()

    def __str__(self):
        return self.render()


def normal_form(f: Polynomial, basis: list[Polynomial] | tuple[Polynomial, ...]) -> Polynomial:
    """Remainder of multivariate division of f by the given basis.

    Full reduction: no term of the result is divisible by any basis leading
    monomial.  The divisor tried first is always the earliest basis element,
    so the reduction path is deterministic for a fixed basis order.
    """
    if type(basis) is _GrowingBasis:
        return _reduce(f, basis.divisors)
    return _reduce(f, [(g.leading_monomial(), g) for g in basis if g])


def _reduce(f: Polynomial, divisors: list[tuple[Monomial, Polynomial]]) -> Polynomial:
    """normal_form against (lead, element) pairs, tried in order."""
    work = dict(f.terms)
    rem: dict[Monomial, Fraction] = {}
    while work:
        m = max(work)
        c = work.pop(m)
        for lm, g in divisors:
            if lm.divides(m):
                # cancel c*m against the divisor's leading term
                lmono, lc = g.leading()
                factor = m / lm
                scale = c / lc
                for gm, gc in g.terms.items():
                    if gm == lmono:
                        continue
                    key = gm * factor
                    s = work.get(key, 0) - gc * scale
                    if s:
                        work[key] = s
                    else:
                        work.pop(key, None)
                break
        else:
            rem[m] = c
    return Polynomial(rem)


class _GrowingBasis(list):
    """The basis of a Buchberger run, which keeps the (lead, element) pair of
    each element as it grows, so that normal_form need not rebuild them on
    every reduction against it."""

    def __init__(self, elements):
        super().__init__(elements)
        self.divisors = [(g.leading_monomial(), g) for g in self]

    def append(self, g: Polynomial) -> None:
        super().append(g)
        self.divisors.append((g.leading_monomial(), g))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, cf = f.leading()
    lg, cg = g.leading()
    l = lf.lcm(lg)
    return f.scaled(Fraction(1) / cf, l / lf) - g.scaled(Fraction(1) / cg, l / lg)


def _interreduce(basis: list[Polynomial]) -> tuple[Polynomial, ...]:
    """Turn a Groebner basis into the reduced Groebner basis."""
    monic = [g.monic() for g in basis if g]
    # drop elements whose lead is divisible by another retained lead;
    # ascending sort means any proper divisor was seen first
    monic.sort(key=lambda g: g.leading_monomial())
    kept: list[Polynomial] = []
    for g in monic:
        lm = g.leading_monomial()
        if not any(h.leading_monomial().divides(lm) for h in kept):
            kept.append(g)
    # tail-reduce each element against all the others; leads are untouched
    reduced = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        reduced.append(normal_form(g, others).monic())
    reduced.sort(key=lambda g: g.leading_monomial(), reverse=True)
    return tuple(reduced)


def _skip_pair(leads: list[Monomial], i: int, j: int, done: set[tuple[int, int]]) -> bool:
    """Whether the S-pair (i, j), i < j, may be dropped: its leads are
    coprime, or (chain criterion, Gebauer-Moeller 1988) some other lead
    divides their lcm and both of its pairs with i and j are in `done`."""
    if leads[i].coprime(leads[j]):
        return True
    l = leads[i].lcm(leads[j])
    for k, lk in enumerate(leads):
        if k in (i, j) or not lk.divides(l):
            continue
        if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
            return True
    return False


def buchberger(gens) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Classic Buchberger loop with the normal selection strategy (pairs with
    the smallest lcm first) plus the coprimality and chain criteria.  The
    pair queue is a heap keyed once per pair, when the pair is created, on
    (lcm degree, lcm, i, j); the keys are unique, so pairs are popped in
    exactly the normal-selection order.  The result is the unique reduced
    basis, monic and sorted by decreasing leading monomial.
    """
    basis = _GrowingBasis(f.monic() for f in gens if f)
    if not basis:
        return ()

    leads = [g.leading_monomial() for g in basis]
    done: set[tuple[int, int]] = set()

    def pair_key(i, j):
        l = leads[i].lcm(leads[j])
        return (l.degree, l, i, j)

    pairs = [pair_key(i, j) for j in range(len(basis)) for i in range(j)]
    heapify(pairs)
    while pairs:
        _, _, i, j = heappop(pairs)
        done.add((i, j))
        if _skip_pair(leads, i, j, done):
            continue
        h = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if h:
            h = h.monic()
            basis.append(h)
            leads.append(h.leading_monomial())
            t = len(basis) - 1
            for k in range(t):
                heappush(pairs, pair_key(k, t))
    return _interreduce(basis)


def is_groebner_basis(basis) -> bool:
    """Buchberger criterion: every S-polynomial of the set reduces to zero.

    Pairs dismissed by the coprimality or chain criterion are skipped, which
    never changes the verdict.
    """
    basis = [g for g in basis if g]
    leads = [g.leading_monomial() for g in basis]
    done: set[tuple[int, int]] = set()
    for j in range(len(basis)):
        for i in range(j):
            done.add((i, j))
            if not _skip_pair(leads, i, j, done) and normal_form(s_polynomial(basis[i], basis[j]), basis):
                return False
    return True


def is_reduced_basis(basis) -> bool:
    """Monic, and no term of any element is divisible by another's lead."""
    basis = list(basis)
    for g in basis:
        if not g or g.leading()[1] != 1:
            return False
    for i, g in enumerate(basis):
        for j, h in enumerate(basis):
            if i == j:
                continue
            lm = h.leading_monomial()
            if any(lm.divides(m) for m in g.terms):
                return False
    return True


class Ideal:
    """An ideal given by generators, with a lazily cached reduced basis.

    Instances are treated as immutable; the cache is written at most once.
    Equality of the mathematical ideals is `ideal_equal`, not `==`.
    """

    __slots__ = ("generators", "_gb")

    def __init__(self, generators, groebner=None):
        self.generators = tuple(g for g in generators if g)
        self._gb = tuple(groebner) if groebner is not None else None

    def groebner(self) -> tuple[Polynomial, ...]:
        if self._gb is None:
            self._gb = buchberger(self.generators)
        return self._gb

    def initial_monomials(self) -> tuple[Monomial, ...]:
        """Leading monomials of the reduced basis: the initial ideal's
        minimal generators."""
        return tuple(g.leading_monomial() for g in self.groebner())

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators)"


def ideal_membership(f: Polynomial, ideal: Ideal) -> bool:
    return not normal_form(f, ideal.groebner())


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Mathematical equality via uniqueness of the reduced Groebner basis;
    two ideals on the same generators are equal without one."""
    return a.generators == b.generators or set(a.groebner()) == set(b.groebner())


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection of two ideals by single-variable elimination.

    Works in the extended ring with the auxiliary variable t above the grid:
    the intersection is (t*A + (1-t)*B) with t eliminated.  Exponential in
    the worst case; fine for the intended small instances, a warning is
    emitted beyond 8 grid variables.
    """
    used = {v for g in (*a.generators, *b.generators) for m in g.terms for v in m.support}
    used.discard(ELIM)
    if len(used) > 8:
        warnings.warn(
            f"ideal intersection over {len(used)} variables may be very slow",
            RuntimeWarning,
            stacklevel=2,
        )
    t = Polynomial.variable(ELIM)
    one = Polynomial.term(ONE, 1)
    mixed = [t * f for f in a.generators]
    mixed.extend((one - t) * g for g in b.generators)
    gb = buchberger(mixed)
    # t ranks above the grid, so the t-free part is the reduced basis
    # of the eliminated ideal
    kept = tuple(g for g in gb if not any(v == ELIM for m in g.terms for v in m.support))
    return Ideal(kept, groebner=kept)


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
