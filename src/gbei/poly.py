"""Exact multivariate polynomial arithmetic over a grid of variables.

The ring is Q[x[i,j] : 1 <= i <= m, 1 <= j <= n] for a fixed m x n grid.
A single monomial order is used everywhere: lexicographic with row-major
variable precedence

    x[1,1] > x[1,2] > ... > x[1,n] > x[2,1] > ... > x[m,n].

A variable is identified by its (row, col) pair, and precedence is exactly
ascending tuple order on those pairs.  Ideal intersection uses one auxiliary
elimination variable ranked above the whole grid; it gets the reserved key
(0, 0) so the same comparison logic covers the extended ring.  The order
is stated once per representation: by Monomial._key, and for packed
monomials by int order (below).  A difference is a sum, Polynomial.__add__,
with the negation.

Coefficients are exact rationals held as Python ints, and as
fractions.Fraction only where a division by a non-unit leaves one: every
division goes through _quotient, which returns an int whenever the quotient
is whole.  No coefficient is ever a float.  Nothing here is randomized and
every operation returns results in a deterministic order, so Groebner bases
can be compared verbatim and frozen into golden tests.

Monomial and Polynomial are the types at the edges.  The Buchberger
kernel (buchberger, normal_form, s_polynomial, is_groebner_basis) packs
the monomials of its arguments into plain ints on entry.  normal_form and
s_polynomial decode their result on exit; buchberger returns its basis
still packed, as a GroebnerBasis that decodes its Polynomials on first
use and its leads alone on request, so a caller that compares packed
elements or reads leads never builds a Polynomial.  Each variable the
arguments use gets a field of _FIELD_BITS bits, and the most significant
variable the most significant field.  An exponent never reaches the top
bit of its field, the guard bit, so comparing two packed monomials as
ints compares their exponents variable by variable from the most
significant one down: int order is exactly the lex order above.  With G
the mask of every guard bit, L the lowest bit of every field and W the
field width, no operation carries or borrows across a field boundary; the
kernel applies the product, quotient and divides rows inline, and this
table is where they are stated:

    product     a + b; a guard bit set in the sum means an exponent
                outgrew its field, which raises SizeCap rather than wrap
    quotient    a - b, when b divides a
    divides     b is a multiple of a exactly when ((b | G) - a) & G == G
    lcm         t = ((a | G) - b) & G marks the fields where a's exponent
                is at least b's, sel = t - (t >> (W - 1)) fills those
                fields below their guard bits, lcm = (a & sel) | (b & ~sel)
    coprime     ((x | G) - L) & G marks the nonzero fields of x; a and b
                are coprime when their marks share no bit
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import total_ordering
from heapq import heapify, heappop, heappush

from .graphs import SizeCap

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


@total_ordering
class Monomial:
    """Immutable power product.

    Exponents are stored as a tuple of ((row, col), e) pairs with e > 0,
    sorted by variable key.  Since precedence is ascending key order, the
    stored tuple lists variables from most to least significant, and every
    comparison reads _key.
    """

    __slots__ = ("exps",)

    def __init__(self, exps: tuple[tuple[Var, int], ...] = ()):
        self.exps = exps

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

    def _key(self) -> tuple[tuple[int, int, int], ...]:
        """The lex order as tuple order: each variable, from the most
        significant, as (-row, -col, e), so that the first entry that
        differs, or else the longer key, decides."""
        return tuple((-i, -j, e) for (i, j), e in self.exps)

    def __lt__(self, other):
        return self._key() < other._key()

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


def _quotient(a, b=1) -> int | Fraction:
    """The exact coefficient a / b; with b left at 1 it coerces a lone
    value.  An int a over b = 1 or -1 is returned as a or -a.  Anything
    else goes through Fraction, so a float is coerced rather than kept,
    and comes back as an int when the quotient is whole."""
    if type(a) is int and (b == 1 or b == -1):
        return a if b == 1 else -a
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


class Polynomial:
    """Sparse polynomial: a map from Monomial to a nonzero exact
    coefficient, an int or, where a division left one, a Fraction.

    `terms` is never mutated after construction; every operation returns a
    new polynomial.  The leading monomial is therefore cached on first use.
    """

    __slots__ = ("terms", "_lead")

    def __init__(self, terms: dict[Monomial, int | Fraction] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}
        self._lead = None

    @staticmethod
    def variable(var: Var) -> "Polynomial":
        return Polynomial({Monomial.of(var): 1})

    @staticmethod
    def term(mono: Monomial, coeff=1) -> "Polynomial":
        return Polynomial({mono: _quotient(coeff)})

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
        return self + -other

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        d: dict[Monomial, int | Fraction] = {}
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
        c0 = _quotient(coeff)
        if not c0:
            return Polynomial()
        return Polynomial({m * mono: c * c0 for m, c in self.terms.items()})

    def leading(self) -> tuple[Monomial, int | Fraction]:
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
        return Polynomial({m: _quotient(k, c) for m, k in self.terms.items()})

    def sorted_terms(self) -> list[tuple[Monomial, int | Fraction]]:
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


# ---------------------------------------------------------------------------
# the Buchberger kernel, on packed monomials

# bits per exponent field of a packed monomial, the guard bit included
_FIELD_BITS = 16


class _Packing:
    """The packed layout of one kernel call: every variable its inputs use
    gets a fixed-width field of one int (see the module docstring)."""

    __slots__ = ("shifts", "fields", "width", "limit", "low", "guard", "modulus", "high")

    def __init__(self, polys):
        variables = sorted({v for f in polys for m in f.terms for v, _ in m.exps})
        self.width = width = _FIELD_BITS
        # the most significant variable takes the most significant field
        self.shifts = {v: (len(variables) - 1 - r) * width for r, v in enumerate(variables)}
        self.fields = variables[::-1]  # the variable of each field, from the lowest
        self.limit = (1 << (width - 1)) - 1  # the largest exponent below the guard bit
        self.low = sum(1 << s for s in self.shifts.values())
        self.guard = self.low << (width - 1)
        self.modulus = modulus = (1 << width) - 1
        # the most bits b a field may use so that the fields sum below the
        # modulus however they are filled: len(variables) * (2^b - 1) < modulus
        bits = width - 1
        while len(variables) * ((1 << bits) - 1) >= modulus:
            bits -= 1
        self.high = self.low * (modulus ^ ((1 << bits) - 1))  # every field's bits from b up

    def cap(self) -> SizeCap:
        return SizeCap(f"an exponent exceeds the packed-monomial limit of {self.limit}")

    def key(self, m: Monomial) -> int:
        key = 0
        for v, e in m.exps:
            if e > self.limit:
                raise self.cap()
            key |= e << self.shifts[v]
        return key

    def monomial(self, key: int) -> Monomial:
        exps = []  # the fields the key sets, from the most significant
        while key:
            f = (key.bit_length() - 1) // self.width
            exps.append((self.fields[f], key >> f * self.width))
            key &= (1 << f * self.width) - 1
        return Monomial(tuple(exps))

    def pack(self, f: Polynomial) -> dict[int, int | Fraction]:
        """The packed terms of f, each coefficient coerced by _quotient, so
        that no float enters the kernel."""
        return {self.key(m): _quotient(c) for m, c in f.terms.items()}

    def polynomial(self, terms: dict[int, int | Fraction]) -> Polynomial:
        return Polynomial({self.monomial(k): terms[k] for k in sorted(terms, reverse=True)})

    def element(self, divisor) -> Polynomial:
        """The monic polynomial of a (lead, tail) divisor."""
        lead, tail = divisor
        return self.polynomial({lead: 1, **dict(tail)})

    def lcm(self, a: int, b: int) -> int:
        t = ((a | self.guard) - b) & self.guard  # the guard bits of the fields where a >= b
        sel = t - (t >> (self.width - 1))  # the exponent bits of those fields
        return (a & sel) | (b & ~sel)

    def coprime(self, a: int, b: int) -> bool:
        g, low = self.guard, self.low
        # ((x | g) - low) & g holds the guard bits of the nonzero fields of x
        return not ((a | g) - low) & ((b | g) - low) & g

    def degree(self, key: int) -> int:
        """The total degree of a packed monomial.  A field's weight 2^(kW)
        is 1 modulo 2^W - 1, so the key is its degree modulo 2^W - 1; when
        no field sets a bit of `high`, the fields sum below the modulus
        and the remainder is the degree.  Otherwise the fields are added
        one by one."""
        if not key & self.high:
            return key % self.modulus
        total = 0
        while key:
            total += key & self.limit
            key >>= self.width
        return total


def _divisor(terms: dict[int, int | Fraction]) -> tuple[int, tuple[tuple[int, int | Fraction], ...]]:
    """A nonzero packed polynomial, which is consumed, made monic as its
    (lead, tail) pair.  A lead coefficient of 1 leaves the tail as it is:
    every coefficient entered the kernel through pack, already coerced."""
    lead = max(terms)
    lc = terms.pop(lead)
    if lc == 1:
        return lead, tuple(terms.items())
    return lead, tuple((m, _quotient(c, lc)) for m, c in terms.items())


def _reduce(packing: _Packing, work: dict[int, int | Fraction], divisors) -> dict[int, int | Fraction]:
    """Remainder of the packed polynomial `work`, which is consumed, on
    division by monic (lead, tail) divisors.  The largest remaining term
    is taken first and cancelled with the first divisor whose lead divides
    it, so the reduction path is deterministic for a fixed divisor order."""
    guard = packing.guard
    rem: dict[int, int | Fraction] = {}
    while work:
        m = max(work)
        c = work.pop(m)
        top = m | guard
        for lead, tail in divisors:
            if (top - lead) & guard == guard:  # the divides row of the module docstring's table
                shift = m - lead
                for t, tc in tail:
                    key = t + shift  # the product row of the module docstring's table
                    if key & guard:
                        raise packing.cap()
                    s = work.get(key, 0) - c * tc
                    if s:
                        work[key] = s
                    else:
                        del work[key]
                break
        else:
            rem[m] = c
    return rem


def _s_pair(packing: _Packing, f, g, l: int) -> dict[int, int | Fraction]:
    """S-polynomial of the monic divisors f and g whose leads have lcm l;
    the two lead terms cancel, so they are never formed."""
    (lf, tf), (lg, tg) = f, g
    guard = packing.guard
    shift = l - lf
    work = {}
    for t, c in tf:
        key = t + shift  # the product row of the module docstring's table
        if key & guard:
            raise packing.cap()
        work[key] = c
    shift = l - lg
    for t, c in tg:
        key = t + shift
        if key & guard:
            raise packing.cap()
        s = work.get(key, 0) - c
        if s:
            work[key] = s
        else:
            del work[key]
    return work


def _reducible(packing: _Packing, tail, leads) -> bool:
    """Whether one of the packed leads divides a term of the tail."""
    guard = packing.guard
    for t, _ in tail:
        top = t | guard
        for lead in leads:
            if (top - lead) & guard == guard:  # the divides row of the module docstring's table
                return True
    return False


def _interreduce(packing: _Packing, basis: list, start: int) -> list:
    """Turn a Groebner basis of monic divisors, listed in the order they
    were added, into the reduced Groebner basis, by decreasing lead.  The
    elements from position `start` on are remainders: no term of one is
    divisible by the lead of an element before it.

    A tail is reduced against the whole kept list, its own element
    included.  That gives the remainder the others would give: every term
    of the tail, and every term a reduction step leaves, is below the
    element's own lead, and a lead divides no smaller monomial, so the
    element is never the divisor chosen.  A remainder's tail is already
    irreducible by every lead added before it, so it is tested against the
    kept leads added after it only, and reduced only when one of them
    divides a term; a generator's tail is always reduced."""
    # drop elements whose lead is divisible by another retained lead;
    # ascending sort means any proper divisor was seen first
    guard = packing.guard
    kept: list = []  # (lead, position)
    for p, (lead, _) in sorted(enumerate(basis), key=lambda e: e[1][0]):
        top = lead | guard
        for k, _ in kept:
            if (top - k) & guard == guard:  # the divides row of the module docstring's table
                break
        else:
            kept.append((lead, p))
    # no lead is divisible by another, so only the tails need reducing
    divisors = [basis[p] for _, p in kept]
    kept.sort(key=lambda e: e[1], reverse=True)
    reduced = []
    later: list[int] = []  # the kept leads added after the element at hand
    for lead, p in kept:
        tail = basis[p][1]
        if p < start or _reducible(packing, tail, later):
            tail = tuple(_reduce(packing, dict(tail), divisors).items())
        reduced.append((lead, tail))
        later.append(lead)
    reduced.sort(key=lambda d: d[0], reverse=True)
    return reduced


def normal_form(f: Polynomial, basis: list[Polynomial] | tuple[Polynomial, ...]) -> Polynomial:
    """Remainder of multivariate division of f by the given basis.

    Full reduction: no term of the result is divisible by any basis leading
    monomial.  The divisor tried first is always the earliest basis element,
    so the reduction path is deterministic for a fixed basis order.
    """
    basis = [g for g in basis if g]
    packing = _Packing([f, *basis])
    return packing.polynomial(_reduce(packing, packing.pack(f), [_divisor(packing.pack(g)) for g in basis]))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    packing = _Packing((f, g))
    a, b = _divisor(packing.pack(f)), _divisor(packing.pack(g))
    return packing.polynomial(_s_pair(packing, a, b, packing.lcm(a[0], b[0])))


class GroebnerBasis(Sequence):
    """A reduced Groebner basis as the kernel leaves it: monic (lead, tail)
    elements on one packing, by decreasing lead.  It reads as the tuple of
    its Polynomials, decoded on first use; its length and its leads need no
    decoding, and `elements` can be compared with other elements packed on
    `packing`.  The packing may have fields no element uses, such as the
    elimination variable's in a basis that `intersect` keeps."""

    __slots__ = ("packing", "elements", "_polys")

    def __init__(self, packing: _Packing, elements):
        self.packing = packing
        self.elements = tuple(elements)
        self._polys = None

    def polynomials(self) -> tuple[Polynomial, ...]:
        if self._polys is None:
            self._polys = tuple(self.packing.element(d) for d in self.elements)
        return self._polys

    def leads(self) -> tuple[Monomial, ...]:
        """The leading monomials, decoded alone."""
        return tuple(self.packing.monomial(lead) for lead, _ in self.elements)

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, index):
        return self.polynomials()[index]

    def __iter__(self):
        return iter(self.polynomials())

    def __eq__(self, other):
        if isinstance(other, GroebnerBasis):
            other = other.polynomials()
        return self.polynomials() == other if isinstance(other, tuple) else NotImplemented

    def __repr__(self):
        return repr(self.polynomials())


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Buchberger's loop with the normal selection strategy (pairs with the
    smallest lcm first) and the pair update of Gebauer and Moeller (*On an
    installation of Buchberger's algorithm*, 1988), applied once for each
    element h added, generators included, with lead t:

    - a new pair (g, h) is never queued when the leads of g and h are
      coprime (its S-polynomial reduces to zero), nor when the lcm of
      another new pair divides its lcm properly (criterion M) or equals it
      (criterion F: of equal lcms a coprime pair is taken first, then the
      earliest g).  The candidates are taken by increasing packed lcm, and
      a divisor never packs to the larger int, so each is tested against
      the lcms taken before it;
    - a queued pair (a, b) is dropped when t divides its lcm l and l is
      neither lcm(a, h) nor lcm(b, h) (criterion B): l is then a proper
      multiple of both, and the pairs (a, h) and (h, b) cover (a, b).

    The new pairs are formed with the non-redundant elements only: those
    whose lead no later lead divides.  S-polynomials are reduced against
    that set, which is a complete reduction, because every redundant lead
    is a multiple of a kept one, and the result is interreduced from it.
    An update makes one pass over the kept leads that share a variable
    with t, forming each one's lcm with t, listing the new pair
    candidates and noting whether t divides a kept lead, which is then
    its own lcm with it; only then are the kept elements filtered.

    A kept lead c coprime to t gets no lcm and no candidate.  Its pair is
    never queued, and dropping a coprime candidate changes nothing, so c
    could matter only by dropping the candidate of a kept k whose lead
    shares a variable with t, and it drops that only when c divides the
    lead of k: its lcm is c*t, and c*t divides lcm(k, t) only then, since
    lcm(k, t) agrees with that lead on c's variables, which t lacks.  Of
    two kept leads one divides the other only when the earlier properly
    divides the later (a later lead that divides an earlier one drops it),
    and only when the later is an unreduced generator (a remainder is
    reduced by every kept lead).  The pass sees that for free, as the later
    lead is then its own lcm with the earlier one, and it widens the
    earlier lead's mark, the guard bits of the fields it uses, to every
    field, so that it takes part in every later update.  A unit divides
    every lead, and its mark is every field from the start.  So the pairs
    queued are exactly those of an update over every kept lead.  The lcm
    with the lead of an element of a queued pair is formed only when t
    divides that pair's lcm, which criterion B reads; no lcm is formed
    twice.

    The queue is a heap keyed on (lcm degree, lcm, i, j) that carries
    each pair's lcm to its S-polynomial: the new pairs are pushed onto
    it, and it is heapified again only when criterion B dropped a pair.
    The keys are unique, so the pop order is the normal-selection order.
    The loop runs on packed monomials and returns the unique reduced
    basis, monic and by decreasing leading monomial, still packed (see
    GroebnerBasis).

    A field's weight 2^(kW) is 1 modulo 2^W - 1, so a packed monomial is
    its degree modulo 2^W - 1.  Each element's lead degree is read once,
    through _Packing.degree; an lcm's degree is at most the sum of its
    leads' degrees, so while that sum is below the modulus a pair's
    degree is the remainder, and only past it is _Packing.degree asked.
    """
    polys = [f for f in gens if f]
    packing = _Packing(polys)
    guard, low, lcm = packing.guard, packing.low, packing.lcm
    modulus = packing.modulus
    basis: list = []
    leads: list[int] = []
    marks: list[int] = []  # each lead's mark, widened to every field for a divider
    degrees: list[int] = []
    kept: list[int] = []  # the non-redundant elements, by index
    reducers: list = []
    pairs: list = []

    def update(element):
        t, lead, degree = len(basis), element[0], packing.degree(element[0])
        # the guard bits of the lead's nonzero fields (the coprime row of the
        # module docstring's table), or of every field for a unit
        mark = ((lead | guard) - low) & guard or guard
        # one pass over the kept leads whose marks meet the new lead's: each
        # lcm with the new lead, the new pair candidates, whether the new
        # lead divides a kept lead, which is then its own lcm with it, and
        # the kept leads that properly divide the new lead, whose marks
        # widen to every field
        lcms = {}
        candidates = []
        divides_kept = False
        for k in kept:
            if marks[k] & mark:
                lk = leads[k]
                l = lcms[k] = lcm(lk, lead)
                if l == lk:
                    divides_kept = True
                elif l == lead:
                    marks[k] = guard
                candidates.append((l, l != lk + lead, k))
        candidates.sort()

        def lcm_with(k):  # criterion B's, formed on first use
            l = lcms.get(k)
            if l is None:
                l = lcms[k] = lcm(leads[k], lead)
            return l

        # criterion B: the lead divides l (the docstring's divides row) and
        # l is the lcm of neither new pair of the pair's elements
        queue = [
            p for p in pairs
            if ((p[1] | guard) - lead) & guard != guard or lcm_with(p[2]) == p[1] or lcm_with(p[3]) == p[1]
        ]
        new: list = []
        minimal: list[int] = []
        for l, not_coprime, k in candidates:
            top = l | guard
            for m in minimal:  # criteria M and F
                if (top - m) & guard == guard:
                    break
            else:
                minimal.append(l)
                if not_coprime:
                    d = l % modulus if degrees[k] + degree < modulus else packing.degree(l)
                    new.append((d, l, k, t))
        if len(queue) < len(pairs):
            pairs[:] = queue + new
            heapify(pairs)
        else:
            for p in new:
                heappush(pairs, p)
        basis.append(element)
        leads.append(lead)
        marks.append(mark)
        degrees.append(degree)
        if divides_kept:
            kept[:] = [k for k in kept if lcms.get(k) != leads[k]]
            reducers[:] = [basis[k] for k in kept]
        kept.append(t)
        reducers.append(element)

    for f in polys:
        update(_divisor(packing.pack(f)))
    while pairs:
        _, l, i, j = heappop(pairs)
        h = _reduce(packing, _s_pair(packing, basis[i], basis[j], l), reducers)
        if h:
            update(_divisor(h))
    return GroebnerBasis(packing, _interreduce(packing, reducers, sum(k < len(polys) for k in kept)))


def is_groebner_basis(basis) -> bool:
    """Buchberger's criterion as defined: the S-polynomial of every pair
    whose leads are not coprime reduces to zero against the whole set.

    No other pair is dropped, so the verdict does not lean on the pair
    update that buchberger runs.
    """
    polys = [g for g in basis if g]
    packing = _Packing(polys)
    divisors = [_divisor(packing.pack(g)) for g in polys]
    for j, g in enumerate(divisors):
        for f in divisors[:j]:
            if not packing.coprime(f[0], g[0]) and _reduce(
                packing, _s_pair(packing, f, g, packing.lcm(f[0], g[0])), divisors
            ):
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

    The cache holds the basis as the kernel packed it, so its Polynomials
    are decoded only when an element is first read, and its leads alone
    for the initial ideal.  `groebner`, when given, seeds the cache with
    the engine's packed reduced basis of the generators (see intersect).
    Instances are treated as immutable; the cache is written at most once.
    Equality of the mathematical ideals is `ideal_equal`, not `==`.
    """

    __slots__ = ("generators", "_gb")

    def __init__(self, generators, groebner: GroebnerBasis | None = None):
        self.generators = tuple(g for g in generators if g)
        self._gb = groebner

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = buchberger(self.generators)
        return self._gb

    def __repr__(self):
        return f"Ideal({len(self.generators)} generators)"


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Mathematical equality via uniqueness of the reduced Groebner basis;
    two ideals on the same generators are equal without one."""
    return a.generators == b.generators or set(a.groebner()) == set(b.groebner())


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection of two ideals by single-variable elimination.

    Works in the extended ring with the auxiliary variable t above the grid:
    the intersection is (t*A + (1-t)*B) with t eliminated.  Exponential in
    the worst case; the report's prime check gates it by grid size.

    t ranks above the grid under lex, so an element of the engine's
    reduced basis is t-free exactly when its lead is, and the t-free
    elements are the reduced basis of the intersection.  They stay packed:
    t holds the top field, so a lead is t-free when it is below that
    field's lowest bit.  The kept elements seed the new ideal's cached
    basis, and their Polynomials, decoded once, are its generators.
    """
    t = Polynomial.variable(ELIM)
    one = Polynomial.term(ONE, 1)
    mixed = [t * f for f in a.generators]
    mixed.extend((one - t) * g for g in b.generators)
    if not mixed:  # two zero ideals: no t field to test against
        return Ideal(())
    gb = buchberger(mixed)
    top = 1 << gb.packing.shifts[ELIM]
    basis = GroebnerBasis(gb.packing, [d for d in gb.elements if d[0] < top])
    return Ideal(basis, basis)
