from __future__ import annotations

import sys
from fractions import Fraction
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gbei.poly
from gbei.graphs import Graph, SizeCap
from gbei.ideals import gbei_generators, minimal_primes, rauh_basis
from gbei.poly import (
    ELIM,
    ONE,
    GroebnerBasis,
    Ideal,
    Monomial,
    Polynomial,
    VarGrid,
    buchberger,
    ideal_equal,
    intersect,
    is_groebner_basis,
    is_reduced_basis,
    normal_form,
    s_polynomial,
)

from conftest import (
    CHERRY,
    K2,
    K3,
    K4,
    P3,
    STAR,
    graph_of,
    grid_variables,
    minimal_generators,
    monomial,
    monomial_ideal_equal,
)


def mono(*vars_and_powers) -> Monomial:
    d = {}
    for item in vars_and_powers:
        var, e = (item, 1) if len(item) == 2 else ((item[0], item[1]), item[2])
        d[var] = d.get(var, 0) + e
    return monomial(d)


def var(i, j) -> Polynomial:
    return Polynomial.variable((i, j))


def minor2(k, l, i, j) -> Polynomial:
    lead = mono((k, i), (l, j))
    tail = mono((l, i), (k, j))
    return Polynomial({lead: Fraction(1), tail: Fraction(-1)})


def recording_s_pairs(formed: list):
    """A stand-in for the kernel's per-S-pair function that appends each
    pair it is given, decoded to its two monic elements, to `formed`."""
    real = gbei.poly._s_pair

    def recording(packing, f, g, l):
        formed.append((packing.element(f), packing.element(g)))
        return real(packing, f, g, l)

    return recording


@pytest.fixture
def s_pairs(monkeypatch):
    """Every S-polynomial the kernel forms, as its two monic elements, in
    the order formed."""
    formed = []
    monkeypatch.setattr(gbei.poly, "_s_pair", recording_s_pairs(formed))
    return formed


class TestOrder:
    def test_row_major_precedence(self):
        # x[1,1] > x[1,2] > x[2,1] > x[2,2]
        assert mono((1, 1)) > mono((1, 2))
        assert mono((1, 2)) > mono((2, 1))
        assert mono((2, 1)) > mono((2, 2))

    def test_lex_not_degree_compatible(self):
        # lex: a single high-precedence variable beats any power of lower ones
        assert mono((1, 1)) > mono((2, 1, 5))

    def test_elimination_variable_tops_the_grid(self):
        assert Monomial.of(ELIM) > mono((1, 1), (1, 2), (2, 1))

    def test_grid_variables_listed_in_precedence_order(self):
        g = VarGrid(2, 3)
        vs = grid_variables(g)
        assert vs == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]
        assert all(Monomial.of(a) > Monomial.of(b) for a, b in zip(vs, vs[1:]))
        assert [g.index(v) for v in vs] == list(range(6))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            VarGrid(1, 3)
        with pytest.raises(ValueError):
            VarGrid(2, 0)
        with pytest.raises(ValueError):
            VarGrid(2, 2).index((3, 1))


class TestMonomial:
    def test_multiplication_merges_exponents(self):
        m = mono((1, 1)) * mono((1, 1), (2, 2))
        assert m == mono((1, 1, 2), (2, 2, 1))
        assert m.degree == 3
        assert not m.is_squarefree()

    def test_divisibility_and_quotient(self):
        a = mono((1, 1, 2), (2, 2))
        b = mono((1, 1))
        assert b.divides(a)
        assert a / b == mono((1, 1), (2, 2))
        assert not a.divides(b)

    def test_lcm_and_coprimality(self):
        a = mono((1, 1), (2, 2))
        b = mono((2, 2, 3), (2, 1))
        assert a.lcm(b) == mono((1, 1), (2, 1), (2, 2, 3))
        assert not a.coprime(b)
        assert mono((1, 1)).coprime(mono((2, 2)))

    def test_render(self):
        assert mono((1, 2, 3), (2, 1)).render() == "x[1,2]^3*x[2,1]"
        assert monomial({}).render() == "1"


class TestPolynomial:
    def test_ring_identities(self):
        f = minor2(1, 2, 1, 2)
        g = var(2, 1) + var(1, 3)
        assert (f + g) - g == f
        assert f * g == g * f
        assert f + (-f) == Polynomial()
        assert not Polynomial()

    def test_leading_term_under_the_fixed_order(self):
        f = minor2(1, 2, 1, 2)
        lead, c = f.leading()
        assert lead == mono((1, 1), (2, 2)) and c == 1

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            Polynomial().leading()

    def test_render_descending_terms_with_signs(self):
        f = minor2(1, 2, 1, 2)
        assert f.render() == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
        assert (-f).render() == "-x[1,1]*x[2,2] + x[1,2]*x[2,1]"
        assert Polynomial().render() == "0"
        assert Polynomial.term(mono((1, 1)), Fraction(3, 2)).render() == "3/2*x[1,1]"

    def test_monic_divides_by_leading_coefficient(self):
        f = Polynomial.term(mono((1, 1)), 4) + Polynomial.term(mono((2, 2)), 2)
        assert f.monic() == Polynomial.term(mono((1, 1))) + Polynomial.term(mono((2, 2)), Fraction(1, 2))


class TestDivision:
    def test_normal_form_is_zero_exactly_on_members(self):
        basis = [minor2(1, 2, 1, 2)]
        f = var(2, 1) * minor2(1, 2, 1, 2)
        assert not normal_form(f, basis)
        assert normal_form(var(1, 1), basis) == var(1, 1)

    def test_normal_form_reduces_every_term(self):
        # tail terms get reduced too, not only the leading one
        b = var(1, 1) - var(2, 2)
        f = var(1, 2) * var(1, 1) + var(1, 1)
        r = normal_form(f, [b])
        assert r == var(1, 2) * var(2, 2) + var(2, 2)

    def test_ideal_member_shift_invariance(self):
        # normal_form(f*g + h) == normal_form(h) when f is in the ideal
        basis = buchberger([minor2(1, 2, 1, 2), minor2(1, 2, 2, 3)])
        member = var(2, 3) * basis[0] + var(1, 1) * basis[1]
        h = var(1, 2) * var(1, 2) + var(2, 1)
        assert normal_form(member * var(2, 2) + h, basis) == normal_form(h, basis)

    def test_s_polynomial_cancels_leads(self):
        f, g = minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)
        s = s_polynomial(f, g)
        assert s.leading_monomial() < f.leading_monomial().lcm(g.leading_monomial())


class TestBuchberger:
    def test_cherry_path_gb_m2(self):
        # center vertex 1 smaller than both leaf columns: one extra element
        gens = [minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)]
        gb = buchberger(gens)
        extra = var(2, 1) * minor2(1, 2, 2, 3)
        assert set(gb) == {gens[0], gens[1], extra}

    def test_straight_path_gb_is_the_generators(self):
        # leads of the two minors share no variable, so nothing new appears
        gens = [minor2(1, 2, 1, 2), minor2(1, 2, 2, 3)]
        assert set(buchberger(gens)) == set(gens)

    def test_idempotent(self):
        gb = buchberger([minor2(1, 2, 1, 2), minor2(1, 2, 1, 3), minor2(1, 2, 2, 3)])
        assert buchberger(gb) == gb

    def test_result_is_reduced_and_groebner(self):
        gb = buchberger([minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)])
        assert is_groebner_basis(gb)
        assert is_reduced_basis(gb)

    def test_descending_lead_order(self):
        gb = buchberger([minor2(1, 2, 1, 3), minor2(1, 2, 1, 2)])
        leads = [f.leading_monomial() for f in gb]
        assert leads == sorted(leads, reverse=True)

    def test_empty_input(self):
        assert buchberger([]) == ()
        assert buchberger([Polynomial()]) == ()

    def test_groebner_checker_rejects_non_basis(self):
        gens = [minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)]
        assert not is_groebner_basis(gens)

    def test_reduced_checker_rejects_redundancy(self):
        f = minor2(1, 2, 1, 2)
        assert not is_reduced_basis([f, var(1, 2) * f])
        assert not is_reduced_basis([f + f])  # leading coefficient 2
        assert is_reduced_basis([f])


class TestPairCriteria:
    """The Gebauer-Moeller criteria in `buchberger`, and the coprimality
    criterion alone in `is_groebner_basis`, decide which S-polynomials are
    formed.  A criterion that pruned differently would still reach the
    same reduced basis, or the same verdict, so the number formed is
    pinned on fixed inputs."""

    def test_buchberger_on_k4_with_three_rows(self, s_pairs):
        gb = buchberger(gbei_generators(K4, 3).generators)
        assert len(gb) == 18
        assert len(s_pairs) == 52

    def test_groebner_check_on_the_k4_basis_with_three_rows(self, s_pairs):
        basis = rauh_basis(K4, 3).groebner()
        s_pairs.clear()  # those of the engine run rauh_basis compared its result with
        assert is_groebner_basis(basis)
        assert len(basis) == 18
        assert len(s_pairs) == 56


# The Buchberger loop on Monomial and Polynomial, in two forms: the one the
# engine ran before it packed monomials, with the chain criterion checked
# at each pop, and the Gebauer-Moeller update the packed kernel runs now,
# the reference it is compared against pair by pair.

def reference_normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by `basis`: the largest remaining term
    first, each cancelled with the earliest basis element whose lead
    divides it."""
    divisors = [(g.leading_monomial(), g) for g in basis if g]
    work = dict(f.terms)
    rem: dict[Monomial, Fraction] = {}
    while work:
        m = max(work)
        c = work.pop(m)
        for lm, g in divisors:
            if lm.divides(m):
                lmono, lc = g.leading()
                factor = m / lm
                scale = Fraction(c) / lc
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


def reference_s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lf, cf = f.leading()
    lg, cg = g.leading()
    l = lf.lcm(lg)
    return f.scaled(Fraction(1) / cf, l / lf) - g.scaled(Fraction(1) / cg, l / lg)


def reference_skip_pair(leads: list[Monomial], i: int, j: int, done: set[tuple[int, int]]) -> bool:
    """The coprimality criterion, then the chain criterion."""
    if leads[i].coprime(leads[j]):
        return True
    l = leads[i].lcm(leads[j])
    for k, lk in enumerate(leads):
        if k in (i, j) or not lk.divides(l):
            continue
        if (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done:
            return True
    return False


def reference_interreduce(basis: list[Polynomial]) -> tuple[Polynomial, ...]:
    monic = sorted((g.monic() for g in basis if g), key=lambda g: g.leading_monomial())
    kept: list[Polynomial] = []
    for g in monic:
        lm = g.leading_monomial()
        if not any(h.leading_monomial().divides(lm) for h in kept):
            kept.append(g)
    reduced = [reference_normal_form(g, kept[:i] + kept[i + 1 :]).monic() for i, g in enumerate(kept)]
    reduced.sort(key=lambda g: g.leading_monomial(), reverse=True)
    return tuple(reduced)


def reference_buchberger(gens, formed: list | None = None) -> tuple[Polynomial, ...]:
    """Reference: the Buchberger loop that picks each pair with a `min`
    over every pending pair, recomputing each pending pair's lcm per round,
    with the same criteria on Monomial.  Each S-pair formed is appended to
    `formed` as its two monic elements."""
    basis = [f.monic() for f in gens if f]
    if not basis:
        return ()
    leads = [g.leading_monomial() for g in basis]
    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    done: set[tuple[int, int]] = set()

    def pair_key(p):
        i, j = p
        l = leads[i].lcm(leads[j])
        return (l.degree, l, i, j)

    while pairs:
        i, j = min(pairs, key=pair_key)
        pairs.discard((i, j))
        done.add((i, j))
        if reference_skip_pair(leads, i, j, done):
            continue
        if formed is not None:
            formed.append((basis[i], basis[j]))
        h = reference_normal_form(reference_s_polynomial(basis[i], basis[j]), basis)
        if h:
            h = h.monic()
            basis.append(h)
            leads.append(h.leading_monomial())
            t = len(basis) - 1
            pairs.update((k, t) for k in range(t))
    return reference_interreduce(basis)


def reference_gebauer_moeller(gens, formed: list | None = None) -> tuple[Polynomial, ...]:
    """Reference: Becker and Weispfenning's UPDATE (Gebauer-Moeller) on
    Monomial, applied to each generator in turn and to each nonzero
    remainder, with each pair picked by a `min` over every pending pair and
    reduced against the non-redundant elements.  The new pairs are visited
    from the latest element down, so of several with one lcm the one with
    the earliest element is kept.  Each S-pair formed is appended to
    `formed` as its two monic elements."""
    basis: list[Polynomial] = []
    leads: list[Monomial] = []
    active: list[int] = []
    pairs: set[tuple[int, int]] = set()

    def lcm(p):
        return leads[p[0]].lcm(leads[p[1]])

    def update(h):
        t, lt = len(basis), h.leading_monomial()
        basis.append(h)
        leads.append(lt)
        waiting = [(k, t) for k in sorted(active, reverse=True)]
        chosen = []
        while waiting:
            p = waiting.pop(0)
            if leads[p[0]].coprime(lt) or not any(lcm(q).divides(lcm(p)) for q in waiting + chosen):
                chosen.append(p)
        for i, j in list(pairs):
            l = lcm((i, j))
            if lt.divides(l) and leads[i].lcm(lt) != l and leads[j].lcm(lt) != l:
                pairs.discard((i, j))
        pairs.update(p for p in chosen if not leads[p[0]].coprime(lt))
        active[:] = [k for k in active if not lt.divides(leads[k])] + [t]

    for f in gens:
        if f:
            update(f.monic())
    while pairs:
        i, j = min(pairs, key=lambda p: (lcm(p).degree, lcm(p), *p))
        pairs.discard((i, j))
        if formed is not None:
            formed.append((basis[i], basis[j]))
        h = reference_normal_form(reference_s_polynomial(basis[i], basis[j]), [basis[k] for k in active])
        if h:
            update(h.monic())
    return reference_interreduce([basis[k] for k in active])


def packed(reference):
    """A stand-in for `buchberger` with the kernel's return type: the basis
    `reference` computes, packed as a GroebnerBasis on the packing of the
    generators, which is the packing the kernel builds."""

    def engine(gens):
        packing = gbei.poly._Packing(gens)
        return GroebnerBasis(packing, [gbei.poly._divisor(packing.pack(f)) for f in reference(gens)])

    return engine


def elimination_ideal_pair():
    """The two minimal primes of the star whose intersection the
    elimination tests compute."""
    primes = minimal_primes(STAR, 2)
    return primes[0].ideal, primes[1].ideal


class TestPairQueue:
    """The heap pops the pairs the update keeps in the order of the
    `min`-based Gebauer-Moeller reference, so the same S-polynomials are
    formed in the same order."""

    @pytest.mark.parametrize("rows", [3, 4])
    def test_same_s_pairs_in_the_same_order_on_k4(self, s_pairs, rows):
        gens = gbei_generators(K4, rows).generators
        reference = []
        want = reference_gebauer_moeller(gens, reference)
        assert buchberger(gens) == want
        assert s_pairs == reference
        assert reference

    @pytest.mark.parametrize(
        "g, rows",
        [
            # labeled shapes of the benchmark's groebner catalogue: 18 and
            # 15 variables
            (graph_of(9, (1, 4), (1, 7), (2, 7), (3, 7), (3, 8), (4, 7), (5, 7), (5, 9), (6, 8), (7, 8), (7, 9)), 2),
            (graph_of(5, (1, 2), (1, 3), (1, 4), (2, 3), (2, 5), (3, 4)), 3),
        ],
        ids=["9x2", "5x3"],
    )
    def test_same_s_pairs_in_the_same_order_on_groebner_catalogue_shapes(self, s_pairs, g, rows):
        gens = gbei_generators(g, rows).generators
        reference = []
        want = reference_gebauer_moeller(gens, reference)
        assert buchberger(gens) == want
        assert s_pairs == reference
        assert len(reference) > 100

    def test_same_s_pairs_in_the_same_order_on_an_elimination_ideal(self, s_pairs, monkeypatch):
        a, b = elimination_ideal_pair()
        reference = []
        with monkeypatch.context() as patch:
            patch.setattr(gbei.poly, "buchberger", packed(partial(reference_gebauer_moeller, formed=reference)))
            want = intersect(a, b).groebner()
        assert intersect(a, b).groebner() == want
        assert s_pairs == reference
        assert any(ELIM in mono.support for f, _ in reference for mono in f.terms)

    def test_each_pair_lcm_is_computed_once(self, monkeypatch):
        # an update forms the new lead's lcm with every kept lead, which the
        # new pairs read, and with the lead of an element of a queued pair
        # only when the new lead divides that pair's lcm (criterion B); the
        # kept leads are those no later lead divides, and the queue is read
        # from the running update
        formed, added, strays = [], [], []
        kept_at: dict[int, set[int]] = {}
        lcm, divisor = gbei.poly._Packing.lcm, gbei.poly._divisor

        def recording(packing, a, b):
            frame = sys._getframe(1)
            while frame.f_code.co_name != "update":
                frame = frame.f_back
            t = len(added) - 1
            if t not in kept_at:
                kept_at[t] = {
                    added[k] for k in range(t)
                    if not any(packing.divides(c, added[k]) for c in added[k + 1 : t])
                }
            queued = {added[x] for _, l, i, j in frame.f_locals["pairs"] if packing.divides(b, l) for x in (i, j)}
            if b != added[t] or a not in kept_at[t] | queued:
                strays.append((a, b))
            formed.append((t, a))
            return lcm(packing, a, b)

        monkeypatch.setattr(gbei.poly._Packing, "lcm", recording)
        monkeypatch.setattr(gbei.poly, "_divisor", lambda terms: added.append(max(terms)) or divisor(terms))
        a, b = elimination_ideal_pair()
        assert len(intersect(a, b).groebner()) == 6
        assert strays == []
        assert len(set(formed)) == len(formed)
        assert all(kept <= {lead for u, lead in formed if u == t} for t, kept in kept_at.items())
        # fewer than the lcm with every earlier lead
        assert len(formed) < len(added) * (len(added) - 1) // 2


# random inputs for the packed kernel: the elimination variable and a
# 3 x 3 grid, exponents up to 3
VARIABLES = [ELIM] + [(i, j) for i in range(1, 4) for j in range(1, 4)]
monomials = st.dictionaries(st.sampled_from(VARIABLES), st.integers(1, 3), max_size=4).map(monomial)


def packing_of(*ms: Monomial):
    return gbei.poly._Packing([Polynomial.term(m) for m in ms])


class TestPackedMonomials:
    @given(monomials, monomials)
    def test_int_order_is_the_lex_order(self, a, b):
        packing = packing_of(a, b)
        ka, kb = packing.key(a), packing.key(b)
        assert (ka > kb) - (ka < kb) == a._cmp(b)
        assert packing.monomial(ka) == a and packing.degree(ka) == a.degree

    @given(monomials, monomials)
    def test_operations_agree_with_monomial(self, a, b):
        packing = packing_of(a, b)
        ka, kb = packing.key(a), packing.key(b)
        assert packing.divides(ka, kb) == a.divides(b)
        assert packing.coprime(ka, kb) == a.coprime(b)
        assert packing.monomial(packing.lcm(ka, kb)) == a.lcm(b)
        assert packing.monomial(ka + kb) == a * b
        if a.divides(b):
            assert packing.monomial(kb - ka) == b / a

    @given(monomials, monomials)
    def test_an_exponent_past_a_small_field_raises_and_never_wraps(self, a, b):
        with mock.patch.object(gbei.poly, "_FIELD_BITS", 3):  # exponents up to 3
            packing = packing_of(a, b)
            assert packing.limit == 3
            ka, kb = packing.key(a), packing.key(b)
            # _s_pair shifts each tail term of a divisor by l less its lead:
            # with lead 1 (key 0), tail a and l = b it forms the product a * b
            # inline, in its first loop, and in its second with f and g swapped
            for f, g in [((0, ((ka, 1),)), (kb, ())), ((kb, ()), (0, ((ka, 1),)))]:
                if max((e for _, e in (a * b).exps), default=0) > 3:
                    with pytest.raises(SizeCap, match="packed-monomial limit of 3"):
                        gbei.poly._s_pair(packing, f, g, kb)
                else:
                    assert [packing.monomial(k) for k in gbei.poly._s_pair(packing, f, g, kb)] == [a * b]
            with pytest.raises(SizeCap, match="packed-monomial limit of 3"):
                packing.key(a * Monomial.of((1, 1), 4))

    def test_a_reduction_past_a_small_field_raises(self):
        # x[1,1]^3 x[2,1]^3 reduces to x[2,1]^6 by x[1,1] -> x[2,1]
        f = Polynomial.term(mono((1, 1, 3), (2, 1, 3)))
        with mock.patch.object(gbei.poly, "_FIELD_BITS", 3):
            with pytest.raises(SizeCap, match="packed-monomial limit of 3"):
                normal_form(f, [var(2, 1) - var(1, 1)])
            with pytest.raises(SizeCap, match="packed-monomial limit of 3"):
                buchberger([f, var(2, 1) - var(1, 1)])
        assert normal_form(f, [var(2, 1) - var(1, 1)]) == Polynomial.term(mono((2, 1, 6)))


grid_minors = st.builds(minor2, st.just(1), st.integers(2, 3), st.just(1), st.integers(2, 3)) | st.builds(
    minor2, st.just(2), st.just(3), st.integers(1, 2), st.just(3)
)
# minors on rows 1 and 2 of a 2 x 4 grid: at most 8 variables
row_minors = st.sampled_from([(i, j) for i in range(1, 5) for j in range(i + 1, 5)]).map(
    lambda cols: minor2(1, 2, *cols)
)
# binomials on a 2 x 2 grid, so that their leads overlap
corner = st.dictionaries(
    st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), st.integers(1, 2), min_size=1, max_size=3
).map(monomial)
binomials = st.builds(
    lambda a, b, c: Polynomial.term(a) - Polynomial.term(b, c),
    corner,
    corner,
    st.sampled_from([1, -1, 2, Fraction(1, 2)]),
).filter(bool)


class TestAgainstTheReference:
    """The packed kernel forms the S-pairs of the Gebauer-Moeller reference
    in the same order and returns the same basis as both references, on
    random inputs."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(grid_minors | binomials, min_size=2, max_size=4))
    def test_minors_and_binomials(self, gens):
        reference, formed = [], []
        want = reference_gebauer_moeller(gens, reference)
        with mock.patch.object(gbei.poly, "_s_pair", recording_s_pairs(formed)):
            assert buchberger(gens) == want
        assert formed == reference
        assert want == reference_buchberger(gens)
        assert is_groebner_basis(want) and is_reduced_basis(want)

    @settings(max_examples=15, deadline=None)
    @given(st.sets(st.sampled_from([(u, v) for u in range(1, 5) for v in range(u + 1, 5)]), min_size=1), st.data())
    def test_intersection_of_two_primes(self, edges, data):
        primes = minimal_primes(Graph.from_edges(4, sorted(edges)), 2)
        assume(len(primes) > 1)
        a, b = data.draw(st.permutations(primes))[:2]
        with mock.patch.object(gbei.poly, "buchberger", packed(reference_buchberger)):
            want = intersect(a.ideal, b.ideal).groebner()
        assert intersect(a.ideal, b.ideal).groebner() == want


def exact(*polys: Polynomial) -> bool:
    """Every coefficient is an int or a Fraction, never a float."""
    return all(type(c) in (int, Fraction) for f in polys for c in f.terms.values())


class TestExactCoefficients:
    """Coefficients stay exact rationals: ints, and Fractions only where a
    division by a non-unit leaves one."""

    @settings(max_examples=30, deadline=None)
    @given(st.lists(grid_minors | binomials, min_size=2, max_size=4))
    def test_no_float_and_the_reference_result(self, gens):
        f, g, *rest = gens
        gb = buchberger(gens)
        assert exact(*gb) and gb == reference_buchberger(gens)
        s = s_polynomial(f, g)
        assert exact(s) and s == reference_s_polynomial(f, g)
        for h in (s, f * g + Polynomial.term(mono((1, 2), (2, 2)), Fraction(1, 2))):
            r = normal_form(h, gens)
            assert exact(r) and r == reference_normal_form(h, gens)
        for h in gens:
            _, lc = h.leading()
            m = h.monic()
            assert exact(m) and m.terms == {t: Fraction(c) / lc for t, c in h.terms.items()}
        a, b = Ideal([f]), Ideal([g, *rest])
        got = intersect(a, b).groebner()
        with mock.patch.object(gbei.poly, "buchberger", packed(reference_buchberger)):
            want = intersect(a, b).groebner()
        assert exact(*got) and got == want

    def test_a_fraction_only_where_a_division_leaves_one(self):
        # 3 x[1,1] - x[1,2] made monic is x[1,1] - 1/3 x[1,2], and x[1,2]
        # reduces to x[2,1]
        gens = [Polynomial.term(mono((1, 1)), 3) - var(1, 2), var(1, 2) - var(2, 1)]
        gb = buchberger(gens)
        assert gb == reference_buchberger(gens)
        assert [[(m.render(), c, type(c)) for m, c in f.sorted_terms()] for f in gb] == [
            [("x[1,1]", 1, int), ("x[2,1]", Fraction(-1, 3), Fraction)],
            [("x[1,2]", 1, int), ("x[2,1]", -1, int)],
        ]

    def test_a_float_under_a_lead_of_one_is_coerced_on_entry(self):
        # a lead coefficient of 1 leaves the tail undivided, so the kernel
        # coerces each coefficient as it packs its input
        f = Polynomial({mono((1, 1)): 1, mono((2, 2)): -0.5})
        gb = buchberger([f])
        assert [[(c, type(c)) for _, c in g.sorted_terms()] for g in gb] == [[(1, int), (Fraction(-1, 2), Fraction)]]
        r = normal_form(Polynomial.term(mono((1, 1))), [f])
        assert exact(r) and r == Polynomial.term(mono((2, 2)), Fraction(1, 2))

    def test_whole_quotients_and_coerced_coefficients_are_ints(self):
        f = Polynomial.term(mono((1, 1)), -2) + Polynomial.term(mono((2, 2)), 4)
        assert [type(c) for c in f.monic().terms.values()] == [int, int]
        assert f.monic().terms == {mono((1, 1)): 1, mono((2, 2)): -2}
        half = Polynomial.term(mono((1, 1)), 0.5)
        assert exact(half, half.scaled(2.0)) and half.scaled(2.0).terms == {mono((1, 1)): 1}
        assert [(c, type(c)) for c in Polynomial.term(mono((1, 1)), 2.0).terms.values()] == [(2, int)]


class TestGroebnerCriterion:
    """`is_groebner_basis` forms the S-polynomial of every pair whose leads
    are not coprime.  A set is a Groebner basis exactly when its leads
    generate the initial ideal, read off the engine's reduced basis.  The
    generators followed by that basis are one, with many pairs to check."""

    def test_the_verdict_of_the_initial_ideal(self):
        verdicts = set()

        @settings(max_examples=60, deadline=None)
        @given(st.lists(grid_minors | binomials, min_size=2, max_size=4))
        def check(gens):
            gb = buchberger(gens)
            for polys in (gens, [*gens, *gb]):
                verdict = is_groebner_basis(polys)
                leads = [f.leading_monomial() for f in polys]
                assert verdict == monomial_ideal_equal(leads, gb.leads())
                verdicts.add(verdict)

        check()
        assert verdicts == {True, False}


# the path 4-2-3-1-5: at 2 rows its leads reach degree 5, so with 3-bit
# fields (modulus 7) some lead pairs sum past the modulus, and a remainder
# read there would reorder its S-pairs
ZIGZAG = Graph.from_edges(5, [(1, 3), (1, 5), (2, 3), (2, 4)])


def degree_calls(monkeypatch) -> tuple[list, list]:
    """The keys `_Packing.degree` is asked for, and the packed polynomials
    `_divisor` turns into elements, one per element a run holds."""
    seen, held = [], []
    degree, divisor = gbei.poly._Packing.degree, gbei.poly._divisor
    monkeypatch.setattr(gbei.poly._Packing, "degree", lambda self, key: seen.append(key) or degree(self, key))
    monkeypatch.setattr(gbei.poly, "_divisor", lambda terms: held.append(terms) or divisor(terms))
    return seen, held


def shortcut_bound(width: int, fields: int) -> int:
    """2^b for the largest b below the guard bit with
    fields * (2^b - 1) < 2^width - 1."""
    return 1 << max(b for b in range(width) if fields * ((1 << b) - 1) < (1 << width) - 1)


class TestPairDegree:
    """The modulus 2^W - 1 is read in two places.  `_Packing.degree`
    reads a lead's degree as its packed key modulo 2^W - 1 when a mask
    shows that no field reaches 2^b, so that the fields sum below the
    modulus; otherwise it adds the fields one by one.  The update in
    `buchberger` reads a queued pair's lcm degree as its key modulo
    2^W - 1 while the two leads' degrees sum below that, and asks
    `_Packing.degree` past it.  Either way the heap keys, and so the
    S-pair order, are those of the Gebauer-Moeller reference."""

    @pytest.mark.parametrize(
        "width, grid, exponents, shortcut",
        [
            pytest.param(16, (2, 9), lambda bound, f: [bound - 1] * f, True, id="every-field-just-below-the-bound"),
            pytest.param(16, (2, 9), lambda bound, f: [bound] + [bound - 1] * (f - 1), False, id="a-field-at-the-bound"),
            pytest.param(16, (4, 10), lambda bound, f: [1, 2] * (f // 2), True, id="forty-fields"),
            pytest.param(3, (2, 3), lambda bound, f: [1] * f, True, id="six-fields-at-width-3"),
            pytest.param(3, (7, 1), lambda bound, f: [1] * f, False, id="seven-fields-at-width-3"),
            pytest.param(3, (3, 1), lambda bound, f: [3, 3, 1], False, id="degree-at-the-modulus-at-width-3"),
            pytest.param(16, (2, 9), lambda bound, f: [0] * f, True, id="the-empty-key"),
        ],
    )
    def test_the_degree_shortcut_reads_the_per_field_sum(self, monkeypatch, width, grid, exponents, shortcut):
        monkeypatch.setattr(gbei.poly, "_FIELD_BITS", width)
        variables = grid_variables(VarGrid(*grid))
        packing = gbei.poly._Packing([Polynomial.variable(v) for v in variables])
        m = monomial(dict(zip(variables, exponents(shortcut_bound(width, len(variables)), len(variables)))))
        key = packing.key(m)
        assert packing.degree(key) == m.degree
        assert (not key & packing.high) == shortcut

    def test_one_degree_loop_per_element_at_the_default_width(self, monkeypatch):
        seen, held = degree_calls(monkeypatch)
        assert len(buchberger(gbei_generators(K4, 4).generators)) == 36
        assert len(seen) == len(held) >= 36

    def test_the_loop_past_the_modulus_keeps_the_reference_order(self, s_pairs, monkeypatch):
        gens = gbei_generators(ZIGZAG, 2).generators
        reference = []
        want = reference_gebauer_moeller(gens, reference)
        monkeypatch.setattr(gbei.poly, "_FIELD_BITS", 3)
        seen, held = degree_calls(monkeypatch)
        assert buchberger(gens) == want
        assert s_pairs == reference
        # one call per element, and the fallback for some pair
        assert len(seen) > len(held)


class TestAgainstTheChainCriterion:
    """The Gebauer-Moeller update reaches the reduced basis of the loop that
    checked the chain criterion at each pop, and forms no more S-pairs."""

    @pytest.mark.parametrize(
        "g, rows", [(K4, 3), (K4, 4), (ZIGZAG, 2)], ids=["K4x3", "K4x4", "ZIGZAG"]
    )
    def test_same_basis_and_no_more_s_pairs(self, s_pairs, g, rows):
        gens = gbei_generators(g, rows).generators
        chain = []
        assert buchberger(gens) == reference_buchberger(gens, chain)
        assert 0 < len(s_pairs) <= len(chain)

    def test_same_basis_and_no_more_s_pairs_on_an_elimination_ideal(self, s_pairs, monkeypatch):
        a, b = elimination_ideal_pair()
        chain = []
        with monkeypatch.context() as patch:
            patch.setattr(gbei.poly, "buchberger", packed(partial(reference_buchberger, formed=chain)))
            want = intersect(a, b).groebner()
        assert intersect(a, b).groebner() == want
        assert 0 < len(s_pairs) <= len(chain)


P4 = graph_of(4, (1, 2), (2, 3), (3, 4))


class TestIdealOps:
    def test_membership(self):
        ideal = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)])
        assert not normal_form(var(2, 1) * minor2(1, 2, 2, 3), ideal.groebner())
        assert normal_form(var(1, 1), ideal.groebner())

    def test_equality_via_reduced_bases(self):
        a = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)])
        b = Ideal([minor2(1, 2, 1, 3), minor2(1, 2, 1, 2), var(2, 1) * minor2(1, 2, 2, 3)])
        assert ideal_equal(a, b)
        assert not ideal_equal(a, Ideal([var(1, 1)]))

    def test_equality_on_the_same_generators_needs_no_basis(self, monkeypatch):
        gens = [minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)]
        monkeypatch.setattr(gbei.poly, "buchberger", None)
        assert ideal_equal(Ideal(gens), Ideal(list(gens)))

    def test_intersection_of_principal_monomial_ideals_is_lcm(self):
        a = Ideal([var(1, 1) * var(1, 2)])
        b = Ideal([var(1, 2) * var(2, 1)])
        got = intersect(a, b)
        want = Ideal([var(1, 1) * var(1, 2) * var(2, 1)])
        assert ideal_equal(got, want)

    def test_intersection_contained_in_both(self):
        a = Ideal([minor2(1, 2, 1, 2)])
        b = Ideal([var(1, 1), var(2, 1)])
        inter = intersect(a, b)
        for f in inter.groebner():
            assert not normal_form(f, a.groebner())
            assert not normal_form(f, b.groebner())

    def test_intersection_with_self(self):
        a = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 2, 3)])
        assert ideal_equal(intersect(a, a), a)

    @staticmethod
    def assert_engine_basis_kept(ideal: Ideal):
        """An intersection lives in the grid, and its cached basis, the
        engine's packed elimination basis cut to its t-free elements, is
        the engine's reduced basis of its generators."""
        assert not any(ELIM in m.support for f in ideal.generators for m in f.terms)
        assert tuple(ideal.groebner()) == tuple(buchberger(ideal.generators))

    @pytest.mark.parametrize("g", [K2, P3, K3, CHERRY, P4], ids=["K2", "P3", "K3", "CHERRY", "P4"])
    def test_folding_the_minimal_primes_keeps_the_engine_basis(self, g):
        primes = minimal_primes(g, 2)
        acc = primes[0].ideal
        for p in primes[1:]:
            acc = intersect(acc, p.ideal)
            self.assert_engine_basis_kept(acc)
        assert ideal_equal(acc, gbei_generators(g, 2))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(row_minors, min_size=1, max_size=3), st.lists(row_minors, min_size=1, max_size=3))
    def test_intersecting_minor_ideals_keeps_the_engine_basis(self, a, b):
        a, b = Ideal(a), Ideal(b)
        got = intersect(a, b)
        self.assert_engine_basis_kept(got)
        for f in got.generators:
            assert not normal_form(f, a.groebner())
            assert not normal_form(f, b.groebner())

    def test_intersection_with_the_zero_ideal_is_zero(self):
        a = Ideal([minor2(1, 2, 1, 2)])
        for got in (intersect(Ideal(()), Ideal(())), intersect(Ideal(()), a), intersect(a, Ideal(()))):
            assert got.generators == () and tuple(got.groebner()) == ()

    def test_intersection_with_the_unit_ideal_drops_the_lead_t(self):
        # the elimination basis holds t itself, whose lead is the lowest
        # bit of t's field: the first lead that is not t-free
        a = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 2, 3)])
        got = intersect(Ideal([Polynomial.term(ONE)]), a)
        self.assert_engine_basis_kept(got)
        assert tuple(got.groebner()) == tuple(a.groebner())

    def test_initial_monomials_of_cherry(self):
        ideal = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)])
        assert {m.render() for m in ideal.groebner().leads()} == {
            "x[1,1]*x[2,2]",
            "x[1,1]*x[2,3]",
            "x[1,2]*x[2,1]*x[2,3]",
        }


class TestMonomialIdeals:
    def test_minimal_generators_prunes_multiples(self):
        a, b = mono((1, 1)), mono((1, 1), (2, 2))
        assert minimal_generators([a, b, a]) == (a,)

    def test_monomial_ideal_equality(self):
        a, b = mono((1, 1)), mono((2, 2))
        assert monomial_ideal_equal([a, b, a * b], [b, a])
        assert not monomial_ideal_equal([a], [a * b])
