from __future__ import annotations

from fractions import Fraction

import pytest

import gbei.poly
from gbei.ideals import gbei_generators, minimal_primes, rauh_basis
from gbei.poly import (
    ELIM,
    Ideal,
    Monomial,
    Polynomial,
    VarGrid,
    buchberger,
    ideal_equal,
    ideal_membership,
    intersect,
    is_groebner_basis,
    is_reduced_basis,
    minimal_generators,
    monomial_ideal_equal,
    normal_form,
    s_polynomial,
)

from conftest import K4, STAR


def mono(*vars_and_powers) -> Monomial:
    d = {}
    for item in vars_and_powers:
        var, e = (item, 1) if len(item) == 2 else ((item[0], item[1]), item[2])
        d[var] = d.get(var, 0) + e
    return Monomial.make(d)


def var(i, j) -> Polynomial:
    return Polynomial.variable((i, j))


def minor2(k, l, i, j) -> Polynomial:
    lead = mono((k, i), (l, j))
    tail = mono((l, i), (k, j))
    return Polynomial({lead: Fraction(1), tail: Fraction(-1)})


@pytest.fixture
def s_pairs(monkeypatch):
    """Every S-polynomial formed, as its (f, g) arguments in call order."""
    formed = []
    real = gbei.poly.s_polynomial

    def counting(f, g):
        formed.append((f, g))
        return real(f, g)

    monkeypatch.setattr(gbei.poly, "s_polynomial", counting)
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
        vs = g.variables()
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

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Monomial.make({(1, 1): -1})

    def test_render(self):
        assert mono((1, 2, 3), (2, 1)).render() == "x[1,2]^3*x[2,1]"
        assert Monomial.make({}).render() == "1"


class TestPolynomial:
    def test_ring_identities(self):
        f = minor2(1, 2, 1, 2)
        g = var(2, 1) + var(1, 3)
        assert (f + g) - g == f
        assert f * g == g * f
        assert f + (-f) == Polynomial.zero()
        assert not Polynomial.zero()

    def test_leading_term_under_the_fixed_order(self):
        f = minor2(1, 2, 1, 2)
        lead, c = f.leading()
        assert lead == mono((1, 1), (2, 2)) and c == 1

    def test_zero_has_no_leading_term(self):
        with pytest.raises(ValueError):
            Polynomial.zero().leading()

    def test_render_descending_terms_with_signs(self):
        f = minor2(1, 2, 1, 2)
        assert f.render() == "x[1,1]*x[2,2] - x[1,2]*x[2,1]"
        assert (-f).render() == "-x[1,1]*x[2,2] + x[1,2]*x[2,1]"
        assert Polynomial.zero().render() == "0"
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
        assert buchberger([Polynomial.zero()]) == ()

    def test_groebner_checker_rejects_non_basis(self):
        gens = [minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)]
        assert not is_groebner_basis(gens)

    def test_reduced_checker_rejects_redundancy(self):
        f = minor2(1, 2, 1, 2)
        assert not is_reduced_basis([f, var(1, 2) * f])
        assert not is_reduced_basis([f + f])  # leading coefficient 2
        assert is_reduced_basis([f])


class TestPairCriteria:
    """The coprimality and chain criteria decide which S-polynomials are
    formed.  A criterion that pruned differently would still reach the same
    reduced basis, so the number formed is pinned on fixed inputs."""

    def test_buchberger_on_k4_with_three_rows(self, s_pairs):
        gb = buchberger(gbei_generators(K4, 3).generators)
        assert len(gb) == 18
        assert len(s_pairs) == 52

    def test_groebner_check_on_the_k4_basis_with_three_rows(self, s_pairs):
        basis = rauh_basis(K4, 3).groebner()
        s_pairs.clear()  # those of the engine run rauh_basis compared its result with
        assert is_groebner_basis(basis)
        assert len(basis) == 18
        assert len(s_pairs) == 52


def reference_buchberger(gens) -> tuple[Polynomial, ...]:
    """Reference: the Buchberger loop that picks each pair with a `min`
    over every pending pair, recomputing each pending pair's lcm per round.
    It uses the same criteria and helpers as `buchberger`."""
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
        if gbei.poly._skip_pair(leads, i, j, done):
            continue
        h = normal_form(gbei.poly.s_polynomial(basis[i], basis[j]), basis)
        if h:
            h = h.monic()
            basis.append(h)
            leads.append(h.leading_monomial())
            t = len(basis) - 1
            pairs.update((k, t) for k in range(t))
    return gbei.poly._interreduce(basis)


class TestPairQueue:
    """The heap pops the pairs in the order of the `min`-based reference, so
    the same S-polynomials are formed in the same order."""

    @pytest.mark.parametrize("rows", [3, 4])
    def test_same_s_pairs_in_the_same_order_on_k4(self, s_pairs, rows):
        gens = gbei_generators(K4, rows).generators
        want = reference_buchberger(gens)
        reference = list(s_pairs)
        s_pairs.clear()
        assert buchberger(gens) == want
        assert s_pairs == reference
        assert reference

    def test_same_s_pairs_in_the_same_order_on_an_elimination_ideal(self, s_pairs, monkeypatch):
        primes = minimal_primes(STAR, 2)
        a, b = primes[0].ideal, primes[1].ideal
        with monkeypatch.context() as patch:
            patch.setattr(gbei.poly, "buchberger", reference_buchberger)
            want = intersect(a, b).groebner()
        reference = list(s_pairs)
        s_pairs.clear()
        assert intersect(a, b).groebner() == want
        assert s_pairs == reference
        assert any(ELIM in mono.support for f, _ in reference for mono in f.terms)

    def test_each_pair_lcm_is_computed_once(self, monkeypatch):
        # the min-based reference makes 199,101 lcm calls here; keying each
        # pair once at creation leaves about one per pair plus the S-pairs
        calls = [0]
        real = Monomial.lcm

        def counting(self, other):
            calls[0] += 1
            return real(self, other)

        gens = gbei_generators(K4, 4).generators
        monkeypatch.setattr(Monomial, "lcm", counting)
        gb = buchberger(gens)
        assert len(gb) == 36
        assert calls[0] <= 2000


class TestIdealOps:
    def test_membership(self):
        ideal = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)])
        assert ideal_membership(var(2, 1) * minor2(1, 2, 2, 3), ideal)
        assert not ideal_membership(var(1, 1), ideal)

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
            assert ideal_membership(f, a)
            assert ideal_membership(f, b)

    def test_intersection_with_self(self):
        a = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 2, 3)])
        assert ideal_equal(intersect(a, a), a)

    def test_initial_monomials_of_cherry(self):
        ideal = Ideal([minor2(1, 2, 1, 2), minor2(1, 2, 1, 3)])
        assert {m.render() for m in ideal.initial_monomials()} == {
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
