"""Acceptance gate: ten end-to-end checks, one test and one printed
pass/fail line each.

Every comparison is exact.  The first three sweep the closed-form depth and
regularity against the homology oracle on all connected generalized block
graphs at desk scale; the rest are property checks of the Groebner machinery,
the prime decomposition, the column-adjunction identity, the cut-set
bookkeeping of leaf splits, unmixedness, and Hilbert-series consistency.
"""

from __future__ import annotations

from itertools import combinations

from gbei.graphs import (
    Graph,
    cut_set_census,
    enumerate_connected_graphs,
)
from gbei.homology import hilbert_check, hochster_betti
from gbei.ideals import (
    depth_formula,
    gbei_generators,
    initial_ideal,
    is_unmixed,
    krull_dimension,
    minimal_primes,
    regularity_formula,
)
from gbei.poly import VarGrid, buchberger, ideal_equal, intersect

from conftest import (
    CHERRY,
    DEPTH_SWEEP,
    K2,
    K3,
    P3,
    initial_ideal_commutes_with_columns,
    is_path,
    leaf_decomposition,
    monomial_ideal_equal,
)


def _key(g: Graph, rows: int):
    return (g.n, rows, tuple(g.sorted_edges()))


def _oracle_table(g: Graph, rows: int, betti_cache: dict):
    key = _key(g, rows)
    if key not in betti_cache:
        gens = list(initial_ideal(g, rows))
        grid = VarGrid(rows, g.n)
        betti_cache[key] = (gens, grid, hochster_betti(gens, grid))
    return betti_cache[key]


def _engine_leads(g: Graph, rows: int, lead_cache: dict):
    key = _key(g, rows)
    if key not in lead_cache:
        basis = buchberger(gbei_generators(g, rows).generators)
        lead_cache[key] = [f.leading_monomial() for f in basis]
    return lead_cache[key]


def _report(name: str, failures: list, cases: int):
    status = "FAIL" if failures else "PASS"
    print(f"{name}: {status} ({cases} cases)")
    assert not failures, failures[:5]


def test_acceptance_01_depth_formula_matches_oracle(betti_cache):
    failures, cases = [], 0
    for n, rows in DEPTH_SWEEP:
        for g in enumerate_connected_graphs(n, "gblock"):
            _, _, table = _oracle_table(g, rows, betti_cache)
            want = depth_formula(g, rows).value
            cases += 1
            if table.depth() != want:
                failures.append((g.sorted_edges(), rows, table.depth(), want))
    _report("depth formula vs homology oracle", failures, cases)


def test_acceptance_02_regularity_exact_when_rows_dominate(betti_cache):
    failures, cases = [], 0
    for n, rows in ((2, 2), (2, 3), (3, 3)):
        for g in enumerate_connected_graphs(n, "gblock"):
            _, _, table = _oracle_table(g, rows, betti_cache)
            res = regularity_formula(g, rows)
            cases += 1
            if res.kind != "exact" or table.regularity() != n - 1 or res.value != n - 1:
                failures.append((g.sorted_edges(), rows, table.regularity()))
    _report("regularity equals vertices minus one when rows dominate", failures, cases)


def test_acceptance_03_regularity_bounded_with_equality_on_paths(betti_cache):
    failures, cases = [], 0
    for n in (3, 4, 5):
        for g in enumerate_connected_graphs(n, "gblock"):
            _, _, table = _oracle_table(g, 2, betti_cache)
            got = table.regularity()
            cases += 1
            if got > n - 1:
                failures.append((g.sorted_edges(), "bound", got))
            elif is_path(g) and got != n - 1:
                failures.append((g.sorted_edges(), "path equality", got))
    _report("regularity bounded by vertices minus one, exact on paths", failures, cases)


def test_acceptance_04_closed_form_basis_agrees_with_buchberger(lead_cache):
    failures, cases = [], 0
    for n in (1, 2, 3, 4):
        for g in enumerate_connected_graphs(n):
            for rows in (2, 3):
                cases += 1
                try:
                    closed = list(initial_ideal(g, rows))
                except Exception as err:  # validation failures are the point here
                    failures.append((g.sorted_edges(), rows, repr(err)))
                    continue
                engine = _engine_leads(g, rows, lead_cache)
                if not monomial_ideal_equal(closed, engine):
                    failures.append((g.sorted_edges(), rows, "lead mismatch"))
    _report("path basis validates and matches the engine", failures, cases)


def test_acceptance_05_initial_ideals_are_squarefree(lead_cache):
    failures, cases = [], 0
    for n in (1, 2, 3, 4):
        for g in enumerate_connected_graphs(n):
            for rows in (2, 3):
                cases += 1
                engine = _engine_leads(g, rows, lead_cache)
                bad = [m.render() for m in engine if not m.is_squarefree()]
                if bad:
                    failures.append((g.sorted_edges(), rows, bad))
    _report("engine lead monomials all squarefree", failures, cases)


def test_acceptance_06_ideal_is_the_intersection_of_its_primes():
    failures, cases = [], 0
    for g in (K2, P3, K3, CHERRY):
        cases += 1
        primes = minimal_primes(g, 2)
        acc = primes[0].ideal
        for p in primes[1:]:
            acc = intersect(acc, p.ideal)
        if not ideal_equal(acc, gbei_generators(g, 2)):
            failures.append(g.sorted_edges())
    _report("minimal primes intersect back to the ideal", failures, cases)


def test_acceptance_07_column_adjunction_commutes_with_initial_ideal():
    failures, cases = [], 0
    for n in (1, 2, 3, 4):
        for g in enumerate_connected_graphs(n):
            for j in range(1, n + 1):
                cases += 1
                if not initial_ideal_commutes_with_columns(g, 2, [j]):
                    failures.append((g.sorted_edges(), j))
    _report("adjoining one column commutes with the initial ideal", failures, cases)


def _size_tally(census, n: int) -> list[int]:
    """a(1), ..., a(n) of a census, from one tally of the sizes of its
    minimal cut sets."""
    sizes = [0] * (n + 1)
    for m in census._minimal_masks:
        sizes[m.bit_count()] += 1
    return sizes[1:]


def test_acceptance_08_leaf_split_shifts_the_cut_set_counts():
    failures, cases, seen = [], 0, 0
    for n in range(2, 8):
        for g in enumerate_connected_graphs(n, "gblock"):
            seen += n == 7
            census = cut_set_census(g)
            if not any(census.counts.values()):
                continue  # a single clique: nothing to peel
            split = leaf_decomposition(g)
            cases += 1
            want = _size_tally(census, n)
            want[split.alpha - 1] -= 1
            merged = _size_tally(cut_set_census(split.merged), n)
            merged_restricted = _size_tally(cut_set_census(split.merged_minus_cut), n)
            remainder = _size_tally(cut_set_census(split.minus_cut), n)
            if merged != want or merged_restricted != want:
                failures.append((g.sorted_edges(), merged, merged_restricted, want, "equality"))
            elif any(r > w for r, w in zip(remainder, want)):
                failures.append((g.sorted_edges(), remainder, want, "remainder bound"))
    if seen != 127877:
        failures.append((7, f"{seen} generalized block graphs, expected 127877"))
    _report("leaf split drops exactly one cut set of its own size", failures, cases)


def test_acceptance_09_unmixed_block_graphs_are_complete():
    failures, cases = [], 0
    for n in (3, 4):
        complete = Graph.from_edges(n, list(combinations(range(1, n + 1), 2)))
        for g in enumerate_connected_graphs(n, "block"):
            cases += 1
            if is_unmixed(g, 3) != (g == complete):
                failures.append((g.sorted_edges(), "unmixed iff complete"))
        dim, _ = krull_dimension(complete, 3)
        if depth_formula(complete, 3).value != dim:
            failures.append((n, "complete graph depth vs dimension"))
    _report("with three rows, unmixed block graphs are the complete ones", failures, cases)


def test_acceptance_10_betti_tables_reproduce_hilbert_series(betti_cache):
    # revisit every quotient the depth/regularity sweeps touched
    failures, cases = [], 0
    for n, rows in DEPTH_SWEEP:
        for g in enumerate_connected_graphs(n, "gblock"):
            gens, grid, table = _oracle_table(g, rows, betti_cache)
            cases += 1
            if not hilbert_check(gens, grid, table):
                failures.append((g.sorted_edges(), rows))
    _report("alternating Betti sums match the Hilbert series", failures, cases)
