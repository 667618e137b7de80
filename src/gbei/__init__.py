"""Generalized binomial edge ideals of graphs.

Exact toolkit for the ideals generated by the 2x2 minors of an m x n
variable grid picked along graph edges: closed-form depth and regularity
for generalized block graphs, closed-form reduced Groebner bases checked
against the Buchberger engine's, minimal primes through cut-point sets,
and an independent Stanley-Reisner homology oracle for cross-checking.
"""

from .graphs import (
    Classification,
    CutSetCensus,
    Graph,
    GraphParseError,
    SizeCap,
    classify,
    cut_set_census,
    enumerate_connected_graphs,
    is_connected,
    parse_graph,
)
from .homology import (
    BettiTable,
    hilbert_check,
    hilbert_numerator,
    hochster_betti,
)
from .ideals import (
    AdmissiblePath,
    Analysis,
    AntitoneMap,
    BasisValidationError,
    FormulaResult,
    MinimalPrime,
    admissible_paths,
    antitone_maps,
    depth_formula,
    gbei_generators,
    initial_ideal,
    is_unmixed,
    krull_dimension,
    minimal_primes,
    minor,
    rauh_basis,
    regularity_formula,
)
from .poly import (
    ELIM,
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
from .report import corpus_report

__version__ = "0.1.0"

__all__ = [
    "AdmissiblePath",
    "Analysis",
    "AntitoneMap",
    "BasisValidationError",
    "BettiTable",
    "Classification",
    "CutSetCensus",
    "ELIM",
    "FormulaResult",
    "Graph",
    "GraphParseError",
    "GroebnerBasis",
    "Ideal",
    "MinimalPrime",
    "Monomial",
    "Polynomial",
    "SizeCap",
    "VarGrid",
    "admissible_paths",
    "antitone_maps",
    "buchberger",
    "classify",
    "corpus_report",
    "cut_set_census",
    "depth_formula",
    "enumerate_connected_graphs",
    "gbei_generators",
    "hilbert_check",
    "hilbert_numerator",
    "hochster_betti",
    "ideal_equal",
    "initial_ideal",
    "intersect",
    "is_connected",
    "is_groebner_basis",
    "is_reduced_basis",
    "is_unmixed",
    "krull_dimension",
    "minimal_primes",
    "minor",
    "normal_form",
    "parse_graph",
    "rauh_basis",
    "regularity_formula",
    "s_polynomial",
]
