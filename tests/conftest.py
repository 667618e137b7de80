from __future__ import annotations

import pytest

from gbei.graphs import Graph


def graph_of(n: int, *edges: tuple[int, int]) -> Graph:
    return Graph.from_edges(n, list(edges))


# the named small graphs the suite keeps coming back to
K2 = graph_of(2, (1, 2))
P3 = graph_of(3, (1, 2), (2, 3))
CHERRY = graph_of(3, (1, 2), (1, 3))  # path 2-1-3: center is the smallest label
K3 = graph_of(3, (1, 2), (1, 3), (2, 3))
STAR = graph_of(4, (1, 2), (1, 3), (1, 4))
P5 = graph_of(5, (1, 2), (2, 3), (3, 4), (4, 5))
C4 = graph_of(4, (1, 2), (2, 3), (3, 4), (1, 4))
K4 = graph_of(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
# three triangles glued along the common edge {1,2}
FAN = graph_of(5, (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (1, 5), (2, 5))

# the (vertices, rows) pairs whose full generalized-block corpus fits the
# 12-variable oracle budget
DEPTH_SWEEP = [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)]


@pytest.fixture(scope="session")
def betti_cache():
    """Shared (edges, rows) -> (initial ideal generators, grid, BettiTable).

    The acceptance checks revisit the same quotients several times; the
    oracle is deterministic, so computing each table once is safe.
    """
    return {}


@pytest.fixture(scope="session")
def lead_cache():
    """Shared (edges, rows) -> engine lead monomials from buchberger."""
    return {}
