"""Algorithm-level benchmarks and ablations.

- exact integer cone membership: hand-rolled DFS vs Fourier-Motzkin;
- the branch-and-bound search on the paper's stencils;
- search-objective ablation (shortest vs known-bounds storage);
- mapping-evaluation throughput: interpreted vs compiled address paths.
"""

import pytest

from repro.analysis.symcert import cone_system
from repro.core import Stencil, find_optimal_uov
from repro.core.cone import ConeSolver
from repro.mapping import OVMapping2D
from repro.util.polyhedron import Polytope

FIG2 = Stencil([(1, 0), (1, 1), (1, -1)])
STENCIL5 = Stencil([(1, -2), (1, -1), (1, 0), (1, 1), (1, 2)])
FIG3_ISG = Polytope([(1, 1), (1, 6), (10, 9), (10, 4)])


@pytest.mark.parametrize("decider", ["dfs", "fm"])
def test_cone_backend(benchmark, decider):
    """Ablation: the two exact integer-feasibility deciders on one workload."""
    targets = [
        (t, x) for t in range(0, 7) for x in range(-6, 7)
    ]

    def solve_all():
        if decider == "fm":
            return sum(
                not cone_system(STENCIL5.vectors, t).is_empty()
                for t in targets
            )
        solver = ConeSolver(STENCIL5.vectors)
        return sum(solver.solve(t) is not None for t in targets)

    feasible = benchmark(solve_all)
    assert feasible == sum(
        1
        for t in targets
        if ConeSolver(STENCIL5.vectors).solve(t) is not None
    )


@pytest.mark.parametrize(
    "stencil,expected",
    [
        (Stencil([(1, 0), (0, 1), (1, 1)]), (1, 1)),
        (STENCIL5, (2, 0)),
        (FIG2, (2, 0)),
    ],
    ids=["fig1", "stencil5", "fig2"],
)
def test_search_shortest(benchmark, stencil, expected):
    result = benchmark(find_optimal_uov, stencil)
    assert result.ov == expected and result.optimal


def test_search_known_bounds(benchmark):
    """Ablation: the storage objective explores a larger region than the
    shortest-vector objective but stays cheap."""
    result = benchmark(find_optimal_uov, FIG2, FIG3_ISG)
    assert result.ov == (3, 1) and result.storage == 16
    shortest = find_optimal_uov(FIG2)
    assert result.nodes_visited >= shortest.nodes_visited


def test_mapping_throughput_compiled(benchmark):
    """The compiled address path the simulator uses vs direct calls."""
    isg = Polytope.from_box((1, 0), (64, 1023))
    mapping = OVMapping2D((2, 0), isg, layout="consecutive")
    f = mapping.compiled()
    points = [(t, x) for t in range(1, 33) for x in range(0, 1024, 8)]

    def run():
        total = 0
        for t, x in points:
            total += f(t, x)
        return total

    total = benchmark(run)
    assert total == sum(mapping(p) for p in points)
