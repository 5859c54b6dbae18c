"""Fresh mod-hat variables never reuse a name already in the system.

A splinter plane re-runs equality elimination on constraints that still
mention the sigma variables of the outer elimination.  Numbering the new
sigmas from zero again merged two unrelated variables: FM then called a
feasible cone system empty, or the mod-hat step lost its unit
coefficient and asserted.
"""

from repro.analysis.symcert import cone_system
from repro.core.cone import ConeSolver
from repro.frontend.spec import validate_spec
from repro.pipeline import compile_spec
from repro.util.fm import Constraint, LinExpr, System


def test_splinter_system_keeps_feasible_cone_point():
    vectors = [(3, 1), (2, -1), (2, 3), (3, 2), (1, 3)]
    target = (6, -3)
    assert ConeSolver(vectors).solve(target) is not None  # 3 * (2, -1)
    system = cone_system(vectors, target)
    assert not system.is_empty()
    witness = system.sample_point()
    assert witness is not None and system.satisfies(witness)


def test_fresh_sigma_numbered_past_existing_ones():
    # 2*x + 3*__fm_sigma0 == 7 needs a mod-hat step of its own; the new
    # sigma must not be named __fm_sigma0.
    system = System.of(
        Constraint(
            LinExpr.of({"x": 2, "__fm_sigma0": 3}, -7), equality=True
        ),
        Constraint(LinExpr.var("x")),
        Constraint(LinExpr.var("__fm_sigma0")),
    )
    assert not system.is_empty()  # x = 2, sigma0 = 1


def test_uov_search_compiles_formerly_asserting_stencil():
    spec = validate_spec(
        {
            "name": "sigma-collision",
            "indices": ["i", "j"],
            "bounds": [[1, "n"], [1, "m"]],
            "distances": [[0, 2], [0, 3], [2, 3], [3, 2]],
            "combine": {"kind": "weighted-sum", "weights": [0.225] * 4},
            "inputs": {
                "kind": "padded-line",
                "axis": 1,
                "pad": 1,
                "pad_value": 0.5,
            },
            "sizes": {"n": 5, "m": 5},
        }
    )
    result = compile_spec(spec, {"n": 5, "m": 5}, execute=False)
    assert result.artifact("uov-search") is not None
