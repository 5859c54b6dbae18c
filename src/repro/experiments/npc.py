"""Section 3.1 — the NP-completeness reduction, exercised.

Not a table or figure, but a theorem with a constructive proof; this
experiment *runs* the construction: random PARTITION instances are
reduced to UOV-membership queries and both sides of the claimed
equivalence are computed independently: the pseudo-polynomial DP for
PARTITION (itself checked against brute force), and the exact DFS cone
solver for the cone query of ``w`` and for full UOV membership.
"""

from __future__ import annotations

import random

from repro.core.cone import ConeSolver
from repro.core.npcomplete import (
    partition_brute_force,
    partition_solvable,
    reduction_from_partition,
)
from repro.core.uov import is_uov
from repro.experiments.harness import ExperimentResult

TITLE = "Section 3.1: PARTITION -> UOV-membership reduction"


def run(mode: str = "quick") -> ExperimentResult:
    trials = 60 if mode == "full" else 20
    max_n = 6 if mode == "full" else 5
    rng = random.Random(31)
    result = ExperimentResult("npc", TITLE, mode)

    agree = 0
    uov_agree = 0
    solvable_count = 0
    rows = [["instance", "PARTITION", "w in cone(V)", "w in UOV(V)"]]
    for t in range(trials):
        values = tuple(
            rng.randint(1, 9) for _ in range(rng.randint(1, max_n))
        )
        stencil, w = reduction_from_partition(values)
        expected = partition_solvable(values)
        in_cone = ConeSolver(stencil.vectors).solve(w) is not None
        member = is_uov(w, stencil)
        agree += in_cone == expected
        uov_agree += member == expected
        solvable_count += expected
        if t < 8:
            rows.append(
                [str(values), str(expected), str(in_cone), str(member)]
            )
    result.tables["sample instances"] = rows
    result.notes.append(
        f"{trials} random instances, {solvable_count} solvable; cone-query "
        f"agreement {agree}/{trials}, UOV-membership agreement "
        f"{uov_agree}/{trials}."
    )

    result.claim(
        "cone membership of w agrees with PARTITION on every instance",
        lambda: agree == trials,
    )
    result.claim(
        "full UOV membership of w agrees with PARTITION on every instance",
        lambda: uov_agree == trials,
    )
    result.claim(
        "DP and brute-force PARTITION solvers agree on small instances",
        lambda: all(
            (partition_brute_force(v) is not None) == partition_solvable(v)
            for v in [
                tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
                for _ in range(30)
            ]
        ),
    )
    return result
