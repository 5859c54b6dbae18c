"""The NP-completeness reduction of Section 3.1: PARTITION -> UOV membership.

Given a sequence ``a_0 .. a_{n-1}`` of positive integers with even sum
``2h``, the paper constructs a two-dimensional stencil

    r_i = (0,   (n+1)^i + (n+1)^n)
    s_i = (a_i, (n+1)^i + (n+1)^n)          for i = 0 .. n-1

and the query vector

    w = (h, n(n+1)^n + ((n+1)^n - 1) / n)

(the second coordinate equals ``sum_i ((n+1)^i + (n+1)^n)``, i.e. base-
``n+1`` digits force any cone certificate for ``w`` to pick **exactly one**
of ``r_i`` / ``s_i`` per index).  The chosen ``s_i`` terms then contribute
``a_i`` each to the first coordinate, so a certificate exists iff some
subsequence of the ``a_i`` sums to ``h`` — a PARTITION solution.

This module builds the instance, provides exact PARTITION solvers
(pseudo-polynomial DP and brute force) and the verification helpers used by
the tests to confirm the equivalence empirically.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from repro.core.cone import ConeSolver
from repro.core.stencil import Stencil
from repro.util.vectors import IntVector

__all__ = [
    "reduction_from_partition",
    "partition_solvable",
    "partition_brute_force",
    "cone_query_matches_partition",
]


def reduction_from_partition(
    values: Sequence[int],
) -> tuple[Stencil, IntVector]:
    """Construct the paper's ``(V, w)`` instance from a PARTITION instance.

    ``values`` must be positive integers (duplicates allowed — the paper
    uses sequences precisely to allow them).  Raises ``ValueError`` for an
    empty sequence or non-positive entries.  An odd total is allowed (the
    PARTITION answer is then trivially "no", and so is the cone query).
    """
    if not values:
        raise ValueError("PARTITION instance must be non-empty")
    if any(a <= 0 for a in values):
        raise ValueError("PARTITION values must be positive integers")
    n = len(values)
    base = n + 1
    big = base**n
    vectors = []
    for i, a in enumerate(values):
        tag = base**i + big
        vectors.append((0, tag))
        # The paper writes s_i = (a_i, tag) and w = (h, ...) with h = sum/2,
        # implicitly assuming an even total.  We scale the first coordinate
        # by two (s_i = (2 a_i, tag), w = (sum, ...)): for even totals this
        # is the paper's construction with the first axis doubled, and for
        # odd totals the query is correctly infeasible (2 * subset-sum is
        # even, the target odd) instead of accidentally hitting floor(sum/2).
        vectors.append((2 * a, tag))
    # sum_{i<n} (n+1)^i == ((n+1)^n - 1) / n  exactly, since (n+1) = 1 (mod n).
    w = (sum(values), n * big + (big - 1) // n)
    return Stencil(vectors), w


def partition_solvable(values: Sequence[int]) -> bool:
    """Pseudo-polynomial DP for PARTITION: can a subsequence sum to half?"""
    total = sum(values)
    if total % 2:
        return False
    half = total // 2
    reachable = 1  # bitset of achievable sums
    for a in values:
        reachable |= reachable << a
        reachable &= (1 << (half + 1)) - 1
    return bool(reachable >> half & 1)


def partition_brute_force(values: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Exponential PARTITION solver returning a witness subset of indices.

    Used in tests as an independent oracle for the DP and to extract a
    subset from which a cone certificate can be reconstructed by hand.
    """
    total = sum(values)
    if total % 2:
        return None
    half = total // 2
    n = len(values)
    for r in range(n + 1):
        for idx in itertools.combinations(range(n), r):
            if sum(values[i] for i in idx) == half:
                return idx
    return None


def cone_query_matches_partition(values: Sequence[int]) -> bool:
    """Check the reduction's core equivalence on one instance.

    Returns True when "``w`` is a non-negative integer combination of
    ``V``" agrees with PARTITION solvability.  (UOV membership asks the
    cone question for each ``w - v``; the *hard core* the proof leans on is
    the cone query for ``w`` itself, which is what we validate here — and
    what makes the membership problem NP-hard.)
    """
    stencil, w = reduction_from_partition(values)
    in_cone = ConeSolver(stencil.vectors).solve(w) is not None
    return in_cone == partition_solvable(values)


def certificate_from_subset(
    values: Sequence[int], subset: Sequence[int]
) -> dict[IntVector, int]:
    """Build the cone certificate implied by a PARTITION witness subset.

    Picks ``s_i`` for indices in the subset and ``r_i`` otherwise, each
    with coefficient one.  The test suite feeds this to the cone solver's
    verification path.
    """
    n = len(values)
    base = n + 1
    big = base**n
    chosen = set(subset)
    certificate: dict[IntVector, int] = {}
    for i, a in enumerate(values):
        tag = base**i + big
        vec = (2 * a, tag) if i in chosen else (0, tag)
        certificate[vec] = certificate.get(vec, 0) + 1
    return certificate
