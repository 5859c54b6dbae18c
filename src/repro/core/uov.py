"""Occupancy vectors and universal occupancy vectors (Section 3.1).

An occupancy vector ``ov`` directs storage reuse: iteration ``q`` writes
into the location previously written by iteration ``q - ov``.  A
*universal* occupancy vector is one that is safe under **every** legal
schedule of the loop — equivalently (paper, Section 3.1), for each stencil
vector ``vi``, ``ov - vi`` lies in the non-negative integer cone of the
stencil; i.e. the system

    ov = a_i1 v1 + ... + a_im vm      (one row per i, with a_ii >= 1)

has a solution row by row.  The two formulations coincide because a row
with positive diagonal is exactly a cone certificate for ``ov - vi``.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from repro.core.cone import ConeSolver
from repro.core.stencil import Stencil
from repro.util.vectors import IntVector, as_vector, is_zero, norm2, sub

__all__ = [
    "initial_uov",
    "is_uov",
    "uov_certificates",
    "uov_rejection",
    "enumerate_uovs",
    "is_legal_for_schedule",
]


def initial_uov(stencil: Stencil) -> IntVector:
    """The trivially-computed UOV ``ov0 = sum(vi)`` (Section 3.2.1)."""
    return stencil.initial_uov


def is_uov(
    ov: Sequence[int],
    stencil: Stencil,
    solver: Optional[ConeSolver] = None,
) -> bool:
    """Membership test ``ov in UOV(V)``.

    NP-complete in the number of stencil vectors (Section 3.1), but fast in
    practice — realistic stencils have a handful of short vectors.  The
    zero vector is never a UOV: it would overwrite a value in the very
    iteration that produces it.
    """
    return uov_certificates(ov, stencil, solver=solver) is not None


def uov_certificates(
    ov: Sequence[int],
    stencil: Stencil,
    solver: Optional[ConeSolver] = None,
) -> Optional[dict[IntVector, dict[IntVector, int]]]:
    """Per-stencil-vector cone certificates proving ``ov in UOV(V)``.

    Returns ``{vi: {vj: a_ij}}`` where row ``vi`` satisfies
    ``ov - vi = sum_j a_ij vj`` with ``a_ij >= 0`` (so, adding ``vi`` back,
    ``ov = vi + sum_j a_ij vj`` — the paper's positive-diagonal system).
    Returns ``None`` when ``ov`` is not a UOV.
    """
    ov = as_vector(ov)
    if len(ov) != stencil.dim:
        raise ValueError("occupancy vector dimensionality mismatch")
    if is_zero(ov):
        return None
    if solver is None:
        solver = ConeSolver(stencil.vectors)
    rows: dict[IntVector, dict[IntVector, int]] = {}
    for v in stencil.vectors:
        certificate = solver.solve(sub(ov, v))
        if certificate is None:
            return None
        rows[v] = certificate
    return rows


def uov_rejection(
    ov: Sequence[int],
    stencil: Stencil,
    solver: Optional[ConeSolver] = None,
) -> Optional[IntVector]:
    """The first stencil vector witnessing ``ov not in UOV(V)``.

    Returns a ``vi`` with ``ov - vi`` outside the non-negative integer
    cone of the stencil (so the consumer ``(q - ov) + vi`` is *not* forced
    to execute before ``q``, and some legal schedule clobbers a live
    value), or ``None`` when ``ov`` is a UOV.  The static counterexample
    builder in :mod:`repro.analysis.certify` turns this vector into a
    replayable schedule fragment.
    """
    ov = as_vector(ov)
    if len(ov) != stencil.dim:
        raise ValueError("occupancy vector dimensionality mismatch")
    if is_zero(ov):
        return stencil.vectors[0]
    if solver is None:
        solver = ConeSolver(stencil.vectors)
    for v in stencil.vectors:
        if solver.solve(sub(ov, v)) is None:
            return v
    return None


def enumerate_uovs(
    stencil: Stencil,
    max_norm2: int,
    solver: Optional[ConeSolver] = None,
) -> list[IntVector]:
    """All UOVs with squared length at most ``max_norm2``.

    Exhaustive over the box ``[-r, r]^d``; intended for tests, examples,
    and cross-checking the branch-and-bound search on small stencils.
    Results are sorted by (squared length, lexicographic).
    """
    if max_norm2 < 0:
        raise ValueError("max_norm2 must be non-negative")
    if solver is None:
        solver = ConeSolver(stencil.vectors)
    r = int(max_norm2 ** 0.5)
    found = []
    for point in itertools.product(range(-r, r + 1), repeat=stencil.dim):
        if norm2(point) > max_norm2 or is_zero(point):
            continue
        if is_uov(point, stencil, solver=solver):
            found.append(tuple(point))
    found.sort(key=lambda w: (norm2(w), w))
    return found


def is_legal_for_schedule(
    ov: Sequence[int],
    stencil: Stencil,
    order: Iterable[Sequence[int]],
) -> bool:
    """Dynamic legality of an occupancy vector under one concrete schedule.

    ``order`` is the execution order of the iteration points.  The OV is
    legal for this schedule when, at the moment ``q`` executes (and
    overwrites the location of ``p = q - ov``), every consumer of ``p``'s
    value (each ``p + vi`` inside the iteration set) has already executed,
    and ``p`` itself has executed.  This is the semantic ground truth that
    the algebraic ``is_uov`` test is checked against in the test suite:
    a UOV must pass for *every* legal order, while a plain OV may fail for
    some.
    """
    ov = as_vector(ov)
    points = [as_vector(p) for p in order]
    index = {p: t for t, p in enumerate(points)}
    point_set = set(index)
    from repro.util.vectors import add

    for q in points:
        p = sub(q, ov)
        if p not in point_set:
            continue  # reuse source outside the iteration set: no conflict
        if index[p] >= index[q]:
            return False  # overwriting a value not yet produced
        for v in stencil.vectors:
            consumer = add(p, v)
            if consumer == q:
                # q reads p's value and then overwrites it: reads precede
                # the write within an iteration (the DEAD-set semantics).
                continue
            if consumer in point_set and index[consumer] >= index[q]:
                return False  # overwriting a value still to be read
    return True
