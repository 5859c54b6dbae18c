"""Static UOV certification: prove or refute ``w in UOV(V)`` symbolically.

The paper's DEAD-set formulation (Section 3) says ``w`` is a universal
occupancy vector iff, for every point ``q``, the displaced point
``q - w`` is in ``DEAD(V, q)`` — which holds iff every consumer
``(q - w) + vi`` is in ``DONE(V, q)``, i.e. ``w - vi`` lies in the
non-negative integer cone of the stencil for every stencil vector ``vi``.
This module decides that condition exactly (bounded cone membership via
:class:`repro.core.cone.ConeSolver`) and, unlike the boolean
:func:`repro.core.uov.is_uov`, returns an *artifact* either way:

- a :class:`UOVCertificate` — the witness combinations, machine-checkable
  by plain integer arithmetic (``verify()``) with no trust in the solver;
- a :class:`UOVCounterexample` — the failing stencil vector plus a
  concrete legal schedule fragment over a finite box that, replayed
  through the dynamic checker
  (:func:`repro.analysis.liveness.find_mapping_violation`), exhibits a
  real clobber of a live value.

The counterexample schedule is built constructively: pick a writer ``q``,
execute its region-restricted ``DONE`` set first (any linear extension —
we sort by the stencil's positivity functional), then ``q``, then the
rest.  ``q`` overwrites the location of the victim ``p = q - w`` while
the consumer ``p + vi`` (not in ``DONE`` precisely because
``w - vi`` is outside the cone) is still pending.  The construction is
always validated by replay; if a degenerate geometry defeats it, random
legal schedules are sampled as a fallback oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.analysis.liveness import MappingViolation, find_mapping_violation
from repro.core.cone import ConeSolver, done_set, expand_certificate
from repro.core.stencil import Stencil
from repro.mapping.base import StorageMapping
from repro.util.polyhedron import Polytope
from repro.util.vectors import IntVector, add, as_vector, dot, is_zero, sub

__all__ = [
    "UOVCertificate",
    "UOVCounterexample",
    "certify",
    "ov_mapping_for",
]

#: Largest box (in lattice points) the counterexample builder will
#: materialise before falling back to random-schedule sampling.
_MAX_COUNTEREXAMPLE_POINTS = 20_000
_FALLBACK_SAMPLES = 64


def ov_mapping_for(ov: Sequence[int], isg: Polytope) -> StorageMapping:
    """The canonical OV-directed mapping used to replay verdicts."""
    from repro.mapping.ov2d import OVMapping2D
    from repro.mapping.ovnd import OVMappingND

    ov = as_vector(ov)
    if len(ov) == 2:
        return OVMapping2D(ov, isg)
    return OVMappingND(ov, isg)


@dataclass(frozen=True)
class UOVCertificate:
    """Proof that ``ov`` is universal: one witness row per stencil vector.

    ``rows[vi]`` is ``{vj: a_ij}`` with ``ov - vi = sum_j a_ij vj`` and
    all ``a_ij >= 0`` — the paper's positive-diagonal equation system,
    with the mandatory ``vi`` peeled off.
    """

    ov: IntVector
    stencil: Stencil
    rows: dict[IntVector, dict[IntVector, int]]

    def verify(self) -> bool:
        """Re-check every row by integer arithmetic alone.

        This is the "machine-checkable" half of the contract: a verifier
        needs no cone solver, only addition, to confirm the certificate.
        """
        generators = set(self.stencil.vectors)
        for vi in self.stencil.vectors:
            row = self.rows.get(vi)
            if row is None:
                return False
            total = vi
            for vj, a in row.items():
                if a < 0 or vj not in generators:
                    return False
                total = add(total, tuple(a * c for c in vj))
            if total != self.ov:
                return False
        return True

    def to_json(self) -> dict:
        return {
            "verdict": "universal",
            "ov": list(self.ov),
            "stencil": [list(v) for v in self.stencil.vectors],
            "rows": [
                {
                    "vector": list(vi),
                    "combination": [
                        {"vector": list(vj), "coefficient": a}
                        for vj, a in sorted(row.items())
                    ],
                }
                for vi, row in sorted(self.rows.items())
            ],
        }

    def __str__(self) -> str:
        return (
            f"{self.ov} is a universal occupancy vector of "
            f"{list(self.stencil.vectors)} ({len(self.rows)} witness rows)"
        )


@dataclass(frozen=True)
class UOVCounterexample:
    """Refutation of ``ov in UOV(V)`` with a replayable schedule fragment.

    ``failing_vector`` is a stencil vector ``vi`` with ``ov - vi`` outside
    the cone.  When the builder succeeded (``order is not None``),
    ``order`` is a legal schedule of the box ``bounds`` under which the
    canonical OV mapping clobbers a live value; ``replay()`` re-runs the
    dynamic checker and returns the violation.
    """

    ov: IntVector
    stencil: Stencil
    failing_vector: IntVector
    bounds: Optional[tuple[tuple[int, int], ...]]
    order: Optional[tuple[IntVector, ...]]
    writer: Optional[IntVector] = None
    victim: Optional[IntVector] = None
    pending_reader: Optional[IntVector] = None

    @property
    def replayable(self) -> bool:
        return self.order is not None

    def mapping(self) -> StorageMapping:
        if self.bounds is None:
            raise ValueError("counterexample has no schedule fragment")
        isg = Polytope.from_loop_bounds(self.bounds)
        return ov_mapping_for(self.ov, isg)

    def replay(self) -> Optional[MappingViolation]:
        """Run the dynamic liveness checker on the stored schedule."""
        if self.order is None:
            return None
        return find_mapping_violation(self.mapping(), self.stencil, self.order)

    def to_json(self) -> dict:
        return {
            "verdict": "rejected",
            "ov": list(self.ov),
            "stencil": [list(v) for v in self.stencil.vectors],
            "failing_vector": list(self.failing_vector),
            "bounds": [list(b) for b in self.bounds] if self.bounds else None,
            "writer": list(self.writer) if self.writer else None,
            "victim": list(self.victim) if self.victim else None,
            "pending_reader": (
                list(self.pending_reader) if self.pending_reader else None
            ),
            "order": (
                [list(p) for p in self.order] if self.order is not None else None
            ),
        }

    def __str__(self) -> str:
        tail = (
            f"; replayable over box {self.bounds}"
            if self.replayable
            else " (no schedule fragment constructed)"
        )
        return (
            f"{self.ov} is NOT universal: ov - {self.failing_vector} is "
            f"outside the stencil cone{tail}"
        )


def certify(
    ov: Sequence[int],
    stencil: Stencil,
    counterexample_schedule: bool = True,
) -> Union[UOVCertificate, UOVCounterexample]:
    """Decide ``ov in UOV(V)`` statically, returning a checkable artifact.

    ``counterexample_schedule=False`` skips building the replayable
    schedule fragment on rejection (the pure verdict is much cheaper).
    """
    ov = as_vector(ov)
    if len(ov) != stencil.dim:
        raise ValueError("occupancy vector dimensionality mismatch")
    if is_zero(ov):
        raise ValueError(
            "the zero vector directs no reuse and is never an occupancy "
            "vector"
        )
    solver = ConeSolver(stencil.vectors)
    rows: dict[IntVector, dict[IntVector, int]] = {}
    failing: Optional[IntVector] = None
    for v in stencil.vectors:
        witness = solver.solve(sub(ov, v))
        if witness is None:
            failing = v
            break
        rows[v] = witness
    if failing is None:
        certificate = UOVCertificate(ov, stencil, rows)
        if not certificate.verify():
            raise AssertionError(
                f"cone solver produced an invalid certificate for {ov}"
            )
        return certificate
    if not counterexample_schedule:
        return UOVCounterexample(ov, stencil, failing, None, None)
    return _build_counterexample(ov, stencil, failing, solver)


# -- counterexample construction ---------------------------------------------


def _w_sorted(points, weights) -> list[IntVector]:
    """A legal linear extension of any point set: every dependence step
    strictly increases ``w . p``, so ascending ``w . p`` (ties broken
    arbitrarily — tied points cannot depend on each other) never runs a
    consumer before its producer."""
    return sorted(points, key=lambda p: (dot(weights, p), p))


def _build_counterexample(
    ov: IntVector,
    stencil: Stencil,
    failing: IntVector,
    solver: ConeSolver,
) -> UOVCounterexample:
    dim = stencil.dim
    zero = (0,) * dim

    # Offsets (relative to the writer q) that must fit inside the box:
    # the victim p = q - ov, the pending consumer p + failing, q's own
    # consumers (so the replay has pending readers in the ov-outside-cone
    # case), and the backward dependence walk q -> p when ov itself is in
    # the cone (so p lands in the region-restricted DONE set).
    offsets: list[IntVector] = [zero, sub(zero, ov), sub(failing, ov)]
    offsets.extend(stencil.vectors)
    ov_witness = solver.solve(ov)
    if ov_witness is not None:
        for residual in expand_certificate(ov, ov_witness):
            offsets.append(sub(residual, ov))

    lower = tuple(min(o[k] for o in offsets) for k in range(dim))
    upper = tuple(max(o[k] for o in offsets) for k in range(dim))
    q = tuple(-lo for lo in lower)
    bounds = tuple((0, hi - lo) for lo, hi in zip(lower, upper))

    n_points = 1
    for lo, hi in bounds:
        n_points *= hi - lo + 1
    order: Optional[list[IntVector]] = None
    if n_points <= _MAX_COUNTEREXAMPLE_POINTS:
        import itertools

        box = Polytope.from_loop_bounds(bounds)
        points = [
            tuple(p)
            for p in itertools.product(
                *[range(lo, hi + 1) for lo, hi in bounds]
            )
        ]
        weights = stencil.positivity_weights
        done = done_set(stencil, q, box)
        prefix = _w_sorted([p for p in done if p != q], weights)
        rest = _w_sorted([p for p in points if p not in done], weights)
        candidate = prefix + [q] + rest
        mapping = ov_mapping_for(ov, box)
        if find_mapping_violation(mapping, stencil, candidate) is not None:
            order = candidate

    if order is None:
        order, bounds = _sampled_counterexample(ov, stencil, bounds)

    victim = sub(q, ov)
    return UOVCounterexample(
        ov,
        stencil,
        failing,
        bounds if order is not None else None,
        tuple(order) if order is not None else None,
        writer=q,
        victim=victim,
        pending_reader=add(victim, failing),
    )


def _sampled_counterexample(
    ov: IntVector,
    stencil: Stencil,
    bounds: tuple[tuple[int, int], ...],
) -> tuple[Optional[list[IntVector]], tuple[tuple[int, int], ...]]:
    """Fallback oracle: sample random legal schedules until one violates.

    A non-UOV is violated by *some* legal schedule on a large enough box;
    random linear extensions find one with high probability.  Determinism
    comes from the fixed seed.
    """
    from repro.schedule.random_legal import sample_legal_orders

    span = max(2, max(abs(c) for v in stencil.vectors for c in v))
    grown = tuple(
        (lo, max(hi, lo + 2 * span)) for lo, hi in bounds
    )
    n_points = 1
    for lo, hi in grown:
        n_points *= hi - lo + 1
    if n_points > _MAX_COUNTEREXAMPLE_POINTS:
        return None, bounds
    mapping = ov_mapping_for(ov, Polytope.from_loop_bounds(grown))
    for candidate in sample_legal_orders(
        stencil, grown, _FALLBACK_SAMPLES, seed=0
    ):
        if find_mapping_violation(mapping, stencil, candidate) is not None:
            return candidate, grown
    return None, bounds
