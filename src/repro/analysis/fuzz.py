"""Differential fuzzing: static verdicts vs. the dynamic checkers.

The static subsystem makes universally-quantified claims ("safe under
*every* legal schedule") that no finite test run can fully confirm — but
any single disagreement with the dynamic ground truth falsifies it.  This
module runs that adversarial comparison:

- a **certificate** (static-safe) must survive every sampled random legal
  schedule: a single dynamic
  :class:`~repro.analysis.liveness.MappingViolation` is a disagreement;
- a **counterexample** (static-unsafe) must *replay*: its constructed
  schedule fragment must produce a real violation in the dynamic checker,
  otherwise the refutation is vacuous and counts as a disagreement;
- a mapping the race detector calls **clean** over a region must likewise
  survive every sampled schedule (the race detector's no-races result is
  a schedule-independence proof for that region).

Sampling uses :func:`repro.schedule.random_legal.sample_legal_orders`
with a fixed seed, so a failing report is reproducible from the tuple it
records.  Totals land in the metrics registry (``lint.fuzz.samples`` /
``lint.fuzz.disagreements``) so CI can assert the fuzz actually ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.certify import (
    UOVCertificate,
    UOVCounterexample,
    certify,
    ov_mapping_for,
)
from repro.analysis.liveness import find_mapping_violation
from repro.analysis.races import find_storage_races
from repro.core.stencil import Stencil
from repro.mapping.base import StorageMapping
from repro.obs.metrics import get_metrics
from repro.schedule.random_legal import sample_legal_orders
from repro.util.polyhedron import Polytope

__all__ = [
    "FuzzReport",
    "differential_fuzz_uov",
    "differential_fuzz_mapping",
    "differential_fuzz_symbolic",
    "random_stencil",
]


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one static-vs-dynamic comparison."""

    subject: str
    verdict: str  # "universal" | "rejected" | "clean" | "racy"
    samples: int
    seed: int
    disagreements: tuple[str, ...] = ()
    counterexample_replayed: Optional[bool] = None
    #: How many sampled schedules dynamically violated the mapping
    #: (informational; only a bug when the static verdict was safe).
    dynamic_violations: int = 0

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def __str__(self) -> str:
        status = "agree" if self.ok else "DISAGREE"
        return (
            f"{self.subject}: static={self.verdict} vs {self.samples} "
            f"sampled schedules -> {status}"
            + (
                f" ({len(self.disagreements)} disagreements)"
                if self.disagreements
                else ""
            )
        )


def _record(report: FuzzReport) -> FuzzReport:
    metrics = get_metrics()
    metrics.counter("lint.fuzz.samples").inc(report.samples)
    metrics.counter("lint.fuzz.disagreements").inc(len(report.disagreements))
    return report


def differential_fuzz_uov(
    ov: Sequence[int],
    stencil: Stencil,
    bounds: Sequence[tuple[int, int]],
    samples: int = 50,
    seed: int = 0,
) -> FuzzReport:
    """Cross-validate ``certify(ov, stencil)`` against sampled schedules."""
    subject = f"ov={tuple(ov)} stencil={list(stencil.vectors)}"
    result = certify(ov, stencil)
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    disagreements: list[str] = []

    if isinstance(result, UOVCounterexample):
        replay = result.replay() if result.replayable else None
        replayed = replay is not None
        if not replayed:
            disagreements.append(
                "static counterexample did not replay to a dynamic "
                f"violation (failing vector {result.failing_vector})"
            )
        # Informational: how often random schedules trip over the bad OV.
        mapping = ov_mapping_for(ov, Polytope.from_loop_bounds(bounds))
        hits = sum(
            1
            for order in sample_legal_orders(stencil, bounds, samples, seed)
            if find_mapping_violation(mapping, stencil, order) is not None
        )
        return _record(
            FuzzReport(
                subject,
                "rejected",
                samples,
                seed,
                tuple(disagreements),
                counterexample_replayed=replayed,
                dynamic_violations=hits,
            )
        )

    assert isinstance(result, UOVCertificate)
    mapping = ov_mapping_for(ov, Polytope.from_loop_bounds(bounds))
    hits = 0
    for k, order in enumerate(
        sample_legal_orders(stencil, bounds, samples, seed)
    ):
        violation = find_mapping_violation(mapping, stencil, order)
        if violation is not None:
            hits += 1
            disagreements.append(
                f"certified UOV dynamically violated by sampled schedule "
                f"#{k}: {violation}"
            )
    return _record(
        FuzzReport(
            subject,
            "universal",
            samples,
            seed,
            tuple(disagreements),
            dynamic_violations=hits,
        )
    )


def differential_fuzz_mapping(
    mapping: StorageMapping,
    stencil: Stencil,
    bounds: Sequence[tuple[int, int]],
    samples: int = 50,
    seed: int = 0,
) -> FuzzReport:
    """Cross-validate the race detector's verdict for one mapping.

    ``clean`` (no races) is a schedule-independence claim and must survive
    every sample; ``racy`` mappings are allowed — expected, even — to
    violate some sampled schedules, so only the clean direction can
    disagree.
    """
    subject = f"{mapping!r}"
    bounds = tuple((int(lo), int(hi)) for lo, hi in bounds)
    region = Polytope.from_loop_bounds(bounds)
    races = find_storage_races(mapping, stencil, region, limit=1)
    verdict = "racy" if races else "clean"
    disagreements: list[str] = []
    hits = 0
    for k, order in enumerate(
        sample_legal_orders(stencil, bounds, samples, seed)
    ):
        violation = find_mapping_violation(mapping, stencil, order)
        if violation is not None:
            hits += 1
            if verdict == "clean":
                disagreements.append(
                    f"race-free mapping dynamically violated by sampled "
                    f"schedule #{k}: {violation}"
                )
    return _record(
        FuzzReport(
            subject,
            verdict,
            samples,
            seed,
            tuple(disagreements),
            dynamic_violations=hits,
        )
    )


# -- symbolic vs enumerative --------------------------------------------------


def random_stencil(
    rng, dim: int = 2, max_vectors: int = 4, span: int = 3
) -> Stencil:
    """A random valid stencil: lex-positive, deduplicated vectors.

    Shared by the differential gate below and the Hypothesis-adjacent
    property tests, so every harness draws from the same distribution.
    """
    vectors: set[tuple[int, ...]] = set()
    n = rng.randint(1, max_vectors)
    attempts = 0
    while len(vectors) < n and attempts < 64:
        attempts += 1
        v = tuple(rng.randint(-span, span) for _ in range(dim))
        lead = next((c for c in v if c != 0), 0)
        if lead > 0:
            vectors.add(v)
    if not vectors:
        vectors.add((1,) + (0,) * (dim - 1))
    return Stencil(sorted(vectors))


def differential_fuzz_symbolic(
    trials: int = 25,
    seed: int = 0,
    dim: int = 2,
    sizes: Sequence[int] = (3, 5, 7),
) -> FuzzReport:
    """Cross-check the symbolic certifier against enumerative ground truth.

    Random stencils and candidate OVs (universal and broken alike) are
    decided both ways; the verdicts must agree, and for every rejection
    the symbolic violation-box analysis must find witness sizes at which
    the enumerative counterexample replays.  ``sizes`` are deliberately
    odd/non-power-of-two box extents the parametric claim is spot-checked
    against (a symbolic "universal" must certify at each).
    """
    import random

    from repro.analysis.symcert import (
        SymbolicBounds,
        SymbolicCertificate,
        symbolic_certify,
    )
    from repro.ir.affine import AffineExpr
    from repro.util.fm import FMBudgetExceeded

    rng = random.Random(seed)
    disagreements: list[str] = []
    checked = 0
    for trial in range(trials):
        stencil = random_stencil(rng, dim=dim)
        if rng.random() < 0.5:
            ov = stencil.initial_uov
        else:
            ov = tuple(rng.randint(-2, 2) for _ in range(dim))
            if all(c == 0 for c in ov):
                ov = stencil.vectors[0]
        params = tuple(f"N{k}" for k in range(dim))
        bounds = SymbolicBounds(
            indices=tuple(f"i{k}" for k in range(dim)),
            bounds=tuple(
                (AffineExpr.constant(0), AffineExpr.parse(p)) for p in params
            ),
            params=params,
        )
        try:
            symbolic = symbolic_certify(ov, stencil, bounds=bounds)
        except FMBudgetExceeded:
            continue  # budget exhaustion is a degradation, not a verdict
        enumerative = certify(ov, stencil)
        checked += 1
        symbolic_safe = isinstance(symbolic, SymbolicCertificate)
        enumerative_safe = isinstance(enumerative, UOVCertificate)
        subject = f"trial#{trial} ov={ov} stencil={list(stencil.vectors)}"
        if symbolic_safe != enumerative_safe:
            disagreements.append(
                f"{subject}: symbolic says "
                f"{'universal' if symbolic_safe else 'rejected'}, "
                f"enumerative says "
                f"{'universal' if enumerative_safe else 'rejected'}"
            )
            continue
        if symbolic_safe:
            if not symbolic.verify():
                disagreements.append(
                    f"{subject}: symbolic certificate fails verify()"
                )
            # The parametric claim, spot-checked dynamically at odd
            # concrete sizes: the OV mapping must survive sampled legal
            # schedules over each box.
            for extent in sizes:
                box = tuple((0, extent - 1) for _ in range(dim))
                mapping = ov_mapping_for(
                    ov, Polytope.from_loop_bounds(box)
                )
                for k, order in enumerate(
                    sample_legal_orders(stencil, box, 3, seed + trial)
                ):
                    violation = find_mapping_violation(
                        mapping, stencil, order
                    )
                    if violation is not None:
                        disagreements.append(
                            f"{subject}: parametric certificate violated "
                            f"dynamically at extent {extent}, schedule "
                            f"#{k}: {violation}"
                        )
        else:
            if (
                symbolic.enumerative is not None
                and not symbolic.confirmed
                and symbolic.enumerative.replayable
            ):
                disagreements.append(
                    f"{subject}: rejection's replay fragment did not "
                    f"exhibit a clobber"
                )
    return _record(
        FuzzReport(
            subject=f"symbolic-vs-enumerative dim={dim} trials={trials}",
            verdict="universal" if not disagreements else "rejected",
            samples=checked,
            seed=seed,
            disagreements=tuple(disagreements),
        )
    )
