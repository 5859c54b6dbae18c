"""Membership in the non-negative integer cone of a stencil.

Everything in Section 3 of the paper reduces to one feasibility question:

    given a target vector ``t`` and stencil vectors ``v1..vm``, do there
    exist non-negative integers ``a1..am`` with ``sum(ai * vi) == t``?

``DONE(V, q)`` is exactly the set of ``p`` with ``q - p`` in that cone, and
``w`` is a universal occupancy vector iff ``w - vi`` is in the cone for
every ``i`` (equivalently, the paper's ``m`` equation systems each admit a
solution with a positive diagonal coefficient).

The problem is NP-complete in general (Section 3.1 / :mod:`.npcomplete`),
but realistic stencils have few vectors with small entries, so an exact
search is fast.  :class:`ConeSolver` is a memoised depth-first search over
coefficient choices.  The termination/bounding argument is the stencil's
*positivity functional* ``w`` (``w . vi > 0`` for all ``i``, guaranteed by
lexicographic positivity): any certificate for ``t`` has total weighted
coefficient mass ``w . t``, so each coefficient is bounded by
``w . t // min_i(w . vi)``.

Rational membership (:func:`in_rational_cone`) is decided exactly by the
Fourier-Motzkin engine in :mod:`repro.util.fm`, the same one that
independently re-decides integer membership for the symbolic certifier.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.util.fm import Constraint, LinExpr, System
from repro.util.polyhedron import Polytope
from repro.util.vectors import IntVector, as_vector, sub

__all__ = [
    "positivity_functional",
    "coefficient_bound",
    "in_integer_cone",
    "in_rational_cone",
    "expand_certificate",
    "ConeSolver",
    "done_set",
    "dead_set",
]


def positivity_functional(vectors: Sequence[Sequence[int]]) -> IntVector:
    """Integer weights ``w`` with ``w . v > 0`` for every vector.

    Requires every vector to be lexicographically positive; raises
    ``ValueError`` otherwise (in that case no such functional needs to
    exist and cone membership may be undecidable by naive search).
    """
    vecs = [as_vector(v) for v in vectors]
    if not vecs:
        raise ValueError("positivity functional of an empty set is undefined")
    dim = len(vecs[0])
    max_abs = max((abs(c) for v in vecs for c in v), default=0)
    m = dim * max_abs + 1
    weights = tuple(m ** (dim - 1 - k) for k in range(dim))
    for v in vecs:
        if sum(w * c for w, c in zip(weights, v)) <= 0:
            raise ValueError(
                f"vector {v} is not lexicographically positive; "
                "no positivity functional of this form exists"
            )
    return weights


def coefficient_bound(
    target: Sequence[int], vectors: Sequence[Sequence[int]]
) -> int:
    """Upper bound on any single coefficient in a cone certificate for target."""
    w = positivity_functional(vectors)
    wt = sum(a * b for a, b in zip(w, target))
    if wt < 0:
        return -1
    min_wv = min(sum(a * b for a, b in zip(w, v)) for v in vectors)
    return wt // min_wv


def in_rational_cone(
    target: Sequence[int], vectors: Sequence[Sequence[int]]
) -> bool:
    """True when ``target`` is a non-negative *rational* combination.

    This is the LP relaxation of integer cone membership; it finds the
    extreme vectors of a stencil and the common-cone candidates of
    :mod:`repro.core.multiloop`.  Decided exactly on the homogenised
    system ``a_i >= 0, k >= 1, sum(a_i * v_i) == k * target``: a rational
    solution times its common denominator is an integer solution (with
    ``k`` that denominator), and an integer solution divided by ``k`` is
    a rational one.  :class:`~repro.util.fm.FMBudgetExceeded` propagates.
    """
    target = as_vector(target)
    vecs = [as_vector(v) for v in vectors]
    if all(c == 0 for c in target):
        return True
    if not vecs:
        return False
    names = [f"a{j}" for j in range(len(vecs))]
    constraints = [Constraint(LinExpr.var(a)) for a in names]
    constraints.append(Constraint(LinExpr.of({"k": 1}, -1)))
    for d, t in enumerate(target):
        coeffs = {a: v[d] for a, v in zip(names, vecs)}
        coeffs["k"] = -t
        constraints.append(Constraint(LinExpr.of(coeffs), equality=True))
    return not System(constraints).is_empty()


class ConeSolver:
    """Integer-cone membership with memoisation shared across queries.

    One solver instance is typically created per stencil; the UOV search
    issues many membership queries against the same vector set, and failed
    sub-states recur constantly, so the cross-query memo pays off.
    """

    def __init__(self, vectors: Sequence[Sequence[int]]):
        vecs = [as_vector(v) for v in vectors]
        if not vecs:
            raise ValueError("a cone needs at least one generator")
        self._weights = positivity_functional(vecs)
        # Order generators by decreasing weighted mass: big steps first
        # shrinks the residual fastest and keeps the memo small.
        self._vectors = tuple(
            sorted(
                vecs,
                key=lambda v: -sum(w * c for w, c in zip(self._weights, v)),
            )
        )
        self._wv = tuple(
            sum(w * c for w, c in zip(self._weights, v)) for v in self._vectors
        )
        self._dim = len(vecs[0])
        # Per suffix position i, the set of coordinates on which every
        # remaining generator is non-negative: the residual must stay
        # non-negative there, a cheap and very effective prune.
        self._nonneg_coords: list[tuple[int, ...]] = []
        for i in range(len(self._vectors) + 1):
            rest = self._vectors[i:]
            coords = tuple(
                k
                for k in range(self._dim)
                if all(v[k] >= 0 for v in rest)
            )
            self._nonneg_coords.append(coords)
        self._fail_memo: set[tuple[int, IntVector]] = set()
        self.stats = {"queries": 0, "dfs_nodes": 0, "memo_hits": 0}

    @property
    def vectors(self) -> tuple[IntVector, ...]:
        return self._vectors

    def solve(
        self,
        target: Sequence[int],
        min_coeffs: Optional[dict[IntVector, int]] = None,
    ) -> Optional[dict[IntVector, int]]:
        """Find ``{vector: coefficient}`` with non-negative integer
        coefficients summing to ``target``, or ``None`` if infeasible.

        ``min_coeffs`` optionally forces lower bounds per generator (the
        paper's positive-diagonal requirement); it is handled by peeling
        the mandatory part off the target first.
        """
        self.stats["queries"] += 1
        target = as_vector(target)
        if len(target) != self._dim:
            raise ValueError("target dimensionality mismatch")
        base = {v: 0 for v in self._vectors}
        if min_coeffs:
            for v, lo in min_coeffs.items():
                v = as_vector(v)
                if v not in base:
                    raise ValueError(f"{v} is not a generator of this cone")
                if lo < 0:
                    raise ValueError("minimum coefficients must be >= 0")
                base[v] = lo
                target = sub(target, tuple(lo * c for c in v))
        coeffs = [0] * len(self._vectors)
        if not self._dfs(0, target, coeffs):
            return None
        return {v: base[v] + c for v, c in zip(self._vectors, coeffs)}

    def __contains__(self, target: Sequence[int]) -> bool:
        return self.solve(target) is not None

    def _dfs(self, i: int, rem: IntVector, coeffs: list[int]) -> bool:
        self.stats["dfs_nodes"] += 1
        if all(c == 0 for c in rem):
            for j in range(i, len(coeffs)):
                coeffs[j] = 0
            return True
        if i == len(self._vectors):
            return False
        wrem = sum(w * c for w, c in zip(self._weights, rem))
        if wrem < 0:
            return False
        for k in self._nonneg_coords[i]:
            if rem[k] < 0:
                return False
        key = (i, rem)
        if key in self._fail_memo:
            self.stats["memo_hits"] += 1
            return False
        v = self._vectors[i]
        bound = wrem // self._wv[i]
        # Try large coefficients first: certificates for stencil targets
        # are usually dominated by one or two generators.
        for a in range(bound, -1, -1):
            nxt = tuple(r - a * c for r, c in zip(rem, v))
            coeffs[i] = a
            if self._dfs(i + 1, nxt, coeffs):
                return True
        self._fail_memo.add(key)
        return False


def in_integer_cone(
    target: Sequence[int],
    vectors: Sequence[Sequence[int]],
) -> Optional[dict[IntVector, int]]:
    """One-shot integer cone membership; returns a certificate or ``None``."""
    return ConeSolver(vectors).solve(target)


def expand_certificate(
    target: Sequence[int],
    certificate: dict[IntVector, int],
) -> list[IntVector]:
    """Expand a cone certificate into a concrete dependence walk.

    Given ``target = sum(a_v * v)``, returns the residuals visited when the
    generators are subtracted one unit at a time (one generator kind at a
    time): ``[target, target - v1, ..., 0]``.  Every consecutive pair
    differs by exactly one generator, so ``q - r`` for each residual ``r``
    is a backward dependence chain from any point ``q`` down to
    ``q - target`` — the in-region path the counterexample builder in
    :mod:`repro.analysis.certify` needs to keep inside its box.
    """
    residual = as_vector(target)
    walk = [residual]
    for v, count in certificate.items():
        v = as_vector(v)
        for _ in range(count):
            residual = sub(residual, v)
            walk.append(residual)
    if any(c != 0 for c in walk[-1]):
        raise ValueError(
            f"certificate {certificate!r} does not sum to {tuple(target)}"
        )
    return walk


def done_set(
    stencil: "Stencil | Sequence[Sequence[int]]",
    q: Sequence[int],
    region: Polytope,
) -> set[IntVector]:
    """``DONE(V, q)`` restricted to a polytope region.

    The set of iteration points that must execute before ``q`` in *every*
    legal schedule: those reachable from ``q`` by walking dependence vectors
    backwards.  ``q`` itself is included (the all-zero combination), matching
    the paper's definition with all ``ai = 0``.
    """
    vectors = _stencil_vectors(stencil)
    q = as_vector(q)
    done: set[IntVector] = set()
    frontier = [q]
    if region.contains(q):
        done.add(q)
    while frontier:
        p = frontier.pop()
        for v in vectors:
            child = sub(p, v)
            if child not in done and region.contains(child):
                done.add(child)
                frontier.append(child)
    return done


def dead_set(
    stencil: "Stencil | Sequence[Sequence[int]]",
    q: Sequence[int],
    region: Polytope,
    done: Optional[set[IntVector]] = None,
) -> set[IntVector]:
    """``DEAD(V, q)`` restricted to a polytope region.

    Points whose produced value has been fully consumed once ``q`` has read
    its own inputs: every outgoing dependence lands inside ``DONE(V, q)``.
    Note ``DEAD(V,q) <= DONE(V,q)`` as the paper observes; a point outside
    the region's DONE restriction cannot be certified dead, so the result
    here is the conservative region-restricted set used by the tests.
    """
    vectors = _stencil_vectors(stencil)
    if done is None:
        done = done_set(vectors, q, region)
    from repro.util.vectors import add

    candidates = {sub(d, vectors[0]) for d in done}
    dead = set()
    for p in candidates:
        if all(add(p, v) in done for v in vectors):
            dead.add(p)
    return dead


def _stencil_vectors(
    stencil: "Stencil | Sequence[Sequence[int]]",
) -> tuple[IntVector, ...]:
    from repro.core.stencil import Stencil

    if isinstance(stencil, Stencil):
        return stencil.vectors
    return tuple(as_vector(v) for v in stencil)
