"""The regular dependence stencil (Section 2 of the paper).

A *stencil* is the set of constant value-dependence distance vectors shared
by every node of the (reduced) iteration space graph.  For the running
example of Figure 1::

    for i = 1..n:
      for j = 1..m:
        A[i,j] = f(A[i-1,j], A[i,j-1], A[i-1,j-1])

the stencil is ``{(1,0), (0,1), (1,1)}`` — each vector points from the
producing iteration to the consuming iteration.

Invariants enforced here (and assumed by every downstream algorithm):

- at least one vector;
- all vectors share one dimensionality;
- every vector is lexicographically positive (a value is produced before it
  is consumed in the original sequential order — the precondition for the
  loop being a legal sequential program at all);
- no duplicates.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.util.vectors import (
    IntVector,
    add,
    as_vector,
    is_lex_positive,
)


class Stencil:
    """An immutable, validated set of dependence distance vectors."""

    def __init__(self, vectors: Iterable[Sequence[int]]):
        vecs = [as_vector(v) for v in vectors]
        if not vecs:
            raise ValueError("a stencil needs at least one dependence vector")
        dims = {len(v) for v in vecs}
        if len(dims) != 1:
            raise ValueError("stencil vectors must share one dimensionality")
        for v in vecs:
            if not is_lex_positive(v):
                raise ValueError(
                    f"dependence vector {v} is not lexicographically positive; "
                    "the loop would not be a legal sequential program"
                )
        # Deterministic order: sorted; deduplicated.
        self._vectors: tuple[IntVector, ...] = tuple(sorted(set(vecs)))
        self._dim: int = dims.pop()

    # -- basic properties ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the iteration space (loop nest depth)."""
        return self._dim

    @property
    def vectors(self) -> tuple[IntVector, ...]:
        """The dependence distance vectors, sorted and unique."""
        return self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self) -> Iterator[IntVector]:
        return iter(self._vectors)

    def __contains__(self, v: object) -> bool:
        return v in self._vectors

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Stencil):
            return NotImplemented
        return self._vectors == other._vectors

    def __hash__(self) -> int:
        return hash(self._vectors)

    def __repr__(self) -> str:
        return f"Stencil({list(self._vectors)!r})"

    # -- derived quantities ---------------------------------------------------

    @cached_property
    def initial_uov(self) -> IntVector:
        """The trivially-computed UOV ``ov0 = sum(v_i)`` of Section 3.2.1.

        ``ov0`` is always a universal occupancy vector: subtracting any
        ``v_i`` leaves the sum of the *other* stencil vectors, which is by
        construction a non-negative integer combination of the stencil.
        """
        total = self._vectors[0]
        for v in self._vectors[1:]:
            total = add(total, v)
        return total

    @cached_property
    def positivity_weights(self) -> IntVector:
        """Integer weights ``w`` with ``w . v > 0`` for every stencil vector.

        Existence follows from lexicographic positivity: with
        ``w = (M^(d-1), ..., M, 1)`` and ``M`` larger than ``d`` times the
        largest absolute component, the leading positive component of each
        vector dominates the lower-order terms.  The functional is the
        termination argument for the cone solver: along any chain of
        subtractions of stencil vectors, ``w . remainder`` strictly
        decreases, and coefficients in any cone certificate for a target
        ``t`` are bounded by ``w . t / min_i w . v_i``.
        """
        max_abs = max(abs(c) for v in self._vectors for c in v)
        m = self._dim * max_abs + 1
        weights = tuple(m ** (self._dim - 1 - k) for k in range(self._dim))
        # The construction above is provably valid, but assert anyway: the
        # whole search's termination rests on this.
        for v in self._vectors:
            value = sum(w * c for w, c in zip(weights, v))
            if value <= 0:
                raise AssertionError(
                    f"positivity functional failed for {v}; this is a bug"
                )
        return weights

    @cached_property
    def extreme_vectors(self) -> tuple[IntVector, ...]:
        """The extreme rays of the stencil's cone (Ramanujam/Sadayappan [22]).

        A stencil vector is *extreme* when it is not a non-negative rational
        combination of the remaining vectors, decided exactly by
        :func:`~repro.core.cone.in_rational_cone`.  The paper uses the
        extreme vectors to build the parallelepiped bounding the ``DONE``
        search region (Figure 4).  Nothing in the pipeline reads them: the
        search in :mod:`repro.core.search` bounds its region with the
        positivity functional instead.  They are exposed for analysis and
        tests.
        """
        from repro.core.cone import in_rational_cone

        extremes = []
        for i, v in enumerate(self._vectors):
            others = [u for j, u in enumerate(self._vectors) if j != i]
            if not others or not in_rational_cone(v, others):
                extremes.append(v)
        return tuple(extremes)

    def transformed(self, matrix: Sequence[Sequence[int]]) -> "Stencil":
        """The stencil after the unimodular iteration-space transform ``T``.

        Skewing or interchanging the loop maps each dependence distance
        ``v`` to ``T v``; the resulting vectors must remain lexicographically
        positive for the transform to be legal, which the ``Stencil``
        constructor re-validates.
        """
        from repro.util.intmath import matvec

        return Stencil(matvec(matrix, v) for v in self._vectors)
