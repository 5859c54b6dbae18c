"""Integer cone membership: the feasibility kernel of Section 3."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.symcert import cone_system
from repro.core.cone import (
    ConeSolver,
    coefficient_bound,
    dead_set,
    done_set,
    in_integer_cone,
    in_rational_cone,
    positivity_functional,
)
from repro.core.stencil import Stencil
from repro.util.polyhedron import Polytope

from .test_stencil import lex_positive_vectors


def brute_force_in_cone(target, vectors, cap=6):
    """Independent oracle: enumerate small coefficient combinations."""
    import itertools

    for coeffs in itertools.product(range(cap + 1), repeat=len(vectors)):
        point = tuple(
            sum(c * v[k] for c, v in zip(coeffs, vectors))
            for k in range(len(target))
        )
        if point == tuple(target):
            return dict(
                (tuple(v), c) for v, c in zip(vectors, coeffs) if c
            )
    return None


def _solve_exact(columns, target):
    """The unique exact solution of ``sum(x_j * columns[j]) == target``,
    or ``None`` when the columns are dependent or the system has no
    solution (Gauss-Jordan over ``Fraction``)."""
    r = len(columns)
    rows = [
        [Fraction(col[k]) for col in columns] + [Fraction(target[k])]
        for k in range(len(target))
    ]
    pivot_row = 0
    for j in range(r):
        pick = next(
            (i for i in range(pivot_row, len(rows)) if rows[i][j] != 0), None
        )
        if pick is None:
            return None  # dependent columns
        rows[pivot_row], rows[pick] = rows[pick], rows[pivot_row]
        lead = rows[pivot_row][j]
        rows[pivot_row] = [x / lead for x in rows[pivot_row]]
        for i in range(len(rows)):
            if i != pivot_row and rows[i][j] != 0:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pivot_row])]
        pivot_row += 1
    if any(row[-1] != 0 for row in rows[r:]):
        return None  # inconsistent
    return [rows[j][-1] for j in range(r)]


def caratheodory_in_cone(target, vectors):
    """Independent rational-cone oracle (Caratheodory's theorem): a point
    of the cone is a non-negative combination of some linearly
    independent subset of at most ``dim`` generators."""
    import itertools

    if all(c == 0 for c in target):
        return True
    for size in range(1, len(target) + 1):
        for subset in itertools.combinations(vectors, size):
            x = _solve_exact(subset, target)
            if x is not None and all(c >= 0 for c in x):
                return True
    return False


class TestPositivityFunctional:
    def test_known(self):
        w = positivity_functional([(1, -2), (1, 2), (0, 1)])
        assert all(
            sum(a * b for a, b in zip(w, v)) > 0
            for v in [(1, -2), (1, 2), (0, 1)]
        )

    def test_rejects_lex_negative(self):
        with pytest.raises(ValueError):
            positivity_functional([(1, 0), (-1, 5)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            positivity_functional([])


class TestConeSolverExact:
    def test_certificate_is_verified(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        cert = solver.solve((3, 2))
        assert cert is not None
        total = tuple(
            sum(c * v[k] for v, c in cert.items()) for k in range(2)
        )
        assert total == (3, 2)

    def test_zero_target(self, fig1_stencil):
        cert = ConeSolver(fig1_stencil.vectors).solve((0, 0))
        assert cert == {v: 0 for v in fig1_stencil.vectors}

    def test_infeasible(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        assert solver.solve((-1, 0)) is None
        assert solver.solve((0, -1)) is None
        assert (1, 1) in solver and (2, -1) not in solver

    def test_min_coeffs(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        # (1,1) with a positive coefficient on (1,1) itself: exactly one.
        cert = solver.solve((1, 1), min_coeffs={(1, 1): 1})
        assert cert is not None and cert[(1, 1)] >= 1
        # but (1,0) cannot use (1,1) at all
        assert solver.solve((1, 0), min_coeffs={(1, 1): 1}) is None

    def test_min_coeffs_validation(self, fig1_stencil):
        solver = ConeSolver(fig1_stencil.vectors)
        with pytest.raises(ValueError):
            solver.solve((1, 1), min_coeffs={(9, 9): 1})
        with pytest.raises(ValueError):
            solver.solve((1, 1), min_coeffs={(1, 1): -1})

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(lex_positive_vectors(max_abs=2), min_size=1, max_size=3),
        st.tuples(st.integers(0, 8), st.integers(-6, 6)),
    )
    def test_matches_brute_force(self, vectors, target):
        from hypothesis import assume

        vectors = list(dict.fromkeys(vectors))
        # Exhaustive enumeration is complete up to the positivity bound on
        # any certificate coefficient; skip the rare instances where that
        # bound would make the brute force too slow.
        cap = coefficient_bound(target, vectors)
        assume(cap <= 30)
        got = in_integer_cone(target, vectors)
        expected = brute_force_in_cone(vectors=vectors, target=target, cap=max(cap, 0))
        assert (got is None) == (expected is None)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(lex_positive_vectors(max_abs=2), min_size=1, max_size=3),
        st.tuples(st.integers(0, 6), st.integers(-5, 5)),
    )
    def test_dfs_and_fm_agree(self, vectors, target):
        vectors = list(dict.fromkeys(vectors))
        dfs = ConeSolver(vectors).solve(target)
        fm_empty = cone_system(vectors, target).is_empty()
        assert (dfs is None) == fm_empty


class TestRationalCone:
    def test_integer_gap(self):
        # (1,1) is rationally 0.5*(2,2) but not an integer combination.
        assert in_rational_cone((1, 1), [(2, 2)])
        assert in_integer_cone((1, 1), [(2, 2)]) is None

    def test_zero_always_member(self):
        assert in_rational_cone((0, 0), [])

    def test_nonmember(self):
        assert not in_rational_cone((-1, 0), [(1, 0), (0, 1)])

    def test_needs_fractional_coefficients(self):
        # 1/2 * (2, 0) + 1/3 * (0, 3): the GCD test of the integer system
        # must not leak into the rational answer.
        assert in_rational_cone((1, 1), [(2, 0), (0, 3)])
        assert in_rational_cone((1, 1, 1), [(2, 0, 2), (0, 3, 0)])
        assert not in_rational_cone((1, 1, 2), [(2, 0, 2), (0, 3, 0)])

    @pytest.mark.parametrize("dim", [2, 3])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_caratheodory_oracle(self, dim, data):
        coords = st.tuples(*[st.integers(-3, 3) for _ in range(dim)])
        vectors = data.draw(st.lists(coords, min_size=1, max_size=5))
        target = data.draw(
            st.tuples(*[st.integers(-6, 6) for _ in range(dim)])
        )
        assert in_rational_cone(target, vectors) == caratheodory_in_cone(
            target, vectors
        )


class TestCoefficientBound:
    def test_negative_weight_target(self, fig1_stencil):
        assert coefficient_bound((-3, 0), fig1_stencil.vectors) == -1

    def test_bound_dominates_certificates(self, fig1_stencil):
        target = (4, 5)
        bound = coefficient_bound(target, fig1_stencil.vectors)
        cert = in_integer_cone(target, fig1_stencil.vectors)
        assert cert is not None
        assert all(c <= bound for c in cert.values())


class TestDoneDeadSets:
    def test_done_contains_q_and_respects_region(self, fig1_stencil):
        region = Polytope.from_box((0, 0), (5, 5))
        done = done_set(fig1_stencil, (3, 3), region)
        assert (3, 3) in done
        assert (0, 0) in done
        assert (3, 4) not in done  # not a backwards-reachable point
        # every DONE point is q minus a non-negative combination
        solver = ConeSolver(fig1_stencil.vectors)
        for p in done:
            assert solver.solve((3 - p[0], 3 - p[1])) is not None

    def test_dead_subset_of_done(self, fig1_stencil):
        region = Polytope.from_box((0, 0), (6, 6))
        q = (5, 5)
        done = done_set(fig1_stencil, q, region)
        dead = dead_set(fig1_stencil, q, region, done=done)
        assert dead <= done

    def test_dead_semantics(self, fig1_stencil):
        # p is dead iff all of p's consumers are in DONE (Figure 2).
        region = Polytope.from_box((0, 0), (6, 6))
        q = (5, 5)
        done = done_set(fig1_stencil, q, region)
        dead = dead_set(fig1_stencil, q, region)
        from repro.util.vectors import add

        for p in dead:
            assert all(
                add(p, v) in done for v in fig1_stencil.vectors
            )
        # (4,4) is dead (its consumers (5,4),(4,5),(5,5) are all DONE)
        assert (4, 4) in dead
        # (4,5)'s consumer (5,6) is not in DONE, hence not dead... but it
        # is outside the region; within the region-restricted semantics it
        # IS dead, matching the conservative documentation.  A clearly
        # live point: (3,5) has consumer (4,5) which is not in DONE.
        assert (3, 5) not in dead

    def test_uov_from_dead_set(self, fig1_stencil):
        # UOV(V) = { q - p : p in DEAD(V, q) }: (1,1) must appear.
        region = Polytope.from_box((0, 0), (8, 8))
        q = (6, 6)
        dead = dead_set(fig1_stencil, q, region)
        assert (5, 5) in dead  # ov = (1,1)


class TestSolverStats:
    def test_memoisation_counts(self, stencil5):
        solver = ConeSolver(stencil5.vectors)
        for target in [(3, 1), (3, -1), (4, 0), (3, 1)]:
            solver.solve(target)
        assert solver.stats["queries"] == 4
        assert solver.stats["dfs_nodes"] > 0
