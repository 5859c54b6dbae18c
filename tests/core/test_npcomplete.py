"""The PARTITION reduction of Section 3.1."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cone import ConeSolver
from repro.core.npcomplete import (
    certificate_from_subset,
    cone_query_matches_partition,
    partition_brute_force,
    partition_solvable,
    reduction_from_partition,
)
from repro.core.uov import is_uov


class TestPartitionSolvers:
    def test_known_instances(self):
        assert partition_solvable([1, 1])
        assert partition_solvable([1, 2, 3])
        assert partition_solvable([2, 2, 2, 2])
        assert not partition_solvable([1, 2])
        assert not partition_solvable([7])
        assert not partition_solvable([1, 1, 1])  # odd total

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=8))
    def test_dp_matches_brute_force(self, values):
        witness = partition_brute_force(values)
        assert (witness is not None) == partition_solvable(values)
        if witness is not None:
            assert sum(values[i] for i in witness) * 2 == sum(values)


class TestReduction:
    def test_instance_shape(self):
        stencil, w = reduction_from_partition([3, 5, 2])
        assert len(stencil) <= 6  # r_i / s_i pairs (dedup possible)
        assert w[0] == 10  # sum of values (doubled-coordinate variant)
        # second coordinate: sum of all tags
        n, base = 3, 4
        big = base**n
        assert w[1] == n * big + (big - 1) // n

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            reduction_from_partition([])
        with pytest.raises(ValueError):
            reduction_from_partition([1, 0, 2])
        with pytest.raises(ValueError):
            reduction_from_partition([-3])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=5))
    def test_cone_query_equivalence(self, values):
        assert cone_query_matches_partition(values)

    @settings(max_examples=12, deadline=None)
    @given(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    def test_full_uov_membership_equivalence(self, values):
        stencil, w = reduction_from_partition(values)
        assert is_uov(w, stencil) == partition_solvable(values)

    def test_witness_builds_cone_certificate(self):
        values = [3, 5, 2, 4]
        witness = partition_brute_force(values)
        assert witness is not None
        cert = certificate_from_subset(values, witness)
        stencil, w = reduction_from_partition(values)
        total = [0, 0]
        for vec, count in cert.items():
            total[0] += count * vec[0]
            total[1] += count * vec[1]
        assert tuple(total) == w
        # and the solver independently finds *a* certificate
        assert ConeSolver(stencil.vectors).solve(w) is not None


class TestHardishInstances:
    def test_unsolvable_instance_by_parity(self):
        # all even except one odd value: total odd -> unsolvable
        values = [2, 4, 6, 3]
        stencil, w = reduction_from_partition(values)
        assert not partition_solvable(values)
        assert ConeSolver(stencil.vectors).solve(w) is None
