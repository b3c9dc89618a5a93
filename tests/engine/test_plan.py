"""Unit tests for the declarative pairwise work plans."""

import numpy as np
import pytest

from repro.engine import CrossGramPlan, PairJob, SymmetricGramPlan
from repro.exceptions import KernelError


def test_symmetric_plan_enumerates_upper_triangle_once():
    plan = SymmetricGramPlan(4)
    jobs = plan.job_list()
    assert plan.shape == (4, 4)
    assert plan.num_pairs == 6
    assert len(jobs) == 6
    assert all(job.mirror for job in jobs)
    assert all(job.left == job.row and job.right == job.col for job in jobs)
    assert sorted((job.row, job.col) for job in jobs) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]


def test_symmetric_plan_initial_matrix_is_identity():
    K = SymmetricGramPlan(3).initial_matrix()
    assert np.array_equal(K, np.eye(3))


def test_symmetric_plan_single_point_has_no_jobs():
    plan = SymmetricGramPlan(1)
    assert plan.num_pairs == 0
    assert plan.job_list() == []
    assert np.array_equal(plan.initial_matrix(), np.eye(1))


def test_cross_plan_enumerates_every_pair():
    plan = CrossGramPlan(2, 3)
    jobs = plan.job_list()
    assert plan.shape == (2, 3)
    assert plan.num_pairs == 6
    assert len(jobs) == 6
    assert not any(job.mirror for job in jobs)
    assert {(job.row, job.col) for job in jobs} == {
        (i, j) for i in range(2) for j in range(3)
    }
    assert np.array_equal(plan.initial_matrix(), np.zeros((2, 3)))


def test_plan_validation():
    with pytest.raises(KernelError):
        SymmetricGramPlan(0)
    with pytest.raises(KernelError):
        CrossGramPlan(0, 3)
    with pytest.raises(KernelError):
        CrossGramPlan(3, 0)


def test_pair_job_is_hashable_value_object():
    a = PairJob(left=0, right=1, row=0, col=1, mirror=True)
    b = PairJob(left=0, right=1, row=0, col=1, mirror=True)
    assert a == b
    assert hash(a) == hash(b)
