"""Subset-sum encodings: frozen verdicts plus a DP-equivalence battery."""

import random

import pytest

from blockip.errors import BadParamsError, BetaExceedsTargetError
from blockip.model import Infeasible, StructureClass, classify, evaluate
from blockip.oracle import enumerate_optimum
from blockip.reductions import (
    SubsetSumInstance,
    encode_scheduling,
    encode_theorem1,
    encode_theorem2a,
    encode_theorem2b,
)
from subset_sum import subset_sum_dp


def feasible(inst):
    return not isinstance(enumerate_optimum(inst), Infeasible)


def test_subset_sum_validation():
    with pytest.raises(BadParamsError):
        SubsetSumInstance.make([], 4)
    with pytest.raises(BadParamsError):
        SubsetSumInstance.make([0, 2], 4)
    with pytest.raises(BadParamsError):
        SubsetSumInstance.make([1, 2], 0)
    with pytest.raises(BetaExceedsTargetError):
        encode_theorem1(SubsetSumInstance.make([9], 4))


def test_theorem1_frozen_cases():
    s = SubsetSumInstance.make([3, 5, 8], 8)
    inst = encode_theorem1(s)
    assert classify(inst) is StructureClass.HARD_TA_GE_SA_PLUS_2
    assert feasible(inst)

    assert not feasible(encode_theorem1(SubsetSumInstance.make([2, 4], 7)))

    s = SubsetSumInstance.make([6], 6)
    inst = encode_theorem1(s)
    rep = evaluate(inst, (6, 0, 0))
    assert rep.feasible


def test_theorem2a_frozen_cases():
    assert feasible(encode_theorem2a(SubsetSumInstance.make([1, 2, 4], 6)))
    # oversized single item: encodable, simply infeasible
    assert not feasible(encode_theorem2a(SubsetSumInstance.make([5], 3)))
    s = SubsetSumInstance.make([4], 4)
    inst = encode_theorem2a(s)
    assert feasible(inst)
    # taking the single item: x1=1 forces x2=0 in the brick row
    rows = list(inst.dense_rows())
    x = (1, 0)
    assert all(sum(c * v for c, v in zip(coeffs, x)) == rhs for coeffs, rhs in rows)


def test_theorem2b_frozen_cases():
    assert feasible(encode_theorem2b(SubsetSumInstance.make([3, 5], 5)))
    assert not feasible(encode_theorem2b(SubsetSumInstance.make([3, 5], 4)))
    n = 4
    assert feasible(encode_theorem2b(SubsetSumInstance.make([1] * n, n)))


def test_scheduling_frozen_cases():
    # k=0: every machine unblocked and forced to beta_i type-1 jobs,
    # so the fill works exactly when the betas sum to delta
    s = SubsetSumInstance.make([2, 3], 5)
    assert feasible(encode_scheduling(s, 0))
    assert not feasible(encode_scheduling(SubsetSumInstance.make([2, 3], 4), 0))
    # k=n: type-2 job count goes negative; constructed but infeasible
    assert not feasible(encode_scheduling(s, 2))
    with pytest.raises(BadParamsError):
        encode_scheduling(s, 3)


def test_scheduling_matches_size_restricted_subset_sum():
    # a machine without a type-3 job must take exactly beta_i type-1 jobs
    # (x1 <= beta_i and x1 >= delta - (delta - beta_i)), so the schedule
    # exists iff some subset of size n-k sums to delta
    from itertools import combinations

    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 5)
        betas = [rng.randint(1, 6) for _ in range(n)]
        delta = max(betas) + rng.randint(0, 4)
        s = SubsetSumInstance.make(betas, delta)
        for k in range(n + 1):
            expect = any(
                sum(betas[i] for i in comb) == delta
                for comb in combinations(range(n), n - k)
            )
            assert feasible(encode_scheduling(s, k)) == expect


def test_equivalence_battery_all_encoders():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 7)
        betas = [rng.randint(1, 12) for _ in range(n)]
        delta = max(max(betas), rng.randint(1, min(40, sum(betas))))
        s = SubsetSumInstance.make(betas, delta)
        truth = subset_sum_dp(betas, delta)
        assert feasible(encode_theorem1(s)) == truth
        assert feasible(encode_theorem2a(s)) == truth
        assert feasible(encode_theorem2b(s)) == truth
        assert classify(encode_theorem1(s)) is StructureClass.HARD_TA_GE_SA_PLUS_2
