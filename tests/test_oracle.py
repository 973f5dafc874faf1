"""Enumeration oracle and subset-sum DP checks."""

import random

import pytest

from blockip.errors import BudgetExceededError
from blockip.model import FourBlockInstance, Infeasible, IntMatrix, Solution, evaluate
from blockip.oracle import OracleBudget, enumerate_optimum
from blockip.reductions import SubsetSumInstance, encode_theorem1
from subset_sum import subset_sum_dp


def boxed(n, A_rows, D_rows, b0, b, l, u, w):
    return FourBlockInstance.nfold(
        n, IntMatrix.from_rows(A_rows), IntMatrix.from_rows(D_rows), b0, b, l, u, w
    )


def test_width_zero_box():
    inst = boxed(1, [[1, 1]], [[1, 0]], b0=[2], b=[[5]], l=[2, 3], u=[2, 3], w=[1, 1])
    sol = enumerate_optimum(inst)
    assert isinstance(sol, Solution)
    assert sol.x == (2, 3)
    assert sol.objective == 5

    inst = boxed(1, [[1, 1]], [[1, 0]], b0=[9], b=[[5]], l=[2, 3], u=[2, 3], w=[1, 1])
    assert isinstance(enumerate_optimum(inst), Infeasible)


def test_three_binary_variables_hand_enumeration():
    # one brick, x1+x2+x3 = 2 over {0,1}^3, maximize x1 + 2*x2 + 3*x3
    inst = boxed(1, [[1, 1, 1]], [[0, 0, 0]], b0=[0], b=[[2]],
                 l=[0, 0, 0], u=[1, 1, 1], w=[1, 2, 3])
    best = None
    for p in range(8):
        x = ((p >> 2) & 1, (p >> 1) & 1, p & 1)
        if sum(x) == 2:
            v = x[0] + 2 * x[1] + 3 * x[2]
            if best is None or v > best:
                best = v
    sol = enumerate_optimum(inst)
    assert sol.objective == best == 5


def test_empty_box_and_constant_rows():
    inst = boxed(1, [[1, 1]], [[1, 0]], b0=[0], b=[[0]], l=[1, 0], u=[0, 0], w=[0, 0])
    out = enumerate_optimum(inst)
    assert isinstance(out, Infeasible)


def test_budget_exceeded_raises():
    # x1 - x2 = 0 and x1 + x2 = wide leave a 1e12-wide first loop
    wide = 10**12
    inst = boxed(1, [[1, 1]], [[1, -1]], b0=[0], b=[[wide]],
                 l=[0, 0], u=[wide, wide], w=[1, 0])
    with pytest.raises(BudgetExceededError):
        enumerate_optimum(inst, OracleBudget(max_points=1000))


def test_oracle_solution_feasible_and_brick_permutation_invariant():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 3)
        tA = rng.randint(1, 2)
        A = [[rng.randint(-2, 2) for _ in range(tA)]]
        D = [[rng.randint(-2, 2) for _ in range(tA)]]
        N = n * tA
        l = [rng.randint(-2, 0) for _ in range(N)]
        u = [v + rng.randint(0, 3) for v in l]
        w = [rng.randint(-3, 3) for _ in range(N)]
        seed_x = [rng.randint(l[j], u[j]) for j in range(N)]
        inst = boxed(n, A, D,
                     b0=[sum(D[0][h] * sum(seed_x[i * tA + h] for i in range(n)) for h in range(tA))],
                     b=[[sum(A[0][h] * seed_x[i * tA + h] for h in range(tA))] for i in range(n)],
                     l=l, u=u, w=w)
        sol = enumerate_optimum(inst)
        assert isinstance(sol, Solution)
        rep = evaluate(inst, sol.x)
        assert rep.feasible and rep.objective == sol.objective
        # permute bricks: same objective
        perm = list(range(n))
        rng.shuffle(perm)
        inst2 = FourBlockInstance.nfold(
            n, inst.A, inst.D, inst.b0,
            [inst.b[p] for p in perm],
            sum((list(inst.l[inst.brick_slice(p)]) for p in perm), []),
            sum((list(inst.u[inst.brick_slice(p)]) for p in perm), []),
            sum((list(inst.w[inst.brick_slice(p)]) for p in perm), []),
        )
        sol2 = enumerate_optimum(inst2)
        assert isinstance(sol2, Solution)
        assert sol2.objective == sol.objective


def test_theorem1_instances_agree_with_dp():
    rng = random.Random(88)
    for _ in range(30):
        n = rng.randint(1, 8)
        betas = [rng.randint(1, 12) for _ in range(n)]
        delta = max(max(betas), rng.randint(1, sum(betas)))
        s = SubsetSumInstance.make(betas, delta)
        inst = encode_theorem1(s)
        verdict = not isinstance(enumerate_optimum(inst), Infeasible)
        assert verdict == subset_sum_dp(betas, delta)


def test_subset_sum_dp_frozen():
    assert subset_sum_dp((3, 5, 8), 8) is True
    assert subset_sum_dp((2, 4, 6), 5) is False
    assert subset_sum_dp((2, 4), 7) is False
    assert subset_sum_dp((7,), 0) is True


def test_subset_sum_dp_vs_meet_in_middle():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 12)
        betas = [rng.randint(1, 40) for _ in range(n)]
        delta = rng.randint(1, max(60, sum(betas)))
        small = subset_sum_dp(betas, delta)
        # force the meet-in-the-middle path by shifting everything huge
        scale = 10**7
        big = subset_sum_dp([b * scale for b in betas], delta * scale)
        assert small == big
