import itertools
import random

import pytest
from highs_oracle import highs_optimum

from blockip import generators
from blockip.errors import NotEligibleError, TargetOutOfRangeError
from blockip.intlin import integer_rank
from blockip.model import (
    FourBlockInstance,
    Infeasible,
    IntMatrix,
    Solution,
    StructureClass,
    classify,
    evaluate,
)
from blockip.nfold_snf import (
    build_context,
    greedy_ip8,
    reduce_box_to_interval,
    solve_nfold_snf,
)
from blockip.oracle import OracleBudget, enumerate_optimum


def random_eligible_A(rng, t_A, coeff=4):
    """Random s_A x (s_A+1) matrix with full row rank."""
    s_A = t_A - 1
    while True:
        rows = [[rng.randint(-coeff, coeff) for _ in range(t_A)] for _ in range(s_A)]
        M = IntMatrix.from_rows(rows)
        if integer_rank(M) == s_A and not all(v == 1 for v in M.entries):
            return M


def eligible_instance(rng, n, t_A, width=5, coeff=3, seeded=True, s_C=1):
    A = random_eligible_A(rng, t_A, coeff)
    s_A = t_A - 1
    D = (
        IntMatrix.from_rows(
            [[rng.randint(-coeff, coeff) for _ in range(t_A)] for _ in range(s_C)]
        )
        if s_C
        else IntMatrix.zero(0, t_A)
    )
    N = n * t_A
    l = [rng.randint(-3, 2) for _ in range(N)]
    u = [v + rng.randint(0, width) for v in l]
    w = [rng.randint(-6, 6) for _ in range(N)]
    if seeded:
        seed = [rng.randint(l[j], u[j]) for j in range(N)]
        b = [A.mul_vec(seed[i * t_A:(i + 1) * t_A]) for i in range(n)]
        agg = [sum(seed[i * t_A + h] for i in range(n)) for h in range(t_A)]
        b0 = D.mul_vec(agg)
    else:
        b = [[rng.randint(-6, 6) for _ in range(s_A)] for _ in range(n)]
        b0 = [rng.randint(-6, 6) for _ in range(s_C)]
    return FourBlockInstance.nfold(n, A, D, b0, b, l, u, w)


def test_divisibility_failure():
    A = IntMatrix.from_rows([[2, 0]])
    D = IntMatrix.zero(0, 2)
    inst = FourBlockInstance.nfold(1, A, D, [], [[3]], [0, 0], [5, 5], [1, 1])
    res = solve_nfold_snf(inst)
    assert isinstance(res, Infeasible)
    assert res.reason == "DivisibilityFail"


def test_wrong_class_rejected():
    A = IntMatrix.from_rows([[1, 1]])  # all-ones row routes elsewhere
    D = IntMatrix.zero(0, 2)
    inst = FourBlockInstance.nfold(1, A, D, [], [[3]], [0, 0], [5, 5], [1, 1])
    with pytest.raises(NotEligibleError):
        solve_nfold_snf(inst)


def test_degenerate_intervals_unique_solution():
    # boxes pin every brick; the solver must return the one lattice point
    A = IntMatrix.from_rows([[2, 1]])
    D = IntMatrix.from_rows([[1, 1]])
    x1, x2 = (3, 1), (0, 4)
    b = [[2 * a + c] for a, c in (x1, x2)]
    b0 = [x1[0] + x1[1] + x2[0] + x2[1]]
    inst = FourBlockInstance.nfold(
        2, A, D, b0, b, [3, 1, 0, 4], [3, 1, 0, 4], [1, 1, 1, 1]
    )
    res = solve_nfold_snf(inst)
    assert isinstance(res, Solution)
    assert res.x == (3, 1, 0, 4)


def test_constant_row_violation_reported_as_empty():
    A = IntMatrix.from_rows([[1, 0]])
    D = IntMatrix.zero(0, 2)
    inst = FourBlockInstance.nfold(1, A, D, [], [[5]], [0, 0], [1, 9], [1, 1])
    res = solve_nfold_snf(inst)
    assert isinstance(res, Infeasible)
    assert res.reason == "EmptyInterval"


def test_aggregate_inconsistency():
    A = IntMatrix.from_rows([[1, 0]])
    D = IntMatrix.from_rows([[1, 0]])  # ignores the free component
    inst = FourBlockInstance.nfold(
        1, A, D, [7], [[5]], [0, 0], [9, 9], [1, 1]
    )
    res = solve_nfold_snf(inst)
    assert isinstance(res, Infeasible)
    assert res.reason == "AggregateInconsistent"


def test_aggregate_out_of_range():
    A = IntMatrix.from_rows([[1, 0]])
    D = IntMatrix.from_rows([[0, 1]])
    inst = FourBlockInstance.nfold(
        1, A, D, [50], [[5]], [0, 0], [9, 9], [1, 1]
    )
    res = solve_nfold_snf(inst)
    assert isinstance(res, Infeasible)
    assert res.reason == "AggregateOutOfRange"


def test_reduce_identity_single_column():
    V = IntMatrix.identity(1)
    assert reduce_box_to_interval(V, (), [-4], [7]) == (-4, 7)


def test_reduce_rounding_rule():
    # 2z <= 5 rounds down to 2; -3 <= 2z rounds up to -1
    V = IntMatrix.from_rows([[2]])
    assert reduce_box_to_interval(V, (), [-3], [5]) == (-1, 2)


def test_reduce_constant_row():
    V = IntMatrix.from_rows([[1, 0], [0, 1]])
    res = reduce_box_to_interval(V, (4,), [0, 0], [3, 9])
    assert isinstance(res, Infeasible)
    assert res.reason == "ConstantRowViolated"


def test_reduce_matches_membership_oracle():
    rng = random.Random(11003)
    for _ in range(200):
        t = rng.randint(1, 3)
        k = t - 1
        rows = [
            [rng.randint(-3, 3) for _ in range(t)] for _ in range(t)
        ]
        for h in range(t):
            if all(r[k] == 0 for r in rows):
                rows[h][k] = rng.choice([-2, -1, 1, 2])
        V = IntMatrix.from_rows(rows)
        fixed = tuple(rng.randint(-2, 2) for _ in range(k))
        l = [rng.randint(-8, 0) for _ in range(t)]
        u = [v + rng.randint(0, 9) for v in l]
        got = reduce_box_to_interval(V, fixed, l, u)
        members = [
            z
            for z in range(-20, 21)
            if all(
                l[h]
                <= sum(V.at(h, j) * fixed[j] for j in range(k)) + V.at(h, k) * z
                <= u[h]
                for h in range(t)
            )
        ]
        if isinstance(got, Infeasible):
            assert members == []
        else:
            lo, hi = got
            want = [z for z in range(-20, 21) if lo <= z <= hi]
            assert members == want


def test_greedy_frozen_split():
    p = greedy_ip8(((0, 2), (0, 2)), (5, 1), 3)
    assert p == (2, 1)
    assert 5 * p[0] + 1 * p[1] == 11


def test_greedy_all_at_caps():
    assert greedy_ip8(((1, 3), (0, 4)), (-2, 3), 6) == (2, 4)


def test_greedy_equal_weights_index_order():
    assert greedy_ip8(((0, 3), (0, 3), (0, 3)), (2, 2, 2), 4) == (3, 1, 0)


def test_greedy_target_out_of_range():
    with pytest.raises(TargetOutOfRangeError):
        greedy_ip8(((0, 2),), (1,), 3)
    with pytest.raises(TargetOutOfRangeError):
        greedy_ip8(((0, 2),), (1,), -1)


def test_greedy_matches_enumeration():
    rng = random.Random(11004)
    for _ in range(150):
        m = rng.randint(1, 5)
        caps = [rng.randint(0, 4) for _ in range(m)]
        weights = [rng.randint(-4, 4) for _ in range(m)]
        total = sum(caps)
        target = rng.randint(0, total)
        p = greedy_ip8(tuple((0, c) for c in caps), tuple(weights), target)
        got = sum(w * v for w, v in zip(weights, p))
        best = max(
            sum(w * v for w, v in zip(weights, q))
            for q in itertools.product(*[range(c + 1) for c in caps])
            if sum(q) == target
        )
        assert got == best
        assert sum(p) == target


def test_random_battery_against_oracle():
    rng = random.Random(11005)
    feasible = infeasible = 0
    for trial in range(100):
        n = rng.randint(1, 4)
        t_A = rng.choice([2, 2, 3])
        inst = eligible_instance(
            rng, n, t_A, width=4, seeded=trial % 2 == 0, s_C=rng.randint(0, 2)
        )
        assert classify(inst) == StructureClass.NFOLD_SNF_ELIGIBLE
        want = enumerate_optimum(inst, OracleBudget(10 ** 7))
        got = solve_nfold_snf(inst)
        if isinstance(want, Infeasible):
            assert isinstance(got, Infeasible), (trial,)
            infeasible += 1
        else:
            assert isinstance(got, Solution), (trial,)
            assert got.objective == want.objective, (trial,)
            assert evaluate(inst, got.x).feasible
            feasible += 1
    assert feasible >= 25 and infeasible >= 10


def test_unconstrained_aggregate_takes_best_ends():
    # D = 0 rows: bricks decouple entirely
    A = IntMatrix.from_rows([[1, 0]])
    D = IntMatrix.zero(0, 2)
    inst = FourBlockInstance.nfold(
        2, A, D, [], [[5], [5]], [5, -3, 5, -3], [5, 4, 5, 4], [0, 2, 0, -1]
    )
    res = solve_nfold_snf(inst)
    assert isinstance(res, Solution)
    assert res.x == (5, 4, 5, -3)
    assert res.objective == 8 + 3


def test_moderate_scale_completes():
    rng = random.Random(11006)
    inst = eligible_instance(rng, 3000, 2, width=6, seeded=True)
    res = solve_nfold_snf(inst)
    assert isinstance(res, Solution)


def test_matches_highs_beyond_the_enumerator():
    # 200 bricks of width 3: far past enumerate_optimum, so the oracle is
    # HiGHS, with both its answer and the route's re-checked exactly
    rng = random.Random(72)
    feas, reasons = 0, []
    for _ in range(24):
        inst = generators.random_nfold_instance(rng, n=200, t_A=3, s_C=1, seeded_rate=0.7)
        want = highs_optimum(inst)
        got = solve_nfold_snf(inst)
        if want is None:
            assert isinstance(got, Infeasible), got
            reasons.append(got.reason)
            continue
        assert isinstance(got, Solution), (got, want.objective)
        report = evaluate(inst, got.x)
        assert report.feasible and report.objective == got.objective
        assert got.objective == want.objective
        feas += 1
    assert feas >= 8 and {"DivisibilityFail", "EmptyInterval"} <= set(reasons), (feas, reasons)
