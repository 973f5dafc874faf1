"""Model construction, validation, classification, evaluation, JSON round trips."""

import dataclasses
import importlib
import itertools
import json
import pkgutil
import random
import re
from fractions import Fraction

import pytest

import blockip
from blockip import generators, intlin
from blockip.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    MalformedProblemError,
    NotEligibleError,
    ParseError,
)
from blockip.fourblock_snf import solve_4block_snf
from blockip.model import (
    FourBlockInstance,
    GeneralizedNFoldInstance,
    Infeasible,
    IntMatrix,
    StructureClass,
    checked_solution,
    classify,
    dumps,
    evaluate,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    loads_solution,
    Solution,
    solution_to_dict,
    validate,
)
from blockip.nfold_snf import solve_nfold_snf
from blockip.ones import solve_ones
from blockip.oracle import enumerate_optimum
from blockip.reductions import SubsetSumInstance, encode_theorem2b
from model_cases import (
    GENERALIZED,
    MALFORMED,
    MISFIT,
    NOT_ELIGIBLE,
    PAIR,
    SOLVERS,
    UNTYPED_CALLS,
    four_of,
    nfold_of,
)


def small_instance(n=2):
    # shared brick of width 1 plus n bricks of width 2
    A = IntMatrix.from_rows([[1, 1]])
    B = IntMatrix.from_rows([[1]])
    C = IntMatrix.from_rows([[2]])
    D = IntMatrix.from_rows([[1, 0]])
    N = 1 + 2 * n
    return FourBlockInstance.make(
        n, A, B, C, D,
        b0=[4],
        b=[[3]] * n,
        l=[0] * N,
        u=[5] * N,
        w=[1] * N,
    )


def test_validate_accepts_well_formed():
    assert validate(small_instance()) == []


def test_validate_shape_mismatches():
    inst = small_instance()
    bad = FourBlockInstance.make(inst.n, inst.A, inst.B, inst.C,
                                 IntMatrix.from_rows([[1, 0, 0]]),
                                 inst.b0, inst.b, inst.l, inst.u, inst.w)
    codes = {i.code for i in validate(bad)}
    assert "ShapeMismatch" in codes

    bad = FourBlockInstance.make(inst.n, inst.A, inst.B, inst.C, inst.D,
                                 inst.b0, inst.b, inst.l[:-1], inst.u, inst.w)
    codes = {i.code for i in validate(bad)}
    assert "ShapeMismatch" in codes


def test_validate_bound_problems():
    inst = small_instance()
    l = list(inst.l)
    l[2] = None
    bad = FourBlockInstance.make(inst.n, inst.A, inst.B, inst.C, inst.D,
                                 inst.b0, inst.b, l, inst.u, inst.w)
    assert {i.code for i in validate(bad)} == {"InfiniteBound"}

    l = list(inst.l)
    l[0] = 9
    bad = FourBlockInstance.make(inst.n, inst.A, inst.B, inst.C, inst.D,
                                 inst.b0, inst.b, l, inst.u, inst.w)
    assert {i.code for i in validate(bad)} == {"LowerExceedsUpper"}


def test_validate_rejects_non_integer_data():
    # floats, bools and Fractions anywhere in the data; dataclasses.replace
    # and the bare IntMatrix constructor skip from_rows's entry check
    inst = small_instance()
    b = (inst.b[0], (Fraction(3),))
    cases = {
        "w": {"w": (0.5,) + inst.w[1:]},
        "b0": {"b0": (True,)},
        "b": {"b": b},
        "A": {"A": IntMatrix(1, 2, (1, 1.0))},
        "B": {"B": IntMatrix(1, 1, (False,))},
        "C": {"C": IntMatrix(1, 1, (2.0,))},
        "D": {"D": IntMatrix(1, 2, (1, Fraction(0)))},
    }
    for name, fields in cases.items():
        issues = validate(dataclasses.replace(inst, **fields))
        assert [i.code for i in issues] == ["NonIntegerData"], (name, issues)
        assert issues[0].message.startswith(f"{name} entry "), issues
    assert "entry 1 = Fraction(3, 1)" in validate(dataclasses.replace(inst, b=b))[0].message
    # the bounds keep their own code, with one issue per vector
    for bad_l in ((0.0,) + inst.l[1:], (0, True) + inst.l[2:], (None, None) + inst.l[2:]):
        issues = validate(dataclasses.replace(inst, l=bad_l))
        assert [i.code for i in issues] == ["InfiniteBound"], issues


def test_routes_raise_a_typed_error_on_non_integer_data():
    # an all-ones n-fold with w[0] = 0.5 once solved to a float objective
    ones = nfold_of([[1, 1]], [[1, 0]])
    assert isinstance(solve_ones(ones), Solution)
    with pytest.raises(MalformedProblemError, match="w entry 0"):
        solve_ones(dataclasses.replace(ones, w=(0.5,) + ones.w[1:]))
    nfold = nfold_of([[2, 3]], [[1, 0]])
    assert isinstance(solve_nfold_snf(nfold), Solution)
    with pytest.raises(MalformedProblemError, match="b0 entry 0"):
        solve_nfold_snf(dataclasses.replace(nfold, b0=(0.0,)))
    four = FourBlockInstance.make(
        2, IntMatrix.from_rows([[2, 3]]), IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]),
        IntMatrix.from_rows([[1, 0]]), [0], [[0], [0]], [0] * 5, [3] * 5, [0] * 5)
    assert isinstance(solve_4block_snf(four), Solution)
    with pytest.raises(MalformedProblemError, match="C entry 0"):
        solve_4block_snf(dataclasses.replace(four, C=IntMatrix(1, 1, (Fraction(1),))))


def test_validate_rejects_a_non_int_brick_count():
    # n = 2.0 once reached range(N) inside validate and raised TypeError
    issues = validate(dataclasses.replace(small_instance(), n=2.0))
    assert [(i.code, i.message) for i in issues] == [("ShapeMismatch", "n = 2.0 is not an int")]


def test_validate_rejects_a_matrix_with_the_wrong_entry_count():
    # the bare IntMatrix constructor does not check rows * cols
    inst = small_instance()
    for name in "ABCD":
        M = getattr(inst, name)
        short = IntMatrix(M.rows, M.cols, M.entries[:-1])
        issues = validate(dataclasses.replace(inst, **{name: short}))
        assert [i.code for i in issues] == ["ShapeMismatch"], (name, issues)
        assert issues[0].message.startswith(f"{name} has {M.rows * M.cols - 1} entries"), issues
    issues = validate(dataclasses.replace(inst, A=IntMatrix(2, 3, (1, 1, 1, 1, 1))))
    assert "A has 5 entries, expected 2 x 3" in [i.message for i in issues]


def test_validate_rejects_a_non_int_matrix_shape():
    # A.rows = 1.0 once passed (1.0 * 2 == 2 entries) and the route then
    # raised a bare TypeError; A.cols = 2.0 made validate itself raise it
    inst = nfold_of([[2, 3]], [[1, 0]])
    for A, msg in (
        (IntMatrix(1.0, 2, (2, 3)), "A.rows = 1.0 is not an int"),
        (IntMatrix(1, 2.0, (2, 3)), "A.cols = 2.0 is not an int"),
    ):
        issues = validate(dataclasses.replace(inst, A=A))
        assert [(i.code, i.message) for i in issues] == [("ShapeMismatch", msg)]
    four = small_instance()
    for name in "BCD":
        M = getattr(four, name)
        odd = IntMatrix(M.rows, float(M.cols), M.entries)
        issues = validate(dataclasses.replace(four, **{name: odd}))
        assert [(i.code, i.message) for i in issues] == [
            ("ShapeMismatch", f"{name}.cols = {float(M.cols)!r} is not an int")
        ], name


@pytest.mark.parametrize("A, msg", [
    # once an AttributeError, two TypeErrors and a silent ALL_ONES_ROW
    ([[1, 1]], "A is a list, not an IntMatrix"),
    (IntMatrix(1.0, 2, (1, 1)), "A.rows = 1.0 is not an int"),
    (IntMatrix(1, 2, None), "A.entries is a NoneType, not a tuple or list"),
    (IntMatrix(1, 2, (1,)), "A has 1 entries, expected 1 x 2"),
])
def test_classify_rejects_a_malformed_matrix(A, msg):
    inst = dataclasses.replace(nfold_of([[1, 1]], [[1, 0]]), A=A)
    with pytest.raises(MalformedProblemError) as err:
        classify(inst)
    assert str(err.value) == msg
    assert [i.message for i in validate(inst)] == [msg]


def test_validate_reports_wrong_containers_before_using_them():
    inst = nfold_of([[2, 3]], [[1, 0]])
    for change, msgs in (
        ({"b": ((0,), 0)}, ["b[1] is a int, not a tuple or list"]),
        ({"b0": None}, ["b0 is a NoneType, not a tuple or list"]),
        ({"A": [[2, 3]], "w": 7}, ["A is a list, not an IntMatrix", "w is a int, not a tuple or list"]),
        ({"D": IntMatrix(1, 2, None)}, ["D.entries is a NoneType, not a tuple or list"]),
        ({"l": list(inst.l), "b": [list(bi) for bi in inst.b]}, []),
    ):
        issues = validate(dataclasses.replace(inst, **change))
        assert [(i.code, i.message) for i in issues] == [("ShapeMismatch", m) for m in msgs], change


def test_routes_raise_a_typed_error_on_malformed_shapes():
    cases = (
        (solve_ones, nfold_of([[1, 1]], [[1, 0]])),
        (solve_nfold_snf, nfold_of([[2, 3]], [[1, 0]])),
        (solve_4block_snf, four_of([[2, 3]])),
    )
    for solve, inst in cases:
        assert isinstance(solve(inst), Solution)
        with pytest.raises(MalformedProblemError, match="n = 2.0"):
            solve(dataclasses.replace(inst, n=2.0))
        with pytest.raises(MalformedProblemError, match="D has 1 entries"):
            solve(dataclasses.replace(inst, D=IntMatrix(1, 2, (1,))))
        with pytest.raises(MalformedProblemError, match="A.rows = 1.0"):
            solve(dataclasses.replace(inst, A=IntMatrix(1.0, 2, inst.A.entries)))
        # wrong containers once reached len() or .rows as bare TypeError
        # and AttributeError
        with pytest.raises(MalformedProblemError, match=r"b\[1\] is a int"):
            solve(dataclasses.replace(inst, b=(inst.b[0], 0)))
        with pytest.raises(MalformedProblemError, match="b0 is a NoneType"):
            solve(dataclasses.replace(inst, b0=None))
        with pytest.raises(MalformedProblemError, match="A is a list, not an IntMatrix"):
            solve(dataclasses.replace(inst, A=inst.A.row_lists()))


def test_classify_priorities():
    # all-ones beats everything, even shapes that fit other classes
    assert classify(nfold_of([[1, 1]], [[1, 0]])) is StructureClass.ALL_ONES_ROW
    assert classify(nfold_of([[1, 1, 1]], [[1, 0, 0]])) is StructureClass.ALL_ONES_ROW
    # one extra column with full row rank
    assert classify(nfold_of([[2, 3]], [[1, 0]])) is StructureClass.NFOLD_SNF_ELIGIBLE
    inst4 = small_instance()  # A=(1,1) but t_B>0... still all ones
    assert classify(inst4) is StructureClass.ALL_ONES_ROW
    A = IntMatrix.from_rows([[2, 3]])
    with_shared = FourBlockInstance.make(
        2, A, IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]]),
        IntMatrix.from_rows([[1, 0]]), [0], [[0], [0]],
        [0] * 5, [3] * 5, [0] * 5)
    assert classify(with_shared) is StructureClass.SNF_ELIGIBLE
    # two extra columns: hard
    assert classify(nfold_of([[1, 1, 97]], [[1, 0, 0]])) is StructureClass.HARD_TA_GE_SA_PLUS_2
    # square full-rank A: none of the above
    assert classify(nfold_of([[2, 3], [0, 5]], [[1, 0]])) is StructureClass.GENERAL
    # rank-deficient with one extra column: not eligible either
    assert classify(nfold_of([[0, 0]], [[1, 0]])) is StructureClass.GENERAL


def test_classify_stable_under_bcd_permutation():
    rng = random.Random(11)
    A = IntMatrix.from_rows([[2, 3]])
    for _ in range(30):
        sC, tB = rng.randint(1, 3), rng.randint(1, 3)
        B = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(tB)]])
        C = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(tB)] for _ in range(sC)])
        D = IntMatrix.from_rows([[rng.randint(-4, 4) for _ in range(2)] for _ in range(sC)])
        N = tB + 2 * 2
        inst = FourBlockInstance.make(2, A, B, C, D, [0] * sC, [[0], [0]],
                                      [0] * N, [1] * N, [0] * N)
        base = classify(inst)

        def permuted(m):
            rows = m.row_lists()
            rng.shuffle(rows)
            cols = list(range(m.cols))
            rng.shuffle(cols)
            return IntMatrix.from_rows([[r[c] for c in cols] for r in rows])

        inst2 = FourBlockInstance.make(2, A, permuted(B), permuted(C), permuted(D),
                                       inst.b0, inst.b, inst.l, inst.u, inst.w)
        assert classify(inst2) is base


def test_evaluate_feasible_point():
    inst = small_instance(n=2)
    # x0=1: top row 2*1 + (x1_1 + x2_1) = 4, blocks 1 + x_i1 + x_i2 = 3
    x = (1, 1, 1, 1, 1)
    rep = evaluate(inst, x)
    assert rep.feasible
    assert rep.objective == 5
    assert rep.violations == ()


def test_evaluate_reports_violations_by_block_and_row():
    inst = small_instance(n=2)
    x = (1, 2, 1, 1, 1)
    rep = evaluate(inst, x)
    assert not rep.feasible
    assert any(v.startswith("top row 0") for v in rep.violations)
    assert any(v.startswith("block 0 row 0") for v in rep.violations)

    x = (6, 1, 1, 1, 1)
    rep = evaluate(inst, x)
    assert any("above upper bound" in v for v in rep.violations)

    with pytest.raises(DimensionMismatchError):
        evaluate(inst, (0, 0))


@pytest.mark.parametrize("field", ["l", "u", "w"])
def test_evaluate_rejects_what_is_no_instance(field):
    # these once raised AttributeError (no num_vars) and TypeError (None is
    # not iterable); a short w once gave a truncated objective silently
    with pytest.raises(MalformedProblemError):
        evaluate(None, ())
    for inst in (small_instance(n=2), GENERALIZED):
        x = (0,) * inst.num_vars
        assert evaluate(inst, x).objective == 0
        for bad in (None, 7, {j: 0 for j in range(inst.num_vars)}, getattr(inst, field)[1:]):
            with pytest.raises(MalformedProblemError):
                evaluate(dataclasses.replace(inst, **{field: bad}), x)


def test_json_round_trip_four_block():
    inst = small_instance(n=3)
    text = dumps(inst)
    back = loads_instance(text)
    assert back == inst
    assert dumps(back) == text


def test_json_round_trip_nfold_omits_b_and_c():
    inst = nfold_of([[2, 3]], [[1, 0]])
    d = instance_to_dict(inst)
    assert "B" not in d and "C" not in d
    back = instance_from_dict(d)
    assert back == inst
    assert back.is_nfold


def test_json_round_trip_generalized():
    g = GeneralizedNFoldInstance.make(
        2,
        [IntMatrix.from_rows([[3, 1]]), IntMatrix.from_rows([[5, 1]])],
        [IntMatrix.from_rows([[3, 0]]), IntMatrix.from_rows([[5, 0]])],
        [8], [[8], [8]], [0, 0, 0, 0], [1, 8, 1, 8], [0, 0, 0, 0],
    )
    text = dumps(g)
    back = loads_instance(text)
    assert back == g


def test_json_round_trip_keeps_the_width_of_matrices_with_no_rows():
    # a matrix with no rows has no JSON rows to carry its width, so the
    # decoder takes it from the partner of equal width: A and D, B and C,
    # A_i and D_i
    rng = random.Random(1)
    four = [
        generators.random_snf_instance(rng, n=3, s_A=1, t_B=1, s_C=0, seeded_rate=1.0),
        generators.random_ones_instance(rng, n=3, t_A=2, t_B=1, s_C=0),
        generators.random_nfold_instance(rng, n=3, t_A=3, s_C=0),
        # no brick rows: A and B are the empty ones
        FourBlockInstance.make(
            2, IntMatrix.zero(0, 2), IntMatrix.zero(0, 1), IntMatrix.from_rows([[1]]),
            IntMatrix.from_rows([[1, 2]]), [3], [[], []], [0] * 5, [2] * 5, [1] * 5),
    ]
    for inst in four:
        assert validate(inst) == []
        back = loads_instance(dumps(inst))
        assert back == inst
        assert validate(back) == []
    A = IntMatrix.from_rows([[2, 1]])
    generalized = [
        GeneralizedNFoldInstance.make(2, [A, A], [IntMatrix.zero(0, 2)] * 2, [], [[2], [2]],
                                      [0] * 4, [1] * 4, [1] * 4),
        GeneralizedNFoldInstance.make(2, [A, IntMatrix.zero(0, 3)],
                                      [IntMatrix.from_rows([[1, 0]]), IntMatrix.from_rows([[0, 1, 1]])],
                                      [2], [[2], []], [0] * 5, [1] * 5, [1] * 5),
    ]
    for inst in generalized:
        assert loads_instance(dumps(inst)) == inst


def test_json_round_trip_recovers_the_brick_width_when_no_matrix_has_rows():
    # a plain n-fold whose A and D have no rows has no JSON rows to carry
    # t_A; the decoder takes it from len(l) = n t_A
    for n, t_A in ((2, 2), (1, 3), (3, 1)):
        N = n * t_A
        inst = FourBlockInstance.nfold(n, IntMatrix.zero(0, t_A), IntMatrix.zero(0, t_A), [],
                                       [[]] * n, [0] * N, [1] * N, [1] * N)
        assert validate(inst) == []
        back = loads_instance(dumps(inst))
        assert back == inst
        assert validate(back) == []
    # B and C have A's and D's row counts, so a 4-block instance whose B and
    # C have no rows has no rows in any matrix, and len(l) = t_B + n t_A
    # leaves both widths open (t_B = 1, t_A = 2 or t_B = 3, t_A = 1 here).
    # The decoder does not guess: validate rejects what it returns
    inst = FourBlockInstance.make(2, IntMatrix.zero(0, 2), IntMatrix.zero(0, 1),
                                  IntMatrix.zero(0, 1), IntMatrix.zero(0, 2), [], [[], []],
                                  [0] * 5, [1] * 5, [1] * 5)
    assert validate(inst) == []
    back = loads_instance(dumps(inst))
    assert back != inst
    assert {issue.code for issue in validate(back)} == {"ShapeMismatch"}


def test_json_big_integers_survive():
    big = 10**40
    inst = nfold_of([[1, big]], [[1, 0]])
    inst = FourBlockInstance.nfold(
        inst.n, inst.A, inst.D, [big], [[big], [big]],
        [-big] * 4, [big] * 4, [big] * 4)
    back = loads_instance(dumps(inst))
    assert back == inst
    assert back.u[0] == big


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        loads_instance("not json")
    with pytest.raises(ParseError):
        loads_instance('{"n": 1}')
    with pytest.raises(ParseError):
        loads_instance('{"n": 1, "A": [["x"]], "D": [["1"]], "b0": ["0"], "b": [["0"]], "l": ["0"], "u": ["1"], "w": ["0"]}')
    with pytest.raises(ParseError):
        loads_solution('{"x": ["1"]}')
    # a field that must hold an array of arrays, given a number
    four = instance_to_dict(small_instance())
    general = instance_to_dict(GENERALIZED)
    for d, field in ((four, "b"), (general, "b"), (general, "A_blocks"), (general, "D_blocks")):
        loads_instance(json.dumps(d))
        with pytest.raises(ParseError, match=f"^{field} must be an array$"):
            loads_instance(json.dumps(dict(d, **{field: 5})))


def test_solution_round_trip():
    sol = Solution((1, -2, 10**30), -7, "ones")
    d = solution_to_dict(sol)
    assert d["objective"] == "-7"
    assert loads_solution(dumps(sol)) == sol


def test_checked_solution_returns_the_report_objective_or_raises():
    inst = small_instance()
    x = [0, 2, 1, 2, 1]
    report = evaluate(inst, x)
    assert report.feasible and report.objective == 6
    # a Fraction objective that agrees gives way to the report's int
    got = checked_solution(report, x, Fraction(6), "fourblock_snf")
    assert got == Solution((0, 2, 1, 2, 1), 6, "fourblock_snf")
    assert type(got.objective) is int
    with pytest.raises(InternalInconsistencyError, match="^ones: .* worth 6, not 7"):
        checked_solution(report, x, 7, "ones")
    # infeasible at its own objective: feasibility is checked, not only the value
    bad = [1, 2, 1, 2, 1]
    report = evaluate(inst, bad)
    assert not report.feasible
    with pytest.raises(InternalInconsistencyError, match="^nfold_snf: the point is infeasible"):
        checked_solution(report, bad, report.objective, "nfold_snf")


def _violated_rows(inst, x):
    """{row index: lhs} of the rows that evaluate reports broken at x."""
    s_A = len(inst.b[0]) if inst.b else 0
    out = {}
    for v in evaluate(inst, x).violations:
        m = re.fullmatch(r"(?:top row|row) (\d+): lhs (-?\d+) != rhs -?\d+", v)
        if m:
            out[int(m[1])] = int(m[2])
        m = re.fullmatch(r"block (\d+) row (\d+): lhs (-?\d+) != rhs -?\d+", v)
        if m:
            out[len(inst.b0) + int(m[1]) * s_A + int(m[2])] = int(m[3])
    return out


def _block_lhs(inst, x):
    """Each row's lhs at x, read off the blocks of a GeneralizedNFoldInstance."""
    starts = list(itertools.accumulate((Ai.cols for Ai in inst.A_blocks), initial=0))
    parts = [x[s:e] for s, e in zip(starts, starts[1:])]
    top = [sum(Di.row(r)[h] * v for Di, p in zip(inst.D_blocks, parts) for h, v in enumerate(p))
           for r in range(len(inst.b0))]
    return top + [v for Ai, p in zip(inst.A_blocks, parts) for v in Ai.mul_vec(p)]


def test_rows_match_evaluate():
    rng = random.Random(21)
    for inst in (small_instance(n=3), encode_theorem2b(SubsetSumInstance.make([3, 5, 2], 7))):
        rows = list(inst.rows())
        assert len(rows) == len(inst.b0) + sum(map(len, inst.b))
        for row, _ in rows:
            assert all(type(c) is int and c != 0 for c in row.values())
            assert list(row) == sorted(row) and set(row) <= set(range(inst.num_vars))
        # random points, and points one step off the optimum, which break few rows
        opt = enumerate_optimum(inst).x
        points = [[rng.randint(-3, 6) for _ in opt] for _ in range(20)]
        points += [[v + (rng.random() < 0.2) * rng.choice((-1, 1)) for v in opt] for _ in range(20)]
        for x in points + [list(opt)]:
            lhs = [sum(c * x[j] for j, c in row.items()) for row, _ in rows]
            if isinstance(inst, GeneralizedNFoldInstance):
                assert lhs == _block_lhs(inst, x)  # evaluate reads rows() for this kind
            assert _violated_rows(inst, x) == {
                r: a for r, (a, (_, rhs)) in enumerate(zip(lhs, rows)) if a != rhs}
        assert _violated_rows(inst, list(opt)) == {}


def _shaped(n, t_A, t_B):
    """Instance of the given shape whose vectors hold distinct entries."""
    N = t_B + n * t_A
    vec = list(range(10, 10 + N))
    return FourBlockInstance.make(n, IntMatrix.zero(1, t_A), IntMatrix.zero(1, t_B),
                                  IntMatrix.zero(0, t_B), IntMatrix.zero(0, t_A),
                                  [], [[0]] * n, vec, vec, vec)


def test_bricks_and_brick_sums_follow_brick_slice():
    rng = random.Random("brick accessors")
    insts = []
    for _ in range(5):
        insts.append(generators.random_ones_instance(
            rng, n=rng.randint(0, 5), t_A=rng.randint(1, 3), t_B=rng.randint(0, 2)))
        insts.append(generators.random_nfold_instance(rng, n=rng.randint(0, 5), t_A=rng.randint(2, 3)))
        insts.append(generators.random_snf_instance(
            rng, n=rng.randint(0, 5), s_A=rng.randint(1, 2), t_B=rng.randint(1, 2)))
    # edge shapes: no bricks, no shared brick, one column, no columns
    insts += [_shaped(0, 3, 2), _shaped(4, 2, 0), _shaped(4, 1, 2), _shaped(4, 0, 2), _shaped(0, 0, 0)]
    for inst in insts:
        for vec in (inst.l, inst.u, inst.w, list(inst.w)):
            pieces = [vec[inst.brick_slice(i)] for i in range(inst.n)]
            assert inst.bricks(vec) == pieces
            assert inst.brick_sums(vec) == [sum(p[h] for p in pieces) for h in range(inst.t_A)]


def test_zero_brick_count_is_legal():
    A = IntMatrix.from_rows([[1, 1]])
    D = IntMatrix.from_rows([[1, 0]])
    inst = FourBlockInstance.nfold(0, A, D, b0=[0], b=[], l=[], u=[], w=[])
    assert validate(inst) == []
    rep = evaluate(inst, ())
    assert rep.feasible  # 0 == 0 top row
    assert rep.objective == 0


def test_validate_and_classify_take_a_generalized_instance():
    # both once raised AttributeError: the instance has no attribute 'A'
    assert validate(GENERALIZED) == []
    assert classify(GENERALIZED) is StructureClass.GENERAL
    # an empty box is no malformed structure: classify still names the
    # class, the oracle proves it empty, and the routes refuse it as
    # validate does a 4-block one
    empty = dataclasses.replace(GENERALIZED, l=(2, 0, 0, 0))
    assert [(i.code, i.message) for i in validate(empty)] == [("LowerExceedsUpper", "l[0] = 2 > u[0] = 1")]
    assert classify(empty) is StructureClass.GENERAL
    assert enumerate_optimum(empty) == Infeasible("EmptyBox")
    for solve in SOLVERS:
        with pytest.raises(MalformedProblemError, match=r"l\[0\] = 2 > u\[0\] = 1"):
            solve(empty)


def test_validate_names_what_is_wrong_with_a_generalized_instance():
    A, D = GENERALIZED.A_blocks[0], GENERALIZED.D_blocks[0]
    for change, msgs in (
        ({"n": 2.0}, ["n = 2.0 is not an int"]),
        ({"n": -1}, ["n must be nonnegative, got -1",
                     "A_blocks, D_blocks and b have 2, 2 and 2 entries, expected n = -1"]),
        ({"A_blocks": (A, [[1, 1]]), "w": 0}, ["A_blocks[1] is a list, not an IntMatrix",
                                              "w is a int, not a tuple or list"]),
        ({"D_blocks": None}, ["D_blocks is a NoneType, not a tuple or list"]),
        ({"b0": (1, 1)}, ["D_blocks[0] has 1 rows, b0 has length 2",
                          "D_blocks[1] has 1 rows, b0 has length 2"]),
        ({"D_blocks": (D, IntMatrix.from_rows([[1, 0, 0]])), "l": (0, 0, 0)},
         ["A_blocks[1] has 2 cols, D_blocks[1] has 3", "l has length 3, expected 4"]),
        ({"b": ((1,), (1, 1))}, ["b[1] has length 2, expected 1"]),
        ({"A_blocks": (A, IntMatrix(1, 2, (1, True)))}, ["A_blocks[1] entry 1 = True is not a finite integer"]),
        ({"l": [0] * 4, "b": [[1], [1]], "A_blocks": [A, A]}, []),
    ):
        issues = validate(dataclasses.replace(GENERALIZED, **change))
        assert [i.message for i in issues] == msgs, change


@pytest.mark.parametrize("inst", [case[1] for case in MALFORMED], ids=[case[0] for case in MALFORMED])
def test_malformed_input_of_either_kind_raises_a_typed_error(inst):
    # routes once raised AttributeError on a generalized instance, and
    # validate on anything that is no instance; the oracle checks both
    # kinds with the same validate
    issues = validate(inst)
    assert issues, inst
    with pytest.raises(MalformedProblemError) as err:
        classify(inst)
    assert str(err.value) == issues[0].message
    for solve in SOLVERS + (enumerate_optimum,):
        with pytest.raises(MalformedProblemError) as err:
            solve(inst)
        assert str(err.value) == issues[0].message


@pytest.mark.parametrize(
    "call, args", [case[1:] for case in UNTYPED_CALLS], ids=[case[0] for case in UNTYPED_CALLS])
def test_untyped_arguments_raise_a_typed_error(call, args):
    # each once raised AttributeError, TypeError or IndexError, or, for
    # evaluate at (True, False), reported a feasible point
    assert evaluate(PAIR, (0, 1)).feasible
    with pytest.raises(MalformedProblemError):
        call(*args)


@pytest.mark.parametrize("inst", [case[1] for case in MISFIT], ids=[case[0] for case in MISFIT])
def test_evaluate_names_the_block_shape_that_validate_names(inst):
    with pytest.raises(MalformedProblemError) as err:
        evaluate(inst, (0,) * inst.num_vars)
    assert str(err.value) == validate(inst)[0].message


def test_validate_takes_only_instances():
    for thing in (None, "instance", GENERALIZED.A_blocks[0], instance_to_dict(GENERALIZED)):
        issues = validate(thing)
        assert [i.code for i in issues] == ["ShapeMismatch"]
        assert issues[0].message == (f"the instance is a {type(thing).__name__}, "
                                     "not a FourBlockInstance or a GeneralizedNFoldInstance")


@pytest.mark.parametrize(
    "solve, inst", [case[1:] for case in NOT_ELIGIBLE], ids=[case[0] for case in NOT_ELIGIBLE])
def test_each_route_refuses_what_it_cannot_take(solve, inst):
    assert validate(inst) == []
    with pytest.raises(NotEligibleError):
        solve(inst)


def test_one_smith_form_per_smith_route_call(monkeypatch):
    # the route's Smith form is its eligibility check and its elimination;
    # classify, which a caller runs first, makes one more
    original = intlin.smith_normal_form
    calls = []

    def counted(A):
        calls.append(A)
        return original(A)

    patched = []
    for info in pkgutil.iter_modules(blockip.__path__):
        module = importlib.import_module(f"blockip.{info.name}")
        if getattr(module, "smith_normal_form", None) is original:
            monkeypatch.setattr(module, "smith_normal_form", counted)
            patched.append(info.name)
    assert {"intlin", "nfold_snf", "fourblock_snf"} <= set(patched), patched

    rng = random.Random("one Smith form")
    cases = [(solve_nfold_snf, generators.random_nfold_instance(
        rng, n=rng.randint(0, 4), t_A=rng.randint(2, 3), s_C=rng.randint(0, 2))) for _ in range(20)]
    cases += [(solve_4block_snf, inst) for _, inst in cases]  # t_B = 0
    cases += [(solve_4block_snf, generators.random_snf_instance(
        rng, n=rng.randint(0, 3), t_B=rng.randint(1, 2), s_C=rng.randint(0, 1))) for _ in range(20)]
    verdicts = set()
    for solve, inst in cases:
        calls.clear()
        verdicts.add(type(solve(inst)))
        assert len(calls) == 1, (solve.__name__, inst)
        calls.clear()
        classify(inst)
        assert len(calls) == 1
    assert verdicts == {Solution, Infeasible}
    # a wrong shape, a zero A or per-block matrices are refused without a
    # Smith form; the rank-deficient 2 x 3 A needs one to be refused
    for _, solve, inst in NOT_ELIGIBLE[2:]:
        calls.clear()
        with pytest.raises(NotEligibleError):
            solve(inst)
        assert len(calls) == (isinstance(inst, FourBlockInstance) and inst.A.rows == 2), (solve, inst)
