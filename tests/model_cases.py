"""Instance builders and refusal cases shared by test_model.py and test_python_O.py.

It imports no pytest, so test_python_O.py still runs as a plain script
under python -O on an interpreter without pytest.
"""

import dataclasses
from fractions import Fraction

from blockip.flow import TransportProblem
from blockip.fourblock_snf import solve_4block_snf
from blockip.intlin import (
    extended_gcd,
    lattice_in_box,
    quotient_range,
    reduce_basis,
    round_half_even,
    smith_normal_form,
)
from blockip.model import FourBlockInstance, IntMatrix, evaluate
from blockip.nfold_snf import greedy_ip8, solve_nfold_snf
from blockip.ones import solve_ones
from blockip.oracle import OracleBudget, enumerate_optimum
from blockip.ratlp import LpProblem, solve_lp, solve_lp_warm
from blockip.reductions import SubsetSumInstance, encode_theorem2b
from blockip.smallip import MipProblem, best_of, solve_mip

SOLVERS = (solve_ones, solve_nfold_snf, solve_4block_snf)

# a well-formed GeneralizedNFoldInstance: the per-block brick matrices
# (1, 1) and (1, 1) under the top row (1, 0), so x_11 + x_21 = 1
GENERALIZED = encode_theorem2b(SubsetSumInstance.make([1, 1], 1))


def nfold_of(A_rows, D_rows, n=2, width=3):
    A = IntMatrix.from_rows(A_rows)
    D = IntMatrix.from_rows(D_rows)
    N = n * A.cols
    return FourBlockInstance.nfold(
        n, A, D,
        b0=[0] * D.rows,
        b=[[0] * A.rows] * n,
        l=[0] * N,
        u=[width] * N,
        w=[0] * N,
    )


def four_of(A_rows, n=2, width=3):
    """4-block instance with one shared variable and one top row."""
    A = IntMatrix.from_rows(A_rows)
    N = 1 + n * A.cols
    return FourBlockInstance.make(
        n, A, IntMatrix.from_rows([[1]] * A.rows), IntMatrix.from_rows([[1]]),
        IntMatrix.from_rows([[1] + [0] * (A.cols - 1)]), [0], [[0] * A.rows] * n,
        [0] * N, [width] * N, [0] * N)


# (route, instance it cannot take): every route refuses with NotEligibleError
# (the all-ones route's NotAllOnesError is a subclass), so a caller that
# tries routes in turn catches one type
NOT_ELIGIBLE = (
    ("ones", solve_ones, nfold_of([[1, 2]], [[1, 0]])),
    ("ones", solve_ones, nfold_of([[0, 0]], [[1, 0]])),
    ("nfold_snf", solve_nfold_snf, four_of([[2, 3]])),
    ("nfold_snf", solve_nfold_snf, nfold_of([[1, 1, 1]], [[1, 0, 0]])),
    ("nfold_snf", solve_nfold_snf, nfold_of([[0, 0]], [[1, 0]])),
    ("fourblock_snf", solve_4block_snf, four_of([[1, 1, 1]])),
    ("fourblock_snf", solve_4block_snf, nfold_of([[1, 2, 3], [2, 4, 6]], [[1, 0, 0]], n=0)),
    ("fourblock_snf", solve_4block_snf, four_of([[0, 0]])),
    # per-block matrices are outside every route
    ("ones", solve_ones, GENERALIZED),
    ("nfold_snf", solve_nfold_snf, GENERALIZED),
    ("fourblock_snf", solve_4block_snf, GENERALIZED),
)

_A, _D = GENERALIZED.A_blocks[0], GENERALIZED.D_blocks[0]

# (what is wrong, input): validate reports it, and classify, every route
# and the oracle raise MalformedProblemError, not AttributeError or TypeError
MALFORMED = tuple(
    (what, dataclasses.replace(GENERALIZED, **change)) for what, change in (
        ("b short of n", {"b": [[1]]}),
        ("n past the blocks", {"n": 3}),
        ("D_1 wider than A_1", {"D_blocks": [_D, IntMatrix.from_rows([[1, 0, 0]])]}),
        ("b_1 longer than A_1's rows", {"b": [[1], [1, 1]]}),
        ("b0 longer than D_i's rows", {"b0": [1, 1]}),
        ("w short", {"w": [0] * 3}),
        ("float in w", {"w": [0.5, 0, 0, 0]}),
        ("bool in u", {"u": [1, 1, 1, True]}),
        ("str in b0", {"b0": ["1"]}),
        ("b not a sequence", {"b": None}),
        ("float n", {"n": 2.0}),
        ("A_blocks not a sequence", {"A_blocks": None}),
        ("a block not an IntMatrix", {"A_blocks": [_A, [[1, 1]]]}),
        ("a block short of rows x cols", {"D_blocks": [_D, IntMatrix(1, 2, (1,))]}),
        ("float in a block", {"A_blocks": [_A, IntMatrix(1, 2, (1, 1.0))]}),
    )
) + (("not an instance", None), ("a matrix, not an instance", _A))

# the n-fold x_1 + x_2 = 1 over the box [0, 1]^2, with no top rows
PAIR = FourBlockInstance.nfold(1, IntMatrix.from_rows([[1, 1]]), IntMatrix.zero(0, 2),
                               b0=[], b=[[1]], l=[0, 0], u=[1, 1], w=[0, 1])

MIP = MipProblem.make(LpProblem.make([1], [], [0], [1]), [True])

# the solved tableau of max x over 0 <= x <= 1 in the box [0, 2]: one
# structural column, and column 1 is the row's slack
WARM = solve_lp_warm(LpProblem.make([1], [([1], 0, 1)], [0], [2]))[1]

# generalized instances whose blocks do not fit together, each with a point
# of num_vars zeros: evaluate once raised IndexError on the first two and
# reported violations of rows that do not exist on the third
MISFIT = (
    ("evaluate with D_blocks doubled", dataclasses.replace(GENERALIZED, D_blocks=GENERALIZED.D_blocks * 2)),
    ("evaluate with b one block short", dataclasses.replace(GENERALIZED, b=GENERALIZED.b[:-1])),
    ("evaluate with b0 one entry longer", dataclasses.replace(GENERALIZED, b0=GENERALIZED.b0 + (1,))),
)

# (what is wrong, function, arguments): each call raises
# MalformedProblemError, not AttributeError, TypeError, IndexError or
# ZeroDivisionError, and evaluate reports no point that is not integral as
# feasible
UNTYPED_CALLS = (
    ("oracle budget a str", enumerate_optimum, (PAIR, "x")),
    ("oracle budget of a str", enumerate_optimum, (PAIR, OracleBudget("x"))),
    ("integrality mask None", MipProblem.make, (LpProblem.make([1], [], [0], [1]), None)),
    ("MIP over a str, not an LP", MipProblem.make, ("lp", [True])),
    ("integrality mask of a str", MipProblem.make, (LpProblem.make([1], [], [0], [1]), ["x"])),
    ("integrality mask of None", MipProblem.make, (LpProblem.make([1], [], [0], [1]), [None])),
    ("warm box of two entries", WARM.edited, ([(0, 1)],)),
    ("warm rows None", WARM.edited, ((), None)),
    ("warm bounds of the slack", WARM.bounds, (1,)),
    ("warm bounds past the columns", WARM.bounds, (5,)),
    ("Smith form of a list", smith_normal_form, ([[1, 2]],)),
    ("Smith form of None", smith_normal_form, (None,)),
    ("Smith form of a float entry", smith_normal_form, (IntMatrix(1, 2, (1, 2.5)),)),
    ("Smith form short of rows x cols", smith_normal_form, (IntMatrix(1, 2, (1,)),)),
    ("bools as a point", evaluate, (PAIR, (True, False))),
    ("a float in a point", evaluate, (PAIR, [0.0, 1])),
    ("a Fraction in a point", evaluate, (PAIR, (0, Fraction(1)))),
    ("a point that is no sequence", evaluate, (PAIR, None)),
    ("greedy weights short of the intervals", greedy_ip8, (((0, 2), (0, 2)), (1,), 1)),
    ("greedy target a float", greedy_ip8, (((0, 2), (0, 2)), (1, 1), 2.5)),
    ("greedy target a bool", greedy_ip8, (((0, 2),), (1,), True)),
    ("greedy empty interval", greedy_ip8, (((3, 0),), (1,), 0)),
    ("greedy intervals None", greedy_ip8, (None, (1,), 0)),
    ("greedy weights None", greedy_ip8, (((0, 1),), None, 0)),
    ("transport row totals an int", TransportProblem.make, (5, [1], [[0]], [[1]], [[1]])),
    ("transport cell matrices ints", TransportProblem, ((1,), (1,), 5, 5, 5)),
    ("transport totals changed to an int",
     TransportProblem.make([1], [1], [[0]], [[1]], [[1]]).with_totals, (5, [1])),
    ("LP objective an int", LpProblem, (5, [], [0], [1])),
    ("LP rows None", LpProblem.make, ([1], None, [0], [1])),
    ("gcd of a float", extended_gcd, (1.5, 2)),
    ("MIP solve of a str", solve_mip, ("x",)),
    ("MIP cutoff a str", solve_mip, (MipProblem.make(LpProblem.make([1], [], [0], [1]), [True]), "x")),
    ("best_of roots an int", best_of, (5,)),
    ("best_of root None, not a MIP", best_of, ([(None, 0, 0)],)),
    ("best_of ceiling a float", best_of, ([(MIP, 0, 1.5)],)),
    ("best_of cutoff a float", best_of, ([(MIP, 0, 1)], 1.5)),
    ("best_of cutoff a str", best_of, ([(MIP, 0, 1)], "a")),
    ("best_of separator an int", best_of, ([(MIP, 0, 1)], None, 5)),
    ("warm LP solve of a str", solve_lp_warm, ("x",)),
    ("LP solve of None", solve_lp, (None,)),
    ("LLL of a dependent basis", reduce_basis, ([[1, 2], [2, 4]],)),
    ("quotient range of a zero step", quotient_range, (0, 1, 2)),
    ("half-even rounding over zero", round_half_even, (1, 0)),
    ("lattice in a box without a Smith form", lattice_in_box, (None, [0], [0], [1])),
) + tuple((what, evaluate, (inst, (0,) * inst.num_vars)) for what, inst in MISFIT)
