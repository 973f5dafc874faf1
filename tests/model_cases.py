"""Instance builders and refusal cases shared by test_model.py and test_python_O.py.

It imports no pytest, so test_python_O.py still runs as a plain script
under python -O on an interpreter without pytest.
"""

from blockip.fourblock_snf import solve_4block_snf
from blockip.model import FourBlockInstance, IntMatrix
from blockip.nfold_snf import solve_nfold_snf
from blockip.ones import solve_ones


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
)
