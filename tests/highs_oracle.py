"""HiGHS as a test oracle for route optima past the enumerator's reach.

scipy.optimize.milp solves the instance in floats; its point is rounded
and re-checked exactly with evaluate, so no float is trusted.  Callers
skip when scipy is missing, through importorskip here.
"""

import itertools

import pytest

from blockip.model import Solution, evaluate


def highs_optimum(inst):
    """HiGHS's optimum as an exact Solution, or None when it finds no point."""
    opt = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    rows = list(inst.rows())
    rhs = [float(b) for _, b in rows]
    # CSR straight from the maps: each row's columns and values, in key order
    H = sparse.csr_matrix(
        ([float(c) for row, _ in rows for c in row.values()], [j for row, _ in rows for j in row],
         [0, *itertools.accumulate(len(row) for row, _ in rows)]),
        shape=(len(rows), inst.num_vars))
    res = opt.milp(
        [-float(w) for w in inst.w],
        constraints=opt.LinearConstraint(H, rhs, rhs),
        integrality=[1] * inst.num_vars,
        bounds=opt.Bounds([float(v) for v in inst.l], [float(v) for v in inst.u]),
        options={"mip_rel_gap": 0, "time_limit": 60},
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    x = tuple(int(round(v)) for v in res.x)
    report = evaluate(inst, x)  # the float point must be an exact lattice point
    assert report.feasible, report.violations[:3]
    return Solution(x, report.objective, "highs")
