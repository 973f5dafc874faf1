"""Linear-time n-fold solver for bricks with one more column than rows.

One Smith form of A (intlin.brick_form) decides that A is eligible and
gives each brick's integer solutions as base_i + theta z_i
(intlin.particular_solutions, with theta the one vector of
intlin.kernel_basis), or proves there are none.  The top block then
collapses to a single equation in the sum of the z_i, and the objective
becomes separable, so a greedy fill finishes the job.  Total work: one
Smith form, O(1) arithmetic per brick, one sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (
    InternalInconsistencyError,
    MalformedProblemError,
    NotEligibleError,
    TargetOutOfRangeError,
)
from .intlin import brick_form, kernel_basis, particular_solutions, quotient_range
from .model import FourBlockInstance, Infeasible, checked_solution, evaluate, validate

# classify and smith_normal_form are no longer called here; they stay
# importable under these names because perfbench/tracer.py wraps them here
from .intlin import smith_normal_form  # noqa: F401
from .model import classify  # noqa: F401


@dataclass(frozen=True)
class NfoldSnfContext:
    """Everything the greedy phase needs, derived brick by brick."""

    theta: tuple  # integer kernel step: A theta = 0, shared by every brick
    bases: tuple  # per brick: its particular solution of A x = b_i
    d0: object  # forced value of the free-component sum, None if unconstrained
    intervals: tuple  # per brick: (lo, hi) for the free component
    weights: tuple  # per brick: objective rate of its free component
    c0: int  # objective value contributed by the bases


def reduce_box_to_interval(theta, base, l, u):
    """Tightest integer interval for z with l <= base + theta * z <= u.

    Each coordinate constrains z when theta_h != 0 and otherwise just checks
    the constant.  Returns (lo, hi), or Infeasible("EmptyInterval") /
    Infeasible("ConstantRowViolated").
    """
    if not len(theta) == len(base) == len(l) == len(u):
        raise MalformedProblemError("theta, base and the box differ in length")
    lo, hi = None, None
    for th, b, lh, uh in zip(theta, base, l, u):
        if th == 0:
            if not (lh <= b <= uh):
                return Infeasible("ConstantRowViolated")
            continue
        rlo, rhi = quotient_range(th, lh - b, uh - b)
        if lo is None or rlo > lo:
            lo = rlo
        if hi is None or rhi < hi:
            hi = rhi
    if lo is None:
        # theta is a kernel basis vector, hence never all zero
        raise InternalInconsistencyError("kernel step theta is zero")
    if lo > hi:
        return Infeasible("EmptyInterval")
    return (lo, hi)


def greedy_ip8(intervals, weights, target):
    """Spread target units over bricks, each taking 0..(hi-lo), best rates first.

    Returns the per-brick amounts (in units above each interval's low end).
    Equal rates fill in ascending brick index.  Exchange argument: moving a
    unit from a chosen brick to an unchosen one never raises the objective.
    MalformedProblemError when target is not an int, intervals or weights
    is not a tuple or list, the two differ in length or an interval is
    empty (hi < lo).
    """
    if type(target) is not int:
        raise MalformedProblemError(f"target must be an int, not {target!r}")
    if type(intervals) not in (tuple, list) or type(weights) not in (tuple, list):
        raise MalformedProblemError("intervals and weights must be tuples or lists")
    if len(weights) != len(intervals):
        raise MalformedProblemError("weights and intervals differ in length")
    caps = [hi - lo for lo, hi in intervals]
    if caps and min(caps) < 0:
        raise MalformedProblemError("an interval is empty (hi < lo)")
    if target < 0 or target > sum(caps):
        raise TargetOutOfRangeError(f"target {target} outside [0, {sum(caps)}]")
    order = sorted(range(len(caps)), key=lambda i: (-weights[i], i))
    p = [0] * len(caps)
    rem = target
    for i in order:
        if rem == 0:
            break
        take = caps[i] if caps[i] < rem else rem
        p[i] = take
        rem -= take
    return tuple(p)


def build_context(inst: FourBlockInstance):
    """Per-brick elimination; NfoldSnfContext or Infeasible.

    Raises NotEligibleError when intlin.brick_form(A) is None.  Each brick
    is checked in full before the next, so the first brick that fails names
    the reason.
    """
    tA, sA = inst.t_A, inst.s_A
    snf = brick_form(inst.A)
    if snf is None:
        raise NotEligibleError("needs t_A = s_A + 1 and full row rank")
    (theta,) = kernel_basis(snf)

    bases = []
    intervals = []
    weights = []
    c0 = 0
    base_sum = [0] * tA
    for i, base in enumerate(particular_solutions(snf, inst.b)):
        if base is None:
            return Infeasible("DivisibilityFail")
        s = inst.brick_slice(i)
        iv = reduce_box_to_interval(theta, base, inst.l[s], inst.u[s])
        if isinstance(iv, Infeasible):
            return Infeasible("EmptyInterval")
        wi = inst.w[s]
        for h in range(tA):
            base_sum[h] += base[h]
        c0 += sum(map(mul, wi, base))
        bases.append(base)
        intervals.append(iv)
        weights.append(sum(map(mul, wi, theta)))

    # top block: every row is a one-variable equation in the free-sum
    d0 = None
    for r in range(inst.s_C):
        drow = inst.D.row(r)
        coeff = sum(drow[h] * theta[h] for h in range(tA))
        rhs = inst.b0[r] - sum(drow[h] * base_sum[h] for h in range(tA))
        if coeff == 0:
            if rhs != 0:
                return Infeasible("AggregateInconsistent")
            continue
        if rhs % coeff != 0:
            return Infeasible("AggregateInconsistent")
        root = rhs // coeff
        if d0 is None:
            d0 = root
        elif d0 != root:
            return Infeasible("AggregateInconsistent")

    return NfoldSnfContext(
        theta, tuple(bases), d0, tuple(intervals), tuple(weights), c0
    )


def solve_nfold_snf(inst: FourBlockInstance):
    """Exact optimum for eligible n-fold instances; Solution or Infeasible."""
    issues = validate(inst)
    if issues:
        raise MalformedProblemError(issues[0].message)
    if not isinstance(inst, FourBlockInstance) or not inst.is_nfold:
        raise NotEligibleError("needs a plain n-fold: one A, one D and t_B = 0")

    ctx = build_context(inst)
    if isinstance(ctx, Infeasible):
        return ctx

    low_sum = sum(lo for lo, _ in ctx.intervals)
    if ctx.d0 is None:
        # no aggregate constraint: every brick independently takes its best end
        p = tuple(
            (hi - lo if ctx.weights[i] > 0 else 0)
            for i, (lo, hi) in enumerate(ctx.intervals)
        )
    else:
        target = ctx.d0 - low_sum
        caps = sum(hi - lo for lo, hi in ctx.intervals)
        if target < 0 or target > caps:
            return Infeasible("AggregateOutOfRange")
        p = greedy_ip8(ctx.intervals, ctx.weights, target)

    theta = ctx.theta
    x = []
    objective = ctx.c0
    for i, base in enumerate(ctx.bases):
        z = ctx.intervals[i][0] + p[i]
        x.extend(b + th * z for b, th in zip(base, theta))
        objective += ctx.weights[i] * z

    return checked_solution(evaluate(inst, x), x, objective, "nfold_snf")
