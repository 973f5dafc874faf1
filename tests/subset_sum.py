"""Subset sum decided directly, the ground truth for the subset-sum encodings.

The tests of blockip.reductions compare each encoding's verdict with this
one, so it stays apart from the package.
"""

from blockip.errors import BudgetExceededError


def subset_sum_dp(betas, delta: int) -> bool:
    """Decide whether some subset of betas sums exactly to delta.

    Bitset DP for targets up to 1e6, meet-in-the-middle for up to 25 items;
    anything bigger is out of budget.
    """
    if delta < 0:
        return False
    if delta == 0:
        return True
    items = [b for b in betas if 0 < b <= delta]
    if sum(items) < delta:
        return False
    if delta <= 10**6:
        reachable = 1
        mask = (1 << (delta + 1)) - 1
        for b in items:
            reachable |= (reachable << b) & mask
        return bool((reachable >> delta) & 1)
    if len(items) <= 25:
        half = len(items) // 2
        left, right = items[:half], items[half:]

        def sums(vals):
            acc = {0}
            for v in vals:
                acc |= {s + v for s in acc if s + v <= delta}
            return acc

        left_sums = sums(left)
        right_sums = sums(right)
        return any(delta - s in left_sums for s in right_sums)
    raise BudgetExceededError(len(items), 25)
