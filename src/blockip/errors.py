"""Exception types shared across the package.

Infeasibility of an instance is not an error; solvers report it as a value
(see model.Infeasible).  The classes here signal misuse, malformed input or
a broken internal invariant.
"""


class BlockIpError(Exception):
    """Base class for all package errors."""


class ParseError(BlockIpError):
    """Input text or JSON does not follow the documented schema."""


class DimensionMismatchError(BlockIpError):
    """A vector has the wrong length for the operation."""


class BothZeroError(BlockIpError):
    """gcd of (0, 0) requested."""


class ZeroMatrixError(BlockIpError):
    """Smith normal form of an all-zero matrix requested."""


class MalformedProblemError(BlockIpError):
    """An LP/MIP description is inconsistent (shapes, missing bounds)."""


class NotEligibleError(BlockIpError):
    """A route refused an instance of a structure it cannot solve."""


class NotAllOnesError(NotEligibleError):
    """The aggregate-variable solver needs every entry of A equal to one."""


class TargetOutOfRangeError(BlockIpError):
    """Greedy fill target lies outside [0, sum of capacities]."""


class InternalInconsistencyError(BlockIpError):
    """A solver invariant broke: an audit, a certificate or an exit check
    failed, so the answer cannot be trusted; indicates a bug."""


class BetaExceedsTargetError(BlockIpError):
    """A subset-sum item exceeds the target, so the encoding box is empty."""


class BadParamsError(BlockIpError):
    """Generator or reduction called with out-of-range parameters."""


class BudgetExceededError(BlockIpError):
    """Exhaustive enumeration visited more nodes than the budget allows."""

    def __init__(self, visited: int, budget: int):
        super().__init__(f"enumeration budget exhausted: {visited} nodes visited, budget {budget}")
        self.visited = visited
        self.budget = budget
